"""Differential test: `normalize_note` against a regex tokenizer and an
abbreviation scan at every token.

`_oracle_normalize_note` is `normalize_note` as it was before tokens that
start no abbreviation skipped the window lookup, and before notes were split
through a bytes table: every note is tokenized by `_TOKEN_RE` on its lower
case, and every raw token is tried against `_CANONICAL` at widths 3, 2 and 1.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from notedta.classifier import _CANONICAL, _MAX_ABBREV, default_lexicon, normalize_note

_TOKEN_RE = re.compile(r"[a-z0-9]+|\?")


def _oracle_normalize_note(text: str) -> tuple[str, ...]:
    raw = _TOKEN_RE.findall(text.lower())
    out: list[str] = []
    i = 0
    while i < len(raw):
        for width in range(_MAX_ABBREV, 0, -1):
            chunk = tuple(raw[i : i + width])
            if chunk in _CANONICAL:
                out.extend(_CANONICAL[chunk])
                i += width
                break
        else:
            out.append(raw[i])
            i += 1
    return tuple(out)


_ABBREV_WORDS = sorted({w for key in _CANONICAL for w in key})
_LEXICON_WORDS = sorted(
    {w for rule in default_lexicon().rules for p in rule.patterns for w in p}
    | {w for kw in default_lexicon().query_keywords for w in kw}
)
_FILLER = ("known", "the", "and", "b", "c", "screen", "x1", "2019", "hepb", "hepc")

_words = st.sampled_from(_ABBREV_WORDS) | st.sampled_from(_LEXICON_WORDS) | st.sampled_from(_FILLER)
_cased = st.builds(lambda w, up: w.upper() if up else w, _words, st.booleans())
_seps = st.sampled_from((" ", "  ", "?", " ?", ",", ". ", "-", "/", "'", "\t", "(", ") "))
_notes = st.lists(st.tuples(_cased, _seps), max_size=14).map(
    lambda parts: "".join(w + s for w, s in parts)
)


def test_oracle_examples():
    for text in (
        "Known Hep C", "hep b hep c hbv", "Hx Hep B ?", "FI hepatitis b", "hep", "hep hep c",
        "\u212anown Hep B", "\u212aK",  # KELVIN SIGN lowers to 'k'
        "HEPAT\u0130T\u0130S C", "\u0130v",  # 'İ' lowers to 'i' and a combining dot
        "\ud800", "hep\udfffb",  # a lone surrogate has no strict UTF-8
        "\u0130 hep b", "Hep C \u0663", "\u0663hbv",  # an Arabic-Indic digit is no token
        "stra\u00dfe hcv", "\u00df",  # 'ß' lowers to itself
        "hep\x1cb", "hep\x1fc\x1e", "hep\x85c", "hep\xa0b", "hep\u2028c", "\x00hbv\x7f",
        "Hep B? screen", "?HBV?", "?", "", "\t\n\r\x0b\x0c",
    ):
        assert normalize_note(text) == _oracle_normalize_note(text), text


@settings(max_examples=400)
@given(_notes)
def test_normalize_note_equals_oracle(text):
    assert normalize_note(text) == _oracle_normalize_note(text)


@settings(max_examples=200)
@given(_notes)
def test_normalize_note_idempotent_on_abbreviation_text(text):
    once = normalize_note(text)
    assert normalize_note(" ".join(once)) == once


# Characters the two tokenizers could treat apart: ASCII controls, the
# separators str.split() knows beyond ASCII, letters whose lower case holds
# ASCII letters (KELVIN SIGN, 'İ') or none ('ß', 'ſ', ANGSTROM SIGN, 'é'),
# a digit and a dash outside ASCII, and lone surrogates.
_EDGE_CHARS = (*map(chr, range(32)), "\x7f", "\x85", "\xa0", "\u1680", "\u2028", "\u2029",
               "\u3000", "\u212a", "\u0130", "\u0663", "\u00df", "\u017f", "\u212b", "\u00e9",
               "\u2013", "\ud800", "\udfff", "?", " ", "-")


@settings(max_examples=500)
@given(st.text(st.characters(exclude_categories=())))
def test_normalize_note_equals_oracle_on_any_text(text):
    assert normalize_note(text) == _oracle_normalize_note(text)


@settings(max_examples=500)
@given(st.lists(_words | st.sampled_from(_EDGE_CHARS), max_size=20).map("".join))
def test_normalize_note_equals_oracle_on_words_and_edge_characters(text):
    assert normalize_note(text) == _oracle_normalize_note(text)
