"""Differential test: `normalize_note` against its abbreviation scan at every token.

`_oracle_normalize_note` is a verbatim copy of `normalize_note` as it was
before tokens that start no abbreviation skipped the window lookup: every
raw token is tried against `_CANONICAL` at widths 3, 2 and 1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from notedta.classifier import _CANONICAL, _MAX_ABBREV, _TOKEN_RE, default_lexicon, normalize_note


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
    for text in ("Known Hep C", "hep b hep c hbv", "Hx Hep B ?", "FI hepatitis b", "hep", "hep hep c"):
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
