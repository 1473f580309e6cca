"""Differential test: the first-token-index matcher against the naive scan.

`_oracle_classify_note`, `_oracle_contains` and `_oracle_note_is_query` are
verbatim copies of the matcher as it was before the index: every pattern
of every rule is searched at every token position. Whole
`NoteClassification`s must be equal, including the order and positions
of `all_matches`.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notedta.classifier import (
    HBV_CATEGORY,
    HCV_CATEGORY,
    NO_NOTE_CATEGORY,
    NONSPECIFIC_CATEGORY,
    CategoryRule,
    Lexicon,
    Match,
    NoteClassification,
    classify_note,
    default_lexicon,
    normalize_note,
)


def _oracle_contains(tokens: tuple[str, ...], pattern: tuple[str, ...]) -> int:
    """Index of the first contiguous occurrence of pattern, or -1."""
    w = len(pattern)
    for i in range(len(tokens) - w + 1):
        if tuple(tokens[i : i + w]) == pattern:
            return i
    return -1


def _oracle_classify_note(text: str, lexicon: Lexicon) -> NoteClassification:
    tokens = normalize_note(text)
    if not tokens:
        return NoteClassification(NO_NOTE_CATEGORY, "", "negative", "negative", ())

    matches: list[Match] = []
    best: tuple[int, Match] | None = None
    for rule in lexicon.rules:
        for pattern in rule.patterns:
            pos = _oracle_contains(tokens, pattern)
            if pos >= 0:
                m = Match(rule.category_id, " ".join(pattern), pos)
                matches.append(m)
                if best is None or rule.priority < best[0]:
                    best = (rule.priority, m)
                break  # one match per category is enough

    if best is None:
        return NoteClassification(NONSPECIFIC_CATEGORY, "", "negative", "negative", ())

    is_query = _oracle_note_is_query(tokens, lexicon)
    matched_ids = {m.category_id for m in matches}
    hbv = "positive" if (HBV_CATEGORY in matched_ids and not is_query) else "negative"
    hcv = "positive" if (HCV_CATEGORY in matched_ids and not is_query) else "negative"
    return NoteClassification(
        best[1].category_id, best[1].pattern, hbv, hcv, tuple(matches)
    )


def _oracle_note_is_query(tokens: tuple[str, ...], lexicon: Lexicon) -> bool:
    """A '?' token anywhere or any query keyword marks the note as a query."""
    if "?" in tokens:
        return True
    return any(_oracle_contains(tokens, kw) >= 0 for kw in lexicon.query_keywords)


def _lexicon(custom: dict[int, tuple[str, ...]], priorities: dict[int, int] | None = None) -> Lexicon:
    """All 46 categories; those in `custom` get its patterns, the rest a unique token.

    Priorities default to the category id. Rules are listed in descending id
    order, so rule order and priority order disagree.
    """
    rules = tuple(
        CategoryRule(
            category_id=cid,
            label=f"c{cid}",
            icd10_chapter=None,
            priority=(priorities or {}).get(cid, cid),
            patterns=tuple(normalize_note(p) for p in custom.get(cid, (f"tok{cid}",))),
        )
        for cid in range(46, 0, -1)
    )
    # No "?" keyword: a "?" token must make a query on its own.
    query = (("possible",), ("for", "investigation"), ("screen", "now"))
    return Lexicon(rules, query)


# A rule's second pattern occurs before its first pattern in these notes.
LATER_PATTERN_FIRST = _lexicon({
    HBV_CATEGORY: ("hep b carrier", "hbv"),
    5: ("alpha beta", "gamma", "delta"),
    6: ("omega", "gamma delta"),
})
# Rules 3, 4, 7 and the HCV rule share their first token.
SHARED_FIRST_TOKEN = _lexicon({
    HCV_CATEGORY: ("alpha hep c",),
    3: ("alpha beta",),
    4: ("alpha gamma", "beta"),
    7: ("alpha",),
}, priorities={7: 0})
# Overlapping multi-token patterns, within and across rules.
OVERLAPPING = _lexicon({
    HBV_CATEGORY: ("a b hbv", "hbv"),
    HCV_CATEGORY: ("b hcv", "hcv a"),
    8: ("a b c", "b c"),
    9: ("c d", "a b"),
    10: ("b c d e", "d e", "a"),
})
# Query keywords ("possible", "for investigation", "screen now") start or
# equal patterns, so a token's index entries mix rules and the query group.
QUERY_TOKENS_IN_PATTERNS = _lexicon({
    HBV_CATEGORY: ("hbv",),
    8: ("screen", "possible cause"),
    9: ("for",),
})
HAND_BUILT = {
    "later-pattern-first": LATER_PATTERN_FIRST,
    "shared-first-token": SHARED_FIRST_TOKEN,
    "overlapping": OVERLAPPING,
    "query-tokens-in-patterns": QUERY_TOKENS_IN_PATTERNS,
}


def _assert_same(text: str, lexicon: Lexicon) -> None:
    assert classify_note(text, lexicon) == _oracle_classify_note(text, lexicon), text


@pytest.mark.parametrize("text, lexicon, expected", [
    ("gamma x alpha beta", LATER_PATTERN_FIRST, (Match(5, "alpha beta", 2),)),
    ("hbv then hep b carrier", LATER_PATTERN_FIRST,
     (Match(HBV_CATEGORY, "hepatitis-b carrier", 2),)),
    ("gamma delta omega gamma", LATER_PATTERN_FIRST,
     (Match(6, "omega", 2), Match(5, "gamma", 0))),
    ("alpha gamma alpha beta", SHARED_FIRST_TOKEN,
     (Match(7, "alpha", 0), Match(4, "alpha gamma", 0), Match(3, "alpha beta", 2))),
    ("a b c d e", OVERLAPPING,
     (Match(10, "b c d e", 1), Match(9, "c d", 2), Match(8, "a b c", 0))),
])
def test_hand_built_examples(text, lexicon, expected):
    assert classify_note(text, lexicon).all_matches == expected
    _assert_same(text, lexicon)


@pytest.mark.parametrize("text, lexicon, labels", [
    ("hbv ? x", LATER_PATTERN_FIRST, ("negative", "negative")),
    ("a b hbv for investigation", OVERLAPPING, ("negative", "negative")),
    ("a b hbv for", OVERLAPPING, ("positive", "negative")),
    ("b hcv screen now", OVERLAPPING, ("negative", "negative")),
    ("now screen b hcv", OVERLAPPING, ("negative", "positive")),
])
def test_hand_built_polarity(text, lexicon, labels):
    c = classify_note(text, lexicon)
    assert (c.hbv_label, c.hcv_label) == labels
    _assert_same(text, lexicon)


@pytest.mark.parametrize("text, category_id, matches, hbv_label", [
    ("screen now hbv", HBV_CATEGORY,
     (Match(8, "screen", 0), Match(HBV_CATEGORY, "hepatitis-b", 2)), "negative"),
    ("possible cause hbv", HBV_CATEGORY,
     (Match(8, "possible cause", 0), Match(HBV_CATEGORY, "hepatitis-b", 2)), "negative"),
    ("for hbv", HBV_CATEGORY,
     (Match(9, "for", 0), Match(HBV_CATEGORY, "hepatitis-b", 1)), "positive"),
    ("for investigation hbv", HBV_CATEGORY,
     (Match(9, "for", 0), Match(HBV_CATEGORY, "hepatitis-b", 2)), "negative"),
    ("screen now", 8, (Match(8, "screen", 0),), "negative"),
    ("?", NONSPECIFIC_CATEGORY, (), "negative"),
])
def test_query_tokens_in_patterns(text, category_id, matches, hbv_label):
    c = classify_note(text, QUERY_TOKENS_IN_PATTERNS)
    assert (c.category_id, c.all_matches, c.hbv_label) == (category_id, matches, hbv_label)
    assert None not in {m.category_id for m in c.all_matches}
    _assert_same(text, QUERY_TOKENS_IN_PATTERNS)


_DEFAULT = default_lexicon()
_DEFAULT_PHRASES = sorted({" ".join(p) for r in _DEFAULT.rules for p in r.patterns})
_ABBREVIATIONS = ["hep b", "hep c", "hbv", "hcv", "hx", "pos", "fi", "hepatitis", "b", "c"]
_FILLER = ["please", "bloods", "gp", "urgent", "for", "investigation", "known", "history"]


def _words(phrases: list[str]) -> st.SearchStrategy[str]:
    tokens = sorted({t for p in phrases for t in p.split()})
    return st.sampled_from(phrases + tokens + _ABBREVIATIONS + _FILLER + ["?", "possible"])


def _notes(phrases: list[str]) -> st.SearchStrategy[str]:
    separators = st.sampled_from([" ", "  ", ", ", "?", " - "])
    return st.lists(st.tuples(_words(phrases), separators), max_size=14).map(
        lambda parts: "".join(w + s for w, s in parts)
    )


@settings(max_examples=300, deadline=None)
@given(_notes(_DEFAULT_PHRASES))
def test_default_lexicon_matches_oracle(text):
    _assert_same(text, _DEFAULT)


def _hand_built_phrases(lexicon: Lexicon) -> list[str]:
    return sorted({" ".join(p) for r in lexicon.rules for p in r.patterns if r.category_id <= 10}
                  | {"screen now", "alpha hep c", "a b hbv"})


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hand_built_lexicons_match_oracle(name, data):
    lexicon = HAND_BUILT[name]
    _assert_same(data.draw(_notes(_hand_built_phrases(lexicon))), lexicon)


def test_empty_pattern_and_query_keyword_rejected():
    # The index keys every pattern by its first token; an empty one has none.
    with pytest.raises(ValueError, match="empty pattern"):
        CategoryRule(3, "c3", None, 3, (("x",), ()))
    rules = LATER_PATTERN_FIRST.rules
    with pytest.raises(ValueError, match="empty query keyword"):
        Lexicon(rules, (("?",), ()))


# -- cases the fast paths skip work on ----------------------------------------

_HEPATITIS_TOKENS = {"hepatitis-b", "hepatitis-c"}
_NON_HEPATITIS_PHRASES = [
    " ".join(p)
    for r in _DEFAULT.rules
    if r.category_id not in (HBV_CATEGORY, HCV_CATEGORY)
    for p in r.patterns
    if _HEPATITIS_TOKENS.isdisjoint(p)
]
_QUERY_PHRASES = [" ".join(kw) for kw in _DEFAULT.query_keywords]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_NON_HEPATITIS_PHRASES + _QUERY_PHRASES + _FILLER),
                min_size=1, max_size=10).map(" ".join))
def test_query_without_hepatitis_match_matches_oracle(text):
    # Query tokens without a hepatitis match: the scan finds the query
    # group, which changes no label and adds no match.
    c = classify_note(text, _DEFAULT)
    assert not {HBV_CATEGORY, HCV_CATEGORY} & {m.category_id for m in c.all_matches}
    _assert_same(text, _DEFAULT)


@pytest.mark.parametrize("text", ["? anaemia", "possible depression", "fatigue screen",
                                  "for investigation of malaise", "?", "screen ?"])
def test_query_without_hepatitis_match_examples(text):
    _assert_same(text, _DEFAULT)


_ABBREVIATION_STARTS = {"hepatitis", "hep", "hbv", "hcv", "hx", "pos", "fi"}


def _raw_tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+|\?", text.lower())


_PLAIN_WORDS = sorted(
    {w for w in _DEFAULT_PHRASES + _QUERY_PHRASES + _FILLER
     if _ABBREVIATION_STARTS.isdisjoint(_raw_tokens(w))}
    | {t for p in _DEFAULT_PHRASES for t in _raw_tokens(p)} - _ABBREVIATION_STARTS
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PLAIN_WORDS), st.sampled_from([" ", ", ", "?"])),
                max_size=14).map(lambda parts: "".join(w + sep for w, sep in parts)))
def test_notes_without_abbreviation_start_match_oracle(text):
    # normalize_note returns these notes' raw tokens without the abbreviation scan.
    assert _ABBREVIATION_STARTS.isdisjoint(_raw_tokens(text))
    _assert_same(text, _DEFAULT)


@pytest.mark.parametrize("lexicon", [_DEFAULT, *HAND_BUILT.values()],
                         ids=["default", *HAND_BUILT])
@pytest.mark.parametrize("text, category", [("", NO_NOTE_CATEGORY), (" - , ", NO_NOTE_CATEGORY),
                                            ("zzz qqq", NONSPECIFIC_CATEGORY)])
def test_shared_empty_and_unmatched_results(lexicon, text, category):
    fresh = NoteClassification(category, "", "negative", "negative", ())
    c = classify_note(text, lexicon)
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
    assert c == _oracle_classify_note(text, lexicon)
    with pytest.raises(AttributeError):
        c.category_id = 1  # shared between notes, so it must stay immutable
