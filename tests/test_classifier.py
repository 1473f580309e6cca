import pytest
from hypothesis import given
from hypothesis import strategies as st

from notedta.classifier import (
    HBV_CATEGORY,
    HCV_CATEGORY,
    NO_NOTE_CATEGORY,
    NONSPECIFIC_CATEGORY,
    Lexicon,
    Match,
    NoteClassification,
    classify_note,
    default_lexicon,
    normalize_note,
    parse_lexicon,
)

LEX = default_lexicon()


# -- normalization ------------------------------------------------------------

def test_normalize_case_whitespace_and_abbreviations():
    assert normalize_note("  Known Hep C ") == ("known", "hepatitis-c")
    assert normalize_note("HBV carrier") == ("hepatitis-b", "carrier")
    assert normalize_note("Hx Hep B") == ("history", "hepatitis-b")


def test_normalize_isolates_question_mark():
    assert normalize_note("?Hep C") == ("?", "hepatitis-c")
    assert normalize_note("Hepatitis cause?") == ("hepatitis", "cause", "?")


def test_normalize_empty():
    assert normalize_note("") == ()
    assert normalize_note("   ") == ()


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    once = normalize_note(text)
    assert normalize_note(" ".join(once)) == once


# -- default lexicon ----------------------------------------------------------

def test_default_lexicon_shape():
    assert len(LEX.rules) == 46
    assert sorted(r.category_id for r in LEX.rules) == list(range(1, 47))
    assert len({r.priority for r in LEX.rules}) == 46
    assert LEX.query_keywords == (("?",), ("possible",), ("screen",), ("cause",),
                                  ("for", "investigation"))


def test_default_lexicon_patterns_classify_to_their_own_rule():
    owners = [(pattern, r.category_id) for r in LEX.rules for pattern in r.patterns]
    assert len(owners) == 325
    assert len({pattern for pattern, _ in owners}) == 325  # no pattern in two rules
    wrong = [(pattern, cid) for pattern, cid in owners
             if classify_note(" ".join(pattern), LEX).category_id != cid]
    assert wrong == []


def test_default_lexicon_key_patterns():
    assert ("hepatitis-b",) in LEX.rule(1).patterns
    assert ("hepatitis-c",) in LEX.rule(2).patterns
    assert ("rants",) in LEX.rule(29).patterns


def test_default_lexicon_parsed_once():
    assert default_lexicon() is default_lexicon()


_MINIMAL_LEXICON = "\n".join(
    f"[category {i}]\nlabel: c{i}\npriority: {i}\npattern: tok{i}" for i in range(1, 47)
)


def test_statement_lines_are_documentation_only():
    polarity = "\n[polarity]\nquery: possible\n"
    documented = parse_lexicon(_MINIMAL_LEXICON + polarity + "statement: known\nstatement: tok1\n")
    assert documented == parse_lexicon(_MINIMAL_LEXICON + polarity)


def test_unknown_polarity_key_rejected():
    with pytest.raises(ValueError, match="unknown polarity key 'maybe'"):
        parse_lexicon(_MINIMAL_LEXICON + "\n[polarity]\nmaybe: x\n")


def test_lexicon_missing_category_rejected():
    text = "\n".join(
        f"[category {i}]\nlabel: c{i}\npriority: {i}\npattern: tok{i}"
        for i in range(1, 47)
        if i != 7
    )
    with pytest.raises(ValueError, match=r"\[7\]"):
        parse_lexicon(text)


def test_lexicon_category_set_messages():
    rules = tuple(r for r in LEX.rules if r.category_id != 7)
    with pytest.raises(ValueError, match=r"^lexicon missing categories: \[7\]$"):
        Lexicon(rules + (LEX.rule(8),), LEX.query_keywords)
    with pytest.raises(ValueError, match=r"^lexicon has duplicate categories: \[7, 8\]$"):
        Lexicon(LEX.rules + (LEX.rule(8), LEX.rule(7)), LEX.query_keywords)


def test_lexicon_missing_label_rejected():
    with pytest.raises(ValueError, match=r"^line 25: category 7 has no label$"):
        parse_lexicon(_MINIMAL_LEXICON.replace("label: c7\n", ""))


def test_lexicon_empty_query_keyword_names_its_line():
    # "-" normalizes to no token at all.
    with pytest.raises(ValueError, match=r"^line 186: empty query keyword$"):
        parse_lexicon(_MINIMAL_LEXICON + "\n[polarity]\nquery: -\n")


def test_lexicon_duplicate_priority_rejected():
    text = "\n".join(
        f"[category {i}]\nlabel: c{i}\npriority: 1\npattern: tok{i}" for i in range(1, 47)
    )
    with pytest.raises(ValueError, match="priorities"):
        parse_lexicon(text)


def test_lexicon_empty_pattern_list_rejected():
    text = "[category 1]\nlabel: x\npriority: 1\n" + "\n".join(
        f"[category {i}]\nlabel: c{i}\npriority: {i}\npattern: tok{i}" for i in range(2, 47)
    )
    with pytest.raises(ValueError, match="category 1"):
        parse_lexicon(text)


# -- classification -----------------------------------------------------------

@pytest.mark.parametrize(
    "text,category,hcv",
    [
        ("Known Hep C", HCV_CATEGORY, "positive"),
        ("Screen Hep C", HCV_CATEGORY, "negative"),
        ("?Hep C", HCV_CATEGORY, "negative"),
        ("Hep C Pos", HCV_CATEGORY, "positive"),
        ("Hx Hep C", HCV_CATEGORY, "positive"),
        ("Hep C exposure", HCV_CATEGORY, "positive"),
        ("Hep C", HCV_CATEGORY, "positive"),
        ("Possible Hep C", HCV_CATEGORY, "negative"),
    ],
)
def test_hcv_polarity(text, category, hcv):
    c = classify_note(text, LEX)
    assert c.category_id == category
    assert c.hcv_label == hcv


def test_hbv_statement():
    c = classify_note("Hepatitis B positive", LEX)
    assert c.category_id == HBV_CATEGORY
    assert c.hbv_label == "positive"
    assert c.hcv_label == "negative"


def test_empty_note_is_category_45():
    c = classify_note("", LEX)
    assert c.category_id == NO_NOTE_CATEGORY
    assert c.hbv_label == c.hcv_label == "negative"


def test_unmatched_note_is_category_46():
    c = classify_note("zzgibberish qqq", LEX)
    assert c.category_id == NONSPECIFIC_CATEGORY


def test_hepatitis_query_is_not_hbv_or_hcv():
    c = classify_note("Hepatitis cause?", LEX)
    assert c.category_id == 3
    assert c.hbv_label == "negative"
    assert c.hcv_label == "negative"


def test_multi_category_keeps_condition_priority():
    # co-mention with a control category: hepatitis wins the label, both
    # memberships are retained for the audit trail
    c = classify_note("RANTS, known Hep B", LEX)
    assert c.category_id == HBV_CATEGORY
    assert c.hbv_label == "positive"
    assert {m.category_id for m in c.all_matches} >= {1, 29}


def test_determinism():
    a = classify_note("IVDA ?Hep C", LEX)
    b = classify_note("IVDA ?Hep C", LEX)
    assert a == b
    assert a.category_id == HCV_CATEGORY
    assert a.hcv_label == "negative"


def test_results_are_named_tuples():
    # tests/test_matcher_oracle.py builds both types positionally.
    assert Match._fields == ("category_id", "pattern", "position")
    assert NoteClassification._fields == (
        "category_id", "matched_pattern", "hbv_label", "hcv_label", "all_matches")
    c = classify_note("Known Hep B", LEX)
    assert c == (1, "hepatitis-b", "positive", "negative", ((1, "hepatitis-b", 1),))
    assert repr(c) == (
        "NoteClassification(category_id=1, matched_pattern='hepatitis-b', hbv_label='positive',"
        " hcv_label='negative', all_matches=(Match(category_id=1, pattern='hepatitis-b',"
        " position=1),))")
    (match,) = c.all_matches
    assert (match.category_id, match.pattern, match.position) == tuple(match)
    assert c._replace(hbv_label="negative").hbv_label == "negative"
    with pytest.raises(AttributeError):
        c.hbv_label = "negative"
    with pytest.raises(AttributeError):
        match.note = "Known Hep B"  # slotted: no instance dict


ANALYSED_PHRASES = {
    10: ["Neutropaenia", "lymphopenia"],
    16: ["Depression", "anxiety", "bipolar"],
    17: ["Alcohol abuse"],
    22: ["Crohn's disease", "IBS", "coeliac disease", "colitis"],
    24: ["Liver failure", "deranged LFTs"],
    26: ["Arthritis", "gout", "back pain", "psoriasis"],
    29: ["RANTS", "pre-pregnancy screening", "antenatal"],
    31: ["IVDA", "on methadone", "opiate dependence"],
    32: ["work screening", "prescreen"],
    37: ["Fatigue", "lethargy", "feeling unwell", "malaise"],
    1: ["Hepatitis B", "Hep B", "HBV"],
    2: ["Hepatitis C", "Hep C", "HCV"],
}


@pytest.mark.parametrize(
    "category,phrase",
    [(c, p) for c, phrases in ANALYSED_PHRASES.items() for p in phrases],
)
def test_analysed_category_corpus(category, phrase):
    assert classify_note(phrase, LEX).category_id == category


@given(st.text(max_size=60))
def test_fallback_totality(text):
    c = classify_note(text, LEX)
    assert 1 <= c.category_id <= 46


@given(st.text(max_size=60))
def test_polarity_soundness(text):
    c = classify_note(text, LEX)
    if c.hcv_label == "positive":
        tokens = normalize_note(text)
        assert "hepatitis-c" in tokens
        assert "?" not in tokens
        idx = tokens.index("hepatitis-c")
        assert idx == 0 or tokens[idx - 1] != "?"
