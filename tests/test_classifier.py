import codecs
from importlib.resources import files

import pytest
from hypothesis import given
from hypothesis import strategies as st

from notedta.classifier import (
    HBV_CATEGORY,
    HCV_CATEGORY,
    NO_NOTE_CATEGORY,
    NONSPECIFIC_CATEGORY,
    NOTE_MEMO_LIMIT,
    NOTE_MEMO_MAX_CHARS,
    CategoryRule,
    Lexicon,
    Match,
    NoteClassification,
    NoteMemo,
    classify_note,
    default_lexicon,
    load_lexicon,
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
    assert [r.category_id for r in LEX.rules[:2]] == [HBV_CATEGORY, HCV_CATEGORY]  # they win
    assert LEX.query_keywords == (("?",), ("possible",), ("screen",), ("cause",),
                                  ("for", "investigation"))


def test_query_index_holds_each_query_keyword_once():
    # The built-in lexicon lists "?", which the query group holds anyway.
    query = [entry[5] for entries in LEX._pattern_index.values() for entry in entries
             if entry[3] is None]
    assert sorted(query) == sorted({("?",), *LEX.query_keywords})


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


def test_lexicon_file_may_start_with_a_byte_order_mark(tmp_path):
    text = (files("notedta") / "data/default_lexicon.txt").read_text("utf-8")
    assert text.startswith("#")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert load_lexicon(lexicon) == default_lexicon()


_MINIMAL_LEXICON = "\n".join(
    f"[category {i}]\nlabel: c{i}\nchapter: -\npattern: tok{i}" for i in range(1, 47)
)


def test_statement_lines_are_rejected():
    # A note is a statement when it has no query keyword; no key lists statements.
    polarity = "\n[polarity]\nquery: possible\nstatement: known\n"
    with pytest.raises(ValueError, match=r"^line 187: unknown polarity key 'statement'$"):
        parse_lexicon(_MINIMAL_LEXICON + polarity)


def test_block_order_picks_the_winner():
    # tok3 and tok9 both occur; whichever block comes first wins.
    blocks = _MINIMAL_LEXICON.split("\n[")
    blocks[2], blocks[8] = blocks[8], blocks[2]
    swapped = parse_lexicon("\n[".join(blocks))
    assert classify_note("tok3 tok9", parse_lexicon(_MINIMAL_LEXICON))[:2] == (3, "tok3")
    assert classify_note("tok3 tok9", swapped)[:2] == (9, "tok9")
    assert classify_note("tok3 tok9", swapped).all_matches == (Match(9, "tok9", 1),
                                                              Match(3, "tok3", 0))


def test_unknown_polarity_key_rejected():
    with pytest.raises(ValueError, match="unknown polarity key 'maybe'"):
        parse_lexicon(_MINIMAL_LEXICON + "\n[polarity]\nmaybe: x\n")


def test_lexicon_missing_category_rejected():
    text = "\n".join(
        f"[category {i}]\nlabel: c{i}\npattern: tok{i}"
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


@pytest.mark.parametrize("old, new, message", [
    # the blocks of categories 3 and 9 start at lines 9 and 33
    ("[category 9]", "[category 3]", "line 33: duplicate category 3, first at line 9"),
])
def test_lexicon_duplicate_names_the_value_and_both_lines(old, new, message):
    with pytest.raises(ValueError) as err:
        parse_lexicon(_MINIMAL_LEXICON.replace(old, new))
    assert str(err.value) == message


def test_lexicon_empty_pattern_list_rejected():
    text = "[category 1]\nlabel: x\n" + "\n".join(
        f"[category {i}]\nlabel: c{i}\npattern: tok{i}" for i in range(2, 47)
    )
    with pytest.raises(ValueError, match="category 1"):
        parse_lexicon(text)


@pytest.mark.parametrize("field, bad", [("category_id", True), ("category_id", "7")])
def test_category_rule_int_field_of_the_wrong_type_rejected(field, bad):
    with pytest.raises(ValueError) as err:
        CategoryRule(**{**LEX.rule(7)._asdict(), field: bad})
    assert str(err.value) == f"{field} must be an int: {bad!r}"


def test_lexicon_replace_rebuilds_the_pattern_index():
    # Without "possible" as a query keyword, the note states hepatitis B.
    assert classify_note("possible hep b", LEX).hbv_label == "negative"
    unqueried = LEX._replace(query_keywords=())
    assert classify_note("possible hep b", unqueried).hbv_label == "positive"


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


# -- note memo ----------------------------------------------------------------

# Notes at and past the length bound, notes whose derivation raises (those
# ending in "!"), and short text. None can equal a "filler N" note.
_MEMO_NOTES = st.sampled_from([
    "", "Known Hep B", "?Hep C\r", "boom!", "x" * NOTE_MEMO_MAX_CHARS,
    "x" * (NOTE_MEMO_MAX_CHARS + 1), "y" * NOTE_MEMO_MAX_CHARS + "!",
]) | st.text(max_size=4)


@given(st.sampled_from([0, NOTE_MEMO_LIMIT - 3, NOTE_MEMO_LIMIT]),
       st.lists(_MEMO_NOTES, max_size=30))
def test_note_memo_derives_each_held_note_once(filled, notes):
    calls = []

    def derive(note):
        calls.append(note)
        if note.endswith("!"):
            raise ValueError(note)
        return [note]  # a new object per call: a held result shows by identity

    memo = NoteMemo(derive)
    fillers = [f"filler {i}" for i in range(filled)]
    for note in fillers:
        memo[note]
    assert calls == fillers and len(memo) == filled
    held = dict(memo)
    # Each lookup returns derive(note). A held note is not derived again;
    # any other note is derived once per lookup, and is held from then on
    # only if the memo has room, it is short enough and derive returned.
    for note in notes:
        before = len(calls)
        try:
            value = memo[note]
        except ValueError as err:
            assert err.args == (note,)
            value = None
        else:
            assert value == [note]
        if note in held:
            assert value is held[note] and len(calls) == before
            continue
        assert calls[before:] == [note]
        if value is not None and len(held) < NOTE_MEMO_LIMIT and len(note) <= NOTE_MEMO_MAX_CHARS:
            held[note] = value
        assert len(memo) <= NOTE_MEMO_LIMIT
    assert memo == held


def test_note_memo_holds_notes_of_at_most_256_characters():
    calls = []
    memo = NoteMemo(lambda note: calls.append(note) or len(note))
    at, past = "a" * 256, "a" * 257
    for _ in range(3):
        assert (memo[at], memo[past]) == (256, 257)
    assert list(memo) == [at]
    assert calls == [at, past, past, past]
