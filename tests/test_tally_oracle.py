"""Differential test: the tally of `evaluate_condition` against the loop it replaced.

`_oracle_evaluate_condition` is a copy of `evaluate_condition` as
it was before its tally stopped keying pairs by `SerologyStatus`, and
`_oracle_classify_marker` a copy of `classify_marker` as it was before it
picked the marker and cutoff inline, with a test-local copy of the marker
selector it called, `PathologyRecord.assay_value`, which the library has
since dropped. Both oracles take one cutoff per condition, as the
evaluation's settings did before they held only the target condition's.
Results must be equal field for field, floats bit for bit. The oracle
classifies the note of every record, so it is also the reference for the
tally's memo of what each distinct note gave.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notedta import evaluate
from notedta.classifier import (
    NOTE_MEMO_LIMIT,
    NOTE_MEMO_MAX_CHARS,
    VACCINATION_CATEGORY,
    classify_note,
    default_lexicon,
)
from notedta.evaluate import (
    CONTROL_CATEGORIES,
    CategoryResult,
    EvaluationConfig,
    EvaluationResult,
    evaluate_condition,
)
from notedta.ingest import summarize_demographics
from notedta.metrics import CiConfig, build_contingency, compute_metrics
from notedta.model import Cohort, Condition, PathologyRecord, SerologyStatus
from notedta.serology import classify_marker

_ORACLE_PAIRS = {(label, status): (label, status)
                 for label in ("positive", "negative") for status in SerologyStatus}


def _assay_value(record, condition):
    if condition is Condition.HEPATITIS_B:
        return record.hbsag_iu
    return record.anti_hcv_iu


# (HBsAg cutoff, anti-HCV cutoff) pairs: the defaults, and two others.
_DEFAULTS = (Condition.HEPATITIS_B.default_cutoff, Condition.HEPATITIS_C.default_cutoff)
_THRESHOLDS = (_DEFAULTS, (0.5, 2.0))


def _cutoff(thresholds, condition):
    return thresholds[0 if condition is Condition.HEPATITIS_B else 1]


def _oracle_classify_marker(record, condition, thresholds=_DEFAULTS):
    value = _assay_value(record, condition)
    if value is None:
        return SerologyStatus.MISSING
    if value >= _cutoff(thresholds, condition):
        return SerologyStatus.POSITIVE
    return SerologyStatus.NEGATIVE


def _oracle_evaluate_condition(cohort, config, thresholds, lexicon=None):
    lexicon = lexicon or default_lexicon()
    condition = config.target_condition
    evaluated = (condition.category_id, *CONTROL_CATEGORIES)
    pairs: dict[int, list] = {cid: [] for cid in evaluated}
    n_vacc = {cid: 0 for cid in evaluated}
    for rec in cohort:
        cls = classify_note(rec.note_text, lexicon)
        member_ids = {m.category_id for m in cls.all_matches}
        cids = member_ids.intersection(pairs)
        if config.exclude_vaccination and VACCINATION_CATEGORY in member_ids:
            for cid in cids:
                n_vacc[cid] += 1
            continue
        if not cids:
            continue
        label = cls.hbv_label if condition is Condition.HEPATITIS_B else cls.hcv_label
        pair = _ORACLE_PAIRS[label, _oracle_classify_marker(rec, condition, thresholds)]
        for cid in cids:
            pairs[cid].append(pair)
    tables = {cid: build_contingency(pairs.pop(cid)) for cid in evaluated}
    summary = summarize_demographics(cohort)
    del cohort

    def category_result(cid: int) -> CategoryResult:
        table, n_missing = tables[cid]
        rule = lexicon.rule(cid)
        return CategoryResult(
            category_id=cid,
            label=rule.label,
            icd10_chapter=rule.icd10_chapter,
            n_missing_excluded=n_missing,
            n_vaccination_excluded=n_vacc[cid],
            table=table,
            panel=compute_metrics(table, config.ci),
        )

    primary = category_result(condition.category_id)
    controls = tuple(category_result(cid) for cid in CONTROL_CATEGORIES)
    return EvaluationResult(condition, primary, controls, summary, config.ci.level)


# Notes of either condition as a statement or a query, vaccination notes
# (alone and beside an evaluated category), notes in several evaluated
# categories at once, single control categories, and notes that match none.
_PHRASES = [
    "Known Hep B", "?Hep B", "Hep B exposure", "Possible Hep C", "Hep C Pos", "?Hep C",
    "Known Hep B and Hep C", "?Hep B ?Hep C", "Hep B, fatigue", "IVDA ?Hep C",
    "lethargy and deranged LFTs", "antenatal screen Hep B", "check response to Hep B vaccination",
    "post vaccination", "Hep C immunity", "vaccine, fatigue", "Fatigue", "work screening",
    "Depression", "Arthritis", "Crohn's disease", "Alcohol abuse", "Neutropaenia",
    "", "routine bloods",
]
_NOTES = st.sampled_from(_PHRASES) | st.text(max_size=16)

_CUTOFFS = sorted({c for t in _THRESHOLDS for c in t})
# Missing markers, markers exactly at each cutoff, one ulp either side of it,
# and values well away from every cutoff.
_MARKERS = (
    [None, 0.0, 0.1, 5.0, 1e6]
    + _CUTOFFS
    + [math.nextafter(c, -math.inf) for c in _CUTOFFS]
    + [math.nextafter(c, math.inf) for c in _CUTOFFS]
)
_RECORD = st.tuples(_NOTES, st.sampled_from(_MARKERS), st.sampled_from(_MARKERS))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_RECORD, min_size=1, max_size=40),
       condition=st.sampled_from(Condition),
       exclude_vaccination=st.booleans(),
       thresholds=st.sampled_from(_THRESHOLDS),
       ci_method=st.sampled_from(["score", "exact"]))
def test_tally_matches_the_loop_it_replaced(rows, condition, exclude_vaccination, thresholds,
                                            ci_method):
    cohort = Cohort(tuple(
        PathologyRecord(f"r{i}", note_text=note, hbsag_iu=hbsag, anti_hcv_iu=anti_hcv)
        for i, (note, hbsag, anti_hcv) in enumerate(rows)
    ))
    # The defaults reach the library as None, the others as the condition's cutoff.
    cutoff = None if thresholds == _DEFAULTS else _cutoff(thresholds, condition)
    config = EvaluationConfig(condition, exclude_vaccination, cutoff,
                              CiConfig(proportion_method=ci_method))
    lexicon = default_lexicon()
    got = evaluate_condition(cohort, config, lexicon)
    expected = _oracle_evaluate_condition(cohort, config, thresholds, lexicon)
    assert got == expected
    assert repr(got) == repr(expected)  # floats bit for bit, -0.0 included


def test_classify_marker_matches_the_one_it_replaced():
    for value in _MARKERS:
        record = PathologyRecord("r", hbsag_iu=value, anti_hcv_iu=value)
        for thresholds in _THRESHOLDS:
            for condition in Condition:
                assert (classify_marker(record, condition, _cutoff(thresholds, condition))
                        is _oracle_classify_marker(record, condition, thresholds))


@pytest.mark.parametrize("exclude_vaccination", [True, False])
def test_tally_past_the_memo_bound_matches_the_loop_it_replaced(monkeypatch,
                                                                exclude_vaccination):
    # Distinct notes up to and past the bound, each a stock phrase with its
    # own number token, then repeats of notes first seen before the bound
    # (served from the memo) and after it (classified again). A note too
    # long to be remembered, with a bare CR, comes while the memo has room
    # and is classified again at each record.
    short = [f"{_PHRASES[i % len(_PHRASES)]} {i}" for i in range(NOTE_MEMO_LIMIT + 40)]
    long = "check response to Hep B vaccination\r" + "fatigue " * (NOTE_MEMO_MAX_CHARS // 8)
    assert len(long) > NOTE_MEMO_MAX_CHARS
    distinct = [*short[:20], long, *short[20:]]
    repeats = (short[:40] + short[-40:] + short[NOTE_MEMO_LIMIT - 3:NOTE_MEMO_LIMIT + 3]
               + [long] * 3)
    markers = [None, 0.0, 5.0]
    cohort = Cohort(tuple(
        PathologyRecord(f"r{i}", note_text=note, hbsag_iu=markers[i % 3],
                        anti_hcv_iu=markers[i // 3 % 3])
        for i, note in enumerate(distinct + repeats * 2)
    ))
    lexicon = default_lexicon()
    unmemoized = {*short[NOTE_MEMO_LIMIT:], long}
    for condition in Condition:
        config = EvaluationConfig(condition, exclude_vaccination,
                                  ci=CiConfig(proportion_method="score"))
        calls = []
        monkeypatch.setattr(evaluate, "classify_note",
                            lambda text, lex: calls.append(text) or classify_note(text, lex))
        got = evaluate_condition(cohort, config, lexicon)
        monkeypatch.undo()
        expected = _oracle_evaluate_condition(cohort, config, _DEFAULTS, lexicon)
        assert got == expected
        assert repr(got) == repr(expected)
        # Each short note is classified once while the memo has room, and a
        # note first seen past the bound, or a long one, at every record.
        assert len(calls) == NOTE_MEMO_LIMIT + sum(
            rec.note_text in unmemoized for rec in cohort)
