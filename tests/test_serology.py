import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from notedta.evaluate import EvaluationConfig, evaluate_condition
from notedta.model import Cohort, Condition, PathologyRecord, SerologyStatus
from notedta.serology import classify_marker

HBV, HCV = Condition.HEPATITIS_B, Condition.HEPATITIS_C


def _rec(hbsag=None, hcv=None):
    return PathologyRecord("r1", hbsag_iu=hbsag, anti_hcv_iu=hcv)


def test_cutoff_is_inclusive():
    assert classify_marker(_rec(hbsag=1.6), HBV, 1.6) is SerologyStatus.POSITIVE
    assert classify_marker(_rec(hcv=1.0), HCV, 1.0) is SerologyStatus.POSITIVE


def test_just_below_cutoff_is_negative():
    assert classify_marker(_rec(hcv=0.999), HCV, 1.0) is SerologyStatus.NEGATIVE
    assert classify_marker(_rec(hbsag=1.5999), HBV, 1.6) is SerologyStatus.NEGATIVE


def test_absent_value_is_missing():
    assert classify_marker(_rec(), HBV, 1.6) is SerologyStatus.MISSING
    assert classify_marker(_rec(hbsag=2.0), HCV, 1.0) is SerologyStatus.MISSING


def test_invalid_thresholds_rejected():
    for cutoff in (0.0, -1.0, 0, "2.0", True):
        with pytest.raises(ValueError, match=f"cutoff must be finite and > 0: {cutoff!r}"):
            EvaluationConfig(HBV, cutoff=cutoff)
    assert EvaluationConfig(HBV, cutoff=2).cutoff == 2
    assert EvaluationConfig(HBV).cutoff is None


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_thresholds_rejected(cutoff):
    # nan <= 0 is False, so a bare "> 0" check would let nan through and
    # make every marker read negative; inf does the same.
    with pytest.raises(ValueError, match="finite and > 0"):
        EvaluationConfig(HCV, cutoff=cutoff)


def test_custom_thresholds_respected():
    assert classify_marker(_rec(hbsag=2.0), HBV, 5.0) is SerologyStatus.NEGATIVE
    assert classify_marker(_rec(hbsag=5.0), HBV, 5.0) is SerologyStatus.POSITIVE
    # The cutoff is read against the condition's own marker only.
    assert classify_marker(_rec(hbsag=0.5, hcv=5.0), HCV, 5.0) is SerologyStatus.POSITIVE


@given(
    v1=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    v2=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_monotonicity(v1, v2):
    # if the smaller value classifies positive, so must the larger
    lo, hi = sorted([v1, v2])
    s_lo = classify_marker(_rec(hbsag=lo), HBV, 1.6)
    s_hi = classify_marker(_rec(hbsag=hi), HBV, 1.6)
    if s_lo is SerologyStatus.POSITIVE:
        assert s_hi is SerologyStatus.POSITIVE


@given(v=st.one_of(st.none(), st.floats(min_value=0, max_value=1e6, allow_nan=False)))
def test_exhaustive_three_states(v):
    status = classify_marker(_rec(hbsag=v), HBV, 1.6)
    assert status in (SerologyStatus.POSITIVE, SerologyStatus.NEGATIVE, SerologyStatus.MISSING)
    assert (status is SerologyStatus.MISSING) == (v is None)


def test_default_cutoffs_come_from_condition():
    # `evaluate` without --cutoff leaves the config's cutoff None, and the
    # evaluation then reads each marker against its condition's default.
    from notedta.cli import build_parser

    args = build_parser().parse_args(["evaluate", "c.csv", "--condition", "hbv"])
    assert args.cutoff is None
    for condition, note in ((HBV, "Known Hep B"), (HCV, "Known Hep C")):
        at = condition.default_cutoff
        below = math.nextafter(at, 0.0)
        cohort = Cohort([PathologyRecord(f"r{i}", note_text=note, hbsag_iu=v, anti_hcv_iu=v)
                         for i, v in enumerate((at, below))])
        table = evaluate_condition(cohort, EvaluationConfig(condition)).primary.table
        assert (table.tp, table.fp) == (1, 1)
