import pytest
from hypothesis import given
from hypothesis import strategies as st

from notedta.model import Condition, PathologyRecord, SerologyStatus
from notedta.serology import SerologyThresholds, classify_marker


def _rec(hbsag=None, hcv=None):
    return PathologyRecord("r1", hbsag_iu=hbsag, anti_hcv_iu=hcv)


def test_cutoff_is_inclusive():
    assert classify_marker(_rec(hbsag=1.6), Condition.HEPATITIS_B) is SerologyStatus.POSITIVE
    assert classify_marker(_rec(hcv=1.0), Condition.HEPATITIS_C) is SerologyStatus.POSITIVE


def test_just_below_cutoff_is_negative():
    assert classify_marker(_rec(hcv=0.999), Condition.HEPATITIS_C) is SerologyStatus.NEGATIVE
    assert classify_marker(_rec(hbsag=1.5999), Condition.HEPATITIS_B) is SerologyStatus.NEGATIVE


def test_absent_value_is_missing():
    assert classify_marker(_rec(), Condition.HEPATITIS_B) is SerologyStatus.MISSING
    assert classify_marker(_rec(hbsag=2.0), Condition.HEPATITIS_C) is SerologyStatus.MISSING


def test_invalid_thresholds_rejected():
    with pytest.raises(ValueError):
        SerologyThresholds(hbsag_cutoff=0.0)
    with pytest.raises(ValueError):
        SerologyThresholds(anti_hcv_cutoff=-1.0)


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_thresholds_rejected(cutoff):
    # nan <= 0 is False, so a bare "> 0" check would let nan through and
    # make every marker read negative; inf does the same.
    with pytest.raises(ValueError, match="finite and > 0"):
        SerologyThresholds(hbsag_cutoff=cutoff)
    with pytest.raises(ValueError, match="finite and > 0"):
        SerologyThresholds(anti_hcv_cutoff=cutoff)


def test_custom_thresholds_respected():
    t = SerologyThresholds(hbsag_cutoff=5.0)
    assert classify_marker(_rec(hbsag=2.0), Condition.HEPATITIS_B, t) is SerologyStatus.NEGATIVE
    assert classify_marker(_rec(hbsag=5.0), Condition.HEPATITIS_B, t) is SerologyStatus.POSITIVE


@given(
    v1=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    v2=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_monotonicity(v1, v2):
    # if the smaller value classifies positive, so must the larger
    lo, hi = sorted([v1, v2])
    s_lo = classify_marker(_rec(hbsag=lo), Condition.HEPATITIS_B)
    s_hi = classify_marker(_rec(hbsag=hi), Condition.HEPATITIS_B)
    if s_lo is SerologyStatus.POSITIVE:
        assert s_hi is SerologyStatus.POSITIVE


@given(v=st.one_of(st.none(), st.floats(min_value=0, max_value=1e6, allow_nan=False)))
def test_exhaustive_three_states(v):
    status = classify_marker(_rec(hbsag=v), Condition.HEPATITIS_B)
    assert status in (SerologyStatus.POSITIVE, SerologyStatus.NEGATIVE, SerologyStatus.MISSING)
    assert (status is SerologyStatus.MISSING) == (v is None)


def test_default_cutoffs_come_from_condition():
    from notedta.cli import build_parser

    defaults = SerologyThresholds()
    args = build_parser().parse_args(["evaluate", "c.csv", "--condition", "hbv"])
    for condition, cli_default in (
        (Condition.HEPATITIS_B, args.hbsag_cutoff),
        (Condition.HEPATITIS_C, args.anti_hcv_cutoff),
    ):
        assert defaults.cutoff(condition) == cli_default == condition.default_cutoff
