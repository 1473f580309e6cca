import math

import pytest

from notedta.model import Cohort, Condition, PathologyRecord, Sex


def test_duplicate_record_id_rejected():
    r1 = PathologyRecord("r1", note_text="Hep B")
    r2 = PathologyRecord("r1", note_text="Hep C")
    with pytest.raises(ValueError, match="r1"):
        Cohort((r1, r2))


def test_empty_record_id_rejected():
    with pytest.raises(ValueError):
        PathologyRecord("")


@pytest.mark.parametrize("age", [-1, 131, 999])
def test_age_out_of_range(age):
    with pytest.raises(ValueError):
        PathologyRecord("r1", age=age)


@pytest.mark.parametrize("value", [-0.1, math.inf, math.nan])
def test_assay_values_must_be_finite_nonnegative(value):
    with pytest.raises(ValueError):
        PathologyRecord("r1", hbsag_iu=value)
    with pytest.raises(ValueError):
        PathologyRecord("r1", anti_hcv_iu=value)


def test_absent_fields_allowed():
    rec = PathologyRecord("r1")
    assert rec.age is None
    assert rec.hbsag_iu is None
    assert rec.sex is Sex.UNSPECIFIED


def test_condition_markers_and_cutoffs():
    assert Condition.HEPATITIS_B.marker_name == "HBsAg"
    assert Condition.HEPATITIS_B.default_cutoff == 1.6
    assert Condition.HEPATITIS_C.marker_name == "anti-HCV"
    assert Condition.HEPATITIS_C.default_cutoff == 1.0


def test_cohort_preserves_order():
    recs = tuple(PathologyRecord(f"r{i}") for i in range(5))
    cohort = Cohort(recs)
    assert [r.record_id for r in cohort] == [f"r{i}" for i in range(5)]
    assert len(cohort) == 5


def test_assay_value_selects_marker():
    rec = PathologyRecord("r1", hbsag_iu=2.4, anti_hcv_iu=0.4)
    assert rec.assay_value(Condition.HEPATITIS_B) == 2.4
    assert rec.assay_value(Condition.HEPATITIS_C) == 0.4


@pytest.mark.parametrize("year", [1799, 2201, 3000, 0])
def test_collection_year_out_of_range(year):
    message = rf"^collection_year: out of range \[1800,2200\]: {year}$"
    with pytest.raises(ValueError, match=message):
        PathologyRecord("r1", collection_year=year)


@pytest.mark.parametrize(
    "field, value",
    [("record_id", ""), ("age", 131), ("hbsag_iu", -1.0), ("anti_hcv_iu", math.nan),
     ("collection_year", 1799)],
)
def test_rule_message_starts_with_the_field(field, value):
    # The cohort CSV parser relies on this to name the offending column.
    with pytest.raises(ValueError, match=f"^{field}: "):
        PathologyRecord(**{"record_id": "r1", field: value})


def test_slotted_record_behaves_as_before():
    rec = PathologyRecord("r1", age=40, sex=Sex.FEMALE, note_text="Hep B", hbsag_iu=2.0)
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.age = 41
    twin = PathologyRecord("r1", age=40, sex=Sex.FEMALE, note_text="Hep B", hbsag_iu=2.0)
    assert rec == twin and hash(rec) == hash(twin)
    assert rec != rec._replace(age=41)
    with pytest.raises(ValueError, match="^age: out of range"):
        rec._replace(age=200)
