import math
import pickle
import sys
from collections import Counter
from decimal import Decimal

import numpy
import pytest

from notedta.ingest import write_cohort_file
from notedta.model import Cohort, Condition, PathologyRecord, SerologyStatus, Sex

_TWICE_R1 = (PathologyRecord("r1", note_text="Hep B"), PathologyRecord("r1", note_text="Hep C"))


def test_cohort_keeps_duplicate_record_ids():
    # Ids identify rows of a file: the reader and the writer check them.
    assert Cohort(_TWICE_R1) == _TWICE_R1


def test_write_cohort_file_rejects_duplicate_ids_before_opening(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError) as err:
        write_cohort_file(Cohort(_TWICE_R1), path)
    assert str(err.value) == "duplicate record_id: 'r1'"
    assert path.read_bytes() == b"kept\n"


def test_empty_record_id_rejected():
    with pytest.raises(ValueError):
        PathologyRecord("")


@pytest.mark.parametrize("age", [-1, 131, 999])
def test_age_out_of_range(age):
    with pytest.raises(ValueError, match=rf"^age: out of range \[0,130\]: {age}$"):
        PathologyRecord("r1", age=age)


@pytest.mark.parametrize("value", [-0.1, math.inf, math.nan])
def test_assay_values_must_be_finite_nonnegative(value):
    for field in ("hbsag_iu", "anti_hcv_iu"):
        with pytest.raises(ValueError) as err:
            PathologyRecord("r1", **{field: value})
        assert str(err.value) == f"{field}: must be finite and >= 0: {value!r}"


@pytest.mark.parametrize("value", [2**53 + 1, -(2**53) - 1, 10**400],
                         ids=["2**53+1", "-2**53-1", "10**400"])
def test_integer_assay_beyond_2_53_rejected(value):
    # A file holds assays as floats: 2**53 + 1 would read back as 2**53, and
    # 10**400 not at all.
    for field in ("hbsag_iu", "anti_hcv_iu"):
        with pytest.raises(ValueError) as err:
            PathologyRecord("r1", **{field: value})
        assert str(err.value) == f"{field}: integer beyond 2**53 in magnitude"
        assert getattr(PathologyRecord("r1", **{field: 2**53}), field) == 2**53


@pytest.mark.parametrize(
    "field, value, problem",
    [("record_id", 5, "not a str: 5"), ("age", 5.5, "not an integer: 5.5"),
     ("age", True, "not an integer: True"), ("sex", "male", "not a Sex: 'male'"),
     ("note_text", None, "not a str: None"), ("hbsag_iu", True, "not a number: True"),
     ("anti_hcv_iu", Decimal("1.5"), "not a number: Decimal('1.5')"),
     ("hbsag_iu", numpy.float64(1.5), "not a number: np.float64(1.5)"),
     ("collection_year", 2000.5, "not an integer: 2000.5")],
)
def test_field_of_the_wrong_type_rejected(field, value, problem):
    # Each would be written to a cohort file that reads back as another
    # value, or not at all.
    with pytest.raises(ValueError) as err:
        PathologyRecord(**{"record_id": "r1", field: value})
    assert str(err.value) == f"{field}: {problem}"


def test_integer_assay_value_accepted():
    assert PathologyRecord("r1", hbsag_iu=2, anti_hcv_iu=0).hbsag_iu == 2


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



def test_sex_and_serology_status_hash_by_identity():
    # Enum.__hash__ is Python code, run once per member counted.
    members = {enum: list(enum) * 3334 for enum in (Sex, SerologyStatus)}
    Counter(members[Sex][:3])  # fills the ABC caches that Counter's isinstance checks use
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
    try:
        counts = {enum: Counter(members[enum]) for enum in members}
    finally:
        sys.setprofile(None)
    assert len(calls) < 10
    for enum, count in counts.items():
        assert count == {member: 3334 for member in enum}
        for member in enum:
            assert count[pickle.loads(pickle.dumps(member))] == 3334
            assert count[enum(member.value)] == 3334
