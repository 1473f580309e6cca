"""Core value types shared across the package.

All types here are immutable after construction and safe to share between
threads. Missing values are represented as ``None``, never as sentinel
numbers.
"""

import math
from dataclasses import dataclass
from enum import Enum


class Sex(Enum):
    MALE = "male"
    FEMALE = "female"
    UNSPECIFIED = "unspecified"


class SerologyStatus(Enum):
    """Gold-standard marker state for one record and one condition."""
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MISSING = "missing"


class Condition(Enum):
    """The two target infections, each tied to its serological marker."""
    HEPATITIS_B = "hepatitis_b"
    HEPATITIS_C = "hepatitis_c"

    @property
    def marker_name(self) -> str:
        return {"hepatitis_b": "HBsAg", "hepatitis_c": "anti-HCV"}[self.value]

    @property
    def default_cutoff(self) -> float:
        # Positive at >= cutoff immunoassay units (inclusive).
        return {"hepatitis_b": 1.6, "hepatitis_c": 1.0}[self.value]

    @property
    def category_id(self) -> int:
        """Lexicon category carrying this condition's clinical notes."""
        return {"hepatitis_b": 1, "hepatitis_c": 2}[self.value]


def _check_range(name: str, value, low: int, high: int):
    if value is not None and not (low <= value <= high):
        raise ValueError(f"{name}: out of range [{low},{high}]: {value}")


def _check_assay(name: str, value):
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name}: must be finite and >= 0: {value!r}")


@dataclass(frozen=True, slots=True)
class PathologyRecord:
    """One de-identified pathology request.

    Assay values and age may be absent (``None``); absent serology is
    excluded from contingency tables downstream rather than imputed.

    These are the only record rules; the cohort CSV parser applies them by
    constructing records. A record breaking one raises ``ValueError`` with
    the message ``"<field>: <problem>"``.
    """
    record_id: str
    age: int | None = None
    sex: Sex = Sex.UNSPECIFIED
    note_text: str = ""
    hbsag_iu: float | None = None
    anti_hcv_iu: float | None = None
    collection_year: int | None = None

    def __post_init__(self):
        if not self.record_id:
            raise ValueError("record_id: empty")
        _check_range("age", self.age, 0, 130)
        _check_assay("hbsag_iu", self.hbsag_iu)
        _check_assay("anti_hcv_iu", self.anti_hcv_iu)
        _check_range("collection_year", self.collection_year, 1800, 2200)

    def assay_value(self, condition: Condition) -> float | None:
        if condition is Condition.HEPATITIS_B:
            return self.hbsag_iu
        return self.anti_hcv_iu


@dataclass(frozen=True)
class Cohort:
    """Ordered, immutable collection of records with unique ids."""
    records: tuple[PathologyRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for rec in self.records:
            if rec.record_id in seen:
                raise ValueError(f"duplicate record_id: {rec.record_id!r}")
            seen.add(rec.record_id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
