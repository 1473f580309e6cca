"""Core value types shared across the package.

All types here are immutable after construction and safe to share between
threads. Missing values are represented as ``None``, never as sentinel
numbers.

The package's value types are named tuples (``collections.namedtuple``
subclasses with ``__slots__ = ()``): they unpack, index and compare equal
to plain tuples, and ``_replace`` and ``_asdict`` take the place of
``dataclasses.replace`` and ``asdict``. A type with rules checks them in
``__new__``, and ``_replace`` checks them again. `Cohort`, a sequence of
records, is a plain tuple subclass.
"""

import math
from collections import namedtuple
from enum import Enum

# `_make` for a named tuple whose `__new__` checks its fields. The generated
# `_make`, which `_replace` builds through, calls `tuple.__new__` and so
# would skip the checks; this one builds through `cls(*iterable)`.
checked_make = classmethod(lambda cls, iterable: cls(*iterable))


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


class PathologyRecord(namedtuple("PathologyRecord", "record_id age sex note_text hbsag_iu "
                                                    "anti_hcv_iu collection_year")):
    """One de-identified pathology request.

    Assay values and age may be absent (``None``); absent serology is
    excluded from contingency tables downstream rather than imputed.

    These are the only record rules; the cohort CSV parser applies them by
    constructing records. A record breaking one raises ``ValueError`` with
    the message ``"<field>: <problem>"``.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, record_id: str, age: int | None = None, sex: Sex = Sex.UNSPECIFIED,
                note_text: str = "", hbsag_iu: float | None = None,
                anti_hcv_iu: float | None = None, collection_year: int | None = None):
        # Each rule is tested once, inline, so a valid record calls no
        # helper. Exact types keep a record writable: a bool, a float age or
        # a numpy float would be written as text that reads back as another
        # value or not at all. `type(x) is` is the cheapest such test.
        if type(record_id) is not str:
            raise ValueError(f"record_id: not a str: {record_id!r}")
        if not record_id:
            raise ValueError("record_id: empty")
        if age is not None:
            if type(age) is not int:
                raise ValueError(f"age: not an integer: {age!r}")
            if not 0 <= age <= 130:
                raise ValueError(f"age: out of range [0,130]: {age}")
        if type(sex) is not Sex:
            raise ValueError(f"sex: not a Sex: {sex!r}")
        if type(note_text) is not str:
            raise ValueError(f"note_text: not a str: {note_text!r}")
        if hbsag_iu is not None:
            if type(hbsag_iu) is not float:
                if type(hbsag_iu) is not int:
                    raise ValueError(f"hbsag_iu: not a number: {hbsag_iu!r}")
                if not -2**53 <= hbsag_iu <= 2**53:  # a file holds floats
                    raise ValueError("hbsag_iu: integer beyond 2**53 in magnitude")
            if not (math.isfinite(hbsag_iu) and hbsag_iu >= 0):
                raise ValueError(f"hbsag_iu: must be finite and >= 0: {hbsag_iu!r}")
        if anti_hcv_iu is not None:
            if type(anti_hcv_iu) is not float:
                if type(anti_hcv_iu) is not int:
                    raise ValueError(f"anti_hcv_iu: not a number: {anti_hcv_iu!r}")
                if not -2**53 <= anti_hcv_iu <= 2**53:  # a file holds floats
                    raise ValueError("anti_hcv_iu: integer beyond 2**53 in magnitude")
            if not (math.isfinite(anti_hcv_iu) and anti_hcv_iu >= 0):
                raise ValueError(f"anti_hcv_iu: must be finite and >= 0: {anti_hcv_iu!r}")
        if collection_year is not None:
            if type(collection_year) is not int:
                raise ValueError(f"collection_year: not an integer: {collection_year!r}")
            if not 1800 <= collection_year <= 2200:
                raise ValueError(f"collection_year: out of range [1800,2200]: {collection_year}")
        return tuple.__new__(cls, (record_id, age, sex, note_text, hbsag_iu, anti_hcv_iu,
                                   collection_year))


class Cohort(tuple):
    """An ordered, immutable sequence of records: a tuple under its own name.

    It compares equal to a plain tuple of the same records. Record ids are
    not checked here: they identify rows of a file, so ``ingest`` rejects a
    duplicate id where a file is read and before one is written.
    """

    __slots__ = ()
