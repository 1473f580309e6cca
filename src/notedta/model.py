"""Core value types shared across the package.

All types here are immutable after construction and safe to share between
threads. Missing values are represented as ``None``, never as sentinel
numbers.

The package's value types are named tuples (``collections.namedtuple``
subclasses with ``__slots__ = ()``): they unpack, index and compare equal
to plain tuples, and ``_replace`` and ``_asdict`` take the place of
``dataclasses.replace`` and ``asdict``. A type with rules checks them in
``__new__``, and ``_replace`` checks them again.
"""

import math
from collections import namedtuple
from enum import Enum

# `_make` for a named tuple whose `__new__` checks its fields. The generated
# `_make`, which `_replace` builds through, calls `tuple.__new__` and so
# would skip the checks; this one builds through `cls(*iterable)`.
checked_make = classmethod(lambda cls, iterable: cls(*iterable))


class Frozen:
    """Base of the few value types that are not named tuples.

    A subclass lists its slots and, in `_fields`, the ones that equality,
    hashing, ``repr`` and pickling use, in the order of its ``__new__``
    arguments. Its ``__new__`` checks the arguments and sets each slot with
    ``object.__setattr__``; after that, assignment raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self._fields, self._values())
        return f"{self.__class__.__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


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
            if type(hbsag_iu) is not float and type(hbsag_iu) is not int:
                raise ValueError(f"hbsag_iu: not a number: {hbsag_iu!r}")
            if not (math.isfinite(hbsag_iu) and hbsag_iu >= 0):
                raise ValueError(f"hbsag_iu: must be finite and >= 0: {hbsag_iu!r}")
        if anti_hcv_iu is not None:
            if type(anti_hcv_iu) is not float and type(anti_hcv_iu) is not int:
                raise ValueError(f"anti_hcv_iu: not a number: {anti_hcv_iu!r}")
            if not (math.isfinite(anti_hcv_iu) and anti_hcv_iu >= 0):
                raise ValueError(f"anti_hcv_iu: must be finite and >= 0: {anti_hcv_iu!r}")
        if collection_year is not None:
            if type(collection_year) is not int:
                raise ValueError(f"collection_year: not an integer: {collection_year!r}")
            if not 1800 <= collection_year <= 2200:
                raise ValueError(f"collection_year: out of range [1800,2200]: {collection_year}")
        return tuple.__new__(cls, (record_id, age, sex, note_text, hbsag_iu, anti_hcv_iu,
                                   collection_year))


class Cohort(Frozen):
    """Ordered, immutable collection of records with unique ids.

    Not a named tuple: ``len()`` and iteration are over the records. It
    can be weakly referenced, so a test can watch it being freed.
    """

    __slots__ = ("records", "__weakref__")
    _fields = ("records",)

    def __new__(cls, records):
        records = tuple(records)
        seen = set()
        for rec in records:
            if rec.record_id in seen:
                raise ValueError(f"duplicate record_id: {rec.record_id!r}")
            seen.add(rec.record_id)
        self = object.__new__(cls)
        object.__setattr__(self, "records", records)
        return self

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
