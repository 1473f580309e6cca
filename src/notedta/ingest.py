"""Cohort file parsing, serialization, and demographic summaries.

The on-disk format is UTF-8 CSV (a leading byte-order mark is accepted)
with header ``record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year``;
free text is quoted, an empty field means absent. Sex tokens M/F/1/2 are
recognised; anything else maps to unspecified (with a warning recorded in
the validation report). Parsing only turns text into values: the record
rules (age, year and assay ranges, a non-empty id) are
``PathologyRecord``'s, reported here with the row and column.
"""

import csv
import math
from collections import Counter, namedtuple
from operator import attrgetter

from .model import Cohort, PathologyRecord, Sex

HEADER = ["record_id", "age", "sex", "note_text", "hbsag_iu", "anti_hcv_iu", "collection_year"]

_SEX_TOKENS = {"m": Sex.MALE, "1": Sex.MALE, "f": Sex.FEMALE, "2": Sex.FEMALE, "": Sex.UNSPECIFIED}
_SEX_CODES = {Sex.MALE: "M", Sex.FEMALE: "F", Sex.UNSPECIFIED: ""}


class CohortFormatError(ValueError):
    """Malformed cohort file (bad header, bad field, duplicate id)."""


class ValidationReport(namedtuple("ValidationReport", "path strict n_rows skipped warnings")):
    """The rows of one cohort file: how many were read, which skipped, and the warnings."""

    __slots__ = ()

    @property
    def n_parsed(self) -> int:
        # Every row read is parsed or skipped: a duplicate id or an oversized field raises.
        return self.n_rows - len(self.skipped)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "path": self.path,
                "strict": self.strict,
                "n_rows": self.n_rows,
                "n_parsed": self.n_parsed,
                "n_skipped": len(self.skipped),
                "skipped_rows": self.skipped,
                "warnings": self.warnings,
            },
            indent=2,
        )


def parse_cohort_file(path) -> Cohort:
    """Parse a cohort CSV; the first malformed row raises CohortFormatError."""
    # The rows are read before the Cohort call, so that a profile of this
    # function charges the reading to it and not to the Cohort it returns.
    return Cohort(tuple(_read_records(path, True, [], [])))


def validate_cohort_file(path, strict: bool = False) -> ValidationReport:
    """Check a cohort CSV and count its rows, keeping none of its records."""
    skipped, warnings = [], []
    n_parsed = sum(1 for _ in _read_records(path, strict, skipped, warnings))
    return ValidationReport(str(path), strict, n_parsed + len(skipped), tuple(skipped),
                            tuple(warnings))


def _read_records(path, strict: bool, skipped: list, warnings: list):
    """Yield the records of a cohort CSV, appending to `skipped` and `warnings`.

    A blank line is no row, but counts in the row numbers. In strict mode
    a malformed row raises CohortFormatError with the row number; in
    lenient mode it is skipped and listed in `skipped`.
    Duplicate record ids and fields longer than the csv module's limit are
    an error in both modes.
    """
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # csv.Error (a field over csv.field_size_limit()) is raised while a row
        # is read, before it is counted; it fails the file in both modes.
        try:
            header = next(reader)
        except StopIteration:
            raise CohortFormatError(f"{path}: empty file, header row required")
        except csv.Error as err:
            raise CohortFormatError(f"row 1: {err}") from None
        if header != HEADER:
            raise CohortFormatError(f"{path}: bad header {header!r}, expected {HEADER!r}")
        rownum = 1  # the last row read
        try:
            for rownum, row in enumerate(reader, start=2):
                if not row:  # a blank line, skipped as csv.DictReader does
                    continue
                if row[0] in seen:  # never skipped, even in lenient mode
                    raise CohortFormatError(f"row {rownum}: duplicate record_id {row[0]!r}")
                try:
                    record = _parse_row(row, rownum, warnings)
                except CohortFormatError as err:
                    if strict:
                        raise
                    skipped.append({"row": rownum, "reason": str(err)})
                    continue
                seen.add(row[0])
                yield record
        except csv.Error as err:
            raise CohortFormatError(f"row {rownum + 1}: {err}") from None


def _parse_row(row, rownum: int, warnings: list) -> PathologyRecord:
    if len(row) != len(HEADER):
        raise CohortFormatError(f"row {rownum}: expected {len(HEADER)} fields, got {len(row)}")
    record_id, age_raw, sex_raw, note_text, hbsag_raw, hcv_raw, year_raw = row
    sex_token = sex_raw.strip().lower()
    sex = _SEX_TOKENS.get(sex_token)
    if sex is None:
        warnings.append(
            f"row {rownum}: unrecognised sex token {sex_raw!r}, treated as unspecified"
        )
        sex = Sex.UNSPECIFIED
    try:
        age = int(age_raw) if age_raw else None
        hbsag_iu = float(hbsag_raw) if hbsag_raw else None
        anti_hcv_iu = float(hcv_raw) if hcv_raw else None
        collection_year = int(year_raw) if year_raw else None
    except ValueError:  # word the error of the first field that fails
        for raw, kind, column in ((age_raw, int, "age"), (hbsag_raw, float, "hbsag_iu"),
                                  (hcv_raw, float, "anti_hcv_iu"),
                                  (year_raw, int, "collection_year")):
            try:
                kind(raw or 0)  # an empty field is absent, not malformed
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise CohortFormatError(
                    f"row {rownum}, column {column}: not {what}: {raw!r}") from None
        raise
    try:
        return PathologyRecord(
            record_id, age, sex, note_text, hbsag_iu, anti_hcv_iu, collection_year
        )
    except ValueError as err:  # a record rule, worded "<field>: <problem>"
        raise CohortFormatError(f"row {rownum}, column {err}") from None


def write_cohort_file(cohort: Cohort, path) -> None:
    """Serialize a cohort back to the CSV schema (lossless round trip).

    A duplicate record id raises ValueError before the file is opened, so
    every file written parses back.
    """
    seen: set[str] = set()
    for record in cohort:
        if record.record_id in seen:
            raise ValueError(f"duplicate record_id: {record.record_id!r}")
        seen.add(record.record_id)
    del seen  # not held while the rows are written
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        # csv writes None as an empty field and a float as its repr.
        writer.writerows(
            (record_id, age, _SEX_CODES[sex], note_text, hbsag_iu, anti_hcv_iu, collection_year)
            for record_id, age, sex, note_text, hbsag_iu, anti_hcv_iu, collection_year in cohort
        )


class CohortSummary(namedtuple("CohortSummary", "n_total age_mean age_sd n_male n_female "
                                              "n_unspecified age_histogram")):
    """Demographic counts of a cohort.

    age_histogram: (decade start, count) pairs.
    """

    __slots__ = ()


def _sqrt_of_frac(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for ints num >= 0 and den > 0.

    The quotient is scaled to about 109 bits (2 * 53 + 3), so its integer
    root holds at least two bits past a float's 53. Round-to-odd sets the
    last of them when the root is inexact, and the conversion to float then
    rounds once, ties to even.
    """
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num, den << 2 * shift) if shift >= 0 else (num << -2 * shift, den)
    root = math.isqrt(num // den)
    return math.ldexp(root | (root * root * den != num), shift)


def summarize_demographics(cohort: Cohort) -> CohortSummary:
    """Counts, age mean/SD (sample SD), and a per-decade age histogram.

    Age statistics cover only records with age present; a single aged
    record yields SD 0. Both are computed from exact integer sums and
    rounded once, so they are the same on every interpreter.
    """
    if len(cohort) == 0:
        raise ValueError("cannot summarize an empty cohort")
    # At most 131 ages and 3 sexes however many records, counted by Counter's C loop.
    sexes = Counter(map(attrgetter("sex"), cohort))
    ages = Counter(map(attrgetter("age"), cohort))
    ages.pop(None, None)
    decades: dict[int, int] = {}
    n = s = q = 0  # the count, sum and sum of squares of the ages
    for age, count in ages.items():
        decades[age // 10 * 10] = decades.get(age // 10 * 10, 0) + count
        n += count
        s += age * count
        q += age * age * count
    return CohortSummary(
        n_total=len(cohort),
        age_mean=s / n if n else None,  # int true division rounds correctly
        age_sd=_sqrt_of_frac(n * q - s * s, n * (n - 1)) if n > 1 else (0.0 if n else None),
        n_male=sexes[Sex.MALE],
        n_female=sexes[Sex.FEMALE],
        n_unspecified=sexes[Sex.UNSPECIFIED],
        age_histogram=tuple(sorted(decades.items())),
    )
