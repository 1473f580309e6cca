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
from collections import namedtuple

from .model import Cohort, PathologyRecord, Sex

HEADER = ["record_id", "age", "sex", "note_text", "hbsag_iu", "anti_hcv_iu", "collection_year"]

_SEX_TOKENS = {"m": Sex.MALE, "1": Sex.MALE, "f": Sex.FEMALE, "2": Sex.FEMALE, "": Sex.UNSPECIFIED}


class CohortFormatError(ValueError):
    """Malformed cohort file (bad header, bad field, duplicate id)."""


class ValidationReport:
    """The rows of one cohort file, counted as they are read."""

    __slots__ = ("path", "strict", "n_rows", "skipped", "warnings")

    def __init__(self, path: str, strict: bool):
        self.path = path
        self.strict = strict
        self.n_rows = 0
        self.skipped: list[dict] = []
        self.warnings: list[str] = []

    def __repr__(self):
        return (f"ValidationReport(path={self.path!r}, strict={self.strict!r}, "
                f"n_rows={self.n_rows!r}, skipped={self.skipped!r}, warnings={self.warnings!r})")

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
    # tuple() exhausts the reader, and an exhausted generator's frame is
    # cleared: its id set is freed before Cohort builds one of its own.
    return Cohort(tuple(_read_records(path, ValidationReport(str(path), strict=True))))


def validate_cohort_file(path, strict: bool = False) -> ValidationReport:
    """Check a cohort CSV and count its rows, keeping none of its records."""
    report = ValidationReport(str(path), strict)
    for _ in _read_records(path, report):
        pass
    return report


def _read_records(path, report: ValidationReport):
    """Yield the records of a cohort CSV, counting its rows into `report`.

    In strict mode a malformed row raises CohortFormatError with the row
    number; in lenient mode it is skipped and listed in the report.
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
        try:
            for rownum, row in enumerate(reader, start=2):
                report.n_rows += 1
                if row and row[0] in seen:  # never skipped, even in lenient mode
                    raise CohortFormatError(f"row {rownum}: duplicate record_id {row[0]!r}")
                try:
                    record = _parse_row(row, rownum, report)
                except CohortFormatError as err:
                    if report.strict:
                        raise
                    report.skipped.append({"row": rownum, "reason": str(err)})
                    continue
                seen.add(row[0])
                yield record
        except csv.Error as err:
            raise CohortFormatError(f"row {report.n_rows + 2}: {err}") from None


def _parse_row(row, rownum: int, report: ValidationReport) -> PathologyRecord:
    if len(row) != len(HEADER):
        raise CohortFormatError(f"row {rownum}: expected {len(HEADER)} fields, got {len(row)}")
    record_id, age_raw, sex_raw, note_text, hbsag_raw, hcv_raw, year_raw = row
    sex_token = sex_raw.strip().lower()
    sex = _SEX_TOKENS.get(sex_token)
    if sex is None:
        report.warnings.append(
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
    """Serialize a cohort back to the CSV schema (lossless round trip)."""
    # Sex is told apart by identity: a dict keyed by Sex would call the
    # Python-level Enum.__hash__ once per record.
    male, female = Sex.MALE, Sex.FEMALE
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(
            (
                record_id,
                "" if age is None else age,
                "M" if sex is male else "F" if sex is female else "",
                note_text,
                "" if hbsag_iu is None else repr(hbsag_iu),
                "" if anti_hcv_iu is None else repr(anti_hcv_iu),
                "" if collection_year is None else collection_year,
            )
            for record_id, age, sex, note_text, hbsag_iu, anti_hcv_iu, collection_year in cohort
        )


class CohortSummary(namedtuple("CohortSummary", "n_total age_mean age_sd n_male n_female "
                                              "n_unspecified age_histogram", defaults=(None,))):
    """Demographic counts of a cohort.

    age_histogram: (decade start, count) pairs; None in a summary decoded
        from report.json.
    """

    __slots__ = ()


def summarize_demographics(cohort: Cohort) -> CohortSummary:
    """Counts, age mean/SD (sample SD), and a per-decade age histogram.

    Age statistics cover only records with age present; a single aged
    record yields SD 0.
    """
    import statistics

    if len(cohort) == 0:
        raise ValueError("cannot summarize an empty cohort")
    ages = []
    decades: dict[int, int] = {}
    # Sexes are counted by identity, as in write_cohort_file.
    male, female, unspecified = Sex.MALE, Sex.FEMALE, Sex.UNSPECIFIED
    n_male = n_female = n_unspecified = 0
    for r in cohort:
        sex = r.sex
        if sex is male:
            n_male += 1
        elif sex is female:
            n_female += 1
        elif sex is unspecified:
            n_unspecified += 1
        age = r.age
        if age is not None:
            ages.append(age)
            decades[age // 10 * 10] = decades.get(age // 10 * 10, 0) + 1
    return CohortSummary(
        n_total=len(cohort),
        age_mean=statistics.fmean(ages) if ages else None,
        age_sd=(statistics.stdev(ages) if len(ages) > 1 else (0.0 if ages else None)),
        n_male=n_male,
        n_female=n_female,
        n_unspecified=n_unspecified,
        age_histogram=tuple(sorted(decades.items())),
    )
