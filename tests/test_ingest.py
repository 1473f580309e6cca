import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notedta.ingest import (
    _SEX_TOKENS,
    HEADER,
    CohortFormatError,
    CohortSummary,
    _parse_row,
    _sqrt_of_frac,
    parse_cohort_file,
    summarize_demographics,
    validate_cohort_file,
    write_cohort_file,
)
from notedta.model import Cohort, PathologyRecord, Sex

HEADER_LINE = ",".join(HEADER)


def _write(tmp_path, body, name="cohort.csv"):
    path = tmp_path / name
    path.write_text(HEADER_LINE + "\n" + body, encoding="utf-8")
    return path


def test_parse_basic_rows(tmp_path):
    path = _write(tmp_path, 'r1,38,M,"Hep B positive",2.4,,\nr2,,F,"?Hep C",,0.4,\n')
    cohort = parse_cohort_file(path)
    r1, r2 = cohort
    assert r1.hbsag_iu == 2.4 and r1.anti_hcv_iu is None
    assert r1.age == 38 and r1.sex is Sex.MALE
    assert r2.age is None and r2.anti_hcv_iu == 0.4 and r2.sex is Sex.FEMALE


def test_numeric_sex_tokens(tmp_path):
    path = _write(tmp_path, "r1,30,1,n,,,\nr2,30,2,n,,,\nr3,30,x,n,,,\n")
    cohort, report = parse_cohort_file(path), validate_cohort_file(path, strict=True)
    assert [r.sex for r in cohort] == [Sex.MALE, Sex.FEMALE, Sex.UNSPECIFIED]
    assert len(report.warnings) == 1 and "r3" not in report.warnings[0]


def test_duplicate_record_id_error(tmp_path):
    path = _write(tmp_path, "r1,38,M,a,,,\nr1,40,F,b,,,\n")
    with pytest.raises(CohortFormatError, match="r1"):
        parse_cohort_file(path)


def test_duplicate_record_id_error_in_lenient_mode(tmp_path):
    path = _write(tmp_path, "r1,38,M,a,,,\nr1,40,F,b,,,\n")
    with pytest.raises(CohortFormatError, match="row 3: duplicate record_id 'r1'"):
        validate_cohort_file(path, strict=False)


def test_id_of_a_skipped_row_may_recur(tmp_path):
    # the skipped row never entered the cohort, so r1 is not a duplicate
    path = _write(tmp_path, "r1,oops,M,a,,,\nr1,40,F,b,,,\n")
    report = validate_cohort_file(path, strict=False)
    assert report.n_parsed == 1
    assert [s["row"] for s in report.skipped] == [2]


def test_utf8_bom_header_accepted(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (HEADER_LINE + "\nr1,38,M,Hep B,2.4,,\n").encode("utf-8"))
    (record,) = parse_cohort_file(path)
    assert record.record_id == "r1" and record.hbsag_iu == 2.4


def test_header_field_over_csv_limit_is_row_1(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("x" * 140_000 + "\n", encoding="utf-8")
    with pytest.raises(CohortFormatError, match=r"^row 1: field larger than field limit"):
        parse_cohort_file(path)


def test_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,age\nr1,2\n", encoding="utf-8")
    with pytest.raises(CohortFormatError, match="header"):
        parse_cohort_file(path)


def test_strict_mode_reports_row_and_column(tmp_path):
    path = _write(tmp_path, "r1,38,M,a,,,\nr2,oops,F,b,,,\n")
    with pytest.raises(CohortFormatError, match="row 3.*age"):
        parse_cohort_file(path)


def test_lenient_mode_skips_and_counts(tmp_path):
    path = _write(tmp_path, "r1,38,M,a,,,\nr2,oops,F,b,,,\nr3,41,F,c,,-2,\n")
    report = validate_cohort_file(path, strict=False)
    assert report.n_parsed == 1
    assert len(report.skipped) == 2
    assert report.skipped[0]["row"] == 3
    assert "n_skipped" in report.to_json()


def test_round_trip_identity(tmp_path):
    records = tuple(
        PathologyRecord(
            f"r{i}",
            age=None if i % 3 == 0 else 20 + i,
            sex=[Sex.MALE, Sex.FEMALE, Sex.UNSPECIFIED][i % 3],
            note_text=['?Hep C', 'Known Hep B, "on warfarin"', ""][i % 3],
            hbsag_iu=None if i % 2 else 0.1 * i,
            anti_hcv_iu=1.234 if i % 2 else None,
            collection_year=1997 + (i % 11),
        )
        for i in range(25)
    )
    cohort = Cohort(records)
    path = tmp_path / "out.csv"
    write_cohort_file(cohort, path)
    reparsed = parse_cohort_file(path)
    assert reparsed == cohort
    # parse -> serialize -> parse is also the identity
    path2 = tmp_path / "out2.csv"
    write_cohort_file(reparsed, path2)
    assert path.read_text() == path2.read_text()


# -- record rules -------------------------------------------------------------

# (column, raw CSV field, the value PathologyRecord is given): each breaks one
# record rule, which only the model defines.
_RULE_BREAKS = [
    ("age", "131", 131),
    ("collection_year", "1799", 1799),
    ("collection_year", "2201", 2201),
    ("hbsag_iu", "-2", -2.0),
    ("anti_hcv_iu", "inf", math.inf),
    ("hbsag_iu", "nan", math.nan),
    ("record_id", "", ""),
]


def _row(column, raw):
    fields = dict(zip(HEADER, ["r1", "40", "M", "a", "", "", ""]))
    fields[column] = raw
    return ",".join(fields[h] for h in HEADER)


def _rule_message(column, value):
    with pytest.raises(ValueError) as err:
        PathologyRecord(**{"record_id": "r1", column: value})
    return str(err.value)


@pytest.mark.parametrize("column, raw, value", _RULE_BREAKS)
def test_record_rule_strict_names_row_and_column(tmp_path, column, raw, value):
    path = _write(tmp_path, "r0,38,M,a,,,\n" + _row(column, raw) + "\n")
    with pytest.raises(CohortFormatError) as err:
        parse_cohort_file(path)
    assert str(err.value) == f"row 3, column {_rule_message(column, value)}"
    assert str(err.value).startswith(f"row 3, column {column}: ")


@pytest.mark.parametrize("column, raw, value", _RULE_BREAKS)
def test_record_rule_lenient_skips_row_with_same_reason(tmp_path, column, raw, value):
    path = _write(tmp_path, "r0,38,M,a,,,\n" + _row(column, raw) + "\n")
    report = validate_cohort_file(path, strict=False)
    assert report.n_parsed == 1
    reason = f"row 3, column {_rule_message(column, value)}"
    assert report.skipped == ({"row": 3, "reason": reason},)


@pytest.mark.parametrize(
    "column, raw, problem",
    [
        ("age", "oops", "not an integer: 'oops'"),
        ("collection_year", "1e3", "not an integer: '1e3'"),
        ("anti_hcv_iu", "x", "not a number: 'x'"),
    ],
)
def test_conversion_error_is_not_wrapped_again(tmp_path, column, raw, problem):
    path = _write(tmp_path, _row(column, raw) + "\n")
    with pytest.raises(CohortFormatError) as err:
        parse_cohort_file(path)
    assert str(err.value) == f"row 2, column {column}: {problem}"


@pytest.mark.parametrize("column, raw", [("age", "0"), ("age", "130"), ("collection_year", "1800"),
                                         ("collection_year", "2200"), ("hbsag_iu", "0")])
def test_record_rule_bounds_are_inclusive(tmp_path, column, raw):
    (record,) = parse_cohort_file(_write(tmp_path, _row(column, raw) + "\n"))
    assert getattr(record, column) == float(raw)


# Text with the characters CSV quoting must survive: commas, quotes, newlines.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(
    ['a,b', 'say "hi"', '"', "two\nlines", "cr\rlf\r\n", " padded ", ","]
)
_ASSAY = st.none() | st.floats() | st.floats(min_value=0.0) | st.sampled_from([0.0, -0.0, 1e-300])
# Values of the wrong type, which no file could hold: the model must reject them.
_WRONG_TYPE = st.sampled_from([True, False, 5.5, 2000.5, numpy.float64(1.5), Decimal("1.5"),
                               5, None, "male"])
# Integer assays: exact as floats, and not (the model must reject those).
_INT_ASSAY = st.sampled_from([0, 7, 2**53, 2**53 + 1, 10**400])
_CANDIDATE = st.builds(
    dict,
    record_id=_TEXT | _WRONG_TYPE,
    age=st.none() | st.integers(-5, 140) | _WRONG_TYPE,
    sex=st.sampled_from(Sex) | _WRONG_TYPE,
    note_text=_TEXT | _WRONG_TYPE,
    hbsag_iu=_ASSAY | _WRONG_TYPE | _INT_ASSAY,
    anti_hcv_iu=_ASSAY | _WRONG_TYPE | _INT_ASSAY,
    collection_year=st.none() | st.integers(-5000, 5000) | st.integers(1790, 2210) | _WRONG_TYPE,
)


def _accepted(fields):
    try:
        return PathologyRecord(**fields)
    except ValueError:
        return None  # a record the model rejects cannot be written


@settings(max_examples=300, deadline=None)
@given(candidates=st.lists(_CANDIDATE, max_size=6))
def test_write_then_parse_returns_every_accepted_record(tmp_path_factory, candidates):
    records = {}
    for fields in candidates:
        record = _accepted(fields)
        if record is not None:
            records.setdefault(record.record_id, record)
    cohort = Cohort(tuple(records.values()))
    path = tmp_path_factory.mktemp("round_trip") / "cohort.csv"
    write_cohort_file(cohort, path)
    assert parse_cohort_file(path) == cohort


# -- the one reader against the one it replaced --------------------------------

@dataclass
class _OldReport:
    path: str
    strict: bool
    n_rows: int = 0
    n_parsed: int = 0
    skipped: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
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


def _old_parse_int(raw: str, column: str, row: int) -> int | None:
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise CohortFormatError(f"row {row}, column {column}: not an integer: {raw!r}")


def _old_parse_float(raw: str, column: str, row: int) -> float | None:
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise CohortFormatError(f"row {row}, column {column}: not a number: {raw!r}")


def _old_parse_cohort_file_with_report(path, strict: bool = True) -> tuple[Cohort, _OldReport]:
    """The reader that built every record in both modes, kept as the oracle."""
    report = _OldReport(path=str(path), strict=strict)
    records: list[PathologyRecord] = []
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
        blank = 0
        try:
            for rownum, row in enumerate(reader, start=2):
                if not row:  # a blank line is no row, but numbers the rows after it
                    blank += 1
                    continue
                report.n_rows += 1
                if row[0] in seen:  # never skipped, even in lenient mode
                    raise CohortFormatError(f"row {rownum}: duplicate record_id {row[0]!r}")
                try:
                    records.append(_old_parse_row(row, rownum, report))
                except CohortFormatError as err:
                    if strict:
                        raise
                    report.skipped.append({"row": rownum, "reason": str(err)})
                    continue
                seen.add(row[0])
        except csv.Error as err:
            raise CohortFormatError(f"row {report.n_rows + blank + 2}: {err}") from None
    report.n_parsed = len(records)
    return Cohort(tuple(records)), report


def _old_parse_row(row, rownum: int, report: _OldReport) -> PathologyRecord:
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
    # Converted outside the try, whose handler would wrap their CohortFormatError
    # (a ValueError) again.
    age = _old_parse_int(age_raw, "age", rownum)
    hbsag_iu = _old_parse_float(hbsag_raw, "hbsag_iu", rownum)
    anti_hcv_iu = _old_parse_float(hcv_raw, "anti_hcv_iu", rownum)
    collection_year = _old_parse_int(year_raw, "collection_year", rownum)
    try:
        return PathologyRecord(
            record_id, age, sex, note_text, hbsag_iu, anti_hcv_iu, collection_year
        )
    except ValueError as err:  # a record rule, worded "<field>: <problem>"
        raise CohortFormatError(f"row {rownum}, column {err}") from None


# Raw CSV fields the reader accepts, by column: ids repeat now and then, an
# unknown sex token is accepted with a warning, and numbers may be padded
# with whitespace or written in non-ASCII digits.
_ACCEPTED = {
    "record_id": st.sampled_from([f"r{i}" for i in range(30)] + [" r1", "r,1", "r1\n"]),
    "age": st.sampled_from(["", "0", "38", "130", " 40", "5 ", "\u0663\u0668"]),
    "sex": st.sampled_from(["M", "F", "1", "2", "", "m ", " f", "x", "male"]),
    "note_text": _TEXT,
    "hbsag_iu": st.sampled_from(["", "2.4", "0", "1e-300", "-0.0", "1e3", " 2.4 ",
                                 "\u0662.\u0664"]),
    "anti_hcv_iu": st.sampled_from(["", "0.4", "1", "-0.0", "5"]),
    "collection_year": st.sampled_from(["", "1997", "1800", "2200", " 1997",
                                        "\u0661\u0669\u0669\u0667"]),
}
# Fields that break a conversion or a record rule: whitespace alone, a float
# in an int column, and an int of more digits than int() converts (in a float
# column it reads as inf).
_TOO_LONG = "1" * 4301
_REJECTED = {
    "record_id": [""],
    "age": ["131", "-1", "oops", "1e3", "5.0", " ", "nan", _TOO_LONG],
    "hbsag_iu": ["-2", "inf", "nan", "x", " ", _TOO_LONG],
    "anti_hcv_iu": ["-inf", "NaN", "1,5", "-1e3", "\t"],
    "collection_year": ["1799", "2201", "abc", "2e3", "1997.0", " ", "inf", _TOO_LONG],
}


def _raw_row(faulty):
    return st.tuples(*(
        _ACCEPTED[h] | st.sampled_from(_REJECTED[h]) if faulty and h in _REJECTED else _ACCEPTED[h]
        for h in HEADER
    )).map(list)


_WRONG_LENGTH_ROW = st.lists(st.sampled_from(["r9", "1", "M", "a,b", ""]), max_size=9).filter(
    lambda row: len(row) != len(HEADER))
_ROWS = st.lists(_raw_row(False), max_size=8) | st.lists(
    _raw_row(False) | _raw_row(True) | _WRONG_LENGTH_ROW, max_size=8)


def _outcome(read):
    try:
        return read()
    except CohortFormatError as err:
        return f"error: {err}"


@settings(max_examples=300, deadline=None)
@given(rows=_ROWS, bom=st.booleans())
def test_reader_matches_the_reader_it_replaced(tmp_path_factory, rows, bom):
    path = tmp_path_factory.mktemp("oracle") / "cohort.csv"
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
        csv.writer(fh).writerows([HEADER, *rows])
    assert _outcome(lambda: parse_cohort_file(path)) == _outcome(
        lambda: _old_parse_cohort_file_with_report(path)[0])
    for strict in (True, False):
        assert _outcome(lambda: validate_cohort_file(path, strict).to_json()) == _outcome(
            lambda: _old_parse_cohort_file_with_report(path, strict)[1].to_json())


@settings(max_examples=500, deadline=None)
@given(row=_raw_row(True) | _WRONG_LENGTH_ROW, rownum=st.integers(2, 10**6))
def test_parse_row_matches_per_field_oracle(row, rownum):
    # The same record, floats bit for bit, or the same message with the same
    # row and column; and the same warnings.
    warnings, old_report = [], _OldReport("c.csv", strict=True)
    assert _outcome(lambda: repr(_parse_row(row, rownum, warnings))) == _outcome(
        lambda: repr(_old_parse_row(row, rownum, old_report)))
    assert warnings == old_report.warnings


# -- demographics -------------------------------------------------------------

def test_summary_hand_computed_sd():
    cohort = Cohort(tuple(PathologyRecord(f"r{i}", age=a) for i, a in enumerate([10, 20, 30])))
    s = summarize_demographics(cohort)
    assert s.age_mean == pytest.approx(20.0)
    assert s.age_sd == pytest.approx(10.0)  # sample SD, n-1 denominator


def test_summary_single_record():
    s = summarize_demographics(Cohort((PathologyRecord("r1", age=50),)))
    assert s.age_mean == 50
    assert s.age_sd == 0.0


def test_summary_counts_partition_sexes():
    records = [
        PathologyRecord("a", sex=Sex.MALE),
        PathologyRecord("b", sex=Sex.FEMALE),
        PathologyRecord("c", sex=Sex.UNSPECIFIED),
        PathologyRecord("d", sex=Sex.MALE, hbsag_iu=2.0),
    ]
    s = summarize_demographics(Cohort(tuple(records)))
    assert s.n_male + s.n_female + s.n_unspecified == s.n_total == 4


def test_summary_age_histogram():
    ages = [5, 12, 15, 23, 38, 41, 44]
    cohort = Cohort(tuple(PathologyRecord(f"r{i}", age=a) for i, a in enumerate(ages)))
    s = summarize_demographics(cohort)
    assert dict(s.age_histogram) == {0: 1, 10: 2, 20: 1, 30: 1, 40: 2}


def test_summary_permutation_invariant():
    rng = random.Random(3)
    records = [
        PathologyRecord(f"r{i}", age=rng.randint(0, 90), sex=rng.choice(list(Sex)))
        for i in range(40)
    ]
    base = summarize_demographics(Cohort(tuple(records)))
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert summarize_demographics(Cohort(tuple(shuffled))) == base


@settings(max_examples=200, deadline=None)
@given(ages=st.lists(st.none() | st.integers(0, 130), min_size=1, max_size=60))
def test_summary_age_statistics_match_the_list_of_ages(ages):
    # The summary counts ages; the statistics over the list of every age,
    # in record order, are what it computed before and must stay bit for bit.
    s = summarize_demographics(Cohort(tuple(
        PathologyRecord(f"r{i}", age=a) for i, a in enumerate(ages))))
    aged = [a for a in ages if a is not None]
    mean = statistics.fmean(aged) if aged else None
    sd = statistics.stdev(aged) if len(aged) > 1 else (0.0 if aged else None)
    assert (repr(s.age_mean), repr(s.age_sd)) == (repr(mean), repr(sd))
    decades: dict[int, int] = {}
    for a in aged:
        decades[a // 10 * 10] = decades.get(a // 10 * 10, 0) + 1
    assert s.age_histogram == tuple(sorted(decades.items()))


def _is_rounded_root(r: float, square: Fraction) -> bool:
    """Whether r is sqrt(square) rounded to the nearest float, ties to even.

    With `below` and `above` the midpoints between r and its float
    neighbours, r is the rounded root iff below**2 <= square <= above**2,
    in exact rational arithmetic. At either end, unless r itself is exact,
    the root is a midpoint (a tie), and round-half-even takes the neighbour
    whose 53-bit significand is even, so there r must be the even one.
    This needs no `statistics`, so it holds the same on every interpreter.
    """
    below = (Fraction(r) + Fraction(math.nextafter(r, 0.0))) / 2
    above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
    if not below * below <= square <= above * above:
        return False
    tie = square in (below * below, above * above) and Fraction(r) ** 2 != square
    return not tie or int(math.ldexp(math.frexp(r)[0], 53)) % 2 == 0


@settings(max_examples=200, deadline=None)
@given(ages=st.lists(st.integers(0, 130), min_size=2, max_size=120))
def test_summary_age_sd_is_the_correctly_rounded_root_of_the_variance(ages):
    s = summarize_demographics(Cohort(tuple(
        PathologyRecord(f"r{i}", age=a) for i, a in enumerate(ages))))
    n, total = len(ages), sum(ages)
    variance = Fraction(n * sum(a * a for a in ages) - total * total, n * (n - 1))
    assert _is_rounded_root(s.age_sd, variance)
    assert s.age_mean == total / n  # int true division rounds correctly


@settings(max_examples=500, deadline=None)
@given(num=st.integers(0, 2**300), den=st.integers(1, 2**300))
def test_sqrt_of_frac_is_correctly_rounded(num, den):
    assert _is_rounded_root(_sqrt_of_frac(num, den), Fraction(num, den))


def test_sqrt_of_frac_rounds_an_exact_tie_to_even():
    # (1 + 2**-53)**2 lies halfway between the squares of 1.0 (even) and
    # 1 + 2**-52 (odd); (1 + 3 * 2**-53)**2 halfway between 1 + 2**-52 and
    # 1 + 2**-51 (even).
    for mid, even in ((2**53 + 1, 1.0), (2**53 + 3, 1.0 + 2.0**-51)):
        square = Fraction(mid * mid, 2**106)
        assert _sqrt_of_frac(square.numerator, square.denominator) == even
        assert _is_rounded_root(even, square)
        assert not _is_rounded_root(math.nextafter(even, 0.0 if even > 1 else 2.0), square)


def test_summary_empty_cohort_rejected():
    with pytest.raises(ValueError):
        summarize_demographics(Cohort(()))


def _summarize_four_passes(cohort):
    """The four-pass summary that the one-pass version replaced, kept as its oracle."""
    ages = [r.age for r in cohort if r.age is not None]
    decades = {}
    for a in ages:
        decades[(a // 10) * 10] = decades.get((a // 10) * 10, 0) + 1
    return CohortSummary(
        n_total=len(cohort),
        age_mean=statistics.fmean(ages) if ages else None,
        age_sd=(statistics.stdev(ages) if len(ages) > 1 else (0.0 if ages else None)),
        n_male=sum(1 for r in cohort if r.sex is Sex.MALE),
        n_female=sum(1 for r in cohort if r.sex is Sex.FEMALE),
        n_unspecified=sum(1 for r in cohort if r.sex is Sex.UNSPECIFIED),
        age_histogram=tuple(sorted(decades.items())),
    )


_PERSON = st.tuples(st.none() | st.integers(0, 130), st.sampled_from(Sex))


@settings(max_examples=300, deadline=None)
@given(people=st.lists(_PERSON, min_size=1, max_size=40)
       | st.tuples(st.integers(0, 130), st.sampled_from(Sex)).map(lambda p: [p]))
def test_summary_matches_four_pass_oracle(people):
    cohort = Cohort(tuple(PathologyRecord(f"r{i}", age=age, sex=sex)
                          for i, (age, sex) in enumerate(people)))
    # Equal as dataclasses means bit-identical means and SDs (None when no age).
    assert summarize_demographics(cohort) == _summarize_four_passes(cohort)
