import contextlib
import io
import json
import math
import re
import select
import subprocess
import sys
import types
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from notedta import cli, evaluate, ingest
from notedta.classifier import (
    NOTE_MEMO_LIMIT,
    NOTE_MEMO_MAX_CHARS,
    classify_note,
    default_lexicon,
)
from notedta.cli import main
from notedta.ingest import write_cohort_file
from notedta.model import Cohort
from notedta.synth import preset_spec, synthesize_exact, synthesize_random
from launch import child_env, run_python
from test_golden import CLASSIFY_NOTES

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _classified(text: str) -> bytes:
    lexicon = default_lexicon()
    cs = [classify_note(line, lexicon) for line in text.split("\n")]
    return "".join(f"{c.category_id}\t{c.hbv_label}\t{c.hcv_label}\t{c.matched_pattern}\n"
                   for c in cs).encode("utf-8")


def _memo_bound_notes() -> str:
    # Repeats of notes first seen before the memo's bound and after it,
    # lines with a bare CR, an empty line, a line too long to be remembered
    # (with a bare CR too) seen first while the memo has room, and an
    # unterminated last line that repeats a note read with its newline.
    phrases = ["Known Hep B", "?Hep C\r", "", "post vaccination", "Depression", "Hep C Pos"]
    distinct = [f"{phrases[i % len(phrases)]} {i}" for i in range(NOTE_MEMO_LIMIT + 5)]
    long = "?Hep C\rKnown Hep B " + "fatigue " * (NOTE_MEMO_MAX_CHARS // 8)
    assert len(long) > NOTE_MEMO_MAX_CHARS
    return "\n".join([long, *distinct, "", *distinct[:5], long, *distinct[-5:], "Known Hep B\rpsi",
                      "Known Hep B\rpsi", "", "?Hep C", *distinct[-5:], long, "?Hep C"])


def _block_boundary_notes() -> str:
    # Several blocks of a file, and far more output than a pipe holds: lines
    # with a bare CR, non-ASCII text, a line longer than a whole block and an
    # unterminated last line.
    phrases = ["Known Hep B", "?Hep C\r", "", "hépatite C", "Depression", "Hep C Pos\rx"]
    distinct = [f"{phrases[i % len(phrases)]} {i % 997}" for i in range(30_000)]
    long = "?Hep C\rKnown Hep B " + "é" * cli._BLOCK_HINT
    text = "\n".join([*distinct[:12_000], long, *distinct[12_000:], long, "?Hep C\r"])
    assert len(text) > 5 * cli._BLOCK_HINT
    return text


# Inputs whose `notedta classify` stdout must be classify_note applied line
# by line, read from a file and from stdin, with and without -u.
CLASSIFY_INPUTS = {
    # A bare CR is inside its note; CRLF lines classify as their LF twins.
    "cr-crlf": "Known Hep B\rpsi\nKnown Hep C\r\n?Hep B\r\nscreen\r\n" + CLASSIFY_NOTES,
    "memo-bound": _memo_bound_notes(),
    "block-boundaries": _block_boundary_notes(),
}


@pytest.mark.parametrize("flags", [["-u"], []], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text", CLASSIFY_INPUTS.values(), ids=CLASSIFY_INPUTS)
def test_classify_prints_each_line_as_classified(tmp_path, text, source, flags):
    notes = tmp_path / "notes.txt"
    notes.write_bytes(text.encode("utf-8"))
    with open(notes, "rb") as stdin:
        proc = run_python(*flags, "-m", "notedta.cli", "classify",
                          str(notes) if source == "file" else "-", stdin=stdin)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == _classified(text.replace("\r\n", "\n"))


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "raw, notes",
    [
        # a bare CR is inside its note: one note, one output line
        (b"Known Hep B\rpsi\n", "Known Hep B\rpsi"),
        # CRLF lines classify as their LF twins
        (b"Known Hep C\r\n?Hep B\r\nscreen\r\n", "Known Hep C\n?Hep B\nscreen"),
    ],
    ids=["bare-cr", "crlf"],
)
def test_classify_splits_notes_at_lf_only(tmp_path, source, raw, notes):
    path = tmp_path / "notes.txt"
    path.write_bytes(raw)
    with open(path, "rb") as stdin:
        proc = run_python("-m", "notedta.cli", "classify",
                          str(path) if source == "file" else "-", stdin=stdin)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == _classified(notes)


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_classify_writes_a_file_a_block_at_a_time(tmp_path, monkeypatch):
    text = "".join(f"{('Known Hep B', '?Hep C', 'fatigue')[i % 3]} {i}\n" for i in range(20_000))
    notes = tmp_path / "notes.txt"
    notes.write_text(text, encoding="utf-8")
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["classify", str(notes)]) == 0
    assert stdout.writes <= math.ceil(notes.stat().st_size / cli._BLOCK_HINT) + 1
    assert stdout.getvalue().encode("utf-8") == _classified(text[:-1])


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_classify_invalid_utf8_is_exit_1(tmp_path, source):
    # In UTF-8 mode stdin would pass undecodable bytes on as surrogates:
    # classify decodes it strictly, as it decodes a file.
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"Known Hep B\n\xff\xfe bad\n")
    with open(notes, "rb") as stdin:
        proc = run_python("-X", "utf8", "-m", "notedta.cli", "classify",
                          str(notes) if source == "file" else "-",
                          stdin=stdin, env={"PYTHONIOENCODING": None})
    assert (proc.returncode, proc.stdout) == (1, _classified("Known Hep B"))
    name = notes if source == "file" else "stdin"
    assert proc.stderr.decode("utf-8").splitlines() == [
        f"error: {name}: line 2: not UTF-8 (byte 0xff: invalid start byte)"]


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_classify_names_a_bad_line_past_the_first_block(tmp_path, source):
    # Three stock notes repeat, so every line after the first three is a
    # memo hit; the bad line sits inside a block, past the first.
    good = "".join(f"{('Known Hep B', '?Hep C', 'fatigue')[i % 3]} x\n" for i in range(20_000))
    assert len(good) > 2 * cli._BLOCK_HINT
    notes = tmp_path / "notes.txt"
    notes.write_bytes(good.encode() + b"Hep B caf\xe9\nKnown Hep C\n")
    with open(notes, "rb") as stdin:
        proc = run_python("-m", "notedta.cli", "classify",
                          str(notes) if source == "file" else "-", stdin=stdin)
    assert (proc.returncode, proc.stdout) == (1, _classified(good[:-1]))
    name = notes if source == "file" else "stdin"
    assert proc.stderr.decode("utf-8").splitlines() == [
        f"error: {name}: line 20001: not UTF-8 (byte 0xe9: invalid continuation byte)"]


# Byte lines for the property below: stock notes (with a BOM, a bare CR and
# a CRLF ending), non-ASCII text, and lines of more than NOTE_MEMO_MAX_CHARS
# bytes, two of them with at most that many characters.
_LINES = st.one_of(
    st.sampled_from([b"", b"Known Hep B", b"?Hep C\r", b"Known Hep B\rpsi", b"\xef\xbb\xbfHep C",
                     "h\u00e9patite C".encode(), b"x" * (NOTE_MEMO_MAX_CHARS + 1),
                     "\u00e9".encode() * NOTE_MEMO_MAX_CHARS,
                     "Hep B \u00e9".encode() * (NOTE_MEMO_MAX_CHARS // 8)]),
    st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\n"),
            max_size=12).map(str.encode),
)
# Not UTF-8: a bad start byte, a bad continuation, a truncated sequence, an
# encoded surrogate and an overlong form.
_NOT_UTF8 = [b"\xff", b"\xe9t\xe9", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@pytest.fixture(scope="module")
def property_notes(tmp_path_factory):
    return tmp_path_factory.mktemp("classify") / "notes.txt"


@given(lines=st.lists(_LINES, min_size=1, max_size=4).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), max_size=30)),
       bad=st.none() | st.tuples(st.integers(0, 30), _LINES, st.sampled_from(_NOT_UTF8)),
       final_newline=st.booleans())
def test_classify_reads_byte_lines_up_to_the_first_bad_one(property_notes, lines, bad,
                                                            final_newline):
    if bad is not None:
        at, prefix, byte = bad
        lines.insert(min(at, len(lines)), prefix + byte)
    data = b"\n".join(lines) + b"\n" * final_newline
    property_notes.write_bytes(data)
    # The file's lines, each with the b"\n" that ends it: a final newline
    # ends the last line, and starts none.
    raw = [line + b"\n" for line in data.split(b"\n")]
    raw[-1] = raw[-1][:-1]
    if not raw[-1]:
        raw.pop()
    good = []
    for line in raw:
        try:
            good.append(line.decode("utf-8").rstrip("\n"))
        except UnicodeDecodeError as err:
            error = (f"error: {property_notes}: line {len(good) + 1}: not UTF-8 "
                     f"(byte 0x{line[err.start]:02x}: {err.reason})\n")
            break
    else:
        error = ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", str(property_notes)])
    assert (code, err.getvalue()) == (1 if error else 0, error)
    lexicon = default_lexicon()
    assert out.getvalue() == "".join(
        f"{c.category_id}\t{c.hbv_label}\t{c.hcv_label}\t{c.matched_pattern}\n"
        for c in (classify_note(note, lexicon) for note in good))


# Run by a small interpreter of its own: a child's peak RSS starts from its
# parent's RSS at the fork, which in a test session is larger than classify's.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)  # else Popen warns it still runs
print(proc.returncode, usage.ru_maxrss)
"""


def _classify_peak_rss_kib(path) -> int:
    """Peak RSS of `notedta classify path` in a fresh interpreter, read by `os.wait4`."""
    proc = run_python("-c", _PEAK_RSS, sys.executable, "-m", "notedta.cli", "classify", str(path))
    assert (proc.returncode, proc.stderr) == (0, b"")
    code, kib = map(int, proc.stdout.split())
    assert code == 0
    return kib


def test_classify_memory_stays_flat_on_long_distinct_lines(tmp_path):
    # Held by the memo, 4096 distinct lines of about 2 KB would take 8 MB
    # more than 4096 short ones. Each long line is two tokens, so cheap to
    # classify.
    short, long = tmp_path / "short.txt", tmp_path / "long.txt"
    short.write_text("".join(f"Known Hep B {i}\n" for i in range(NOTE_MEMO_LIMIT)))
    long.write_text("".join(f"{i} {'x' * 2040}\n" for i in range(NOTE_MEMO_LIMIT)))
    assert _classify_peak_rss_kib(long) <= _classify_peak_rss_kib(short) + 3 * 1024


def test_classify_stdin_streams_under_u():
    # Each line is classified and written before the next one is read.
    proc = subprocess.Popen([sys.executable, "-u", "-m", "notedta.cli", "classify", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    try:
        for line in ("Known Hep C\n", "?Hep B\n"):
            proc.stdin.write(line.encode("utf-8"))
            proc.stdin.flush()
            assert select.select([proc.stdout], [], [], 30)[0], "no line before end of input"
            assert proc.stdout.readline() == _classified(line[:-1])
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stdout.read() == b""
    finally:
        proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            stream.close()


def test_classify_stdin_is_left_open(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"Known Hep B\n?Hep C"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0 and not stdin.closed
    assert out.encode("utf-8") == _classified("Known Hep B\n?Hep C")


def test_classify_with_stdin_closed_is_exit_1():
    # Started with fd 0 closed, the process has no sys.stdin at all.
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m notedta.cli classify - <&-', sys.executable],
                          capture_output=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: cannot read stdin: it is closed\n"


def test_evaluate_warns_when_primary_category_evaluates_nothing(tmp_path, capsys):
    hbv = tmp_path / "hbv.csv"
    assert run(capsys, "synth", str(hbv), "--preset", "figS1-hbv")[0] == 0
    code, out, err = run(capsys, "evaluate", str(hbv), "--condition", "hcv",
                         "--outdir", str(tmp_path / "a"))
    assert code == 0
    assert out.startswith("hcv: n=0 (missing excluded: 0);")
    assert err == ("warning: category 2 (Hepatitis C) evaluated no records: "
                   "no notes matched it\n")

    # Hep C notes, but no anti-HCV values.
    notes = tmp_path / "notes.csv"
    notes.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
        "r1,40,F,Known Hep C,,,2001\nr2,50,M,Hep C,0.2,,2002\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", str(notes), "--condition", "hcv",
                       "--outdir", str(tmp_path / "b"))
    assert code == 0
    assert err == ("warning: category 2 (Hepatitis C) evaluated no records: "
                   "every anti-HCV value was missing (2 records)\n")

    code, _, err = run(capsys, "evaluate", str(hbv), "--condition", "hbv",
                       "--outdir", str(tmp_path / "c"))
    assert (code, err) == (0, "")


def test_blank_cohort_lines_are_skipped(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    assert run(capsys, "synth", str(plain), "--preset", "figS1-hbv", "--seed", "1")[0] == 0
    lines = plain.read_bytes().splitlines(keepends=True)
    blank = tmp_path / "blank.csv"
    blank.write_bytes(b"".join(lines[:100] + [b"\r\n"] + lines[100:] + [b"\r\n"]))
    for cohort in (plain, blank):
        code, _, err = run(capsys, "evaluate", str(cohort), "--condition", "hbv",
                           "--outdir", str(tmp_path / cohort.stem))
        assert (code, err) == (0, "")
    written = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert len(written) == 6
    for name in written:
        assert (tmp_path / "blank" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    code, out, _ = run(capsys, "validate", str(blank))
    assert (code, out) == (0, f"{blank}: 241 records parsed, 0 skipped, 0 warnings\n")


@pytest.mark.parametrize("method", ["exact", "score"])
def test_evaluate_at_the_largest_level_below_1_writes_no_nan(tmp_path, capsys, method):
    # 1 - (1 - level)/2 rounds to 1.0 at this level, so every quantile is
    # taken from the lower tail, whose probability stays above 0.
    cohort = tmp_path / "cohort.csv"
    run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")
    level = math.nextafter(1.0, 0.0)
    assert 1.0 - (1.0 - level) / 2.0 == 1.0
    code, _, err = run(capsys, "evaluate", str(cohort), "--condition", "hbv", "--outdir",
                       str(tmp_path / "o"), "--ci-method", method, "--ci-level", repr(level))
    assert (code, err) == (0, "")
    for path in sorted((tmp_path / "o").iterdir()):  # "nan" as a word: "pregnancy" holds it
        assert not re.search(r"\bnan\b", path.read_text(encoding="utf-8"), re.I), path.name


def _renamed_lexicon(tmp_path) -> Path:
    """The built-in lexicon with category 37 relabelled "Tiredness"."""
    label = default_lexicon().rule(37).label
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(
        (files("notedta") / "data/default_lexicon.txt").read_text("utf-8")
        .replace(f"label: {label}\n", "label: Tiredness\n"),
        encoding="utf-8",
    )
    return lexicon


def test_lexicon_is_read_from_the_flag_only(tmp_path, capsys, monkeypatch):
    # A lexicon in the environment changes nothing: classify and evaluate
    # read one only from --lexicon.
    renamed = str(_renamed_lexicon(tmp_path))
    monkeypatch.setenv("NOTEDTA_LEXICON", renamed)
    cohort = tmp_path / "cohort.csv"
    run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")
    for name, flags, label in (("env", (), default_lexicon().rule(37).label),
                               ("flag", ("--lexicon", renamed), "Tiredness")):
        outdir = tmp_path / name
        assert run(capsys, "evaluate", str(cohort), "--condition", "hbv",
                   "--outdir", str(outdir), *flags)[0] == 0
        assert f"| {label} |" in (outdir / "report.md").read_text(encoding="utf-8")
    assert "Tiredness" not in (tmp_path / "env" / "report.md").read_text(encoding="utf-8")
    notes = tmp_path / "notes.txt"
    notes.write_text(CLASSIFY_NOTES, encoding="utf-8")
    assert run(capsys, "classify", str(notes)) == (0, _classified(CLASSIFY_NOTES).decode(), "")


def test_score_interval_bounds_stay_inside_0_1(tmp_path, capsys):
    # Seven test positives that are all HBsAg negative: Sp is 0/7, whose
    # Wilson lower bound is exactly 0, not a cancellation residue below it.
    cohort = tmp_path / "c.csv"
    cohort.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
        + "".join(f"r{i},40,M,hepatitis b,0.1,,\n" for i in range(7)),
        encoding="utf-8",
    )
    code, _, _ = run(capsys, "evaluate", str(cohort), "--condition", "hbv",
                     "--ci-method", "score", "--outdir", str(tmp_path))
    assert code == 0
    assert "Sp 0 (0-35.4)." in (tmp_path / "report.md").read_text(encoding="utf-8")
    rows = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert not [f for row in rows for f in row.split(",") if f.startswith("-")]


# -- the error contract --------------------------------------------------------

_HEADER = ",".join(ingest.HEADER) + "\n"
_COHORT = {"c.csv": _HEADER + "r1,38,M,Known Hep B,2.4,,2001\n"}
_USAGE = "usage: notedta ..."  # stands for argparse's usage text, checked by its first line
_LEXICON_BLOCKS = [f"[category {i}]\nlabel: c{i}\nchapter: -\npattern: tok{i}"
                   for i in range(1, 47)]


def _lexicon_error(old: str, new: str, message: str) -> tuple:
    """The row of `classify` with the 46-block lexicon whose first `old` is `new`."""
    # A lone surrogate in `new` is written as the byte it escapes.
    lexicon = "\n".join(_LEXICON_BLOCKS).replace(old, new, 1).encode("utf-8", "surrogateescape")
    return ("classify notes.txt --lexicon lexicon.txt",
            {"lexicon.txt": lexicon, "notes.txt": "tok7\n"}, 1, "", [message])


def _not_utf8_error(command: str, rows_before: int) -> tuple:
    """The row of `command` over a cohort whose record `rows_before + 1` is not UTF-8."""
    # Lines count from the header, a byte-order mark aside; the record
    # before the bad one has a note over two lines.
    rows = "".join(f"r{i},40,F,Known Hep B,,,2001\n" for i in range(rows_before - 1))
    cohort = (b"\xef\xbb\xbf" + _HEADER.encode() + rows.encode()
              + b'x,50,M,"Hep C\nPos",,,2002\ny,60,M,caf\xe9,0.2,,2002\n')
    return (command, {"c.csv": cohort}, 1, "", [
        f"error: c.csv: line {rows_before + 3}: not UTF-8 (byte 0xe9: invalid continuation byte)"])


_OVER_CSV_LIMIT = {"c.csv": _HEADER + f"r1,38,M,Hep B,2.4,,\nr2,40,F,{'x' * 140_000},,,\n"}
_COHORT_READERS = {"validate": "validate c.csv", "validate-strict": "validate --strict c.csv",
                   "evaluate": "evaluate c.csv --condition hbv --outdir o"}

# Id -> (command line, input files, exit code, stdout, stderr lines) of each
# failing command: an input error, a malformed command line included, is
# exit 1 with one `error:` line and writes no file. An input named with a
# trailing '/' is an empty directory. A usage error prints argparse's usage
# text, then its error line.
ERRORS = {
    # -- cohort files
    "validate-strict-bad-age": ("validate c.csv --strict", {"c.csv": _HEADER + "r1,bad,M,x,,,\n"},
                                1, "", ["error: row 2, column age: not an integer: 'bad'"]),
    "validate-strict-blank-line-counts": (
        "validate c.csv --strict", {"c.csv": _HEADER + "r1,38,M,x,,,\n\nr2,bad,M,x,,,\n"},
        1, "", ["error: row 4, column age: not an integer: 'bad'"]),
    "validate-duplicate-id": (
        "validate c.csv", {"c.csv": _HEADER + "r1,38,M,Hep B,2.4,,\nr1,40,F,x,,,\n"},
        1, "", ["error: row 3: duplicate record_id 'r1'"]),
    "validate-over-csv-limit": ("validate c.csv", _OVER_CSV_LIMIT, 1, "",
                                ["error: row 3: field larger than field limit (131072)"]),
    "evaluate-over-csv-limit": ("evaluate c.csv --condition hbv --outdir o", _OVER_CSV_LIMIT, 1, "",
                                ["error: row 3: field larger than field limit (131072)"]),
    "validate-empty-file": ("validate c.csv", {"c.csv": ""}, 1, "",
                            ["error: c.csv: empty file, header row required"]),
    "evaluate-empty-file": ("evaluate c.csv --condition hbv --outdir o", {"c.csv": ""}, 1, "",
                            ["error: c.csv: empty file, header row required"]),
    "evaluate-no-records": ("evaluate c.csv --condition hbv", {"c.csv": _HEADER}, 1, "",
                            ["error: c.csv: no records"]),
    **{f"{name}-not-utf8-{where}": _not_utf8_error(command, rows_before)
       for name, command in _COHORT_READERS.items()
       for where, rows_before in (("in-the-first-chunk", 1), ("past-it", 2000))},
    # -- paths
    "evaluate-missing-input": ("evaluate missing.csv --condition hbv", {}, 1, "",
                               ["error: [Errno 2] No such file or directory: 'missing.csv'"]),
    "evaluate-dir": ("evaluate d --condition hbv --outdir o", {"d/": None}, 1, "",
                     ["error: [Errno 21] Is a directory: 'd'"]),
    "classify-dir": ("classify d", {"d/": None}, 1, "", ["error: [Errno 21] Is a directory: 'd'"]),
    "validate-dir": ("validate d", {"d/": None}, 1, "", ["error: [Errno 21] Is a directory: 'd'"]),
    "evaluate-outdir-is-file": ("evaluate c.csv --condition hbv --outdir c.csv", _COHORT, 1, "",
                                ["error: --outdir c.csv: c.csv is not a directory"]),
    "evaluate-missing-lexicon": ("evaluate c.csv --condition hbv --lexicon l.txt", _COHORT, 1, "",
                                 ["error: [Errno 2] No such file or directory: 'l.txt'"]),
    "validate-report-in-missing-dir": ("validate c.csv --report no/r.json", _COHORT, 1, "",
                                       ["error: [Errno 2] No such file or directory: 'no/r.json'"]),
    # -- flags, checked before the input is read
    "evaluate-ci-level-before-input": ("evaluate missing.csv --condition hbv --ci-level 2", {},
                                       1, "", ["error: confidence level must be in (0,1): 2.0"]),
    "evaluate-nan-cutoff": ("evaluate c.csv --condition hbv --outdir o --cutoff nan", _COHORT,
                            1, "", ["error: cutoff must be finite and > 0: nan"]),
    "evaluate-inf-cutoff": ("evaluate c.csv --condition hbv --outdir o --cutoff inf", _COHORT,
                            1, "", ["error: cutoff must be finite and > 0: inf"]),
    "synth-preset-with-condition": ("synth x.csv --preset figS1-hbv --condition hcv", {}, 1, "",
                                    ["error: --condition and --prevalence apply only with --n"]),
    "synth-preset-with-prevalence": ("synth x.csv --preset figS1-hbv --prevalence 0.1", {}, 1, "",
                                     ["error: --condition and --prevalence apply only with --n"]),
    "synth-negative-n": ("synth x.csv --n -1", {}, 1, "", ["error: n must be >= 0"]),
    "synth-prevalence-over-1": ("synth x.csv --n 5 --prevalence 1.5", {}, 1, "",
                                ["error: prevalence must be in [0,1]"]),
    # -- lexicons: every error names the file and the line
    "lexicon-no-label": _lexicon_error(
        "label: c7\n", "", "error: lexicon.txt: line 25: category 7 has no label"),
    "lexicon-empty-query-keyword": _lexicon_error(
        "pattern: tok46", "pattern: tok46\n[polarity]\nquery: -",
        "error: lexicon.txt: line 186: empty query keyword"),
    "lexicon-content-outside-a-block": _lexicon_error(
        "[category 1]", "label: stray\n[category 1]",
        "error: lexicon.txt: line 1: content outside any block"),
    "lexicon-unknown-key": _lexicon_error(
        "label: c7\n", "label: c7\ncolour: red\n",
        "error: lexicon.txt: line 27: unknown key 'colour'"),
    "lexicon-id-out-of-range": _lexicon_error(
        "[category 1]", "[category 0]", "error: lexicon.txt: line 1: category_id out of range: 0"),
    "lexicon-no-patterns": _lexicon_error(
        "pattern: tok7\n", "", "error: lexicon.txt: line 25: category 7 has no patterns"),
    "lexicon-empty-label": _lexicon_error(
        "label: c7\n", "label:\n",
        "error: lexicon.txt: line 25: category 7 label must be a non-empty str: ''"),
    # Block order ranks the categories; a lexicon no longer numbers them.
    "lexicon-priority-key": _lexicon_error(
        "label: c7\n", "label: c7\npriority: 7\n",
        "error: lexicon.txt: line 27: unknown key 'priority'"),
    "lexicon-statement-key": _lexicon_error(
        "pattern: tok46", "pattern: tok46\n[polarity]\nstatement: known",
        "error: lexicon.txt: line 186: unknown polarity key 'statement'"),
    "lexicon-duplicate-category": _lexicon_error(
        "[category 9]", "[category 3]",
        "error: lexicon.txt: line 33: duplicate category 3, first at line 9"),
    "lexicon-not-utf8-first-line": _lexicon_error(
        "[category 1]", "\udcff[category 1]",
        "error: lexicon.txt: line 1: not UTF-8 (byte 0xff: invalid start byte)"),
    "lexicon-not-utf8-in-a-pattern": _lexicon_error(
        "pattern: tok7\n", "pattern: caf\udce9\n",
        "error: lexicon.txt: line 28: not UTF-8 (byte 0xe9: invalid continuation byte)"),
    # -- malformed command lines: exit 1, not argparse's 2, which means an
    # internal failure
    "usage-bad-choice": ("synth x.csv --preset nope", {}, 1, "", [_USAGE, (
        "notedta synth: error: argument --preset: invalid choice: 'nope' "
        "(choose from 'figS1-hbv', 'figS1-hcv')")]),
    "usage-missing-required": ("evaluate c.csv", {}, 1, "", [_USAGE, (
        "notedta evaluate: error: the following arguments are required: --condition")]),
    "usage-bad-int": ("synth x.csv --n abc", {}, 1, "", [_USAGE, (
        "notedta synth: error: argument --n: invalid int value: 'abc'")]),
    "usage-unknown-subcommand": ("bogus", {}, 1, "", [_USAGE, (
        "notedta: error: argument subcommand: invalid choice: 'bogus' "
        "(choose from 'validate', 'classify', 'evaluate', 'synth')")]),
    "usage-synth-neither": ("synth x.csv", {}, 1, "", [_USAGE, (
        "notedta synth: error: one of the arguments --preset --n is required")]),
    "usage-synth-both": ("synth x.csv --preset figS1-hbv --n 500", {}, 1, "", [_USAGE, (
        "notedta synth: error: argument --n: not allowed with argument --preset")]),
    "usage-removed-hbsag-cutoff": ("evaluate c.csv --condition hbv --hbsag-cutoff 2", {}, 1, "", [
        _USAGE, "notedta: error: unrecognized arguments: --hbsag-cutoff 2"]),
    "usage-removed-anti-hcv-cutoff": ("evaluate c.csv --condition hcv --anti-hcv-cutoff 2", {},
                                      1, "", [_USAGE, (
        "notedta: error: unrecognized arguments: --anti-hcv-cutoff 2")]),
    "usage-removed-report": ("report out/report.json", {}, 1, "", [_USAGE, (
        "notedta: error: argument subcommand: invalid choice: 'report' "
        "(choose from 'validate', 'classify', 'evaluate', 'synth')")]),
}


def _tree(top: Path) -> dict[str, bytes | None]:
    """Every path below `top`: a file's with its bytes, a directory's with a '/' and None."""
    return {p.relative_to(top).as_posix() + "/" * p.is_dir():
            None if p.is_dir() else p.read_bytes() for p in top.rglob("*")}


@pytest.mark.parametrize("argv, inputs, code, out, err", ERRORS.values(), ids=ERRORS)
def test_error_contract(tmp_path, monkeypatch, capsys, argv, inputs, code, out, err):
    # Run in the inputs' directory, as the golden cases run, so messages
    # name the paths as given.
    monkeypatch.chdir(tmp_path)
    inputs = {name: data.encode() if isinstance(data, str) else data
              for name, data in inputs.items()}
    for name, data in inputs.items():
        Path(name).mkdir() if data is None else Path(name).write_bytes(data)
    try:
        got, usage = main(argv.split()), False
    except SystemExit as stop:  # argparse: its usage text, then one error line
        got, usage = stop.code, True
    printed = capsys.readouterr()
    lines = printed.err.splitlines()
    if usage:
        assert lines[0].startswith("usage: notedta"), lines
        lines = [_USAGE, lines[-1]]
    assert (got, printed.out, lines) == (code, out, err)
    assert _tree(tmp_path) == inputs  # no file written, made or changed


def test_validate_builds_no_cohort(tmp_path, capsys, monkeypatch):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
                      "r1,38,M,a,,,\nr2,oops,F,b,,,\nr3,41,x,c,,,\n", encoding="utf-8")

    def no_cohort(records):
        raise AssertionError("validate built a Cohort")

    monkeypatch.setattr(ingest, "Cohort", no_cohort)
    report = ingest.validate_cohort_file(cohort)
    assert (report.n_rows, report.n_parsed, len(report.skipped), len(report.warnings)) == (
        3, 2, 1, 1)
    code, out, err = run(capsys, "validate", str(cohort), "--report", str(tmp_path / "v.json"))
    assert (code, err) == (0, "")
    assert out == f"{cohort}: 2 records parsed, 1 skipped, 1 warnings\n"
    report = json.loads((tmp_path / "v.json").read_text())
    assert (report["n_rows"], report["n_parsed"], report["n_skipped"]) == (3, 2, 1)


def test_evaluate_frees_the_records_before_the_first_interval(tmp_path, capsys, monkeypatch):
    cohort_path = tmp_path / "cohort.csv"
    assert run(capsys, "synth", str(cohort_path), "--preset", "figS1-hbv", "--seed", "1")[0] == 0
    cohorts, freed, freed_at_first_interval = [], [], []
    parse, compute = cli.parse_cohort_file, evaluate.compute_metrics

    class WatchedCohort(Cohort):  # a tuple cannot be weakly referenced
        def __del__(self):
            freed.append(True)

    def parse_and_watch(path):
        cohort = WatchedCohort(parse(path))
        cohorts.append(len(cohort))
        return cohort

    def compute_and_check(*args, **kwargs):
        if not freed_at_first_interval:
            freed_at_first_interval.append(freed == [True])
        return compute(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_cohort_file", parse_and_watch)
    monkeypatch.setattr(evaluate, "compute_metrics", compute_and_check)
    code, _, _ = run(capsys, "evaluate", str(cohort_path), "--condition", "hbv",
                     "--outdir", str(tmp_path))
    assert code == 0 and len(cohorts) == 1 and len(freed_at_first_interval) == 1
    # CPython 3.10 keeps call arguments on the caller's stack until the call
    # returns, so there `_cmd_evaluate` still holds the cohort; from 3.11 the
    # callee takes them over and can drop the last reference.
    if sys.version_info >= (3, 11):
        assert freed_at_first_interval == [True]


@pytest.mark.parametrize("module, why", [
    (None, "import of scipy.special._ufuncs_cxx halted; None in sys.modules"),
    (types.SimpleNamespace(__pyx_capi__={}), "scipy.special._ufuncs_cxx: cannot read "
     "_export_ibeta_inv_double: KeyError('_export_ibeta_inv_double')"),
], ids=["no-module", "no-capsule"])
def test_evaluate_without_scipy_ufuncs_cxx_is_exit_2(tmp_path, capsys, monkeypatch, module, why):
    # A failure that is not the input's fault is exit 2 and one line, no traceback.
    cohort = tmp_path / "cohort.csv"
    assert run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")[0] == 0
    # The loader runs on the module's first import, so here under the patch.
    monkeypatch.delitem(sys.modules, "notedta._ibeta", raising=False)
    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs_cxx", module)
    code, out, err = run(capsys, "evaluate", str(cohort), "--condition", "hbv",
                         "--outdir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: cannot import scipy ({why}); exact intervals need it, --ci-method score does not"]


_EVALUATE_TO = """
import contextlib, io, json, sys
from notedta.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(["evaluate", sys.argv[1], "--condition", "hbv", "--outdir", sys.argv[2]])
print(json.dumps([code, err.getvalue(), sorted({"numpy", "scipy"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("outdir", ["file", "file/sub"])
def test_evaluate_outdir_under_a_file_is_exit_1_before_the_cohort_is_read(tmp_path, outdir):
    # The cohort file does not exist: the --outdir error comes first, and
    # nothing has loaded numpy or scipy.
    (tmp_path / "file").write_bytes(b"")
    proc = run_python("-c", _EVALUATE_TO, str(tmp_path / "missing.csv"), str(tmp_path / outdir))
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [
        1, f"error: --outdir {tmp_path / outdir}: {tmp_path / 'file'} is not a directory\n", []]


def test_import_error_outside_scipy_is_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "notedta.ingest", None)
    code, out, err = run(capsys, "validate", str(tmp_path / "cohort.csv"))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "internal error: ModuleNotFoundError('import of notedta.ingest halted; "
        "None in sys.modules')"]


def test_synth_preset_matches_preset_spec(tmp_path, capsys):
    path = tmp_path / "hcv.csv"
    assert run(capsys, "synth", str(path), "--preset", "figS1-hcv", "--seed", "4")[0] == 0
    expected = tmp_path / "expected.csv"
    write_cohort_file(synthesize_exact(preset_spec("figS1-hcv", seed=4)), expected)
    assert path.read_bytes() == expected.read_bytes()


def test_synth_random_prevalence_defaults_to_0_1(tmp_path, capsys):
    assert run(capsys, "synth", str(tmp_path / "r.csv"), "--n", "50", "--seed", "2")[0] == 0
    expected = tmp_path / "expected.csv"
    write_cohort_file(synthesize_random(50, 0.1, {1: 0.5, 32: 0.2, 37: 0.2, 45: 0.1}, seed=2),
                      expected)
    assert (tmp_path / "r.csv").read_bytes() == expected.read_bytes()


def test_cutoff_flags(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    cohort.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
        "r1,38,M,Known Hep B,2.0,2.0,\n"
        "r2,38,M,Known Hep C,2.0,2.0,\n",
        encoding="utf-8",
    )
    # 2.0 is positive at either default cutoff; at 5.0 each condition's
    # known-positive note, scored on its own marker, becomes a false positive.
    for condition in ("hbv", "hcv"):
        for cutoff, counts in ((None, [1, 0]), ("5.0", [0, 1])):
            outdir = tmp_path / condition / str(cutoff)
            flag = () if cutoff is None else ("--cutoff", cutoff)
            run(capsys, "evaluate", str(cohort), "--condition", condition,
                "--outdir", str(outdir), *flag)
            payload = json.loads((outdir / "report.json").read_text())
            assert payload["primary"]["counts"] == dict(zip(("tp", "fp", "fn", "tn"),
                                                            [*counts, 0, 0]))


@pytest.mark.parametrize("argv", [("--help",), ("synth", "--help")])
def test_help_is_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: notedta")


def test_synth_help_lists_the_presets(capsys):
    # The parser reads the preset names from synth only when it prints or checks them.
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    out = capsys.readouterr().out
    assert out.startswith("usage: notedta synth [-h] (--preset {figS1-hbv,figS1-hcv} | --n N)\n")
    assert "\n  --preset {figS1-hbv,figS1-hcv}\n" in out


# The names `notedta.cli` commands call through its module attributes (the
# benchmark traces them there); most are bound on first use.
_CALL_SITES = {
    "synthesize_exact": ("synth", "{d}/a.csv", "--preset", "figS1-hbv"),
    "synthesize_random": ("synth", "{d}/b.csv", "--n", "50", "--seed", "2"),
    "write_cohort_file": ("synth", "{d}/c.csv", "--preset", "figS1-hbv"),
    "parse_cohort_file": ("evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/o"),
    "evaluate_condition": ("evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/o"),
    "emit_report": ("evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/o"),
    "emit_plot_data": ("evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/o"),
    "emit_demographics_csv": (
        "evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/o"),
}


@pytest.mark.parametrize("bound", [True, False], ids=["bound", "not-yet-bound"])
@pytest.mark.parametrize("name", sorted(_CALL_SITES))
def test_commands_call_through_module_attributes(tmp_path, capsys, monkeypatch, name, bound):
    import notedta.cli as cli

    cohort = tmp_path / "cohort.csv"
    write_cohort_file(synthesize_exact(preset_spec("figS1-hbv", seed=1)), cohort)
    assert main(["evaluate", str(cohort), "--condition", "hbv",
                 "--outdir", str(tmp_path / "out")]) == 0
    original = getattr(cli, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if bound:
        monkeypatch.setattr(cli, name, recording)
    else:
        # As in a fresh process: no lazy name is bound yet, and the command
        # must keep a replacement made before it binds the rest.
        for names in cli._LAZY.values():
            for lazy in names:
                monkeypatch.delitem(vars(cli), lazy, raising=False)
        monkeypatch.setitem(vars(cli), name, recording)
    assert run(capsys, *(a.format(d=tmp_path) for a in _CALL_SITES[name]))[0] == 0
    assert calls


# -- process entry and exit ----------------------------------------------------

def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    # Only the process entry freezes; main() run in process does not.
    import gc

    before = gc.get_freeze_count()
    cohort = tmp_path / "cohort.csv"
    assert run(capsys, "synth", str(cohort), "--preset", "figS1-hbv")[0] == 0
    assert run(capsys, "evaluate", str(cohort), "--condition", "hbv",
               "--outdir", str(tmp_path))[0] == 0
    assert run(capsys, "validate", str(tmp_path / "missing.csv"))[0] == 1
    assert gc.get_freeze_count() == before


def test_console_script_and_module_run_the_same_entry():
    import ast
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["notedta"]
    assert script == "notedta.cli:entry"
    tree = ast.parse((ROOT / "src" / "notedta" / "cli.py").read_text(encoding="utf-8"))
    (guard,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in guard.body] == ["entry()"]


@pytest.mark.parametrize("argv, code", [(["classify", "/dev/null"], 0),
                                        (["validate", "{tmp}/missing.csv"], 1)])
def test_entry_exits_with_mains_code_after_freezing(tmp_path, argv, code):
    # An atexit hook runs after SystemExit has left the entry, before the
    # interpreter's final collections.
    argv = [a.format(tmp=tmp_path) for a in argv]
    probe = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
             f"sys.argv = ['notedta', *{argv!r}]\n"
             "runpy.run_module('notedta.cli', run_name='__main__')\n")
    proc = run_python("-c", probe)
    assert proc.returncode == code
    assert proc.stderr.decode("utf-8").splitlines()[-1] == "frozen True"
