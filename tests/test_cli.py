import hashlib
import io
import json
import os
import select
import subprocess
import sys
import weakref
from importlib.resources import files
from pathlib import Path

import pytest

from notedta import cli, evaluate, ingest
from notedta.classifier import classify_note, default_lexicon
from notedta.cli import LEXICON_ENV, main
from notedta.ingest import write_cohort_file
from notedta.synth import preset_spec, synthesize_exact, synthesize_random

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_synth_preset_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "synth", str(a), "--preset", "figS1-hbv", "--seed", "1")[0] == 0
    assert run(capsys, "synth", str(b), "--preset", "figS1-hbv", "--seed", "1")[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 241


# sha256 of `synth --preset P --seed 1` and of the report.md and
# demographics.csv that `evaluate` writes for it. Any change to them is an
# output change and must be made on purpose.
PRESET_DIGESTS = {
    ("figS1-hbv", "hbv"): {
        "cohort.csv": "5f14de999c286a3f9c450c935326fa8b8ac17d1971708b9295966c267804b953",
        "report.md": "a73fbb5a1bedf44c319180078bb164908333c8dac08558a3cea250b1775d258b",
        "demographics.csv": "ac3f1dbe7299fb85d57b0bb7e599f758216e41acd476f783021a4ad21ba4a9a4",
    },
    ("figS1-hcv", "hcv"): {
        "cohort.csv": "61680e16fd14a3b5c59b7c7f2b618ad5057319dd0fce798e5ac4759c51bd1bc7",
        "report.md": "17d0855b92663a480694651cfab634238226efbdaebca8315baeeae12977e6e7",
        "demographics.csv": "fe462fbe48b7d8e7c779933c2e85482465d72c7d157ce71d395385e66999656b",
    },
}


@pytest.mark.parametrize("preset,condition", sorted(PRESET_DIGESTS))
def test_preset_outputs_pinned(tmp_path, capsys, preset, condition):
    cohort = tmp_path / "cohort.csv"
    assert run(capsys, "synth", str(cohort), "--preset", preset, "--seed", "1")[0] == 0
    code, _, _ = run(capsys, "evaluate", str(cohort), "--condition", condition,
                     "--outdir", str(tmp_path))
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PRESET_DIGESTS[preset, condition]}
    assert digests == PRESET_DIGESTS[preset, condition]


RANDOM_COHORT_DIGEST = "cf9398b591268391ec29b7e7076ba50f9834a5885725a8009d187b40ce21532e"


def test_random_cohort_pinned(tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    code, _, _ = run(capsys, "synth", str(cohort), "--n", "200", "--prevalence", "0.2",
                     "--condition", "hcv", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(cohort.read_bytes()).hexdigest() == RANDOM_COHORT_DIGEST


def test_synth_then_evaluate_pipeline(tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    outdir = tmp_path / "out"
    assert run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")[0] == 0
    code, out, _ = run(
        capsys, "evaluate", str(cohort), "--condition", "hbv", "--outdir", str(outdir)
    )
    assert code == 0
    assert "n=179" in out
    md = (outdir / "report.md").read_text()
    assert "Sn 90 (80.6-95.4)" in md
    payload = json.loads((outdir / "report.json").read_text())
    assert payload["primary"]["counts"] == {"tp": 69, "fp": 45, "fn": 8, "tn": 57}
    for name in (
        "report.csv",
        "plotdata_sensitivity.csv",
        "plotdata_specificity.csv",
        "demographics.csv",
    ):
        assert (outdir / name).exists()


def test_classify_streams_labels(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text("?Hep C\nKnown Hep B\n\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(notes))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t")[:3] == ["2", "negative", "negative"]
    assert lines[1].split("\t")[:3] == ["1", "positive", "negative"]
    assert lines[2].split("\t")[0] == "45"


# An empty line, a '?'-only line, non-ASCII text and a last line without a newline.
_CLASSIFY_NOTES = "Known Hep C\n\n?\n?Hep B – dépistage\nRANTS, hépatite, known HBV\nscreen"


def _classified(text: str) -> bytes:
    lexicon = default_lexicon()
    cs = [classify_note(line, lexicon) for line in text.split("\n")]
    return "".join(f"{c.category_id}\t{c.hbv_label}\t{c.hcv_label}\t{c.matched_pattern}\n"
                   for c in cs).encode("utf-8")


def _cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", LEXICON_ENV)}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8",
               PYTHONDONTWRITEBYTECODE="1")
    return env


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_classify_output_same_unbuffered_and_buffered(tmp_path, source):
    notes = tmp_path / "notes.txt"
    notes.write_bytes(_CLASSIFY_NOTES.encode("utf-8"))
    argv = ["-m", "notedta.cli", "classify", str(notes) if source == "file" else "-"]
    stdouts = []
    for flags in (["-u"], []):
        with open(notes, "rb") as stdin:
            proc = subprocess.run([sys.executable, *flags, *argv], stdin=stdin,
                                  capture_output=True, env=_cli_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1] == _classified(_CLASSIFY_NOTES)


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
    argv = ["-m", "notedta.cli", "classify", str(path) if source == "file" else "-"]
    with open(path, "rb") as stdin:
        proc = subprocess.run([sys.executable, *argv], stdin=stdin, capture_output=True,
                              env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == _classified(notes)


def test_classify_stdin_streams_under_u():
    # Each line is classified and written before the next one is read.
    proc = subprocess.Popen([sys.executable, "-u", "-m", "notedta.cli", "classify", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_cli_env())
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
    stdin = io.StringIO("Known Hep B\n?Hep C")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0 and not stdin.closed
    assert out.encode("utf-8") == _classified("Known Hep B\n?Hep C")


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


def test_validate_writes_report(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    cohort.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
        "r1,38,M,Hep B,2.4,,\n"
        "r2,bad,F,x,,,\n",
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "validate", str(cohort), "--report", str(report))
    assert code == 0
    assert "1 records parsed, 1 skipped" in out
    assert json.loads(report.read_text())["n_skipped"] == 1


def test_validate_strict_fails_on_bad_row(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    cohort.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\nr1,bad,M,x,,,\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "validate", str(cohort), "--strict")
    assert code == 1
    assert "row 2" in err


def test_missing_input_is_exit_1(capsys):
    code, _, err = run(capsys, "evaluate", "/nonexistent.csv", "--condition", "hbv")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", "{dir}", "--condition", "hbv", "--outdir", "{tmp}/o"),
        ("classify", "{dir}"),
        ("validate", "{dir}"),
        ("evaluate", "{cohort}", "--condition", "hbv", "--outdir", "{cohort}"),
    ],
    ids=["evaluate-dir", "classify-dir", "validate-dir", "evaluate-outdir-is-file"],
)
def test_unreadable_path_is_exit_1(tmp_path, capsys, argv):
    # A directory given as input, or an --outdir that is an existing file, is
    # an input error (exit 1), not an internal failure (exit 2).
    cohort = tmp_path / "c.csv"
    run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")
    (tmp_path / "d").mkdir()
    fill = {"dir": str(tmp_path / "d"), "tmp": str(tmp_path), "cohort": str(cohort)}
    code, _, err = run(capsys, *(a.format(**fill) for a in argv))
    assert code == 1
    assert err.startswith("error: ")
    assert "internal error" not in err


def test_report_rerender(tmp_path, capsys):
    # report re-renders report.json into exactly the files evaluate wrote
    for preset, condition in (("figS1-hbv", "hbv"), ("figS1-hcv", "hcv")):
        cohort = tmp_path / f"{preset}.csv"
        outdir = tmp_path / preset
        run(capsys, "synth", str(cohort), "--preset", preset, "--seed", "1")
        run(capsys, "evaluate", str(cohort), "--condition", condition, "--outdir", str(outdir))
        for fmt, name in (("csv", "report.csv"), ("markdown", "report.md")):
            code, out, _ = run(capsys, "report", str(outdir / "report.json"), "--format", fmt)
            assert code == 0
            # bytes, so the CSV's \r\n line ends are compared too
            assert out == (outdir / name).read_bytes().decode("utf-8")


def test_report_rerender_at_non_default_ci_level(tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")
    code, _, _ = run(capsys, "evaluate", str(cohort), "--condition", "hbv",
                     "--outdir", str(tmp_path), "--ci-level", "0.8")
    assert code == 0
    written = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "(80% CI)" in written and "95%" not in written
    assert json.loads((tmp_path / "report.json").read_text())["ci_level"] == 0.8
    code, out, _ = run(capsys, "report", str(tmp_path / "report.json"), "--format", "markdown")
    assert code == 0 and out == written


def _evaluated_report(tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")
    run(capsys, "evaluate", str(cohort), "--condition", "hbv", "--outdir", str(tmp_path))
    return tmp_path / "report.json"


def test_report_missing_key_is_exit_1(tmp_path, capsys):
    path = _evaluated_report(tmp_path, capsys)
    payload = json.loads(path.read_text())
    del payload["primary"]["counts"]
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "report", str(path))
    assert code == 1 and out == ""
    assert str(path) in err and "counts" in err
    assert "internal error" not in err


@pytest.mark.parametrize("level", [None, "0.8", 1.5, 0.0])
def test_report_bad_ci_level_is_exit_1(tmp_path, capsys, level):
    path = _evaluated_report(tmp_path, capsys)
    payload = json.loads(path.read_text())
    payload["ci_level"] = level
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "report", str(path))
    assert code == 1 and out == ""
    assert str(path) in err and "internal error" not in err


def test_report_n_evaluated_disagreeing_with_counts_is_exit_1(tmp_path, capsys):
    path = _evaluated_report(tmp_path, capsys)
    payload = json.loads(path.read_text())
    payload["controls"][0]["n_evaluated"] += 1
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "report", str(path))
    assert code == 1 and out == ""
    assert str(path) in err and "n_evaluated" in err
    assert "internal error" not in err


def test_report_label_not_in_lexicon_is_exit_1(tmp_path, capsys, monkeypatch):
    path = _evaluated_report(tmp_path, capsys)
    label = default_lexicon().rule(37).label
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(
        (files("notedta") / "data/default_lexicon.txt").read_text("utf-8")
        .replace(f"label: {label}\n", "label: Tiredness\n"),
        encoding="utf-8",
    )
    monkeypatch.setenv("NOTEDTA_LEXICON", str(lexicon))
    code, out, err = run(capsys, "report", str(path))
    assert code == 1 and out == ""
    assert str(path) in err and "Tiredness" in err


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
@pytest.mark.parametrize("keys, stored", [
    (("primary", "sn", "value"), "abc"),
    (("primary", "sn", "value"), True),
    (("primary", "sp", "ci_low"), [0.1]),
    (("controls", 0, "ppv", "ci_high"), {"x": 1}),
    (("primary", "prevalence_sample"), "0.4"),
    (("primary", "counts", "tp"), 69.0),
    (("primary", "counts", "fn"), True),
    (("primary", "counts"), [69, 45, 8, 57]),
    (("primary", "n_missing_excluded"), "x"),
    (("controls", 2, "n_vaccination_excluded"), 1.5),
    (("demographics", "n_total"), "x"),
    (("demographics", "age_mean"), "40"),
    (("demographics",), [1, 2]),
    (("primary", "n_missing_excluded"), -3),
    (("primary", "counts", "tn"), -1),
    (("demographics", "n_female"), -2),
    (("primary", "sn", "value"), float("nan")),
    (("primary", "sp", "ci_high"), float("inf")),
    (("controls", 1, "lr_pos", "value"), float("-inf")),
    (("primary", "prevalence_sample"), float("nan")),
    (("demographics", "age_mean"), float("nan")),
    # The category blocks must be the evaluated set: `stored` may be a
    # function of the value it replaces.
    (("primary", "category_id"), True),
    (("controls", 0, "category_id"), 10.0),
    (("controls",), lambda controls: controls + controls[:1]),
    (("controls",), lambda controls: controls[1:]),
    (("controls",), lambda controls: controls[::-1]),
    (("controls",), lambda controls: [controls[0], controls[0], *controls[2:]]),
    (("condition",), "hepatitis_c"),
])
def test_report_malformed_stored_value_is_exit_1(tmp_path, capsys, fmt, keys, stored):
    path = _evaluated_report(tmp_path, capsys)
    payload = json.loads(path.read_text())
    *parents, key = keys
    target = payload
    for parent in parents:
        target = target[parent]
    target[key] = stored(target[key]) if callable(stored) else stored
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "report", str(path), "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: malformed report: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_validate_lenient_duplicate_id_is_exit_1(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    cohort.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
        "r1,38,M,Hep B,2.4,,\n"
        "r1,40,F,x,,,\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(cohort))
    assert code == 1
    assert "duplicate record_id 'r1'" in err


@pytest.mark.parametrize("argv", [
    ("evaluate", "{cohort}", "--condition", "hbv", "--outdir", "{tmp}"),
    ("validate", "{cohort}"),
])
def test_field_over_csv_limit_is_exit_1(tmp_path, capsys, argv):
    cohort = tmp_path / "c.csv"
    cohort.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
        "r1,38,M,Hep B,2.4,,\n"
        f"r2,40,F,{'x' * 140_000},,,\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, *(a.format(cohort=cohort, tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: row 3: field larger than field limit (131072)"]


_LEXICON_BLOCKS = [f"[category {i}]\nlabel: c{i}\npriority: {i}\npattern: tok{i}"
                   for i in range(1, 47)]


@pytest.mark.parametrize("priority_line,message", [
    ("", "error: line 25: category 7 has no priority"),
    ("priority: one\n", "error: line 27: priority not an integer: 'one'"),
])
def test_classify_lexicon_bad_priority_is_exit_1(tmp_path, capsys, priority_line, message):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\n".join(_LEXICON_BLOCKS).replace("priority: 7\n", priority_line),
                       encoding="utf-8")
    notes = tmp_path / "notes.txt"
    notes.write_text("tok7\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", str(notes), "--lexicon", str(lexicon))
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


def test_classify_lexicon_without_label_is_exit_1(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\n".join(_LEXICON_BLOCKS).replace("label: c7\n", ""), encoding="utf-8")
    notes = tmp_path / "notes.txt"
    notes.write_text("tok7\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", str(notes), "--lexicon", str(lexicon))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: line 25: category 7 has no label"]


def test_classify_lexicon_with_empty_query_keyword_is_exit_1(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\n".join(_LEXICON_BLOCKS) + "\n[polarity]\nquery: -\n", encoding="utf-8")
    notes = tmp_path / "notes.txt"
    notes.write_text("tok7\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", str(notes), "--lexicon", str(lexicon))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: line 186: empty query keyword"]


@pytest.mark.parametrize("old, new, message", [
    ("[category 1]", "label: stray\n[category 1]", "error: line 1: content outside any block"),
    ("label: c7\n", "label: c7\ncolour: red\n", "error: line 27: unknown key 'colour'"),
])
def test_classify_malformed_lexicon_is_exit_1(tmp_path, capsys, old, new, message):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\n".join(_LEXICON_BLOCKS).replace(old, new, 1), encoding="utf-8")
    notes = tmp_path / "notes.txt"
    notes.write_text("tok7\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", str(notes), "--lexicon", str(lexicon))
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize("argv", [
    ("validate", "{cohort}"),
    ("evaluate", "{cohort}", "--condition", "hbv", "--outdir", "{tmp}/out"),
])
def test_empty_cohort_file_is_exit_1(tmp_path, capsys, argv):
    cohort = tmp_path / "empty.csv"
    cohort.write_bytes(b"")
    code, out, err = run(capsys, *(a.format(cohort=cohort, tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {cohort}: empty file, header row required"]


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
    cohorts, freed_at_first_interval = [], []
    parse, compute = cli.parse_cohort_file, evaluate.compute_metrics

    def parse_and_watch(path):
        cohort = parse(path)
        cohorts.append(weakref.ref(cohort))
        return cohort

    def compute_and_check(*args, **kwargs):
        if not freed_at_first_interval:
            freed_at_first_interval.append(cohorts[0]() is None)
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


def test_evaluate_checks_flags_before_reading_the_input(tmp_path, capsys):
    code, out, err = run(capsys, "evaluate", str(tmp_path / "missing.csv"), "--condition", "hbv",
                         "--ci-level", "2", "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: confidence level must be in (0,1): 2.0"]


def test_evaluate_without_scipy_ufuncs_is_exit_2(tmp_path, capsys, monkeypatch):
    # A failure that is not the input's fault is exit 2 and one line, no traceback.
    cohort = tmp_path / "cohort.csv"
    assert run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")[0] == 0
    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
    code, out, err = run(capsys, "evaluate", str(cohort), "--condition", "hbv",
                         "--outdir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: cannot import scipy (import of scipy.special._ufuncs halted; None in "
        "sys.modules); exact intervals and a --ci-level other than 0.95 need it, "
        "--ci-method score at the default level does not"]


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


def test_synth_random_mode(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code, out, _ = run(
        capsys, "synth", str(out_path), "--n", "50", "--prevalence", "0.2",
        "--condition", "hcv", "--seed", "3",
    )
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 51


def test_synth_random_prevalence_defaults_to_0_1(tmp_path, capsys):
    assert run(capsys, "synth", str(tmp_path / "r.csv"), "--n", "50", "--seed", "2")[0] == 0
    expected = tmp_path / "expected.csv"
    write_cohort_file(synthesize_random(50, 0.1, {1: 0.5, 32: 0.2, 37: 0.2, 45: 0.1}, seed=2),
                      expected)
    assert (tmp_path / "r.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("flag, value", [("--condition", "hcv"), ("--prevalence", "0.1")])
def test_synth_preset_rejects_random_cohort_flags(tmp_path, capsys, flag, value):
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "synth", str(out_path), "--preset", "figS1-hbv", flag, value)
    assert code == 1 and out == "" and not out_path.exists()
    assert err.splitlines() == ["error: --condition and --prevalence apply only with --n"]


@pytest.mark.parametrize("size, message", [
    (("--n", "-1"), "error: n must be >= 0"),
    (("--n", "5", "--prevalence", "1.5"), "error: prevalence must be in [0,1]"),
])
def test_synth_random_bad_size_or_prevalence_is_exit_1(tmp_path, capsys, size, message):
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "synth", str(out_path), *size)
    assert code == 1 and out == "" and not out_path.exists()
    assert err.splitlines() == [message]


def test_cutoff_flags(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    cohort.write_text(
        "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
        "r1,38,M,Known Hep B,2.0,,\n",
        encoding="utf-8",
    )
    outdir = tmp_path / "o"
    run(capsys, "evaluate", str(cohort), "--condition", "hbv", "--outdir", str(outdir),
        "--hbsag-cutoff", "5.0")
    payload = json.loads((outdir / "report.json").read_text())
    # 2.0 < 5.0, so the known-positive note becomes a false positive
    assert payload["primary"]["counts"] == {"tp": 0, "fp": 1, "fn": 0, "tn": 0}


@pytest.mark.parametrize("flag,value", [("--hbsag-cutoff", "nan"), ("--anti-hcv-cutoff", "inf")])
def test_non_finite_cutoff_is_exit_1(tmp_path, capsys, flag, value):
    cohort = tmp_path / "c.csv"
    run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")
    code, _, err = run(capsys, "evaluate", str(cohort), "--condition", "hbv",
                       "--outdir", str(tmp_path / "o"), flag, value)
    assert code == 1
    assert "error: cutoffs must be finite and > 0" in err


def test_inputs_not_mutated(tmp_path, capsys):
    cohort = tmp_path / "cohort.csv"
    run(capsys, "synth", str(cohort), "--preset", "figS1-hbv", "--seed", "1")
    before = cohort.read_bytes()
    run(capsys, "evaluate", str(cohort), "--condition", "hbv", "--outdir", str(tmp_path / "o"))
    assert cohort.read_bytes() == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (("synth", "x.csv", "--preset", "nope"), "argument --preset: invalid choice: 'nope'"),
        (("evaluate", "c.csv"), "the following arguments are required: --condition"),
        (("synth", "x.csv", "--n", "abc"), "argument --n: invalid int value: 'abc'"),
        (("bogus",), "argument subcommand: invalid choice: 'bogus'"),
        (("synth", "x.csv"), "one of the arguments --preset --n is required"),
        (("synth", "x.csv", "--preset", "figS1-hbv", "--n", "500"),
         "argument --n: not allowed with argument --preset"),
    ],
    ids=["bad-choice", "missing-required", "bad-int", "unknown-subcommand", "synth-neither",
         "synth-both"],
)
def test_usage_error_is_exit_1(capsys, argv, message):
    # Exit 2 means an internal failure; a bad command line is an input error.
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: notedta")
    assert f"error: {message}" in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [("--help",), ("synth", "--help")])
def test_help_is_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: notedta")


# The names `notedta.cli` commands call through its module attributes (the
# benchmark traces them there); most are bound on first use.
_CALL_SITES = {
    "synthesize_exact": ("synth", "{d}/a.csv", "--preset", "figS1-hbv"),
    "synthesize_random": ("synth", "{d}/b.csv", "--n", "50", "--seed", "2"),
    "write_cohort_file": ("synth", "{d}/c.csv", "--preset", "figS1-hbv"),
    "parse_cohort_file": ("evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/o"),
    "evaluate_condition": ("evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/o"),
    "emit_report": ("report", "{d}/out/report.json"),
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
