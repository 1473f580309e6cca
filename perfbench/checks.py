"""Output checks. A failed check marks its command as a failed operation.

Each command's outputs are checked twice:

- at once, by `inspect`: exit code, record counts and, for classify, one
  output line per note;
- after the run, by `compare`: every output's sha256 against the expected
  digest. For the default seed those are recorded in `expected_seed0.json`;
  for any other seed they come from `reference_digests`, which runs the
  same inputs through the library in-process. Outputs with no expected
  digest must be the same on every repetition.
"""

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from workloads import read_notes

EVALUATE_FILES = (
    "report.md", "report.csv", "report.json",
    "plotdata_sensitivity.csv", "plotdata_specificity.csv", "demographics.csv",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_lines(path: Path) -> list[str]:
    """Lines of a notes file as `notedta classify` reads them."""
    lines = path.read_text("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def count_rows(cohort: Path) -> int:
    with open(cohort, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


@dataclass
class Outcome:
    """One command as run: its cost, its output digests and what went wrong."""
    key: str
    kind: str
    wall_s: float = 0.0
    rss_kb: int = 0
    count: int = 0  # records written or read, or notes classified
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def inspect(step, rc: int, stdout: bytes, outcome: Outcome) -> None:
    """Count the step's records, digest its outputs and run the direct checks."""
    if rc != 0:
        outcome.problems.append(f"{step.key}: exit code {rc}")
        return
    try:
        _inspect(step, stdout, outcome)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as err:
        outcome.problems.append(f"{step.key}: unreadable output: {err!r}")


def _inspect(step, stdout: bytes, outcome: Outcome) -> None:
    problems = outcome.problems
    if step.kind == "synth":
        outcome.count = count_rows(step.path)
        if outcome.count != step.n:
            problems.append(f"{step.key}: {outcome.count} records, expected {step.n}")
        if f"{outcome.count} records written".encode() not in stdout:
            problems.append(f"{step.key}: summary line missing from stdout")
        outcome.digests["csv"] = sha256(step.path.read_bytes())
    elif step.kind == "evaluate":
        outcome.count = count_rows(step.path)
        for name in EVALUATE_FILES:
            outcome.digests[name] = sha256((step.outdir / name).read_bytes())
    elif step.kind == "classify":
        outcome.count = len(read_lines(step.path))
        n_lines = stdout.count(b"\n")
        if n_lines != outcome.count:
            problems.append(f"{step.key}: {n_lines} lines for {outcome.count} notes")
        outcome.digests["stdout"] = sha256(stdout)
    else:
        raise ValueError(f"unknown step kind {step.kind!r}")


def compare(outcomes: list[Outcome], expected: dict[str, str]) -> None:
    """Check every digest against `expected`; unknown keys must repeat exactly."""
    seen = dict(expected)
    for outcome in outcomes:
        for name, digest in outcome.digests.items():
            key = f"{outcome.key}/{name}"
            if seen.setdefault(key, digest) != digest:
                outcome.problems.append(
                    f"{key}: sha256 {digest[:12]} differs from expected {seen[key][:12]}")


def evaluation_config(condition: str):
    """The configuration `notedta evaluate --condition <condition>` uses by default."""
    from notedta.evaluate import EvaluationConfig
    from notedta.model import Condition

    target = {"hbv": Condition.HEPATITIS_B, "hcv": Condition.HEPATITIS_C}[condition]
    return EvaluationConfig(target_condition=target)


def reference_digests(steps) -> dict[str, str]:
    """Expected digests of evaluate and classify outputs, computed in-process.

    Needs `notedta` importable; runs the library on the same input files.
    """
    from notedta.classifier import classify_note, default_lexicon
    from notedta.evaluate import emit_demographics_csv, emit_plot_data, emit_report, evaluate_condition
    from notedta.ingest import parse_cohort_file

    lexicon = default_lexicon()
    out: dict[str, str] = {}
    for step in steps:
        if step.kind == "evaluate":
            config = evaluation_config(step.condition)
            result = evaluate_condition(parse_cohort_file(step.path), config, lexicon)
            plots = emit_plot_data(result)
            texts = {
                "report.md": emit_report(result, "markdown"),
                "report.csv": emit_report(result, "csv"),
                "report.json": emit_report(result, "json"),
                "plotdata_sensitivity.csv": plots["sensitivity"],
                "plotdata_specificity.csv": plots["specificity"],
                "demographics.csv": emit_demographics_csv(result.summary),
            }
            out.update({f"{step.key}/{k}": sha256(v.encode("utf-8")) for k, v in texts.items()})
        elif step.kind == "classify":
            notes = read_lines(step.path)
            rendered = {}  # classify_note is deterministic, so each distinct note once
            for note in set(notes):
                c = classify_note(note, lexicon)
                rendered[note] = f"{c.category_id}\t{c.hbv_label}\t{c.hcv_label}\t{c.matched_pattern}\n"
            out[f"{step.key}/stdout"] = sha256("".join(map(rendered.get, notes)).encode("utf-8"))
    return out


def describe_input(path: Path) -> dict:
    """Record count, distinct-note count and sha256 of a cohort CSV or notes file."""
    notes = read_notes(path) if path.suffix == ".csv" else read_lines(path)
    return {
        "file": path.name,
        "records": len(notes),
        "distinct_notes": len(set(notes)),
        "sha256": sha256(path.read_bytes()),
    }
