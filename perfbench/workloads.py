"""The notedta command sequence each workload runs.

Each workload is a list of `Step`s run in order, one CLI command each. A
step's `prepare` builds its input file from earlier outputs; the benchmark
runs it untimed, between commands.

- `bulk-lowcard`: a large random cohort whose notes come from 15 short
  phrases. Classification dominates and every note repeats, so a memo cache
  would show its full effect here; synth (write) and evaluate (parse) put
  both directions of the CSV layer side by side.
- `distinct-notes`: a cohort whose notes are all distinct and about ten
  tokens long (see `corpus`), so matcher cost scales with tokens times
  patterns and no cache can help. Evaluate (batch) and classify (stream)
  use the classifier in two ways.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus

TOUR_PRESET, TOUR_N = "figS1-hbv", 241
BULK_N = 10_000
BULK_PREVALENCE = "0.2"
DISTINCT_N = 3_000
DISTINCT_PREVALENCE = "0.3"
NAMES = ("bulk-lowcard", "distinct-notes")


@dataclass
class Step:
    key: str  # unique within a workload, e.g. "bulk.evaluate"
    kind: str  # "synth", "evaluate" or "classify"
    argv: list[str]  # arguments to `notedta`
    path: Path  # synth output; evaluate or classify input
    n: int | None = None  # records synth must write
    condition: str | None = None  # evaluate: "hbv" or "hcv"
    outdir: Path | None = None  # evaluate
    prepare: Callable[[], None] | None = None


def _synth(key, path, n, *options) -> Step:
    return Step(key, "synth", ["synth", str(path), *options], path, n=n)


def _evaluate(key, cohort, condition, outdir) -> Step:
    argv = ["evaluate", str(cohort), "--condition", condition, "--outdir", str(outdir)]
    return Step(key, "evaluate", argv, cohort, condition=condition, outdir=outdir)


def _classify(key, cohort, notes_path) -> Step:
    return Step(key, "classify", ["classify", str(notes_path)], notes_path,
                prepare=lambda: write_notes(read_notes(cohort), notes_path))


def read_notes(cohort: Path) -> list[str]:
    """The note_text column of a cohort CSV."""
    with open(cohort, newline="", encoding="utf-8") as fh:
        return [row["note_text"] for row in csv.DictReader(fh)]


def write_notes(notes: list[str], path: Path) -> None:
    path.write_text("".join(note + "\n" for note in notes), encoding="utf-8")


def replace_notes(skeleton: Path, notes: list[str], cohort: Path) -> None:
    """Copy a cohort CSV, putting `notes` into its note_text column."""
    with open(skeleton, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) - 1 != len(notes):
        raise ValueError(f"{skeleton}: {len(rows) - 1} records, expected {len(notes)}")
    column = rows[0].index("note_text")
    for row, note in zip(rows[1:], notes):
        row[column] = note
    with open(cohort, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def steps(name: str, seed: int, work: Path, lexicon_text: str) -> list[Step]:
    """The command sequence of workload `name`, writing under `work`."""
    s = str(seed)
    if name == "bulk-lowcard":
        cohort = work / "bulk.csv"
        return [
            _synth("bulk.synth", cohort, BULK_N, "--n", str(BULK_N), "--prevalence",
                   BULK_PREVALENCE, "--condition", "hbv", "--seed", s),
            _evaluate("bulk.evaluate", cohort, "hbv", work / "bulk-out"),
            _classify("bulk.classify", cohort, work / "bulk-notes.txt"),
        ]
    if name == "distinct-notes":
        # synth supplies ids, demographics and serology; every note is then
        # replaced by one from the benchmark's own generator.
        skeleton, cohort = work / "skeleton.csv", work / "distinct.csv"
        notes = corpus.distinct_notes(seed, DISTINCT_N, lexicon_text)
        evaluate = _evaluate("distinct.evaluate", cohort, "hcv", work / "distinct-out")
        evaluate.prepare = lambda: replace_notes(skeleton, notes, cohort)
        return [
            _synth("distinct.synth", skeleton, DISTINCT_N, "--n", str(DISTINCT_N),
                   "--prevalence", DISTINCT_PREVALENCE, "--condition", "hcv", "--seed", s),
            evaluate,
            _classify("distinct.classify", cohort, work / "distinct-notes.txt"),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def tour(seed: int, work: Path) -> list[Step]:
    """An extra traced command that reaches `synthesize_exact`.

    Every wrapped function must record calls in every traced run, and the
    workloads themselves synthesize only with `synthesize_random`.
    """
    return [_synth("tour.synth", work / "tour.csv", TOUR_N, "--preset", TOUR_PRESET,
                   "--seed", str(seed))]
