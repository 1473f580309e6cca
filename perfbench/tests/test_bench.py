"""Tests of the benchmark's own pieces: corpus, output checks and trace coverage.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from pathlib import Path

import pytest

import checks
import corpus
import tracing
from workloads import Step

LEXICON = (Path(__file__).resolve().parents[2] / "src" / "notedta" / "data"
           / "default_lexicon.txt").read_text("utf-8")


def corpus_sha(seed: int, n: int) -> str:
    return checks.sha256("\n".join(corpus.distinct_notes(seed, n, LEXICON)).encode())


def test_same_seed_gives_same_corpus_sha256():
    assert corpus_sha(11, 800) == corpus_sha(11, 800)
    assert corpus_sha(11, 800) != corpus_sha(12, 800)


def test_corpus_notes_are_distinct_and_cover_every_category():
    from notedta.classifier import classify_note, default_lexicon

    n = 1500
    notes = corpus.distinct_notes(3, n, LEXICON)
    assert len(set(notes)) == n
    lexicon = default_lexicon()
    winners, matched = set(), set()
    for note in notes:
        c = classify_note(note, lexicon)
        winners.add(c.category_id)
        matched.update(m.category_id for m in c.all_matches)
    assert matched | winners == set(range(1, 47))
    assert {45, 46} <= winners  # empty and unmatched notes


def evaluate_step(tmp_path) -> Step:
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("record_id,note_text\nr1,Hep B\nr2,?Hep B\n", encoding="utf-8")
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name in checks.EVALUATE_FILES:
        (outdir / name).write_text(f"{name} contents\n", encoding="utf-8")
    return Step("bulk.evaluate", "evaluate", [], cohort, condition="hbv", outdir=outdir)


def inspected(step, rc=0, stdout=b"") -> checks.Outcome:
    outcome = checks.Outcome(step.key, step.kind)
    checks.inspect(step, rc, stdout, outcome)
    return outcome


def test_untampered_outputs_pass(tmp_path):
    step = evaluate_step(tmp_path)
    first = inspected(step)
    assert first.problems == [] and first.count == 2
    second = inspected(step)
    checks.compare([first, second], {})
    assert second.problems == []


def test_tampered_output_is_a_failed_operation(tmp_path):
    step = evaluate_step(tmp_path)
    expected = {f"{step.key}/{k}": d for k, d in inspected(step).digests.items()}
    (step.outdir / "report.md").write_text("tampered\n", encoding="utf-8")
    outcome = inspected(step)
    checks.compare([outcome], expected)
    assert len(outcome.problems) == 1 and "report.md" in outcome.problems[0]


def test_nonzero_exit_and_missing_classify_lines_are_failures(tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("Hep B\n?Hep C\n", encoding="utf-8")
    step = Step("x.classify", "classify", [], notes)
    assert inspected(step, rc=1).problems == ["x.classify: exit code 1"]
    assert "1 lines for 2 notes" in inspected(step, stdout=b"1\tpositive\tnegative\thepatitis-b\n").problems[0]


def test_trace_with_an_uncalled_site_fails_loudly():
    with pytest.raises(tracing.TraceError, match="notedta.evaluate.classify_note"):
        tracing.check_coverage([])
