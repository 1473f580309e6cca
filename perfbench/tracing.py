"""Spans around notedta's public functions, recorded from outside the package.

`installed` replaces every name in `SITES`, in the namespace of the module
that calls it, with a wrapper that records a `Span`. Spans nest on a stack,
so a span's self time is its duration minus the time of the spans it
caused. The wrappers are removed again on exit.

A site that records no call fails the traced run: a later change that
inlines or renames a traced function must show here, not read as 0 us.
"""

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


class TraceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Span:
    site: str  # the wrapped reference, e.g. "notedta.evaluate.classify_note"
    layer: str  # the function it times, e.g. "classifier.classify_note"
    parent: str | None  # layer of the enclosing span
    start_ns: int
    end_ns: int
    self_ns: int
    items: int  # records, pairs, tokens or matches the call handled
    note: str | None  # the note text, for classify_note
    request: int  # numbers the outermost span, shared by the spans it causes

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


def _result_len(args, result) -> int:
    return len(result)


def _first_arg_len(args, result) -> int:
    return len(args[0])


def _matches(args, result) -> int:
    return len(result.all_matches)


# (calling module, name there, layer, items counter)
SITES = (
    ("notedta.cli", "main", "cli.main", None),
    ("notedta.cli", "default_lexicon", "classifier.default_lexicon", None),
    ("notedta.cli", "classify_note", "classifier.classify_note", _matches),
    ("notedta.cli", "parse_cohort_file", "ingest.parse_cohort_file", _result_len),
    ("notedta.cli", "write_cohort_file", "ingest.write_cohort_file", _first_arg_len),
    ("notedta.cli", "synthesize_exact", "synth.synthesize_exact", _result_len),
    ("notedta.cli", "synthesize_random", "synth.synthesize_random", _result_len),
    ("notedta.cli", "evaluate_condition", "evaluate.evaluate_condition", _first_arg_len),
    ("notedta.cli", "emit_report", "evaluate.emit_report", None),
    ("notedta.cli", "emit_plot_data", "evaluate.emit_plot_data", None),
    ("notedta.cli", "emit_demographics_csv", "evaluate.emit_demographics_csv", None),
    ("notedta.evaluate", "classify_note", "classifier.classify_note", _matches),
    ("notedta.evaluate", "classify_marker", "serology.classify_marker", None),
    ("notedta.evaluate", "build_contingency", "metrics.build_contingency", _first_arg_len),
    ("notedta.evaluate", "compute_metrics", "metrics.compute_metrics", None),
    ("notedta.evaluate", "summarize_demographics", "ingest.summarize_demographics", None),
    ("notedta.classifier", "normalize_note", "classifier.normalize_note", _result_len),
    ("notedta.ingest", "Cohort", "model.Cohort", _result_len),
    ("notedta.synth", "Cohort", "model.Cohort", _result_len),
    ("notedta.synth", "default_lexicon", "classifier.default_lexicon", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.requests = 0
        self._stack: list[list] = []  # [layer, ns spent in child spans, request]

    def wrap(self, site: str, layer: str, fn, items):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        keep_note = layer == "classifier.classify_note"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self.requests += 1
            frame = [layer, 0, parent[2] if parent else self.requests]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(Span(
                site, layer, parent and parent[0], start, end, end - start - frame[1],
                items(args, result) if items else 1, args[0] if keep_note else None, frame[2],
            ))
            if parent is not None:
                # charge this span's bookkeeping to it, not to the parent's self time
                parent[1] += clock() - start
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every site for the duration of the block."""
    restore = []
    try:
        for module_name, name, layer, items in SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, name):
                raise TraceError(f"cannot trace {module_name}.{name}: no such name")
            original = getattr(module, name)
            restore.append((module, name, original))
            setattr(module, name, tracer.wrap(f"{module_name}.{name}", layer, original, items))
        yield tracer
    finally:
        for module, name, original in reversed(restore):
            setattr(module, name, original)


def check_coverage(spans: list[Span]) -> None:
    """Raise if any wrapped site recorded no call."""
    called = {s.site for s in spans}
    idle = [f"{m}.{n}" for m, n, _, _ in SITES if f"{m}.{n}" not in called]
    if idle:
        raise TraceError(f"traced sites recorded no calls: {', '.join(idle)}")


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `passes` traced passes.

    `.calls` metrics are calls per pass. `distinct_note_ratio` counts
    distinct notes within each command: it is the share of classify_note
    calls that a memo cache inside one process could not serve.
    """
    check_coverage(spans)
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.layer].append(s)

    def median(layer, scale, field="ns"):
        return statistics.median(getattr(s, field) for s in by[layer]) / scale

    def per_item(layer, scale):
        return sum(s.ns for s in by[layer]) / sum(s.items for s in by[layer]) / scale

    def calls(layer):
        return len(by[layer]) / passes

    notes = by["classifier.classify_note"]
    note_durations = sorted(s.ns for s in notes)
    normalize_in_note = [s for s in by["classifier.normalize_note"]
                         if s.parent == "classifier.classify_note"]
    emit_ns = sum(s.ns for layer in ("evaluate.emit_report", "evaluate.emit_plot_data",
                                     "evaluate.emit_demographics_csv") for s in by[layer])
    evaluations = by["evaluate.evaluate_condition"]
    return {
        "classifier.default_lexicon_ms": (median("classifier.default_lexicon", 1e6), "ms"),
        "classifier.default_lexicon.calls": (calls("classifier.default_lexicon"), "count"),
        "classifier.classify_note_p50_us": (statistics.median(note_durations) / 1e3, "us"),
        "classifier.classify_note_p99_us": (
            statistics.quantiles(note_durations, n=100)[98] / 1e3, "us"),
        "classifier.classify_note.calls": (calls("classifier.classify_note"), "count"),
        "classifier.normalize_note_us": (
            statistics.median(s.ns for s in normalize_in_note) / 1e3, "us"),
        "classifier.match_self_us": (median("classifier.classify_note", 1e3, "self_ns"), "us"),
        "classifier.distinct_note_ratio": (
            len({(s.request, s.note) for s in notes}) / len(notes), "ratio"),
        "classifier.tokens_per_note": (
            statistics.fmean(s.items for s in normalize_in_note), "count"),
        "classifier.matches_per_note": (statistics.fmean(s.items for s in notes), "count"),
        "ingest.parse_cohort_file_us_per_record": (per_item("ingest.parse_cohort_file", 1e3), "us"),
        "ingest.summarize_demographics_ms": (median("ingest.summarize_demographics", 1e6), "ms"),
        "ingest.write_cohort_file_us_per_record": (per_item("ingest.write_cohort_file", 1e3), "us"),
        "synth.synthesize_random_us_per_record": (
            per_item("synth.synthesize_random", 1e3), "us"),
        "synth.synthesize_exact_ms": (median("synth.synthesize_exact", 1e6), "ms"),
        "model.cohort_us_per_record": (per_item("model.Cohort", 1e3), "us"),
        "serology.classify_marker_us": (median("serology.classify_marker", 1e3), "us"),
        "serology.classify_marker.calls": (calls("serology.classify_marker"), "count"),
        "metrics.build_contingency_us_per_pair": (per_item("metrics.build_contingency", 1e3), "us"),
        "metrics.compute_metrics_us": (median("metrics.compute_metrics", 1e3), "us"),
        "metrics.compute_metrics.calls": (calls("metrics.compute_metrics"), "count"),
        "evaluate.emit_ms": (emit_ns / len(evaluations) / 1e6, "ms"),
        "evaluate.tally_self_s": (sum(s.self_ns for s in evaluations) / passes / 1e9, "s"),
    }
