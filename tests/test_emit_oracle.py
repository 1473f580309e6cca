"""Differential test: the report emitters against the ones they replaced.

`_oracle_panel_json`, `_oracle_emit_report`, `_oracle_emit_plot_data` and
`_oracle_emit_demographics_csv` are copies of the emitters as they were
before they were built from the value types' own fields through one csv
helper. Only their names are changed, and the old plot emitter's call of
`EvaluationResult.all_results()`, since deleted, is written out. The
markdown renderer was kept, so the old `emit_report` reaches it through
the library. Every file that `notedta evaluate` writes must be the same
string on both sides, over small hand-built cohorts that reach infinite
likelihood ratios and undefined (`n.d.`) metrics.
"""

import csv
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from notedta import evaluate
from notedta.evaluate import (
    CategoryResult,
    EvaluationConfig,
    EvaluationResult,
    emit_demographics_csv,
    emit_plot_data,
    emit_report,
    evaluate_condition,
)
from notedta.ingest import CohortSummary
from notedta.metrics import METRICS, CiConfig, MetricEstimate, format_proportion
from notedta.model import Cohort, Condition, PathologyRecord, Sex


def _oracle_panel_json(result: CategoryResult) -> dict:
    def est(e: MetricEstimate) -> dict:
        def num(v):
            if v is None:
                return None
            return "inf" if math.isinf(v) else v

        return {
            "value": num(e.value),
            "ci_low": num(e.ci_low),
            "ci_high": num(e.ci_high),
            "method": e.method,
            "note": e.note,
            "display": format_proportion(e.value),
        }

    p = result.panel
    return {
        "category_id": result.category_id,
        "label": result.label,
        "n_evaluated": result.n_evaluated,
        "n_missing_excluded": result.n_missing_excluded,
        "n_vaccination_excluded": result.n_vaccination_excluded,
        "counts": {
            "tp": result.table.tp,
            "fp": result.table.fp,
            "fn": result.table.fn,
            "tn": result.table.tn,
        },
        "percent_marker_positive": result.percent_marker_positive,
        **{m: est(getattr(p, m)) for m in METRICS},
        "prevalence_sample": p.prevalence_sample,
    }


def _oracle_emit_report(result: EvaluationResult, format: str) -> str:
    if format == "json":
        payload = {
            "condition": result.condition.value,
            "marker": result.condition.marker_name,
            "demographics": {  # every summary field but the age histogram
                name: value for name, value in zip(CohortSummary._fields, result.summary)
                if name != "age_histogram"
            },
            "primary": _oracle_panel_json(result.primary),
            "controls": [_oracle_panel_json(c) for c in result.controls],
        }
        if result.ci_level != 0.95:  # default reports stay as they were
            payload["ci_level"] = result.ci_level
        return json.dumps(payload, indent=2)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "category_id", "label", "role", "n_evaluated", "n_missing_excluded",
                "tp", "fp", "fn", "tn", "percent_marker_positive",
                *(m + suffix for m in METRICS for suffix in ("", "_low", "_high")),
            ]
        )
        for role, res in [("primary", result.primary)] + [("control", c) for c in result.controls]:
            row = [
                res.category_id, res.label, role, res.n_evaluated, res.n_missing_excluded,
                res.table.tp, res.table.fp, res.table.fn, res.table.tn,
                res.percent_marker_positive,
            ]
            for m in METRICS:
                e = getattr(res.panel, m)
                row.extend(v if v is not None else "" for v in (e.value, e.ci_low, e.ci_high))
            writer.writerow(row)
        return buf.getvalue()
    if format == "markdown":
        return evaluate._markdown_report(result)
    raise ValueError(f"unknown report format: {format!r}")


def _oracle_emit_plot_data(result: EvaluationResult) -> dict[str, str]:
    out = {}
    for metric in ("sensitivity", "specificity"):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["category_id", "label", metric])
        for res in sorted((result.primary, *result.controls), key=lambda r: r.category_id):
            est = res.panel.sn if metric == "sensitivity" else res.panel.sp
            writer.writerow(
                [res.category_id, res.label, "" if est.value is None else est.value]
            )
        out[metric] = buf.getvalue()
    return out


def _oracle_emit_demographics_csv(summary: CohortSummary) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "key", "count"])
    for decade, count in summary.age_histogram:
        writer.writerow(["age_decade", f"{decade}-{decade + 9}", count])
    writer.writerow(["sex", "male", summary.n_male])
    writer.writerow(["sex", "female", summary.n_female])
    writer.writerow(["sex", "unspecified", summary.n_unspecified])
    return buf.getvalue()


def _files(result, report, plot_data, demographics_csv) -> dict[str, str]:
    """The six files of `notedta evaluate`, by name, as the given emitters render them."""
    plots = plot_data(result)
    return {
        "report.md": report(result, "markdown"),
        "report.csv": report(result, "csv"),
        "report.json": report(result, "json"),
        "plotdata_sensitivity.csv": plots["sensitivity"],
        "plotdata_specificity.csv": plots["specificity"],
        "demographics.csv": demographics_csv(result.summary),
    }


# Statements and queries of either condition, a vaccination note beside
# the hepatitis B category, notes in several evaluated categories, single
# control categories, and notes that match no category.
_NOTES = [
    "Known Hep B", "Hep B Pos", "?Hep B", "Known Hep C", "Hep C Pos", "?Hep C",
    "Possible Hep C", "Known Hep B and Hep C", "Hep B, fatigue",
    "check response to Hep B vaccination", "Fatigue", "Depression", "Arthritis",
    "Alcohol abuse", "Neutropaenia", "lethargy and deranged LFTs", "work screening",
    "routine bloods", "",
]
# Each marker is missing, below both default cutoffs, or above them.
_MARKERS = [None, 0.0, 5.0]
_RECORD = st.tuples(st.sampled_from(_NOTES), st.sampled_from(_MARKERS),
                    st.sampled_from(_MARKERS), st.none() | st.integers(0, 130),
                    st.sampled_from(Sex))

# For either condition, one statement with its marker on and one query
# with it off: tp = tn = 1 and fp = 0, so LR+ is infinite, and every control
# category is empty, so its metrics are n.d.
_INFINITE_LR = {
    condition: [(statement, 5.0, 5.0, 40, Sex.MALE), (query, 0.0, 0.0, None, Sex.UNSPECIFIED)]
    for condition, statement, query in ((Condition.HEPATITIS_B, "Known Hep B", "?Hep B"),
                                        (Condition.HEPATITIS_C, "Known Hep C", "?Hep C"))
}


def _result(rows, condition, method, level) -> EvaluationResult:
    cohort = Cohort(tuple(
        PathologyRecord(f"r{i}", age=age, sex=sex, note_text=note, hbsag_iu=hbsag,
                        anti_hcv_iu=anti_hcv)
        for i, (note, hbsag, anti_hcv, age, sex) in enumerate(rows)
    ))
    config = EvaluationConfig(condition, ci=CiConfig(level, method))
    return evaluate_condition(cohort, config)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_RECORD, min_size=1, max_size=30),
       condition=st.sampled_from(Condition),
       method=st.sampled_from(["score", "exact"]),
       level=st.sampled_from([0.9, 0.95]))
@example(_INFINITE_LR[Condition.HEPATITIS_B], Condition.HEPATITIS_B, "exact", 0.95)
@example(_INFINITE_LR[Condition.HEPATITIS_C], Condition.HEPATITIS_C, "score", 0.9)
def test_every_report_file_matches_the_emitters_it_replaced(rows, condition, method, level):
    result = _result(rows, condition, method, level)
    got = _files(result, emit_report, emit_plot_data, emit_demographics_csv)
    expected = _files(result, _oracle_emit_report, _oracle_emit_plot_data,
                      _oracle_emit_demographics_csv)
    assert got == expected


def test_the_pinned_examples_reach_an_infinite_lr_and_undefined_metrics():
    for condition, rows in _INFINITE_LR.items():
        result = _result(rows, condition, "score", 0.95)
        assert result.primary.table == (1, 0, 0, 1)
        assert result.primary.panel.lr_pos.value == math.inf
        assert '"value": "inf"' in emit_report(result, "json")
        assert "| +inf* |" in emit_report(result, "markdown")
        assert all(c.panel.sn.value is None for c in result.controls)
        assert "n.d." in emit_report(result, "markdown")
