"""End-to-end evaluation: notes vs serology, per category.

For the target condition the test label is the note's statement/query
polarity; the control categories carry no hepatitis mention of their own,
so their test labels are simply the polarity label again (negative unless
the note also states the condition). Records whose note matches the
vaccination-response category are removed before analysis, mirroring the
source data; records missing the relevant marker are excluded per
category and counted.
"""

import csv
import io
import json
import math
from collections import namedtuple
from operator import attrgetter

from .classifier import VACCINATION_CATEGORY, Lexicon, NoteMemo, classify_note, default_lexicon
from .ingest import CohortSummary, summarize_demographics
from .metrics import (
    METRICS,
    CiConfig,
    ContingencyTable,
    MetricEstimate,
    build_contingency,
    compute_metrics,
    format_percent,
    format_percent_1dp,
    format_proportion,
)
from .model import Cohort, Condition, SerologyStatus, checked_make
from .serology import classify_marker

# The paper's control categories, evaluated alongside either condition.
CONTROL_CATEGORIES = (10, 16, 17, 22, 24, 26, 29, 31, 32, 37)

# Every (test label, marker status) pair the tally appends, built once so
# that the pair lists hold references to six shared tuples.
_PAIRS = {label: {status: (label, status) for status in SerologyStatus}
          for label in ("positive", "negative")}


class EvaluationConfig(namedtuple("EvaluationConfig", "target_condition exclude_vaccination "
                                                    "cutoff ci")):
    """cutoff: the target marker's, positive at >= it; None for the condition's default."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, target_condition: Condition, exclude_vaccination: bool = True,
                cutoff: float | None = None, ci: CiConfig = CiConfig()):
        if type(target_condition) is not Condition:
            raise ValueError(f"target_condition must be a Condition: {target_condition!r}")
        if type(exclude_vaccination) is not bool:
            raise ValueError(f"exclude_vaccination must be a bool: {exclude_vaccination!r}")
        # By exact type, as a bool is an int; `< inf` rules out nan and inf.
        if cutoff is not None and not (type(cutoff) in (int, float) and 0 < cutoff < math.inf):
            raise ValueError(f"cutoff must be finite and > 0: {cutoff!r}")
        if type(ci) is not CiConfig:
            raise ValueError(f"ci must be a CiConfig: {ci!r}")
        return tuple.__new__(cls, (target_condition, exclude_vaccination, cutoff, ci))


class CategoryResult(namedtuple("CategoryResult", "category_id label icd10_chapter "
                                                "n_missing_excluded n_vaccination_excluded "
                                                "table panel")):
    __slots__ = ()

    @property
    def n_evaluated(self) -> int:
        return self.table.n

    @property
    def percent_marker_positive(self) -> float | None:
        if self.n_evaluated == 0:
            return None
        return 100.0 * self.table.diseased / self.n_evaluated


class EvaluationResult(namedtuple("EvaluationResult", "condition primary controls summary "
                                                    "ci_level")):
    """ci_level: the confidence level of every interval in the panels."""

    __slots__ = ()


def evaluate_condition(
    cohort: Cohort, config: EvaluationConfig, lexicon: Lexicon | None = None
) -> EvaluationResult:
    """Classify each distinct note once, then tally per-category 2x2 tables in one pass.

    What a note adds to the tally is kept per distinct note text in a
    `NoteMemo`; a note the memo does not hold (one first seen after it
    filled, or a long one) is classified at each of its records.

    The reference to ``cohort`` is dropped once the tables and the
    demographic summary are built, before any interval is computed. A
    caller that keeps its own reference gets the same result, but its
    records stay in memory while the exact bounds load scipy.
    """
    lexicon = lexicon or default_lexicon()
    condition = config.target_condition
    hbv = condition is Condition.HEPATITIS_B
    cutoff = condition.default_cutoff if config.cutoff is None else config.cutoff
    exclude_vaccination = config.exclude_vaccination
    evaluated = (condition.category_id, *CONTROL_CATEGORIES)
    pairs: dict[int, list] = {cid: [] for cid in evaluated}
    n_vacc = {cid: 0 for cid in evaluated}

    def tally_row(note: str) -> tuple:
        """(evaluated category ids, excluded for vaccination, _PAIRS row) of a note."""
        cls = classify_note(note, lexicon)
        # A note has at most one match per category, so the evaluated
        # ones it matches can be listed without a set.
        cids = []
        vaccination = False
        for m in cls.all_matches:
            cid = m.category_id
            if cid in pairs:
                cids.append(cid)
            if cid == VACCINATION_CATEGORY:
                vaccination = True
        return (tuple(cids), vaccination and exclude_vaccination,
                _PAIRS[cls.hbv_label if hbv else cls.hcv_label])

    rows = NoteMemo(tally_row)
    for rec in cohort:
        cids, excluded, with_status = rows[rec.note_text]
        if excluded:
            for cid in cids:
                n_vacc[cid] += 1
            continue
        if not cids:
            continue
        pair = with_status[classify_marker(rec, condition, cutoff)]
        for cid in cids:
            pairs[cid].append(pair)
    del rows
    tables = {cid: build_contingency(pairs.pop(cid)) for cid in evaluated}
    summary = summarize_demographics(cohort)
    # The first exact bound loads numpy and scipy.special._ufuncs_cxx (about
    # 11 MB resident). Dropping the records first lets that import reuse
    # their memory, so the peak is the larger of the two phases rather than
    # their sum.
    del cohort

    def category_result(cid: int) -> CategoryResult:
        table, n_missing = tables[cid]
        rule = lexicon.rule(cid)
        return CategoryResult(
            category_id=cid,
            label=rule.label,
            icd10_chapter=rule.icd10_chapter,
            n_missing_excluded=n_missing,
            n_vaccination_excluded=n_vacc[cid],
            table=table,
            panel=compute_metrics(table, config.ci),
        )

    primary = category_result(condition.category_id)
    controls = tuple(category_result(cid) for cid in CONTROL_CATEGORIES)
    return EvaluationResult(condition, primary, controls, summary, config.ci.level)


# ---------------------------------------------------------------------------
# Report emission


def _with_ci(est: MetricEstimate, fmt, fmt_bound) -> str:
    """``fmt(value) (fmt_bound(low)-fmt_bound(high))``, without the interval if it has none."""
    if not est.defined:
        return "n.d."
    if est.ci_low is None:
        return fmt(est.value)
    return f"{fmt(est.value)} ({fmt_bound(est.ci_low)}-{fmt_bound(est.ci_high)})"


def _csv(rows) -> str:
    """`rows` as CSV text: csv writes None as an empty field and a float as its repr."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _panel_json(result: CategoryResult) -> dict:
    # Every estimate and bound is >= 0, so inf is the one value JSON cannot hold.
    return {
        "category_id": result.category_id,
        "label": result.label,
        "n_evaluated": result.n_evaluated,
        "n_missing_excluded": result.n_missing_excluded,
        "n_vaccination_excluded": result.n_vaccination_excluded,
        "counts": result.table._asdict(),
        "percent_marker_positive": result.percent_marker_positive,
        **{m: {**{k: "inf" if v == math.inf else v for k, v in e._asdict().items()},
               "display": format_proportion(e.value)}
           for m, e in zip(METRICS, result.panel)},
        "prevalence_sample": result.panel.prevalence_sample,
    }


def emit_report(result: EvaluationResult, format: str) -> str:
    """Render an evaluation as markdown, csv, or json.

    Markdown mirrors the reference table layout (percent metrics with CIs
    at ``result.ci_level``, 2-dp likelihood ratios); CSV and JSON carry
    full-precision values plus the raw counts so every number is
    reproducible. JSON stores ``ci_level`` only when it is not 0.95.
    """
    if format == "json":
        demographics = result.summary._asdict()
        del demographics["age_histogram"]
        payload = {
            "condition": result.condition.value,
            "marker": result.condition.marker_name,
            "demographics": demographics,
            "primary": _panel_json(result.primary),
            "controls": [_panel_json(c) for c in result.controls],
        }
        if result.ci_level != 0.95:  # default reports stay as they were
            payload["ci_level"] = result.ci_level
        return json.dumps(payload, indent=2)
    if format == "csv":
        return _csv([
            ["category_id", "label", "role", "n_evaluated", "n_missing_excluded",
             *ContingencyTable._fields, "percent_marker_positive",
             *(m + suffix for m in METRICS for suffix in ("", "_low", "_high"))],
            *([r.category_id, r.label, role, r.n_evaluated, r.n_missing_excluded, *r.table,
               r.percent_marker_positive,
               *(v for m in METRICS for v in getattr(r.panel, m)[:3])]
              for role, r in [("primary", result.primary),
                              *(("control", c) for c in result.controls)]),
        ])
    if format == "markdown":
        return _markdown_report(result)
    raise ValueError(f"unknown report format: {format!r}")


def _markdown_report(result: EvaluationResult) -> str:
    cond = result.condition
    p = result.primary
    ci = f"{100 * result.ci_level:g}% CI"
    sn, sp, ppv, npv = (_with_ci(getattr(p.panel, m), format_percent, format_percent_1dp)
                        for m in METRICS[:4])
    lr_pos, lr_neg = (_with_ci(getattr(p.panel, m), format_proportion, format_proportion)
                      for m in METRICS[4:])
    lines = [
        f"# Clinical-note diagnostic accuracy: {cond.marker_name}",
        "",
        f"Cohort: {result.summary.n_total} records; "
        f"category {p.category_id} evaluated n={p.n_evaluated} "
        f"(missing serology excluded: {p.n_missing_excluded}).",
        "",
        "## Primary category",
        "",
        f"| Clinical note | Sn (%) ({ci}) | Sp (%) ({ci}) | PPV (%) ({ci}) "
        f"| NPV (%) ({ci}) | LR+ | LR- |",
        "|---|---|---|---|---|---|---|",
        (
            f"| Category {p.category_id}: {p.label} "
            f"| {sn} | {sp} | {ppv} | {npv} | {lr_pos}* | {lr_neg}* |"
        ),
        "",
        "\\* Likelihood ratios are computed from raw counts; recomputing them "
        "from the 2-dp rounded Sn/Sp shown here gives slightly different "
        "point values.",
        "",
        f"Summary line: Sn {sn}, Sp {sp}.",
        "",
        "## Control categories",
        "",
        f"| ICD-10 | Category | % {cond.marker_name} positive | Sn (%) | Sp (%) | PPV (%) | NPV (%) |",
        "|---|---|---|---|---|---|---|",
    ]
    for c in result.controls:
        pmp = c.percent_marker_positive
        pmp_s = "n.d." if pmp is None else format_percent_1dp(pmp / 100.0)
        lines.append(
            f"| {c.icd10_chapter or '-'} | {c.label} | {pmp_s} "
            f"| {format_percent(c.panel.sn.value)} | {format_percent(c.panel.sp.value)} "
            f"| {format_percent(c.panel.ppv.value)} | {format_percent(c.panel.npv.value)} |"
        )
    lines.append("")
    lines.append("n.d. = not defined (zero denominator).")
    lines.append("")
    return "\n".join(lines)


def emit_plot_data(result: EvaluationResult) -> dict[str, str]:
    """Plot-ready CSV series (per-category Sn and Sp), ordered by id."""
    results = sorted((result.primary, *result.controls), key=attrgetter("category_id"))
    return {metric: _csv([["category_id", "label", metric],
                          *([r.category_id, r.label, getattr(r.panel, m).value] for r in results)])
            for metric, m in (("sensitivity", "sn"), ("specificity", "sp"))}


def emit_demographics_csv(summary: CohortSummary) -> str:
    """Plot-ready demographic data: per-decade age histogram + sex counts."""
    return _csv([
        ["kind", "key", "count"],
        *(["age_decade", f"{decade}-{decade + 9}", count]
          for decade, count in summary.age_histogram),
        ["sex", "male", summary.n_male],
        ["sex", "female", summary.n_female],
        ["sex", "unspecified", summary.n_unspecified],
    ])
