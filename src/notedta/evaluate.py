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

from .classifier import (
    VACCINATION_CATEGORY,
    Lexicon,
    classify_note,
    default_lexicon,
)
from .ingest import CohortSummary, summarize_demographics
from .metrics import (
    METRICS,
    CiConfig,
    ContingencyTable,
    MetricEstimate,
    MetricPanel,
    build_contingency,
    compute_metrics,
    format_percent,
    format_percent_1dp,
    format_proportion,
)
from .model import Cohort, Condition, SerologyStatus
from .serology import SerologyThresholds, classify_marker

# The paper's control categories, evaluated alongside either condition.
CONTROL_CATEGORIES = (10, 16, 17, 22, 24, 26, 29, 31, 32, 37)

# Every (test label, marker status) pair the tally appends, built once so
# that the pair lists hold references to six shared tuples.
_PAIRS = {(label, status): (label, status)
          for label in ("positive", "negative") for status in SerologyStatus}


class EvaluationConfig(namedtuple("EvaluationConfig", "target_condition exclude_vaccination "
                                                    "thresholds ci",
                                   defaults=(True, SerologyThresholds(), CiConfig()))):
    __slots__ = ()


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
                                                    "ci_level", defaults=(0.95,))):
    """ci_level: the confidence level of every interval in the panels."""

    __slots__ = ()

    def all_results(self) -> tuple[CategoryResult, ...]:
        return (self.primary, *self.controls)

    @classmethod
    def from_json(cls, text: str, lexicon: Lexicon) -> "EvaluationResult":
        """Inverse of ``emit_report(result, "json")``.

        The JSON stores no ICD-10 chapters, so they come from ``lexicon``,
        whose labels must match the stored ones. The JSON stores no age
        histogram either, so the summary's is None. The category blocks must
        be the evaluated set: the condition's own category first, then
        ``CONTROL_CATEGORIES`` in order, each once.
        """
        payload = json.loads(text)
        try:
            summary = CohortSummary(**{k: _stored(v, f"demographics {k}", count=k.startswith("n_"))
                                       for k, v in payload["demographics"].items()})
            condition = Condition(payload["condition"])
            primary = _panel_from_json(payload["primary"], lexicon)
            controls = tuple(_panel_from_json(c, lexicon) for c in payload["controls"])
            if primary.category_id != condition.category_id:
                raise ValueError(
                    f"malformed report: primary category {primary.category_id} is not "
                    f"{condition.value}'s category {condition.category_id}"
                )
            ids = tuple(c.category_id for c in controls)
            if ids != CONTROL_CATEGORIES:
                raise ValueError(
                    f"malformed report: control categories {list(ids)} are not "
                    f"{list(CONTROL_CATEGORIES)}, in that order"
                )
            return cls(condition, primary, controls, summary,
                       CiConfig(payload.get("ci_level", 0.95)).level)  # checks a stored level
        except KeyError as err:
            raise ValueError(f"malformed report: missing or unknown key {err}") from err
        except (AttributeError, TypeError) as err:  # a list or number where a dict belongs
            raise ValueError(f"malformed report: {err}") from err


def evaluate_condition(
    cohort: Cohort, config: EvaluationConfig, lexicon: Lexicon | None = None
) -> EvaluationResult:
    """Classify every note once, then tally per-category 2x2 tables in one pass.

    The reference to ``cohort`` is dropped once the tables and the
    demographic summary are built, before any interval is computed. A
    caller that keeps its own reference gets the same result, but its
    records stay in memory while the exact bounds load scipy.
    """
    lexicon = lexicon or default_lexicon()
    condition = config.target_condition
    evaluated = (condition.category_id, *CONTROL_CATEGORIES)
    pairs: dict[int, list] = {cid: [] for cid in evaluated}
    n_vacc = {cid: 0 for cid in evaluated}
    for rec in cohort:
        cls = classify_note(rec.note_text, lexicon)
        member_ids = {m.category_id for m in cls.all_matches}
        cids = member_ids.intersection(pairs)
        if config.exclude_vaccination and VACCINATION_CATEGORY in member_ids:
            for cid in cids:
                n_vacc[cid] += 1
            continue
        if not cids:
            continue
        label = cls.hbv_label if condition is Condition.HEPATITIS_B else cls.hcv_label
        pair = _PAIRS[label, classify_marker(rec, condition, config.thresholds)]
        for cid in cids:
            pairs[cid].append(pair)
    tables = {cid: build_contingency(pairs.pop(cid)) for cid in evaluated}
    summary = summarize_demographics(cohort)
    # The first exact bound loads numpy and scipy's ufuncs (~19 MB). Dropping
    # the records first lets that import reuse their memory, so the peak is
    # the larger of the two phases rather than their sum.
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


def _panel_json(result: CategoryResult) -> dict:
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


def _stored(value, where: str, count: bool = False):
    """A stored count (an int >= 0) or number (a finite int or float, None, or
    "inf", the only way to store infinity). A bool is neither."""
    if not count and value == "inf":
        return math.inf
    if not count and value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, int if count else (int, float))
            or not (value >= 0 if count else math.isfinite(value))):
        kind = "count" if count else "number"
        raise ValueError(f"malformed report: {where}: {value!r} is not a {kind}")
    return value


def _panel_from_json(block: dict, lexicon: Lexicon) -> CategoryResult:
    # A count rules out true (category 1 to `rule`) and 10.0 (category 10).
    rule = lexicon.rule(_stored(block["category_id"], "category_id", count=True))
    where = f"category {rule.category_id}"

    def est(m: str) -> MetricEstimate:
        d = block[m]
        numbers = (_stored(d[k], f"{where} {m}.{k}") for k in ("value", "ci_low", "ci_high"))
        return MetricEstimate(*numbers, method=d["method"], note=d["note"])

    if block["label"] != rule.label:
        raise ValueError(
            f"{where}: label {block['label']!r} differs from the lexicon's {rule.label!r}"
        )
    for key in ("n_missing_excluded", "n_vaccination_excluded"):
        _stored(block[key], f"{where} {key}", count=True)
    table = ContingencyTable(**{k: _stored(v, f"{where} counts.{k}", count=True)
                                for k, v in block["counts"].items()})
    if block["n_evaluated"] != table.n:
        raise ValueError(
            f"malformed report: {where}: n_evaluated "
            f"{block['n_evaluated']!r} differs from the counts' total {table.n}"
        )
    return CategoryResult(
        category_id=rule.category_id,
        label=rule.label,
        icd10_chapter=rule.icd10_chapter,
        n_missing_excluded=block["n_missing_excluded"],
        n_vaccination_excluded=block["n_vaccination_excluded"],
        table=table,
        panel=MetricPanel(*map(est, METRICS), prevalence_sample=_stored(
            block["prevalence_sample"], f"{where} prevalence_sample")),
    )


def emit_report(result: EvaluationResult, format: str) -> str:
    """Render an evaluation as markdown, csv, or json.

    Markdown mirrors the reference table layout (percent metrics with CIs
    at ``result.ci_level``, 2-dp likelihood ratios); CSV and JSON carry
    full-precision values plus the raw counts so every number is
    reproducible. JSON stores ``ci_level`` only when it is not 0.95.
    """
    if format == "json":
        payload = {
            "condition": result.condition.value,
            "marker": result.condition.marker_name,
            "demographics": {  # every summary field but the age histogram
                name: value for name, value in zip(CohortSummary._fields, result.summary)
                if name != "age_histogram"
            },
            "primary": _panel_json(result.primary),
            "controls": [_panel_json(c) for c in result.controls],
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
    out = {}
    for metric in ("sensitivity", "specificity"):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["category_id", "label", metric])
        for res in sorted(result.all_results(), key=lambda r: r.category_id):
            est = res.panel.sn if metric == "sensitivity" else res.panel.sp
            writer.writerow(
                [res.category_id, res.label, "" if est.value is None else est.value]
            )
        out[metric] = buf.getvalue()
    return out


def emit_demographics_csv(summary: CohortSummary) -> str:
    """Plot-ready demographic data: per-decade age histogram + sex counts."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "key", "count"])
    for decade, count in summary.age_histogram:
        writer.writerow(["age_decade", f"{decade}-{decade + 9}", count])
    writer.writerow(["sex", "male", summary.n_male])
    writer.writerow(["sex", "female", summary.n_female])
    writer.writerow(["sex", "unspecified", summary.n_unspecified])
    return buf.getvalue()
