import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notedta.evaluate import (
    CONTROL_CATEGORIES,
    EvaluationConfig,
    emit_demographics_csv,
    emit_plot_data,
    emit_report,
    evaluate_condition,
)
from notedta.metrics import CiConfig, ContingencyTable
from notedta.model import Cohort, Condition, PathologyRecord
from notedta.synth import SynthesisSpec, preset_spec, synthesize_exact, synthesize_random

HBV = Condition.HEPATITIS_B
HCV = Condition.HEPATITIS_C

HBV_SPEC = SynthesisSpec(HBV, ContingencyTable(69, 45, 8, 57), n_missing=62, seed=1)


@pytest.fixture(scope="module")
def hbv_result():
    return evaluate_condition(synthesize_exact(HBV_SPEC), EvaluationConfig(HBV))


def test_primary_reproduces_worked_example(hbv_result):
    p = hbv_result.primary
    assert p.table == ContingencyTable(69, 45, 8, 57)
    assert p.n_evaluated == 179
    assert p.n_missing_excluded == 62
    assert p.panel.sn.value == pytest.approx(69 / 77)
    assert p.panel.sp.value == pytest.approx(57 / 102)


def test_control_category_all_negative():
    # work-screening style category: no hepatitis mention, no seropositives
    records = [
        PathologyRecord(f"w{i}", note_text="work screening", hbsag_iu=0.2)
        for i in range(20)
    ]
    result = evaluate_condition(Cohort(tuple(records)), EvaluationConfig(HBV))
    ctl = next(c for c in result.controls if c.category_id == 32)
    assert ctl.table == ContingencyTable(0, 0, 0, 20)
    assert ctl.panel.sp.value == 1.0
    assert not ctl.panel.sn.defined
    assert not ctl.panel.ppv.defined
    assert ctl.percent_marker_positive == 0.0


def test_control_category_with_seropositives():
    records = [
        PathologyRecord(f"f{i}", note_text="fatigue", hbsag_iu=2.0 if i < 3 else 0.2)
        for i in range(10)
    ]
    result = evaluate_condition(Cohort(tuple(records)), EvaluationConfig(HBV))
    ctl = next(c for c in result.controls if c.category_id == 37)
    assert ctl.table == ContingencyTable(0, 0, 3, 7)
    assert ctl.panel.sn.value == 0.0
    assert ctl.panel.sp.value == 1.0
    assert ctl.percent_marker_positive == pytest.approx(30.0)


def test_markdown_control_row_shows_percent_marker_positive():
    # 1 of 3 marker-positive renders as 33.3; both presets' control rows are n.d.
    records = [
        PathologyRecord(f"f{i}", note_text="fatigue", hbsag_iu=2.0 if i == 0 else 0.2)
        for i in range(3)
    ]
    result = evaluate_condition(Cohort(tuple(records)), EvaluationConfig(HBV))
    rows = emit_report(result, "markdown").splitlines()
    assert "| - | Fatigue and lethargy | 33.3 | 0 | 100 | n.d. | 67 |" in rows


def test_all_missing_serology_category():
    records = [PathologyRecord(f"m{i}", note_text="alcohol abuse") for i in range(5)]
    result = evaluate_condition(Cohort(tuple(records)), EvaluationConfig(HBV))
    ctl = next(c for c in result.controls if c.category_id == 17)
    assert ctl.n_evaluated == 0
    assert ctl.n_missing_excluded == 5
    assert not any(
        e.defined
        for e in (ctl.panel.sn, ctl.panel.sp, ctl.panel.ppv, ctl.panel.npv)
    )


def test_vaccination_records_excluded():
    records = [
        PathologyRecord("v1", note_text="check response to Hep B vaccination", hbsag_iu=2.0),
        PathologyRecord("k1", note_text="Known Hep B", hbsag_iu=2.0),
    ]
    cohort = Cohort(tuple(records))
    result = evaluate_condition(cohort, EvaluationConfig(HBV))
    assert result.primary.table == ContingencyTable(1, 0, 0, 0)
    assert result.primary.n_vaccination_excluded == 1
    kept = evaluate_condition(cohort, EvaluationConfig(HBV, exclude_vaccination=False))
    assert kept.primary.table.n == 2


def test_accounting_identity(hbv_result):
    p = hbv_result.primary
    assert p.n_evaluated + p.n_missing_excluded == 241


def test_control_categories_exclude_both_targets(hbv_result):
    assert all(1 <= c <= 46 for c in CONTROL_CATEGORIES)
    assert not {c.category_id for c in Condition}.intersection(CONTROL_CATEGORIES)
    assert tuple(c.category_id for c in hbv_result.controls) == CONTROL_CATEGORIES


# -- reports ------------------------------------------------------------------

def test_markdown_report_table3_style(hbv_result):
    md = emit_report(hbv_result, "markdown")
    assert "Sn 90 (80.6-95.4), Sp 56 (45.7-65.7)" in md
    assert "| 90 (80.6-95.4) | 56 (45.7-65.7) |" in md
    assert "n.d." in md  # empty control categories


def test_report_determinism(hbv_result):
    again = evaluate_condition(synthesize_exact(HBV_SPEC), EvaluationConfig(HBV))
    for fmt in ("markdown", "csv", "json"):
        assert emit_report(hbv_result, fmt) == emit_report(again, fmt)


def test_json_report_round_trip(hbv_result):
    payload = json.loads(emit_report(hbv_result, "json"))
    primary = payload["primary"]
    assert primary["counts"] == {"tp": 69, "fp": 45, "fn": 8, "tn": 57}
    assert primary["sn"]["value"] == hbv_result.primary.panel.sn.value
    assert primary["sn"]["display"] == "0.90"
    assert primary["lr_pos"]["value"] == hbv_result.primary.panel.lr_pos.value
    assert payload["demographics"]["n_total"] == 241


def _csv_rows_from_json(text: str, header: list[str]) -> list[list[str]]:
    """The rows of report.csv, each cell looked up by its column in report.json."""
    payload = json.loads(text)

    def cell(role: str, block: dict, column: str) -> str:
        if column == "role":
            value = role
        elif column in block:
            value = block[column]
            if isinstance(value, dict):  # a metric: its point value
                value = value["value"]
        elif column in block["counts"]:
            value = block["counts"][column]
        else:  # "sn_low", "lr_pos_high": a bound of a metric
            metric, bound = column.rsplit("_", 1)
            value = block[metric]["ci_" + bound]
        return "" if value is None else str(value)  # "inf" stays inf

    blocks = [("primary", payload["primary"])] + [("control", c) for c in payload["controls"]]
    return [[cell(role, block, column) for column in header] for role, block in blocks]


def _assert_json_holds_every_csv_value(result):
    # Every number of report.csv, and every summary field but the age
    # histogram, can be read back from report.json alone.
    text = emit_report(result, "json")
    header, *rows = csv.reader(io.StringIO(emit_report(result, "csv")))
    assert _csv_rows_from_json(text, header) == rows
    payload = json.loads(text)
    assert payload["condition"] == result.condition.value
    assert payload["demographics"] == {k: v for k, v in result.summary._asdict().items()
                                       if k != "age_histogram"}
    assert payload.get("ci_level", 0.95) == result.ci_level


# The hbv preset carries no anti-HCV values, so every hcv table is empty.
@pytest.mark.parametrize("preset, condition", [("figS1-hbv", HBV), ("figS1-hcv", HCV),
                                               ("figS1-hbv", HCV)])
def test_report_json_holds_every_csv_value_presets(preset, condition):
    result = evaluate_condition(synthesize_exact(preset_spec(preset, 1)),
                                EvaluationConfig(condition))
    _assert_json_holds_every_csv_value(result)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), hcv=st.booleans(), score=st.booleans(),
       level=st.sampled_from([0.90, 0.95, 0.99]))
def test_report_json_holds_every_csv_value_random_cohorts(seed, hcv, score, level):
    condition = HCV if hcv else HBV
    cohort = synthesize_random(
        60, 0.3, note_mix={condition.category_id: 0.5, 10: 0.2, 32: 0.2, 45: 0.1}, seed=seed
    )
    config = EvaluationConfig(
        condition, ci=CiConfig(level=level, proportion_method="score" if score else "exact")
    )
    _assert_json_holds_every_csv_value(evaluate_condition(cohort, config))


def test_csv_report_has_counts(hbv_result):
    csv_text = emit_report(hbv_result, "csv")
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + 1 + 10  # header + primary + ten controls
    assert lines[1].split(",")[5:9] == ["69", "45", "8", "57"]


def test_unknown_format_rejected(hbv_result):
    with pytest.raises(ValueError, match="format"):
        emit_report(hbv_result, "xml")


def test_plot_data(hbv_result):
    plots = emit_plot_data(hbv_result)
    sens = plots["sensitivity"].strip().splitlines()
    assert sens[0] == "category_id,label,sensitivity"
    assert len(sens) == 1 + 11  # primary + ten controls
    ids = [int(row.split(",")[0]) for row in sens[1:]]
    assert ids == sorted(ids)


def test_demographics_csv(hbv_result):
    text = emit_demographics_csv(hbv_result.summary)
    assert text.startswith("kind,key,count")
    assert "sex,male," in text and "age_decade," in text


def test_default_ci_level_is_not_stored(hbv_result):
    assert hbv_result.ci_level == 0.95
    assert "ci_level" not in json.loads(emit_report(hbv_result, "json"))
    assert emit_report(hbv_result, "markdown").count("(95% CI)") == 4


@pytest.mark.parametrize("level, label", [(0.8, "80% CI"), (0.9, "90% CI"), (0.975, "97.5% CI")])
def test_ci_level_labels_markdown_and_is_stored(level, label):
    config = EvaluationConfig(HBV, ci=CiConfig(level=level, proportion_method="score"))
    result = evaluate_condition(synthesize_exact(HBV_SPEC), config)
    assert result.ci_level == level
    markdown = emit_report(result, "markdown")
    assert markdown.count(f"({label})") == 4 and "95%" not in markdown
    assert json.loads(emit_report(result, "json"))["ci_level"] == level


def test_caller_keeping_its_cohort_gets_the_same_result():
    config = EvaluationConfig(HBV)
    cohort = synthesize_exact(HBV_SPEC)
    kept = evaluate_condition(cohort, config)
    handed_over = evaluate_condition(synthesize_exact(HBV_SPEC), config)
    assert kept == handed_over
