"""The public surface of `notedta`, one line per parameter.

An `ast` scan of `src/notedta/*.py` lists `module.Qualname(param)` for every
parameter of every public function and method, and of each public class's
constructor (`__new__` or `__init__`); `self` and `cls` are left out. The
sorted list must equal `SURFACE`, so a parameter added or removed shows up
as one line of this file's diff.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "notedta"

SURFACE = [
    "classifier.CategoryRule.__new__(category_id)",
    "classifier.CategoryRule.__new__(icd10_chapter)",
    "classifier.CategoryRule.__new__(label)",
    "classifier.CategoryRule.__new__(patterns)",
    "classifier.CategoryRule.__new__(priority)",
    "classifier.Lexicon.__new__(query_keywords)",
    "classifier.Lexicon.__new__(rules)",
    "classifier.Lexicon.rule(category_id)",
    "classifier.classify_note(lexicon)",
    "classifier.classify_note(text)",
    "classifier.load_lexicon(path)",
    "classifier.normalize_note(text)",
    "classifier.parse_lexicon(text)",
    "cli.main(argv)",
    "evaluate.EvaluationResult.from_json(lexicon)",
    "evaluate.EvaluationResult.from_json(text)",
    "evaluate.emit_demographics_csv(summary)",
    "evaluate.emit_plot_data(result)",
    "evaluate.emit_report(format)",
    "evaluate.emit_report(result)",
    "evaluate.evaluate_condition(cohort)",
    "evaluate.evaluate_condition(config)",
    "evaluate.evaluate_condition(lexicon)",
    "ingest.ValidationReport.__init__(path)",
    "ingest.ValidationReport.__init__(strict)",
    "ingest.parse_cohort_file(path)",
    "ingest.summarize_demographics(cohort)",
    "ingest.validate_cohort_file(path)",
    "ingest.validate_cohort_file(strict)",
    "ingest.write_cohort_file(cohort)",
    "ingest.write_cohort_file(path)",
    "metrics.CiConfig.__new__(level)",
    "metrics.CiConfig.__new__(proportion_method)",
    "metrics.ContingencyTable.__new__(fn)",
    "metrics.ContingencyTable.__new__(fp)",
    "metrics.ContingencyTable.__new__(tn)",
    "metrics.ContingencyTable.__new__(tp)",
    "metrics.adjust_predictive_values(prevalence)",
    "metrics.adjust_predictive_values(sn)",
    "metrics.adjust_predictive_values(sp)",
    "metrics.build_contingency(pairs)",
    "metrics.ci_likelihood_ratio(level)",
    "metrics.ci_likelihood_ratio(table)",
    "metrics.ci_likelihood_ratio(which)",
    "metrics.ci_proportion(level)",
    "metrics.ci_proportion(method)",
    "metrics.ci_proportion(successes)",
    "metrics.ci_proportion(trials)",
    "metrics.compute_metrics(ci)",
    "metrics.compute_metrics(table)",
    "metrics.format_percent(value)",
    "metrics.format_percent_1dp(value)",
    "metrics.format_proportion(value)",
    "model.Cohort.__new__(records)",
    "model.PathologyRecord.__new__(age)",
    "model.PathologyRecord.__new__(anti_hcv_iu)",
    "model.PathologyRecord.__new__(collection_year)",
    "model.PathologyRecord.__new__(hbsag_iu)",
    "model.PathologyRecord.__new__(note_text)",
    "model.PathologyRecord.__new__(record_id)",
    "model.PathologyRecord.__new__(sex)",
    "serology.SerologyThresholds.__new__(anti_hcv_cutoff)",
    "serology.SerologyThresholds.__new__(hbsag_cutoff)",
    "serology.classify_marker(condition)",
    "serology.classify_marker(record)",
    "serology.classify_marker(thresholds)",
    "synth.SplitMix64.__init__(seed)",
    "synth.SynthesisSpec.__new__(age_mean)",
    "synth.SynthesisSpec.__new__(age_sd)",
    "synth.SynthesisSpec.__new__(condition)",
    "synth.SynthesisSpec.__new__(n_missing)",
    "synth.SynthesisSpec.__new__(seed)",
    "synth.SynthesisSpec.__new__(sex_split)",
    "synth.SynthesisSpec.__new__(target_table)",
    "synth.preset_spec(name)",
    "synth.preset_spec(seed)",
    "synth.synthesize_exact(spec)",
    "synth.synthesize_random(n)",
    "synth.synthesize_random(note_mix)",
    "synth.synthesize_random(prevalence)",
    "synth.synthesize_random(seed)",
]


def _parameters(body, module: str, prefix: str = ""):
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from _parameters(node.body, module, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and node.name not in ("__new__", "__init__"):
                continue
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            if args.vararg:
                names.append("*" + args.vararg.arg)
            if args.kwarg:
                names.append("**" + args.kwarg.arg)
            if prefix and names[:1] in (["self"], ["cls"]):
                names = names[1:]
            for name in names:
                yield f"{module}.{prefix}{node.name}({name})"


def public_parameters() -> list[str]:
    return sorted(
        entry
        for path in SRC.glob("*.py")
        for entry in _parameters(ast.parse(path.read_text(encoding="utf-8")).body, path.stem)
    )


def test_public_surface_is_the_ledger():
    assert public_parameters() == SURFACE
