"""The public surface of `notedta`, one line per parameter or command-line option.

An `ast` scan of `src/notedta/*.py` lists `module.Qualname(param)` for every
parameter of every public function and method, and of each public class's
constructor (`__new__` or `__init__`); `self` and `cls` are left out. The
sorted list must equal `SURFACE`, so a parameter added or removed shows up
as one line of this file's diff. The package module itself binds only
`__version__`: each public name has one import path, its submodule's.
`OPTIONS` does the same for the arguments
of each subcommand, read from the parser, and no module reads the
environment: every setting of a run is on its command line. Only
`classifier` names the note memo's bounds. Every `notedta` line of
README's `sh` blocks must parse, so the README names no removed
subcommand or flag.
"""

import argparse
import ast
import shlex
from pathlib import Path

from notedta.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "notedta"

SURFACE = [
    "classifier.CategoryRule.__new__(category_id)",
    "classifier.CategoryRule.__new__(icd10_chapter)",
    "classifier.CategoryRule.__new__(label)",
    "classifier.CategoryRule.__new__(patterns)",
    "classifier.Lexicon.__new__(query_keywords)",
    "classifier.Lexicon.__new__(rules)",
    "classifier.Lexicon.rule(category_id)",
    "classifier.NoteMemo.__init__(derive)",
    "classifier.classify_note(lexicon)",
    "classifier.classify_note(text)",
    "classifier.load_lexicon(path)",
    "classifier.normalize_note(text)",
    "classifier.parse_lexicon(text)",
    "cli.main(argv)",
    "evaluate.EvaluationConfig.__new__(ci)",
    "evaluate.EvaluationConfig.__new__(cutoff)",
    "evaluate.EvaluationConfig.__new__(exclude_vaccination)",
    "evaluate.EvaluationConfig.__new__(target_condition)",
    "evaluate.emit_demographics_csv(summary)",
    "evaluate.emit_plot_data(result)",
    "evaluate.emit_report(format)",
    "evaluate.emit_report(result)",
    "evaluate.evaluate_condition(cohort)",
    "evaluate.evaluate_condition(config)",
    "evaluate.evaluate_condition(lexicon)",
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
    "model.PathologyRecord.__new__(age)",
    "model.PathologyRecord.__new__(anti_hcv_iu)",
    "model.PathologyRecord.__new__(collection_year)",
    "model.PathologyRecord.__new__(hbsag_iu)",
    "model.PathologyRecord.__new__(note_text)",
    "model.PathologyRecord.__new__(record_id)",
    "model.PathologyRecord.__new__(sex)",
    "serology.classify_marker(condition)",
    "serology.classify_marker(cutoff)",
    "serology.classify_marker(record)",
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


def package_bindings() -> list[str]:
    """The names `notedta/__init__.py` binds: by assignment, def, class or import."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return sorted({
        node.id if isinstance(node, ast.Name) else getattr(node, "asname", None) or node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.alias))
    })


def test_public_surface_is_the_ledger():
    assert public_parameters() == SURFACE
    assert package_bindings() == ["__version__"]


# Each subcommand's option strings, and its positional arguments by name.
OPTIONS = {
    "classify": ["--help", "--lexicon", "-h", "input"],
    "evaluate": ["--ci-level", "--ci-method", "--condition", "--cutoff", "--help",
                 "--keep-vaccination", "--lexicon", "--outdir", "-h", "input"],
    "synth": ["--condition", "--help", "--n", "--preset", "--prevalence", "--seed", "-h",
              "output"],
    "validate": ["--help", "--report", "--strict", "-h", "input"],
}


def test_command_line_options_are_the_ledger():
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: sorted(o for a in parser._actions for o in a.option_strings or [a.dest])
            for name, parser in commands.choices.items()} == OPTIONS


def test_no_module_reads_the_environment():
    env = {"environ", "environb", "getenv", "getenvb"}
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "os" and node.attr in env
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in env for alias in node.names)
    ]
    assert reads == []


def test_only_the_classifier_names_the_note_memo_bounds():
    # Callers go through `classifier.NoteMemo`, so its bounds live in one place.
    bounds = {"NOTE_MEMO_LIMIT", "NOTE_MEMO_MAX_CHARS"}
    names = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "classifier"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id in bounds
        or isinstance(node, ast.Attribute) and node.attr in bounds
        or isinstance(node, ast.alias) and node.name in bounds
    ]
    assert names == []


def readme_commands() -> list[str]:
    """The lines of README's `sh` blocks that run `notedta`."""
    commands, in_sh = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("notedta "):
            commands.append(line)
    return commands


def test_readme_commands_parse():
    commands, rejected = readme_commands(), []
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:  # a usage error: exit 1
            rejected.append(line)
    assert commands and rejected == []
