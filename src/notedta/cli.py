"""Command-line entry point.

Subcommands: validate, classify, evaluate, synth, report. Batch,
file-based: each run writes its artifacts and prints a terse summary.
Exit codes: 0 success, 1 input error (a malformed command line included),
2 internal invariant failure.
"""

import argparse
import contextlib
import importlib
import os
import sys

from .classifier import classify_note, default_lexicon, load_lexicon
from .metrics import CiConfig
from .model import Condition
from .serology import SerologyThresholds
from .synth import PRESETS, preset_spec, synthesize_exact, synthesize_random

# Bound on first use, so that each command imports only the modules it runs
# (`classify` never loads evaluate or ingest). They stay attributes of this
# module, looked up at call time, so a caller can replace them here.
_LAZY = {
    "evaluate": ("EvaluationConfig", "EvaluationResult", "emit_demographics_csv",
                 "emit_plot_data", "emit_report", "evaluate_condition"),
    "ingest": ("parse_cohort_file", "validate_cohort_file", "write_cohort_file"),
}
TYPE_CHECKING = False  # read as true by type checkers; spares importing typing
if TYPE_CHECKING:
    from .evaluate import (
        EvaluationConfig,
        EvaluationResult,
        emit_demographics_csv,
        emit_plot_data,
        emit_report,
        evaluate_condition,
    )
    from .ingest import parse_cohort_file, validate_cohort_file, write_cohort_file


def _load(*modules: str) -> None:
    """Bind the `_LAZY` names of `modules` here, keeping any already bound."""
    for module in modules:
        imported = importlib.import_module(f"{__package__}.{module}")
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


LEXICON_ENV = "NOTEDTA_LEXICON"

_CONDITIONS = {"hbv": Condition.HEPATITIS_B, "hcv": Condition.HEPATITIS_C}


def _load_lexicon(path: str | None):
    path = path or os.environ.get(LEXICON_ENV)
    return load_lexicon(path) if path else default_lexicon()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A usage error is an input error: exit 1, not argparse's 2, which
        # this CLI reserves for internal failures.
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="notedta",
        description="Diagnostic accuracy of clinical notes against serological gold standards.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a cohort CSV and print a summary")
    p.add_argument("input")
    p.add_argument("--strict", action="store_true", help="abort on the first malformed row")
    p.add_argument("--report", help="write a JSON validation report here")

    p = sub.add_parser("classify", help="classify notes, one per input line")
    p.add_argument("input", help="text file of notes, '-' for stdin")
    p.add_argument("--lexicon", help=f"lexicon file (default: built-in, or ${LEXICON_ENV})")

    p = sub.add_parser("evaluate", help="run the full pipeline and write reports")
    p.add_argument("input", help="cohort CSV")
    p.add_argument("--condition", choices=sorted(_CONDITIONS), required=True)
    p.add_argument("--outdir", default=".", help="directory for report/plot files")
    p.add_argument("--lexicon")
    p.add_argument("--hbsag-cutoff", type=float, default=Condition.HEPATITIS_B.default_cutoff)
    p.add_argument("--anti-hcv-cutoff", type=float, default=Condition.HEPATITIS_C.default_cutoff)
    p.add_argument("--ci-method", choices=["exact", "score"], default="exact")
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument("--keep-vaccination", action="store_true",
                   help="do not exclude vaccination-response records")

    p = sub.add_parser("synth", help="write a synthetic cohort CSV")
    p.add_argument("output")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--preset", choices=sorted(PRESETS))
    size.add_argument("--n", type=int, help="random cohort size")
    p.add_argument("--condition", choices=sorted(_CONDITIONS), help="with --n (default: hbv)")
    p.add_argument("--prevalence", type=float, help="with --n (default: 0.1)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="re-render a stored JSON result")
    p.add_argument("input", help="report.json written by evaluate")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    return parser


def _cmd_validate(args) -> int:
    _load("ingest")
    report = validate_cohort_file(args.input, strict=args.strict)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(
        f"{args.input}: {report.n_parsed} records parsed, "
        f"{len(report.skipped)} skipped, {len(report.warnings)} warnings"
    )
    return 0


def _cmd_classify(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    # Only a file this command opened is closed; stdin stays the caller's.
    # A file is split at "\n" only, as stdin is: a bare "\r" stays inside its note.
    source = (contextlib.nullcontext(sys.stdin) if args.input == "-"
              else open(args.input, encoding="utf-8", newline="\n"))
    write = sys.stdout.write  # one write per line: one syscall under -u
    with source as fh:
        for line in fh:
            c = classify_note(line.rstrip("\n"), lexicon)
            write(f"{c.category_id}\t{c.hbv_label}\t{c.hcv_label}\t{c.matched_pattern}\n")
    return 0


def _cmd_evaluate(args) -> int:
    """Check the flags, then read, evaluate and report the cohort.

    The flags and the lexicon are checked before the cohort file is read,
    so a bad flag is reported first. The cohort is passed to
    `evaluate_condition` without a name: on CPython 3.11+ the callee then
    holds its last reference and frees the records before the intervals.
    """
    from pathlib import Path

    _load("ingest", "evaluate")
    config = EvaluationConfig(
        target_condition=_CONDITIONS[args.condition],
        exclude_vaccination=not args.keep_vaccination,
        thresholds=SerologyThresholds(
            hbsag_cutoff=args.hbsag_cutoff, anti_hcv_cutoff=args.anti_hcv_cutoff
        ),
        ci=CiConfig(level=args.ci_level, proportion_method=args.ci_method),
    )
    lexicon = _load_lexicon(args.lexicon)
    result = evaluate_condition(parse_cohort_file(args.input), config, lexicon)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.md").write_text(emit_report(result, "markdown"), encoding="utf-8")
    (outdir / "report.csv").write_text(emit_report(result, "csv"), encoding="utf-8")
    (outdir / "report.json").write_text(emit_report(result, "json"), encoding="utf-8")
    plots = emit_plot_data(result)
    (outdir / "plotdata_sensitivity.csv").write_text(plots["sensitivity"], encoding="utf-8")
    (outdir / "plotdata_specificity.csv").write_text(plots["specificity"], encoding="utf-8")
    (outdir / "demographics.csv").write_text(
        emit_demographics_csv(result.summary), encoding="utf-8"
    )
    p = result.primary
    print(
        f"{args.condition}: n={p.n_evaluated} "
        f"(missing excluded: {p.n_missing_excluded}); "
        f"table tp={p.table.tp} fp={p.table.fp} fn={p.table.fn} tn={p.table.tn}; "
        f"reports in {outdir}"
    )
    if p.n_evaluated == 0:
        why = (
            f"every {result.condition.marker_name} value was missing "
            f"({p.n_missing_excluded} records)"
            if p.n_missing_excluded
            else "no notes matched it"
        )
        print(f"warning: category {p.category_id} ({p.label}) evaluated no records: {why}",
              file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    _load("ingest")
    if args.preset:
        if args.condition or args.prevalence is not None:
            raise CliInputError("--condition and --prevalence apply only with --n")
        cohort = synthesize_exact(preset_spec(args.preset, args.seed))
    else:
        condition = _CONDITIONS[args.condition or "hbv"]
        cohort = synthesize_random(
            args.n,
            0.1 if args.prevalence is None else args.prevalence,
            note_mix={condition.category_id: 0.5, 32: 0.2, 37: 0.2, 45: 0.1},
            seed=args.seed,
        )
    write_cohort_file(cohort, args.output)
    print(f"{args.output}: {len(cohort)} records written (seed={args.seed})")
    return 0


def _cmd_report(args) -> int:
    # Re-render the stored full-precision result with evaluate's own renderer.
    _load("evaluate")
    lexicon = _load_lexicon(None)
    try:
        with open(args.input, encoding="utf-8") as fh:
            result = EvaluationResult.from_json(fh.read(), lexicon)
    except ValueError as err:
        raise CliInputError(f"{args.input}: {err}") from err
    print(emit_report(result, args.format), end="")
    return 0


class CliInputError(ValueError):
    pass


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (OSError, ValueError) as err:  # CliInputError and CohortFormatError included
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # internal invariant failure, or no scipy for the quantiles
        missing = err.name if isinstance(err, ImportError) else None
        if missing and missing.split(".")[0] in ("numpy", "scipy"):
            print(f"error: cannot import scipy ({err}); exact intervals and a --ci-level other "
                  "than 0.95 need it, --ci-method score at the default level does not",
                  file=sys.stderr)
        else:
            print(f"internal error: {err!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
