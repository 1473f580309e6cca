"""Diagnostic test accuracy of free-text clinical notes.

Classifies pathology-request notes into a 46-category taxonomy with
statement/query polarity, compares them against serological gold
standards, and computes the full accuracy panel (Sn, Sp, PPV, NPV,
LR+, LR-) with confidence intervals.

The public names below are loaded lazily (PEP 562): ``import notedta``
imports no submodule, and ``notedta.X`` imports the one module that
defines ``X`` on first access.
"""

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "classifier": ("CategoryRule", "Lexicon", "NoteClassification", "classify_note",
                   "default_lexicon", "load_lexicon", "normalize_note"),
    "evaluate": ("CategoryResult", "EvaluationConfig", "EvaluationResult", "emit_plot_data",
                 "emit_report", "evaluate_condition"),
    "ingest": ("CohortFormatError", "CohortSummary", "parse_cohort_file",
               "summarize_demographics", "write_cohort_file"),
    "metrics": ("CiConfig", "ContingencyTable", "MetricEstimate", "MetricPanel",
                "adjust_predictive_values", "build_contingency", "ci_likelihood_ratio",
                "ci_proportion", "compute_metrics"),
    "model": ("Cohort", "Condition", "PathologyRecord", "SerologyStatus", "Sex"),
    "serology": ("classify_marker",),
    "synth": ("SynthesisSpec", "synthesize_exact", "synthesize_random"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

# What `from notedta import *` binds: every public name and the submodules
# that define them.
__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups no longer reach __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
