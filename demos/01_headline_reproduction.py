"""Reproduce the headline accuracy tables from the bundled presets.

Builds the two preset cohorts (hbv: 241 records with 62 missing assays,
hcv: 327 with 161 missing), runs the full evaluation pipeline on each, and
prints the markdown report. The primary rows land exactly on the reference
contingency tables (69,45,8,57) and (101,38,17,10).

Run with: python demos/01_headline_reproduction.py
"""

from notedta.evaluate import EvaluationConfig, emit_report, evaluate_condition
from notedta.synth import PRESETS, preset_spec, synthesize_exact

for name in PRESETS:
    spec = preset_spec(name, seed=1)
    cohort = synthesize_exact(spec)
    result = evaluate_condition(cohort, EvaluationConfig(spec.condition))
    print(f"=== preset {name}: {len(cohort)} records, "
          f"{result.primary.n_evaluated} evaluated ===\n")
    print(emit_report(result, "markdown"))
    print()
