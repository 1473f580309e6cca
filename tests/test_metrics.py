import ast
import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import beta, norm

import notedta
from notedta.metrics import (
    CiConfig,
    ContingencyTable,
    adjust_predictive_values,
    build_contingency,
    ci_likelihood_ratio,
    ci_proportion,
    compute_metrics,
    format_percent,
    format_percent_1dp,
    format_proportion,
    _z_quantile,
)
from notedta.model import SerologyStatus

HBV_TABLE = ContingencyTable(tp=69, fp=45, fn=8, tn=57)
HCV_TABLE = ContingencyTable(tp=101, fp=38, fn=17, tn=10)

POS = SerologyStatus.POSITIVE
NEG = SerologyStatus.NEGATIVE
MIS = SerologyStatus.MISSING


# -- build_contingency -------------------------------------------------------

def _pairs_for(table, n_missing=0):
    pairs = (
        [("positive", POS)] * table.tp
        + [("positive", NEG)] * table.fp
        + [("negative", POS)] * table.fn
        + [("negative", NEG)] * table.tn
        + [("positive", MIS)] * n_missing
    )
    return pairs


def test_build_contingency_hbv_worked_example():
    pairs = _pairs_for(HBV_TABLE, n_missing=62)
    table, excluded = build_contingency(pairs)
    assert table == HBV_TABLE
    assert excluded == 62
    assert table.n == 179


def test_build_contingency_hcv_worked_example():
    table, excluded = build_contingency(_pairs_for(HCV_TABLE, n_missing=161))
    assert table == HCV_TABLE
    assert excluded == 161
    assert table.n == 166


def test_build_contingency_empty():
    table, excluded = build_contingency([])
    assert table == ContingencyTable(0, 0, 0, 0)
    assert excluded == 0


def test_build_contingency_permutation_invariant():
    pairs = _pairs_for(ContingencyTable(3, 2, 1, 4), n_missing=2)
    rng = random.Random(11)
    base, base_excl = build_contingency(pairs)
    for _ in range(10):
        rng.shuffle(pairs)
        table, excl = build_contingency(pairs)
        assert (table, excl) == (base, base_excl)


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ContingencyTable(-1, 0, 0, 0)


# -- point estimates ---------------------------------------------------------

def test_hbv_panel_point_estimates():
    p = compute_metrics(HBV_TABLE)
    assert p.sn.value == pytest.approx(69 / 77, abs=1e-15)
    assert p.sp.value == pytest.approx(57 / 102, abs=1e-15)
    assert p.ppv.value == pytest.approx(69 / 114, abs=1e-15)
    assert p.npv.value == pytest.approx(57 / 65, abs=1e-15)
    # raw-count likelihood ratios, not the rounded-intermediate figures
    assert p.lr_pos.value == pytest.approx(2.0312, abs=5e-5)
    assert p.lr_neg.value == pytest.approx(0.1859, abs=5e-5)
    assert p.prevalence_sample == pytest.approx(77 / 179)


def test_hcv_panel_point_estimates():
    p = compute_metrics(HCV_TABLE)
    assert format_proportion(p.sn.value) == "0.86"
    assert format_proportion(p.sp.value) == "0.21"
    assert format_proportion(p.ppv.value) == "0.73"
    assert format_proportion(p.npv.value) == "0.37"
    assert p.lr_pos.value == pytest.approx(1.0812, abs=5e-5)


def test_perfect_test_degenerate():
    p = compute_metrics(ContingencyTable(5, 0, 0, 5))
    assert p.sn.value == 1 and p.sp.value == 1
    assert p.ppv.value == 1 and p.npv.value == 1
    assert p.lr_pos.value == math.inf
    assert p.lr_neg.value == 0


def test_all_negative_category():
    # e.g. a screening category with no test positives and no seropositives
    p = compute_metrics(ContingencyTable(0, 0, 0, 10))
    assert not p.sn.defined
    assert p.sp.value == 1.0
    assert not p.ppv.defined
    assert p.npv.value == 1.0
    assert format_proportion(p.sn.value) == "n.d."
    assert format_proportion(p.ppv.value) == "n.d."


# -- proportion confidence intervals ----------------------------------------

@pytest.mark.parametrize(
    "k,n,expected_low,expected_high",
    [
        (69, 77, 0.806, 0.954),
        (57, 102, 0.457, 0.657),
        (101, 118, 0.779, 0.914),
        (10, 48, 0.105, 0.350),
    ],
)
def test_clopper_pearson_reference_intervals(k, n, expected_low, expected_high):
    low, high = ci_proportion(k, n, method="exact")
    assert low == pytest.approx(expected_low, abs=5e-4)
    assert high == pytest.approx(expected_high, abs=5e-4)


def test_clopper_pearson_zero_successes_closed_form():
    # exact upper bound at k=0 is 1 - (alpha/2)^(1/n)
    low, high = ci_proportion(0, 10, method="exact")
    assert low == 0.0
    assert high == pytest.approx(1 - 0.025 ** (1 / 10), abs=1e-12)
    # brute-force cross-check: the upper bound is the p whose lower binomial
    # tail P(X <= 0) equals alpha/2
    assert (1 - high) ** 10 == pytest.approx(0.025, abs=1e-9)


def test_clopper_pearson_all_successes_upper_is_one():
    low, high = ci_proportion(10, 10, method="exact")
    assert high == 1.0
    assert low == pytest.approx(0.025 ** (1 / 10), abs=1e-12)


def test_wilson_against_high_precision_oracle():
    # frozen from a 50-digit evaluation of the Wilson formula
    low, high = ci_proportion(69, 77, method="score")
    assert low == pytest.approx(0.808156248232512, abs=1e-12)
    assert high == pytest.approx(0.9464070766274424, abs=1e-12)


def test_ci_proportion_rejects_zero_trials():
    with pytest.raises(ValueError):
        ci_proportion(0, 0)


def test_clopper_pearson_coverage_exhaustive():
    # coverage >= nominal for all n <= 12 and p on a 0.05 grid
    for n in range(1, 13):
        bounds = [ci_proportion(k, n, method="exact") for k in range(n + 1)]
        for pi in range(1, 20):
            p = pi / 20
            coverage = sum(
                math.comb(n, k) * p**k * (1 - p) ** (n - k)
                for k in range(n + 1)
                if bounds[k][0] <= p <= bounds[k][1]
            )
            assert coverage >= 0.95 - 1e-12, (n, p, coverage)


LEVELS = (0.80, 0.90, 0.95, 0.99)


def test_clopper_pearson_equals_scipy_stats_bit_for_bit():
    # scipy.special.betaincinv stands in for scipy.stats.beta.ppf: every
    # k <= n < 200 at four levels, plus a seeded sample of large n.
    rng = random.Random(20240601)
    cases = [(k, n) for n in range(1, 200) for k in range(n + 1)]
    cases += [(rng.randint(0, n), n) for n in (rng.randint(200, 300_000) for _ in range(300))]
    k = np.array([c[0] for c in cases])
    n = np.array([c[1] for c in cases])
    for level in LEVELS:
        alpha = 1.0 - level
        # beta.ppf is vectorised here for speed; undefined parameters give nan,
        # replaced by the closed-form 0 and 1 bounds.
        with np.errstate(invalid="ignore"):
            low = np.where(k == 0, 0.0, beta.ppf(alpha / 2.0, k, n - k + 1))
            high = np.where(k == n, 1.0, beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
        for (kk, nn), lo, hi in zip(cases, low.tolist(), high.tolist()):
            got = ci_proportion(kk, nn, level, "exact")
            assert (got[0].hex(), got[1].hex()) == (lo.hex(), hi.hex()), (kk, nn, level)


def test_wilson_bounds_within_4_ulps_of_mpmath_and_inside_0_1():
    # The Wilson formula evaluated at 60 digits with the same float z the
    # code uses. Its bounds are exactly 0 at k = 0 and 1 at k = n; every
    # other bound may be off by at most 4 ulps.
    with mpmath.workdps(60):
        for level, n in itertools.product(LEVELS, range(1, 200)):
            z = mpmath.mpf(_z_quantile(level))
            shift, spread, denom = z * z / (2 * n), z * z / (4 * n * n), 1 + z * z / n
            for k in range(n + 1):
                low, high = ci_proportion(k, n, level, "score")
                p = mpmath.mpf(k) / n
                centre = p + shift
                half = z * mpmath.sqrt(p * (1 - p) / n + spread)
                for got, numerator, closed in ((low, centre - half, 0.0 if k == 0 else None),
                                               (high, centre + half, 1.0 if k == n else None)):
                    exact = numerator / denom
                    if closed is not None:
                        assert got == closed, (k, n, level)
                    else:
                        assert abs(got - exact) <= 4 * math.ulp(float(exact)), (k, n, level)


def test_z_quantile_equals_scipy_stats_norm_ppf():
    assert _z_quantile(0.95) == 1.959964  # fixed for stable reports
    for level in (*LEVELS, *(i / 1000 for i in range(1, 1000))):
        if abs(level - 0.95) < 1e-12:
            continue
        expected = float(norm.ppf(1.0 - (1.0 - level) / 2.0))
        assert _z_quantile(level).hex() == expected.hex(), level


_PROBE = """
import sys
{setup}
print(sorted(m for m in {watch!r} if m in sys.modules))
"""
_SCIPY = ("numpy", "scipy", "scipy.special", "scipy.stats")
_SUBMODULES = tuple(f"notedta.{m}" for m in (
    "classifier", "cli", "evaluate", "ingest", "metrics", "model", "serology", "synth"))
_RUN_CLI = """
import contextlib, io
from notedta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


def _modules_loaded_by(
    setup: str, watch: tuple[str, ...] = _SCIPY, flags: tuple[str, ...] = ()
) -> list[str]:
    """Run `setup` in a fresh interpreter started with `flags`; list which of
    the `watch` modules it loaded. It writes no bytecode next to the sources."""
    src = str(Path(notedta.__file__).resolve().parents[1])
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, *flags, "-c", _PROBE.format(setup=setup, watch=watch)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    from notedta.cli import main

    d = tmp_path_factory.mktemp("startup")
    assert main(["synth", str(d / "cohort.csv"), "--preset", "figS1-hbv", "--seed", "1"]) == 0
    assert main(["evaluate", str(d / "cohort.csv"), "--condition", "hbv",
                 "--outdir", str(d / "out")]) == 0
    (d / "notes.txt").write_text("Known Hep C\n?Hep B\nscreen\n\n", encoding="utf-8")
    return d


@pytest.mark.parametrize("module", ["notedta", "notedta.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    assert _modules_loaded_by(f"import {module}") == []


# Every command but exact-interval `evaluate`, which loads numpy and scipy's ufuncs.
_COMMANDS_WITHOUT_SCIPY = pytest.mark.parametrize(
    "argv",
    [
        ["synth", "{d}/a.csv", "--preset", "figS1-hcv"],
        ["synth", "{d}/b.csv", "--n", "200", "--seed", "3"],
        ["classify", "{d}/notes.txt"],
        ["validate", "{d}/cohort.csv"],
        ["report", "{d}/out/report.json", "--format", "markdown"],
        ["evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir", "{d}/score",
         "--ci-method", "score"],
    ],
    ids=["synth-preset", "synth-n", "classify", "validate", "report", "evaluate-score"],
)


@_COMMANDS_WITHOUT_SCIPY
def test_cli_command_loads_neither_numpy_nor_scipy(cli_inputs, argv):
    # Only exact intervals and z quantiles at levels other than 0.95 need scipy.
    argv = [a.format(d=cli_inputs) for a in argv]
    assert _modules_loaded_by(_RUN_CLI.format(argv=argv)) == []


@_COMMANDS_WITHOUT_SCIPY
def test_cli_command_loads_neither_dataclasses_nor_inspect(cli_inputs, argv):
    # `import dataclasses` pulls in inspect, ast, dis and tokenize: ~10 ms of
    # start-up. Under -S no site hook loads them first.
    argv = [a.format(d=cli_inputs) for a in argv]
    watch = ("dataclasses", "inspect")
    assert _modules_loaded_by(_RUN_CLI.format(argv=argv), watch, flags=("-S",)) == []


# Stdlib modules that a command does not use, so does not load: `decimal`
# is for the display formatters (~2 ms), `pathlib` for `evaluate --outdir`
# (6-8 ms with shutil, urllib.parse and ipaddress), `json` for reports and
# `statistics` for demographics. Under -S no site hook loads them first.
@pytest.mark.parametrize(
    "argv, absent",
    [
        (["synth", "{d}/a.csv", "--preset", "figS1-hcv"],
         ("decimal", "json", "pathlib", "statistics")),
        (["synth", "{d}/b.csv", "--n", "200", "--seed", "3"],
         ("decimal", "json", "pathlib", "statistics")),
        (["classify", "{d}/notes.txt"], ("decimal", "json", "pathlib", "statistics")),
        (["validate", "{d}/cohort.csv"], ("decimal", "json", "pathlib", "statistics")),
        (["report", "{d}/out/report.json", "--format", "markdown"], ("pathlib", "statistics")),
    ],
    ids=["synth-preset", "synth-n", "classify", "validate", "report"],
)
def test_cli_command_loads_no_stdlib_module_it_does_not_use(cli_inputs, argv, absent):
    argv = [a.format(d=cli_inputs) for a in argv]
    assert _modules_loaded_by(_RUN_CLI.format(argv=argv), absent, flags=("-S",)) == []


def test_no_module_of_the_package_imports_dataclasses():
    for path in Path(notedta.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


# Under -S no site hook loads anything first; the probe puts numpy and scipy
# back on the path by hand.
_SCIPY_ON_PATH = "sys.path.extend({!r})\n".format(
    sorted({str(Path(m.__file__).parents[1]) for m in (np, scipy)}))


@pytest.mark.parametrize(
    "options",
    [[], ["--ci-method", "score", "--ci-level", "0.9"]],
    ids=["exact", "score-at-0.9"],
)
def test_evaluate_loads_scipy_special_ufuncs_alone(cli_inputs, options):
    # `import scipy.special` costs ~0.5 s, ~0.3 s of it in its array-API
    # layer (numpy.f2py, charset_normalizer); scipy.stats ~1 s. numpy still
    # loads inspect, but nothing loads dataclasses.
    argv = ["evaluate", f"{cli_inputs}/cohort.csv", "--condition", "hbv",
            "--outdir", f"{cli_inputs}/ufuncs", *options]
    watch = ("scipy.special._ufuncs", "scipy.special",
             "scipy.special._support_alternative_backends", "scipy._lib._array_api",
             "scipy.stats", "dataclasses")
    loaded = _modules_loaded_by(_SCIPY_ON_PATH + _RUN_CLI.format(argv=argv), watch, flags=("-S",))
    assert loaded == ["scipy.special._ufuncs"]


_QUANTILES_THEN_SCIPY_STATS = """
from notedta.metrics import _scipy_ufuncs, _z_quantile, ci_proportion

levels = (0.80, 0.95, 0.99)
cases = [(k, n, level) for level in levels for n in range(1, 60) for k in range(n + 1)]
bounds = [ci_proportion(k, n, level, "exact") for k, n, level in cases]
z = [_z_quantile(level) for level in levels]
ufuncs = _scipy_ufuncs()
assert "scipy.special" not in sys.modules

import scipy.special
from scipy.stats import beta, norm

assert scipy.special.betaincinv is ufuncs.betaincinv
assert scipy.special.ndtri is ufuncs.ndtri
assert _scipy_ufuncs() is ufuncs
for (k, n, level), (low, high) in zip(cases, bounds):
    alpha = 1.0 - level
    want_low = 0.0 if k == 0 else float(beta.ppf(alpha / 2.0, k, n - k + 1))
    want_high = 1.0 if k == n else float(beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    assert (low.hex(), high.hex()) == (want_low.hex(), want_high.hex()), (k, n, level)
assert z[1] == 1.959964
for level, got in zip(levels, z):
    if level != 0.95:
        assert got.hex() == float(norm.ppf(1.0 - (1.0 - level) / 2.0)).hex(), level
"""


def test_ufuncs_loaded_alone_equal_scipy_stats_loaded_after():
    # The quantiles are computed before scipy.special or scipy.stats is
    # imported, then checked bit for bit against scipy.stats; a full
    # `import scipy.special` afterwards reuses the very same ufuncs.
    assert _modules_loaded_by(_QUANTILES_THEN_SCIPY_STATS, ("scipy.stats",)) == ["scipy.stats"]


def test_import_notedta_loads_no_submodule():
    # dir() still lists every public name before any is loaded.
    setup = ("import notedta\n"
             "assert [n for n in dir(notedta) if n[0] != '_'] == sorted(notedta.__all__)")
    assert _modules_loaded_by(setup, _SUBMODULES) == []


@pytest.mark.parametrize(
    "setup, absent",
    [
        ("import notedta.cli", ("notedta.evaluate", "notedta.ingest")),
        (_RUN_CLI.format(argv=["classify", "/dev/null"]), ("notedta.evaluate", "notedta.ingest")),
        (_RUN_CLI.format(argv=["synth", "{d}/s.csv", "--preset", "figS1-hbv"]),
         ("notedta.evaluate",)),
    ],
    ids=["import-cli", "classify", "synth"],
)
def test_cli_loads_only_what_the_command_runs(cli_inputs, setup, absent):
    loaded = _modules_loaded_by(setup.replace("{d}", str(cli_inputs)), _SUBMODULES)
    assert "notedta.classifier" in loaded
    # perfbench's import probe times notedta.metrics inside `import notedta.cli`.
    assert "notedta.metrics" in loaded
    assert not set(absent) & set(loaded), loaded


def test_classify_without_site_loads_no_importlib_resources(cli_inputs):
    # Under -S no site hook loads them first. importlib.resources would pull
    # in tempfile, typing and zipfile to read the built-in lexicon.
    argv = ["classify", f"{cli_inputs}/notes.txt"]
    watch = ("importlib.resources", "tempfile", "typing", "zipfile")
    assert _modules_loaded_by(_RUN_CLI.format(argv=argv), watch, flags=("-S",)) == []


# The package's public names, by the submodule that defines each.
_EXPORTED = {
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
    "serology": ("SerologyThresholds", "classify_marker"),
    "synth": ("SynthesisSpec", "synthesize_exact", "synthesize_random"),
}


def test_lazy_exports_are_the_submodules_objects():
    import importlib

    public = sorted([*_EXPORTED, *(n for names in _EXPORTED.values() for n in names)])
    for module, names in _EXPORTED.items():
        defining = importlib.import_module(f"notedta.{module}")
        assert getattr(notedta, module) is defining
        for name in names:
            assert getattr(notedta, name) is getattr(defining, name), name
    # `cli` is listed too once imported, as it was before.
    assert {n for n in dir(notedta) if not n.startswith("_")} - {"cli"} == set(public)
    assert sorted(notedta.__all__) == public
    namespace = {}
    exec("from notedta import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == public
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        notedta.nope


# -- likelihood ratio confidence intervals -----------------------------------

@pytest.mark.parametrize(
    "table,which,expected",
    [
        (HBV_TABLE, "lr_pos", (1.61, 2.56)),
        (HBV_TABLE, "lr_neg", (0.09, 0.37)),
        (HCV_TABLE, "lr_pos", (0.92, 1.27)),
        (HCV_TABLE, "lr_neg", (0.34, 1.40)),
    ],
)
def test_lr_intervals_match_reference(table, which, expected):
    low, high = ci_likelihood_ratio(table, which)
    assert low == pytest.approx(expected[0], abs=0.02)
    assert high == pytest.approx(expected[1], abs=0.02)


def test_lr_interval_requires_nonzero_cells():
    assert ci_likelihood_ratio(ContingencyTable(0, 5, 3, 4), "lr_pos") is None
    assert ci_likelihood_ratio(ContingencyTable(5, 0, 3, 4), "lr_pos") is None
    assert ci_likelihood_ratio(ContingencyTable(5, 4, 0, 3), "lr_neg") is None
    assert ci_likelihood_ratio(ContingencyTable(5, 4, 3, 0), "lr_neg") is None


def test_lr_haldane_correction_defined_with_zero_cell():
    bounds = ci_likelihood_ratio(ContingencyTable(5, 0, 3, 4), "lr_pos", haldane=True)
    assert bounds is not None and bounds[0] > 0


# -- oracle equivalence -------------------------------------------------------

def _naive_panel(tp, fp, fn, tn):
    """Independently coded straight-from-definition evaluator."""
    sn = tp / (tp + fn) if tp + fn else None
    sp = tn / (tn + fp) if tn + fp else None
    ppv = tp / (tp + fp) if tp + fp else None
    npv = tn / (tn + fn) if tn + fn else None
    if sn is None or sp is None:
        lr_pos = lr_neg = None
    else:
        if sp == 1.0:
            lr_pos = math.inf if sn > 0 else None
        else:
            lr_pos = sn / (1 - sp)
        if sp == 0.0:
            lr_neg = math.inf if sn < 1 else None
        else:
            lr_neg = (1 - sn) / sp
    return sn, sp, ppv, npv, lr_pos, lr_neg


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_brute_force_oracle_equivalence():
    for tp, fp, fn, tn in itertools.product(range(7), repeat=4):
        p = compute_metrics(ContingencyTable(tp, fp, fn, tn))
        expected = _naive_panel(tp, fp, fn, tn)
        got = (p.sn.value, p.sp.value, p.ppv.value, p.npv.value, p.lr_pos.value, p.lr_neg.value)
        for e, g in zip(expected, got):
            assert _same(e, g), (tp, fp, fn, tn, expected, got)


# -- identities ---------------------------------------------------------------

def test_lr_and_bayes_identities_random_tables():
    rng = random.Random(7)
    for _ in range(10_000):
        tp, fp, fn, tn = (rng.randint(1, 200) for _ in range(4))
        p = compute_metrics(ContingencyTable(tp, fp, fn, tn))
        sn, sp = p.sn.value, p.sp.value
        assert p.lr_pos.value == pytest.approx(sn / (1 - sp), rel=1e-12)
        assert p.lr_neg.value == pytest.approx((1 - sn) / sp, rel=1e-12)
        prev = p.prevalence_sample
        ppv, npv = adjust_predictive_values(sn, sp, prev)
        assert ppv == pytest.approx(p.ppv.value, rel=1e-12)
        assert npv == pytest.approx(p.npv.value, rel=1e-12)


@given(
    tp=st.integers(0, 500), fp=st.integers(0, 500),
    fn=st.integers(0, 500), tn=st.integers(0, 500),
)
def test_ci_contains_point_estimate(tp, fp, fn, tn):
    p = compute_metrics(ContingencyTable(tp, fp, fn, tn))
    for est in (p.sn, p.sp, p.ppv, p.npv, p.lr_pos, p.lr_neg):
        if est.defined and est.ci_low is not None and not math.isinf(est.value):
            assert est.ci_low <= est.value <= est.ci_high


def test_rational_exactness():
    p = compute_metrics(HBV_TABLE)
    assert p.sn.value * 77 == pytest.approx(69, abs=1e-12)
    assert p.sp.value * 102 == pytest.approx(57, abs=1e-12)


# -- prevalence adjustment ----------------------------------------------------

def test_adjust_predictive_values_worked_example():
    ppv, npv = adjust_predictive_values(0.90, 0.56, 0.5)
    assert ppv == pytest.approx(0.6716417910447762, abs=1e-12)


def test_adjust_zero_prevalence():
    ppv, npv = adjust_predictive_values(0.9, 0.56, 0.0)
    assert ppv == 0.0
    assert npv == 1.0


def test_adjust_undefined_ppv():
    # sn = 0 and sp = 1: no test positives at any prevalence, so PPV is undefined.
    ppv, npv = adjust_predictive_values(0.0, 1.0, 0.25)
    assert ppv is None
    assert npv == 0.75


def test_adjust_rejects_out_of_range():
    with pytest.raises(ValueError):
        adjust_predictive_values(1.2, 0.5, 0.5)


# -- display rounding ---------------------------------------------------------

def test_display_roundings():
    assert format_proportion(69 / 77) == "0.90"
    assert format_proportion(57 / 102) == "0.56"
    assert format_proportion(69 / 114) == "0.61"
    assert format_proportion(57 / 65) == "0.88"
    assert format_percent(69 / 77) == "90"
    assert format_percent(57 / 65) == "88"
    assert format_percent_1dp(0.80599) == "80.6"
    assert format_percent_1dp(1.0) == "100"
    assert format_proportion(2.0312) == "2.03"
    assert format_proportion(None) == "n.d."
    assert format_proportion(math.inf) == "+inf"


def test_wilson_available_via_config():
    p = compute_metrics(HBV_TABLE, CiConfig(proportion_method="score"))
    assert p.sn.method == "wilson"
    assert p.sn.ci_low == pytest.approx(0.808156248232512, abs=1e-9)
