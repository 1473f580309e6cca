import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import beta

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
    _logit_estimate,
    _z_quantile,
)
from notedta.model import SerologyStatus
from launch import run_python

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


_MALFORMED_PAIRS = [("Positive", POS), (1, POS), (True, POS), (None, NEG),
                    ("positive", "positive"), ("negative", None), ("positive", True)]


@pytest.mark.parametrize("pair", _MALFORMED_PAIRS)
def test_build_contingency_rejects_what_it_cannot_count(pair):
    # Each used to land in a cell: an unknown label counted as a negative
    # test, an unknown truth as a positive or negative marker.
    with pytest.raises(ValueError, match="^(test label|truth) is not"):
        build_contingency([("positive", POS), pair])


def _oracle_build_contingency(pairs) -> tuple[ContingencyTable, int]:
    """The loop `build_contingency` counted with before it used a Counter."""
    positive, negative, missing = (SerologyStatus.POSITIVE, SerologyStatus.NEGATIVE,
                                   SerologyStatus.MISSING)
    tp = fp = fn = tn = n_missing = 0
    for test_label, truth in pairs:
        test_pos = test_label == "positive"
        if not test_pos and test_label != "negative":
            raise ValueError(f"test label is not 'positive' or 'negative': {test_label!r}")
        if truth is positive:
            if test_pos:
                tp += 1
            else:
                fn += 1
        elif truth is negative:
            if test_pos:
                fp += 1
            else:
                tn += 1
        elif truth is missing:
            n_missing += 1
        else:
            raise ValueError(f"truth is not a SerologyStatus: {truth!r}")
    return ContingencyTable(tp, fp, fn, tn), n_missing


_VALID_PAIRS = [(label, truth) for label in ("positive", "negative") for truth in (POS, NEG, MIS)]
_PAIR = st.sampled_from(_VALID_PAIRS + _MALFORMED_PAIRS)


def _outcome(build, pairs):
    try:
        return build(pairs)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


# Each pair as a tuple, as a list, or with a third element.
@given(st.lists(st.one_of(_PAIR, _PAIR.map(list), _PAIR.map(lambda pair: (*pair, MIS))),
                max_size=50))
def test_build_contingency_matches_the_loop_it_replaced(pairs):
    assert _outcome(build_contingency, pairs) == _outcome(_oracle_build_contingency, pairs)


def test_build_contingency_rejects_a_pair_that_is_not_iterable():
    # The loop it replaced raised TypeError from unpacking.
    with pytest.raises(TypeError):
        _oracle_build_contingency([("positive", POS), 7])
    with pytest.raises(ValueError, match=r"^not a \(test label, truth\) pair: "):
        build_contingency([("positive", POS), 7])


@pytest.mark.parametrize("pair", [(["positive"], POS), ("positive", {POS})])
def test_build_contingency_rejects_a_pair_holding_an_unhashable_value(pair):
    with pytest.raises(ValueError, match=r"^not a \(test label, truth\) pair: unhashable"):
        build_contingency([("positive", POS), pair])


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ContingencyTable(-1, 0, 0, 0)


@pytest.mark.parametrize("count", [True, 1.0, "1"])
def test_count_of_another_type_rejected(count):
    # A bool would be written to report.json as `true`, which is not a count.
    with pytest.raises(ValueError, match="tp must be a non-negative integer"):
        ContingencyTable(count, 0, 0, 0)


@pytest.mark.parametrize("level", ["0.9", None, 1])
def test_ci_level_of_another_type_rejected(level):
    with pytest.raises(ValueError, match=r"^confidence level must be in \(0,1\)"):
        CiConfig(level)


@pytest.mark.parametrize("interval", [
    lambda level: ci_proportion(5, 10, level, "exact"),
    lambda level: ci_proportion(5, 10, level, "score"),
    lambda level: ci_likelihood_ratio(ContingencyTable(5, 3, 2, 7), "lr_pos", level),
], ids=["exact", "score", "lr"])
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -1.0, math.nan])
def test_interval_at_a_level_outside_0_1_rejected(interval, level):
    # Not (nan, nan), nor a low bound above the high one: CiConfig's own error.
    with pytest.raises(ValueError) as err:
        interval(level)
    with pytest.raises(ValueError) as config_err:
        CiConfig(level)
    assert str(err.value) == str(config_err.value)


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


@pytest.mark.parametrize("count", [1.5, True, 2.0])
@pytest.mark.parametrize("name", ["successes", "trials"])
def test_ci_proportion_rejects_a_count_of_another_type(name, count):
    # 1.5 successes of 2 used to give a score interval, and True an exact one.
    counts = {"successes": 1, "trials": 2, name: count}
    for method in ("exact", "score"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count!r}$"):
            ci_proportion(**counts, method=method)


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


def test_logit_bounds_within_16_ulps_of_mpmath_and_inside_0_1():
    # expit(logit(k/n) -/+ z * sqrt(1/k + 1/(n-k))) evaluated at 50 digits
    # with the same float z the code uses, for every 0 < k < n <= 60. The
    # largest error measured is 8.4 ulps, at k = 1, n = 57, level 0.99.
    with mpmath.workdps(50):
        for level, n in itertools.product(LEVELS, range(2, 61)):
            z = mpmath.mpf(_z_quantile(level))
            ci = CiConfig(level=level)
            for k in range(1, n):
                estimate = _logit_estimate(k, n, ci)
                logit = mpmath.log(mpmath.mpf(k) / (n - k))
                half = z * mpmath.sqrt(mpmath.mpf(1) / k + mpmath.mpf(1) / (n - k))
                for got, centre in ((estimate.ci_low, logit - half),
                                    (estimate.ci_high, logit + half)):
                    exact = 1 / (1 + mpmath.exp(-centre))
                    assert 0.0 <= got <= 1.0, (k, n, level)
                    assert abs(got - exact) <= 16 * math.ulp(float(exact)), (k, n, level)


def test_z_quantile_within_4_ulps_of_mpmath():
    # The quantile at the float lower-tail probability the code computes,
    # evaluated at 50 digits. The largest error measured is 3.55 ulps, at
    # level 0.043 (z = 0.054); at 0.9 it is 0.84 ulps. scipy's ndtri of the
    # upper tail read 2.84 ulps at 0.9 and 69.8 at 0.999.
    assert _z_quantile(0.95) == 1.959964  # fixed for stable reports
    # Only at exactly 0.95, the level emit_report leaves out of report.json.
    for level in (math.nextafter(0.95, 0.0), math.nextafter(0.95, 1.0)):
        assert _z_quantile(level) == -NormalDist().inv_cdf((1.0 - level) / 2.0), level
    with mpmath.workdps(50):
        for level in (*LEVELS, *(i / 1000 for i in range(1, 1000))):
            if level == 0.95:
                continue
            exact = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf((1.0 - level) / 2.0))
            got = _z_quantile(level)
            assert abs(got - exact) <= 4 * math.ulp(float(exact)), level


_SUBMODULES = tuple(f"notedta.{m}" for m in (
    "_ibeta", "classifier", "cli", "evaluate", "ingest", "metrics", "model", "serology", "synth"))
_RUN_CLI = """
import contextlib, io
from notedta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


def _modules_after(setup: str, *flags: str) -> set[str]:
    """The modules a fresh interpreter started with `flags` holds after running `setup`."""
    proc = run_python(*flags, "-c", f"import sys\n{setup}\nprint(*sys.modules)")
    assert proc.returncode == 0, proc.stderr.decode()
    return set(proc.stdout.decode().splitlines()[-1].split())


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    from notedta.cli import main

    d = tmp_path_factory.mktemp("startup")
    assert main(["synth", str(d / "cohort.csv"), "--preset", "figS1-hbv", "--seed", "1"]) == 0
    (d / "notes.txt").write_text("Known Hep C\n?Hep B\nscreen\n\n", encoding="utf-8")
    return d


# Only exact intervals need numpy and scipy.
_NUMPY_SCIPY = ("numpy", "scipy", "scipy.special", "scipy.stats")
# `import dataclasses` pulls in inspect, ast, dis and tokenize: ~10 ms of
# start-up. `decimal` is for the display formatters (~2 ms), `pathlib` for
# `evaluate --outdir` (6-8 ms with shutil, urllib.parse and ipaddress) and
# `json` for reports. Only a z quantile at a level other than 0.95 loads
# `statistics`: the demographic summary computes its mean and SD from exact
# integer sums.
_UNUSED_STDLIB = ("dataclasses", "inspect", "decimal", "json", "pathlib", "statistics")
# Exact intervals load numpy and scipy.special._ufuncs_cxx alone. scipy's
# package init (scipy.__config__, scipy._lib._ccallback) and the betaincinv
# ufunc's module, scipy.special._ufuncs, would cost ~5 MB and ~20 ms; a full
# `import scipy.special` ~0.5 s more, ~0.3 s of it in its array-API layer
# (numpy.f2py, charset_normalizer); scipy.stats ~1 s. The stand-ins for
# scipy and scipy.special are gone again. numpy still loads inspect, but
# nothing loads dataclasses.
_BEYOND_UFUNCS_CXX = ("scipy", "scipy.special", "scipy.__config__", "scipy._lib._ccallback",
                      "scipy.special._ufuncs", "scipy.special._support_alternative_backends",
                      "scipy._lib._array_api", "scipy.stats", "dataclasses")
# `import notedta.cli` keeps loading notedta.metrics, though only `evaluate`
# computes metrics: perfbench's import probe reads metrics.import_s from the
# `-X importtime` lines of that import, and stops when it finds none.
_CLI_CORE = ("notedta.classifier", "notedta.metrics")
# The modules only `evaluate` loads, and with `ingest` its whole pipeline.
_EVALUATE_ONLY = ("notedta.evaluate", "notedta.serology")
_PIPELINE = (*_EVALUATE_ONLY, "notedta.ingest")
# Only `synth` loads synth.
_SYNTH = ("notedta.synth",)

# importlib.resources would pull in tempfile, typing and zipfile to read the
# built-in lexicon.
_RESOURCES = ("importlib.resources", "tempfile", "typing", "zipfile")

# Setup -> (the modules it must load, the modules it must not load); any
# other module is free. A list is a command run through cli.main in {d}.
LOADS = {
    "import-notedta": ("import notedta", (), _NUMPY_SCIPY + _SUBMODULES),
    "import-cli": ("import notedta.cli", _CLI_CORE, _NUMPY_SCIPY + _PIPELINE + _SYNTH),
    "classify": (["classify", "{d}/notes.txt"], _CLI_CORE,
                 _NUMPY_SCIPY + _UNUSED_STDLIB + _PIPELINE + _SYNTH + _RESOURCES),
    "synth-preset": (["synth", "{d}/a.csv", "--preset", "figS1-hcv"], _CLI_CORE + _SYNTH,
                     _NUMPY_SCIPY + _UNUSED_STDLIB + _EVALUATE_ONLY),
    "synth-n": (["synth", "{d}/b.csv", "--n", "200", "--seed", "3"], _SYNTH,
                _NUMPY_SCIPY + _UNUSED_STDLIB),
    "validate": (["validate", "{d}/cohort.csv"], _CLI_CORE,
                 _NUMPY_SCIPY + _UNUSED_STDLIB + _EVALUATE_ONLY + _SYNTH),
    "evaluate-score": (["evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir",
                        "{d}/score", "--ci-method", "score"], (),
                       _NUMPY_SCIPY + ("dataclasses", "inspect", "statistics") + _SYNTH),
    "evaluate-exact": (["evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir",
                        "{d}/exact"], ("notedta._ibeta", "numpy", "scipy.special._ufuncs_cxx"),
                       _BEYOND_UFUNCS_CXX + _SYNTH),
    # The z quantile at another level comes from the standard library.
    "evaluate-score-0.9": (["evaluate", "{d}/cohort.csv", "--condition", "hbv", "--outdir",
                            "{d}/level", "--ci-method", "score", "--ci-level", "0.9"],
                           ("statistics",),
                           _NUMPY_SCIPY + ("dataclasses", "inspect") + _SYNTH),
}

# Under -S no site hook loads anything first. numpy and scipy go back on the
# path by hand, so a stray import of them shows as a loaded module.
_SCIPY_ON_PATH = "sys.path.extend({!r})\n".format(
    sorted({str(Path(m.__file__).parents[1]) for m in (np, scipy)}))


@pytest.mark.parametrize("row", LOADS)
def test_setup_loads_what_it_needs_and_nothing_it_must_not(cli_inputs, row):
    setup, must, must_not = LOADS[row]
    if isinstance(setup, list):
        setup = _RUN_CLI.format(argv=[a.format(d=cli_inputs) for a in setup])
    loaded = _modules_after(_SCIPY_ON_PATH + setup, "-S")
    missing, stray = sorted(set(must) - loaded), sorted(set(must_not) & loaded)
    assert not (missing or stray), f"did not load {missing}; loaded {stray}"


def test_no_module_of_the_package_imports_dataclasses():
    for path in Path(notedta.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


_BOUNDS_THEN_SCIPY_STATS = """
from notedta.metrics import ci_proportion

levels = (0.80, 0.95, 0.99)
cases = [(k, n, level) for level in levels for n in range(1, 60) for k in range(n + 1)]
bounds = [ci_proportion(k, n, level, "exact") for k, n, level in cases]
assert "notedta._ibeta" in sys.modules
assert not {"scipy", "scipy.special", "scipy.special._ufuncs"} & set(sys.modules)

import scipy.special
from scipy.stats import beta

assert "scipy.__config__" in sys.modules and "scipy._lib._array_api" in sys.modules
for (k, n, level), (low, high) in zip(cases, bounds):
    alpha = 1.0 - level
    want_low = 0.0 if k == 0 else float(beta.ppf(alpha / 2.0, k, n - k + 1))
    want_high = 1.0 if k == n else float(beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    assert (low.hex(), high.hex()) == (want_low.hex(), want_high.hex()), (k, n, level)
    assert ci_proportion(k, n, level, "exact") == (low, high)
"""


def test_ibeta_inv_loaded_alone_equals_scipy_stats_loaded_after():
    # The bounds are computed before scipy or scipy.special is imported; a
    # later `import scipy.stats` still runs both packages in full, and its
    # beta.ppf agrees with them bit for bit.
    assert "scipy.stats" in _modules_after(_BOUNDS_THEN_SCIPY_STATS)


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



@pytest.mark.parametrize("call", [
    lambda table: ci_likelihood_ratio(table, "lr_pos"),
    lambda table: compute_metrics(table),
], ids=["ci_likelihood_ratio", "compute_metrics"])
@pytest.mark.parametrize("table", [(1, 2, 3, 4), [1, 2, 3, 4], None], ids=repr)
def test_table_must_be_a_contingency_table(call, table):
    with pytest.raises(ValueError, match="table must be a ContingencyTable"):
        call(table)


@pytest.mark.parametrize("ci", ["score", (0.95, "exact"), None], ids=repr)
def test_compute_metrics_ci_must_be_a_ci_config(ci):
    with pytest.raises(ValueError, match="ci must be a CiConfig"):
        compute_metrics(ContingencyTable(1, 2, 3, 4), ci)

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


# Checked by exact type, as `EvaluationConfig.cutoff` is: a bool is an int,
# and a str or another number type is no probability here.
@pytest.mark.parametrize("args, name", [
    ((True, 0.5, 0.1), "sn"),
    ((0.9, False, 0.1), "sp"),
    ((0.9, 0.5, "0.1"), "prevalence"),
    ((0.9, 0.5, None), "prevalence"),
    ((Fraction(9, 10), 0.5, 0.1), "sn"),
    ((0.9, np.float64(0.5), 0.1), "sp"),
    ((0.9, 0.5, math.nan), "prevalence"),
    ((0.9, -0.0001, 0.1), "sp"),
])
def test_adjust_rejects_what_is_not_a_probability(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int or float in \\[0,1\\]"):
        adjust_predictive_values(*args)


def test_adjust_takes_int_probabilities():
    assert adjust_predictive_values(1, 0, 1) == adjust_predictive_values(1.0, 0.0, 1.0)


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
