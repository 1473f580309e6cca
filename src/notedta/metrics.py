"""2x2 contingency tables and the diagnostic-accuracy panel.

Point estimates are always computed from raw counts, never from rounded
intermediate metrics. A metric whose denominator is zero is *undefined*
(rendered ``n.d.``), which is a value, not an error; a positive likelihood
ratio with perfect specificity and non-zero sensitivity is infinite
(rendered ``+inf``).

Confidence intervals:

* proportions (Sn, Sp): exact Clopper-Pearson by default, Wilson score
  behind the ``score`` method flag;
* predictive values (PPV, NPV): logit-transformed intervals;
* likelihood ratios: the standard log method,
  ``exp(ln(LR) +/- z * se)`` with
  ``se = sqrt(1/a - 1/(a+b) + 1/c - 1/(c+d))`` over the relevant cells.
"""

import math
from collections import namedtuple

from .model import SerologyStatus, checked_make

# Standard-normal two-sided quantile at 95%, fixed so reports are stable.
Z_95 = 1.959964


def _scipy_ufuncs():
    """scipy's compiled `scipy.special._ufuncs`, loaded without `scipy.special`.

    Its `betaincinv` and `ndtri` give the quantiles of scipy.stats' beta.ppf
    and norm.ppf bit for bit (tests/test_metrics.py). Only an exact or
    non-95% `evaluate` computes a quantile, so only it loads scipy. A full
    `import scipy.special` would take about 0.2 s more than `_ufuncs` with
    numpy (0.31 s against 0.11 s on a 2-vCPU host), nearly all of it in an
    array-API layer notedta never calls. So, unless `scipy.special` is
    loaded already, a bare package module stands in for it while `_ufuncs`
    loads, and is removed again; a later `import scipy.special` runs in full
    and reuses the same ufuncs. The CLI is single-threaded. In a threaded
    caller, the first exact bound must not race another thread's first
    `import scipy.special`, which could find the stand-in.
    """
    import importlib.util
    import sys

    name = "scipy.special._ufuncs"
    if name in sys.modules or "scipy.special" in sys.modules:
        return importlib.import_module(name)
    sys.modules["scipy.special"] = importlib.util.module_from_spec(
        importlib.util.find_spec("scipy.special"))
    try:
        return importlib.import_module(name)
    finally:
        del sys.modules["scipy.special"]


def _z_quantile(level: float) -> float:
    if abs(level - 0.95) < 1e-12:
        return Z_95
    return float(_scipy_ufuncs().ndtri(1.0 - (1.0 - level) / 2.0))


class CiConfig(namedtuple("CiConfig", "level proportion_method haldane")):
    """How the panel's intervals are computed.

    level: the confidence level of every interval.
    proportion_method: "exact" (Clopper-Pearson) or "score" (Wilson).
    haldane: add 0.5 to all four cells for the LR intervals.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, level: float = 0.95, proportion_method: str = "exact",
                haldane: bool = False):
        if not (0.0 < level < 1.0):
            raise ValueError(f"confidence level must be in (0,1): {level}")
        if proportion_method not in ("exact", "score"):
            raise ValueError(f"unknown proportion CI method: {proportion_method!r}")
        return tuple.__new__(cls, (level, proportion_method, haldane))


class ContingencyTable(namedtuple("ContingencyTable", "tp fp fn tn")):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, tp: int, fp: int, fn: int, tn: int):
        for name, v in (("tp", tp), ("fp", fp), ("fn", fn), ("tn", tn)):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        return tuple.__new__(cls, (tp, fp, fn, tn))

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def diseased(self) -> int:
        return self.tp + self.fn


class MetricEstimate(namedtuple("MetricEstimate", "value ci_low ci_high method note",
                                defaults=(None, None, "", ""))):
    """Point estimate plus interval; ``None`` marks an undefined quantity."""

    __slots__ = ()

    @property
    def defined(self) -> bool:
        return self.value is not None


# The panel's estimates, in the order every report lists them.
METRICS = ("sn", "sp", "ppv", "npv", "lr_pos", "lr_neg")


class MetricPanel(namedtuple("MetricPanel", (*METRICS, "prevalence_sample"))):
    """The `METRICS` estimates, in that order, and the sample prevalence."""

    __slots__ = ()


def build_contingency(pairs) -> tuple[ContingencyTable, int]:
    """Tally (test_label, truth) pairs into a 2x2 table.

    ``test_label`` is the string "positive"/"negative" (or a bool), truth is
    a SerologyStatus. Pairs with missing truth are excluded; their count is
    returned alongside the table.
    """
    tp = fp = fn = tn = 0
    n_missing = 0
    for test_label, truth in pairs:
        if truth is SerologyStatus.MISSING:
            n_missing += 1
            continue
        test_pos = test_label in (True, "positive")
        truth_pos = truth is SerologyStatus.POSITIVE
        if test_pos and truth_pos:
            tp += 1
        elif test_pos:
            fp += 1
        elif truth_pos:
            fn += 1
        else:
            tn += 1
    return ContingencyTable(tp, fp, fn, tn), n_missing


def ci_proportion(
    successes: int, trials: int, level: float = 0.95, method: str = "exact"
) -> tuple[float, float]:
    """Two-sided binomial confidence interval for ``successes/trials``.

    ``exact`` is the equal-tailed Clopper-Pearson interval (beta quantile
    form), ``score`` the Wilson interval.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes must be in [0, trials]")
    alpha = 1.0 - level
    k, n = successes, trials
    if method == "exact":
        betaincinv = _scipy_ufuncs().betaincinv
        low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
        high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
        return low, high
    if method == "score":
        z = _z_quantile(level)
        p = k / n
        centre = p + z * z / (2.0 * n)
        half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
        denom = 1.0 + z * z / n
        # (centre - half) / denom cancels; (centre - half)(centre + half) is
        # p*p*denom, so this lower bound is exactly 0 at k == 0.
        high = 1.0 if k == n else (centre + half) / denom
        return p * p / (centre + half), high
    raise ValueError(f"unknown method: {method!r}")


def _lr_cells(tp, fp, fn, tn, which: str):
    """(x, x_total, y, y_total) with LR = (x / x_total) / (y / y_total)."""
    if which == "lr_pos":
        return tp, tp + fn, fp, fp + tn
    if which == "lr_neg":
        return fn, tp + fn, tn, fp + tn
    raise ValueError(f"which must be 'lr_pos' or 'lr_neg': {which!r}")


def ci_likelihood_ratio(
    table: ContingencyTable,
    which: str,
    level: float = 0.95,
    haldane: bool = False,
) -> tuple[float, float] | None:
    """Log-method confidence interval for LR+ or LR-.

    Requires tp >= 1 and fp >= 1 (LR+), or fn >= 1 and tn >= 1 (LR-);
    returns None when the precondition fails. With ``haldane`` set, 0.5 is
    added to every cell before evaluation.
    """
    tp, fp, fn, tn = table.tp, table.fp, table.fn, table.tn
    if haldane:
        tp, fp, fn, tn = tp + 0.5, fp + 0.5, fn + 0.5, tn + 0.5
    x, x_tot, y, y_tot = _lr_cells(tp, fp, fn, tn, which)
    if x <= 0 or y <= 0:
        return None
    lr = (x / x_tot) / (y / y_tot)
    se = math.sqrt(1 / x - 1 / x_tot + 1 / y - 1 / y_tot)
    z = _z_quantile(level)
    return math.exp(math.log(lr) - z * se), math.exp(math.log(lr) + z * se)


def _proportion_estimate(successes: int, trials: int, ci: CiConfig) -> MetricEstimate:
    if trials == 0:
        return MetricEstimate(None, note="zero denominator")
    low, high = ci_proportion(successes, trials, ci.level, ci.proportion_method)
    method = "clopper-pearson" if ci.proportion_method == "exact" else "wilson"
    return MetricEstimate(successes / trials, low, high, method=method)


def _logit_estimate(successes: int, trials: int, ci: CiConfig) -> MetricEstimate:
    if trials == 0:
        return MetricEstimate(None, note="zero denominator")
    p = successes / trials
    if successes == 0 or successes == trials:
        # Logit transform degenerates; report the point estimate only.
        return MetricEstimate(p, method="logit", note="degenerate logit interval")
    z = _z_quantile(ci.level)
    se = math.sqrt(1 / successes + 1 / (trials - successes))
    lo = math.log(p / (1 - p)) - z * se
    hi = math.log(p / (1 - p)) + z * se
    return MetricEstimate(p, 1 / (1 + math.exp(-lo)), 1 / (1 + math.exp(-hi)), method="logit")


_INFINITE_LR_NOTE = {"lr_pos": "specificity 1 with Sn > 0", "lr_neg": "specificity 0 with Sn < 1"}


def _lr_estimate(table: ContingencyTable, which: str, ci: CiConfig) -> MetricEstimate:
    x, x_tot, y, y_tot = _lr_cells(table.tp, table.fp, table.fn, table.tn, which)
    if x_tot == 0 or y_tot == 0:
        return MetricEstimate(None, note="undefined Sn or Sp")
    if y == 0:
        if x == 0:
            return MetricEstimate(None, note="0/0 likelihood ratio")
        return MetricEstimate(math.inf, method="log", note=_INFINITE_LR_NOTE[which])
    value = (x * y_tot) / (x_tot * y)
    bounds = ci_likelihood_ratio(table, which, ci.level, ci.haldane)
    if bounds is None:
        return MetricEstimate(value, method="log", note="interval needs all relevant cells >= 1")
    return MetricEstimate(value, bounds[0], bounds[1], method="log")


def compute_metrics(table: ContingencyTable, ci: CiConfig = CiConfig()) -> MetricPanel:
    """The six-metric diagnostic accuracy panel for a 2x2 table."""
    tp, fp, fn, tn = table.tp, table.fp, table.fn, table.tn
    return MetricPanel(
        sn=_proportion_estimate(tp, tp + fn, ci),
        sp=_proportion_estimate(tn, tn + fp, ci),
        ppv=_logit_estimate(tp, tp + fp, ci),
        npv=_logit_estimate(tn, tn + fn, ci),
        lr_pos=_lr_estimate(table, "lr_pos", ci),
        lr_neg=_lr_estimate(table, "lr_neg", ci),
        prevalence_sample=(tp + fn) / table.n if table.n > 0 else None,
    )


def adjust_predictive_values(
    sn: float, sp: float, prevalence: float
) -> tuple[float | None, float | None]:
    """PPV/NPV at an externally supplied prevalence (Bayes identities)."""
    for name, v in (("sn", sn), ("sp", sp), ("prevalence", prevalence)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be in [0,1]: {v}")
    p = prevalence
    ppv_num = sn * p
    ppv_den = sn * p + (1 - sp) * (1 - p)
    npv_num = sp * (1 - p)
    npv_den = sp * (1 - p) + (1 - sn) * p
    ppv = ppv_num / ppv_den if ppv_den > 0 else None
    npv = npv_num / npv_den if npv_den > 0 else None
    return ppv, npv


# ---------------------------------------------------------------------------
# Display rounding (the source tables print 2-dp proportions, integer or 1-dp
# percentages derived from them, and 2-dp likelihood ratios).


def _round_half_up(value: float, places: int):
    """`value` rounded half-up to `places` decimals, as a `decimal.Decimal`."""
    # Imported by the first formatter call: classify, synth and validate
    # format nothing.
    from decimal import ROUND_HALF_UP, Decimal

    q = Decimal(1).scaleb(-places)
    return Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP)


def format_proportion(value: float | None) -> str:
    """Proportion or likelihood ratio to two decimals, e.g. 0.8961 -> '0.90'.

    An undefined value shows as 'n.d.', an infinite one as '+inf'.
    """
    if value is None:
        return "n.d."
    if math.isinf(value):
        return "+inf"
    return str(_round_half_up(value, 2))

def format_percent(value: float | None) -> str:
    """Percentage derived from the 2-dp proportion: 0.8769 -> '88'.

    The proportion is rounded half-up to two decimals first, then shown as
    a whole percentage (0.8769 rounds to 0.88, shown as 88).
    """
    if value is None:
        return "n.d."
    if math.isinf(value):
        return "+inf"
    return str((_round_half_up(value, 2) * 100).to_integral_value())


def format_percent_1dp(value: float | None) -> str:
    """CI-bound percentage with one decimal: 0.80599 -> '80.6'; 1.0 -> '100'."""
    if value is None:
        return "n.d."
    pct = _round_half_up(value * 100, 1)
    whole = pct.to_integral_value()
    return str(whole if pct == whole else pct)

