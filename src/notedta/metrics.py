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

Only an exact bound loads numpy and scipy, for scipy's inverse incomplete
beta function (`_ibeta`); see there for threads. The normal quantile z is
fixed at 95%, and at any other level comes from `statistics.NormalDist`.
"""

import math
from collections import Counter, namedtuple

from .model import SerologyStatus, checked_make

# Standard-normal two-sided quantile at 95%, fixed so reports are stable.
Z_95 = 1.959964


def _z_quantile(level: float) -> float:
    if level == 0.95:  # the rule emit_report uses to leave the level out
        return Z_95
    # Imported here, as only another level needs it. The lower tail keeps
    # every digit of alpha/2; 1 - alpha/2 loses them, and at the largest
    # level below 1 it rounds to 1.0, whose quantile is infinite.
    from statistics import NormalDist

    return -NormalDist().inv_cdf((1.0 - level) / 2.0)


def _check_level(level) -> None:
    """The one rule for a confidence level: a float strictly inside (0, 1)."""
    if not (isinstance(level, float) and 0.0 < level < 1.0):
        raise ValueError(f"confidence level must be in (0,1): {level!r}")


class CiConfig(namedtuple("CiConfig", "level proportion_method")):
    """How the panel's intervals are computed.

    level: the confidence level of every interval.
    proportion_method: "exact" (Clopper-Pearson) or "score" (Wilson).
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, level: float = 0.95, proportion_method: str = "exact"):
        _check_level(level)
        if proportion_method not in ("exact", "score"):
            raise ValueError(f"unknown proportion CI method: {proportion_method!r}")
        return tuple.__new__(cls, (level, proportion_method))


class ContingencyTable(namedtuple("ContingencyTable", "tp fp fn tn")):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, tp: int, fp: int, fn: int, tn: int):
        for name, v in (("tp", tp), ("fp", fp), ("fn", fn), ("tn", tn)):
            if type(v) is not int or v < 0:  # a bool would be written as JSON true
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

    ``test_label`` is the classifier's "positive" or "negative", ``truth`` a
    SerologyStatus; anything else raises ValueError. Pairs with missing
    truth are excluded; their count is returned alongside the table.
    """
    rows = map(tuple, pairs)  # a `pairs` that is not iterable stays a TypeError
    try:
        counts = Counter(rows)
    except TypeError as err:  # a pair that is not iterable, or holds an unhashable value
        raise ValueError(f"not a (test label, truth) pair: {err}") from None
    # Distinct pairs in first-seen order, so the first bad pair is the one reported.
    for test_label, truth in counts:
        if test_label != "positive" and test_label != "negative":
            raise ValueError(f"test label is not 'positive' or 'negative': {test_label!r}")
        if type(truth) is not SerologyStatus:
            raise ValueError(f"truth is not a SerologyStatus: {truth!r}")
    positive, negative, missing = SerologyStatus
    table = ContingencyTable(counts["positive", positive], counts["positive", negative],
                             counts["negative", positive], counts["negative", negative])
    return table, counts["positive", missing] + counts["negative", missing]


def ci_proportion(
    successes: int, trials: int, level: float = 0.95, method: str = "exact"
) -> tuple[float, float]:
    """Two-sided binomial confidence interval for ``successes/trials``.

    ``exact`` is the equal-tailed Clopper-Pearson interval (beta quantile
    form), ``score`` the Wilson interval. ``level`` must be a float in
    (0, 1), as for `CiConfig`.
    """
    _check_level(level)
    for name, v in (("successes", successes), ("trials", trials)):
        if type(v) is not int:  # as in ContingencyTable: a float or a bool is no count
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes must be in [0, trials]")
    alpha = 1.0 - level
    k, n = successes, trials
    if method == "exact":
        from ._ibeta import ibeta_inv

        low = 0.0 if k == 0 else ibeta_inv(k, n - k + 1, alpha / 2.0)
        high = 1.0 if k == n else ibeta_inv(k + 1, n - k, 1.0 - alpha / 2.0)
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
    table: ContingencyTable, which: str, level: float = 0.95
) -> tuple[float, float] | None:
    """Log-method confidence interval for LR+ or LR-.

    Requires tp >= 1 and fp >= 1 (LR+), or fn >= 1 and tn >= 1 (LR-);
    returns None when the precondition fails. ``level`` must be a float in
    (0, 1), as for `CiConfig`.
    """
    _check_level(level)
    if type(table) is not ContingencyTable:
        raise ValueError(f"table must be a ContingencyTable: {table!r}")
    x, x_tot, y, y_tot = _lr_cells(table.tp, table.fp, table.fn, table.tn, which)
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
    bounds = ci_likelihood_ratio(table, which, ci.level)
    if bounds is None:
        return MetricEstimate(value, method="log", note="interval needs all relevant cells >= 1")
    return MetricEstimate(value, bounds[0], bounds[1], method="log")


def compute_metrics(table: ContingencyTable, ci: CiConfig = CiConfig()) -> MetricPanel:
    """The six-metric diagnostic accuracy panel for a 2x2 table."""
    if type(table) is not ContingencyTable:
        raise ValueError(f"table must be a ContingencyTable: {table!r}")
    if type(ci) is not CiConfig:
        raise ValueError(f"ci must be a CiConfig: {ci!r}")
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
    """PPV/NPV at an externally supplied prevalence (Bayes identities).

    Each argument must be an `int` or `float` (not a `bool`) in [0, 1].
    """
    for name, v in (("sn", sn), ("sp", sp), ("prevalence", prevalence)):
        # By exact type, as a bool is an int; the range rules out nan.
        if not (type(v) in (int, float) and 0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be an int or float in [0,1]: {v!r}")
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

