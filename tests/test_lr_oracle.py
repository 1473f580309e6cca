"""Differential test: the folded likelihood-ratio code against the original.

`_oracle_ci_likelihood_ratio` and `_oracle_lr_estimate` are verbatim copies
of the two functions as they were before their lr_pos/lr_neg branches were
folded into one cell selection, except that `_oracle_lr_estimate` takes the
Haldane flag as an argument: the library has since dropped that option, and
now matches the oracle with it off. Every value, bound, method and note must
stay identical, floats bit for bit.
"""

import itertools
import math

import pytest

from notedta.metrics import (
    CiConfig,
    ContingencyTable,
    MetricEstimate,
    _lr_estimate,
    _z_quantile,
    ci_likelihood_ratio,
)


def _oracle_ci_likelihood_ratio(
    table: ContingencyTable,
    which: str,
    level: float = 0.95,
    haldane: bool = False,
) -> tuple[float, float] | None:
    if which not in ("lr_pos", "lr_neg"):
        raise ValueError(f"which must be 'lr_pos' or 'lr_neg': {which!r}")
    tp, fp, fn, tn = table.tp, table.fp, table.fn, table.tn
    if haldane:
        tp, fp, fn, tn = tp + 0.5, fp + 0.5, fn + 0.5, tn + 0.5
    if which == "lr_pos":
        if tp <= 0 or fp <= 0:
            return None
        lr = (tp / (tp + fn)) / (fp / (fp + tn))
        se = math.sqrt(1 / tp - 1 / (tp + fn) + 1 / fp - 1 / (fp + tn))
    else:
        if fn <= 0 or tn <= 0:
            return None
        lr = (fn / (tp + fn)) / (tn / (fp + tn))
        se = math.sqrt(1 / fn - 1 / (tp + fn) + 1 / tn - 1 / (fp + tn))
    z = _z_quantile(level)
    return math.exp(math.log(lr) - z * se), math.exp(math.log(lr) + z * se)


def _oracle_lr_estimate(table: ContingencyTable, which: str, ci: CiConfig,
                        haldane: bool) -> MetricEstimate:
    tp, fp, fn, tn = table.tp, table.fp, table.fn, table.tn
    if which == "lr_pos":
        if tp + fn == 0 or tn + fp == 0:
            return MetricEstimate(None, note="undefined Sn or Sp")
        if fp == 0:
            if tp == 0:
                return MetricEstimate(None, note="0/0 likelihood ratio")
            return MetricEstimate(math.inf, method="log", note="specificity 1 with Sn > 0")
        value = (tp * (fp + tn)) / ((tp + fn) * fp)
    else:
        if tp + fn == 0 or tn + fp == 0:
            return MetricEstimate(None, note="undefined Sn or Sp")
        if tn == 0:
            if fn == 0:
                return MetricEstimate(None, note="0/0 likelihood ratio")
            return MetricEstimate(math.inf, method="log", note="specificity 0 with Sn < 1")
        value = (fn * (fp + tn)) / ((tp + fn) * tn)
    bounds = _oracle_ci_likelihood_ratio(table, which, ci.level, haldane)
    if bounds is None:
        return MetricEstimate(value, method="log", note="interval needs all relevant cells >= 1")
    return MetricEstimate(value, bounds[0], bounds[1], method="log")


def _bits(estimate: MetricEstimate):
    """Fields with floats as their exact hex form, so -0.0 and 0.0 differ."""
    def f(v):
        return v.hex() if isinstance(v, float) else v

    return (f(estimate.value), f(estimate.ci_low), f(estimate.ci_high),
            estimate.method, estimate.note)


TABLES = [ContingencyTable(*cells) for cells in itertools.product(range(7), repeat=4)]


@pytest.mark.parametrize("level", [0.95, 0.90])
@pytest.mark.parametrize("haldane", [False])  # the oracle's setting the library keeps
@pytest.mark.parametrize("which", ["lr_pos", "lr_neg"])
def test_folded_lr_matches_original(which, haldane, level):
    ci = CiConfig(level=level)
    for table in TABLES:
        got = ci_likelihood_ratio(table, which, level)
        want = _oracle_ci_likelihood_ratio(table, which, level, haldane)
        assert (got is None) == (want is None), table
        if got is not None:
            assert [v.hex() for v in got] == [v.hex() for v in want], table
        want_estimate = _oracle_lr_estimate(table, which, ci, haldane)
        assert _bits(_lr_estimate(table, which, ci)) == _bits(want_estimate), table


def test_unknown_which_still_rejected():
    with pytest.raises(ValueError, match="which"):
        ci_likelihood_ratio(ContingencyTable(1, 1, 1, 1), "lr")
