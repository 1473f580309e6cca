"""Deterministic synthetic cohorts.

The real source dataset is not distributable, so cohorts are generated:
either exactly (to hit target contingency counts) or stochastically.

All randomness comes from splitmix64 (Steele, Lea & Flood 2014), chosen
because it is tiny and fully specified by two published constants:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Uniform doubles are ``next() / 2**64``; ages are Box-Muller normals. Both
generators draw marker values and ages through the one pair of formulas in
`_marker` and `_age`. The same seed therefore yields the same draws on any
platform; the ages also pass through `math.log` and `math.cos`, and the
tests check, for the pinned seeds, that no age lies near a rounding
boundary.

The stream is computed 128 draws at a time: one pass of big-integer
arithmetic evaluates the three lines after ``state +=`` for 128 consecutive
states at once (`_block`), which yields the same numbers in the same order.
"""

import itertools
import math
import sys
from bisect import bisect_right
from collections import namedtuple

from .classifier import default_lexicon
from .metrics import ContingencyTable
from .model import Cohort, Condition, PathologyRecord, Sex, checked_make

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 128  # draws per block


# A block's ones, gammas and lane mask, each packing one value per lane.
# Lane k holds bits 128k to 128k+127 of the packed integer; its value lives
# in the low 64 bits, so a 64x64-bit product fits in the lane. _GAMMAS holds
# (k+1) * 0x9E3779B97F4A7C15 in lane k.
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_GAMMAS = sum(((k + 1) * _GAMMA & _MASK) << (128 * k) for k in range(_LANES))
_LANE_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")


def _block(start: int, byteorder: str = sys.byteorder):
    """The 128 draws after state ``start``, as a sequence of ints.

    The lane mask is applied before each multiply and after it: a shift
    carries a neighbouring lane's low bits into the unused high half of a
    lane, and a product fills that half; masking keeps every lane its own
    value mod 2**64. The last shift's spill is left in the high halves,
    which unpacking skips.
    """
    z = ((start & _MASK) * _ONES + _GAMMAS) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    z ^= z >> 31
    # "Q" reads words in host byte order, so the bytes are laid out in it: in
    # little-endian order each lane's value is the first of its two words,
    # in big-endian order the second, with the lanes from last to first.
    words = memoryview(z.to_bytes(16 * _LANES, byteorder)).cast("Q")
    return words[::2] if byteorder == "little" else words[::-2]


class SplitMix64:
    """splitmix64 PRNG; stream order is part of the synthesis contract.

    ``next_u64()`` returns the next draw. It is the ``__next__`` of an
    iterator over `_block`s, so a draw runs no Python-level function.
    """

    def __init__(self, seed: int):
        blocks = map(_block, itertools.count(seed & _MASK, _LANES * _GAMMA))
        self.next_u64 = itertools.chain.from_iterable(blocks).__next__


# Hepatitis note phrases by lexicon category: (statements, queries).
PHRASES = {
    Condition.HEPATITIS_B.category_id: (
        ("Hep B", "Known Hep B", "Hep B Pos", "Hx Hep B", "Hep B exposure"),
        ("?Hep B", "Possible Hep B", "Screen Hep B")),
    Condition.HEPATITIS_C.category_id: (
        ("Hep C", "Known Hep C", "Hep C Pos", "Hx Hep C", "Hep C exposure"),
        ("?Hep C", "Possible Hep C", "Screen Hep C")),
}


class SynthesisSpec(namedtuple("SynthesisSpec", "condition target_table n_missing age_mean "
                                              "age_sd sex_split seed")):
    """What `synthesize_exact` generates.

    sex_split: (male, female) record counts; None splits them evenly.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, condition: Condition, target_table: ContingencyTable, n_missing: int = 0,
                age_mean: float = 40.0, age_sd: float = 17.0,
                sex_split: tuple[int, int] | None = None, seed: int = 0):
        # By exact type, as a bool is an int; the comparisons rule out nan.
        if type(n_missing) is not int or n_missing < 0:
            raise ValueError(f"n_missing must be an int >= 0: {n_missing!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an int: {seed!r}")
        if not (type(age_mean) in (int, float) and -math.inf < age_mean < math.inf):
            raise ValueError(f"age_mean must be finite: {age_mean!r}")
        if not (type(age_sd) in (int, float) and 0 <= age_sd < math.inf):
            raise ValueError(f"age_sd must be finite and >= 0: {age_sd!r}")
        total = target_table.n + n_missing
        if sex_split is None:
            sex_split = (total // 2, total - total // 2)
        if len(sex_split) != 2 or any(type(count) is not int for count in sex_split):
            raise ValueError(f"sex_split {sex_split} must be two int counts")
        if min(sex_split) < 0:
            raise ValueError(f"sex_split {sex_split} counts must be >= 0")
        if sum(sex_split) != total:
            raise ValueError(f"sex_split {sex_split} must sum to table n + n_missing = {total}")
        return tuple.__new__(cls, (condition, target_table, n_missing, age_mean, age_sd,
                                   sex_split, seed))


# The paper's two reference cohorts, by the figure they reproduce.
PRESETS = {
    "figS1-hbv": SynthesisSpec(
        condition=Condition.HEPATITIS_B,
        target_table=ContingencyTable(tp=69, fp=45, fn=8, tn=57),
        n_missing=62,
        age_mean=38.0,
        age_sd=14.4,
        sex_split=(129, 112),  # analysed subset target 98:81 plus missing
    ),
    "figS1-hcv": SynthesisSpec(
        condition=Condition.HEPATITIS_C,
        target_table=ContingencyTable(tp=101, fp=38, fn=17, tn=10),
        n_missing=161,
        age_mean=36.0,
        age_sd=15.8,
        sex_split=(165, 162),
    ),
}


def preset_spec(name: str, seed: int = 0) -> SynthesisSpec:
    """The named preset's spec, drawing from ``seed``."""
    return PRESETS[name]._replace(seed=seed)


def _marker(draw, cutoff: float, positive: bool) -> float:
    """A 3-dp marker value on the given side of ``cutoff`` (positive at >= cutoff)."""
    if positive:
        return max(round(cutoff + (10.0 * cutoff - cutoff) * (draw() / 2.0**64), 3), cutoff)
    value = round(cutoff * (draw() / 2.0**64), 3)
    return value if value < cutoff else cutoff / 2.0


def _age(draw, mean: float, sd: float) -> int:
    """A Box-Muller normal, rounded and clamped to 0..100."""
    u1 = max(draw() / 2.0**64, 1e-12)
    u2 = draw() / 2.0**64
    normal = mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return min(100, max(0, int(round(normal))))


def synthesize_exact(spec: SynthesisSpec) -> Cohort:
    """Cohort whose evaluation reproduces ``spec.target_table`` exactly.

    Statement phrases carry the test-positive records (tp, fp), query
    phrases the test-negative ones (fn, tn); marker values strictly respect
    the condition's default cutoff side; ``n_missing`` extra records carry
    no marker value.
    """
    draw = SplitMix64(spec.seed).next_u64
    cutoff = spec.condition.default_cutoff
    t = spec.target_table
    tag = "hbv" if spec.condition is Condition.HEPATITIS_B else "hcv"
    statement, query = PHRASES[spec.condition.category_id]

    groups = [
        ("tp", t.tp, statement, True),
        ("fp", t.fp, statement, False),
        ("fn", t.fn, query, True),
        ("tn", t.tn, query, False),
        ("na", spec.n_missing, statement + query, None),
    ]

    sexes = [Sex.MALE] * spec.sex_split[0] + [Sex.FEMALE] * spec.sex_split[1]
    for i in range(len(sexes) - 1, 0, -1):  # Fisher-Yates
        j = draw() % (i + 1)
        sexes[i], sexes[j] = sexes[j], sexes[i]

    records: list[PathologyRecord] = []
    idx = 0
    for group, count, phrases, marker_positive in groups:
        for k in range(count):
            value = None if marker_positive is None else _marker(draw, cutoff, marker_positive)
            age = _age(draw, spec.age_mean, spec.age_sd)
            records.append(
                PathologyRecord(
                    record_id=f"{tag}-{group}-{k:05d}",
                    age=age,
                    sex=sexes[idx],
                    note_text=phrases[k % len(phrases)],
                    hbsag_iu=value if spec.condition is Condition.HEPATITIS_B else None,
                    anti_hcv_iu=value if spec.condition is Condition.HEPATITIS_C else None,
                    collection_year=1997 + draw() % 11,
                )
            )
            idx += 1
    return Cohort(records)


def synthesize_random(
    n: int, prevalence: float, note_mix: dict[int, float], seed: int = 0
) -> Cohort:
    """Seeded stochastic cohort for stress and property testing.

    Each record's note comes from a category sampled by ``note_mix``
    weights (hepatitis categories use the statement/query phrase pools,
    others one of the first three patterns of the category in the built-in
    lexicon); each marker is positive independently with probability
    ``prevalence`` at the condition's default cutoff. ``note_mix`` maps
    lexicon categories to finite, non-negative weights, not all zero,
    with a finite sum; anything else raises ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= prevalence <= 1.0):
        raise ValueError("prevalence must be in [0,1]")
    if not note_mix or any(w < 0 for w in note_mix.values()) or sum(note_mix.values()) <= 0:
        raise ValueError("note_mix weights must be non-negative and not all zero")
    lexicon = default_lexicon()
    known = {rule.category_id for rule in lexicon.rules}
    for category, weight in note_mix.items():
        if category not in known:
            raise ValueError(f"note_mix category {category!r} is not in the lexicon")
        if not math.isfinite(weight):
            raise ValueError(f"note_mix weight of category {category!r} must be finite: {weight!r}")
    draw = SplitMix64(seed).next_u64
    cats = sorted(note_mix)
    total_w = sum(note_mix.values())
    if total_w == math.inf:  # each weight is finite, but the running sums would overflow
        raise ValueError(f"note_mix weights must have a finite sum: {total_w!r}")
    # A record's category is the first whose running weight exceeds a draw
    # on [0, total_w), or the last if rounding leaves none: bisect_right
    # over the running sums, with the last pool repeated past the end.
    bounds = []
    acc = 0.0
    for c in cats:
        acc += note_mix[c]
        bounds.append(acc)
    pools = [  # each sampled category's notes, built once
        PHRASES[c][0] + PHRASES[c][1] if c in PHRASES else ("",) if c == 45
        else tuple(" ".join(p) for p in lexicon.rule(c).patterns[:3])
        for c in cats
    ]
    pools.append(pools[-1])
    hbv_cutoff = Condition.HEPATITIS_B.default_cutoff
    hcv_cutoff = Condition.HEPATITIS_C.default_cutoff
    male, female = Sex.MALE, Sex.FEMALE

    records = []
    for i in range(n):
        pool = pools[bisect_right(bounds, total_w * (draw() / 2.0**64))]
        note = pool[draw() % len(pool)]
        age = _age(draw, 40.0, 17.0)
        sex = male if draw() / 2.0**64 < 0.5 else female
        records.append(PathologyRecord(
            f"syn-{i:06d}", age, sex, note,
            _marker(draw, hbv_cutoff, draw() / 2.0**64 < prevalence),
            _marker(draw, hcv_cutoff, draw() / 2.0**64 < prevalence), 1997 + draw() % 11))
    return Cohort(records)
