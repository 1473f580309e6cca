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

Uniform doubles are ``next() / 2**64``; normals use Box-Muller. The same
seed therefore yields byte-identical cohorts on any platform.
"""

import math
from collections import namedtuple

from .classifier import default_lexicon
from .metrics import ContingencyTable
from .model import Cohort, Condition, PathologyRecord, Sex, checked_make

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 PRNG; stream order is part of the synthesis contract."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * (self.next_u64() / 2.0**64)

    def randint(self, low: int, high: int) -> int:
        # Inclusive bounds; modulo bias is irrelevant at these ranges.
        return low + self.next_u64() % (high - low + 1)

    def normal(self, mean: float, sd: float) -> float:
        u1 = max(self.uniform(), 1e-12)
        u2 = self.uniform()
        return mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        # Fisher-Yates
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


# Hepatitis note phrases by lexicon category: (statements, queries).
PHRASES = {
    1: (("Hep B", "Known Hep B", "Hep B Pos", "Hx Hep B", "Hep B exposure"),
        ("?Hep B", "Possible Hep B", "Screen Hep B")),
    2: (("Hep C", "Known Hep C", "Hep C Pos", "Hx Hep C", "Hep C exposure"),
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
        if n_missing < 0:
            raise ValueError("n_missing must be >= 0")
        total = target_table.n + n_missing
        if sex_split is None:
            sex_split = (total // 2, total - total // 2)
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


def _marker_value(rng: SplitMix64, cutoff: float, positive: bool) -> float:
    """A 3-dp marker value on the given side of ``cutoff`` (positive at >= cutoff)."""
    if positive:
        return max(round(rng.uniform(cutoff, 10.0 * cutoff), 3), cutoff)
    value = round(rng.uniform(0.0, cutoff), 3)
    return value if value < cutoff else cutoff / 2.0


def _age(rng: SplitMix64, mean: float, sd: float) -> int:
    return min(100, max(0, int(round(rng.normal(mean, sd)))))


def synthesize_exact(spec: SynthesisSpec) -> Cohort:
    """Cohort whose evaluation reproduces ``spec.target_table`` exactly.

    Statement phrases carry the test-positive records (tp, fp), query
    phrases the test-negative ones (fn, tn); marker values strictly respect
    the condition's default cutoff side; ``n_missing`` extra records carry
    no marker value.
    """
    rng = SplitMix64(spec.seed)
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
    rng.shuffle(sexes)

    records: list[PathologyRecord] = []
    idx = 0
    for group, count, phrases, marker_positive in groups:
        for k in range(count):
            value = None if marker_positive is None else _marker_value(rng, cutoff, marker_positive)
            age = _age(rng, spec.age_mean, spec.age_sd)
            records.append(
                PathologyRecord(
                    record_id=f"{tag}-{group}-{k:05d}",
                    age=age,
                    sex=sexes[idx],
                    note_text=phrases[k % len(phrases)],
                    hbsag_iu=value if spec.condition is Condition.HEPATITIS_B else None,
                    anti_hcv_iu=value if spec.condition is Condition.HEPATITIS_C else None,
                    collection_year=rng.randint(1997, 2007),
                )
            )
            idx += 1
    return Cohort(tuple(records))


def synthesize_random(
    n: int, prevalence: float, note_mix: dict[int, float], seed: int = 0
) -> Cohort:
    """Seeded stochastic cohort for stress and property testing.

    Each record's note comes from a category sampled by ``note_mix``
    weights (hepatitis categories use the statement/query phrase pools,
    others one of the first three patterns of the category in the built-in
    lexicon); each marker is positive independently with probability
    ``prevalence`` at the condition's default cutoff.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= prevalence <= 1.0):
        raise ValueError("prevalence must be in [0,1]")
    if not note_mix or any(w < 0 for w in note_mix.values()) or sum(note_mix.values()) <= 0:
        raise ValueError("note_mix weights must be non-negative and not all zero")
    lexicon = default_lexicon()
    rng = SplitMix64(seed)
    cats = sorted(note_mix)
    total_w = sum(note_mix.values())

    def sample_category() -> int:
        x = rng.uniform(0.0, total_w)
        acc = 0.0
        for c in cats:
            acc += note_mix[c]
            if x < acc:
                return c
        return cats[-1]

    def sample_value(cutoff: float) -> float:
        return _marker_value(rng, cutoff, rng.uniform() < prevalence)

    pools = {  # each sampled category's notes, built once
        c: PHRASES[c][0] + PHRASES[c][1] if c in PHRASES else ("",) if c == 45
        else tuple(" ".join(p) for p in lexicon.rule(c).patterns[:3])
        for c in cats
    }
    records = []
    for i in range(n):
        pool = pools[sample_category()]
        note = pool[rng.randint(0, len(pool) - 1)]
        records.append(
            PathologyRecord(
                record_id=f"syn-{i:06d}",
                age=_age(rng, 40.0, 17.0),
                sex=Sex.MALE if rng.uniform() < 0.5 else Sex.FEMALE,
                note_text=note,
                hbsag_iu=sample_value(Condition.HEPATITIS_B.default_cutoff),
                anti_hcv_iu=sample_value(Condition.HEPATITIS_C.default_cutoff),
                collection_year=rng.randint(1997, 2007),
            )
        )
    return Cohort(tuple(records))
