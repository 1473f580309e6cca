"""Differential test: block-computed synthesis against the scalar originals.

`_ScalarSplitMix64` is a verbatim copy of the generator as it was before
its stream was computed 128 draws at a time, and `_oracle_marker_value`,
`_oracle_age`, `_oracle_synthesize_exact`, `_oracle_synthesize_random` and
`_oracle_write_cohort_file` are verbatim copies of the functions as they
were before the synth loop and the cohort writer were rewritten, each
drawing from the scalar generator. Streams must be equal draw for draw,
cohorts record for record (floats bit for bit) and CSVs byte for byte.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notedta.classifier import default_lexicon
from notedta.ingest import HEADER, write_cohort_file
from notedta.metrics import ContingencyTable
from notedta.model import Cohort, Condition, PathologyRecord, Sex
from notedta.synth import (
    PHRASES,
    SplitMix64,
    SynthesisSpec,
    _block,
    synthesize_exact,
    synthesize_random,
)

_MASK = (1 << 64) - 1


class _ScalarSplitMix64:
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


def _oracle_marker_value(rng, cutoff: float, positive: bool) -> float:
    """A 3-dp marker value on the given side of ``cutoff`` (positive at >= cutoff)."""
    if positive:
        return max(round(rng.uniform(cutoff, 10.0 * cutoff), 3), cutoff)
    value = round(rng.uniform(0.0, cutoff), 3)
    return value if value < cutoff else cutoff / 2.0


def _oracle_age(rng, mean: float, sd: float) -> int:
    return min(100, max(0, int(round(rng.normal(mean, sd)))))


def _oracle_synthesize_exact(spec: SynthesisSpec) -> Cohort:
    rng = _ScalarSplitMix64(spec.seed)
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
            value = (None if marker_positive is None
                     else _oracle_marker_value(rng, cutoff, marker_positive))
            age = _oracle_age(rng, spec.age_mean, spec.age_sd)
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


def _oracle_synthesize_random(
    n: int, prevalence: float, note_mix: dict[int, float], seed: int = 0
) -> Cohort:
    lexicon = default_lexicon()
    rng = _ScalarSplitMix64(seed)
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
        return _oracle_marker_value(rng, cutoff, rng.uniform() < prevalence)

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
                age=_oracle_age(rng, 40.0, 17.0),
                sex=Sex.MALE if rng.uniform() < 0.5 else Sex.FEMALE,
                note_text=note,
                hbsag_iu=sample_value(Condition.HEPATITIS_B.default_cutoff),
                anti_hcv_iu=sample_value(Condition.HEPATITIS_C.default_cutoff),
                collection_year=rng.randint(1997, 2007),
            )
        )
    return Cohort(tuple(records))


_SEX_OUT = {Sex.MALE: "M", Sex.FEMALE: "F", Sex.UNSPECIFIED: ""}


def _oracle_write_cohort_file(cohort: Cohort, path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for rec in cohort:
            writer.writerow(
                [
                    rec.record_id,
                    "" if rec.age is None else rec.age,
                    _SEX_OUT[rec.sex],
                    rec.note_text,
                    "" if rec.hbsag_iu is None else repr(rec.hbsag_iu),
                    "" if rec.anti_hcv_iu is None else repr(rec.anti_hcv_iu),
                    "" if rec.collection_year is None else rec.collection_year,
                ]
            )


def _scalar_stream(seed: int, n: int) -> list[int]:
    rng = _ScalarSplitMix64(seed)
    return [rng.next_u64() for _ in range(n)]


def _same_records(new: Cohort, old: Cohort) -> None:
    assert new == old
    # repr tells apart what == does not: 0.0 from -0.0, 1 from 1.0.
    assert [repr(r) for r in new] == [repr(r) for r in old]


# -- the stream ---------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -1, 2**70 + 5])
def test_block_stream_equals_scalar_stream(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(1000)] == _scalar_stream(seed, 1000)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=-(2**80), max_value=2**80))
def test_block_stream_equals_scalar_stream_any_seed(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(400)] == _scalar_stream(seed, 400)


def test_interleaved_instances_keep_their_own_streams():
    a, b = SplitMix64(7), SplitMix64(2**64 - 1)
    ref_a, ref_b = _ScalarSplitMix64(7), _ScalarSplitMix64(2**64 - 1)
    # uneven runs from each, so their block boundaries fall at different draws
    for k in range(1, 40):
        for rng, ref in ((a, ref_a), (b, ref_b)):
            for _ in range(k if rng is a else 2 * k + 1):
                assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("start", [0, 12345, _MASK, 2**70 + 5])
def test_foreign_byte_order_unpacks_the_same_draws(start):
    # The path a host of the other byte order takes: there "Q" reads each
    # word in that order; here each word must be swapped back to read it.
    other = "big" if sys.byteorder == "little" else "little"
    words = [int.from_bytes(w.to_bytes(8, sys.byteorder), other) for w in _block(start, other)]
    assert words == _scalar_stream(start, 128)
    assert list(_block(start)) == words


# -- the cohorts --------------------------------------------------------------

_CATEGORIES = sorted(rule.category_id for rule in default_lexicon().rules)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    mix=st.dictionaries(st.sampled_from(_CATEGORIES),
                        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6)
    .filter(lambda m: sum(m.values()) > 0),
    prevalence=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=-(2**70), max_value=2**70),
)
def test_synthesize_random_equals_scalar_loop(n, mix, prevalence, seed):
    _same_records(synthesize_random(n, prevalence, mix, seed),
                  _oracle_synthesize_random(n, prevalence, mix, seed))


def test_synthesize_random_equals_scalar_loop_on_the_cli_mix():
    mix = {Condition.HEPATITIS_B.category_id: 0.5, 32: 0.2, 37: 0.2, 45: 0.1}
    _same_records(synthesize_random(2000, 0.2, mix, 3),
                  _oracle_synthesize_random(2000, 0.2, mix, 3))


@settings(max_examples=40, deadline=None)
@given(
    condition=st.sampled_from(list(Condition)),
    cells=st.tuples(*[st.integers(min_value=0, max_value=40)] * 4),
    n_missing=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=-(2**70), max_value=2**70),
)
def test_synthesize_exact_equals_scalar_loop(condition, cells, n_missing, seed):
    spec = SynthesisSpec(condition, ContingencyTable(*cells), n_missing=n_missing, seed=seed)
    _same_records(synthesize_exact(spec), _oracle_synthesize_exact(spec))


_records = st.lists(
    st.builds(
        PathologyRecord,
        record_id=st.text(min_size=1, max_size=8),
        age=st.none() | st.integers(min_value=0, max_value=130),
        sex=st.sampled_from(list(Sex)),
        note_text=st.text(max_size=12),
        hbsag_iu=st.none() | st.floats(min_value=0.0, max_value=1e6),
        anti_hcv_iu=st.none() | st.floats(min_value=0.0, max_value=1e6),
        collection_year=st.none() | st.integers(min_value=1800, max_value=2200),
    ),
    max_size=30,
    unique_by=lambda r: r.record_id,
)


@settings(max_examples=60, deadline=None)
@given(records=_records)
def test_write_cohort_file_equals_row_loop(tmp_path_factory, records):
    d = tmp_path_factory.mktemp("write")
    cohort = Cohort(records)
    write_cohort_file(cohort, d / "new.csv")
    _oracle_write_cohort_file(cohort, d / "old.csv")
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
