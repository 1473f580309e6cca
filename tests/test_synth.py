import math
import random

import pytest

from notedta import synth
from notedta.cli import main
from notedta.evaluate import EvaluationConfig, evaluate_condition
from notedta.ingest import summarize_demographics, write_cohort_file
from notedta.metrics import ContingencyTable
from notedta.model import Condition
from notedta.synth import PRESETS, SplitMix64, SynthesisSpec, synthesize_exact, synthesize_random

HBV = Condition.HEPATITIS_B
HCV = Condition.HEPATITIS_C


def _roundtrip(condition, table, n_missing, seed=1):
    spec = SynthesisSpec(condition, table, n_missing=n_missing, seed=seed)
    cohort = synthesize_exact(spec)
    assert len(cohort) == table.n + n_missing
    result = evaluate_condition(cohort, EvaluationConfig(condition))
    assert result.primary.table == table
    assert result.primary.n_missing_excluded == n_missing
    return cohort


def test_exact_reproduces_hbv_worked_example():
    cohort = _roundtrip(HBV, ContingencyTable(69, 45, 8, 57), 62)
    assert len(cohort) == 241


def test_exact_reproduces_hcv_worked_example():
    cohort = _roundtrip(HCV, ContingencyTable(101, 38, 17, 10), 161)
    assert len(cohort) == 327


def test_exact_empty_spec():
    spec = SynthesisSpec(HBV, ContingencyTable(0, 0, 0, 0), n_missing=0)
    assert len(synthesize_exact(spec)) == 0


def test_exact_random_feasible_specs():
    rng = random.Random(42)
    for i in range(100):
        table = ContingencyTable(*(rng.randint(0, 30) for _ in range(4)))
        _roundtrip(
            rng.choice([HBV, HCV]), table, n_missing=rng.randint(0, 20), seed=i
        )


def test_exact_sex_split_mismatch_rejected():
    with pytest.raises(ValueError, match="sex_split"):
        SynthesisSpec(HBV, ContingencyTable(1, 1, 1, 1), n_missing=0, sex_split=(1, 1))


def test_exact_negative_sex_split_rejected():
    # (300, -59) sums to the 241 records, but no record can be of a sex -59 times.
    message = r"^sex_split \(300, -59\) counts must be >= 0$"
    with pytest.raises(ValueError, match=message):
        SynthesisSpec(HBV, ContingencyTable(69, 45, 8, 57), n_missing=62, sex_split=(300, -59))
    with pytest.raises(ValueError, match=message):
        PRESETS["figS1-hbv"]._replace(sex_split=(300, -59))


@pytest.mark.parametrize("field, value, message", [
    ("n_missing", 1.5, "n_missing must be an int >= 0: 1.5"),
    ("n_missing", True, "n_missing must be an int >= 0: True"),
    ("n_missing", -1, "n_missing must be an int >= 0: -1"),
    ("seed", 1.0, "seed must be an int: 1.0"),
    ("seed", True, "seed must be an int: True"),
    ("sex_split", (1.5, 0.5), "sex_split (1.5, 0.5) must be two int counts"),
    ("sex_split", (True, 1), "sex_split (True, 1) must be two int counts"),
    ("sex_split", (0, 0, 1), "sex_split (0, 0, 1) must be two int counts"),
    ("age_mean", math.nan, "age_mean must be finite: nan"),
    ("age_mean", -math.inf, "age_mean must be finite: -inf"),
    ("age_mean", "40", "age_mean must be finite: '40'"),
    ("age_sd", math.inf, "age_sd must be finite and >= 0: inf"),
    ("age_sd", math.nan, "age_sd must be finite and >= 0: nan"),
    ("age_sd", -1.0, "age_sd must be finite and >= 0: -1.0"),
])
def test_exact_unbuildable_spec_rejected(field, value, message):
    # Each would otherwise fail inside synthesize_exact, or take a bool for a
    # count.
    table = ContingencyTable(1, 0, 0, 0)
    with pytest.raises(ValueError) as err:
        SynthesisSpec(HBV, table, **{field: value})
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        SynthesisSpec(HBV, table)._replace(**{field: value})
    assert str(err.value) == message


def test_exact_demographics_target():
    # cohort shaped like the reference HBV evaluation group
    spec = SynthesisSpec(
        HBV, ContingencyTable(69, 45, 8, 57),
        n_missing=0, age_mean=38.0, age_sd=14.4, sex_split=(98, 81), seed=5,
    )
    s = summarize_demographics(synthesize_exact(spec))
    assert s.n_total == 179
    assert s.n_male == 98 and s.n_female == 81
    assert s.age_mean == pytest.approx(38.0, abs=3.0)
    assert s.age_sd == pytest.approx(14.4, abs=3.0)


def test_seed_determinism_byte_identical(tmp_path):
    spec = SynthesisSpec(HCV, ContingencyTable(10, 5, 3, 7), n_missing=4, seed=9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cohort_file(synthesize_exact(spec), a)
    write_cohort_file(synthesize_exact(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_differs():
    spec1 = SynthesisSpec(HBV, ContingencyTable(5, 5, 5, 5), seed=1)
    spec2 = SynthesisSpec(HBV, ContingencyTable(5, 5, 5, 5), seed=2)
    assert synthesize_exact(spec1) != synthesize_exact(spec2)


# -- random cohorts -----------------------------------------------------------

def test_random_empty():
    assert len(synthesize_random(0, 0.5, {1: 1.0})) == 0


def test_random_zero_prevalence_has_no_positives():
    cohort = synthesize_random(1000, 0.0, {2: 1.0}, seed=3)
    assert all(r.hbsag_iu < 1.6 and r.anti_hcv_iu < 1.0 for r in cohort)


def test_random_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cohort_file(synthesize_random(1000, 0.3, {1: 0.5, 37: 0.5}, seed=7), a)
    write_cohort_file(synthesize_random(1000, 0.3, {1: 0.5, 37: 0.5}, seed=7), b)
    assert a.read_bytes() == b.read_bytes()


def test_random_prevalence_law_of_large_numbers():
    n = 100_000
    cohort = synthesize_random(n, 0.3, {1: 1.0}, seed=11)
    frac = sum(1 for r in cohort if r.hbsag_iu >= 1.6) / n
    assert frac == pytest.approx(0.3, abs=0.01)


def test_random_invalid_weights_rejected():
    with pytest.raises(ValueError):
        synthesize_random(10, 0.5, {})
    with pytest.raises(ValueError):
        synthesize_random(10, 0.5, {1: -1.0})
    with pytest.raises(ValueError):
        synthesize_random(10, 0.5, {1: 0.0})


@pytest.mark.parametrize("note_mix, message", [
    ({99: 1.0}, "note_mix category 99 is not in the lexicon"),
    ({1: 1.0, 0: 0.5}, "note_mix category 0 is not in the lexicon"),
    ({1: math.nan}, "note_mix weight of category 1 must be finite: nan"),
    ({1: math.inf, 32: 1.0}, "note_mix weight of category 1 must be finite: inf"),
    ({1: 1e308, 32: 1e308}, "note_mix weights must have a finite sum: inf"),
])
def test_random_bad_note_mix_rejected(note_mix, message):
    with pytest.raises(ValueError) as err:
        synthesize_random(10, 0.5, note_mix)
    assert str(err.value) == message


@pytest.mark.parametrize("n, prevalence, message", [
    (-1, 0.5, "n must be >= 0"),
    (10, -0.1, "prevalence must be in [0,1]"),
    (10, 1.1, "prevalence must be in [0,1]"),
])
def test_random_invalid_size_or_prevalence_rejected(n, prevalence, message):
    with pytest.raises(ValueError) as err:
        synthesize_random(n, prevalence, {1: 1.0})
    assert str(err.value) == message


# -- PRNG ---------------------------------------------------------------------

def test_splitmix64_reference_stream():
    # splitmix64 reference outputs for seed 1234567 (published constants)
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


@pytest.mark.parametrize("argv", [
    *(("--preset", preset, "--seed", seed) for preset in sorted(PRESETS) for seed in "015"),
    # the cohort stored in tests/golden/random-hcv/
    ("--n", "200", "--prevalence", "0.2", "--condition", "hcv", "--seed", "3"),
])
def test_pinned_cohort_ages_clear_every_rounding_boundary(tmp_path, capsys, monkeypatch, argv):
    # `_age` rounds a Box-Muller value built with math.log and math.cos,
    # which are not correctly rounded on every platform. Each value rounded
    # for these cohorts lies at least 2**-40 (relative) from the nearest .5,
    # which is also where the clamps to 0 and 100 act, so a libm that is off
    # by a few ulps writes the same ages. This is checked for these seeds
    # only, not proved for all seeds.
    normals = []

    def recording_round(number, *ndigits):  # _marker's round(x, 3) is not an age
        if not ndigits:
            normals.append(number)
        return round(number, *ndigits)

    monkeypatch.setattr(synth, "round", recording_round, raising=False)
    cohort = tmp_path / "cohort.csv"
    assert main(["synth", str(cohort), *argv]) == 0
    capsys.readouterr()
    assert len(normals) == len(cohort.read_text().splitlines()) - 1 > 0
    for normal in normals:
        boundary = math.floor(normal) + 0.5
        assert abs(normal - boundary) >= 2.0**-40 * abs(boundary), normal
