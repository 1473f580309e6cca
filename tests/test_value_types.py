"""The package's value types: named tuples, plus `Cohort`, `Lexicon` and `ValidationReport`.

The expected `repr` strings are the ones the frozen-dataclass versions of
these types printed.
"""

import pickle

import pytest

from notedta.classifier import CategoryRule, Lexicon, default_lexicon
from notedta.evaluate import CategoryResult, EvaluationConfig, EvaluationResult
from notedta.ingest import CohortSummary, ValidationReport
from notedta.metrics import CiConfig, ContingencyTable, MetricEstimate, MetricPanel
from notedta.model import Cohort, Condition, PathologyRecord, Sex
from notedta.serology import SerologyThresholds
from notedta.synth import SynthesisSpec

TABLE = ContingencyTable(3, 1, 0, 2)
ESTIMATE = MetricEstimate(0.5, 0.1, 0.9, method="logit")
PANEL = MetricPanel(ESTIMATE, ESTIMATE, ESTIMATE, ESTIMATE, MetricEstimate(None, note="n"),
                    MetricEstimate(2.0), 0.25)
RESULT = CategoryResult(1, "Hepatitis B", "B18", 2, 0, TABLE, PANEL)

SAMPLES = {
    "CategoryRule": lambda: CategoryRule(1, "Hepatitis B", "B18", 1, (("hepatitis-b",),)),
    "CiConfig": lambda: CiConfig(level=0.9, proportion_method="score"),
    "ContingencyTable": lambda: TABLE,
    "MetricEstimate": lambda: ESTIMATE,
    "MetricPanel": lambda: PANEL,
    "PathologyRecord": lambda: PathologyRecord("r1", age=40, sex=Sex.FEMALE, note_text="Hep B",
                                               hbsag_iu=2.0),
    "SerologyThresholds": lambda: SerologyThresholds(anti_hcv_cutoff=0.5),
    "SynthesisSpec": lambda: SynthesisSpec(Condition.HEPATITIS_B, TABLE, n_missing=1, seed=3),
    "EvaluationConfig": lambda: EvaluationConfig(Condition.HEPATITIS_C),
    "CategoryResult": lambda: RESULT,
    "EvaluationResult": lambda: EvaluationResult(
        Condition.HEPATITIS_B, RESULT, (), CohortSummary(3, 40.0, None, 1, 1, 1)),
    "CohortSummary": lambda: CohortSummary(3, 40.0, 1.5, 1, 1, 1, ((40, 3),)),
    "Cohort": lambda: Cohort((PathologyRecord("a"), PathologyRecord("b", age=7))),
    "ValidationReport": lambda: ValidationReport("x.csv", False),
}

REPRS = {
    "CategoryRule": (
        "CategoryRule(category_id=1, label='Hepatitis B', icd10_chapter='B18', priority=1, "
        "patterns=(('hepatitis-b',),))"
    ),
    "CiConfig": "CiConfig(level=0.9, proportion_method='score', haldane=False)",
    "ContingencyTable": "ContingencyTable(tp=3, fp=1, fn=0, tn=2)",
    "MetricEstimate": (
        "MetricEstimate(value=0.5, ci_low=0.1, ci_high=0.9, method='logit', note='')"
    ),
    "MetricPanel": (
        "MetricPanel(sn=MetricEstimate(value=0.5, ci_low=0.1, ci_high=0.9, method='logit', "
        "note=''), sp=MetricEstimate(value=0.5, ci_low=0.1, ci_high=0.9, method='logit', "
        "note=''), ppv=MetricEstimate(value=0.5, ci_low=0.1, ci_high=0.9, method='logit', "
        "note=''), npv=MetricEstimate(value=0.5, ci_low=0.1, ci_high=0.9, method='logit', "
        "note=''), lr_pos=MetricEstimate(value=None, ci_low=None, ci_high=None, method='', "
        "note='n'), lr_neg=MetricEstimate(value=2.0, ci_low=None, ci_high=None, method='', "
        "note=''), prevalence_sample=0.25)"
    ),
    "PathologyRecord": (
        "PathologyRecord(record_id='r1', age=40, sex=<Sex.FEMALE: 'female'>, "
        "note_text='Hep B', hbsag_iu=2.0, anti_hcv_iu=None, collection_year=None)"
    ),
    "SerologyThresholds": "SerologyThresholds(hbsag_cutoff=1.6, anti_hcv_cutoff=0.5)",
    "SynthesisSpec": (
        "SynthesisSpec(condition=<Condition.HEPATITIS_B: 'hepatitis_b'>, "
        "target_table=ContingencyTable(tp=3, fp=1, fn=0, tn=2), n_missing=1, age_mean=40.0, "
        "age_sd=17.0, sex_split=(3, 4), seed=3)"
    ),
    "EvaluationConfig": (
        "EvaluationConfig(target_condition=<Condition.HEPATITIS_C: 'hepatitis_c'>, "
        "exclude_vaccination=True, thresholds=SerologyThresholds(hbsag_cutoff=1.6, "
        "anti_hcv_cutoff=1.0), ci=CiConfig(level=0.95, proportion_method='exact', "
        "haldane=False))"
    ),
    "CategoryResult": (
        "CategoryResult(category_id=1, label='Hepatitis B', icd10_chapter='B18', "
        "n_missing_excluded=2, n_vaccination_excluded=0, table=ContingencyTable(tp=3, fp=1, "
        "fn=0, tn=2), panel=MetricPanel(sn=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), sp=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), ppv=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), npv=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), lr_pos=MetricEstimate(value=None, "
        "ci_low=None, ci_high=None, method='', note='n'), lr_neg=MetricEstimate(value=2.0, "
        "ci_low=None, ci_high=None, method='', note=''), prevalence_sample=0.25))"
    ),
    "EvaluationResult": (
        "EvaluationResult(condition=<Condition.HEPATITIS_B: 'hepatitis_b'>, "
        "primary=CategoryResult(category_id=1, label='Hepatitis B', icd10_chapter='B18', "
        "n_missing_excluded=2, n_vaccination_excluded=0, table=ContingencyTable(tp=3, fp=1, "
        "fn=0, tn=2), panel=MetricPanel(sn=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), sp=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), ppv=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), npv=MetricEstimate(value=0.5, ci_low=0.1, "
        "ci_high=0.9, method='logit', note=''), lr_pos=MetricEstimate(value=None, "
        "ci_low=None, ci_high=None, method='', note='n'), lr_neg=MetricEstimate(value=2.0, "
        "ci_low=None, ci_high=None, method='', note=''), prevalence_sample=0.25)), "
        "controls=(), summary=CohortSummary(n_total=3, age_mean=40.0, age_sd=None, n_male=1, "
        "n_female=1, n_unspecified=1, age_histogram=None), ci_level=0.95)"
    ),
    "CohortSummary": (
        "CohortSummary(n_total=3, age_mean=40.0, age_sd=1.5, n_male=1, n_female=1, "
        "n_unspecified=1, age_histogram=((40, 3),))"
    ),
    "Cohort": (
        "Cohort(records=(PathologyRecord(record_id='a', age=None, "
        "sex=<Sex.UNSPECIFIED: 'unspecified'>, note_text='', hbsag_iu=None, "
        "anti_hcv_iu=None, collection_year=None), PathologyRecord(record_id='b', age=7, "
        "sex=<Sex.UNSPECIFIED: 'unspecified'>, note_text='', hbsag_iu=None, "
        "anti_hcv_iu=None, collection_year=None)))"
    ),
    "ValidationReport": (
        "ValidationReport(path='x.csv', strict=False, n_rows=0, skipped=[], warnings=[])"
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(SAMPLES[name]()) == REPRS[name]


def test_lexicon_repr_leaves_out_the_pattern_index():
    lexicon = default_lexicon()
    assert repr(lexicon) == (f"Lexicon(rules={lexicon.rules!r}, "
                             f"query_keywords={lexicon.query_keywords!r})")


IMMUTABLE = [name for name in SAMPLES if name != "ValidationReport"]


@pytest.mark.parametrize("name", IMMUTABLE)
def test_immutable_slotted_equal_and_hashable(name):
    value = SAMPLES[name]()
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1
    twin = pickle.loads(pickle.dumps(value))  # rebuilt through the constructor
    assert twin is not value and twin == value and hash(twin) == hash(value)


def test_lexicon_is_immutable_and_equal_by_rules_and_keywords():
    lexicon = default_lexicon()
    twin = pickle.loads(pickle.dumps(lexicon))
    assert twin is not lexicon and twin == lexicon and hash(twin) == hash(lexicon)
    assert twin._pattern_index == lexicon._pattern_index
    assert Lexicon(lexicon.rules, ()) != lexicon
    with pytest.raises(AttributeError):
        lexicon.rules = ()
    with pytest.raises(AttributeError):
        del lexicon._pattern_index


@pytest.mark.parametrize("name", [n for n in IMMUTABLE if n not in ("Cohort",)])
def test_named_tuples_compare_equal_to_plain_tuples(name):
    value = SAMPLES[name]()
    assert isinstance(value, tuple) and value == tuple(value)
    assert value._asdict() == dict(zip(value._fields, value))


# (sample, field, bad value): `_replace` must run the constructor's checks.
CHECKED = [
    ("CategoryRule", "category_id", 0),
    ("CategoryRule", "patterns", ()),
    ("CiConfig", "level", 1.5),
    ("CiConfig", "proportion_method", "wald"),
    ("ContingencyTable", "fn", -1),
    ("PathologyRecord", "age", 200),
    ("PathologyRecord", "hbsag_iu", float("nan")),
    ("SerologyThresholds", "hbsag_cutoff", 0.0),
    ("SynthesisSpec", "n_missing", -1),
    ("SynthesisSpec", "sex_split", (1, 1)),
    ("CategoryRule", "category_id", 47),
]


@pytest.mark.parametrize("name, field, bad", CHECKED)
def test_replace_checks_like_the_constructor(name, field, bad):
    value = SAMPLES[name]()
    with pytest.raises(ValueError) as built:
        type(value)(**{**value._asdict(), field: bad})
    with pytest.raises(ValueError) as replaced:
        value._replace(**{field: bad})
    assert str(replaced.value) == str(built.value)


def test_cohort_counts_and_iterates_its_records():
    records = tuple(PathologyRecord(f"r{i}") for i in range(3))
    cohort = Cohort(records)
    assert len(cohort) == len(records) and tuple(cohort) == records
    assert len(Cohort(())) == 0

