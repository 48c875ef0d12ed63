"""The record types: construction, defaults, equality, hashing, repr,
immutability, copying and pickling.

Each frozen record is built positionally and by keyword, and with its
defaults, and then held to the behaviour its callers rely on.  The repr
strings are pinned as they read, so a change to any of them shows here.
"""

from __future__ import annotations

import copy
import importlib
import math
import pickle
import pkgutil

import pytest

import stepladder
from stepladder import (
    DEFAULT_TEMPLATE,
    AgreementReport,
    Bucket,
    BucketizeResult,
    BucketReport,
    BucketSpec,
    ConfoundReport,
    CurriculumManifest,
    DoTScore,
    Example,
    HarvestFailure,
    HarvestJob,
    HarvestResult,
    Phase,
    PromptTemplate,
    SchedulePlan,
    SegmentationRules,
    TeacherProfile,
    Trace,
)
from stepladder.analyzer import TeacherPairAgreement
from stepladder.bucketer import OverflowRecord
from stepladder.corpus import Frozen
from stepladder.harvester import _Unit

_METHOD = ("Spearman rank correlations; partial = Pearson on least-squares "
           "residuals of rank(k) and rank(label) regressed on rank(tok)")
_TEACHER = TeacherProfile("t1", "http://127.0.0.1:8000/v1", "m", "tpl")
_TEMPLATE = PromptTemplate("tpl", "sys", "Q: {prompt}")
_PLAN = SchedulePlan("staged", 2, 5, 7)
_SPEC = BucketSpec(((1, 2), (3, None)))
_BUCKET = Bucket(1, 1, 2, ("a",), (2,), {"math": 1})
_PAIR = TeacherPairAgreement("a", "b", 0.5, -0.25)

# (type, every field's value in constructor order, the defaulted fields'
# defaults, repr).  A list value is one the constructor makes a tuple.
CASES = [
    (Example, {"id": "ex1", "task": "math", "prompt": "p q", "reference_answer": "42",
               "external_difficulty": 2.5, "judge_score": 0.5},
     {"reference_answer": None, "external_difficulty": None, "judge_score": None},
     "Example(id='ex1', task='math', prompt='p q', reference_answer='42', "
     "external_difficulty=2.5, judge_score=0.5)"),
    (Trace, {"example_id": "ex1", "teacher_id": "t1", "raw_text": "1. a\n2. b",
             "steps": ["a", "b"], "tok": 4, "segmentation_mode": "numbered",
             "confidence": "high"}, {},
     "Trace(example_id='ex1', teacher_id='t1', raw_text='1. a\\n2. b', steps=('a', 'b'), "
     "tok=4, segmentation_mode='numbered', confidence='high')"),
    (DoTScore, {"example_id": "ex1", "teacher_id": "t1", "k": 3, "tok": 20,
                "dot_norm": 3 / math.log1p(20), "n_samples": 2}, {"n_samples": 1},
     "DoTScore(example_id='ex1', teacher_id='t1', k=3, tok=20, dot_norm=0.9853762162591532, "
     "n_samples=2)"),
    (TeacherProfile, {"teacher_id": "t1", "endpoint_url": "https://h.example/v1",
                      "model_name": "m", "template_id": "tpl", "samples_per_example": 2,
                      "temperature": 0.5}, {"samples_per_example": 1, "temperature": 0.7},
     "TeacherProfile(teacher_id='t1', endpoint_url='https://h.example/v1', model_name='m', "
     "template_id='tpl', samples_per_example=2, temperature=0.5)"),
    (SchedulePlan, {"mode": "mixed", "phases": 2, "budget_per_phase": 5, "seed": 7,
                    "alpha": 1.5, "with_replacement": True, "mixing": "adjacent"},
     {"alpha": 0.0, "with_replacement": False, "mixing": "union"},
     "SchedulePlan(mode='mixed', phases=2, budget_per_phase=5, seed=7, alpha=1.5, "
     "with_replacement=True, mixing='adjacent')"),
    (Phase, {"index": 2, "example_ids": ["a", "b"], "bucket_counts": {1: 1, 2: 1}},
     {"bucket_counts": {}},
     "Phase(index=2, example_ids=('a', 'b'), bucket_counts={1: 1, 2: 1})"),
    (CurriculumManifest, {"plan": _PLAN, "phases": [Phase(1, ("a",))],
                          "provenance": {"ordering": "random"}}, {"provenance": {}},
     "CurriculumManifest(plan=SchedulePlan(mode='staged', phases=2, budget_per_phase=5, "
     "seed=7, alpha=0.0, with_replacement=False, mixing='union'), "
     "phases=(Phase(index=1, example_ids=('a',), bucket_counts={}),), "
     "provenance={'ordering': 'random'})"),
    (BucketSpec, {"edges": [[1, 2], [3, None]], "max_task_share": 0.5},
     {"edges": ((1, 3), (4, 6), (7, None)), "max_task_share": 1.0},
     "BucketSpec(edges=((1, 2), (3, None)), max_task_share=0.5)"),
    (Bucket, {"index": 1, "lo": 1, "hi": 3, "member_ids": ["a", "b"], "member_ks": [1, 2],
              "task_histogram": {"math": 2}},
     {"member_ids": (), "member_ks": (), "task_histogram": {}},
     "Bucket(index=1, lo=1, hi=3, member_ids=('a', 'b'), member_ks=(1, 2), "
     "task_histogram={'math': 2})"),
    (OverflowRecord, {"bucket_index": 1, "example_id": "a", "task": "math", "k": 2}, {},
     "OverflowRecord(bucket_index=1, example_id='a', task='math', k=2)"),
    (BucketizeResult, {"spec": _SPEC, "buckets": (_BUCKET,),
                       "overflow": (OverflowRecord(1, "b", "math", 2),)}, {"overflow": ()},
     "BucketizeResult(spec=BucketSpec(edges=((1, 2), (3, None)), max_task_share=1.0), "
     "buckets=(Bucket(index=1, lo=1, hi=2, member_ids=('a',), member_ks=(2,), "
     "task_histogram={'math': 1}),), "
     "overflow=(OverflowRecord(bucket_index=1, example_id='b', task='math', k=2),))"),
    (BucketReport, {"rows": ({"bucket": 1, "size": 0},), "overflow_total": 1,
                    "overflow_by_task": {"math": 1}}, {},
     "BucketReport(rows=({'bucket': 1, 'size': 0},), overflow_total=1, "
     "overflow_by_task={'math': 1})"),
    (TeacherPairAgreement, {"teacher_a": "a", "teacher_b": "b", "tau_depth": 0.5,
                            "tau_tokens": -0.25}, {},
     "TeacherPairAgreement(teacher_a='a', teacher_b='b', tau_depth=0.5, tau_tokens=-0.25)"),
    (AgreementReport, {"teachers": ("a", "b"), "n_common": 3, "pairs": (_PAIR,)}, {},
     "AgreementReport(teachers=('a', 'b'), n_common=3, pairs=(TeacherPairAgreement("
     "teacher_a='a', teacher_b='b', tau_depth=0.5, tau_tokens=-0.25),))"),
    (ConfoundReport, {"n": 10, "rho_depth": 0.5, "rho_tokens": 0.25, "partial_depth": None,
                      "note": "a note", "method": "m"}, {"note": "", "method": _METHOD},
     "ConfoundReport(n=10, rho_depth=0.5, rho_tokens=0.25, partial_depth=None, "
     "note='a note', method='m')"),
    (SegmentationRules, {"min_step_chars": 2, "max_marker_value": 99,
                         "allow_paragraph_fallback": False},
     {"min_step_chars": 3, "max_marker_value": 999, "allow_paragraph_fallback": True},
     "SegmentationRules(min_step_chars=2, max_marker_value=99, "
     "allow_paragraph_fallback=False)"),
    (PromptTemplate, {"template_id": "tpl", "system_text": "sys",
                      "user_text": "Q: {prompt}"}, {},
     "PromptTemplate(template_id='tpl', system_text='sys', user_text='Q: {prompt}')"),
    (HarvestJob, {"teacher": _TEACHER, "cache_dir": "cache", "rate_limit": 10.0,
                  "template": _TEMPLATE, "max_retries": 1, "timeout": 5.0,
                  "backoff_base": 0.25, "max_in_flight": 2, "api_key_env": "KEY"},
     {"template": DEFAULT_TEMPLATE, "max_retries": 3, "timeout": 30.0, "backoff_base": 0.5,
      "max_in_flight": 4, "api_key_env": "OPENAI_API_KEY"},
     "HarvestJob(teacher=TeacherProfile(teacher_id='t1', endpoint_url="
     "'http://127.0.0.1:8000/v1', model_name='m', template_id='tpl', samples_per_example=1, "
     "temperature=0.7), cache_dir='cache', rate_limit=10.0, template=PromptTemplate("
     "template_id='tpl', system_text='sys', user_text='Q: {prompt}'), max_retries=1, "
     "timeout=5.0, backoff_base=0.25, max_in_flight=2, api_key_env='KEY')"),
    (HarvestFailure, {"example_id": "ex1", "sample_index": 0, "reason": "timeout"}, {},
     "HarvestFailure(example_id='ex1', sample_index=0, reason='timeout')"),
]
# A field of each type, and a value for it that makes another record.
OTHER = {Example: ("prompt", "q"), Trace: ("raw_text", "a\nb"), DoTScore: ("teacher_id", "t2"),
         TeacherProfile: ("model_name", "m2"), SchedulePlan: ("seed", 8), Phase: ("index", 3),
         CurriculumManifest: ("provenance", {}), BucketSpec: ("max_task_share", 0.25),
         Bucket: ("index", 2), OverflowRecord: ("k", 3), BucketizeResult: ("overflow", ()),
         BucketReport: ("overflow_total", 2), TeacherPairAgreement: ("tau_depth", 0.75),
         AgreementReport: ("n_common", 4), ConfoundReport: ("note", ""),
         SegmentationRules: ("min_step_chars", 4), PromptTemplate: ("system_text", "s2"),
         HarvestJob: ("cache_dir", "c2"), HarvestFailure: ("reason", "refused")}
# The records that hold a dict, directly or in a record they hold.
UNHASHABLE = (Phase, CurriculumManifest, Bucket, BucketizeResult, BucketReport)


def _held(value):
    """value as a record holds it: every list a tuple."""
    return tuple(map(_held, value)) if isinstance(value, (list, tuple)) else value


@pytest.mark.parametrize("cls, values, defaults, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_frozen_record_behaviour(cls, values, defaults, text):
    record = cls(**values)
    assert cls(*values.values()) == record
    assert [getattr(record, name) for name in values] == [_held(v) for v in values.values()]
    assert repr(record) == text

    # Defaults, and a default container is never shared.
    required = {name: v for name, v in values.items() if name not in defaults}
    bare, other = cls(**required), cls(**required)
    for name, default in defaults.items():
        assert getattr(bare, name) == default
        if isinstance(default, (dict, list)):
            assert getattr(bare, name) is not getattr(other, name)

    # Equal only to a record of its own class with equal fields.
    first, first_value = next(iter(values.items()))
    assert record == cls(**values) and not record != cls(**values)
    assert record != tuple(values.values())
    name, value = OTHER[cls]
    assert record != cls(**(values | {name: value}))
    if cls is AgreementReport:  # BucketReport's fields take the same values
        assert record != BucketReport(*values.values())

    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(**values))
        assert len({record, cls(**values)}) == 1

    for act in (lambda: setattr(record, first, first_value),
                lambda: setattr(record, "no_such_field", 1),
                lambda: delattr(record, first)):
        with pytest.raises(AttributeError):
            act()
    assert repr(record) == text

    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text


def test_cases_cover_every_frozen_record_type():
    # A record type added later is held to the checks above only through
    # CASES, which pin the order its __init__ sets its fields in.
    for module in pkgutil.iter_modules(stepladder.__path__):
        if module.name != "__main__":  # which would run the CLI
            importlib.import_module(f"stepladder.{module.name}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {cls for cls in subclasses(Frozen) if cls.__module__.startswith("stepladder.")}
    assert defined == {case[0] for case in CASES}


def test_mutable_harvest_records_construct_with_their_defaults():
    first, second = HarvestResult(), HarvestResult()
    assert (first.traces, first.failures, first.cache_hits, first.grant_times) == \
        ([], [], 0, [])
    assert first.traces is not second.traces and first.failures is not second.failures
    assert first.grant_times is not second.grant_times
    first.cache_hits += 1
    first.grant_times.append(0.5)
    assert first.requests_sent == 1 and second.requests_sent == 0
    failure = HarvestFailure("ex1", 0, "timeout")
    tally = HarvestResult([], [failure], 2, [0.1, 0.2])
    assert (tally.failures, tally.cache_hits, tally.requests_sent) == ([failure], 2, 2)
    assert HarvestResult(cache_hits=3).cache_hits == 3

    example = Example("ex1", "math", "p")
    unit = _Unit(0, example, 1, ("sys", "user"), "key")
    assert (unit.position, unit.example, unit.sample, unit.texts, unit.key,
            unit.attempts, unit.outcome) == (0, example, 1, ("sys", "user"), "key", 0, None)
    unit.attempts += 1
    unit.outcome = failure
    assert _Unit(1, example, 0, ("s", "u"), "k", attempts=2, outcome=failure).attempts == 2
    assert not hasattr(unit, "__dict__")
