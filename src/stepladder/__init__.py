"""Depth-of-thought difficulty scoring and curriculum construction.

The toolkit measures how many reasoning steps a teacher model spends on
each training example, buckets examples by that depth, and emits
deterministic shallow-to-deep curriculum manifests plus baseline
orderings and rank-statistics reports for validating the signal.

Stage modules load on first use of one of their names, so a command
pays only for the stages it runs.
"""

import importlib

__version__ = "0.2.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "AgreementReport", "ConfoundReport", "cross_teacher_agreement",
        "kendall_tau", "length_confound", "spearman",
    ), "analyzer"),
    **dict.fromkeys((
        "Bucket", "BucketReport", "BucketSpec", "BucketizeResult",
        "OverflowRecord", "bucketize", "describe", "read_buckets", "write_buckets",
    ), "bucketer"),
    **dict.fromkeys((
        "BASELINE_KINDS",
        "CurriculumManifest", "DoTScore", "Example", "Phase", "SchedulePlan",
        "TeacherProfile", "Trace", "count_tokens",
        "iter_corpus", "read_completions", "read_corpus", "read_manifest", "read_scores",
        "read_traces", "write_completions", "write_corpus", "write_manifest",
        "write_scores", "write_traces",
    ), "corpus"),
    **dict.fromkeys((
        "AnalysisError", "CorpusError", "HarvestError", "ParameterError",
        "ScheduleError", "ScoringError", "SegmentationError", "StepladderError",
    ), "errors"),
    **dict.fromkeys((
        "DEFAULT_TEMPLATE", "HarvestFailure", "HarvestJob", "HarvestResult",
        "PromptTemplate", "harvest", "harvest_stream",
    ), "harvester"),
    **dict.fromkeys((
        "baseline_order", "build_curriculum", "filter_by_depth", "phase_weights",
    ), "scheduler"),
    **dict.fromkeys((
        "aggregate_self_consistency", "score", "score_corpus", "score_stream",
    ), "scorer"),
    **dict.fromkeys((
        "DEFAULT_RULES", "SegmentationRules", "audit_sample", "segment",
        "trace_from_text",
    ), "segmenter"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS.values():  # a stage module itself, as eager imports gave
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
