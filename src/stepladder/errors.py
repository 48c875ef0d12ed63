"""Exception hierarchy for the stepladder toolkit.

Every error raised on a contract violation derives from StepladderError so
callers (and the CLI) can distinguish toolkit failures from bugs.
"""


def some_ids(ids: list) -> str:
    """The ids an error message names: the first ten, then how many more."""
    more = f" and {len(ids) - 10} more" if len(ids) > 10 else ""
    return ", ".join(ids[:10]) + more


class StepladderError(Exception):
    """Base class for all toolkit errors."""


class CorpusError(StepladderError):
    """Malformed corpus/trace/score/manifest data or file contents."""


class ParameterError(StepladderError):
    """An argument violates its documented range or consistency rule."""


class SegmentationError(StepladderError):
    """A trace cannot be segmented (e.g. empty input)."""


class ScoringError(StepladderError):
    """A trace or score group violates scoring preconditions."""


class ScheduleError(StepladderError):
    """Curriculum construction failed (invalid plan, exhausted bucket, ...)."""


class AnalysisError(StepladderError):
    """Statistical validation preconditions not met."""


class HarvestError(StepladderError):
    """Harvest setup failure (bad template, missing API key, ...)."""
