"""Domain data model and JSONL persistence.

All corpus files are JSONL: UTF-8, LF line endings, one JSON object per
line, keys emitted in a fixed documented order, optional fields omitted
(never null) when absent.  Writing the same records twice produces
byte-identical files, which is what makes seeded pipeline runs
reproducible end to end.  One table per record type drives both
writing and strict reading; a bad field is a CorpusError naming
"<path>:<line>: '<field>'".

File schemas
------------
examples:     {id, task, prompt, reference_answer?, external_difficulty?, judge_score?}
completions:  {example_id, teacher_id, text}          (raw, unsegmented teacher output)
traces:       {example_id, teacher_id, raw_text, steps: [{index, text}], tok,
               segmentation_mode, confidence}
scores:       {example_id, teacher_id, k, tok, dot_norm, n_samples}
manifest:     one {"record": "plan", ...} header line, then one
              {"record": "phase", ...} line per phase
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Iterator, Optional
from urllib.parse import urlparse

from .errors import CorpusError, StepladderError

SEGMENTATION_MODES = ("numbered", "labeled", "bulleted", "paragraph-fallback")
CONFIDENCE_LEVELS = ("high", "low")

# Relative tolerance for the dot_norm = k / ln(1 + tok) identity.
DOT_NORM_RTOL = 1e-12

# The most samples a teacher may be asked for per example.  A harvest
# works out every sample's cache key before it sends the first request.
MAX_SAMPLES_PER_EXAMPLE = 10_000

# Orderings scheduler.baseline_order builds; defined here so the CLI's
# parser can list them without loading the scheduler.
BASELINE_KINDS = ("token_length", "judge_score", "random")


def is_text(s: str) -> bool:
    """Whether UTF-8 can encode s: a lone surrogate, such as json.loads
    keeps from an escape like "\\ud800", cannot be written out."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def count_tokens(text: str) -> int:
    """Count whitespace-delimited tokens.

    The toolkit tokenizer is Unicode-whitespace splitting: maximal runs of
    non-whitespace characters.  Deterministic and dependency-free; counts
    are not comparable with subword tokenizers.
    """
    return len(text.split())


@dataclass(frozen=True)
class Example:
    """One training item: a prompt plus optional difficulty side-channels."""

    id: str
    task: str
    prompt: str
    reference_answer: Optional[str] = None
    external_difficulty: Optional[float] = None
    judge_score: Optional[float] = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("example id must be nonempty")
        if not self.task:
            raise CorpusError(f"example {self.id!r}: task must be nonempty")
        if self.external_difficulty is not None and not math.isfinite(self.external_difficulty):
            raise CorpusError(f"example {self.id!r}: external_difficulty must be finite")
        if self.judge_score is not None and not (0.0 <= self.judge_score <= 1.0):
            raise CorpusError(f"example {self.id!r}: judge_score must lie in [0, 1]")


@dataclass(frozen=True)
class Trace:
    """A teacher's reasoning output for one example, segmented into steps:
    step i's text is steps[i - 1]."""

    example_id: str
    teacher_id: str
    raw_text: str
    steps: tuple[str, ...]
    tok: int
    segmentation_mode: str
    confidence: str

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if "" in self.steps:
            raise CorpusError(f"trace ({self.example_id}, {self.teacher_id}): step "
                              f"{self.steps.index('') + 1}: text must be nonempty")
        if self.tok < 1:
            raise CorpusError(
                f"trace ({self.example_id}, {self.teacher_id}): tok must be >= 1"
            )
        if self.segmentation_mode not in SEGMENTATION_MODES:
            raise CorpusError(f"unknown segmentation_mode {self.segmentation_mode!r}")
        if self.confidence not in CONFIDENCE_LEVELS:
            raise CorpusError(f"unknown confidence {self.confidence!r}")

    @property
    def k(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DoTScore:
    """Depth-of-thought score for one (example, teacher) pair.

    k is the step count, tok the trace token count, and dot_norm the
    verbosity-controlled variant k / ln(1 + tok).
    """

    example_id: str
    teacher_id: str
    k: int
    tok: int
    dot_norm: float
    n_samples: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise CorpusError(f"score ({self.example_id}): k must be >= 1")
        if self.tok < 1:
            raise CorpusError(f"score ({self.example_id}): tok must be >= 1")
        if self.n_samples < 1:
            raise CorpusError(f"score ({self.example_id}): n_samples must be >= 1")
        expected = self.k / math.log1p(self.tok)
        if not abs(self.dot_norm - expected) <= DOT_NORM_RTOL * abs(expected):
            raise CorpusError(
                f"score ({self.example_id}): dot_norm {self.dot_norm!r} does not "
                f"equal k/ln(1+tok) = {expected!r}"
            )

    @classmethod
    def compute(cls, example_id: str, teacher_id: str, k: int, tok: int,
                n_samples: int = 1) -> "DoTScore":
        """Build a score with dot_norm derived from k and tok."""
        if k < 1 or tok < 1:
            raise CorpusError(f"score ({example_id}): k and tok must be >= 1")
        return cls(example_id, teacher_id, k, tok, k / math.log1p(tok), n_samples)


@dataclass(frozen=True)
class TeacherProfile:
    """Connection and sampling settings for one teacher endpoint."""

    teacher_id: str
    endpoint_url: str
    model_name: str
    template_id: str
    samples_per_example: int = 1
    temperature: float = 0.7

    def __post_init__(self):
        if not self.teacher_id:
            raise CorpusError("teacher_id must be nonempty")
        if not 1 <= self.samples_per_example <= MAX_SAMPLES_PER_EXAMPLE:
            raise CorpusError(f"samples_per_example must lie in 1..{MAX_SAMPLES_PER_EXAMPLE}, "
                              f"got {self.samples_per_example}")
        if not 0 <= self.temperature < math.inf:
            raise CorpusError(f"temperature must be finite and >= 0, got {self.temperature}")
        try:
            parsed = urlparse(self.endpoint_url)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            parsed = None
        if parsed is None or parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise CorpusError(f"endpoint_url is not a valid URL: {self.endpoint_url!r}")


@dataclass(frozen=True)
class SchedulePlan:
    """Parameters of a curriculum build.

    mode "staged" trains phase t on bucket t only; mode "mixed" samples
    phase t from buckets 1..t with weights w_i proportional to i**alpha.
    mixing "adjacent" restricts a mixed phase t to buckets t-1 and t.
    """

    mode: str
    phases: int
    budget_per_phase: int
    seed: int
    alpha: float = 0.0
    with_replacement: bool = False
    mixing: str = "union"

    def __post_init__(self):
        if self.mode not in ("staged", "mixed"):
            raise CorpusError(f"unknown schedule mode {self.mode!r}")
        if self.mixing not in ("union", "adjacent"):
            raise CorpusError(f"unknown mixing {self.mixing!r}")
        if self.phases < 1:
            raise CorpusError("phases must be >= 1")
        if self.budget_per_phase < 1:
            raise CorpusError("budget_per_phase must be >= 1")
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise CorpusError("alpha must be finite and >= 0")
        if not (-(2**63) <= self.seed < 2**63):
            raise CorpusError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Phase:
    """One training phase: an ordered id list plus per-bucket accounting."""

    index: int
    example_ids: tuple[str, ...]
    bucket_counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "example_ids", tuple(self.example_ids))
        if self.index < 1:
            raise CorpusError(f"phase index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class CurriculumManifest:
    """A seeded, phase-ordered sampling plan consumable by any trainer."""

    plan: SchedulePlan
    phases: tuple[Phase, ...]
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise CorpusError("manifest must contain at least one phase")
        for phase in self.phases:
            if len(phase.example_ids) > self.plan.budget_per_phase:
                raise CorpusError(
                    f"phase {phase.index}: {len(phase.example_ids)} ids exceed "
                    f"budget {self.plan.budget_per_phase}"
                )
            for b in phase.bucket_counts:
                if not (1 <= b <= phase.index):
                    raise CorpusError(
                        f"phase {phase.index} draws from bucket {b}, "
                        f"outside buckets 1..{phase.index}"
                    )


# ---------------------------------------------------------------------------
# Record codec
#
# A field's kind is written like its type: str, int (never a bool), bool,
# NUMBER (any finite number, read as a float), int | None, [item] for an
# array of items, (first, second) for a two-item array read as a tuple,
# {str: value} or {int: value} for an object, or a nested Record.
NUMBER = "finite number"


class _Invalid(Exception):
    """A value failed its kind; field is the path to it, outermost first."""

    field = ""

    def inside(self, part: str) -> "_Invalid":
        self.field = part + ("." if self.field[:1] not in ("", "[") else "") + self.field
        return self


_ENCODER = json.JSONEncoder(ensure_ascii=False)
_ENCODE_TEXT = json.encoder.encode_basestring  # how _ENCODER writes a str
_NAMES = {str: "string", int: "integer", bool: "boolean", list: "array", dict: "object",
          type(None): "null"}


def _describe(value) -> str:
    return repr(value) if type(value) is float else _NAMES[type(value)]


def _decode(kind, value):
    """value checked against kind and converted as the kind says."""
    if type(value) is kind:
        return value
    shape = type(kind)
    if shape is Record:
        return kind.decode(value)
    if kind is NUMBER:
        if type(value) is int or type(value) is float and math.isfinite(value):
            return float(value)
    elif shape is UnionType:
        return None if value is None else _decode(kind.__args__[0], value)
    elif type(value) is list and (shape is list or shape is tuple and len(value) == len(kind)):
        out = []
        try:
            for item, x in zip(kind if shape is tuple else repeat(kind[0]), value):
                out.append(x if type(x) is item else _decode(item, x))
        except _Invalid as exc:
            raise exc.inside(f"[{len(out)}]")
        return tuple(out) if shape is tuple else out
    elif shape is dict and type(value) is dict:
        ((key_kind, item),) = kind.items()
        out = {}
        try:
            for key, x in value.items():
                if key_kind is int and not (key.isascii() and key.isdigit()):
                    raise _Invalid("expected an integer key")
                out[key_kind(key)] = x if type(x) is item else _decode(item, x)
        except _Invalid as exc:
            raise exc.inside(key)
        return out
    expected = f"array of {len(kind)}" if shape is tuple else kind if kind is NUMBER else \
        _NAMES[kind if isinstance(kind, type) else shape]
    raise _Invalid(f"expected {expected}, got {_describe(value)}")


def _encoder(kind) -> Optional[Callable]:
    """How a field turns back into JSON (objects sorted by key); None: as it is."""
    if type(kind) is dict:
        return lambda mapping: dict(sorted(mapping.items()))
    if type(kind) is list and type(kind[0]) is Record:
        return lambda items: list(map(kind[0].encode, items))


class Record:
    """One JSON object type: its (key, kind, optional) fields in file order.

    make builds the value from the decoded fields, passed by key; parts
    takes a value apart into its field values in table order (default:
    the attributes named like the keys, or the items when make is dict).
    Absent optional fields fall to make's defaults on decoding and are
    omitted on encoding.  A tag starts each line with {"record": tag}.
    """

    def __init__(self, fields, make: Callable, parts: Optional[Callable] = None,
                 tag: Optional[str] = None):
        self.fields, self.make, self.tag = fields, make, tag
        self._keys = tuple(key for key, _kind, _opt in fields)
        self.parts = parts or (itemgetter if make is dict else attrgetter)(*self._keys)
        # The fields that need more on encoding than a copy of their value.
        self._special = tuple((key, optional, _encoder(kind)) for key, kind, optional in fields
                              if optional or _encoder(kind))

    def decode(self, obj):
        if type(obj) is not dict:
            raise _Invalid(f"expected a JSON object, got {_describe(obj)}")
        values = {}
        try:
            for key, kind, optional in self.fields:
                if key in obj:
                    value = obj[key]
                    values[key] = value if type(value) is kind else _decode(kind, value)
                elif not optional:
                    raise _Invalid("missing")
        except _Invalid as exc:
            raise exc.inside(key)
        return self.make(**values)

    def encode(self, value) -> dict:
        obj = dict(zip(self._keys, self.parts(value)))
        for key, optional, encode in self._special:
            part = obj[key]
            if part is None:
                if optional:
                    del obj[key]
            elif encode is not None:
                obj[key] = encode(part)
        return {"record": self.tag, **obj} if self.tag else obj

    def dump(self, value) -> str:
        """One JSONL line, newline included."""
        return _ENCODER.encode(self.encode(value)) + "\n"

    def iter(self, path) -> Iterator:
        """Every record of a JSONL file of this type, in file order, one at a
        time; a bad line raises when it is reached."""
        for _where, value in read_jsonl(path, self):
            yield value

    def read(self, path) -> list:
        """Every record of a JSONL file of this type, in file order."""
        return list(self.iter(path))

    def write(self, values: Iterable, path) -> None:
        """Write values as a JSONL file of this type, atomically."""
        write_atomic(path, map(self.dump, values))


# A JSON escape of a UTF-16 surrogate.  json.loads joins a valid pair into
# one character but keeps a lone one, which UTF-8 cannot encode, so such a
# record could be read and never written back.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def _check_text(value) -> None:
    """Raise _Invalid at the first string in value holding a lone surrogate."""
    if type(value) is str:
        if not is_text(value):
            raise _Invalid("lone surrogate escape, not text")
    elif type(value) in (list, dict):
        items = value.items() if type(value) is dict else \
            ((f"[{i}]", item) for i, item in enumerate(value))
        for key, item in items:
            try:
                _check_text(key)
                _check_text(item)
            except _Invalid as exc:
                raise exc.inside(key)


def _build(where: str, record: Record, obj, raw: bytes):
    """record.decode(obj), with every failure located at where; raw is the
    text obj was parsed from."""
    try:
        if _SURROGATE_ESCAPE.search(raw):
            _check_text(obj)
        return record.decode(obj)
    except _Invalid as exc:
        field = f"'{exc.field}': " if exc.field else ""
        raise CorpusError(f"{where}: {field}{exc.args[0]}") from None
    except StepladderError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _parse(where: str, raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{where}: not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        problem = "blank line is not a record" if not raw.strip() \
            else f"malformed JSON ({exc.msg})"
        raise CorpusError(f"{where}: {problem}") from None
    except (ValueError, RecursionError) as exc:
        # An integer literal past int()'s digit limit, or nesting too deep.
        raise CorpusError(f"{where}: malformed JSON ({str(exc).partition(';')[0]})") from None


def read_jsonl(path, records) -> Iterator[tuple[str, object]]:
    """Decode a JSONL file line by line, yielding ("<path>:<line>", value).

    records is one Record, or for a tagged file a dict from each "record"
    tag to its Record.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            obj = _parse(where, raw)
            record = records
            if isinstance(records, dict):
                tag = obj.get("record") if type(obj) is dict else None
                record = records.get(tag) if type(tag) is str else None
                if record is None:
                    raise CorpusError(f"{where}: 'record': expected one of "
                                      f"{', '.join(map(repr, records))}, got {tag!r}")
            yield where, _build(where, record, obj, raw)


def read_json(path, record: Record):
    """Decode a file holding one JSON object."""
    raw = Path(path).read_bytes()
    return _build(str(path), record, _parse(str(path), raw), raw)


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write text chunks to path; readers see the old file or the whole new one.

    A chunk that fails to arrive leaves path's old bytes and no temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_sha256(path: Path) -> str:
    """Hex digest of a file's bytes, used in provenance blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Record tables

EXAMPLE = Record((
    ("id", str, False),
    ("task", str, False),
    ("prompt", str, False),
    ("reference_answer", str, True),
    ("external_difficulty", NUMBER, True),
    ("judge_score", NUMBER, True),
), Example)

COMPLETION = Record((("example_id", str, False), ("teacher_id", str, False),
                     ("text", str, False)), dict)

# A step row is (index, text); a trace holds only the texts, in index order.
STEP = Record((("index", int, False), ("text", str, False)),
              lambda index, text: (index, text), lambda row: row)


def _trace(steps, **fields) -> Trace:
    """A Trace from its decoded fields, once its step rows' indices are
    checked to run exactly 1..k."""
    indices = [index for index, _text in steps]
    if indices != list(range(1, len(steps) + 1)):
        raise CorpusError(f"trace ({fields['example_id']}, {fields['teacher_id']}): "
                          f"step indices must be exactly 1..k, got {indices}")
    return Trace(steps=[text for _index, text in steps], **fields)


class _TraceRecord(Record):
    """The trace table, with a direct codec for the rows it describes.

    dump formats a line straight from a trace, and decode builds a Trace
    straight from an object whose every field holds exactly its kind and
    whose step rows carry the indices 1..k in order.  Any other value goes
    through the table, which stays the definition of the format and the
    source of every error.
    """

    _STEP = '{"index": %d, "text": %s}'
    _ROW = ('{"example_id": %s, "teacher_id": %s, "raw_text": %s, "steps": [%s], '
            '"tok": %d, "segmentation_mode": %s, "confidence": %s}\n')
    _FIELDS = itemgetter("example_id", "teacher_id", "raw_text", "steps", "tok",
                         "segmentation_mode", "confidence")

    def dump(self, trace) -> str:
        quote = _ENCODE_TEXT
        # %d writes a bool or a float as an integer; JSON does not.
        if type(trace.tok) is int:
            try:
                return self._ROW % (
                    quote(trace.example_id), quote(trace.teacher_id), quote(trace.raw_text),
                    ", ".join([self._STEP % row for row in enumerate(map(quote, trace.steps), 1)]),
                    trace.tok, quote(trace.segmentation_mode), quote(trace.confidence))
            except TypeError:  # a text field holding no str
                pass
        return super().dump(trace)

    def decode(self, obj):
        try:
            example_id, teacher_id, raw_text, rows, tok, mode, confidence = self._FIELDS(obj)
            if type(rows) is list and type(tok) is int and type(example_id) is \
                    type(teacher_id) is type(raw_text) is type(mode) is type(confidence) is str:
                steps = []
                for i, row in enumerate(rows, 1):
                    index, text = row["index"], row["text"]
                    if type(index) is not int or index != i or type(text) is not str:
                        break
                    steps.append(text)
                else:
                    return Trace(example_id, teacher_id, raw_text, steps, tok, mode, confidence)
        except (KeyError, TypeError, CorpusError):
            pass
        return super().decode(obj)


TRACE = _TraceRecord((
    ("example_id", str, False),
    ("teacher_id", str, False),
    ("raw_text", str, False),
    ("steps", [STEP], False),
    ("tok", int, False),
    ("segmentation_mode", str, False),
    ("confidence", str, False),
), _trace, lambda t: (t.example_id, t.teacher_id, t.raw_text, enumerate(t.steps, 1), t.tok,
                      t.segmentation_mode, t.confidence))

SCORE = Record((
    ("example_id", str, False),
    ("teacher_id", str, False),
    ("k", int, False),
    ("tok", int, False),
    ("dot_norm", NUMBER, False),
    ("n_samples", int, True),
), DoTScore)

_PLAN_FIELDS = (
    ("mode", str, False),
    ("phases", int, False),
    ("budget_per_phase", int, False),
    ("seed", int, False),
    ("alpha", NUMBER, True),
    ("with_replacement", bool, True),
    ("mixing", str, True),
)
_plan_parts = attrgetter(*(key for key, _kind, _opt in _PLAN_FIELDS))

# The plan header carries the manifest's provenance next to the plan.
PLAN = Record(_PLAN_FIELDS + (("provenance", {str: str}, True),),
              lambda provenance=None, **plan: (SchedulePlan(**plan), provenance or {}),
              lambda m: (*_plan_parts(m.plan), m.provenance), tag="plan")

PHASE = Record((("index", int, False), ("example_ids", [str], False),
                ("bucket_counts", {int: int}, True)), Phase, tag="phase")


# ---------------------------------------------------------------------------
# Readers and writers


def read_corpus(path) -> list[Example]:
    """Read an examples JSONL file, in file order.

    Raises CorpusError with the offending line number on malformed JSON,
    a missing or mistyped field, an invariant violation, or a duplicate id.
    """
    examples: list[Example] = []
    seen: set[str] = set()
    for where, example in read_jsonl(path, EXAMPLE):
        if example.id in seen:
            raise CorpusError(f"{where}: duplicate example id {example.id!r}")
        seen.add(example.id)
        examples.append(example)
    return examples


write_corpus = EXAMPLE.write
read_completions = COMPLETION.read  # [{example_id, teacher_id, text}, ...]
write_completions = COMPLETION.write
read_traces = TRACE.read
write_traces = TRACE.write
read_scores = SCORE.read
write_scores = SCORE.write


def write_manifest(manifest: CurriculumManifest, path) -> None:
    """Serialize a manifest, byte-reproducibly.

    The first line is a plan header, followed by one line per phase.  Key
    order is fixed, so identical inputs and seed always produce an
    identical file.
    """
    write_atomic(path, [PLAN.dump(manifest), *map(PHASE.dump, manifest.phases)])


def read_manifest(path) -> CurriculumManifest:
    """Decode a manifest file and check it against its own plan header.

    Phase lines must carry indices 1, 2, ... in order, one per phase of
    the plan.  Without replacement an example id may appear at most once
    across every phase.
    """
    header = header_where = None
    phases: list[tuple[str, Phase]] = []
    for where, value in read_jsonl(path, {"plan": PLAN, "phase": PHASE}):
        if isinstance(value, Phase):
            phases.append((where, value))
            if value.index != len(phases):
                raise CorpusError(f"{where}: 'index': expected {len(phases)} for phase "
                                  f"line {len(phases)}, got {value.index}")
        elif header is not None:
            raise CorpusError(f"{where}: duplicate plan header")
        else:
            header, header_where = value, where
    if header is None:
        raise CorpusError(f"{path}: manifest has no plan header")
    plan, provenance = header
    if len(phases) != plan.phases:
        raise CorpusError(f"{header_where}: 'phases': {plan.phases} phases but "
                          f"{len(phases)} phase line(s)")
    if not plan.with_replacement:
        seen: dict[str, str] = {}
        for where, phase in phases:
            for example_id in phase.example_ids:
                if example_id in seen:
                    raise CorpusError(f"{where}: 'example_ids': example {example_id!r} "
                                      f"already appears at {seen[example_id]}")
                seen[example_id] = where
    try:
        return CurriculumManifest(plan=plan, phases=tuple(phase for _where, phase in phases),
                                  provenance=provenance)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc
