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

import errno
import hashlib
import json
import math
import os
import re
import sys
import threading
from contextlib import contextmanager
from itertools import repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Iterator, Mapping, Optional
from urllib.parse import urlparse

from .errors import CorpusError, StepladderError

SEGMENTATION_MODES = ("numbered", "labeled", "bulleted", "paragraph-fallback")
CONFIDENCE_LEVELS = ("high", "low")

# Relative tolerance for the dot_norm = k / ln(1 + tok) identity.
DOT_NORM_RTOL = 1e-12

# The largest step or token count a trace or score may hold.  dot_norm is
# computed in floats: up to this bound k and tok each convert to a float,
# and k / ln(1 + tok) <= k / ln 2 stays finite.
MAX_COUNT = 10 ** 308

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


class Frozen:
    """Base of the immutable record types.

    A subclass names its fields in __slots__, in constructor order, and
    its __init__ ends by setting them all with _set_fields.  Two records
    are equal when they are of one class with equal fields; a record
    hashes by its fields, so one that holds a dict is unhashable.  repr
    reads like the constructor call, assignment and deletion raise
    AttributeError, and pickle and copy rebuild a record through its
    __init__.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each field's slot setter, in slot order: they bypass __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set_fields(self, *values) -> None:
        """Set the fields to values, given in slot order."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Example(Frozen):
    """One training item: a prompt plus optional difficulty side-channels."""

    __slots__ = ("id", "task", "prompt", "reference_answer", "external_difficulty",
                 "judge_score")

    def __init__(self, id: str, task: str, prompt: str, reference_answer: Optional[str] = None,
                 external_difficulty: Optional[float] = None,
                 judge_score: Optional[float] = None):
        if not id:
            raise CorpusError("example id must be nonempty")
        if not task:
            raise CorpusError(f"example {id!r}: task must be nonempty")
        if external_difficulty is not None and not math.isfinite(external_difficulty):
            raise CorpusError(f"example {id!r}: external_difficulty must be finite")
        if judge_score is not None and not (0.0 <= judge_score <= 1.0):
            raise CorpusError(f"example {id!r}: judge_score must lie in [0, 1]")
        self._set_fields(id, task, prompt, reference_answer, external_difficulty, judge_score)


class Trace(Frozen):
    """A teacher's reasoning output for one example, segmented into steps:
    step i's text is steps[i - 1]."""

    __slots__ = ("example_id", "teacher_id", "raw_text", "steps", "tok", "segmentation_mode",
                 "confidence")

    def __init__(self, example_id: str, teacher_id: str, raw_text: str,
                 steps: tuple[str, ...], tok: int, segmentation_mode: str, confidence: str):
        steps = tuple(steps)
        if "" in steps:
            raise CorpusError(f"trace ({example_id}, {teacher_id}): step "
                              f"{steps.index('') + 1}: text must be nonempty")
        if not 1 <= tok <= MAX_COUNT:
            raise CorpusError(f"trace ({example_id}, {teacher_id}): tok must lie in "
                              f"1..{MAX_COUNT:.0e}")
        if segmentation_mode not in SEGMENTATION_MODES:
            raise CorpusError(f"unknown segmentation_mode {segmentation_mode!r}")
        if confidence not in CONFIDENCE_LEVELS:
            raise CorpusError(f"unknown confidence {confidence!r}")
        self._set_fields(example_id, teacher_id, raw_text, steps, tok, segmentation_mode,
                         confidence)

    @property
    def k(self) -> int:
        return len(self.steps)


class DoTScore(Frozen):
    """Depth-of-thought score for one (example, teacher) pair.

    k is the step count, tok the trace token count, and dot_norm the
    verbosity-controlled variant k / ln(1 + tok).
    """

    __slots__ = ("example_id", "teacher_id", "k", "tok", "dot_norm", "n_samples")

    def __init__(self, example_id: str, teacher_id: str, k: int, tok: int, dot_norm: float,
                 n_samples: int = 1):
        if not 1 <= k <= MAX_COUNT:
            raise CorpusError(f"score ({example_id}): k must lie in 1..{MAX_COUNT:.0e}")
        if not 1 <= tok <= MAX_COUNT:
            raise CorpusError(f"score ({example_id}): tok must lie in 1..{MAX_COUNT:.0e}")
        if n_samples < 1:
            raise CorpusError(f"score ({example_id}): n_samples must be >= 1")
        expected = k / math.log1p(tok)
        if not abs(dot_norm - expected) <= DOT_NORM_RTOL * abs(expected):
            raise CorpusError(
                f"score ({example_id}): dot_norm {dot_norm!r} does not "
                f"equal k/ln(1+tok) = {expected!r}"
            )
        self._set_fields(example_id, teacher_id, k, tok, dot_norm, n_samples)

    @classmethod
    def compute(cls, example_id: str, teacher_id: str, k: int, tok: int,
                n_samples: int = 1) -> "DoTScore":
        """Build a score with dot_norm derived from k and tok."""
        if not (1 <= k <= MAX_COUNT and 1 <= tok <= MAX_COUNT):
            raise CorpusError(f"score ({example_id}): k and tok must lie in 1..{MAX_COUNT:.0e}")
        return cls(example_id, teacher_id, k, tok, k / math.log1p(tok), n_samples)


class TeacherProfile(Frozen):
    """Connection and sampling settings for one teacher endpoint."""

    __slots__ = ("teacher_id", "endpoint_url", "model_name", "template_id",
                 "samples_per_example", "temperature")

    def __init__(self, teacher_id: str, endpoint_url: str, model_name: str, template_id: str,
                 samples_per_example: int = 1, temperature: float = 0.7):
        if not teacher_id:
            raise CorpusError("teacher_id must be nonempty")
        if not 1 <= samples_per_example <= MAX_SAMPLES_PER_EXAMPLE:
            raise CorpusError(f"samples_per_example must lie in 1..{MAX_SAMPLES_PER_EXAMPLE}, "
                              f"got {samples_per_example}")
        if not 0 <= temperature < math.inf:
            raise CorpusError(f"temperature must be finite and >= 0, got {temperature}")
        try:
            parsed = urlparse(endpoint_url)
            parsed.port  # raises for a port that is no number in 0..65535
        except ValueError:  # e.g. an unclosed IPv6 bracket, or port 99999
            parsed = None
        if parsed is None or parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise CorpusError(f"endpoint_url is not a valid URL: {endpoint_url!r}")
        self._set_fields(teacher_id, endpoint_url, model_name, template_id, samples_per_example,
                         temperature)


class SchedulePlan(Frozen):
    """Parameters of a curriculum build.

    mode "staged" trains phase t on bucket t only; mode "mixed" samples
    phase t from buckets 1..t with weights w_i proportional to i**alpha.
    mixing "adjacent" restricts a mixed phase t to buckets t-1 and t.
    """

    __slots__ = ("mode", "phases", "budget_per_phase", "seed", "alpha", "with_replacement",
                 "mixing")

    def __init__(self, mode: str, phases: int, budget_per_phase: int, seed: int,
                 alpha: float = 0.0, with_replacement: bool = False, mixing: str = "union"):
        if mode not in ("staged", "mixed"):
            raise CorpusError(f"unknown schedule mode {mode!r}")
        if mixing not in ("union", "adjacent"):
            raise CorpusError(f"unknown mixing {mixing!r}")
        if phases < 1:
            raise CorpusError("phases must be >= 1")
        if budget_per_phase < 1:
            raise CorpusError("budget_per_phase must be >= 1")
        if not (alpha >= 0 and math.isfinite(alpha)):
            raise CorpusError("alpha must be finite and >= 0")
        if not (-(2**63) <= seed < 2**63):
            raise CorpusError("seed must fit in 64 bits")
        self._set_fields(mode, phases, budget_per_phase, seed, alpha, with_replacement, mixing)


class Phase(Frozen):
    """One training phase: an ordered id list plus per-bucket accounting."""

    __slots__ = ("index", "example_ids", "bucket_counts")

    def __init__(self, index: int, example_ids: tuple[str, ...],
                 bucket_counts: Optional[dict[int, int]] = None):
        example_ids = tuple(example_ids)
        if index < 1:
            raise CorpusError(f"phase index must be >= 1, got {index}")
        self._set_fields(index, example_ids, {} if bucket_counts is None else bucket_counts)


class CurriculumManifest(Frozen):
    """A seeded, phase-ordered sampling plan consumable by any trainer."""

    __slots__ = ("plan", "phases", "provenance")

    def __init__(self, plan: SchedulePlan, phases: tuple[Phase, ...],
                 provenance: Optional[dict[str, str]] = None):
        phases = tuple(phases)
        if not phases:
            raise CorpusError("manifest must contain at least one phase")
        for phase in phases:
            if fault := _phase_fault(phase, plan.budget_per_phase):
                raise CorpusError(f"phase {phase.index}: {fault[1]}")
        self._set_fields(plan, phases, {} if provenance is None else provenance)


def _phase_fault(phase: Phase, budget: int) -> Optional[tuple[str, str]]:
    """The phase rules: a phase holds at most budget ids, and its
    bucket_counts, unless empty, name only buckets 1..index, each with a
    count of at least 1, and add up to its ids.  Returns the field of the
    first rule phase breaks and how it breaks it, or None."""
    ids, counts = len(phase.example_ids), phase.bucket_counts
    if ids > budget:
        return "example_ids", f"{ids} ids exceed budget {budget}"
    for b, n in counts.items():
        if not 1 <= b <= phase.index:
            return "bucket_counts", f"draws from bucket {b}, outside buckets 1..{phase.index}"
        if n < 1:
            return "bucket_counts", f"bucket {b} has count {n}, below 1"
    if counts and (total := sum(counts.values())) != ids:
        return "bucket_counts", f"counts add up to {total}, not to the phase's {ids} ids"
    return None


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
    if type(value) is int and abs(value) > sys.float_info.max:
        return "integer past float range"
    return repr(value) if type(value) is float else _NAMES[type(value)]


def _decode(kind, value):
    """value checked against kind and converted as the kind says."""
    if type(value) is kind:
        return value
    shape = type(kind)
    if shape is Record:
        return kind.decode(value)
    if kind is NUMBER:
        # An int past float range would overflow float().
        if type(value) is int and abs(value) <= sys.float_info.max or \
                type(value) is float and math.isfinite(value):
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
    tag to its Record; a tagged file's value is (tag, decoded record).
    """
    path = Path(path)
    tagged = isinstance(records, dict)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            obj = _parse(where, raw)
            record = records
            if tagged:
                tag = obj.get("record") if type(obj) is dict else None
                record = records.get(tag) if type(tag) is str else None
                if record is None:
                    raise CorpusError(f"{where}: 'record': expected one of "
                                      f"{', '.join(map(repr, records))}, got {tag!r}")
            value = _build(where, record, obj, raw)
            yield where, (tag, value) if tagged else value


def read_headed(path, what: str, records: dict, count: Callable, ids: Callable) -> tuple:
    """Decode a tagged JSONL file of one header line and numbered lines,
    and check the rules every such file keeps.

    records maps the header's tag, then the numbered lines' tag, then any
    other line's tag to its Record.  The file holds exactly one header
    (what names the file when it has none).  The numbered lines carry
    "index" 1, 2, ... in file order, as many as count(header) says, a
    (field, number) pair naming the header field that says it.
    ids(header, tag, value) is a line's field and the example ids in it
    that must not appear on any other line.  Returns the header and the
    other lines as (where, tag, value), in file order.
    """
    head, numbered = list(records)[:2]
    header = header_where = None
    lines, n = [], 0
    for where, (tag, value) in read_jsonl(path, records):
        if tag == head:
            if header is not None:
                raise CorpusError(f"{where}: duplicate {head} header")
            header, header_where = value, where
            continue
        if tag == numbered:
            n += 1
            if value.index != n:
                raise CorpusError(f"{where}: 'index': expected {n} for {tag} line {n}, "
                                  f"got {value.index}")
        lines.append((where, tag, value))
    if header is None:
        raise CorpusError(f"{path}: {what} has no {head} header")
    field, want = count(header)
    if n != want:
        raise CorpusError(f"{header_where}: {field!r}: {want} {field} but {n} {numbered} "
                          f"line(s)")
    seen: dict[str, str] = {}
    for where, tag, value in lines:
        field, line_ids = ids(header, tag, value)
        for example_id in line_ids:
            if example_id in seen:
                raise CorpusError(f"{where}: {field!r}: example {example_id!r} "
                                  f"already appears at {seen[example_id]}")
            seen[example_id] = where
    return header, lines


def read_json(path, record: Record):
    """Decode a file holding one JSON object."""
    raw = Path(path).read_bytes()
    return _build(str(path), record, _parse(str(path), raw), raw)


# The (temp file, target) pairs written inside all_or_nothing(), per thread.
_PENDING = threading.local()


def write_atomic(path, chunks: Iterable[str]) -> Path:
    """Write text chunks to path; readers see the old file or the whole new one.

    A chunk that fails to arrive leaves path's old bytes and no temp file;
    a path that is a directory is refused before anything is written.
    Inside all_or_nothing(), path is replaced only when the block ends.
    Returns the file that holds the new bytes: path, or inside
    all_or_nothing() its temp file until the block ends.
    """
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    pending = getattr(_PENDING, "files", None)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}."
                         f"{len(pending or ())}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        if pending is None:
            os.replace(tmp, path)
            return path
        pending.append((tmp, path))
        return tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def all_or_nothing():
    """A block whose write_atomic() files replace their targets together:
    each waits in its temp file until the block ends, and an error in the
    block removes them all and replaces none."""
    pending = _PENDING.files = []
    try:
        yield
        for tmp, path in pending:
            os.replace(tmp, path)
    finally:
        _PENDING.files = None
        for tmp, _path in pending:
            tmp.unlink(missing_ok=True)


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


def iter_corpus(path, ids: Optional[dict] = None) -> Iterator[Example]:
    """Every example of an examples JSONL file, in file order, one at a time.

    A bad line raises CorpusError naming it when the stream reaches it:
    malformed JSON, a missing or mistyped field, an invariant violation,
    or an id read before.  The ids read so far are the keys of ids (a
    fresh dict when not given), each set to None as its example is
    yielded; a caller that keeps one value per example stores it there,
    so that the one mapping it keeps is also the duplicate check.
    """
    seen = {} if ids is None else ids
    for where, example in read_jsonl(path, EXAMPLE):
        if example.id in seen:
            raise CorpusError(f"{where}: duplicate example id {example.id!r}")
        seen[example.id] = None
        yield example


class _Checked:
    """A stream of scores that one_score_per_example checks against known.
    Iterating it iterates the check itself, which stays lazy."""

    __slots__ = ("scores", "known")

    def __init__(self, scores: Iterator[DoTScore], known: Optional[Mapping]):
        self.scores, self.known = scores, known

    def __iter__(self):
        return self.scores

    def __next__(self):
        return next(self.scores)


def one_score_per_example(scores: Iterable[DoTScore], known: Optional[Mapping] = None,
                          source: str = "", field: str = "",
                          where: Optional[Callable[[], str]] = None) -> Iterator[DoTScore]:
    """The scores, in order, one per example.

    A second score for one example id raises CorpusError.  So does, when
    known is given, a score whose example known lacks ("no example ... in
    source") or maps to None ("example ... has no field in source").
    where, when given, names the place the score last read came from, and
    the message starts "<where()>: 'example_id': ".

    A stream this function returned for the same known (the same object)
    is returned as it is: it is checked already, with its own messages,
    and a second check would only keep a second copy of the ids.
    """
    if type(scores) is _Checked and scores.known is known:
        return scores
    return _Checked(_one_score_per_example(scores, known, source, field, where), known)


def _one_score_per_example(scores, known, source, field, where):
    """one_score_per_example's check, as a generator.

    While the ids arrive in increasing order, as in a file written in id
    order, none can repeat, so they are kept in a list; the set of them is
    made at the first id that is not larger than the one before.
    """
    def refused(problem: str) -> CorpusError:
        return CorpusError(problem if where is None else f"{where()}: 'example_id': {problem}")

    # last is the id before while the ids increase, and None from the first that does not.
    ids, last = [], ""
    for score in scores:
        ex_id = score.example_id
        if last is not None and ex_id > last:
            ids.append(last := ex_id)
        else:
            if last is not None:
                ids, last = set(ids), None
            if ex_id in ids:
                raise refused(f"duplicate score for example {ex_id!r}")
            ids.add(ex_id)
        if known is not None and known.get(ex_id) is None:
            raise refused(f"no example {ex_id!r} in {source}" if ex_id not in known else
                          f"example {ex_id!r} has no {field} in {source}")
        yield score


def read_corpus(path) -> list[Example]:
    """Every example of an examples JSONL file, in file order; a bad line
    raises as in iter_corpus."""
    return list(iter_corpus(path))


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
    """Decode a manifest file and check it against its own plan header by
    read_headed's rules: one phase line per phase of the plan, and without
    replacement, an example id on one phase line only.  Each phase line
    keeps the phase rules of a CurriculumManifest."""
    (plan, provenance), lines = read_headed(
        path, "manifest", {"plan": PLAN, "phase": PHASE},
        lambda header: ("phases", header[0].phases),
        lambda header, _tag, phase: ("example_ids",
                                     () if header[0].with_replacement else phase.example_ids))
    for where, _tag, phase in lines:
        if fault := _phase_fault(phase, plan.budget_per_phase):
            raise CorpusError(f"{where}: {fault[0]!r}: {fault[1]}")
    return CurriculumManifest(plan, [phase for _where, _tag, phase in lines], provenance)
