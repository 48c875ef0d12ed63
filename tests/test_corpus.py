from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepladder.analyzer import cross_teacher_agreement, length_confound
from stepladder.bucketer import BucketSpec, bucketize, read_buckets
from stepladder.cli import main
from stepladder.corpus import (
    CONFIDENCE_LEVELS,
    SEGMENTATION_MODES,
    TRACE,
    CurriculumManifest,
    DoTScore,
    Example,
    Phase,
    Record,
    SchedulePlan,
    TeacherProfile,
    Trace,
    count_tokens,
    one_score_per_example,
    read_completions,
    read_corpus,
    read_json,
    read_jsonl,
    read_manifest,
    read_scores,
    read_traces,
    write_completions,
    write_corpus,
    write_manifest,
    write_scores,
    write_traces,
)
from stepladder.errors import CorpusError, StepladderError
from stepladder.harvester import TEMPLATE
from stepladder.scheduler import baseline_order, filter_by_depth


def make_trace(example_id="e1", teacher_id="t1", k=2, tok=10) -> Trace:
    steps = tuple(f"step {i} content" for i in range(1, k + 1))
    return Trace(example_id=example_id, teacher_id=teacher_id,
                 raw_text="1. step one\n2. step two", steps=steps, tok=tok,
                 segmentation_mode="numbered", confidence="high")


def test_count_tokens_whitespace_splitting():
    assert count_tokens("a b c") == 3
    assert count_tokens("  a\t b \n c  ") == 3
    assert count_tokens("") == 0
    assert count_tokens("   ") == 0
    assert count_tokens("one two") == 2  # non-breaking space splits too


def test_example_validation():
    with pytest.raises(CorpusError):
        Example(id="", task="math", prompt="p")
    with pytest.raises(CorpusError):
        Example(id="x", task="", prompt="p")
    with pytest.raises(CorpusError):
        Example(id="x", task="math", prompt="p", judge_score=1.5)
    with pytest.raises(CorpusError):
        Example(id="x", task="math", prompt="p", external_difficulty=float("nan"))


def test_trace_rejects_an_empty_step_text():
    with pytest.raises(CorpusError, match="step 2: text must be nonempty"):
        Trace(example_id="e", teacher_id="t", raw_text="x", steps=("aaa", ""),
              tok=5, segmentation_mode="numbered", confidence="high")


def test_trace_rejects_bad_enum_values():
    steps = ("aaa",)
    with pytest.raises(CorpusError):
        Trace("e", "t", "x", steps, 5, "freestyle", "high")
    with pytest.raises(CorpusError):
        Trace("e", "t", "x", steps, 5, "numbered", "medium")
    with pytest.raises(CorpusError):
        Trace("e", "t", "x", steps, 0, "numbered", "high")


def test_score_validates_dot_norm_identity():
    good = DoTScore.compute("e", "t", 2, 10)
    assert good.dot_norm == 2 / math.log1p(10)
    with pytest.raises(CorpusError, match="dot_norm"):
        DoTScore("e", "t", 2, 10, good.dot_norm * 1.001)
    with pytest.raises(CorpusError, match="dot_norm"):
        DoTScore("e", "t", 2, 10, float("nan"))
    # a value within tolerance is accepted verbatim
    DoTScore("e", "t", 2, 10, good.dot_norm)


def test_score_range_checks():
    with pytest.raises(CorpusError):
        DoTScore.compute("e", "t", 0, 10)
    with pytest.raises(CorpusError):
        DoTScore.compute("e", "t", 1, 0)
    with pytest.raises(CorpusError):
        DoTScore("e", "t", 1, 1, 1 / math.log1p(1), n_samples=0)


def test_teacher_profile_url_validation():
    TeacherProfile("t", "http://localhost:8000/v1", "m", "tmpl")
    TeacherProfile("t", "https://api.example.com/v1", "m", "tmpl")
    for bad in ("ftp://x/v1", "not-a-url", "http://", "", "http://[::1/v1",
                "http://127.0.0.1:99999/v1", "http://127.0.0.1:x/v1"):
        with pytest.raises(CorpusError):
            TeacherProfile("t", bad, "m", "tmpl")
    for bad in (-0.1, float("nan")):
        with pytest.raises(CorpusError, match="temperature"):
            TeacherProfile("t", "http://localhost:8000/v1", "m", "tmpl", temperature=bad)


def test_schedule_plan_validation():
    SchedulePlan(mode="staged", phases=3, budget_per_phase=10, seed=0)
    with pytest.raises(CorpusError):
        SchedulePlan(mode="chaotic", phases=3, budget_per_phase=10, seed=0)
    with pytest.raises(CorpusError):
        SchedulePlan(mode="mixed", phases=0, budget_per_phase=10, seed=0)
    with pytest.raises(CorpusError):
        SchedulePlan(mode="mixed", phases=3, budget_per_phase=0, seed=0)
    with pytest.raises(CorpusError):
        SchedulePlan(mode="mixed", phases=3, budget_per_phase=10, seed=0, alpha=-1.0)
    with pytest.raises(CorpusError):
        SchedulePlan(mode="mixed", phases=3, budget_per_phase=10, seed=0,
                     mixing="pairwise")


def test_manifest_validation():
    plan = SchedulePlan(mode="staged", phases=2, budget_per_phase=2, seed=1)
    ok = CurriculumManifest(plan=plan, phases=(
        Phase(index=1, example_ids=("a", "b"), bucket_counts={1: 2}),
        Phase(index=2, example_ids=("c",), bucket_counts={2: 1}),
    ))
    assert len(ok.phases) == 2
    with pytest.raises(CorpusError, match="at least one phase"):
        CurriculumManifest(plan=plan, phases=())
    with pytest.raises(CorpusError, match="exceed"):
        CurriculumManifest(plan=plan, phases=(
            Phase(index=1, example_ids=("a", "b", "c"), bucket_counts={}),
        ))
    with pytest.raises(CorpusError, match="outside"):
        CurriculumManifest(plan=plan, phases=(
            Phase(index=1, example_ids=("a",), bucket_counts={2: 1}),
        ))


def test_corpus_roundtrip_and_key_order(tmp_path):
    examples = [
        Example(id="a", task="math", prompt="p one", judge_score=0.25),
        Example(id="b", task="qa", prompt="p two", reference_answer="yes",
                external_difficulty=3.0),
        Example(id="c", task="qa", prompt="unicode prüfung"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(examples, path)
    assert read_corpus(path) == examples

    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert list(first) == ["id", "task", "prompt", "judge_score"]
    assert "reference_answer" not in first  # absent optionals are omitted
    assert "prüfung" in lines[2]  # not ascii-escaped


def test_corpus_write_is_byte_deterministic(tmp_path):
    examples = [Example(id=f"e{i}", task="t", prompt=f"p {i}") for i in range(20)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(examples, a)
    write_corpus(examples, b)
    assert a.read_bytes() == b.read_bytes()


def test_read_corpus_duplicate_id_names_offender(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "dup", "task": "t", "prompt": "p"}\n'
        '{"id": "dup", "task": "t", "prompt": "q"}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r"c\.jsonl:2.*'dup'"):
        read_corpus(path)


def test_read_corpus_malformed_json_has_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "task": "t", "prompt": "p"}\n{broken\n',
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=r"c\.jsonl:2"):
        read_corpus(path)


def test_read_corpus_missing_field_is_named(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "prompt": "p"}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="'task'"):
        read_corpus(path)


def test_read_corpus_blank_line_is_an_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "task": "t", "prompt": "p"}\n\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="blank line"):
        read_corpus(path)


def test_read_corpus_non_object_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('[1, 2, 3]\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="JSON object"):
        read_corpus(path)


def test_trace_roundtrip(tmp_path):
    traces = [make_trace("e1", "t1"), make_trace("e2", "t1", k=4, tok=33)]
    path = tmp_path / "traces.jsonl"
    write_traces(traces, path)
    assert read_traces(path) == traces
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert list(first) == ["example_id", "teacher_id", "raw_text", "steps",
                           "tok", "segmentation_mode", "confidence"]


def test_scores_roundtrip(tmp_path):
    scores = [DoTScore.compute("e1", "t1", 2, 10),
              DoTScore.compute("e2", "t1", 7, 120, n_samples=5)]
    path = tmp_path / "scores.jsonl"
    write_scores(scores, path)
    assert read_scores(path) == scores
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert list(first) == ["example_id", "teacher_id", "k", "tok",
                           "dot_norm", "n_samples"]


def test_completions_roundtrip(tmp_path):
    records = [{"example_id": "a", "teacher_id": "t", "text": "1. step\n2. step"}]
    path = tmp_path / "comp.jsonl"
    write_completions(records, path)
    assert read_completions(path) == records


def test_manifest_roundtrip(tmp_path):
    plan = SchedulePlan(mode="mixed", phases=2, budget_per_phase=3, seed=9,
                        alpha=1.5, mixing="adjacent")
    manifest = CurriculumManifest(
        plan=plan,
        phases=(
            Phase(index=1, example_ids=("a", "b", "c"), bucket_counts={1: 3}),
            Phase(index=2, example_ids=("d", "e"), bucket_counts={1: 1, 2: 1}),
        ),
        provenance={"source": "unit-test"},
    )
    path = tmp_path / "manifest.jsonl"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest

    # header first, then one line per phase, byte-stable
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["record"] == "plan"
    assert [json.loads(l)["record"] for l in lines[1:]] == ["phase", "phase"]
    again = tmp_path / "again.jsonl"
    write_manifest(manifest, again)
    assert again.read_bytes() == path.read_bytes()


def test_manifest_requires_plan_header(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"record": "phase", "index": 1, "example_ids": ["a"]}\n',
                    encoding="utf-8")
    with pytest.raises(CorpusError, match="no plan header"):
        read_manifest(path)


def _plan_line(phases, with_replacement=False):
    return json.dumps({"record": "plan", "mode": "staged", "phases": phases,
                       "budget_per_phase": 2, "seed": 0, "with_replacement": with_replacement})


def _phase_line(index, *ids, counts=None):
    return json.dumps({"record": "phase", "index": index, "example_ids": ids,
                       "bucket_counts": {str(index): len(ids)} if counts is None else counts})


@pytest.mark.parametrize("lines, error", [
    # Two "index": 2 lines drawing the same id, under a three-phase plan.
    ([_plan_line(3), _phase_line(2, "a"), _phase_line(2, "a")],
     "2: 'index': expected 1 for phase line 1, got 2"),
    ([_plan_line(3), _phase_line(1, "a"), _phase_line(2, "b"), _phase_line(2, "c")],
     "4: 'index': expected 3 for phase line 3, got 2"),
    ([_plan_line(3), _phase_line(1, "a"), _phase_line(2, "b")],
     "1: 'phases': 3 phases but 2 phase line(s)"),
    ([_plan_line(1), _phase_line(1, "a"), _phase_line(2, "b")],
     "1: 'phases': 1 phases but 2 phase line(s)"),
    ([_plan_line(2), _phase_line(1, "a", "b"), _phase_line(2, "b")],
     "3: 'example_ids': example 'b' already appears at {path}:2"),
    ([_plan_line(1), _phase_line(1, "a", "a")],
     "2: 'example_ids': example 'a' already appears at {path}:2"),
    # The phase rules: a budget of 2, buckets 1..index, counts of at least
    # 1 that add up to the phase's ids.
    ([_plan_line(2), _phase_line(1, "a"), _phase_line(2, "b", "c", "d")],
     "3: 'example_ids': 3 ids exceed budget 2"),
    ([_plan_line(1), _phase_line(1, "a", counts={"2": 1})],
     "2: 'bucket_counts': draws from bucket 2, outside buckets 1..1"),
    ([_plan_line(1), _phase_line(1, "a", counts={"1": -7})],
     "2: 'bucket_counts': bucket 1 has count -7, below 1"),
    ([_plan_line(2), _phase_line(1, "a"), _phase_line(2, "b", "c", counts={"1": 0, "2": 50})],
     "3: 'bucket_counts': bucket 1 has count 0, below 1"),
    ([_plan_line(2), _phase_line(1, "a"), _phase_line(2, "b", "c", counts={"1": 1, "2": 50})],
     "3: 'bucket_counts': counts add up to 51, not to the phase's 2 ids"),
    ([_plan_line(1), _phase_line(1, "a", counts={"x": 1})],
     "2: 'bucket_counts.x': expected an integer key"),
])
def test_read_manifest_checks_phase_lines_against_the_plan(tmp_path, lines, error):
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        read_manifest(path)
    assert str(exc.value) == f"{path}:" + error.format(path=path)
    # With replacement, an id may be drawn again.
    if "already appears" in error:
        lines[0] = _plan_line(len(lines) - 1, with_replacement=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(read_manifest(path).phases) == len(lines) - 1


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "scores.jsonl"
    write_scores([DoTScore.compute("a", "t", 2, 10)], path)
    before = path.read_bytes()

    def scores():
        yield DoTScore.compute("b", "t", 3, 10)
        raise RuntimeError("producer failed midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_scores(scores(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.jsonl"]


# ---------------------------------------------------------------------------
# Strict decoding: one corrupted field in an otherwise valid record


def _cli_reading(*argv):
    """CLI arguments that read the file {path}, writing under directory {tmp}."""
    return lambda path, tmp: [a.format(path=path, tmp=tmp) for a in argv]


# name: (reader, one valid record, its optional keys, CLI argv that reads it)
VALID = {
    "example": (read_corpus, {
        "id": "e1", "task": "math", "prompt": "two words", "reference_answer": "4",
        "external_difficulty": 2.5, "judge_score": 0.5,
    }, {"reference_answer", "external_difficulty", "judge_score"},
        _cli_reading("baseline", "--corpus", "{path}", "--kind", "random", "--phases", "1",
                     "--budget", "1", "--out", "{tmp}/o.jsonl")),
    "completion": (read_completions, {
        "example_id": "e1", "teacher_id": "t", "text": "1. aa\n2. bb",
    }, set(), _cli_reading("segment", "--completions", "{path}", "--out", "{tmp}/o.jsonl")),
    "trace": (read_traces, {
        "example_id": "e1", "teacher_id": "t", "raw_text": "1. aaa\n2. bbb",
        "steps": [{"index": 1, "text": "aaa"}, {"index": 2, "text": "bbb"}], "tok": 4,
        "segmentation_mode": "numbered", "confidence": "high",
    }, set(), _cli_reading("score", "--traces", "{path}", "--out", "{tmp}/o.jsonl")),
    "score": (read_scores, {
        "example_id": "e1", "teacher_id": "t", "k": 2, "tok": 10,
        "dot_norm": 2 / math.log1p(10), "n_samples": 3,
    }, {"n_samples"}, _cli_reading("filter", "--scores", "{path}", "--min-k", "1",
                                   "--out", "{tmp}/o.txt")),
    "plan": (read_manifest, {
        "record": "plan", "mode": "mixed", "phases": 1, "budget_per_phase": 2, "seed": 4,
        "alpha": 1.5, "with_replacement": False, "mixing": "union",
        "provenance": {"source": "test"},
    }, {"alpha", "with_replacement", "mixing", "provenance"}, None),
    "phase": (read_manifest, {
        "record": "phase", "index": 1, "example_ids": ["a", "b"], "bucket_counts": {"1": 2},
    }, {"bucket_counts"}, None),
    "spec": (read_buckets, {
        "record": "spec", "edges": [[1, None]], "max_task_share": 0.5,
    }, {"max_task_share"}, _cli_reading("schedule", "--buckets", "{path}", "--phases", "1",
                                        "--budget", "1", "--out", "{tmp}/o.jsonl")),
    "bucket": (read_buckets, {
        "record": "bucket", "index": 1, "lo": 1, "hi": None,
        "members": [{"id": "a", "k": 2}, {"id": "b", "k": 3}], "task_histogram": {"math": 2},
    }, {"task_histogram"}, _cli_reading("schedule", "--buckets", "{path}", "--phases", "1",
                                        "--budget", "1", "--out", "{tmp}/o.jsonl")),
    "overflow": (read_buckets, {
        "record": "overflow", "bucket": 1, "id": "c", "task": "math", "k": 2,
    }, set(), _cli_reading("schedule", "--buckets", "{path}", "--phases", "1",
                           "--budget", "1", "--out", "{tmp}/o.jsonl")),
    "template": (lambda path: read_json(path, TEMPLATE), {
        "template_id": "t1", "system_text": "Think.", "user_text": "Solve: {prompt}",
    }, set(), _cli_reading("harvest", "--corpus", "{tmp}/corpus.jsonl", "--endpoint",
                           "http://127.0.0.1:9/v1", "--model", "m", "--teacher-id", "t",
                           "--template-file", "{path}", "--out", "{tmp}/o.jsonl")),
}

# A tagged record's file also needs the records named here, on later lines:
# a buckets file holds one bucket line per spec edge.
COMPANION = {"plan": ["phase"], "phase": ["plan"], "spec": ["bucket"], "bucket": ["spec"],
             "overflow": ["spec", "bucket"]}

# Values of the wrong JSON kind for any field whose valid value has another
# type; NaN and Infinity are floats but never valid numbers, and a string
# holding a lone surrogate is never valid text.
LONE_SURROGATE = "a\ud800b"
WRONG = [True, "x", None, [], {}, 2.5, float("nan"), float("-inf"), LONE_SURROGATE]
# Where null is a valid value (an open-ended bucket range).
NULLABLE = {("hi",), ("edges", 0, 1)}


def _leaves(obj, path=()):
    """Every (path, value) inside a record; keys and list indices in order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _field_name(path) -> str:
    name = ""
    for part in path:
        name += f"[{part}]" if isinstance(part, int) else (f".{part}" if name else part)
    return name


def _mutations(name):
    _reader, valid, optional, _argv = VALID[name]
    out = []
    for path, value in _leaves(valid):
        parent = path[:-1]
        in_record = not parent or isinstance(parent[-1], int) and parent[0] in ("steps", "members")
        if in_record and path[-1] not in optional:
            out.append((path, "delete", None))
        for wrong in WRONG:
            same = type(wrong) is type(value) and wrong is not LONE_SURROGATE and not (
                isinstance(wrong, float) and not math.isfinite(wrong))
            if not same and not (wrong is None and path in NULLABLE):
                out.append((path, "replace", wrong))
    return out


def _corrupt(valid, path, op, value):
    obj = json.loads(json.dumps(valid))
    target = obj
    for part in path[:-1]:
        target = target[part]
    if op == "delete":
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return obj


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_one_bad_field_is_a_located_corpus_error(data):
    name = data.draw(st.sampled_from(sorted(VALID)))
    reader, valid, _optional, argv = VALID[name]
    path, op, value = data.draw(st.sampled_from(_mutations(name)))
    field = _field_name(path)
    rest = "".join(json.dumps(VALID[c][1]) + "\n" for c in COMPANION.get(name, ()))
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good.jsonl"
        good.write_text(json.dumps(valid) + "\n" + rest, encoding="utf-8")
        reader(good)  # the uncorrupted file is valid
        bad = Path(tmp) / "bad.jsonl"
        bad.write_text(json.dumps(_corrupt(valid, path, op, value)) + "\n" + rest,
                       encoding="utf-8")
        where = f"{bad}:" if name == "template" else f"{bad}:1:"
        with pytest.raises(CorpusError) as exc:
            reader(bad)
        message = str(exc.value)
        assert message.startswith(where + " ") and f"'{field}'" in message, message
        if argv is None:
            return
        write_corpus([Example(id="e1", task="math", prompt="p")], Path(tmp) / "corpus.jsonl")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv(bad, tmp))
        assert code == 1
        assert err.getvalue().startswith(f"error: {where} ") and f"'{field}'" in err.getvalue()


def test_overflowing_number_literal_is_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"example_id": "e", "teacher_id": "t", "k": 1, "tok": 1, '
                    '"dot_norm": 1e999}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r"s\.jsonl:1: 'dot_norm': expected finite number"):
        read_scores(path)


def test_integer_literal_past_the_digit_limit_is_malformed_json(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"example_id": "e", "teacher_id": "t", "k": %s, "tok": 1, '
                    '"dot_norm": 1.0}\n' % ("1" * 5000), encoding="utf-8")
    with pytest.raises(CorpusError, match=r"s\.jsonl:1: malformed JSON \(Exceeds the limit"):
        read_scores(path)
    path.write_text("[" * 100000 + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"s\.jsonl:1: malformed JSON \(maximum recursion"):
        read_scores(path)


# ---------------------------------------------------------------------------
# The trace row codec against the TRACE table it must agree with


# The table's own generic codec, without the direct trace paths.
TABLE = Record(TRACE.fields, TRACE.make, TRACE.parts)

# Text with JSON's special characters: quotes, backslashes, control
# characters, U+2028, non-ASCII and astral characters.
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\u00e9\U0001F600'),
    st.characters(blacklist_categories=("Cs",))))


@st.composite
def _traces(draw, exact=False):
    """Valid traces; unless exact, some hold a bool or a float for tok, or
    a number for a text."""
    steps = tuple(draw(st.lists(_TEXT.filter(bool), max_size=5)))
    tok = draw(st.integers(min_value=1, max_value=2 ** 70) if exact else
               st.one_of(st.integers(min_value=1), st.just(True), st.just(3.0)))
    example_id = draw(_TEXT if exact else st.one_of(_TEXT, st.integers()))
    return Trace(example_id, draw(_TEXT), draw(_TEXT), steps, tok,
                 draw(st.sampled_from(SEGMENTATION_MODES)),
                 draw(st.sampled_from(CONFIDENCE_LEVELS)))


@settings(max_examples=200, deadline=None)
@given(_traces())
def test_trace_rows_are_written_as_the_table_writes_them(trace):
    assert TRACE.dump(trace) == TABLE.dump(trace)


_SURROGATES = re.compile("[\ud800-\udfff]")


def _read_both(obj):
    """What read_traces and the table each make of obj as a one-line file:
    the traces, or the CorpusError message."""
    line = json.dumps(obj, ensure_ascii=False)
    if _SURROGATES.search(line):  # only a \u escape can carry one
        line = json.dumps(obj)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        for read in (read_traces, lambda p: [v for _where, v in read_jsonl(p, TABLE)]):
            try:
                out.append(read(path))
            except CorpusError as exc:
                out.append(str(exc))
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(_traces(exact=True), _traces()))
def test_trace_rows_are_read_as_the_table_reads_them(trace):
    fast, table = _read_both(json.loads(TABLE.dump(trace)))
    assert fast == table


def _with(change):
    obj = json.loads(json.dumps(VALID["trace"][1]))
    change(obj)
    return obj


# Every one-field corruption of a valid line; then values that break an
# invariant, rows and objects of the wrong shape, and extra keys, which
# both readers ignore.
_BAD_TRACES = [_corrupt(VALID["trace"][1], *m) for m in _mutations("trace")] + [
    _with(lambda r: r["steps"][0].update(index=0)),
    _with(lambda r: r["steps"][1].update(index=3)),
    _with(lambda r: r["steps"][0].update(text="")),
    _with(lambda r: r["steps"].append({"index": 3, "text": "ccc", "extra": 1})),
    _with(lambda r: r["steps"].__setitem__(0, ["index", 1])),
    _with(lambda r: r.update(tok=0)),
    _with(lambda r: r.update(segmentation_mode="freestyle")),
    _with(lambda r: r.update(confidence="medium")),
    _with(lambda r: r.update(steps=[])),
    _with(lambda r: r.update(extra={"a": [1]})),
    [], "x", 1, None, [VALID["trace"][1]],
]


@pytest.mark.parametrize("obj", _BAD_TRACES, ids=range(len(_BAD_TRACES)))
def test_odd_trace_rows_are_read_as_the_table_reads_them(obj):
    fast, table = _read_both(obj)
    assert fast == table


# ---------------------------------------------------------------------------
# One score per example: the rule every consumer of scores reads through


def _score(example_id, k=1, tok=50):
    return DoTScore.compute(example_id, "t", k=k, tok=tok)


@pytest.mark.parametrize("where, known, error", [
    (None, None, "duplicate score for example 'a'"),
    ("s.jsonl:2", None, "s.jsonl:2: 'example_id': duplicate score for example 'a'"),
    (None, {"a": 1.0}, "no example 'b' in c.jsonl"),
    ("s.jsonl:2", {"a": 1.0, "b": None},
     "s.jsonl:2: 'example_id': example 'b' has no label in c.jsonl"),
])
def test_one_score_per_example_names_the_score(where, known, error):
    second = "a" if known is None else "b"
    stream = one_score_per_example([_score("a"), _score(second)], known, "c.jsonl", "label",
                                   None if where is None else lambda: where)
    assert next(stream) == _score("a")  # a stream: the first score comes before the error
    with pytest.raises(CorpusError) as exc:
        next(stream)
    assert str(exc.value) == error


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8))
def test_one_score_per_example_stops_at_the_first_repeated_id(ids):
    # Ids in increasing order are kept in a list and the rest in a set:
    # either way the stream stops at the first id seen before.
    firsts = []
    for ex_id in ids:
        if ex_id in firsts:
            break
        firsts.append(ex_id)
    got = []
    try:
        for score in one_score_per_example(map(_score, ids)):
            got.append(score.example_id)
    except CorpusError as exc:
        assert str(exc) == f"duplicate score for example {ids[len(got)]!r}"
    assert got == firsts


def test_a_checked_stream_is_checked_once_per_mapping():
    known = {"a": 1.0, "b": 2.0}
    for mapping in (known, None):
        checked = one_score_per_example([_score("a"), _score("b")], mapping, "c.jsonl", "label")
        assert one_score_per_example(checked, mapping) is checked
    # Against another mapping it is checked again, with that mapping's messages.
    checked = one_score_per_example([_score("a"), _score("b")], known, "c.jsonl", "label")
    again = one_score_per_example(checked, {"a": 1.0}, "d.jsonl")
    assert again is not checked
    assert next(again) == _score("a")
    with pytest.raises(CorpusError, match="^no example 'b' in d.jsonl$"):
        next(again)


def _consumers(scores, other, known):
    """Each library consumer of scores, called on one list of scores, as
    (name, thunk); known maps ids to a task, a label or None."""
    examples = [Example(id=ex_id, task="t", prompt="p") for ex_id in sorted(known)]
    plan = SchedulePlan(mode="staged", phases=1, budget_per_phase=1, seed=0)
    return [
        ("bucketize", lambda: bucketize(scores, BucketSpec(max_task_share=0.5),
                                        {i: None if v is None else f"t{v}"
                                         for i, v in known.items()})),
        ("length_confound", lambda: length_confound(scores, known)),
        ("baseline_order", lambda: baseline_order(examples, scores, "token_length", plan)),
        ("filter_by_depth", lambda: filter_by_depth(scores, min_k=1)),
        ("cross_teacher_agreement", lambda: cross_teacher_agreement({"a": scores, "b": other})),
    ]


_IDS = st.sampled_from(["e0", "e1", "e2", "e3", "e4", "e5"])
_SCORES = st.lists(st.builds(_score, _IDS, st.integers(1, 9), st.integers(1, 200)),
                   max_size=10)


@given(_SCORES, _SCORES, st.dictionaries(_IDS, st.none() | st.floats(0, 1)))
@settings(max_examples=300, deadline=None)
def test_every_scores_consumer_takes_one_score_per_example(scores, other, known):
    # Repeated ids, ids the mapping lacks and None tasks or labels each end
    # as a StepladderError, never a TypeError or KeyError, and no consumer
    # returns on a second score for one example.
    repeated = len({s.example_id for s in scores}) < len(scores)
    unmapped = any(known.get(s.example_id) is None for s in scores)
    for name, call in _consumers(scores, other, known):
        try:
            call()
        except StepladderError:
            continue
        assert not repeated, name
        assert not (unmapped and name in ("bucketize", "length_confound")), name


# A None label or task, which a consumer cannot use, and a second score,
# which it must not use silently: each is a CorpusError naming the example.
_BAD_SCORES = [
    ("length_confound", [_score(f"e{i}", k=i + 1) for i in range(5)],
     {"e0": 0.1, "e1": 0.2, "e2": None, "e3": 0.4, "e4": 0.5},
     "example 'e2' has no label in labels"),
    ("bucketize", [_score("e0"), _score("e1")], {"e0": "math", "e1": None},
     "example 'e1' has no task in tasks"),
    ("baseline_order", [_score("e0"), _score("e1"), _score("e0", tok=9)],
     {"e0": 0.1, "e1": 0.2}, "duplicate score for example 'e0'"),
    ("filter_by_depth", [_score("e0"), _score("e0", k=2)], {},
     "duplicate score for example 'e0'"),
]


@pytest.mark.parametrize("name, scores, known, error", _BAD_SCORES,
                         ids=[case[0] for case in _BAD_SCORES])
def test_a_bad_score_is_a_corpus_error_naming_its_example(name, scores, known, error):
    call = dict(_consumers(scores, scores, known))[name]
    with pytest.raises(CorpusError) as exc:
        call()
    assert str(exc.value) == error
