from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepladder.bucketer import read_buckets
from stepladder.cli import main
from stepladder.corpus import (
    CurriculumManifest,
    DoTScore,
    Example,
    Phase,
    SchedulePlan,
    Step,
    TeacherProfile,
    Trace,
    count_tokens,
    read_completions,
    read_corpus,
    read_json,
    read_manifest,
    read_scores,
    read_traces,
    write_completions,
    write_corpus,
    write_manifest,
    write_scores,
    write_traces,
)
from stepladder.errors import CorpusError
from stepladder.harvester import TEMPLATE


def make_trace(example_id="e1", teacher_id="t1", k=2, tok=10) -> Trace:
    steps = tuple(Step(index=i, text=f"step {i} content") for i in range(1, k + 1))
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


def test_trace_requires_contiguous_indices():
    steps = (Step(index=1, text="aaa"), Step(index=3, text="bbb"))
    with pytest.raises(CorpusError, match="1..k"):
        Trace(example_id="e", teacher_id="t", raw_text="x", steps=steps,
              tok=5, segmentation_mode="numbered", confidence="high")


def test_trace_rejects_bad_enum_values():
    steps = (Step(index=1, text="aaa"),)
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
    for bad in ("ftp://x/v1", "not-a-url", "http://", "", "http://[::1/v1"):
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
    }, {"n_samples"}, _cli_reading("filter", "--scores", "{path}", "--out", "{tmp}/o.txt")),
    "plan": (read_manifest, {
        "record": "plan", "mode": "mixed", "phases": 1, "budget_per_phase": 2, "seed": 4,
        "alpha": 1.5, "with_replacement": False, "mixing": "union",
        "provenance": {"source": "test"},
    }, {"alpha", "with_replacement", "mixing", "provenance"}, None),
    "phase": (read_manifest, {
        "record": "phase", "index": 1, "example_ids": ["a", "b"], "bucket_counts": {"1": 2},
    }, {"bucket_counts"}, None),
    "spec": (read_buckets, {
        "record": "spec", "edges": [[1, 3], [4, None]], "max_task_share": 0.5,
    }, {"max_task_share"}, _cli_reading("schedule", "--buckets", "{path}", "--phases", "1",
                                        "--budget", "1", "--out", "{tmp}/o.jsonl")),
    "bucket": (read_buckets, {
        "record": "bucket", "index": 1, "lo": 1, "hi": None,
        "members": [{"id": "a", "k": 2}, {"id": "b", "k": 3}], "task_histogram": {"math": 2},
    }, {"task_histogram"}, _cli_reading("schedule", "--buckets", "{path}", "--phases", "1",
                                        "--budget", "1", "--out", "{tmp}/o.jsonl")),
    "overflow": (read_buckets, {
        "record": "overflow", "bucket": 1, "id": "a", "task": "math", "k": 2,
    }, set(), _cli_reading("schedule", "--buckets", "{path}", "--phases", "1",
                           "--budget", "1", "--out", "{tmp}/o.jsonl")),
    "template": (lambda path: read_json(path, TEMPLATE), {
        "template_id": "t1", "system_text": "Think.", "user_text": "Solve: {prompt}",
    }, set(), _cli_reading("harvest", "--corpus", "{tmp}/corpus.jsonl", "--endpoint",
                           "http://127.0.0.1:9/v1", "--model", "m", "--teacher-id", "t",
                           "--template-file", "{path}", "--out", "{tmp}/o.jsonl")),
}

# A tagged record's file also needs the record named here, on a later line.
COMPANION = {"plan": "phase", "phase": "plan", "bucket": "spec", "overflow": "spec"}

# Values of the wrong JSON kind for any field whose valid value has another
# type; NaN and Infinity are floats but never valid numbers, and a string
# holding a lone surrogate is never valid text.
LONE_SURROGATE = "a\ud800b"
WRONG = [True, "x", None, [], {}, 2.5, float("nan"), float("-inf"), LONE_SURROGATE]
# Where null is a valid value (an open-ended bucket range).
NULLABLE = {("hi",), ("edges", 0, 1), ("edges", 1, 1)}


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
    rest = "".join(json.dumps(VALID[c][1]) + "\n" for c in [COMPANION.get(name)] if c)
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
