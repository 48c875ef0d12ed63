from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepladder
from stepladder.cli import main
from stepladder.corpus import (
    read_corpus,
    read_manifest,
    read_scores,
    read_traces,
    write_completions,
    write_corpus,
)
from stepladder.synthetic import build_demo_corpus


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A small corpus plus completions, staged once for the module."""
    root = tmp_path_factory.mktemp("demo")
    examples, completions = build_demo_corpus(n=100, seed=7)
    write_corpus(examples, root / "examples.jsonl")
    write_completions(completions, root / "completions.jsonl")
    return root


def run_pipeline(root, out, seed=42):
    steps = [
        ["segment", "--completions", str(root / "completions.jsonl"),
         "--out", str(out / "traces.jsonl")],
        ["score", "--traces", str(out / "traces.jsonl"),
         "--out", str(out / "scores.jsonl")],
        ["bucket", "--scores", str(out / "scores.jsonl"),
         "--corpus", str(root / "examples.jsonl"),
         "--out", str(out / "buckets.jsonl"),
         "--report", str(out / "buckets.txt")],
        ["schedule", "--buckets", str(out / "buckets.jsonl"),
         "--mode", "mixed", "--alpha", "1.0",
         "--phases", "3", "--budget", "12", "--seed", str(seed),
         "--out", str(out / "curriculum.jsonl")],
    ]
    for argv in steps:
        code = main(argv)
        assert code == 0, argv
    return out


def test_pipeline_products_and_sidecars(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    traces = read_traces(out / "traces.jsonl")
    scores = read_scores(out / "scores.jsonl")
    assert len(traces) == len(scores) == 100
    manifest = read_manifest(out / "curriculum.jsonl")
    assert [len(p.example_ids) for p in manifest.phases] == [12, 12, 12]
    assert (out / "buckets.txt").exists()
    for product in ("traces", "scores", "buckets", "curriculum"):
        meta = json.loads((out / f"{product}.jsonl.meta.json").read_text())
        assert meta["tool"].startswith("stepladder ")
        assert meta["inputs"], product
        for digest in meta["inputs"].values():
            assert len(digest) == 64


def test_pipeline_is_byte_deterministic(demo, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_pipeline(demo, a)
    run_pipeline(demo, b)
    capsys.readouterr()
    for name in ("traces.jsonl", "scores.jsonl", "buckets.jsonl",
                 "curriculum.jsonl", "buckets.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_bucket_prints_table(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    code = main(["bucket", "--scores", str(out / "scores.jsonl"),
                 "--corpus", str(demo / "examples.jsonl"),
                 "--out", str(out / "b2.jsonl")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "bucket" in printed and "overflow" in printed


def test_filter_writes_one_id_per_line(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    code = main(["filter", "--scores", str(out / "scores.jsonl"),
                 "--min-k", "2", "--max-k", "3",
                 "--out", str(out / "window.txt")])
    capsys.readouterr()
    assert code == 0
    ids = (out / "window.txt").read_text().splitlines()
    assert ids
    ks = {s.example_id: s.k for s in read_scores(out / "scores.jsonl")}
    assert all(2 <= ks[i] <= 3 for i in ids)
    assert ids == sorted(ids, key=lambda i: (ks[i], i))


def test_baseline_matches_budget(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    code = main(["baseline", "--corpus", str(demo / "examples.jsonl"),
                 "--scores", str(out / "scores.jsonl"),
                 "--kind", "token_length", "--phases", "3", "--budget", "12",
                 "--seed", "42", "--out", str(out / "baseline.jsonl")])
    assert code == 0
    manifest = read_manifest(out / "baseline.jsonl")
    assert manifest.provenance["ordering"] == "token_length"
    assert [len(p.example_ids) for p in manifest.phases] == [12, 12, 12]


def test_segment_audit_listing(demo, tmp_path, capsys):
    code = main(["segment", "--completions", str(demo / "completions.jsonl"),
                 "--out", str(tmp_path / "t.jsonl"),
                 "--audit-fraction", "0.1", "--audit-seed", "5",
                 "--audit-out", str(tmp_path / "audit.jsonl")])
    capsys.readouterr()
    assert code == 0
    audited = read_traces(tmp_path / "audit.jsonl")
    assert audited
    lows = [t for t in read_traces(tmp_path / "t.jsonl")
            if t.confidence == "low"]
    assert {(t.example_id, t.teacher_id) for t in lows} <= \
        {(t.example_id, t.teacher_id) for t in audited}


def test_audit_fraction_without_out_is_an_error(demo, tmp_path, capsys):
    code = main(["segment", "--completions", str(demo / "completions.jsonl"),
                 "--out", str(tmp_path / "t.jsonl"),
                 "--audit-fraction", "0.1"])
    capsys.readouterr()
    assert code == 1


def test_config_file_equals_flags(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    config = tmp_path / "schedule.cfg"
    config.write_text(
        "mode = mixed\nalpha = 1.0\nphases = 3\n"
        "budget_per_phase = 12\nseed = 42\n", encoding="utf-8")
    code = main(["schedule", "--config", str(config),
                 "--buckets", str(out / "buckets.jsonl"),
                 "--out", str(tmp_path / "from_config.jsonl")])
    assert code == 0
    assert (tmp_path / "from_config.jsonl").read_bytes() == \
        (out / "curriculum.jsonl").read_bytes()


def test_flag_overrides_config(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    config = tmp_path / "schedule.cfg"
    config.write_text("mode = mixed\nalpha = 1.0\nphases = 3\n"
                      "budget_per_phase = 12\nseed = 42\n", encoding="utf-8")
    code = main(["schedule", "--config", str(config), "--seed", "43",
                 "--buckets", str(out / "buckets.jsonl"),
                 "--out", str(tmp_path / "override.jsonl")])
    assert code == 0
    assert read_manifest(tmp_path / "override.jsonl").plan.seed == 43


def test_unknown_config_key_fails(demo, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("phasez = 3\n", encoding="utf-8")
    code = main(["schedule", "--config", str(config), "--buckets", "x",
                 "--out", str(tmp_path / "o.jsonl")])
    capsys.readouterr()
    assert code == 1


def test_missing_required_setting_returns_usage_code(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    code = main(["schedule", "--buckets", str(out / "buckets.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")])
    err = capsys.readouterr().err
    assert code == 64
    assert "--phases" in err


def test_argparse_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--mode", "sideways", "--buckets", "x", "--out", "y"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_bad_edges_syntax_exits_64(demo, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bucket", "--scores", "s", "--corpus", "c", "--out", "o",
              "--edges", "banana"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = main(["score", "--traces", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "out.jsonl")])
    capsys.readouterr()
    assert code == 1


def test_duplicate_corpus_ids_exit_1(tmp_path, capsys):
    lines = [json.dumps({"id": "a", "task": "t", "prompt": "p q"}),
             json.dumps({"id": "a", "task": "t", "prompt": "p q"})]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["baseline", "--corpus", str(bad), "--kind", "random",
                 "--phases", "1", "--budget", "1",
                 "--out", str(tmp_path / "o.jsonl")])
    capsys.readouterr()
    assert code == 1


def test_partial_segmentation_exits_2(tmp_path, capsys):
    lines = [
        json.dumps({"example_id": "good", "teacher_id": "t",
                    "text": "1. aa bb\n2. cc dd"}),
        json.dumps({"example_id": "bad", "teacher_id": "t", "text": "   "}),
    ]
    comp = tmp_path / "c.jsonl"
    comp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["segment", "--completions", str(comp),
                 "--out", str(tmp_path / "t.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad" in err
    assert [t.example_id for t in read_traces(tmp_path / "t.jsonl")] == ["good"]


def _run_cli(*argv):
    src = str(Path(stepladder.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "stepladder.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)


def _with_first_record(src, dest, change):
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    first = json.loads(lines[0])
    change(first)
    dest.write_text(json.dumps(first) + "\n" + "".join(lines[1:]), encoding="utf-8")
    return dest


@pytest.mark.parametrize("case", ["score-k", "step-index", "difficulty", "edges"])
def test_malformed_field_exits_1_with_line_and_field(demo, tmp_path, capsys, case):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    if case == "score-k":  # the three known repros, then a spec the bucketer rejects
        _with_first_record(out / "scores.jsonl", bad, lambda r: r.update(k="x"))
        argv, field = ["filter", "--scores", bad, "--out", tmp_path / "f.txt"], "'k'"
    elif case == "step-index":
        _with_first_record(out / "traces.jsonl", bad, lambda r: r["steps"][0].pop("index"))
        argv, field = ["score", "--traces", bad, "--out", tmp_path / "s.jsonl"], \
            "'steps[0].index'"
    elif case == "difficulty":
        _with_first_record(demo / "examples.jsonl", bad,
                           lambda r: r.update(external_difficulty="hard"))
        argv, field = ["bucket", "--scores", out / "scores.jsonl", "--corpus", bad,
                       "--out", tmp_path / "b.jsonl"], "'external_difficulty'"
    else:
        _with_first_record(out / "buckets.jsonl", bad, lambda r: r.update(edges=[[2, None]]))
        argv, field = ["schedule", "--buckets", bad, "--phases", "1", "--budget", "1",
                       "--out", tmp_path / "m.jsonl"], "start at k = 1"
    result = _run_cli(*argv)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}:1: ") and field in result.stderr


def test_duplicate_spec_header_exits_1(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    lines = (out / "buckets.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines[:1] + lines), encoding="utf-8")
    result = _run_cli("schedule", "--buckets", bad, "--phases", "1", "--budget", "1",
                      "--out", tmp_path / "m.jsonl")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}:2: duplicate spec header")


def test_template_file_missing_field_exits_1(demo, tmp_path):
    template = tmp_path / "template.json"
    template.write_text(json.dumps({"template_id": "t", "system_text": "s"}), encoding="utf-8")
    result = _run_cli("harvest", "--corpus", demo / "examples.jsonl",
                      "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
                      "--teacher-id", "t", "--template-file", template,
                      "--out", tmp_path / "t.jsonl")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {template}: 'user_text': missing")


def test_template_file_not_json_exits_1(demo, tmp_path):
    template = tmp_path / "template.json"
    template.write_text("template_id = t\n", encoding="utf-8")
    result = _run_cli("harvest", "--corpus", demo / "examples.jsonl",
                      "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
                      "--teacher-id", "t", "--template-file", template,
                      "--out", tmp_path / "t.jsonl")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {template}: malformed JSON")


def test_cli_import_loads_no_http_stack():
    # The HTTP client is imported by harvest() itself; importing it, or
    # requests, at start-up would slow every other subcommand.
    src = str(Path(stepladder.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, stepladder.cli; "
             "print(sorted(m for m in ('requests', 'urllib3', 'http.client') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stepladder" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# analyze subcommands


def write_scores_file(path, rows):
    lines = [json.dumps({"example_id": e, "teacher_id": t, "k": k, "tok": tok,
                         "dot_norm": k / __import__("math").log1p(tok),
                         "n_samples": 1})
             for e, t, k, tok in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_analyze_agreement(tmp_path, capsys):
    rows = [(f"e{i}", "a", i + 1, 20 + i) for i in range(5)]
    rows += [(f"e{i}", "b", i + 1, 90 - i) for i in range(5)]
    scores = tmp_path / "scores.jsonl"
    write_scores_file(scores, rows)
    code = main(["analyze", "agreement", "--scores", str(scores),
                 "--out", str(tmp_path / "agreement.json")])
    printed = capsys.readouterr().out
    assert code == 0
    assert "tau" in printed.lower()
    data = json.loads((tmp_path / "agreement.json").read_text())
    assert data["pairs"][0]["tau_depth"] == 1.0
    # threshold satisfied and violated
    assert main(["analyze", "agreement", "--scores", str(scores),
                 "--min-tau", "0.9"]) == 0
    assert main(["analyze", "agreement", "--scores", str(scores),
                 "--min-tau", "1.1"]) == 1
    capsys.readouterr()


def test_analyze_agreement_pools_multiple_files(tmp_path, capsys):
    fa, fb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_scores_file(fa, [(f"e{i}", "a", i + 1, 20 + i) for i in range(4)])
    write_scores_file(fb, [(f"e{i}", "b", 4 - i, 30 + i) for i in range(4)])
    code = main(["analyze", "agreement", "--scores", str(fa),
                 "--scores", str(fb), "--out", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert code == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["pairs"][0]["tau_depth"] == -1.0


def test_analyze_confound(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    code = main(["analyze", "confound", "--scores", str(out / "scores.jsonl"),
                 "--labels-from", str(demo / "examples.jsonl"),
                 "--label-field", "external_difficulty",
                 "--out", str(tmp_path / "confound.json")])
    printed = capsys.readouterr().out
    assert code == 0
    assert "rho" in printed.lower() or "spearman" in printed.lower()
    data = json.loads((tmp_path / "confound.json").read_text())
    assert data["rho_depth"] > 0.5
    # a threshold the data cannot meet flips the exit code
    assert main(["analyze", "confound", "--scores", str(out / "scores.jsonl"),
                 "--labels-from", str(demo / "examples.jsonl"),
                 "--min-spearman", "0.999"]) == 1
    capsys.readouterr()
