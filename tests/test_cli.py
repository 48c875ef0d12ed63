from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepladder
from stepladder.cli import COMMANDS, INPUT, KNOB, OUTPUT, main
from stepladder.corpus import (
    file_sha256,
    read_corpus,
    read_manifest,
    read_scores,
    read_traces,
    write_completions,
    write_corpus,
    write_traces,
)
from stepladder.mockteacher import MockTeacher
from stepladder.segmenter import audit_sample
from stepladder.synthetic import build_demo_corpus

BUNDLED = Path(__file__).parent.parent / "data" / "synthetic"


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


# The knobs each subcommand's sidecar records under "parameters".
SIDECAR_PARAMETERS = {
    "harvest": {"endpoint", "model", "teacher_id", "samples", "temperature", "cache_dir",
                "rate_limit", "max_retries", "timeout", "max_in_flight", "api_key_env"},
    "segment": {"min_step_chars", "max_marker_value", "no_paragraph_fallback",
                "audit_fraction", "audit_seed"},
    "score": set(),
    "bucket": {"teacher", "edges", "max_task_share"},
    "schedule": {"mode", "alpha", "phases", "budget_per_phase", "seed", "with_replacement",
                 "mixing"},
    "baseline": {"kind", "phases", "budget_per_phase", "seed"},
    "analyze agreement": {"min_tau"},
    "analyze confound": {"label_field", "teacher", "min_spearman"},
    "filter": {"min_k", "max_k"},
}


def test_sidecars_record_every_knob_and_every_input(demo, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    out = run_pipeline(demo, tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(read_corpus(demo / "examples.jsonl")[:3], corpus)
    template = tmp_path / "template.json"
    template.write_text(json.dumps({"template_id": "t1", "system_text": "Think.",
                                    "user_text": "Solve: {prompt}"}), encoding="utf-8")
    scores, examples = str(out / "scores.jsonl"), str(demo / "examples.jsonl")
    fa, fb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_scores_file(fa, [(f"e{i}", "a", i + 1, 20 + i) for i in range(4)])
    write_scores_file(fb, [(f"e{i}", "b", 4 - i, 30 + i) for i in range(4)])
    with MockTeacher() as mock:
        assert main(["harvest", "--corpus", str(corpus), "--endpoint", mock.base_url,
                     "--model", "m", "--teacher-id", "t", "--template-file", str(template),
                     "--rate-limit", "1000", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out / "harvest.jsonl")]) == 0
    for argv in (["baseline", "--corpus", examples, "--kind", "random", "--phases", "1",
                  "--budget", "5", "--out", str(out / "baseline.jsonl")],
                 ["analyze", "agreement", "--scores", str(fa), "--scores", str(fb),
                  "--out", str(out / "a.json")],
                 ["analyze", "confound", "--scores", scores, "--labels-from", examples,
                  "--out", str(out / "confound.json")],
                 ["filter", "--scores", scores, "--min-k", "2", "--out", str(out / "filter.txt")]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    metas = {name: json.loads((out / f"{name}.meta.json").read_text(encoding="utf-8"))
             for name in ("harvest.jsonl", "traces.jsonl", "scores.jsonl", "buckets.jsonl",
                          "buckets.txt", "curriculum.jsonl", "baseline.jsonl", "a.json",
                          "confound.json", "filter.txt")}
    assert {m["command"] for m in metas.values()} == set(SIDECAR_PARAMETERS)
    for name, meta in metas.items():
        assert meta["tool"] == f"stepladder {stepladder.__version__}"
        assert set(meta["parameters"]) == SIDECAR_PARAMETERS[meta["command"]], name
    assert metas["harvest.jsonl"]["inputs"] == {
        str(corpus): file_sha256(corpus), str(template): file_sha256(template)}
    assert metas["harvest.jsonl"]["parameters"]["cache_dir"] == str(tmp_path / "cache")
    assert metas["traces.jsonl"]["parameters"] == {  # defaults included
        "min_step_chars": 3, "max_marker_value": 999, "no_paragraph_fallback": False,
        "audit_fraction": None, "audit_seed": 0}
    assert metas["buckets.jsonl"]["parameters"]["edges"] == [[1, 3], [4, 6], [7, None]]
    assert metas["buckets.txt"] == metas["buckets.jsonl"]
    assert metas["a.json"]["inputs"] == {str(p): file_sha256(p) for p in (fa, fb)}


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


@pytest.fixture(scope="module")
def audit_inputs(tmp_path_factory):
    """The bundled completions, and the same example ids with texts that
    segment all low or all high."""
    root = tmp_path_factory.mktemp("audit")
    completions = [json.loads(line) for line in
                   (BUNDLED / "completions.jsonl").read_text(encoding="utf-8").splitlines()]
    texts = {"low": "- first thing to do\n- second thing to do",
             "high": "1. first step to take\n2. second step to take"}
    for name, text in texts.items():
        write_completions([{**c, "text": text} for c in completions], root / f"{name}.jsonl")
    return {"bundled": BUNDLED / "completions.jsonl", "low": root / "low.jsonl",
            "high": root / "high.jsonl"}


@pytest.mark.parametrize("fraction", ["0.01", "0.1", "0.5", "1.0"])
@pytest.mark.parametrize("source", ["bundled", "low", "high"])
def test_audit_out_is_the_library_audit_of_the_written_traces(tmp_path, capsys, audit_inputs,
                                                              source, fraction):
    out, audit = tmp_path / "t.jsonl", tmp_path / "audit.jsonl"
    for seed in (0, 5, 123):
        assert main(["segment", "--completions", str(audit_inputs[source]), "--out", str(out),
                     "--audit-fraction", fraction, "--audit-seed", str(seed),
                     "--audit-out", str(audit)]) == 0
        picked = audit_sample(read_traces(out), float(fraction), seed)
        write_traces(picked, tmp_path / "expected.jsonl")
        assert audit.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        assert capsys.readouterr().out.endswith(f"audit sample: {len(picked)} trace(s)\n")
    confidences = {t.confidence for t in read_traces(out)}
    assert confidences == {"bundled": {"low", "high"}, "low": {"low"}, "high": {"high"}}[source]


def test_audit_fraction_without_out_is_an_error(demo, tmp_path, capsys):
    code = main(["segment", "--completions", str(demo / "completions.jsonl"),
                 "--out", str(tmp_path / "t.jsonl"),
                 "--audit-fraction", "0.1"])
    capsys.readouterr()
    assert code == 1


def test_bad_audit_settings_are_caught_before_anything_is_written(demo, tmp_path, capsys):
    target = tmp_path / "t.jsonl"
    target.write_bytes(b"previous bytes\n")
    for bad in (["--audit-fraction", "2", "--audit-out", str(tmp_path / "a.jsonl")],
                ["--audit-fraction", "0.1"],
                ["--audit-out", str(tmp_path / "a.jsonl")]):
        code = main(["segment", "--completions", str(demo / "completions.jsonl"),
                     "--out", str(target), *bad])
        assert code == 1, bad
        assert target.read_bytes() == b"previous bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl"]
    assert "audit fraction must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bucket", "segment"])
def test_second_output_that_cannot_be_written_leaves_the_first(demo, tmp_path, capsys,
                                                              command):
    # The second output is a directory.  Both outputs used to be written one
    # after the other, so --out was already replaced, and the error named
    # the second one's temp file.
    traces, scores = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
    assert main(["segment", "--completions", str(demo / "completions.jsonl"),
                 "--out", str(traces)]) == 0
    assert main(["score", "--traces", str(traces), "--out", str(scores)]) == 0
    case = tmp_path / "case"
    case.mkdir()
    out, second = case / "out.jsonl", case / "second"
    second.mkdir()
    out.write_bytes(b"previous bytes\n")
    argv = {"bucket": ["bucket", "--scores", str(scores), "--corpus",
                       str(demo / "examples.jsonl"), "--report", str(second)],
            "segment": ["segment", "--completions", str(demo / "completions.jsonl"),
                        "--audit-fraction", "0.5", "--audit-out", str(second)]}[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{second}'\n"
    assert out.read_bytes() == b"previous bytes\n"
    assert sorted(p.name for p in case.iterdir()) == ["out.jsonl", "second"]
    assert list(second.iterdir()) == []


@pytest.mark.parametrize("command", [name for name, (_help, _run, options) in COMMANDS.items()
                                     if sum(opt.kind == OUTPUT for opt in options) > 1])
def test_two_outputs_that_name_one_file_are_refused(tmp_path, capsys, command):
    # The second output written would replace the first, and the first's
    # sidecar would then describe bytes it never wrote.  The refusal comes
    # before any input is read, so the inputs need not exist.  The first
    # output reaches the file through --workdir, the second by its
    # absolute path.
    options = COMMANDS[command][2]
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"previous bytes\n")
    argv = [*command.split(), "--workdir", str(tmp_path)]
    for opt in options:
        if opt.required and opt.kind == INPUT:
            argv += [opt.flag, "missing.jsonl"]
        elif opt.required and opt.kind == KNOB:
            argv += [opt.flag, opt.type[0] if type(opt.type) is tuple else "1"]
    first, second = [opt.flag for opt in options if opt.kind == OUTPUT][:2]
    capsys.readouterr()
    assert main([*argv, first, "out.jsonl", second, str(target)]) == 1
    assert capsys.readouterr().err == f"error: {first} and {second} name one file: {target}\n"
    assert target.read_bytes() == b"previous bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


@pytest.mark.parametrize("sidecar_of", ["first", "second"])
@pytest.mark.parametrize("command", ["segment", "bucket"])
def test_an_output_that_names_another_outputs_sidecar_is_refused(tmp_path, capsys, command,
                                                                  sidecar_of):
    # main writes each output's <path>.meta.json after the outputs, so it
    # would replace the output of that name and give it a sidecar of its
    # own.  The refusal comes before any input is read.
    first, second = {"segment": ("--out", "--audit-out"), "bucket": ("--out", "--report")}[command]
    inputs = {"segment": ["--completions", "missing.jsonl", "--audit-fraction", "0.5"],
              "bucket": ["--scores", "missing.jsonl", "--corpus", "missing.jsonl"]}[command]
    if sidecar_of == "first":
        names, clash = ("out.jsonl", "out.jsonl.meta.json"), f"{first}'s sidecar and {second}"
    else:
        names, clash = ("out.jsonl.meta.json", "out.jsonl"), f"{first} and {second}'s sidecar"
    target = tmp_path / "out.jsonl.meta.json"
    target.write_bytes(b"previous bytes\n")
    capsys.readouterr()
    assert main([command, "--workdir", str(tmp_path), *inputs,
                 first, names[0], second, names[1]]) == 1
    assert capsys.readouterr().err == f"error: {clash} name one file: {target}\n"
    assert target.read_bytes() == b"previous bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl.meta.json"]


def test_an_output_may_name_an_input(demo, tmp_path, capsys):
    completions = tmp_path / "c.jsonl"
    shutil.copy(demo / "completions.jsonl", completions)
    lines = completions.read_bytes().count(b"\n")
    assert main(["segment", "--completions", str(completions), "--out", str(completions)]) == 0
    assert len(read_traces(completions)) == lines  # each completion, now a trace


def test_config_file_equals_flags(demo, tmp_path, capsys):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    scores, buckets = str(out / "scores.jsonl"), str(out / "buckets.jsonl")
    examples = str(demo / "examples.jsonl")
    schedule = ["schedule", "--buckets", buckets, "--phases", "3", "--budget", "12"]
    bucket = ["bucket", "--scores", scores, "--corpus", examples]
    # (command with its inputs, knob flags, the same knobs as config lines):
    # one case per value type.
    cases = [
        (["schedule", "--buckets", buckets],
         ["--mode", "mixed", "--alpha", "1.0", "--phases", "3", "--budget", "12",
          "--seed", "42"],
         "mode = mixed\nalpha = 1.0\nphases = 3\nbudget_per_phase = 12\nseed = 42\n"),
        (["filter", "--scores", scores], ["--min-k", "2", "--max-k", "3"],
         "min_k = 2\nmax-k = 3\n"),
        (bucket, ["--max-task-share", "0.4"], "max_task_share = 0.4\n"),
        (bucket, ["--edges", "1-2,3-5,6+"], "edges = 1-2, 3-5, 6+\n"),
        (schedule, ["--with-replacement"], "with_replacement = true\n"),
        (["segment", "--completions", str(demo / "completions.jsonl")],
         ["--no-paragraph-fallback"], "no_paragraph_fallback = yes\n"),
        (schedule, ["--mode", "mixed", "--mixing", "adjacent"],
         "mode = mixed  # a choice\nmixing = adjacent\n"),
        (schedule, [], "# a whole-line comment\n\nwith_replacement = no\n"),
    ]
    for i, (command, flags, lines) in enumerate(cases):
        config = tmp_path / f"{i}.cfg"
        config.write_text(lines, encoding="utf-8")
        by_flag, by_config = tmp_path / f"{i}-flag.out", tmp_path / f"{i}-config.out"
        code = main([*command, *flags, "--out", str(by_flag)])
        assert code in (0, 2), flags
        assert main([*command, "--config", str(config), "--out", str(by_config)]) == code
        for suffix in ("", ".meta.json"):  # the sidecar records the same knob values
            assert Path(f"{by_config}{suffix}").read_bytes() == \
                Path(f"{by_flag}{suffix}").read_bytes(), (flags, suffix)
    capsys.readouterr()
    assert (tmp_path / "0-config.out").read_bytes() == (out / "curriculum.jsonl").read_bytes()


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
    # File options are flags only, never config keys.
    for line in ("phasez = 3", "out = x.jsonl", "buckets = b.jsonl"):
        config.write_text(line + "\n", encoding="utf-8")
        code = main(["schedule", "--config", str(config), "--buckets", "x",
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        key = line.split(" ")[0]
        assert capsys.readouterr().err == \
            f"error: {config}:1: unknown config key {key!r}\n"


@pytest.mark.parametrize("key", ["kind", "mode", "mixing", "label_field"])
def test_bad_config_choice_names_the_config_line(demo, tmp_path, capsys, key):
    # A config value meets the same choices as its flag; the commands run on
    # real inputs, so a value that slipped through would reach the stage.
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    config = tmp_path / "bad.cfg"
    config.write_text(f"seed = 1\n{key} = sideways\n", encoding="utf-8")
    argv = {
        "kind": ["baseline", "--corpus", demo / "examples.jsonl", "--phases", "1",
                 "--budget", "1", "--out", tmp_path / "o.jsonl"],
        "mode": ["schedule", "--buckets", out / "buckets.jsonl", "--phases", "1",
                 "--budget", "1", "--out", tmp_path / "o.jsonl"],
        "label_field": ["analyze", "confound", "--scores", out / "scores.jsonl",
                        "--labels-from", demo / "examples.jsonl"],
    }
    argv["mixing"] = argv["mode"]
    result = _run_cli(*argv[key], "--config", config)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {config}:2: {key}: invalid choice 'sideways'")


@pytest.mark.parametrize("line, error", [
    ("phases 3", "expected 'key = value'"),
    ("no_paragraph_fallback = maybe", "no_paragraph_fallback: bad boolean 'maybe'"),
    ("phases = three", "phases: invalid literal for int() with base 10: 'three'"),
])
def test_bad_config_line_names_the_line_and_key(tmp_path, capsys, line, error):
    config = tmp_path / "bad.cfg"
    config.write_text(f"seed = 1\n{line}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["schedule", "--workdir", str(tmp_path), "--config", "bad.cfg",
                 "--buckets", "b.jsonl", "--out", "o.jsonl"]) == 1
    assert capsys.readouterr().err == f"error: {config}:2: {error}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_config_file_not_utf8_exits_1(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"seed = 1\nmode = \xff\n")
    result = _run_cli("schedule", "--config", config, "--buckets", "b", "--out", "o")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {config}: not UTF-8")


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
    for dangling in ("--config", "--workdir"):  # read before the full parse
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--buckets", "x", "--out", "y", dangling])
        assert exc.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize("form", ["separate", "joined", "workdir"])
def test_argument_not_utf8_exits_64_before_any_work(demo, tmp_path, form, capsys):
    # A byte that is not UTF-8 reaches Python as a lone surrogate, which
    # the sidecar cannot encode.
    assert main(["segment", "--completions", str(demo / "completions.jsonl"),
                 "--out", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    traces = tmp_path / "tr\udcff.jsonl"  # b"tr\xff.jsonl" on disk
    os.replace(tmp_path / "t.jsonl", traces)
    argv = {"separate": ["--traces", traces, "--out", tmp_path / "s.jsonl"],
            "joined": [f"--traces={traces}", "--out", tmp_path / "s.jsonl"],
            "workdir": ["--workdir", f"{tmp_path}/\udcff/..", "--traces", traces,
                        "--out", "s.jsonl"]}[form]
    result = _run_cli("score", *argv)
    name = "--workdir" if form == "workdir" else "--traces"
    assert result.returncode == 64
    assert result.stderr == f"error: argument {name}: not valid UTF-8\n"
    assert result.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["t.jsonl.meta.json", "tr\udcff.jsonl"]


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


def _python(*argv, check=False):
    """Run python with this checkout's package importable."""
    src = str(Path(stepladder.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, argv)], env=env, check=check,
                          capture_output=True, text=True, timeout=60)


def _run_cli(*argv):
    return _python("-m", "stepladder.cli", *argv)


def _with_record(src, dest, change, lineno=1):
    """src written to dest with the record on line lineno passed through change."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[lineno - 1])
    change(record)
    lines[lineno - 1] = json.dumps(record) + "\n"
    dest.write_text("".join(lines), encoding="utf-8")
    return dest


@pytest.mark.parametrize("case", ["score-k", "step-index", "difficulty", "edges"])
def test_malformed_field_exits_1_with_line_and_field(demo, tmp_path, capsys, case):
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    if case == "score-k":  # the three known repros, then a spec the bucketer rejects
        _with_record(out / "scores.jsonl", bad, lambda r: r.update(k="x"))
        argv, field = ["filter", "--scores", bad, "--min-k", "1",
                       "--out", tmp_path / "f.txt"], "'k'"
    elif case == "step-index":
        _with_record(out / "traces.jsonl", bad, lambda r: r["steps"][0].pop("index"))
        argv, field = ["score", "--traces", bad, "--out", tmp_path / "s.jsonl"], \
            "'steps[0].index'"
    elif case == "difficulty":
        _with_record(demo / "examples.jsonl", bad,
                     lambda r: r.update(external_difficulty="hard"))
        argv, field = ["bucket", "--scores", out / "scores.jsonl", "--corpus", bad,
                       "--out", tmp_path / "b.jsonl"], "'external_difficulty'"
    else:
        _with_record(out / "buckets.jsonl", bad, lambda r: r.update(edges=[[2, None]]))
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


def _buckets_file(path, buckets):
    """A hand-made buckets file over the default edges; buckets holds
    (index, lo, hi, member ids) rows."""
    lines = [{"record": "spec", "edges": [[1, 3], [4, 6], [7, None]], "max_task_share": 1.0}]
    lines += [{"record": "bucket", "index": index, "lo": lo, "hi": hi,
               "members": [{"id": i, "k": lo} for i in ids]}
              for index, lo, hi, ids in buckets]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("case", ["index-gap", "id-twice"])
def test_schedule_rejects_a_buckets_file_at_odds_with_itself(tmp_path, case):
    bad = tmp_path / "bad.jsonl"
    if case == "index-gap":  # was a KeyError traceback
        _buckets_file(bad, [(1, 1, 3, ["a"]), (3, 7, None, ["c"])])
        line, field = 3, "'index'"
    else:  # was drawn in phase 1 and again in phase 2, without replacement
        _buckets_file(bad, [(1, 1, 3, ["a"]), (2, 4, 6, ["a"]), (3, 7, None, ["c"])])
        line, field = 3, "'members'"
    result = _run_cli("schedule", "--buckets", bad, "--phases", "2", "--budget", "1",
                      "--out", tmp_path / "m.jsonl")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}:{line}: {field}: "), result.stderr
    assert not (tmp_path / "m.jsonl").exists()


def test_schedule_with_replacement_refuses_a_budget_past_the_bound(tmp_path):
    from stepladder.scheduler import MAX_REPLACEMENT_DRAWS

    buckets = _buckets_file(tmp_path / "b.jsonl",
                            [(1, 1, 3, ["a"]), (2, 4, 6, ["b"]), (3, 7, None, ["c"])])
    result = _run_cli("schedule", "--buckets", buckets, "--with-replacement",
                      "--phases", "1", "--budget", MAX_REPLACEMENT_DRAWS + 1,
                      "--out", tmp_path / "m.jsonl")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: with replacement, phases * budget_per_phase is ")
    assert not (tmp_path / "m.jsonl").exists()


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


@pytest.mark.parametrize("command", ["filter", "score"])
def test_integer_literal_past_the_digit_limit_exits_1(tmp_path, command):
    # json.loads raises a plain ValueError for an integer over 4300 digits.
    bad = tmp_path / "bad.jsonl"
    if command == "filter":
        bad.write_text('{"example_id": "e", "teacher_id": "t", "k": %s, "tok": 1, '
                       '"dot_norm": 1.0}\n' % ("1" * 5000), encoding="utf-8")
        argv = ["filter", "--scores", bad, "--min-k", "1", "--out", tmp_path / "ids.txt"]
    else:
        bad.write_text('{"example_id": "e", "teacher_id": "t", "raw_text": "1. aaa", '
                       '"steps": [{"index": 1, "text": "aaa"}], "tok": %s, '
                       '"segmentation_mode": "numbered", "confidence": "high"}\n'
                       % ("7" * 5000), encoding="utf-8")
        argv = ["score", "--traces", bad, "--out", tmp_path / "scores.jsonl"]
    result = _run_cli(*argv)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}:1: malformed JSON (Exceeds the limit")


@pytest.mark.parametrize("command, message", [
    ("baseline", "'external_difficulty': expected finite number, "
                 "got integer past float range"),
    ("filter", "score (e): k must lie in 1..1e+308"),
    ("score", "trace (e, t): tok must lie in 1..1e+308"),
])
def test_integer_literal_past_float_range_exits_1(tmp_path, command, message):
    # A literal under the digit limit that float() cannot hold: each was an
    # OverflowError traceback, from the codec, DoTScore and DoTScore.compute.
    big, bad = "1" + "0" * 400, tmp_path / "bad.jsonl"
    if command == "baseline":
        bad.write_text('{"id": "e", "task": "t", "prompt": "p", "external_difficulty": %s}\n'
                       % big, encoding="utf-8")
        argv = ["baseline", "--corpus", bad, "--kind", "random", "--phases", "1",
                "--budget", "1", "--out", tmp_path / "m.jsonl"]
    elif command == "filter":
        bad.write_text('{"example_id": "e", "teacher_id": "t", "k": %s, "tok": 5, '
                       '"dot_norm": 1.0}\n' % big, encoding="utf-8")
        argv = ["filter", "--scores", bad, "--min-k", "1", "--out", tmp_path / "ids.txt"]
    else:
        bad.write_text('{"example_id": "e", "teacher_id": "t", "raw_text": "1. aaa", '
                       '"steps": [{"index": 1, "text": "aaa"}], "tok": %s, '
                       '"segmentation_mode": "numbered", "confidence": "high"}\n'
                       % big, encoding="utf-8")
        argv = ["score", "--traces", bad, "--out", tmp_path / "scores.jsonl"]
    result = _run_cli(*argv)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == f"error: {bad}:1: {message}\n"


def test_segment_reads_a_marker_value_past_the_digit_limit(tmp_path):
    completions = tmp_path / "c.jsonl"
    write_completions([{"example_id": "e", "teacher_id": "t",
                        "text": "1" * 5000 + ". foo\n2. bar baz"}], completions)
    result = _run_cli("segment", "--completions", completions, "--out", tmp_path / "t.jsonl")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("segmented 1 trace(s), 1 low-confidence")
    assert read_traces(tmp_path / "t.jsonl")[0].segmentation_mode == "numbered"


@pytest.mark.parametrize("flag, value, setting", [
    ("--timeout", "inf", "timeout"),
    ("--timeout", "1e10", "timeout"),
    ("--timeout", "nan", "timeout"),
    ("--rate-limit", "1e-200", "rate_limit"),
    ("--rate-limit", "inf", "rate_limit"),
    ("--temperature", "inf", "temperature"),
    ("--samples", str(10 ** 12), "samples_per_example"),
    ("--teacher-id", "", "teacher_id"),
])
def test_harvest_settings_out_of_bounds_exit_1_before_any_request(
        demo, tmp_path, capsys, monkeypatch, flag, value, setting):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    out = tmp_path / "t.jsonl"
    out.write_bytes(b"previous bytes\n")
    # Nothing listens on port 9: a request sent would end as a failure, exit 2.
    code = main(["harvest", "--corpus", str(demo / "examples.jsonl"),
                 "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--teacher-id", "t",
                 "--max-retries", "0", "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(out), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {setting} must ") and "Traceback" not in err
    assert out.read_bytes() == b"previous bytes\n"
    assert not (tmp_path / "cache").exists()


def test_unparsable_endpoint_exits_1(demo, tmp_path, monkeypatch):
    # The endpoint is a setting bad on its own: it is reported ahead of the
    # corpus's bad line 4, and before the cache directory is made.
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    corpus = _with_record(demo / "examples.jsonl", tmp_path / "ex.jsonl",
                          lambda r: r.pop("id"), 4)
    # urlparse raises on an unclosed IPv6 bracket; .port on a port that is
    # out of range or not a number.
    for endpoint in ("http://[::1/v1", "http://127.0.0.1:99999/v1", "http://127.0.0.1:x/v1"):
        result = _run_cli("harvest", "--corpus", corpus,
                          "--endpoint", endpoint, "--model", "m", "--teacher-id", "t",
                          "--cache-dir", tmp_path / "cache", "--out", tmp_path / "t.jsonl")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr == f"error: endpoint_url is not a valid URL: {endpoint!r}\n"
        assert not (tmp_path / "cache").exists() and not (tmp_path / "t.jsonl").exists()

STAGES = tuple(f"stepladder.{name}" for name in
               ("analyzer", "bucketer", "harvester", "scheduler", "scorer", "segmenter"))


def test_cli_import_loads_no_http_stack():
    # Each subcommand imports its own stages, and harvest() the HTTP
    # client; importing any of them, or requests, at start-up would slow
    # every other subcommand.  The records are plain classes: dataclasses
    # would bring inspect, ast, dis and tokenize.
    unwanted = ("requests", "urllib3", "http.client", "concurrent.futures", "dataclasses",
                "inspect") + STAGES
    probe = (f"import sys, stepladder.cli; "
             f"print(sorted(m for m in {unwanted!r} if m in sys.modules))")
    assert _python("-c", probe, check=True).stdout.strip() == "[]"


def _without_proxies(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


def _harvest_argv(corpus, tmp_path, url):
    return ["harvest", "--corpus", str(corpus), "--endpoint", url, "--model", "m",
            "--teacher-id", "t", "--rate-limit", "1000", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "t.jsonl")]


def _harvest_probe(url, tmp_path, modules):
    """Python code that runs a cold harvest through cli.main, then prints
    its exit code and which of modules were loaded."""
    argv = _harvest_argv(tmp_path / "examples.jsonl", tmp_path, url)
    return ("import sys; from stepladder.cli import main; "
            f"code = main({argv!r}); "
            f"print(code, *sorted(m for m in {modules!r} if m in sys.modules))")


def test_plain_http_harvest_loads_no_tls_or_proxy_modules(tmp_path, monkeypatch):
    # TLS is for an https endpoint, and urllib.request (with http.client
    # and email) for reading a proxy from the environment.
    modules = ("ssl", "urllib.request", "http.client", "email")
    write_corpus(build_demo_corpus(3, 0)[0], tmp_path / "examples.jsonl")
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    _without_proxies(monkeypatch)
    with MockTeacher() as mock:
        out = _python("-c", _harvest_probe(mock.base_url, tmp_path, modules), check=True)
        assert out.stdout.splitlines()[-1] == "0"
        shutil.rmtree(tmp_path / "cache")
        monkeypatch.setenv("http_proxy", "http://proxy.invalid:3128")
        monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
        out = _python("-c", _harvest_probe(mock.base_url, tmp_path, modules), check=True)
        code, *loaded = out.stdout.splitlines()[-1].split()
        assert code == "0" and "urllib.request" in loaded


def test_ascii_host_harvest_loads_no_idna_codec(tmp_path, monkeypatch):
    # getaddrinfo encodes a str host with the idna codec, which brings
    # stringprep and unicodedata; an ASCII host is looked up as bytes.
    modules = ("encodings.idna", "stringprep", "unicodedata")
    write_corpus(build_demo_corpus(3, 0)[0], tmp_path / "examples.jsonl")
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    _without_proxies(monkeypatch)
    with MockTeacher() as mock:
        out = _python("-c", _harvest_probe(mock.base_url, tmp_path, modules), check=True)
    assert out.stdout.splitlines()[-2:] == [
        "harvested 3 trace(s), 0 from cache, 3 request(s) sent", "0"]


def test_harvest_missing_corpus_fails_before_the_cache_directory_is_made(tmp_path, capsys,
                                                                         monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    for corpus in (tmp_path / "absent.jsonl", tmp_path):
        code = main(_harvest_argv(corpus, tmp_path, "http://127.0.0.1:9/v1"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("bad", ["duplicate", "malformed"])
def test_harvest_reports_a_bad_corpus_line_when_it_reaches_it(tmp_path, monkeypatch, bad):
    # The corpus streams into the harvest: the units before the bad line
    # ran, and their responses stay cached for the next run.  With one
    # request in flight, the first two responses have arrived by then.
    # The CLI runs in a subprocess: the mock's server threads may report
    # the request the failed run dropped on this process's stderr.
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    _without_proxies(monkeypatch)
    examples = build_demo_corpus(6, 0)[0]
    write_corpus(examples, tmp_path / "good.jsonl")
    lines = (tmp_path / "good.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[0] if bad == "duplicate" else "{not json\n"
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "t.jsonl"
    out.write_bytes(b"previous bytes\n")
    with MockTeacher() as mock:
        failed = _run_cli(*_harvest_argv(corpus, tmp_path, mock.base_url), "--max-in-flight", "1")
        assert (failed.returncode, failed.stdout) == (1, "")
        assert failed.stderr == {
            "duplicate": f"error: {corpus}:4: duplicate example id {examples[0].id!r}\n",
            "malformed": f"error: {corpus}:4: malformed JSON (Expecting property name "
                         f"enclosed in double quotes)\n"}[bad]
        assert out.read_bytes() == b"previous bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.jsonl", "cache", "good.jsonl", "t.jsonl"]
        cached = len((tmp_path / "cache" / "responses.jsonl").read_bytes().splitlines())
        assert cached >= 2
        rerun = _run_cli(*_harvest_argv(tmp_path / "good.jsonl", tmp_path, mock.base_url))
    assert (rerun.returncode, rerun.stdout) == (
        0, f"harvested 6 trace(s), {cached} from cache, {6 - cached} request(s) sent\n")


@pytest.mark.parametrize("command", ["bucket", "segment", "schedule"])
def test_each_input_is_hashed_once_per_command(demo, tmp_path, capsys, monkeypatch, command):
    # Two outputs each get a sidecar, and schedule records --buckets'
    # digest in its manifest too; the digests are computed once.
    out = run_pipeline(demo, tmp_path / "pipeline")
    argv = {"bucket": ["bucket", "--scores", out / "scores.jsonl",
                       "--corpus", demo / "examples.jsonl", "--out", tmp_path / "b.jsonl",
                       "--report", tmp_path / "b.txt"],
            "segment": ["segment", "--completions", demo / "completions.jsonl",
                        "--out", tmp_path / "t.jsonl", "--audit-fraction", "0.1",
                        "--audit-out", tmp_path / "a.jsonl"],
            "schedule": ["schedule", "--buckets", out / "buckets.jsonl", "--phases", "3",
                         "--budget", "12", "--out", tmp_path / "m.jsonl"]}[command]
    hashed = []
    monkeypatch.setattr("stepladder.cli.file_sha256",
                        lambda path: hashed.append(str(path)) or file_sha256(path))
    assert main(list(map(str, argv))) == 0
    capsys.readouterr()
    inputs = [str(arg) for arg in argv if isinstance(arg, Path) and arg.parent != tmp_path]
    assert sorted(hashed) == sorted(inputs)


def test_warm_harvest_loads_no_transport_module(tmp_path, monkeypatch):
    # An all-hit harvest sends nothing, so it needs neither sockets nor
    # a selector nor the HTTP client.
    modules = ("socket", "select", "selectors", "stepladder.chatclient")
    write_corpus(build_demo_corpus(3, 0)[0], tmp_path / "examples.jsonl")
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    _without_proxies(monkeypatch)
    with MockTeacher() as mock:
        probe = _harvest_probe(mock.base_url, tmp_path, modules)
        cold = _python("-c", probe, check=True).stdout.splitlines()[-1]
        warm = _python("-c", probe, check=True).stdout.splitlines()
    assert cold.split()[0] == "0"
    assert warm == ["harvested 3 trace(s), 3 from cache, 0 request(s) sent", "0"]


def test_cached_lone_surrogate_is_refetched(tmp_path, monkeypatch):
    write_corpus(build_demo_corpus(1, 0)[0], tmp_path / "examples.jsonl")
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    _without_proxies(monkeypatch)
    argv = ["harvest", "--corpus", tmp_path / "examples.jsonl", "--model", "m",
            "--teacher-id", "t", "--samples", "2", "--rate-limit", "1000",
            "--cache-dir", tmp_path / "cache", "--out", tmp_path / "t.jsonl"]
    log = tmp_path / "cache" / "responses.jsonl"
    with MockTeacher() as mock:
        argv += ["--endpoint", mock.base_url]
        assert _run_cli(*argv).returncode == 0
        traces = (tmp_path / "t.jsonl").read_bytes()
        # One entry's text, under its own key, gets a lone surrogate.
        lines = log.read_bytes().splitlines(keepends=True)
        entry = json.loads(lines[0])
        lines[0] = json.dumps({"key": entry["key"], "text": entry["text"] + "\ud800"},
                              ensure_ascii=True).encode("ascii") + b"\n"
        log.write_bytes(b"".join(lines))
        runs = [_run_cli(*argv) for _ in range(2)]
    assert [(r.returncode, r.stdout) for r in runs] == [
        (0, "harvested 2 trace(s), 1 from cache, 1 request(s) sent\n"),
        (0, "harvested 2 trace(s), 2 from cache, 0 request(s) sent\n")]
    assert not any("Traceback" in r.stderr for r in runs)
    assert (tmp_path / "t.jsonl").read_bytes() == traces


def test_segment_loads_only_its_own_stage(demo, tmp_path):
    probe = ("import sys; from stepladder.cli import main; "
             f"code = main(['segment', '--completions', {str(demo / 'completions.jsonl')!r}, "
             f"'--out', {str(tmp_path / 't.jsonl')!r}]); "
             f"print(code, sorted(m for m in {STAGES!r} if m in sys.modules))")
    out = _python("-c", probe, check=True).stdout.splitlines()[-1]
    assert out == "0 ['stepladder.segmenter']"


# Each subcommand's argv on data/synthetic/; {dir} holds the earlier
# stages' outputs, and {url} is a MockTeacher's endpoint.
_ON_SYNTHETIC = {
    "harvest": ["harvest", "--corpus", "{dir}/prefix.jsonl", "--endpoint", "{url}",
                "--model", "m", "--teacher-id", "t", "--rate-limit", "1000",
                "--cache-dir", "{out}.cache"],
    "segment": ["segment", "--completions", f"{BUNDLED}/completions.jsonl"],
    "score": ["score", "--traces", "{dir}/traces.jsonl"],
    "bucket": ["bucket", "--scores", "{dir}/one.jsonl", "--corpus", f"{BUNDLED}/examples.jsonl"],
    "schedule": ["schedule", "--buckets", "{dir}/buckets.jsonl", "--phases", "2",
                 "--budget", "5"],
    "baseline": ["baseline", "--corpus", f"{BUNDLED}/examples.jsonl", "--scores",
                 "{dir}/one.jsonl", "--kind", "token_length", "--phases", "2", "--budget", "5"],
    "analyze agreement": ["analyze", "agreement", "--scores", "{dir}/two.jsonl"],
    "analyze confound": ["analyze", "confound", "--scores", "{dir}/one.jsonl",
                         "--labels-from", f"{BUNDLED}/examples.jsonl"],
    "filter": ["filter", "--scores", "{dir}/one.jsonl", "--min-k", "3"],
}


@pytest.fixture(scope="module")
def synthetic_stages(two_teachers):
    """two_teachers' directory, plus the buckets of its one-teacher scores
    and the bundled corpus's first 8 examples."""
    root = two_teachers[0].parent
    assert main(["bucket", "--scores", str(root / "one.jsonl"), "--corpus",
                 str(BUNDLED / "examples.jsonl"), "--out", str(root / "buckets.jsonl")]) == 0
    write_corpus(read_corpus(BUNDLED / "examples.jsonl")[:8], root / "prefix.jsonl")
    return root


@pytest.mark.parametrize("command", list(_ON_SYNTHETIC))
def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path, monkeypatch, synthetic_stages,
                                                    command):
    # The harvest runs cold: its cache directory is new.
    root = synthetic_stages
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    _without_proxies(monkeypatch)
    with MockTeacher() if command == "harvest" else contextlib.nullcontext() as mock:
        argv = [arg.format(dir=root, url=mock and mock.base_url, out=tmp_path / "out")
                for arg in _ON_SYNTHETIC[command]] + ["--out", str(tmp_path / "out")]
        probe = ("import sys; from stepladder.cli import main; "
                 f"code = main({argv!r}); "
                 "print(code, [m for m in ('dataclasses', 'inspect') if m in sys.modules])")
        out = _python("-c", probe, check=True).stdout.splitlines()[-1]
    assert out == "0 []"


def test_package_names_load_on_first_use():
    for name in stepladder.__all__:
        if name != "__version__":
            module = importlib.import_module(f"stepladder.{stepladder._EXPORTS[name]}")
            assert getattr(stepladder, name) is getattr(module, name), name
    namespace = {}
    exec("from stepladder import *", namespace)
    assert set(stepladder.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        stepladder.no_such_name
    probe = "import stepladder; print(stepladder.segmenter.segment is stepladder.segment)"
    assert _python("-c", probe, check=True).stdout == "True\n"


@pytest.mark.parametrize("command", ["segment", "score"])
def test_malformed_line_mid_stream_keeps_old_output(demo, tmp_path, capsys, command):
    # segment and score stream their input, so the bad line is reached
    # after earlier records were already written to the temp file.
    out = run_pipeline(demo, tmp_path)
    capsys.readouterr()
    src, field, value = {"segment": (demo / "completions.jsonl", "text", 5),
                         "score": (out / "traces.jsonl", "tok", "x")}[command]
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    record[field] = value
    lines[2] = json.dumps(record) + "\n"
    bad = tmp_path / "in" / "bad.jsonl"
    bad.parent.mkdir()
    bad.write_text("".join(lines), encoding="utf-8")
    target = tmp_path / "out" / "previous.jsonl"
    target.parent.mkdir()
    target.write_bytes(b"previous bytes\n")
    input_flag = {"segment": "--completions", "score": "--traces"}[command]
    result = _run_cli(command, input_flag, bad, "--out", target)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}:3: '{field}': ")
    assert target.read_bytes() == b"previous bytes\n"
    assert sorted(p.name for p in target.parent.iterdir()) == ["previous.jsonl"]


def test_python_dash_m_runs_the_cli():
    result = _python("-m", "stepladder", "--version")
    assert result.returncode == 0
    assert result.stdout.startswith("stepladder ")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stepladder" in capsys.readouterr().out


# setuptools calls its [tool.setuptools] table beta, with a warning.
@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_version_is_the_package_version():
    # pyproject.toml states no version of its own: it reads the package's.
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = pyprojecttoml.read_configuration(pyproject)
    assert config["project"]["version"] == stepladder.__version__


# ---------------------------------------------------------------------------
# analyze subcommands


def write_scores_file(path, rows):
    lines = [json.dumps({"example_id": e, "teacher_id": t, "k": k, "tok": tok,
                         "dot_norm": k / __import__("math").log1p(tok),
                         "n_samples": 1})
             for e, t, k, tok in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _output_and_sidecar(path):
    return path.read_bytes(), Path(f"{path}.meta.json").read_bytes()


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
    # threshold satisfied and violated; a violated one prints its report
    # and writes neither the output nor its sidecar
    assert main(["analyze", "agreement", "--scores", str(scores),
                 "--min-tau", "0.9"]) == 0
    written = _output_and_sidecar(tmp_path / "agreement.json")
    capsys.readouterr()
    assert main(["analyze", "agreement", "--scores", str(scores),
                 "--min-tau", "1.1", "--out", str(tmp_path / "agreement.json")]) == 1
    assert "tau" in capsys.readouterr().out
    assert _output_and_sidecar(tmp_path / "agreement.json") == written


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


def test_analyze_agreement_names_the_teacher_of_a_second_score(tmp_path, capsys):
    # Each teacher's scores, pooled from every file, hold one score per
    # example; the error names the file and line, and the teacher.
    fa, fb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_scores_file(fa, [(f"e{i}", "a", i + 1, 20 + i) for i in range(4)])
    write_scores_file(fb, [(f"e{i}", "b", 4 - i, 30 + i) for i in range(4)] + [("e2", "a", 1, 9)])
    assert main(["analyze", "agreement", "--scores", str(fa), "--scores", str(fb),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {fb}:5: teacher 'a': 'example_id': duplicate score for example 'e2'\n")
    assert not (tmp_path / "r.json").exists()


def test_analyze_agreement_names_the_second_score_of_the_teacher_it_refuses(tmp_path, capsys):
    # Teacher a comes first, so its repeat (line 5) is the one refused,
    # though teacher b repeats an example earlier in the file (line 4).
    scores = tmp_path / "s.jsonl"
    write_scores_file(scores, [("e0", "a", 1, 9), ("e0", "b", 1, 9), ("e1", "b", 2, 9),
                               ("e0", "b", 3, 9), ("e0", "a", 2, 9)])
    assert main(["analyze", "agreement", "--scores", str(scores)]) == 1
    assert capsys.readouterr().err == (
        f"error: {scores}:5: teacher 'a': 'example_id': duplicate score for example 'e0'\n")


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
    # a threshold the data cannot meet flips the exit code, and writes
    # nothing
    written = _output_and_sidecar(tmp_path / "confound.json")
    assert main(["analyze", "confound", "--scores", str(out / "scores.jsonl"),
                 "--labels-from", str(demo / "examples.jsonl"),
                 "--min-spearman", "0.999", "--out", str(tmp_path / "confound.json")]) == 1
    assert "spearman" in capsys.readouterr().out
    assert _output_and_sidecar(tmp_path / "confound.json") == written


# ---------------------------------------------------------------------------
# One score per example


@pytest.fixture(scope="module")
def two_teachers(tmp_path_factory):
    """The bundled examples' scores, and the same scores with a second
    teacher's line after each, whose tok runs the other way."""
    root = tmp_path_factory.mktemp("teachers")
    assert main(["segment", "--completions", str(BUNDLED / "completions.jsonl"),
                 "--out", str(root / "traces.jsonl")]) == 0
    assert main(["score", "--traces", str(root / "traces.jsonl"),
                 "--out", str(root / "one.jsonl")]) == 0
    rows = []
    for sc in read_scores(root / "one.jsonl"):
        rows += [(sc.example_id, sc.teacher_id, sc.k, sc.tok),
                 (sc.example_id, "zz-teacher", sc.k, 10000 - sc.tok)]
    write_scores_file(root / "two.jsonl", rows)
    return root / "one.jsonl", root / "two.jsonl"


_SCORE_READERS = {
    "bucket": ["bucket", "--corpus", str(BUNDLED / "examples.jsonl")],
    "baseline": ["baseline", "--corpus", str(BUNDLED / "examples.jsonl"),
                 "--kind", "token_length", "--phases", "1", "--budget", "5"],
    "confound": ["analyze", "confound", "--labels-from", str(BUNDLED / "examples.jsonl")],
    "filter": ["filter", "--min-k", "1"],
}


@pytest.mark.parametrize("command", sorted(_SCORE_READERS))
def test_a_second_score_for_an_example_names_its_line(tmp_path, capsys, two_teachers,
                                                      command):
    # baseline used to order by the last line's tok, and filter listed
    # every id twice; bucket and confound named neither file nor line.
    out = tmp_path / "out"
    code = main([*_SCORE_READERS[command], "--scores", str(two_teachers[1]),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {two_teachers[1]}:2: 'example_id': "
                                       f"duplicate score for example 'ex0000'\n")
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


@pytest.mark.parametrize("command", sorted(_SCORE_READERS))
def test_each_score_is_checked_once(tmp_path, capsys, monkeypatch, two_teachers, command):
    # The CLI reader's check, which names the line, is the only one: the
    # library function takes the stream it checked as it is.
    checks = []
    check = stepladder.corpus._one_score_per_example
    monkeypatch.setattr(stepladder.corpus, "_one_score_per_example",
                        lambda *args: checks.append(args[1:]) or check(*args))
    assert main([*_SCORE_READERS[command], "--scores", str(two_teachers[0]),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(checks) == 1


@pytest.mark.parametrize("command", ["bucket", "confound"])
def test_a_second_teacher_leaves_teacher_narrowed_outputs_unchanged(
        tmp_path, capsys, two_teachers, command):
    outputs = []
    for scores in two_teachers:
        out = tmp_path / scores.name
        assert main([*_SCORE_READERS[command], "--scores", str(scores),
                     "--teacher", "demo-teacher", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    # A teacher with no scores is an error, not an empty output.
    out = tmp_path / "nobody"
    assert main([*_SCORE_READERS[command], "--scores", str(two_teachers[1]),
                 "--teacher", "nobody", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no scores for teacher 'nobody'\n"
    assert not out.exists() and not Path(f"{out}.meta.json").exists()


@pytest.mark.parametrize("case", ["bucket", "confound", "confound-unlabeled"])
def test_a_score_that_fails_the_join_names_its_line(tmp_path, capsys, two_teachers, case):
    # Scores line 3 is ex0002's, and examples line 5 is ex0004.  These
    # used to name neither file nor line: "example 'zz0002' has no task
    # mapping", and "unlabeled examples: ex0004, zz0002".
    scores, corpus = two_teachers[0], BUNDLED / "examples.jsonl"
    if case != "confound-unlabeled":
        scores = _with_record(scores, tmp_path / "scores.jsonl",
                              lambda r: r.update(example_id="zz0002"), 3)
    if case != "bucket":
        corpus = _with_record(corpus, tmp_path / "labels.jsonl",
                              lambda r: [r.pop("external_difficulty"), r.pop("judge_score")], 5)
    argv = ["bucket", "--corpus", corpus] if case == "bucket" else \
        ["analyze", "confound", "--labels-from", corpus]
    out = tmp_path / "out"
    assert main(list(map(str, [*argv, "--scores", scores, "--out", out]))) == 1
    where, problem = (f"{scores}:5", "example 'ex0004' has no external_difficulty") \
        if case == "confound-unlabeled" else (f"{scores}:3", "no example 'zz0002'")
    assert capsys.readouterr().err == f"error: {where}: 'example_id': {problem} in {corpus}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["token_length", "judge_score"])
def test_a_baseline_example_without_its_key_names_its_line(tmp_path, capsys, two_teachers,
                                                           kind):
    # Examples line 3 is ex0002, and line 5 is ex0004.  These used to name
    # neither file nor line: "token_length baseline lacks scores for:
    # ex0002", and "judge_score baseline lacks judge_score for: ex0004".
    corpus, scores = BUNDLED / "examples.jsonl", two_teachers[0]
    if kind == "token_length":
        lines = scores.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(lines[2])["example_id"] == "ex0002"
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")
        expected = f"{corpus}:3: 'id': example 'ex0002' has no score in {scores}"
    else:
        corpus = _with_record(corpus, tmp_path / "examples.jsonl",
                              lambda r: r.pop("judge_score"), 5)
        expected = (f"{corpus}:5: 'judge_score': example 'ex0004' has none, "
                    f"which the judge_score baseline needs")
    out = tmp_path / "out"
    assert main(list(map(str, ["baseline", "--corpus", corpus, "--scores", scores, "--kind",
                               kind, "--phases", "2", "--budget", "5", "--out", out]))) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["bucket-corpus", "bucket-share", "schedule-phases",
                                  "filter-no-bound", "baseline-unused-scores",
                                  "harvest-samples", "harvest-rate-limit"])
def test_settings_then_corpus_then_scores_is_the_order_of_errors(tmp_path, capsys,
                                                                 two_teachers, case):
    # A bad setting is reported ahead of a bad input, and a bad corpus
    # line ahead of a bad scores line.  A --scores that baseline's
    # ordering does not use is still read to its end.  harvest checks its
    # settings before it reads --template-file or opens --corpus.
    corpus = _with_record(BUNDLED / "examples.jsonl", tmp_path / "corpus.jsonl",
                          lambda r: r.update(task=7), 2)
    scores = _with_record(two_teachers[0], tmp_path / "scores.jsonl",
                          lambda r: r.update(k="x"), 3)
    buckets = tmp_path / "buckets.jsonl"
    buckets.write_text("{not json\n", encoding="utf-8")
    good = BUNDLED / "examples.jsonl"
    harvest = ["harvest", "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
               "--teacher-id", "t"]
    argv, error = {
        "bucket-corpus": (["bucket", "--corpus", corpus, "--scores", scores],
                          f"{corpus}:2: 'task'"),
        "bucket-share": (["bucket", "--corpus", good, "--scores", scores,
                          "--max-task-share", "0"], "max_task_share must lie in (0, 1]"),
        "schedule-phases": (["schedule", "--buckets", buckets, "--phases", "0", "--budget", "5"],
                            "phases must be >= 1"),
        "filter-no-bound": (["filter", "--scores", scores],
                            "filter_by_depth needs min_k, max_k or both"),
        "baseline-unused-scores": (["baseline", "--corpus", good, "--scores", scores, "--kind",
                                    "random", "--phases", "1", "--budget", "5"],
                                   f"{scores}:3: 'k'"),
        "harvest-samples": ([*harvest, "--corpus", good, "--template-file", buckets,  # bad JSON
                             "--samples", "0"], "samples_per_example must lie in 1..10000, got 0"),
        "harvest-rate-limit": ([*harvest, "--corpus", tmp_path / "missing.jsonl",
                                "--rate-limit", "0"], "rate_limit must be finite"),
    }[case]
    assert main(list(map(str, [*argv, "--out", tmp_path / "out"]))) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["analyze", "agreement", "--scores", "missing.jsonl", "--min-tau"],
    ["analyze", "confound", "--scores", "missing.jsonl", "--labels-from", "missing.jsonl",
     "--min-spearman"],
], ids=["agreement", "confound"])
def test_non_finite_threshold_exits_1_before_any_input_is_read(tmp_path, capsys, argv, value):
    # Every comparison with NaN is false, so a NaN threshold would pass any data.
    code = main([*argv[:-1], f"{argv[-1]}={value}", "--workdir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {argv[-1]} must be a finite number, got {value}\n"


# ---------------------------------------------------------------------------
# Every numeric setting alone at an extreme value

EXTREMES = ("0", "-1", "1e-300", "1e300", str(10 ** 30), "nan", "inf")


def _parses(parse, text) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def test_no_numeric_setting_crashes_a_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key-not-checked")
    _without_proxies(monkeypatch)
    examples, completions = BUNDLED / "examples.jsonl", BUNDLED / "completions.jsonl"
    corpus = tmp_path / "two.jsonl"  # harvest asks for two examples
    write_corpus(read_corpus(examples)[:2], corpus)
    traces, scores, other = tmp_path / "t.jsonl", tmp_path / "s.jsonl", tmp_path / "o.jsonl"
    buckets = tmp_path / "b.jsonl"
    for argv in (["segment", "--completions", completions, "--out", traces],
                 ["score", "--traces", traces, "--out", scores],
                 ["bucket", "--scores", scores, "--corpus", examples, "--out", buckets]):
        assert main(list(map(str, argv))) == 0, argv
    write_scores_file(other, [(s.example_id, "other", s.k, s.tok)
                              for s in read_scores(scores)])
    with MockTeacher() as mock:
        # Each subcommand's required settings, with small valid values.
        base = {
            "harvest": ["--corpus", corpus, "--endpoint", mock.base_url, "--model", "m",
                        "--teacher-id", "t", "--rate-limit", "1000000", "--max-retries", "0"],
            "segment": ["--completions", completions],
            "bucket": ["--scores", scores, "--corpus", examples],
            "schedule": ["--buckets", buckets, "--phases", "2", "--budget", "5"],
            "baseline": ["--corpus", examples, "--kind", "random", "--phases", "2",
                         "--budget", "5"],
            "analyze agreement": ["--scores", scores, "--scores", other],
            "analyze confound": ["--scores", scores, "--labels-from", examples],
            "filter": ["--scores", scores],
        }
        findings = []
        for name, (_help, _run, options) in COMMANDS.items():
            for opt in options:
                if opt.kind != KNOB or opt.type not in (int, float):
                    continue
                for value in filter(lambda text: _parses(opt.type, text), EXTREMES):
                    case = tmp_path / f"{name}{opt.flag}={value}".replace(" ", "-")
                    case.mkdir()
                    out = case / "out"
                    out.write_bytes(b"previous bytes\n")
                    argv = [*name.split(), *base[name], f"{opt.flag}={value}", "--out", out]
                    if name == "harvest":  # a cold cache: every run sends its requests
                        argv += ["--cache-dir", case / "cache"]
                    try:
                        code = main(list(map(str, argv)))
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:
                        findings.append(f"{name} {opt.flag}={value}: {exc!r}")
                        continue
                    # Exit 2 completes the run, and writes its output;
                    # exit 1 or 64 writes neither output nor sidecar.
                    capsys.readouterr()
                    if code not in (0, 1, 2, 64) or list(case.glob(".*.tmp")) \
                            or code in (1, 64) and (out.read_bytes() != b"previous bytes\n"
                                                    or Path(f"{out}.meta.json").exists()):
                        findings.append(f"{name} {opt.flag}={value}: exit {code}")
    assert not findings



# ---------------------------------------------------------------------------
# One corrupted line of any input file

# Each subcommand's argv, its input files named in braces; {cache} is the
# harvest cache directory and {url} the MockTeacher's endpoint.
_SWEEP = {
    "harvest": ["harvest", "--corpus", "{examples.jsonl}", "--template-file",
                "{template.json}", "--cache-dir", "{cache}", "--endpoint", "{url}",
                "--model", "m", "--teacher-id", "t", "--rate-limit", "1000000",
                "--max-retries", "0"],
    "segment": ["segment", "--completions", "{completions.jsonl}"],
    "score": ["score", "--traces", "{traces.jsonl}"],
    "bucket": ["bucket", "--scores", "{scores.jsonl}", "--corpus", "{examples.jsonl}"],
    "schedule": ["schedule", "--buckets", "{buckets.jsonl}", "--phases", "2", "--budget", "5"],
    "baseline": ["baseline", "--corpus", "{examples.jsonl}", "--scores", "{scores.jsonl}",
                 "--kind", "token_length", "--phases", "2", "--budget", "5"],
    "analyze agreement": ["analyze", "agreement", "--scores", "{scores.jsonl}",
                          "--scores", "{other.jsonl}"],
    "analyze confound": ["analyze", "confound", "--scores", "{scores.jsonl}",
                         "--labels-from", "{examples.jsonl}"],
    "filter": ["filter", "--scores", "{scores.jsonl}", "--min-k", "1"],
}
# (command, file): each input file of each subcommand, and the warm cache log.
_SWEEP_CASES = [(command, arg[1:-1]) for command, argv in _SWEEP.items() for arg in argv
                if arg.startswith("{") and arg not in ("{cache}", "{url}")]
_SWEEP_CASES.append(("harvest", "cache/responses.jsonl"))
# The commands whose every data error names a line; analyze agreement
# still has errors that name none.
_LINE_NAMED = ("segment", "score", "bucket", "baseline", "analyze confound", "filter")
_CORRUPTIONS = ("truncate", "flip", "insert", "not-utf8", "drop-key", "wrong-type", "blank",
                "duplicate")


def _sweep_argv(command, root, case, url, out):
    """command's argv: each input file from case if it is there, else from root."""
    def value(arg):
        if arg == "{url}":
            return url
        if arg == "{cache}":
            return str(case / "cache")
        if arg.startswith("{"):
            name = arg[1:-1]
            return str(case / name if (case / name).exists() else root / name)
        return arg
    return [*map(value, _SWEEP[command]), "--out", str(out)]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """Every subcommand's input files, from the first 40 bundled examples,
    and a MockTeacher whose answers fill a warm harvest cache."""
    root = tmp_path_factory.mktemp("sweep")
    for name in ("examples.jsonl", "completions.jsonl"):
        lines = (BUNDLED / name).read_bytes().splitlines(keepends=True)[:40]
        (root / name).write_bytes(b"".join(lines))
    (root / "template.json").write_text(json.dumps(
        {"template_id": "t1", "system_text": "Be careful.", "user_text": "Solve: {prompt}"})
        + "\n")
    with MockTeacher() as mock:
        with _harvest_env(), contextlib.redirect_stdout(io.StringIO()):
            for command in ("segment", "score", "bucket", "harvest"):
                out = root / {"segment": "traces.jsonl", "score": "scores.jsonl",
                              "bucket": "buckets.jsonl", "harvest": "harvest.jsonl"}[command]
                assert main(_sweep_argv(command, root, root, mock.base_url, out)) == 0, command
        write_scores_file(root / "other.jsonl", [(s.example_id, "other", s.k, s.tok)
                                                 for s in read_scores(root / "scores.jsonl")])
        yield root, mock.base_url


@contextlib.contextmanager
def _harvest_env():
    """An API key, and no proxy, while the block runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENAI_API_KEY", "test-key-not-checked")
        _without_proxies(mp)
        yield


def _corrupt(data: bytes, kind: str, n: int) -> bytes:
    """data with one line corrupted as kind says; n picks the line, the
    place, the byte and the field."""
    lines = data.split(b"\n")  # the last is the empty rest after the final newline
    i = n % (len(lines) - 1)
    line = lines[i]
    at = n // 7 % (len(line) + 1)
    if kind == "truncate":
        lines[i] = line[:at]
    elif kind == "flip":
        at %= len(line)
        lines[i] = line[:at] + bytes([line[at] ^ (1 + n % 255)]) + line[at + 1:]
    elif kind == "insert":
        lines[i] = line[:at] + bytes([n % 256]) + line[at:]
    elif kind == "not-utf8":
        lines[i] = line[:at] + b"\xff" + line[at:]
    elif kind in ("drop-key", "wrong-type"):
        obj = json.loads(line)
        key = sorted(obj)[n % len(obj)]
        if kind == "drop-key":
            del obj[key]
        else:
            obj[key] = [None, True, 7, 2.5, "x", [], {}, 10 ** 400][n % 8]
        lines[i] = json.dumps(obj, ensure_ascii=False).encode("utf-8")
    else:
        lines.insert(i, b"" if kind == "blank" else line)
    return b"\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_SWEEP_CASES), st.sampled_from(_CORRUPTIONS),
       st.integers(min_value=0, max_value=2 ** 20))
def test_no_corrupted_input_line_crashes_a_subcommand(sweep_inputs, case, kind, n):
    """Exit 0, 1, 2 or 64, never an exception; exit 1 or 64 leaves the
    previous output, and no temp file or sidecar.  A corrupted cache line
    is fetched again.  Where every error names its line, an exit 1 does."""
    root, url = sweep_inputs
    command, name = case
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        (work / "cache").mkdir()
        shutil.copy(root / "cache" / "responses.jsonl", work / "cache")
        (work / name).write_bytes(_corrupt((root / name).read_bytes(), kind, n))
        out = work / "out"
        out.write_bytes(b"previous bytes\n")
        with _harvest_env(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(_sweep_argv(command, root, work, url, out))
        assert code in (0, 1, 2, 64), err.getvalue()
        assert not list(work.glob(".*.tmp"))
        if code in (1, 64):
            assert out.read_bytes() == b"previous bytes\n"
            assert not Path(f"{out}.meta.json").exists()
        if code == 1 and command in _LINE_NAMED:
            assert re.match(r"error: .*\.jsonl:\d+: ", err.getvalue()), err.getvalue()
        if name.startswith("cache/"):
            assert code == 0, err.getvalue()
    finally:
        shutil.rmtree(work)
