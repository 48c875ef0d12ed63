"""stepladder benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout and drives the program from its source
under src/.  A run generates the workload's inputs from --seed (set-up),
runs the workload's CLI commands as child processes in passes until
--seconds of command time and the workload's minimum number of commands
are reached, then replays every command through the library in-process
and checks the outputs.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
replay records spans and the metrics are per layer.  The full record of
a run (stamp, input descriptors, spans) is written to
.bench_out/<workload>-seed<n>-trace<t>.json.  --workload all runs each
workload in its own process and prints a summary table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ROOT, SRC, Checks, Launcher, Tracer, file_digest, import_ms, median, percentile, slope,
)

OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("pipeline-1e5", "task-skew", "harvest-mock", "small-batch")

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# name: (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "corpus.read_s": ("s", "records_per_s, peak_rss_mb on pipeline-1e5"),
    "corpus.write_s": ("s", "records_per_s, peak_rss_mb on pipeline-1e5"),
    "corpus.bytes_out": ("bytes", "records_per_s, peak_rss_mb on pipeline-1e5"),
    "corpus.sha256_s": ("s", "records_per_s on pipeline-1e5"),
    "segmenter.busy_s": ("s", "records_per_s on pipeline-1e5; none on task-skew"),
    "segmenter.per_trace_us": ("us", "records_per_s on pipeline-1e5; none on task-skew"),
    "segmenter.slope": ("exponent", "records_per_s on pipeline-1e5; none on task-skew"),
    "scorer.busy_s": ("s", "records_per_s, peak_rss_mb on pipeline-1e5"),
    "scorer.slope": ("exponent", "records_per_s, peak_rss_mb on pipeline-1e5"),
    "bucketer.busy_s": ("s", "records_per_s on task-skew; none on pipeline-1e5"),
    "bucketer.evicted": ("count", "records_per_s on task-skew"),
    "bucketer.retained_ratio": ("ratio", "records_per_s on task-skew"),
    "bucketer.slope": ("exponent", "records_per_s on task-skew; none on pipeline-1e5"),
    "scheduler.busy_s": ("s", "records_per_s on pipeline-1e5 (small share)"),
    "scheduler.baseline_s": ("s", "records_per_s on pipeline-1e5 (small share)"),
    "analyzer.confound_s": ("s", "records_per_s on pipeline-1e5 (small share)"),
    "analyzer.kendall_s": ("s", "cmd_p50_ms on small-batch (agreement runs only there)"),
    "analyzer.agreement_s": ("s", "cmd_p50_ms on small-batch (agreement runs only there)"),
    "harvester.busy_s": ("s", "cmd_p90_ms (cold) and cmd_p50_ms (warm) on harvest-mock"),
    "harvester.requests": ("count", "cmd_p90_ms (cold) on harvest-mock"),
    "harvester.cache_hits": ("count", "cmd_p50_ms (warm) on harvest-mock"),
    "harvester.retries": ("count", "cmd_p90_ms (cold) on harvest-mock"),
    "harvester.useful_ratio": ("ratio", "cmd_p90_ms (cold) on harvest-mock"),
    "cli.import_ms": ("ms", "cmd_p50_ms on small-batch"),
    "cli.overhead_s": ("s", "cmd_p50_ms on small-batch"),
}


def stamp(seed: int, sizes: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stepladder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": seed, "input_sizes": sizes}


def replay(ck: Checks, stages, tr: Tracer, d: Path):
    """Run every stage's library replay into d; None if one raised."""
    d.mkdir(parents=True)
    res = {}
    start = time.perf_counter()
    for st in stages:
        try:
            with tr.span(f"stage.{st.name}"):
                res[st.name] = st.replay(tr, d)
        except Exception as exc:  # a library error is a failed check, not a crash
            ck.expect(False, f"replay of {st.name} raised {exc!r}")
            return None, time.perf_counter() - start
    return res, time.perf_counter() - start


def verify(ck: Checks, stages, res: dict, cli: Path, d: Path) -> None:
    """CLI outputs equal the replay's byte for byte; sidecars hash the same inputs."""
    for st in stages:
        for out in st.outputs:
            ck.same_files(cli / out, d / out, st.name)
        try:
            meta = json.loads((cli / (st.outputs[0] + ".meta.json")).read_text(encoding="utf-8"))
            hashed = sorted(meta["inputs"].values())
        except (OSError, ValueError, KeyError, AttributeError):
            hashed = None
        ck.expect(hashed == sorted(res[st.name]["digests"]),
                  f"{st.name}: sidecar input digests differ from the replay's")


def layer_metrics(tr: Tracer, small: Tracer, n_small: int, n: int, cmds, stages,
                  imports_ms: float) -> dict:
    def sl(name):
        return slope(n_small, small.total(name), n, tr.total(name))

    traces = tr.count("traces")
    kept, evicted = tr.count("retained"), tr.count("evicted")
    retry_requests = tr.count("retry_requests")
    overheads = [median([c.wall_s for c in cmds if c.stage == st.name])
                 - tr.total(f"stage.{st.name}") for st in stages]
    return {
        "corpus.read_s": tr.total("corpus.read"),
        "corpus.write_s": tr.total("corpus.write"),
        "corpus.bytes_out": tr.count("bytes_out"),
        "corpus.sha256_s": tr.total("corpus.sha256"),
        "segmenter.busy_s": tr.total("segmenter"),
        "segmenter.per_trace_us": tr.total("segmenter") / traces * 1e6 if traces else 0.0,
        "segmenter.slope": sl("segmenter"),
        "scorer.busy_s": tr.total("scorer"),
        "scorer.slope": sl("scorer"),
        "bucketer.busy_s": tr.total("bucketer"),
        "bucketer.evicted": evicted,
        "bucketer.retained_ratio": kept / (kept + evicted) if kept + evicted else 0.0,
        "bucketer.slope": sl("bucketer"),
        "scheduler.busy_s": tr.total("scheduler"),
        "scheduler.baseline_s": tr.total("scheduler.baseline"),
        "analyzer.confound_s": tr.total("analyzer.confound"),
        "analyzer.kendall_s": tr.total("analyzer.kendall"),
        "analyzer.agreement_s": tr.total("analyzer.agreement"),
        "harvester.busy_s": tr.total("harvester"),
        "harvester.requests": tr.count("requests"),
        "harvester.cache_hits": tr.count("cache_hits"),
        "harvester.retries": tr.count("retries"),
        "harvester.useful_ratio": tr.count("retry_traces") / retry_requests
        if retry_requests else 0.0,
        "cli.import_ms": imports_ms,
        "cli.overhead_s": sum(overheads) / len(overheads),
    }


def file_bytes(*dirs: Path) -> dict:
    return {p.name: p.stat().st_size for d in dirs for p in sorted(d.iterdir())
            if p.is_file() and not p.name.startswith(".") and not p.name.endswith(".meta.json")}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    w = WORKLOADS[name]()
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inp, cli = work / "in", work / "cli"
    n_small, n = w.sizes()
    ck = Checks()
    report: dict = {"workload": name, "trace": int(trace), "seconds": seconds}
    launcher = Launcher()
    w.start()
    try:
        setup_times = []
        for _ in range(w.setup_repeats):
            shutil.rmtree(inp, ignore_errors=True)
            inp.mkdir(parents=True)
            start = time.perf_counter()
            w.setup(inp, n, seed)
            setup_times.append(time.perf_counter() - start)
        cli.mkdir()
        stages = w.stages(inp, n, seed, cli)

        cmds, passes, first = [], 0, None
        while passes == 0 or sum(c.wall_s for c in cmds) < seconds or len(cmds) < w.min_cmds:
            for st in stages:
                if st.before is not None:
                    st.before(cli)
                cmds.append(launcher.run(st.name, st.argv, cli))
            passes += 1
            outputs = {o: file_digest(cli / o) for st in stages for o in st.outputs
                       if (cli / o).is_file()}
            first = first or outputs
            ck.expect(outputs == first, f"pass {passes} outputs differ from pass 1")

        failed_cmds = [c for c in cmds if c.code != 0]
        units = sum(st.units for st in stages) * passes
        harvest_failures = sum(_harvest_failures(c.stderr) for c in cmds)

        checked = stages if trace else [st for st in stages if st.checked_untraced]
        res, plain_s = replay(ck, checked, Tracer("check", enabled=False), work / "ref")
        if res is not None:
            verify(ck, checked, res, cli, work / "ref")
            w.check(ck, n, res, cmds, cli)
            report["descriptors"] = w.describe(n, res, cmds)
        shutil.rmtree(work / "ref")

        if trace:
            tr = Tracer("main")
            res, traced_s = replay(ck, stages, tr, work / "traced")
            if res is not None:
                verify(ck, stages, res, cli, work / "traced")
                w.probe(tr, work, inp, res)
            small_inp = work / "in-small"
            small_inp.mkdir()
            w.setup(small_inp, n_small, seed)
            small = Tracer("small")
            res, _ = replay(ck, w.stages(small_inp, n_small, seed, cli), small, work / "small")
            if res is not None:
                w.probe(small, work, small_inp, res)
            imports = median([import_ms() for _ in range(5)])
            values = layer_metrics(tr, small, n_small, n, cmds, stages, imports)
            metrics = {k: {"value": values[k], "unit": unit, "moves": moves}
                       for k, (unit, moves) in PER_LAYER.items()}
            report.setdefault("descriptors", {})["trace_overhead_s"] = traced_s - plain_s
            report["spans"] = tr.dump() + small.dump()
        else:
            walls = [c.wall_s for c in cmds]
            values = {
                "setup_s": median(setup_times),
                "records_per_s": w.records(n) * passes / sum(walls),
                "cmd_p50_ms": median(walls) * 1e3,
                "cmd_p90_ms": percentile(walls, 90) * 1e3,
                "peak_rss_mb": max(c.rss_mb for c in cmds),
            }
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

        descriptors = report.setdefault("descriptors", {})
        descriptors.update({
            "passes": passes,
            "cmd_samples": len(cmds),
            "setup_runs": setup_times,
            "stage_p50_ms": {st.name: median([c.wall_s for c in cmds if c.stage == st.name]) * 1e3
                             for st in stages},
            "stage_peak_rss_mb": {st.name: max(c.rss_mb for c in cmds if c.stage == st.name)
                                  for st in stages},
            "file_bytes": file_bytes(inp, cli),
            "cmd_samples_ms": [[c.stage, c.wall_s * 1e3] for c in cmds],
        })
        sizes = descriptors["file_bytes"]
        if "traces.jsonl" in sizes and "completions.jsonl" in sizes:
            descriptors["traces_to_completions_bytes"] = (sizes["traces.jsonl"]
                                                          / sizes["completions.jsonl"])
    finally:
        launcher.close()
        w.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(cmds) + units + ck.attempted
    failed = len(failed_cmds) + harvest_failures + len(ck.failures)
    report.update({
        "stamp": stamp(seed, {"main": n, **({"small": n_small} if trace else {})}),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": ck.failures + [f"{c.stage} exited {c.code}: {c.stderr.strip()[-300:]}"
                                   for c in failed_cmds],
        "metrics": metrics,
    })
    return report


def _harvest_failures(stderr: str) -> int:
    for line in stderr.splitlines():
        if line.endswith("harvest failure(s) recorded"):
            return int(line.split()[0])
    return 0


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['stamp']['seed']}, "
          f"trace {report['trace']}, {report['descriptors']['cmd_samples']} commands "
          f"in {report['descriptors']['passes']} passes)")
    for key, m in report["metrics"].items():
        moves = f"  -> {m['moves']}" if "moves" in m else ""
        print(f"  {key:<26} {m['value']:>14.6g} {m['unit']:<9}{moves}")
    print(f"  {'failed_share':<26} {report['failed_share']:>14.6g} ratio"
          f"     ({report['failed']} of {report['attempted']} operations)")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    shown = {k: v for k, v in report["descriptors"].items() if k != "cmd_samples_ms"}
    print("  descriptors: " + json.dumps(shown, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    rows, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows[name] = result["metrics"]
    names = list(next(iter(rows.values())))
    print(f"\n{'metric':<26}" + "".join(f"{w:>16}" for w in rows) + "  unit")
    for key in names:
        unit = rows[WORKLOAD_NAMES[0]][key]["unit"]
        print(f"{key:<26}" + "".join(f"{rows[w][key]['value']:>16.6g}" for w in rows)
              + f"  {unit}")
    print(f"{'failed_share':<26}{failed / attempted:>16.6g}  (all workloads)")
    summary = {"correct": ok, "attempted": attempted, "failed": failed,
               "metrics": {f"{w}/{k}": v for w, m in rows.items() for k, v in m.items()}}
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stepladder benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "stepladder"
    if not (package / "cli.py").is_file():
        print(f"error: no stepladder source at {package}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stepladder

    if Path(stepladder.__file__).resolve().parent != package.resolve():
        print(f"error: imported stepladder from {stepladder.__file__}, not {package}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print_report(report)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in report["metrics"].items()}}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
