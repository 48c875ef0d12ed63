"""Command-line pipeline driver.

Subcommands mirror the library stages: harvest, segment, score, bucket,
schedule, baseline, analyze, filter.  A flat "key = value" config file
can preset any pipeline knob; explicit flags always win.  Every written
output gets a <name>.meta.json sidecar recording the effective
parameters and the sha256 of each input, and nothing in any output
depends on wall-clock time, so reruns are byte-identical.

Exit codes: 0 success, 1 validation or data error, 2 completed with
recorded per-record failures, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import (
    BASELINE_KINDS,
    COMPLETION,
    TRACE,
    SchedulePlan,
    TeacherProfile,
    file_sha256,
    read_corpus,
    read_json,
    read_scores,
    write_atomic,
    write_manifest,
    write_scores,
    write_traces,
)
from .errors import ParameterError, StepladderError

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_PARTIAL = 2
_EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the partial
    # failure code; route usage problems to 64 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A missing argument noticed after parsing (config may supply them)."""


def _required(args, dest: str):
    value = getattr(args, dest)
    if value is None:
        flag = "--" + dest.replace("_", "-")
        raise _UsageError(f"{flag} is required (flag or config file)")
    return value


def _parse_edges(text: str):
    """Parse "1-3,4-6,7+" into BucketSpec edge tuples."""
    if not isinstance(text, str):
        return text
    edges = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece.endswith("+") and piece[:-1].isdigit():
            edges.append((int(piece[:-1]), None))
        elif "-" in piece:
            lo, _, hi = piece.partition("-")
            if not (lo.isdigit() and hi.isdigit()):
                raise argparse.ArgumentTypeError(f"bad bucket range {piece!r}")
            edges.append((int(lo), int(hi)))
        else:
            raise argparse.ArgumentTypeError(f"bad bucket range {piece!r}")
    return tuple(edges)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


# Config keys accepted in "key = value" files, with their coercions.
_CONFIG_COERCERS = {
    "seed": int,
    "phases": int,
    "budget_per_phase": int,
    "samples": int,
    "max_retries": int,
    "max_in_flight": int,
    "min_k": int,
    "max_k": int,
    "min_step_chars": int,
    "max_marker_value": int,
    "audit_seed": int,
    "alpha": float,
    "max_task_share": float,
    "rate_limit": float,
    "temperature": float,
    "timeout": float,
    "audit_fraction": float,
    "min_spearman": float,
    "min_tau": float,
    "with_replacement": _parse_bool,
    "mode": str,
    "mixing": str,
    "kind": str,
    "edges": _parse_edges,
    "label_field": str,
    "teacher": str,
    "api_key_env": str,
    "cache_dir": str,
    "endpoint": str,
    "model": str,
    "teacher_id": str,
}


def _read_config(path: Path) -> dict:
    """Flat config: one "key = value" per line, '#' starts a comment."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _CONFIG_COERCERS:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_COERCERS[key](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from exc
    return values


def _resolve(args, path):
    if path is None:
        return None
    p = Path(path)
    return p if p.is_absolute() else Path(args.workdir) / p


def _write_json(path: Path, obj: dict) -> None:
    write_atomic(path, [json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True), "\n"])


def _write_sidecar(out_path: Path, command: str, params: dict, inputs: list) -> None:
    _write_json(Path(str(out_path) + ".meta.json"), {
        "tool": f"stepladder {__version__}",
        "command": command,
        "parameters": params,
        "inputs": {str(p): file_sha256(p) for p in inputs},
    })


def _report_failures(failures, what: str) -> None:
    for item in failures:
        print(f"{what} failure: {' / '.join(str(f) for f in item)}", file=sys.stderr)
    print(f"{len(failures)} {what} failure(s) recorded", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand runners
#
# Each runner imports its own stage modules, so a command loads only the
# stages it runs.


def _run_harvest(args) -> int:
    from .harvester import DEFAULT_TEMPLATE, TEMPLATE, HarvestJob, harvest

    endpoint = _required(args, "endpoint")
    model = _required(args, "model")
    teacher_id = _required(args, "teacher_id")
    corpus_path = _resolve(args, args.corpus)
    out = _resolve(args, args.out)
    examples = read_corpus(corpus_path)
    template_path = _resolve(args, args.template_file)
    template = DEFAULT_TEMPLATE if template_path is None else read_json(template_path, TEMPLATE)
    teacher = TeacherProfile(
        teacher_id=teacher_id,
        endpoint_url=endpoint,
        model_name=model,
        template_id=template.template_id,
        samples_per_example=args.samples,
        temperature=args.temperature,
    )
    job = HarvestJob(
        teacher=teacher,
        cache_dir=str(_resolve(args, args.cache_dir)),
        rate_limit=args.rate_limit,
        template=template,
        max_retries=args.max_retries,
        timeout=args.timeout,
        max_in_flight=args.max_in_flight,
        api_key_env=args.api_key_env,
    )
    result = harvest(examples, job)
    write_traces(result.traces, out)
    params = {
        "endpoint": endpoint,
        "model": model,
        "teacher_id": teacher_id,
        "template_id": template.template_id,
        "samples": args.samples,
        "temperature": args.temperature,
        "rate_limit": args.rate_limit,
        "max_retries": args.max_retries,
        "max_in_flight": args.max_in_flight,
    }
    _write_sidecar(out, "harvest", params, [corpus_path])
    print(f"harvested {len(result.traces)} trace(s), "
          f"{result.cache_hits} from cache, {result.requests_sent} request(s) sent")
    if result.failures:
        _report_failures(
            [(f.example_id, f.sample_index, f.reason) for f in result.failures],
            "harvest",
        )
        return _EXIT_PARTIAL
    return _EXIT_OK


def _run_segment(args) -> int:
    from .segmenter import SegmentationRules, audit_sample, trace_from_text

    completions_path = _resolve(args, args.completions)
    out = _resolve(args, args.out)
    rules = SegmentationRules(
        min_step_chars=args.min_step_chars,
        max_marker_value=args.max_marker_value,
        allow_paragraph_fallback=not args.no_paragraph_fallback,
    )
    # Completions stream through to the output one at a time; the traces
    # themselves are kept only when an audit sample is drawn from them.
    audit = [] if args.audit_fraction is not None else None
    failures = []
    written = low = 0

    def lines():
        nonlocal written, low
        for rec in COMPLETION.iter(completions_path):
            try:
                trace = trace_from_text(
                    rec["example_id"], rec["teacher_id"], rec["text"], rules)
            except StepladderError as exc:
                failures.append((rec["example_id"], rec["teacher_id"], str(exc)))
                continue
            written += 1
            low += trace.confidence == "low"
            if audit is not None:
                audit.append(trace)
            yield TRACE.dump(trace)

    write_atomic(out, lines())
    params = {
        "min_step_chars": args.min_step_chars,
        "max_marker_value": args.max_marker_value,
        "allow_paragraph_fallback": not args.no_paragraph_fallback,
    }
    _write_sidecar(out, "segment", params, [completions_path])

    print(f"segmented {written} trace(s), {low} low-confidence")
    if audit is not None:
        if args.audit_out is None:
            raise ParameterError("--audit-fraction needs --audit-out")
        audit_out = _resolve(args, args.audit_out)
        picked = audit_sample(audit, args.audit_fraction, args.audit_seed)
        write_traces(picked, audit_out)
        audit_params = dict(params)
        audit_params.update({
            "audit_fraction": args.audit_fraction,
            "audit_seed": args.audit_seed,
        })
        _write_sidecar(audit_out, "segment", audit_params, [completions_path])
        print(f"audit sample: {len(picked)} trace(s)")
    if failures:
        _report_failures(failures, "segmentation")
        return _EXIT_PARTIAL
    return _EXIT_OK


def _run_score(args) -> int:
    from .scorer import score_corpus

    traces_path = _resolve(args, args.traces)
    out = _resolve(args, args.out)
    scores, errors = score_corpus(TRACE.iter(traces_path))
    write_scores(scores, out)
    _write_sidecar(out, "score", {}, [traces_path])
    print(f"scored {len(scores)} (example, teacher) pair(s)")
    if errors:
        _report_failures(errors, "scoring")
        return _EXIT_PARTIAL
    return _EXIT_OK


def _run_bucket(args) -> int:
    from .bucketer import BucketSpec, bucketize, describe, write_buckets

    scores_path = _resolve(args, args.scores)
    corpus_path = _resolve(args, args.corpus)
    out = _resolve(args, args.out)
    scores = read_scores(scores_path)
    if args.teacher is not None:
        scores = [s for s in scores if s.teacher_id == args.teacher]
        if not scores:
            raise ParameterError(f"no scores for teacher {args.teacher!r}")
    examples = read_corpus(corpus_path)
    tasks = {ex.id: ex.task for ex in examples}
    spec = BucketSpec(edges=args.edges, max_task_share=args.max_task_share)
    result = bucketize(scores, spec, tasks)
    write_buckets(result, out)
    params = {
        "edges": [list(e) for e in spec.edges],
        "max_task_share": args.max_task_share,
        "teacher": args.teacher,
    }
    _write_sidecar(out, "bucket", params, [scores_path, corpus_path])
    report = describe(result)
    text = report.render()
    print(text)
    if args.report is not None:
        report_path = _resolve(args, args.report)
        write_atomic(report_path, [text, "\n"])
        _write_sidecar(report_path, "bucket", params, [scores_path, corpus_path])
    return _EXIT_OK


def _run_schedule(args) -> int:
    from .bucketer import read_buckets
    from .scheduler import build_curriculum

    phases = _required(args, "phases")
    budget = _required(args, "budget_per_phase")
    buckets_path = _resolve(args, args.buckets)
    out = _resolve(args, args.out)
    result = read_buckets(buckets_path)
    plan = SchedulePlan(
        mode=args.mode,
        phases=phases,
        budget_per_phase=budget,
        seed=args.seed,
        alpha=args.alpha,
        with_replacement=args.with_replacement,
        mixing=args.mixing,
    )
    provenance = {
        "buckets_sha256": file_sha256(buckets_path),
        "tool_version": __version__,
    }
    manifest = build_curriculum(result, plan, provenance=provenance)
    write_manifest(manifest, out)
    params = {
        "mode": plan.mode,
        "alpha": plan.alpha,
        "phases": plan.phases,
        "budget_per_phase": plan.budget_per_phase,
        "seed": plan.seed,
        "with_replacement": plan.with_replacement,
        "mixing": plan.mixing,
    }
    _write_sidecar(out, "schedule", params, [buckets_path])
    sizes = ", ".join(str(len(p.example_ids)) for p in manifest.phases)
    print(f"wrote {len(manifest.phases)} phase(s) with sizes [{sizes}]")
    return _EXIT_OK


def _run_baseline(args) -> int:
    from .scheduler import baseline_order

    kind = _required(args, "kind")
    phases = _required(args, "phases")
    budget = _required(args, "budget_per_phase")
    corpus_path = _resolve(args, args.corpus)
    out = _resolve(args, args.out)
    examples = read_corpus(corpus_path)
    inputs = [corpus_path]
    scores = None
    if args.scores is not None:
        scores_path = _resolve(args, args.scores)
        scores = read_scores(scores_path)
        inputs.append(scores_path)
    plan = SchedulePlan(
        mode="staged",
        phases=phases,
        budget_per_phase=budget,
        seed=args.seed,
    )
    manifest = baseline_order(examples, scores, kind, plan)
    write_manifest(manifest, out)
    params = {
        "kind": kind,
        "phases": plan.phases,
        "budget_per_phase": plan.budget_per_phase,
        "seed": plan.seed,
    }
    _write_sidecar(out, "baseline", params, inputs)
    print(f"wrote {kind} baseline with {len(manifest.phases)} phase(s)")
    return _EXIT_OK


def _load_scores_by_teacher(args) -> dict:
    by_teacher: dict = {}
    for path in args.scores:
        for sc in read_scores(_resolve(args, path)):
            by_teacher.setdefault(sc.teacher_id, []).append(sc)
    return by_teacher


def _run_agreement(args) -> int:
    from .analyzer import cross_teacher_agreement

    report = cross_teacher_agreement(_load_scores_by_teacher(args))
    print(report.render())
    if args.out is not None:
        out = _resolve(args, args.out)
        _write_json(out, report.to_json())
        _write_sidecar(out, "analyze agreement", {"min_tau": args.min_tau},
                       [_resolve(args, p) for p in args.scores])
    if args.min_tau is not None:
        weak = [p for p in report.pairs if p.tau_depth < args.min_tau]
        if weak:
            for p in weak:
                print(f"tau(k) {p.tau_depth:.4f} below threshold {args.min_tau} "
                      f"for ({p.teacher_a}, {p.teacher_b})", file=sys.stderr)
            return _EXIT_ERROR
    return _EXIT_OK


def _run_confound(args) -> int:
    from .analyzer import length_confound

    scores_path = _resolve(args, args.scores)
    corpus_path = _resolve(args, args.labels_from)
    scores = read_scores(scores_path)
    if args.teacher is not None:
        scores = [s for s in scores if s.teacher_id == args.teacher]
        if not scores:
            raise ParameterError(f"no scores for teacher {args.teacher!r}")
    examples = read_corpus(corpus_path)
    labels = {}
    for ex in examples:
        value = getattr(ex, args.label_field)
        if value is not None:
            labels[ex.id] = float(value)
    report = length_confound(scores, labels)
    print(report.render())
    if args.out is not None:
        out = _resolve(args, args.out)
        _write_json(out, report.to_json())
        _write_sidecar(out, "analyze confound",
                       {"label_field": args.label_field, "teacher": args.teacher,
                        "min_spearman": args.min_spearman},
                       [scores_path, corpus_path])
    if args.min_spearman is not None and report.rho_depth < args.min_spearman:
        print(f"spearman {report.rho_depth:.4f} below threshold {args.min_spearman}",
              file=sys.stderr)
        return _EXIT_ERROR
    return _EXIT_OK


def _run_filter(args) -> int:
    from .scheduler import filter_by_depth

    scores_path = _resolve(args, args.scores)
    out = _resolve(args, args.out)
    scores = read_scores(scores_path)
    ids = filter_by_depth(scores, min_k=args.min_k, max_k=args.max_k)
    write_atomic(out, (ex_id + "\n" for ex_id in ids))
    _write_sidecar(out, "filter", {"min_k": args.min_k, "max_k": args.max_k},
                   [scores_path])
    print(f"kept {len(ids)} example(s)")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> tuple[_Parser, list]:
    """The parser plus every leaf subparser (config defaults go on the leaves:
    subparsers parse into a fresh namespace, so top-level defaults get lost)."""
    parser = _Parser(prog="stepladder",
                     description="depth-of-thought scoring and curriculum building")
    parser.add_argument("--version", action="version",
                        version=f"stepladder {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat 'key = value' config file")
    common.add_argument("--workdir", default=".",
                        help="base directory for relative paths")
    leaves = []

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("harvest", parents=[common],
                       help="collect traces from a chat endpoint")
    leaves.append(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--teacher-id")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--temperature", type=float, default=0.7)
    p.add_argument("--template-file")
    p.add_argument("--cache-dir", default="harvest-cache")
    p.add_argument("--rate-limit", type=float, default=4.0,
                   help="requests per second")
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--max-in-flight", type=int, default=4)
    p.add_argument("--api-key-env", default="OPENAI_API_KEY")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_harvest)

    p = sub.add_parser("segment", parents=[common],
                       help="split raw completions into step traces")
    leaves.append(p)
    p.add_argument("--completions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-step-chars", type=int, default=3)
    p.add_argument("--max-marker-value", type=int, default=999)
    p.add_argument("--no-paragraph-fallback", action="store_true")
    p.add_argument("--audit-fraction", type=float)
    p.add_argument("--audit-seed", type=int, default=0)
    p.add_argument("--audit-out")
    p.set_defaults(func=_run_segment)

    p = sub.add_parser("score", parents=[common],
                       help="compute depth scores from traces")
    leaves.append(p)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_score)

    p = sub.add_parser("bucket", parents=[common],
                       help="group scores into depth buckets")
    leaves.append(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--teacher")
    p.add_argument("--edges", type=_parse_edges, default="1-3,4-6,7+")
    p.add_argument("--max-task-share", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_run_bucket)

    p = sub.add_parser("schedule", parents=[common],
                       help="build a curriculum manifest from buckets")
    leaves.append(p)
    p.add_argument("--buckets", required=True)
    p.add_argument("--mode", choices=("staged", "mixed"), default="staged")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--phases", type=int)
    p.add_argument("--budget", dest="budget_per_phase", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-replacement", action="store_true")
    p.add_argument("--mixing", choices=("union", "adjacent"), default="union")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_schedule)

    p = sub.add_parser("baseline", parents=[common],
                       help="build a matched-budget baseline ordering")
    leaves.append(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=BASELINE_KINDS)
    p.add_argument("--scores")
    p.add_argument("--phases", type=int)
    p.add_argument("--budget", dest="budget_per_phase", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_baseline)

    p = sub.add_parser("analyze", help="statistical validation reports")
    asub = p.add_subparsers(dest="analysis", required=True, parser_class=_Parser)

    a = asub.add_parser("agreement", parents=[common],
                        help="cross-teacher rank agreement")
    leaves.append(a)
    a.add_argument("--scores", action="append", required=True,
                   help="scores file; repeat for more teachers")
    a.add_argument("--min-tau", type=float)
    a.add_argument("--out")
    a.set_defaults(func=_run_agreement)

    a = asub.add_parser("confound", parents=[common],
                        help="depth vs difficulty with token length controlled")
    leaves.append(a)
    a.add_argument("--scores", required=True)
    a.add_argument("--labels-from", required=True,
                   help="corpus file carrying the difficulty labels")
    a.add_argument("--label-field",
                   choices=("external_difficulty", "judge_score"),
                   default="external_difficulty")
    a.add_argument("--teacher")
    a.add_argument("--min-spearman", type=float)
    a.add_argument("--out")
    a.set_defaults(func=_run_confound)

    p = sub.add_parser("filter", parents=[common],
                       help="select example ids by depth range")
    leaves.append(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--min-k", type=int)
    p.add_argument("--max-k", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_filter)

    return parser, leaves


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("--workdir", default=".")
    pre_args, _rest = pre.parse_known_args(argv)

    parser, leaves = _build_parser()
    try:
        if pre_args.config is not None:
            config_path = Path(pre_args.workdir) / pre_args.config \
                if not Path(pre_args.config).is_absolute() else Path(pre_args.config)
            config = _read_config(config_path)
            for leaf in leaves:
                leaf.set_defaults(**config)
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except StepladderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
