"""Command-line pipeline driver.

Subcommands mirror the library stages: harvest, segment, score, bucket,
schedule, baseline, analyze, filter.  Each subcommand declares its
options once, as rows of COMMANDS; the parser, the config-file keys,
path resolution, the required-setting checks and the sidecars are all
derived from those rows.  A flat "key = value" config file can preset
any knob; explicit flags always win.  Once a command has run (exit 0 or
2), each output file given gets a <name>.meta.json sidecar recording
every knob's value and the sha256 of each input, and nothing in any
output depends on wall-clock time, so reruns are byte-identical.

Exit codes: 0 success, 1 validation or data error or a failed gate
(no sidecar is written), 2 completed with recorded per-record failures,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from . import __version__
from .corpus import (
    BASELINE_KINDS,
    COMPLETION,
    SCORE,
    TRACE,
    SchedulePlan,
    TeacherProfile,
    file_sha256,
    is_text,
    read_corpus,
    read_json,
    read_jsonl,
    read_scores,
    write_atomic,
    write_manifest,
    write_scores,
    write_traces,
)
from .errors import CorpusError, ParameterError, StepladderError

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


def _parse_edges(text: str):
    """Parse "1-3,4-6,7+" into BucketSpec edge tuples."""
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


# What an option names: a file the command reads (resolved against
# --workdir, its sha256 recorded in the sidecar), a file it writes
# (resolved against --workdir), or a setting (a config-file key, its
# value recorded in the sidecar).
INPUT, OUTPUT, KNOB = "input", "output", "knob"


class Option(NamedTuple):
    """One subcommand option.

    type parses the flag's text; a tuple instead lists the allowed values,
    bool makes an on/off switch and list a flag that may be repeated.
    required: a value must be given, by the flag or, for a knob, by the
    config file.
    """

    flag: str
    kind: str
    type: object = str
    default: object = None
    required: bool = False
    dest: Optional[str] = None
    help: Optional[str] = None

    @property
    def key(self) -> str:
        """The argparse dest, which is also the config-file key."""
        return self.dest or self.flag[2:].replace("-", "_")


def _knobs(args) -> dict:
    """The command's knobs by dest, with their parsed values."""
    return {opt.key: getattr(args, opt.key)
            for opt in COMMANDS[args.subcommand][2] if opt.kind == KNOB}


def _given(args, opt: Option) -> list:
    """The option's values on args: none, one, or each of a repeated flag."""
    value = getattr(args, opt.key)
    return [] if value is None else value if opt.type is list else [value]


def _files(args, kind: str) -> list:
    """The paths given to the command's options of one kind, INPUT or OUTPUT."""
    return [path for opt in COMMANDS[args.subcommand][2] if opt.kind == kind
            for path in _given(args, opt)]


def _config_value(opt: Option, text: str):
    """text parsed as the option's flag parses it; a switch takes yes or no."""
    if opt.type is bool:
        return _parse_bool(text)
    if type(opt.type) is tuple:
        if text not in opt.type:
            raise argparse.ArgumentTypeError(
                f"{opt.key}: invalid choice {text!r} (choose from "
                f"{', '.join(map(repr, opt.type))})")
        return text
    return opt.type(text)


def _read_config(path: Path) -> dict:
    """Flat config: one "key = value" per line, '#' starts a comment.

    The keys are the knobs of every subcommand, by dest.
    """
    knobs = {opt.key: opt for _help, _run, options in COMMANDS.values()
             for opt in options if opt.kind == KNOB}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not UTF-8 ({exc.reason})") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in knobs:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _config_value(knobs[key], value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from exc
    return values


def _check_and_rebase(args) -> None:
    """Check the required settings; rebase input and output paths on --workdir."""
    for opt in COMMANDS[args.subcommand][2]:
        if getattr(args, opt.key) is None:
            if opt.required:
                raise _UsageError(f"{opt.flag} is required (flag or config file)")
        elif opt.kind != KNOB:
            paths = [Path(args.workdir, p) for p in _given(args, opt)]
            setattr(args, opt.key, paths if opt.type is list else paths[0])


def _write_json(path: Path, obj: dict) -> None:
    write_atomic(path, [json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True), "\n"])


def _write_sidecar(out: Path, args) -> None:
    """<out>.meta.json: every knob's parsed value, defaults included, and the
    sha256 of every input file given."""
    _write_json(Path(f"{out}.meta.json"), {
        "tool": f"stepladder {__version__}",
        "command": args.subcommand,
        "parameters": _knobs(args),
        "inputs": {str(p): file_sha256(p) for p in _files(args, INPUT)},
    })


def _exit_code(failures, what: str) -> int:
    """Report per-record failures on stderr; a run that had any exits 2."""
    if not failures:
        return _EXIT_OK
    for item in failures:
        print(f"{what} failure: {' / '.join(str(f) for f in item)}", file=sys.stderr)
    print(f"{len(failures)} {what} failure(s) recorded", file=sys.stderr)
    return _EXIT_PARTIAL


def _check_threshold(value, flag: str) -> None:
    """A gate's threshold must be finite: every comparison with NaN is
    false, which would pass any data."""
    if value is not None and not math.isfinite(value):
        raise ParameterError(f"{flag} must be a finite number, got {value}")


def _one_score_per_example(args) -> Optional[list]:
    """The --scores file (None when not given), narrowed to --teacher's
    scores when the command takes --teacher and one is given.  A second
    score for one example is an error naming its line."""
    if args.scores is None:
        return None
    teacher = getattr(args, "teacher", None)
    scores: dict = {}
    for where, score in read_jsonl(args.scores, SCORE):
        if teacher is not None and score.teacher_id != teacher:
            continue
        if score.example_id in scores:
            raise CorpusError(f"{where}: 'example_id': duplicate score for example "
                              f"{score.example_id!r}")
        scores[score.example_id] = score
    if teacher is not None and not scores:
        raise ParameterError(f"no scores for teacher {teacher!r}")
    return list(scores.values())


def _gate(args, report, failures: list) -> int:
    """Print the report, and each failure of its gate on stderr.  A report
    that passes is also written to --out as JSON; one that fails exits 1
    and writes nothing."""
    print(report.render())
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return _EXIT_ERROR
    if args.out is not None:
        _write_json(args.out, report.to_json())
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand runners
#
# Each runner imports its own stage modules, so a command loads only the
# stages it runs.


def _run_harvest(args) -> int:
    from .harvester import (DEFAULT_TEMPLATE, TEMPLATE, HarvestJob, HarvestResult,
                            harvest_stream)

    examples = read_corpus(args.corpus)
    template = DEFAULT_TEMPLATE if args.template_file is None \
        else read_json(args.template_file, TEMPLATE)
    teacher = TeacherProfile(
        teacher_id=args.teacher_id,
        endpoint_url=args.endpoint,
        model_name=args.model,
        template_id=template.template_id,
        samples_per_example=args.samples,
        temperature=args.temperature,
    )
    job = HarvestJob(
        teacher=teacher,
        cache_dir=str(Path(args.workdir, args.cache_dir)),
        rate_limit=args.rate_limit,
        template=template,
        max_retries=args.max_retries,
        timeout=args.timeout,
        max_in_flight=args.max_in_flight,
        api_key_env=args.api_key_env,
    )
    # Traces stream to the output as they resolve; only failures are kept.
    result = HarvestResult()
    write_atomic(args.out, map(TRACE.dump, harvest_stream(examples, job, result)))
    # Each (example, sample) unit became a trace or a failure.
    traces = len(examples) * args.samples - len(result.failures)
    print(f"harvested {traces} trace(s), "
          f"{result.cache_hits} from cache, {result.requests_sent} request(s) sent")
    return _exit_code([(f.example_id, f.sample_index, f.reason) for f in result.failures],
                      "harvest")


def _run_segment(args) -> int:
    from .segmenter import SegmentationRules, audit_sample, trace_from_text

    rules = SegmentationRules(
        min_step_chars=args.min_step_chars,
        max_marker_value=args.max_marker_value,
        allow_paragraph_fallback=not args.no_paragraph_fallback,
    )
    # Completions stream through to the output one at a time; the traces
    # themselves are kept only when an audit sample is drawn from them.
    if (args.audit_fraction is None) != (args.audit_out is None):
        raise ParameterError("--audit-fraction and --audit-out must be given together")
    audit = None
    if args.audit_fraction is not None:
        audit_sample([], args.audit_fraction, args.audit_seed)  # checks the fraction
        audit = []
    failures = []
    written = low = 0

    def lines():
        nonlocal written, low
        for rec in COMPLETION.iter(args.completions):
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

    write_atomic(args.out, lines())
    print(f"segmented {written} trace(s), {low} low-confidence")
    if audit is not None:
        picked = audit_sample(audit, args.audit_fraction, args.audit_seed)
        write_traces(picked, args.audit_out)
        print(f"audit sample: {len(picked)} trace(s)")
    return _exit_code(failures, "segmentation")


def _run_score(args) -> int:
    from .scorer import score_corpus

    scores, errors = score_corpus(TRACE.iter(args.traces))
    write_scores(scores, args.out)
    print(f"scored {len(scores)} (example, teacher) pair(s)")
    return _exit_code(errors, "scoring")


def _run_bucket(args) -> int:
    from .bucketer import BucketSpec, bucketize, describe, write_buckets

    scores = _one_score_per_example(args)
    tasks = {ex.id: ex.task for ex in read_corpus(args.corpus)}
    spec = BucketSpec(edges=args.edges, max_task_share=args.max_task_share)
    result = bucketize(scores, spec, tasks)
    write_buckets(result, args.out)
    text = describe(result).render()
    print(text)
    if args.report is not None:
        write_atomic(args.report, [text, "\n"])
    return _EXIT_OK


def _run_schedule(args) -> int:
    from .bucketer import read_buckets
    from .scheduler import build_curriculum

    result = read_buckets(args.buckets)
    plan = SchedulePlan(**_knobs(args))  # schedule's knobs are the plan's fields
    provenance = {
        "buckets_sha256": file_sha256(args.buckets),
        "tool_version": __version__,
    }
    manifest = build_curriculum(result, plan, provenance=provenance)
    write_manifest(manifest, args.out)
    sizes = ", ".join(str(len(p.example_ids)) for p in manifest.phases)
    print(f"wrote {len(manifest.phases)} phase(s) with sizes [{sizes}]")
    return _EXIT_OK


def _run_baseline(args) -> int:
    from .scheduler import baseline_order

    examples = read_corpus(args.corpus)
    plan = _knobs(args)
    del plan["kind"]  # the other knobs are the plan's fields
    manifest = baseline_order(examples, _one_score_per_example(args), args.kind,
                              SchedulePlan(mode="staged", **plan))
    write_manifest(manifest, args.out)
    print(f"wrote {args.kind} baseline with {len(manifest.phases)} phase(s)")
    return _EXIT_OK


def _run_agreement(args) -> int:
    from .analyzer import cross_teacher_agreement

    _check_threshold(args.min_tau, "--min-tau")
    by_teacher: dict = {}
    for path in args.scores:
        for sc in read_scores(path):
            by_teacher.setdefault(sc.teacher_id, []).append(sc)
    report = cross_teacher_agreement(by_teacher)
    weak = [] if args.min_tau is None else \
        [p for p in report.pairs if p.tau_depth < args.min_tau]
    return _gate(args, report, [f"tau(k) {p.tau_depth:.4f} below threshold {args.min_tau} "
                                f"for ({p.teacher_a}, {p.teacher_b})" for p in weak])


def _run_confound(args) -> int:
    from .analyzer import length_confound

    _check_threshold(args.min_spearman, "--min-spearman")
    scores = _one_score_per_example(args)
    labels = {}
    for ex in read_corpus(args.labels_from):
        value = getattr(ex, args.label_field)
        if value is not None:
            labels[ex.id] = float(value)
    report = length_confound(scores, labels)
    below = args.min_spearman is not None and report.rho_depth < args.min_spearman
    return _gate(args, report, [f"spearman {report.rho_depth:.4f} below threshold "
                                f"{args.min_spearman}"] if below else [])


def _run_filter(args) -> int:
    from .scheduler import filter_by_depth

    ids = filter_by_depth(_one_score_per_example(args), min_k=args.min_k, max_k=args.max_k)
    write_atomic(args.out, (ex_id + "\n" for ex_id in ids))
    print(f"kept {len(ids)} example(s)")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# The option tables: subcommand -> (help, runner, options).  A name with a
# space is a leaf of a command group ("analyze agreement").

_PHASES = Option("--phases", KNOB, int, required=True)
_BUDGET = Option("--budget", KNOB, int, required=True, dest="budget_per_phase")
_SEED = Option("--seed", KNOB, int, 0)
_TEACHER = Option("--teacher", KNOB)

COMMANDS = {
    "harvest": ("collect traces from a chat endpoint", _run_harvest, (
        Option("--corpus", INPUT, required=True),
        Option("--endpoint", KNOB, required=True),
        Option("--model", KNOB, required=True),
        Option("--teacher-id", KNOB, required=True),
        Option("--samples", KNOB, int, 1),
        Option("--temperature", KNOB, float, 0.7),
        Option("--template-file", INPUT),
        Option("--cache-dir", KNOB, str, "harvest-cache"),  # resolved by the runner
        Option("--rate-limit", KNOB, float, 4.0, help="requests per second"),
        Option("--max-retries", KNOB, int, 3),
        Option("--timeout", KNOB, float, 30.0),
        Option("--max-in-flight", KNOB, int, 4),
        Option("--api-key-env", KNOB, str, "OPENAI_API_KEY"),
        Option("--out", OUTPUT, required=True),
    )),
    "segment": ("split raw completions into step traces", _run_segment, (
        Option("--completions", INPUT, required=True),
        Option("--out", OUTPUT, required=True),
        Option("--min-step-chars", KNOB, int, 3),
        Option("--max-marker-value", KNOB, int, 999),
        Option("--no-paragraph-fallback", KNOB, bool, False),
        Option("--audit-fraction", KNOB, float),
        Option("--audit-seed", KNOB, int, 0),
        Option("--audit-out", OUTPUT),
    )),
    "score": ("compute depth scores from traces", _run_score, (
        Option("--traces", INPUT, required=True),
        Option("--out", OUTPUT, required=True),
    )),
    "bucket": ("group scores into depth buckets", _run_bucket, (
        Option("--scores", INPUT, required=True),
        Option("--corpus", INPUT, required=True),
        _TEACHER,
        Option("--edges", KNOB, _parse_edges, "1-3,4-6,7+"),
        Option("--max-task-share", KNOB, float, 1.0),
        Option("--out", OUTPUT, required=True),
        Option("--report", OUTPUT),
    )),
    "schedule": ("build a curriculum manifest from buckets", _run_schedule, (
        Option("--buckets", INPUT, required=True),
        Option("--mode", KNOB, ("staged", "mixed"), "staged"),
        Option("--alpha", KNOB, float, 0.0),
        _PHASES,
        _BUDGET,
        _SEED,
        Option("--with-replacement", KNOB, bool, False),
        Option("--mixing", KNOB, ("union", "adjacent"), "union"),
        Option("--out", OUTPUT, required=True),
    )),
    "baseline": ("build a matched-budget baseline ordering", _run_baseline, (
        Option("--corpus", INPUT, required=True),
        Option("--kind", KNOB, BASELINE_KINDS, required=True),
        Option("--scores", INPUT),
        _PHASES,
        _BUDGET,
        _SEED,
        Option("--out", OUTPUT, required=True),
    )),
    "analyze agreement": ("cross-teacher rank agreement", _run_agreement, (
        Option("--scores", INPUT, list, required=True,
               help="scores file; repeat for more teachers"),
        Option("--min-tau", KNOB, float),
        Option("--out", OUTPUT),
    )),
    "analyze confound": ("depth vs difficulty with token length controlled", _run_confound, (
        Option("--scores", INPUT, required=True),
        Option("--labels-from", INPUT, required=True,
               help="corpus file carrying the difficulty labels"),
        Option("--label-field", KNOB, ("external_difficulty", "judge_score"),
               "external_difficulty"),
        _TEACHER,
        Option("--min-spearman", KNOB, float),
        Option("--out", OUTPUT),
    )),
    "filter": ("select example ids by depth range", _run_filter, (
        Option("--scores", INPUT, required=True),
        Option("--min-k", KNOB, int),
        Option("--max-k", KNOB, int),
        Option("--out", OUTPUT, required=True),
    )),
}


def _build_parser() -> tuple[_Parser, _Parser, list]:
    """The parser, the options every leaf shares (--config, --workdir), and
    every leaf subparser (config defaults go on the leaves: subparsers parse
    into a fresh namespace, so top-level defaults get lost)."""
    parser = _Parser(prog="stepladder",
                     description="depth-of-thought scoring and curriculum building")
    parser.add_argument("--version", action="version",
                        version=f"stepladder {__version__}")
    common = _Parser(add_help=False)  # also parses alone, ahead of the config file
    common.add_argument("--config", help="flat 'key = value' config file")
    common.add_argument("--workdir", default=".",
                        help="base directory for relative paths")
    groups = {"": parser.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    leaves = []
    for name, (help_text, run, options) in COMMANDS.items():
        group, _, leaf_name = name.rpartition(" ")
        if group not in groups:  # only "analyze"
            groups[group] = groups[""].add_parser(group, help="statistical validation reports") \
                .add_subparsers(dest="analysis", required=True, parser_class=_Parser)
        leaf = groups[group].add_parser(leaf_name, parents=[common], help=help_text)
        leaf.set_defaults(func=run, subcommand=name)
        for opt in options:
            how = {"action": "store_true"} if opt.type is bool else \
                {"action": "append"} if opt.type is list else \
                {"choices": opt.type} if type(opt.type) is tuple else {"type": opt.type}
            leaf.add_argument(opt.flag, dest=opt.key, default=opt.default, help=opt.help,
                              required=opt.required and opt.kind != KNOB, **how)
        leaves.append(leaf)
    return parser, common, leaves


def _check_utf8(argv: list) -> None:
    """Reject an argument holding a byte that is not UTF-8.  Python decodes
    such a byte to a lone surrogate, which no output or sidecar can hold."""
    for i, arg in enumerate(argv):
        if not is_text(arg):
            if arg.startswith("-"):
                name = arg.partition("=")[0]
            elif i and argv[i - 1].startswith("-"):
                name = argv[i - 1]
            else:
                name = ascii(arg)
            raise _UsageError(f"argument {name}: not valid UTF-8")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, common, leaves = _build_parser()
    try:
        _check_utf8(argv)
        pre_args, _rest = common.parse_known_args(argv)
        if pre_args.config is not None:
            config = _read_config(Path(pre_args.workdir, pre_args.config))
            for leaf in leaves:
                leaf.set_defaults(**config)
        args = parser.parse_args(argv)
        _check_and_rebase(args)
        code = args.func(args)
        if code != _EXIT_ERROR:  # a failed gate writes nothing
            for out in _files(args, OUTPUT):
                _write_sidecar(out, args)
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (StepladderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
