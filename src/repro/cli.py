"""The ``python -m repro`` command-line driver.

Compiles a textual ``.ll`` module through one of the standard pipelines
and exposes every observability layer end to end::

    python -m repro examples/unswitch_gvn.ll --stats --time-passes \
        --remarks=json

* ``--stats`` — the statistics registry (``-stats``);
* ``--time-passes`` — hierarchical per-pass × per-function timing;
* ``--remarks[=json]`` — optimization remarks from every pass;
* ``--trace`` — interpret the entry function and report its event trace;
* ``--emit-ir`` — print the optimized module.

Output is plain text by default.  With ``--remarks=json`` or ``--json``
the whole report becomes a single JSON document with one key per
requested section (``stats``, ``timing``, ``remarks``, ``trace``, …),
which is what the CI smoke test and the acceptance check parse.

``python -m repro campaign ...`` dispatches to the validation campaign
engine (:mod:`repro.campaign`): parallel sharded opt-fuzz × refinement
checking with checkpoint/resume, dedup, and counterexample reduction.

Resilience (``repro.opt.resilience``) is wired in three places:

* compile-mode flags — ``--policy``, ``--verify-each``, ``--crash-dir``,
  ``--opt-bisect-limit`` and the ``--chaos*`` fault-injection family —
  run the pipeline under a :class:`GuardedPassManager` and add a
  ``resilience`` report section.  A guarded-pass failure under the
  ``strict`` policy (or a final verification failure) exits with code 2.
* ``python -m repro crash {list,show,replay} ...`` — inspect and replay
  the crash bundles that guarded runs capture.
* ``python -m repro bisect <input> ...`` — the ``-opt-bisect-limit``
  driver: binary-search the first pass application that makes a checker
  (IR verification, or interpreted behavior vs. the unoptimized module)
  fail.

``python -m repro diag {top,merge,prom} ...`` is the observability
toolbox (:mod:`repro.diag`): render a profiler-style ``top`` table from
a merged span trace, merge per-shard span files into a
Perfetto-loadable ``trace.json``, and render a campaign's stats, summed
from its checkpoint records, in the Prometheus text format.  Compile
mode grows ``--trace-out FILE`` which records an in-memory span tree
for the single compilation and writes the same trace format.

``python -m repro serve`` runs the validation service
(:mod:`repro.serve`): a persistent asyncio front-end over the campaign
executor speaking HTTP and an NDJSON socket protocol on one port, with
warm cross-request verdict caches.  ``python -m repro client`` talks to
it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .diag import (
    PassTiming,
    default_emitter,
    default_registry,
    format_stats,
    reset_stats,
    span,
)
from .ir import ParseError, parse_module, print_module, verify_module
from .ir.types import IntType, VectorType
from .ir.verifier import VerificationError
from .opt.pipelines import CONFIGS, PIPELINES, build_pipeline
from .opt.resilience import (
    CHAOS_MODES,
    POLICIES,
    ChaosEngine,
    GuardedPassError,
    GuardedPassManager,
    bisect_failure,
    list_bundles,
    load_bundle,
    replay_bundle,
)
from .semantics import run_once


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Compile a .ll module with full observability "
                    "(stats, remarks, timing, tracing).",
    )
    parser.add_argument("input", help="path to a textual IR (.ll) file")
    parser.add_argument("--pipeline", choices=list(PIPELINES),
                        default="o2", help="pass pipeline: o2, quick, "
                        "codegen or one pass (default: o2)")
    parser.add_argument("--opt-config", choices=sorted(CONFIGS),
                        default="fixed", dest="opt_config",
                        help="fixed = the paper's pipeline, legacy = the "
                             "historical (buggy) one (default: fixed)")
    parser.add_argument("--stats", action="store_true",
                        help="report statistic counters")
    parser.add_argument("--time-passes", action="store_true",
                        dest="time_passes",
                        help="report per-pass x per-function timing")
    parser.add_argument("--remarks", nargs="?", const="text",
                        choices=["text", "json"],
                        help="report optimization remarks "
                             "(--remarks=json switches the whole report "
                             "to JSON)")
    parser.add_argument("--trace", action="store_true",
                        help="interpret the entry function on zero "
                             "arguments and report its event trace")
    parser.add_argument("--entry", default=None,
                        help="function for --trace (default: @main, "
                             "else the first definition)")
    parser.add_argument("--fuel", type=int, default=100_000,
                        help="step budget for --trace (default: 100000)")
    parser.add_argument("--emit-ir", action="store_true", dest="emit_ir",
                        help="print the optimized module")
    parser.add_argument("--json", action="store_true",
                        help="emit the whole report as one JSON document")
    parser.add_argument("--trace-out", default=None, dest="trace_out",
                        metavar="FILE",
                        help="record spans for this compilation and "
                             "write a Chrome-trace FILE (load in "
                             "Perfetto, or `repro diag top --trace`)")
    _add_resilience_arguments(parser)
    return parser


#: exit code for strict guarded-pass failures and verification failures.
EXIT_GUARDED_FAILURE = 2


def _add_resilience_arguments(parser: argparse.ArgumentParser,
                              with_policy: bool = True) -> None:
    group = parser.add_argument_group("resilience")
    if with_policy:
        group.add_argument("--policy", choices=("none",) + POLICIES,
                           default="none",
                           help="run under the guarded pass manager with "
                                "this recovery policy (default: none = "
                                "unguarded; other resilience flags imply "
                                "strict, or recover under --chaos)")
        group.add_argument("--verify-each", action="store_true",
                           dest="verify_each",
                           help="verify the function after every pass "
                                "application; failures roll back")
        group.add_argument("--crash-dir", default=None, dest="crash_dir",
                           help="write a replayable crash bundle for "
                                "every guarded pass failure")
        group.add_argument("--opt-bisect-limit", type=int, default=None,
                           dest="bisect_limit", metavar="N",
                           help="skip pass applications beyond the Nth "
                                "(the -opt-bisect-limit analog)")
        group.add_argument("--quarantine-after", type=int, default=3,
                           dest="quarantine_after", metavar="N",
                           help="under the quarantine policy, disable a "
                                "pass after N failures (default: 3)")
    group.add_argument("--chaos", action="store_true",
                       help="inject deterministic faults into every "
                            "pass (fault-injection harness)")
    group.add_argument("--chaos-seed", type=int, default=0,
                       dest="chaos_seed", metavar="SEED",
                       help="chaos fault-schedule seed (default: 0)")
    group.add_argument("--chaos-rate", type=float, default=0.05,
                       dest="chaos_rate", metavar="P",
                       help="per-application fault probability "
                            "(default: 0.05)")
    group.add_argument("--chaos-mode", choices=CHAOS_MODES,
                       default="mixed", dest="chaos_mode",
                       help="inject exceptions, IR corruptions, or both "
                            "(default: mixed)")
    group.add_argument("--chaos-fail-at", default=None,
                       dest="chaos_fail_at", metavar="N[,N...]",
                       help="inject exactly at these 1-based pass "
                            "application indices (overrides the rate)")


def _parse_fail_at(text: Optional[str]) -> tuple:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise SystemExit(
            f"error: --chaos-fail-at expects comma-separated integers, "
            f"got {text!r}")


def _chaos_engine(args: argparse.Namespace) -> Optional[ChaosEngine]:
    fail_at = _parse_fail_at(args.chaos_fail_at)
    if not (args.chaos or fail_at):
        return None
    return ChaosEngine(seed=args.chaos_seed, rate=args.chaos_rate,
                       mode=args.chaos_mode, fail_at=fail_at)


def _traceable(fn) -> bool:
    return all(isinstance(a.type, (IntType, VectorType)) for a in fn.args)


def _zero_args(fn) -> list:
    args = []
    for a in fn.args:
        if isinstance(a.type, VectorType):
            args.append(tuple(0 for _ in range(a.type.count)))
        else:
            args.append(0)
    return args


def _pick_entry(module, entry: Optional[str]):
    if entry is not None:
        fn = module.get_function(entry)
        if fn is None or fn.is_declaration:
            raise SystemExit(f"error: no definition of @{entry}")
        return fn
    main = module.get_function("main")
    if main is not None and not main.is_declaration:
        return main
    defs = module.definitions()
    if not defs:
        raise SystemExit("error: module has no function definitions")
    return defs[0]


def _run_trace(module, args: argparse.Namespace, config) -> dict:
    fn = _pick_entry(module, args.entry)
    if not _traceable(fn):
        return {"function": fn.name,
                "error": "entry function takes non-integer arguments"}
    behavior = run_once(fn, _zero_args(fn), config.semantics,
                        fuel=args.fuel)
    out = {
        "function": fn.name,
        "behavior": str(behavior),
        "kind": behavior.kind,
    }
    if behavior.trace is not None:
        out["events"] = behavior.trace.as_dict()
    return out


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Piping any subcommand's report into `head`/`grep -q` closes
        # stdout early; exit quietly instead of tracebacking (the
        # Python docs recipe).  Covers every subcommand and direct
        # `main()` callers, not just the `python -m repro` entry point.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 120


def _dispatch(argv: List[str]) -> int:
    if argv and argv[0] == "campaign":
        from .campaign import campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "crash":
        return _crash_main(argv[1:])
    if argv and argv[0] == "bisect":
        return _bisect_main(argv[1:])
    if argv and argv[0] == "lint":
        return _lint_main(argv[1:])
    if argv and argv[0] == "diag":
        return _diag_main(argv[1:])
    if argv and argv[0] == "serve":
        from .serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        from .serve.cli import client_main

        return client_main(argv[1:])
    if argv and argv[0] == "memo":
        from .perf.cli import memo_main

        return memo_main(argv[1:])
    args = _build_parser().parse_args(argv)

    try:
        with open(args.input) as f:
            text = f.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    try:
        module = parse_module(text)
    except ParseError as e:
        print(f"error: {args.input}: {e}", file=sys.stderr)
        return 1
    config = CONFIGS[args.opt_config]

    reset_stats()
    timing = PassTiming()
    emitter = default_emitter()

    collector = old_collector = None
    if args.trace_out:
        import os

        from .diag import SpanCollector, set_collector

        collector = SpanCollector(
            label=os.path.basename(args.input) or args.input, keep=True)
        old_collector = set_collector(collector)

    chaos = _chaos_engine(args)
    # Chaos implies verify-each, as in campaigns and serve: an injected
    # IR corruption is rolled back at the faulting pass.
    pm = build_pipeline(
        args.pipeline, config, timing, policy=args.policy,
        verify_each=args.verify_each or chaos is not None,
        quarantine_after=args.quarantine_after,
        bisect_limit=args.bisect_limit, crash_dir=args.crash_dir,
        chaos=chaos)
    guarded = isinstance(pm, GuardedPassManager)

    # Guarded compiles fly with the black box on: crash bundles then
    # carry the last events before the failure (`repro crash show`).
    recorder = None
    if guarded:
        from .diag import FlightRecorder, set_recorder

        recorder = FlightRecorder()
        set_recorder(recorder)
        recorder.install(collector=collector)

    failure_exit = 0
    try:
        with emitter.collect() as remarks:
            try:
                with span("compile", cat="driver") as sp:
                    pm.run(module)
                    verify_module(module)
                    sp.set(pipeline=args.pipeline)
            except GuardedPassError as e:
                print(f"error: {e}", file=sys.stderr)
                failure_exit = EXIT_GUARDED_FAILURE
            except VerificationError as e:
                print(f"error: verification failed after the pipeline: {e}",
                      file=sys.stderr)
                failure_exit = EXIT_GUARDED_FAILURE
    finally:
        if recorder is not None:
            from .diag import set_recorder

            recorder.uninstall()
            set_recorder(None)

    if collector is not None:
        from .diag import set_collector

        set_collector(old_collector)
        collector.close()
        _write_compile_trace(collector, args.trace_out)

    json_mode = args.json or args.remarks == "json"
    report: dict = {
        "input": args.input,
        "pipeline": args.pipeline,
        "opt_config": args.opt_config,
    }
    sections: List[str] = []

    if args.stats:
        report["stats"] = default_registry().snapshot(nonzero_only=True)
        sections.append("stats")
    if args.time_passes:
        report["timing"] = timing.as_dict()
        sections.append("timing")
    if args.remarks:
        report["remarks"] = [r.as_dict() for r in remarks]
        sections.append("remarks")
    if args.trace:
        report["trace"] = _run_trace(module, args, config)
        sections.append("trace")
    if args.emit_ir:
        report["ir"] = print_module(module)
        sections.append("ir")
    if guarded:
        resilience = pm.resilience_report()
        if chaos is not None:
            resilience["chaos"] = dict(chaos.as_dict(),
                                       injected=chaos.injected)
        report["resilience"] = resilience
        sections.append("resilience")

    if json_mode:
        print(json.dumps(report, indent=2))
        return failure_exit

    if not sections:
        print(f"; optimized {args.input} with the {args.pipeline} "
              f"pipeline ({args.opt_config} config); nothing requested "
              "(try --stats/--time-passes/--remarks/--trace)")
        return failure_exit
    if "ir" in sections:
        print(report["ir"])
    if "remarks" in sections:
        for r in remarks:
            print(f"remark: {r}")
        if not remarks:
            print("remark: (none emitted)")
        print()
    if "timing" in sections:
        print(timing.report(per_function=True))
        print()
    if "stats" in sections:
        print(format_stats())
        print()
    if "trace" in sections:
        t = report["trace"]
        print(f"--- trace of @{t['function']} ---")
        for key, value in t.items():
            if key == "events":
                for name, count in value.items():
                    print(f"  {name:>20}: {count}")
            elif key != "function":
                print(f"  {key}: {value}")
        print()
    if "resilience" in sections:
        r = report["resilience"]
        print("--- resilience ---")
        print(f"  policy: {r['policy']}  verify-each: {r['verify_each']}")
        print(f"  pass applications: {r['applications']}  "
              f"failures: {r['failures']}  recoveries: {r['recoveries']}")
        if r.get("quarantined"):
            print(f"  quarantined: {', '.join(r['quarantined'])}")
        if r.get("failed_passes"):
            for entry in r["failed_passes"]:
                print(f"  failed: {entry}")
        if r.get("bundles"):
            for path in r["bundles"]:
                print(f"  bundle: {path}")
        if "chaos" in r:
            c = r["chaos"]
            print(f"  chaos: seed={c['seed']} rate={c['rate']} "
                  f"mode={c['mode']} injected={c['injected']}")
    return failure_exit


def _write_compile_trace(collector, trace_out: str) -> None:
    """Dump a single-compile in-memory span tree as a Chrome trace."""
    import os

    from .diag.trace_export import merge_traces

    meta = {"pid": 0, "label": collector.label}
    trace = merge_traces([(meta, [s.as_dict() for s in collector.spans])])
    parent = os.path.dirname(trace_out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as f:
        json.dump(trace, f)
    spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print(f"trace: {spans} span(s) written to {trace_out} "
          f"(Perfetto-loadable; see `repro diag top --trace "
          f"{trace_out}`)", file=sys.stderr)


# -- python -m repro diag {top,merge,prom} ---------------------------------
def _diag_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro diag",
        description="Observability toolbox: profile merged span traces, "
                    "merge per-shard span files, render Prometheus "
                    "metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    top = sub.add_parser(
        "top", help="profiler-style top table from a span trace")
    src = top.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", metavar="FILE",
                     help="a merged trace.json (campaign --trace-out or "
                          "compile --trace-out)")
    src.add_argument("--out", metavar="DIR",
                     help="a campaign directory: reads DIR/trace.json "
                          "if present, else merges DIR/spans on the fly")
    top.add_argument("--sort", choices=("self", "total", "count"),
                     default="self",
                     help="row order (default: self time)")
    top.add_argument("--limit", type=int, default=20,
                     help="rows to show (default: 20)")
    top.add_argument("--json", action="store_true",
                     help="emit the profile rows as JSON")

    merge = sub.add_parser(
        "merge", help="merge per-shard span files into one trace.json")
    merge.add_argument("spans_dir",
                       help="directory of spans-*.jsonl files "
                            "(a campaign's <out>/spans)")
    merge.add_argument("-o", "--output", default=None,
                       help="trace file to write (default: "
                            "<spans_dir>/../trace.json)")

    prom = sub.add_parser(
        "prom", help="render a campaign's stats as Prometheus text")
    prom.add_argument("out",
                      help="a campaign directory (any kind): its "
                           "checkpoint records' stats, summed")
    return parser


def _diag_main(argv: List[str]) -> int:
    import os

    from .diag.trace_export import (
        build_profile, load_trace, merge_trace, render_top,
    )

    args = _diag_parser().parse_args(argv)

    if args.command == "top":
        if args.trace:
            try:
                trace = load_trace(args.trace)
            except (OSError, ValueError) as e:
                print(f"error: {args.trace}: {e}", file=sys.stderr)
                return 1
        else:
            trace_path = os.path.join(args.out, "trace.json")
            spans_dir = os.path.join(args.out, "spans")
            if os.path.isfile(trace_path):
                trace = load_trace(trace_path)
            elif os.path.isdir(spans_dir):
                trace = merge_trace(spans_dir)
            else:
                print(f"error: neither {trace_path} nor {spans_dir} "
                      f"exists (run the campaign with --trace-out)",
                      file=sys.stderr)
                return 1
        profile = build_profile(trace)
        if args.json:
            print(json.dumps(profile, indent=2, sort_keys=True))
        else:
            print(render_top(profile, sort=args.sort, limit=args.limit))
        return 0

    if args.command == "merge":
        if not os.path.isdir(args.spans_dir):
            print(f"error: {args.spans_dir} is not a directory",
                  file=sys.stderr)
            return 1
        out = args.output or os.path.join(
            os.path.dirname(os.path.abspath(args.spans_dir)),
            "trace.json")
        trace = merge_trace(args.spans_dir, out)
        events = sum(1 for e in trace["traceEvents"]
                     if e.get("ph") == "X")
        pids = len({e.get("pid") for e in trace["traceEvents"]})
        print(f"trace: {events} span(s) from {pids} shard(s) merged "
              f"into {out}")
        return 0

    # prom
    from .campaign import load_summary
    from .diag.metrics import prom_stats, render_prometheus

    try:
        summary = load_summary(args.out)
    except OSError:
        print(f"error: no campaign manifest under {args.out!r}",
              file=sys.stderr)
        return 1
    sys.stdout.write(render_prometheus({"stats": prom_stats(summary.stats)}))
    return 0


# -- python -m repro crash {list,show,replay} ------------------------------
def _crash_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro crash",
        description="Inspect and replay crash bundles captured by the "
                    "guarded pass manager.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_list = sub.add_parser("list", help="list bundles under a directory")
    p_list.add_argument("root", help="crash-bundle directory (--crash-dir)")
    p_list.add_argument("--json", action="store_true")
    p_show = sub.add_parser("show", help="print one bundle's manifest")
    p_show.add_argument("bundle", help="path to a bundle directory")
    p_show.add_argument("--ir", action="store_true",
                        help="also print the pre-pass IR")
    p_show.add_argument("--json", action="store_true")
    p_replay = sub.add_parser(
        "replay", help="re-run the recorded pass on the recorded IR")
    p_replay.add_argument("path",
                          help="a bundle directory, or a --crash-dir "
                               "root (replays every bundle under it)")
    p_replay.add_argument("--json", action="store_true")
    return parser


def _bundle_paths(path: str) -> List[str]:
    import os

    if os.path.isfile(os.path.join(path, "bundle.json")):
        return [path]
    return list_bundles(path)


def _lint_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro lint",
        description="UBSan-style static checker for the IR, powered by "
                    "the poison dataflow fixpoint.",
        epilog="exit codes: 0 = no finding at or above --min-severity "
               "(after filtering); 1 = at least one warning or error "
               "survived the filter; 2 = usage or parse error.")
    p.add_argument("inputs", nargs="*", help=".ll files to lint")
    p.add_argument("--min-severity",
                   choices=["note", "warning", "error"],
                   default="note", dest="min_severity",
                   help="drop findings below this severity from every "
                        "output format and from the exit code "
                        "(default: note = keep all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON findings")
    p.add_argument("--sarif", metavar="FILE",
                   help="write SARIF 2.1.0 to FILE ('-' for stdout)")
    p.add_argument("--rule", action="append", metavar="ID",
                   help="run only this rule (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="list rule IDs and exit")
    p.add_argument("--pipeline", choices=["none", *PIPELINES],
                   default="none",
                   help="optimize before linting (default: lint as-is)")
    p.add_argument("--opt-config", choices=sorted(CONFIGS),
                   default="fixed",
                   help="config for --pipeline (default: fixed)")
    return p


def _lint_main(argv: List[str]) -> int:
    from .lint import (
        RULES, lint_module, render_json, render_sarif, render_text,
        severity_rank,
    )

    args = _lint_parser().parse_args(argv)
    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.rule_id} ({rule.severity}): {rule.description}")
        return 0
    if not args.inputs:
        print("error: no input files (see --help)", file=sys.stderr)
        return 2
    if args.rule:
        unknown = [r for r in args.rule if r not in RULES]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    diags = []
    for path in args.inputs:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        try:
            module = parse_module(text)
        except ParseError as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return 2
        if args.pipeline != "none":
            build_pipeline(args.pipeline,
                           CONFIGS[args.opt_config]).run(module)
        # Lint always checks under the revised semantics: IR produced
        # by the legacy config is exactly the IR with latent UB.
        diags.extend(lint_module(module, rules=args.rule, file=path))

    floor = severity_rank(args.min_severity)
    diags = [d for d in diags if severity_rank(d.severity) >= floor]

    if args.sarif:
        doc = render_sarif(diags, rules=args.rule)
        if args.sarif == "-":
            print(doc)
        else:
            with open(args.sarif, "w") as f:
                f.write(doc + "\n")
    if args.json:
        print(render_json(diags))
    elif not (args.sarif == "-"):
        print(render_text(diags))

    worst = max((severity_rank(d.severity) for d in diags), default=0)
    return 1 if worst >= 1 else 0  # warnings/errors fail, notes pass


def _print_flight_recorder(dump: Optional[dict],
                           tail: int = 16) -> None:
    """Render a bundle's black-box flight-recorder tail."""
    if not dump or not dump.get("events"):
        return
    events = dump["events"]
    dropped = dump.get("dropped", 0)
    print(f"flight recorder: {dump.get('recorded', len(events))} "
          f"event(s) recorded"
          + (f", {dropped} dropped (ring capacity "
             f"{dump.get('capacity')})" if dropped else "")
          + f"; last {min(tail, len(events))}:")
    base = events[0].get("t", 0.0)
    for event in events[-tail:]:
        fields = " ".join(f"{k}={v}" for k, v in event.items()
                          if k not in ("t", "kind"))
        offset = event.get("t", base) - base
        print(f"  +{offset:8.3f}s {event.get('kind', '?'):<16} {fields}")


def _crash_main(argv: List[str]) -> int:
    args = _crash_parser().parse_args(argv)
    if args.command == "list":
        paths = list_bundles(args.root)
        if args.json:
            rows = []
            for path in paths:
                b = load_bundle(path)
                rows.append({"path": path, "pass": b["pass"],
                             "function": b["function"],
                             "application": b["application"],
                             "kind": b["kind"],
                             "injected": b.get("injected", False)})
            print(json.dumps(rows, indent=2))
        else:
            for path in paths:
                b = load_bundle(path)
                injected = " [chaos]" if b.get("injected") else ""
                print(f"{path}: {b['pass']} on @{b['function']} "
                      f"(application #{b['application']}, "
                      f"{b['kind']}){injected}")
            if not paths:
                print(f"no bundles under {args.root}")
        return 0

    if args.command == "show":
        try:
            bundle = load_bundle(args.bundle)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        if args.json:
            shown = dict(bundle)
            if not args.ir:
                shown.pop("before_ir", None)
            print(json.dumps(shown, indent=2, sort_keys=True))
        else:
            for key in ("bundle_id", "pass", "function", "application",
                        "kind", "error", "policy", "seed",
                        "injected_action"):
                if bundle.get(key) is not None:
                    print(f"{key}: {bundle[key]}")
            _print_flight_recorder(bundle.get("flight_recorder"))
            if args.ir:
                print("\n--- before.ll ---")
                print(bundle["before_ir"])
        return 0

    # replay
    paths = _bundle_paths(args.path)
    if not paths:
        print(f"error: no bundles at {args.path}", file=sys.stderr)
        return 1
    results = [replay_bundle(p) for p in paths]
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        for r in results:
            status = "reproduced" if r.reproduced else "NOT reproduced"
            print(f"{r.bundle}: {r.pass_name}: {status} ({r.outcome})")
    return 0 if all(r.reproduced for r in results) else 1


# -- python -m repro bisect -------------------------------------------------
def _bisect_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bisect",
        description="Binary-search the first pass application that makes "
                    "a checker fail (the -opt-bisect-limit driver).")
    parser.add_argument("input", help="path to a textual IR (.ll) file")
    parser.add_argument("--pipeline", choices=list(PIPELINES),
                        default="o2")
    parser.add_argument("--opt-config", choices=sorted(CONFIGS),
                        default="fixed", dest="opt_config")
    parser.add_argument("--checker", choices=("verify", "interp"),
                        default="verify",
                        help="verify = the optimized module must pass "
                             "the IR verifier; interp = interpreting the "
                             "entry function must match the unoptimized "
                             "module's behavior (default: verify)")
    parser.add_argument("--entry", default=None,
                        help="entry function for --checker=interp")
    parser.add_argument("--fuel", type=int, default=100_000)
    parser.add_argument("--verbose", action="store_true",
                        help="log every bisection probe")
    parser.add_argument("--json", action="store_true")
    _add_resilience_arguments(parser, with_policy=False)
    return parser


def _bisect_main(argv: List[str]) -> int:
    args = _bisect_parser().parse_args(argv)
    try:
        with open(args.input) as f:
            text = f.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        baseline = parse_module(text)
    except ParseError as e:
        print(f"error: {args.input}: {e}", file=sys.stderr)
        return 1
    config = CONFIGS[args.opt_config]

    if args.checker == "verify":
        def checker(module) -> bool:
            try:
                verify_module(module)
                return True
            except VerificationError:
                return False
    else:
        entry = _pick_entry(baseline, args.entry).name
        ref_fn = baseline.get_function(entry)
        if not _traceable(ref_fn):
            print(f"error: @{entry} takes non-integer arguments; "
                  f"--checker=interp needs a traceable entry",
                  file=sys.stderr)
            return 1
        reference = str(run_once(ref_fn, _zero_args(ref_fn),
                                 config.semantics, fuel=args.fuel))

        def checker(module) -> bool:
            fn = module.get_function(entry)
            if fn is None or fn.is_declaration:
                return False
            try:
                verify_module(module)
                behavior = run_once(fn, _zero_args(fn), config.semantics,
                                    fuel=args.fuel)
            except Exception:
                return False
            return str(behavior) == reference

    def make_pipeline(limit):
        # A fresh chaos engine per probe: schedules are keyed to
        # executed-application indices, so every probe replays the same
        # faults up to its limit.
        return build_pipeline(args.pipeline, config, policy="recover",
                              bisect_limit=limit, chaos=_chaos_engine(args))

    log = (lambda line: print(line, file=sys.stderr)) if args.verbose \
        else None
    result = bisect_failure(make_pipeline, lambda: parse_module(text),
                            checker, log=log)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result)
    return 0 if result.status in ("found", "clean") else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
