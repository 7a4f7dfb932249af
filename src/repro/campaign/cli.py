"""``python -m repro campaign`` — the campaign engine's CLI surface.

Four subcommands over one campaign directory::

    python -m repro campaign run --width 2 --instructions 3 --workers 4
    python -m repro campaign resume --out campaign-out --workers 4
    python -m repro campaign reduce --out campaign-out
    python -m repro campaign report --out campaign-out [--json]

``run`` writes a manifest + JSONL checkpoint under ``--out``;
``resume`` reloads the manifest and finishes (or retries) the shards the
checkpoint doesn't mark done; ``reduce`` shrinks every recorded
counterexample to a minimal reproducer (``reduced.jsonl``); ``report``
renders the aggregate — verdict totals, dedup hit rate, per-shard
timing, and the stats registry — without re-running anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Tuple

from ..opt.pipelines import CONFIGS
from .checkpoint import CheckpointStore, load_manifest, manifest_kind
from .corpus import Corpus
from .executor import CampaignRunner, _resolve_work, load_spec, load_summary
from .report import CampaignSummary
from .reduce import reduce_counterexamples
from .spec import CampaignSpec

DEFAULT_OUT = "campaign-out"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Parallel sharded opt-fuzz x refinement-checking "
                    "campaigns with checkpoint/resume and a "
                    "counterexample reducer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start a fresh campaign")
    run.add_argument("--mode", choices=["enumerate", "random"],
                     default="enumerate")
    run.add_argument("--width", type=int, default=2,
                     help="integer bitwidth (default: 2)")
    run.add_argument("--instructions", type=int, default=1,
                     help="instructions per generated function")
    run.add_argument("--num-args", type=int, default=2, dest="num_args")
    run.add_argument("--opcodes", default="",
                     help="comma-separated opcode names "
                          "(default: the mode's standard set)")
    run.add_argument("--include-flags", action="store_true",
                     dest="include_flags",
                     help="enumerate nsw-flagged variants too")
    run.add_argument("--no-deferred", action="store_false",
                     dest="include_deferred",
                     help="exclude undef/poison from operand pools")
    run.add_argument("--count", type=int, default=256,
                     help="random mode: total functions to draw")
    run.add_argument("--seed", type=int, default=0,
                     help="random mode: campaign base seed")
    run.add_argument("--pipeline", default="o2",
                     help="o2, quick, codegen, or a single pass name "
                          "(default: o2)")
    run.add_argument("--opt-config", choices=sorted(CONFIGS),
                     default="fixed", dest="opt_config")
    run.add_argument("--shard-size", type=int, default=64,
                     dest="shard_size")
    run.add_argument("--limit", type=int, default=None,
                     help="enumerate mode: cap on corpus indices covered")
    run.add_argument("--start", type=int, default=0,
                     help="enumerate mode: first corpus index")
    run.add_argument("--max-choices", type=int, default=20,
                     dest="max_choices")
    run.add_argument("--fuel", type=int, default=600)
    run.add_argument("--sample-inputs", type=int, default=None,
                     dest="sample_inputs", metavar="N",
                     help="when a function's input space exceeds the "
                          "max-inputs budget, check N deterministically-"
                          "sampled inputs instead of giving up (verdicts "
                          "become 'verified (sampled)')")
    run.add_argument("--engine", choices=["auto", "scalar", "vector"],
                     default="auto",
                     help="refinement engine: auto/vector use the numpy "
                          "lane-parallel engine where eligible, with "
                          "transparent scalar fallback; scalar forces "
                          "the interpreter (default: auto)")
    run.add_argument("--cross-check", action="store_true",
                     dest="cross_check",
                     help="run every vector-eligible check under both "
                          "engines and record any verdict drift as a "
                          "per-function crash (disables the memo cache)")
    run.add_argument("--policy",
                     choices=["none", "strict", "recover", "quarantine"],
                     default="recover",
                     help="pipeline recovery policy: none = unguarded "
                          "(a pass crash kills the shard), strict = "
                          "per-function crash records, recover/"
                          "quarantine = roll back and continue "
                          "(default: recover)")
    run.add_argument("--verify-each", action="store_true",
                     dest="verify_each",
                     help="verify after every pass application")
    run.add_argument("--chaos-seed", type=int, default=None,
                     dest="chaos_seed",
                     help="enable chaos fault injection with this seed")
    run.add_argument("--chaos-rate", type=float, default=0.05,
                     dest="chaos_rate")
    run.add_argument("--chaos-mode",
                     choices=["raise", "corrupt", "mixed"],
                     default="mixed", dest="chaos_mode")
    run.add_argument("--no-cache", action="store_false", dest="use_cache",
                     help="disable the behavior-set memo cache (verdicts "
                          "are byte-identical either way; this only "
                          "re-does work)")
    run.add_argument("--cache-dir", default=None, dest="cache_dir",
                     help="shared on-disk memo directory (default: "
                          "<out>/memo)")

    for p in (run, sub.add_parser("resume",
                                  help="finish an interrupted campaign")):
        p.add_argument("--out", default=DEFAULT_OUT,
                       help=f"campaign directory (default: {DEFAULT_OUT})")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel shard workers (default: 1)")
        p.add_argument("--shard-timeout", type=float, default=None,
                       dest="shard_timeout",
                       help="per-shard wall timeout in seconds "
                            "(workers > 1 only)")
        p.add_argument("--stop-after", type=int, default=None,
                       dest="stop_after",
                       help="stop after N completed shards (graceful "
                            "interrupt; resume finishes the rest)")
        p.add_argument("--trace-out", nargs="?", const="", default=None,
                       dest="trace_out", metavar="FILE",
                       help="trace this run: workers stream spans under "
                            "<out>/spans, merged after the run into a "
                            "Chrome-trace FILE (default: "
                            "<out>/trace.json) — load it in Perfetto or "
                            "feed it to `repro diag top`")
        p.add_argument("--json", action="store_true",
                       help="emit the summary as JSON")

    red = sub.add_parser("reduce",
                         help="shrink recorded counterexamples to "
                              "minimal reproducers")
    red.add_argument("--out", default=DEFAULT_OUT)
    red.add_argument("--max-rounds", type=int, default=32,
                     dest="max_rounds")
    red.add_argument("--json", action="store_true")

    rep = sub.add_parser("report",
                         help="render the campaign aggregate from the "
                              "checkpoint")
    rep.add_argument("--out", default=DEFAULT_OUT)
    rep.add_argument("--json", action="store_true")

    audit = sub.add_parser(
        "lint-audit",
        help="differentially validate the poison dataflow (and hence "
             "every lint verdict) against the executable semantics")
    _add_corpus_arguments(
        audit, opcodes="add,mul,udiv,shl",
        opcodes_help="comma-separated opcode names (default covers flag "
                     "carriers, shifts, divisions)",
        limit=500, limit_help="functions to audit (default: 500)")
    audit.add_argument("--bundle-dir", default=None, dest="bundle_dir",
                       help="write contradiction bundles here "
                            "(default: <out>/lint-audit-bundles)")
    audit.add_argument("--out", default=DEFAULT_OUT)
    audit.add_argument("--json", action="store_true")

    attack = sub.add_parser(
        "lint-attack",
        help="fuzz the lint engine and poison-flow analyzer with "
             "semantics-aware mutators, scoring every fired/silent "
             "verdict against exact behavior enumeration")
    _add_corpus_arguments(
        attack, opcodes="",
        opcodes_help="comma-separated opcode names (default: the small "
                     "enumeration set)",
        limit=32, limit_help="seed functions to attack (default: 32)")
    attack.add_argument("--mutators", default="",
                        help="comma-separated mutator names "
                             "(default: all; see --list-mutators)")
    attack.add_argument("--rules", default="",
                        help="comma-separated lint rule IDs to score "
                             "(default: all)")
    attack.add_argument("--shard-size", type=int, default=8,
                        dest="shard_size",
                        help="seed functions per shard (default: 8)")
    attack.add_argument("--max-inputs", type=int, default=4096,
                        dest="max_inputs",
                        help="oracle input-combination budget per mutant")
    attack.add_argument("--max-paths", type=int, default=512,
                        dest="max_paths")
    attack.add_argument("--fuel", type=int, default=4000)
    attack.add_argument("--list-mutators", action="store_true",
                        dest="list_mutators",
                        help="print the mutator library and exit")
    attack.add_argument("--out", default=DEFAULT_OUT,
                        help=f"campaign directory (default: "
                             f"{DEFAULT_OUT})")
    attack.add_argument("--workers", type=int, default=1)
    attack.add_argument("--shard-timeout", type=float, default=None,
                        dest="shard_timeout")
    attack.add_argument("--stop-after", type=int, default=None,
                        dest="stop_after",
                        help="stop after N completed shards (graceful "
                             "interrupt; resume finishes the rest)")
    attack.add_argument("--json", action="store_true")
    return parser


def _add_corpus_arguments(p: argparse.ArgumentParser, *, opcodes: str,
                          opcodes_help: str, limit: int,
                          limit_help: str) -> None:
    """The seed-corpus flags ``lint-audit`` and ``lint-attack`` share,
    with each command's own opcode and limit defaults."""
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--instructions", type=int, default=2)
    p.add_argument("--num-args", type=int, default=2, dest="num_args")
    p.add_argument("--opcodes", default=opcodes, help=opcodes_help)
    p.add_argument("--include-flags", action="store_true",
                   dest="include_flags", default=True)
    p.add_argument("--no-flags", action="store_false",
                   dest="include_flags")
    p.add_argument("--no-deferred", action="store_false",
                   dest="include_deferred",
                   help="exclude undef/poison literals from operand pools")
    p.add_argument("--limit", type=int, default=limit, help=limit_help)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--stride", type=int, default=0,
                   help="sample every Nth corpus index; 0 picks a stride "
                        "spreading --limit over the whole space (default)")


def _spec_from(cls, args: argparse.Namespace, **named):
    """A ``cls`` spec from ``named`` plus every flag whose destination
    is a field of ``cls`` (flags are named after the fields they set)."""
    fields = {f.name for f in dataclasses.fields(cls)} - set(named)
    return cls(**named, **{key: value for key, value in vars(args).items()
                           if key in fields})


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    return _spec_from(CampaignSpec, args, num_instructions=args.instructions,
                      opcodes=_csv(args.opcodes))


def _spans_dir(out: str) -> str:
    import os

    return os.path.join(out, "spans")


def _apply_trace(spec: CampaignSpec, args: argparse.Namespace
                 ) -> CampaignSpec:
    """Tracing is per-invocation: ``--trace-out`` turns it on for this
    run/resume; its absence turns it off even if the manifest recorded
    a traced earlier run."""
    trace_dir = (_spans_dir(args.out)
                 if getattr(args, "trace_out", None) is not None else None)
    return spec.with_(trace_dir=trace_dir)


def _finish_trace(args: argparse.Namespace) -> None:
    """Merge the per-shard span files into one trace.json."""
    import os

    from ..diag.trace_export import merge_trace

    trace_path = args.trace_out or os.path.join(args.out, "trace.json")
    trace = merge_trace(_spans_dir(args.out), trace_path)
    events = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    pids = len({e.get("pid") for e in trace["traceEvents"]})
    # under --json stdout is the machine-readable summary; keep it pure
    sink = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(f"trace: {events} span(s) from {pids} shard(s) merged into "
          f"{trace_path} (Perfetto-loadable; see `repro diag top "
          f"--trace {trace_path}`)", file=sink)


def _run(spec, args: argparse.Namespace, resume: bool = False) -> int:
    """Run (or resume) ``spec`` under ``--out`` and print its summary;
    exits with the kind's status for errored shards."""
    if hasattr(spec, "trace_dir"):  # lint-attack shards write no spans
        spec = _apply_trace(spec, args)
    runner = CampaignRunner(spec, out_dir=args.out, workers=args.workers,
                            shard_timeout=args.shard_timeout)
    summary = runner.run(resume=resume, stop_after=args.stop_after)
    print(json.dumps(summary.as_dict(), indent=2, sort_keys=True)
          if args.json else summary.render())
    if getattr(spec, "trace_dir", None) is not None:
        _finish_trace(args)
    if summary.shards_errored:
        return _resolve_work(spec.kind).errored_exit
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _run(spec, args)


def _cmd_resume(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args.out)
    except FileNotFoundError:
        print(f"error: no campaign manifest under {args.out!r} "
              f"(run `campaign run --out {args.out}` first)",
              file=sys.stderr)
        return 1
    return _run(spec, args, resume=True)


def _cmd_reduce(args: argparse.Namespace) -> int:
    try:
        if manifest_kind(args.out) == "lint-attack":
            print("error: `campaign reduce` applies to refine "
                  "campaigns; lint-attack disagreements are already "
                  "reduced and bundled under <out>/crashes",
                  file=sys.stderr)
            return 1
        spec, _ = load_manifest(args.out)
    except FileNotFoundError:
        print(f"error: no campaign manifest under {args.out!r}",
              file=sys.stderr)
        return 1
    store = CheckpointStore(args.out)
    counterexamples = CampaignSummary.from_records(
        spec, store.load()).counterexamples
    if not counterexamples:
        print("no counterexamples recorded; nothing to reduce")
        return 0
    reduced = reduce_counterexamples(counterexamples, spec,
                                     max_rounds=args.max_rounds)
    store.append_reduced(reduced)
    if args.json:
        print(json.dumps(reduced, indent=2, sort_keys=True))
        return 0
    for record in reduced:
        print(f"counterexample {record['hash'][:12]}: "
              f"{record['original_instructions']} -> "
              f"{record['reduced_instructions']} instructions "
              f"({record['candidates_tried']} candidates, "
              f"{record['rounds']} round(s))")
        for line in record["reduced"].strip().splitlines():
            print(f"  {line}")
    print(f"wrote {len(reduced)} reduced reproducer(s) to "
          f"{args.out}/reduced.jsonl")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        summary = load_summary(args.out)
    except FileNotFoundError:
        print(f"error: no campaign manifest under {args.out!r}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary.report_dict(), indent=2, sort_keys=True))
    else:
        print(summary.render_report())
    return 0


def _csv(text: str) -> Tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _corpus_stride(args: argparse.Namespace) -> int:
    """``--stride``, or when it is 0 or less, the stride that spreads
    ``--limit`` positions over the whole space of the corpus the
    :func:`_add_corpus_arguments` flags name (which it validates)."""
    corpus = Corpus.of(
        _csv(args.opcodes), num_instructions=args.instructions,
        width=args.width, num_args=args.num_args,
        include_deferred=args.include_deferred,
        include_flags=args.include_flags)
    if args.stride > 0:
        return args.stride
    return max(1, corpus.space_size // max(1, args.limit))


def _cmd_lint_audit(args: argparse.Namespace) -> int:
    import os

    from .lint_audit import run_lint_audit

    try:
        stride = _corpus_stride(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bundle_dir = args.bundle_dir or os.path.join(args.out,
                                                 "lint-audit-bundles")

    def progress(done, bad):
        print(f"  audited {done} function(s), "
              f"{bad} contradiction(s)", file=sys.stderr)

    report = run_lint_audit(
        width=args.width, instructions=args.instructions,
        num_args=args.num_args, opcodes=_csv(args.opcodes),
        include_flags=args.include_flags,
        include_deferred=args.include_deferred,
        limit=args.limit, start=args.start, stride=stride,
        bundle_dir=bundle_dir,
        progress=progress if not args.json else None)

    bad = report["contradictions"]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        t = report["totals"]
        print(f"lint-audit: {t['functions']} function(s), "
              f"{t['claims']} claim(s) "
              f"({t['must_not']} must-not-poison, {t['must']} "
              f"must-poison), {t['observations']} observation(s)")
        print(f"  silent verdicts validated: {t['silent_verdicts']}")
        engines = report["stats"].get("lint-audit", {})
        print(f"  oracle: {engines.get('num-vector-functions', 0)} "
              f"vector, {engines.get('num-vector-fallbacks', 0)} scalar "
              f"fallback(s), {t['unaudited']} unaudited")
        if report["lint_findings"]:
            findings = ", ".join(f"{k}: {v}" for k, v in
                                 report["lint_findings"].items())
            print(f"  lint findings over the corpus: {findings}")
        if bad:
            print(f"  {len(bad)} CONTRADICTION(S) — analyzer soundness "
                  f"bug(s); bundles under {bundle_dir}")
            for c in bad[:5]:
                print(f"    {c['function']}#{c['index']}: {c['claim']} "
                      f"on {c['value']} refuted (observed "
                      f"{c['observed_bits']})")
        else:
            print("  no contradictions: every claim consistent with "
                  "the executable semantics")
    return 1 if bad else 0


def _attack_spec_from_args(args: argparse.Namespace):
    from .lint_attack import AttackSpec

    return _spec_from(
        AttackSpec, args, num_instructions=args.instructions,
        opcodes=_csv(args.opcodes), stride=_corpus_stride(args),
        mutators=_csv(args.mutators), rules=_csv(args.rules))


def _cmd_lint_attack(args: argparse.Namespace) -> int:
    if args.list_mutators:
        from ..mutate import MUTATORS, rules_attacked_by

        for name in sorted(MUTATORS):
            m = MUTATORS[name]
            rules = ", ".join(rules_attacked_by(name)) or "-"
            print(f"{name:<16} [{m.kind}] {m.description}")
            print(f"{'':<16} attacks: {rules}")
        return 0
    try:
        spec = _attack_spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _run(spec, args)


def campaign_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "resume": _cmd_resume,
                "reduce": _cmd_reduce, "report": _cmd_report,
                "lint-audit": _cmd_lint_audit,
                "lint-attack": _cmd_lint_attack}
    return handlers[args.command](args)
