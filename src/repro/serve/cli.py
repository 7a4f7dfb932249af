"""``python -m repro serve`` / ``python -m repro client``.

The serve side runs one :class:`~repro.serve.server.ValidationServer`
until SIGTERM/SIGINT, then drains gracefully.  The client side is a
thin shell over :class:`~repro.serve.client.ServeClient`: chunks print
as NDJSON lines while they stream, the terminal payload prints as
indented JSON, and wire error codes map to distinct exit codes so
scripts can tell backpressure from failure::

    python -m repro serve --port 8371 --workers 4 --memo-dir /tmp/memo
    python -m repro client --port 8371 lint -i fn.ll --sarif
    python -m repro client --port 8371 refine fn1.ll fn2.ll --pipeline o2
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from ..opt.pipelines import CONFIGS
from .client import ServeClient, ServeError
from .protocol import OPS
from .server import ValidationServer
from .service import ServiceConfig

#: wire error code -> client exit code (0 done, 1 transport trouble).
EXIT_CODES = {"queue-full": 75, "draining": 75, "timeout": 74,
              "crashed": 70, "parse-error": 65, "bad-request": 64,
              "bad-payload": 64, "unknown-op": 64, "bad-frame": 76,
              "internal": 70}


def _positive_float(text: str) -> float:
    """argparse type for timeout flags: a finite, positive float."""
    from .deadline import validate_timeout

    try:
        return validate_timeout(float(text), name="value")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {text!r}")


# -- python -m repro serve ---------------------------------------------------
def _serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the validation service (HTTP + NDJSON on one "
                    "port).")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8371,
                   help="port to bind (0 picks a free one)")
    p.add_argument("--workers", type=int, default=2,
                   help="campaign worker processes")
    p.add_argument("--high-water", type=int, default=64,
                   help="in-flight requests before 429/queue-full")
    p.add_argument("--check-threads", type=int, default=2,
                   help="concurrent in-process check threads")
    p.add_argument("--request-timeout", type=_positive_float,
                   default=120.0,
                   help="default per-request deadline (seconds)")
    p.add_argument("--shard-timeout", type=_positive_float, default=None,
                   help="per-campaign-shard deadline (seconds)")
    p.add_argument("--memo-dir", default=None,
                   help="shared on-disk verdict store directory")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for in-flight work on SIGTERM")
    return p


async def _serve(args) -> int:
    config = ServiceConfig(
        workers=args.workers, high_water=args.high_water,
        request_timeout=args.request_timeout,
        shard_timeout=args.shard_timeout, memo_dir=args.memo_dir,
        check_threads=args.check_threads)
    server = ValidationServer(host=args.host, port=args.port,
                              config=config)
    host, port = await server.start()
    server.install_signal_handlers()
    print(f"repro serve: listening on {host}:{port} "
          f"({args.workers} workers, high-water {args.high_water})",
          flush=True)
    await server.serve_until_drained(drain_timeout=args.drain_timeout)
    print("repro serve: drained, bye", flush=True)
    return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = _serve_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 130


# -- python -m repro client --------------------------------------------------
def _client_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro client",
        description="Talk to a running validation service.")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8371)
    p.add_argument("--timeout", type=_positive_float, default=300.0,
                   help="socket timeout (seconds)")
    p.add_argument("op", choices=sorted(OPS))
    p.add_argument("inputs", nargs="*",
                   help="IR files (source for parse/optimize/lint; one "
                        "function per file for refine)")
    p.add_argument("-i", "--input", action="append", default=[],
                   dest="extra_inputs", help=argparse.SUPPRESS)
    p.add_argument("--target", default=None,
                   help="refine: check source against this IR file "
                        "directly (pair mode)")
    p.add_argument("--method", default=None,
                   choices=("exhaustive", "symbolic"),
                   help="refine pair mode: checker backend")
    p.add_argument("--pipeline", default=None)
    p.add_argument("--opt-config", default=None, choices=sorted(CONFIGS))
    p.add_argument("--policy", default=None,
                   choices=("none", "strict", "recover", "quarantine"))
    p.add_argument("--rules", default=None,
                   help="lint: comma-separated rule names")
    p.add_argument("--sarif", action="store_true",
                   help="lint: include a SARIF document in the result")
    p.add_argument("--spec-json", default=None,
                   help="campaign: file (or '-') holding the spec JSON")
    p.add_argument("--payload", default=None,
                   help="extra payload fields as inline JSON")
    p.add_argument("--request-timeout", type=_positive_float,
                   default=None,
                   help="server-side deadline for this request")
    p.add_argument("--retries", type=int, default=0,
                   help="retry transport failures/backpressure up to N "
                        "times (jittered backoff, idempotency keys)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress streamed chunks; print only the "
                        "terminal payload")
    return p


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _build_payload(args) -> dict:
    payload: dict = {}
    inputs = list(args.inputs) + list(args.extra_inputs)
    sources = [_read(path) for path in inputs]
    if args.op == "refine" and args.target is None:
        if sources:
            payload["functions"] = sources
    elif sources:
        payload["source"] = sources[0]
    if args.op == "refine" and args.target is not None:
        if sources:
            payload["source"] = sources[0]
        payload["target"] = _read(args.target)
        if args.method:
            payload["method"] = args.method
    if args.op == "campaign" and args.spec_json:
        payload["spec"] = json.loads(_read(args.spec_json))
    for key in ("pipeline", "opt_config", "policy"):
        value = getattr(args, key)
        if value is not None:
            payload[key] = value
    if args.rules:
        payload["rules"] = [r.strip() for r in args.rules.split(",")
                            if r.strip()]
    if args.sarif:
        payload["sarif"] = True
    if args.request_timeout is not None:
        payload["timeout"] = args.request_timeout
    if args.payload:
        extra = json.loads(args.payload)
        if not isinstance(extra, dict):
            raise ValueError("--payload must be a JSON object")
        payload.update(extra)
    return payload


def client_main(argv: Optional[List[str]] = None) -> int:
    args = _client_parser().parse_args(argv)
    try:
        payload = _build_payload(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.retries > 0:
        from .retry import RetryingClient

        client = RetryingClient(
            host=args.host, port=args.port, timeout=args.timeout,
            attempts=args.retries + 1)
    else:
        client = ServeClient(host=args.host, port=args.port,
                             timeout=args.timeout)
    try:
        with client:
            def show(data):
                if not args.quiet:
                    print(json.dumps(data, ensure_ascii=True))

            done = client.request(args.op, payload, on_chunk=show)
            print(json.dumps(done, indent=2, ensure_ascii=True,
                             sort_keys=True))
            return 0
    except ServeError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return EXIT_CODES.get(e.code, 1)
    except OSError as e:
        print(f"error: cannot reach {args.host}:{args.port}: {e}",
              file=sys.stderr)
        return 1
