"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python benchmarks/e2e/serve_launcher.py TRACE_DIR \\
        [repro serve flags...]

The wrappers go in before the service is built; the layer totals and
spans are written to TRACE_DIR once the server has drained.
"""

import sys

from tracing import Tracer


def main() -> int:
    tracer = Tracer(sys.argv[1])
    tracer.install()
    from repro.serve.cli import serve_main

    try:
        return serve_main(sys.argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
