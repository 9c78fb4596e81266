"""Launch a serving CLI with the benchmark's layer wrappers installed.

    python -m catebench.traced_server --trace-out spans.jsonl \\
        --spawned-at <monotonic> serve <repro.serve arguments>
    python -m catebench.traced_server ... fleet <repro.fleet arguments>

Records the import of the CLI as ``setup.import`` (from the parent's
spawn timestamp), installs :func:`catebench.tracing.install_serving` in
this process, then calls the CLI's own ``main``.  The spans are written
when ``main`` returns, which both CLIs do on SIGINT.  For ``fleet`` this
process is the router; its replicas are started by the program itself
and run untraced.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from catebench.tracing import Tracer, install_serving


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="catebench.traced_server")
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("cli", choices=("serve", "fleet"))
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.cli == "serve":
        from repro.serve.__main__ import main as cli_main
        install_serving(tracer)
    else:
        import repro.fleet.supervisor  # noqa: F401 — what main() imports
        from repro.fleet.__main__ import main as cli_main
    tracer.record("setup.import", int(args.spawned_at * 1e9),
                  time.monotonic_ns())
    try:
        return cli_main(args.cli_args)
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
