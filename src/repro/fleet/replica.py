"""``python -m repro.fleet.replica``: one serving-fleet replica process.

Boots the asyncio server (:class:`repro.serve.aio.AsyncPredictionServer`)
with the :data:`REPLICA_BATCH` watermarks on its own port, loading the
checkpoint with ``mmap_mode="r"`` by default so all co-located replicas
share one copy of the bulk checkpoint data through the OS page cache.

The replica binds port 0 (the kernel picks a free port) and reports its
address by atomically writing a JSON state file::

    {"host": "...", "port": 12345, "pid": 4242}

The supervisor polls for that file, then health-probes the address before
admitting the replica to the router's hash ring.  SIGTERM/SIGINT request
a clean drain-and-exit; SIGKILL (what the drill uses) is the crash case
the supervisor must detect and repair.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal

#: Batching watermarks every replica runs with (``BatchSettings`` fields;
#: the wait floor keeps the library default).
REPLICA_BATCH = dict(max_batch_size=256, max_queue_depth=4096)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-fleet-replica")
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--state-file", required=True,
                        help="JSON file to write the bound address into")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-size", type=int, default=4096)
    parser.add_argument("--micro-batch", type=int, default=256)
    parser.add_argument("--no-mmap", action="store_true",
                        help="materialize the checkpoint privately instead "
                             "of memory-mapping it")
    return parser


async def _amain(args: argparse.Namespace) -> int:
    from ..resilience import atomic_write_text
    from ..serve import InferenceEngine
    from ..serve.aio import AsyncPredictionServer, BatchSettings

    engine = InferenceEngine.from_checkpoint(
        args.checkpoint, cache_size=args.cache_size,
        micro_batch=args.micro_batch,
        mmap_mode=None if args.no_mmap else "r",
    )
    app = AsyncPredictionServer(engine,
                                settings=BatchSettings(**REPLICA_BATCH))
    host, port = await app.start(args.host, args.port)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    # Address goes out only after the listener is accepting, so a state
    # file's existence always implies a connectable socket.
    atomic_write_text(args.state_file, json.dumps(
        {"host": host, "port": port, "pid": os.getpid()}))

    await stop.wait()
    await app.stop()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    raise SystemExit(main())
