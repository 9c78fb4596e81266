"""``python -m repro.serve`` / ``repro-serve``: boot the prediction service.

Usage::

    repro-serve model.npz --host 127.0.0.1 --port 8099

The checkpoint must have been written by
:func:`repro.serve.save_catehgn` (or ``CATEHGN.save_checkpoint``); its
``.graph`` sidecar is expected next to it.
"""

from __future__ import annotations

import argparse

from ..wire import ServiceLimits
from .aio import BatchSettings, serve_forever_aio
from .engine import InferenceEngine


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve citation predictions from a CATE-HGN checkpoint.",
    )
    parser.add_argument("checkpoint",
                        help="path to a .npz checkpoint written by "
                             "CATEHGN.save_checkpoint / save_catehgn")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8099)
    parser.add_argument("--cache-size", type=int, default=4096,
                        help="LRU result-cache capacity (0 disables)")
    parser.add_argument("--micro-batch", type=int, default=256,
                        help="bulk-prediction micro-batch size")
    parser.add_argument("--mmap", action="store_true",
                        help="memory-map the checkpoint and graph arrays "
                             "(read-only) so co-located replicas share one "
                             "copy via the OS page cache")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logs")
    parser.add_argument("--aio", action="store_true",
                        help="accepted and ignored: the asyncio server is "
                             "the only server")
    batching = parser.add_argument_group("dynamic batching (DESIGN §16)")
    defaults = BatchSettings()
    batching.add_argument("--max-batch-size", type=int,
                          default=defaults.max_batch_size,
                          help="flush a batch once its coalesced cost (paper "
                               "ids + ranks) reaches this many units")
    batching.add_argument("--max-wait-ms", type=float,
                          default=defaults.max_wait_ms,
                          help="opt-in floor: keep a partial batch open this "
                               "many ms after its first request arrived "
                               "(default 0 flushes whatever is queued at "
                               "once)")
    batching.add_argument("--queue-depth", type=int,
                          default=defaults.max_queue_depth,
                          help="admission queue bound; excess requests are "
                               "shed with 503 + Retry-After")
    limits = parser.add_argument_group("limits (DESIGN §12)")
    guard = ServiceLimits()
    limits.add_argument("--max-body-bytes", type=int,
                        default=guard.max_body_bytes,
                        help="reject larger request bodies with 413")
    limits.add_argument("--read-timeout", type=float,
                        default=guard.read_timeout,
                        help="deadline in seconds for reading one whole "
                             "request (a stalled or truncated body gets 400; "
                             "an idle connection is closed)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    engine = InferenceEngine.from_checkpoint(
        args.checkpoint, cache_size=args.cache_size,
        micro_batch=args.micro_batch,
        mmap_mode="r" if args.mmap else None,
    )
    limits = ServiceLimits(max_body_bytes=args.max_body_bytes,
                           read_timeout=args.read_timeout)
    settings = BatchSettings(max_batch_size=args.max_batch_size,
                             max_wait_ms=args.max_wait_ms,
                             max_queue_depth=args.queue_depth)
    serve_forever_aio(engine, host=args.host, port=args.port,
                      verbose=not args.quiet, limits=limits,
                      settings=settings)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
