"""Asyncio serving runtime with cross-request dynamic batching.

See DESIGN §16.  Public surface:

* :class:`AsyncPredictionServer` — the asyncio HTTP app, the one
  server behind ``repro-serve`` and every fleet replica;
* :class:`BackgroundAsyncServer` — the app on its own thread + loop,
  for tests / drills / benchmarks;
* :func:`serve_forever_aio` — blocking CLI entry point;
* :class:`DynamicBatcher` / :class:`BatchSettings` — the coalescing
  core and its watermarks;
* :class:`AdmissionQueue` / :class:`AdmissionFull` — bounded admission
  (503 + ``Retry-After`` beyond the bound);
* :class:`BatchingMetrics` — per-flush observability.
"""

from .admission import AdmissionFull, AdmissionQueue
from .batcher import BatchSettings, DynamicBatcher
from .metrics import BatchingMetrics
from .server import (
    AsyncPredictionServer,
    BackgroundAsyncServer,
    serve_forever_aio,
)

__all__ = [
    "AdmissionFull",
    "AdmissionQueue",
    "AsyncPredictionServer",
    "BackgroundAsyncServer",
    "BatchSettings",
    "BatchingMetrics",
    "DynamicBatcher",
    "serve_forever_aio",
]
