"""Batching-aware observability for the asyncio runtime (DESIGN §16).

:class:`~repro.serve.metrics.ServiceMetrics` answers "how long did
requests take"; under cross-request batching the
operationally interesting split is *why*: time spent **waiting in the
admission queue** (tunable via the watermarks) vs. time spent in the
**batched compute** itself.  :class:`BatchingMetrics` records, per
flush:

* a batch-size histogram (requests per flush — its weighted sum is the
  total number of batched requests, pinned by the BENCH schema test);
* the coalesce ratio (requests / flushes — 1.0 means batching never
  helped, higher means forwards were shared);
* bounded reservoirs of queue-wait and compute seconds (p50/p99).

Everything here runs on the event-loop thread (the batcher records
after the executor future resolves), so no locks are involved.
"""

from __future__ import annotations

from typing import Any, Dict

from ..metrics import LatencyReservoir


class BatchingMetrics:
    """Per-flush accounting for the dynamic batcher."""

    def __init__(self, window: int = 4096) -> None:
        self.batches = 0
        self.failed_batches = 0
        self.batched_requests = 0
        self.admitted = 0
        #: flush size (requests) -> number of flushes of that size
        self.size_histogram: Dict[int, int] = {}
        self.queue_wait = LatencyReservoir(window, seed=101)
        self.compute = LatencyReservoir(window, seed=202)

    def record_admitted(self) -> None:
        self.admitted += 1

    def record_batch(self, batch, compute_seconds: float,
                     failed: bool = False) -> None:
        size = len(batch)
        self.batches += 1
        self.batched_requests += size
        if failed:
            self.failed_batches += 1
        self.size_histogram[size] = self.size_histogram.get(size, 0) + 1
        for pending in batch:
            self.queue_wait.add(pending.queue_wait_s)
        self.compute.add(compute_seconds)

    def reset(self) -> None:
        """Forget everything (the load-test harness resets after warmup)."""
        self.__init__(window=self.queue_wait.capacity)

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def coalesce_ratio(self) -> float:
        """Requests per flush; > 1 means forwards were genuinely shared."""
        return self.mean_batch_size

    def snapshot(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "failed_batches": self.failed_batches,
            "batched_requests": self.batched_requests,
            "admitted": self.admitted,
            "mean_batch_size": self.mean_batch_size,
            "coalesce_ratio": self.coalesce_ratio,
            "batch_size_histogram": {
                str(k): v for k, v in sorted(self.size_histogram.items())
            },
            "queue_wait_ms_p50": self.queue_wait.quantile(0.50) * 1e3,
            "queue_wait_ms_p99": self.queue_wait.quantile(0.99) * 1e3,
            "compute_ms_p50": self.compute.quantile(0.50) * 1e3,
            "compute_ms_p99": self.compute.quantile(0.99) * 1e3,
        }
