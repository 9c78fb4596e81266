"""Request metrics for the prediction service.

Counts, error counts, and latency quantiles (p50/p99) per endpoint.
Latencies are kept in a bounded **reservoir sample**
(:class:`LatencyReservoir`, Vitter's Algorithm R): O(1) insertion with
no per-request allocation, a hard memory bound however long the server
lives, and — unlike the sliding window it replaced — quantiles that
stay representative of the *whole* request history instead of only the
most recent burst.  Thread-safe: the asyncio server records from its
event-loop thread, and tests and callers may read or record from
others.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return float(sorted_values[idx])


class LatencyReservoir:
    """Fixed-size uniform sample of a stream of latencies (Algorithm R).

    The first ``capacity`` observations are kept verbatim; afterwards
    each new observation replaces a random slot with probability
    ``capacity / count``, which keeps every observation equally likely
    to be in the sample.  The RNG is seeded so two servers fed the same
    stream report the same quantiles.  NOT thread-safe on its own — the
    owner serializes access (``ServiceMetrics`` under its lock, the
    batcher on the event-loop thread).
    """

    __slots__ = ("capacity", "count", "values", "_rng")

    def __init__(self, capacity: int = 2048, seed: int = 0) -> None:
        self.capacity = max(1, int(capacity))
        self.count = 0
        self.values: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        if len(self.values) < self.capacity:
            self.values.append(float(value))
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self.values[slot] = float(value)

    def quantile(self, q: float) -> float:
        return _quantile(sorted(self.values), q)


class ServiceMetrics:
    """Per-endpoint request accounting.

    Beyond request/error counts and latency quantiles, the resilience
    counters record the server's failure-handling behaviour: ``shed``
    (503s from the admission queue) and ``disconnects`` (clients that
    hung up mid-request/response).
    """

    def __init__(self, window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._window = int(window)
        self._requests: Dict[str, int] = {}  # guarded-by: _lock
        self._errors: Dict[str, int] = {}  # guarded-by: _lock
        self._latency: Dict[str, LatencyReservoir] = {}  # guarded-by: _lock
        self._shed: Dict[str, int] = {}  # guarded-by: _lock
        self._disconnects: Dict[str, int] = {}  # guarded-by: _lock

    def observe(self, endpoint: str, seconds: float,
                error: bool = False) -> None:
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            if error:
                self._errors[endpoint] = self._errors.get(endpoint, 0) + 1
            reservoir = self._latency.get(endpoint)
            if reservoir is None:
                # Endpoint-name-derived seed: deterministic, and distinct
                # endpoints do not share a replacement sequence.
                reservoir = LatencyReservoir(
                    self._window, seed=len(self._latency))
                self._latency[endpoint] = reservoir
            reservoir.add(float(seconds))

    def record_shed(self, endpoint: str) -> None:
        """Count a request shed by the admission queue (503)."""
        with self._lock:
            self._shed[endpoint] = self._shed.get(endpoint, 0) + 1

    def record_disconnect(self, endpoint: str) -> None:
        """Count a client that vanished mid-request or mid-response."""
        with self._lock:
            self._disconnects[endpoint] = (
                self._disconnects.get(endpoint, 0) + 1
            )

    def snapshot(self) -> dict:
        """JSON-ready metrics: counts + latency p50/p99 in milliseconds."""
        with self._lock:
            endpoints = {}
            names = (set(self._requests) | set(self._shed)
                     | set(self._disconnects))
            for name in sorted(names):
                reservoir = self._latency.get(name)
                lat = sorted(reservoir.values) if reservoir else []
                endpoints[name] = {
                    "requests": self._requests.get(name, 0),
                    "errors": self._errors.get(name, 0),
                    "shed": self._shed.get(name, 0),
                    "disconnects": self._disconnects.get(name, 0),
                    "latency_ms_p50": _quantile(lat, 0.50) * 1e3,
                    "latency_ms_p99": _quantile(lat, 0.99) * 1e3,
                }
            return {
                "total_requests": sum(self._requests.values()),
                "total_errors": sum(self._errors.values()),
                "total_shed": sum(self._shed.values()),
                "total_disconnects": sum(self._disconnects.values()),
                "endpoints": endpoints,
            }
