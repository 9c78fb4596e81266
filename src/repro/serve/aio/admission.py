"""Bounded admission queue for the asyncio serving runtime (DESIGN §16).

The server's overload guard: work is admitted into a **bounded** queue
and anything beyond the bound is shed immediately with ``503`` +
``Retry-After`` instead of building an unbounded backlog.  Queued
requests are cheap coroutines, so the bound caps how much latency the
backlog may represent, not how many requests execute at once (the
batcher runs one flush at a time).  ``/healthz`` and ``/metrics`` never
pass through admission (the server's ``CONTROL_ENDPOINTS``): a
saturated server must keep answering its probes.

Single-threaded by design: every method runs on the event-loop thread,
so no locks are needed (and the A-rules have nothing to guard).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, List, Optional


class AdmissionFull(Exception):
    """The admission queue is at capacity; the request must be shed."""

    def __init__(self, depth: int, capacity: int) -> None:
        super().__init__(
            f"admission queue full ({depth}/{capacity} requests queued); "
            f"retry shortly")
        self.depth = depth
        self.capacity = capacity


class AdmissionQueue:
    """FIFO of pending requests with a hard depth bound.

    A hand-rolled deque + event instead of :class:`asyncio.Queue`: the
    batcher needs non-blocking bulk drains (``get_nowait``/``drain``)
    and a timeout-bounded get without the cancellation-loses-an-item
    hazard of ``asyncio.wait_for(queue.get(), ...)`` — a timed-out
    ``Queue.get`` can swallow a concurrently-put item, which would
    violate the exactly-one-response guarantee.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, int(capacity))
        self._items: Deque = deque()
        self._ready = asyncio.Event()
        self.total_admitted = 0
        self.total_shed = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def saturated(self) -> bool:
        return len(self._items) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, item) -> None:
        """Admit ``item`` or raise :class:`AdmissionFull` (→ 503)."""
        if len(self._items) >= self.capacity:
            self.total_shed += 1
            raise AdmissionFull(len(self._items), self.capacity)
        self._items.append(item)
        self.total_admitted += 1
        self._ready.set()

    # ------------------------------------------------------------------
    def get_nowait(self):
        """Pop the oldest item, or ``None`` when empty."""
        if not self._items:
            self._ready.clear()
            return None
        item = self._items.popleft()
        if not self._items:
            self._ready.clear()
        return item

    async def get(self):
        """Pop the oldest item, waiting as long as it takes."""
        while True:
            item = self.get_nowait()
            if item is not None:
                return item
            await self._ready.wait()

    async def get_within(self, timeout: float):
        """Pop the oldest item, or ``None`` after ``timeout`` seconds.

        The wait races only the *event*, never a pop: an item admitted
        while the timer runs is picked up by the next loop iteration
        and can never be silently dropped by the timeout.
        """
        deadline = asyncio.get_running_loop().time() + max(0.0, timeout)
        while True:
            item = self.get_nowait()
            if item is not None:
                return item
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                return None
            try:
                await asyncio.wait_for(self._ready.wait(), remaining)
            except asyncio.TimeoutError:
                return None

    def drain(self) -> List:
        """Remove and return everything queued (used at shutdown)."""
        items = list(self._items)
        self._items.clear()
        self._ready.clear()
        return items
