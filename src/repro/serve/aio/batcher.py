"""Adaptive cross-request dynamic batcher (DESIGN §16).

:meth:`InferenceEngine.predict` micro-batches only *within* one call:
two concurrent ``/predict`` requests served by separate calls would
each pay their own head application.  The batcher closes that gap —
concurrent requests are coalesced into **one** tape-free
:class:`InferenceEngine` forward and the per-request futures are
resolved from slices of the batched result.

Mechanics
---------
Handlers call :meth:`DynamicBatcher.submit_predict`,
:meth:`DynamicBatcher.submit_rank` or :meth:`DynamicBatcher.submit_title`,
which enqueue a pending request into the bounded
:class:`~repro.serve.aio.admission.AdmissionQueue` and await an
``asyncio.Future``.  A single collector task takes whatever is queued
and flushes it as soon as the queue is empty or the **size watermark**
is hit: the coalesced cost (total paper ids for predict, 1 per rank or
title) reaches ``BatchSettings.max_batch_size``.  No request waits for
company it may never get.

The engine work runs on a single-worker thread executor, so the event
loop keeps accepting and queueing requests *while the previous batch
computes*, and those requests form the next flush.  That overlap is
what makes batches grow adaptively under load: the heavier the traffic,
the more requests accumulate per compute window, the cheaper each
request gets.

``BatchSettings.max_wait_ms`` is an opt-in floor (default 0): with it
set, the collector keeps a partial batch open that long after its first
request arrived before flushing it.

Correctness guarantees (pinned by the hypothesis suite):

* batched responses are **bitwise identical** to sequential unbatched
  ones — predictions come from the same micro-batched head path, which
  is row-wise deterministic, ranks are stable-argsort prefixes, and
  titles are scored one at a time by the engine's own ``score_title``;
* every submitted request is resolved exactly once, whatever the
  interleaving, including when the engine call raises mid-batch;
* predictions flow through :class:`~repro.serve.degrade.ServingRuntime`,
  so the circuit-breaker fallback chain (model → cache → prior) and
  ``source``/``degraded`` tagging survive batching unchanged.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .admission import AdmissionQueue
from .metrics import BatchingMetrics


@dataclass
class BatchSettings:
    """Tunable watermarks for the dynamic batcher."""

    #: Flush when the coalesced batch reaches this many units of work
    #: (paper ids for /predict, 1 per /rank request).
    max_batch_size: int = 256
    #: Keep a partial batch open this long after its first request
    #: arrived; 0 flushes whatever is queued at once.
    max_wait_ms: float = 0.0
    #: Admission bound: requests beyond this many queued are shed (503).
    max_queue_depth: int = 1024

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1e3


class _Pending:
    """One queued request: payload + the future its response resolves."""

    __slots__ = ("kind", "ids", "node_type", "k", "cluster", "title",
                 "cost", "future", "enqueued_at", "queue_wait_s")

    def __init__(self, kind: str, future: "asyncio.Future",
                 enqueued_at: float, ids: Optional[np.ndarray] = None,
                 node_type: str = "", k: int = 0,
                 cluster: Optional[int] = None, title: str = "") -> None:
        self.kind = kind
        self.future = future
        self.enqueued_at = enqueued_at
        self.ids = ids
        self.node_type = node_type
        self.k = k
        self.cluster = cluster
        self.title = title
        self.cost = len(ids) if ids is not None else 1
        self.queue_wait_s = 0.0


class DynamicBatcher:
    """Coalesces concurrent requests into single batched engine calls."""

    def __init__(self, runtime, settings: Optional[BatchSettings] = None,
                 metrics: Optional[BatchingMetrics] = None) -> None:
        self.runtime = runtime
        self.settings = settings or BatchSettings()
        self.metrics = metrics or BatchingMetrics()
        self.queue = AdmissionQueue(self.settings.max_queue_depth)
        self._task: Optional["asyncio.Task"] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Total futures resolved (result or exception) — the hypothesis
        #: suite pins ``resolutions == submissions`` for any interleaving.
        self.resolutions = 0

    # ------------------------------------------------------------------
    # Lifecycle (all on the event-loop thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-aio-batch")
        self._task = self._loop.create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:  # noqa: R005 — shutdown signal
                pass
            self._task = None
        # Fail anything still queued so no client waits forever.
        for pending in self.queue.drain():
            self._resolve_exception(
                pending, RuntimeError("server shutting down"))
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Submission API (called from request handlers)
    # ------------------------------------------------------------------
    async def submit_predict(self, paper_ids: Sequence[int]) -> Dict[str, Any]:
        """Queue a /predict for the next batch; await its slice.

        Client-side validation happens *before* admission so one bad
        request can never poison a whole batch: a range or type error
        raises here (HTTP 400) and nothing reaches the queue.
        """
        ids = np.asarray(paper_ids, dtype=np.intp).reshape(-1)
        engine = self.runtime.engine
        num_papers = getattr(engine, "num_papers", None)
        if (num_papers is not None and len(ids)
                and (ids.min() < 0 or ids.max() >= num_papers)):
            raise IndexError(f"paper id out of range [0, {num_papers})")
        return await self._submit(_Pending(
            "predict", self._make_future(), self._now(), ids=ids))

    async def submit_rank(self, node_type: str, k: int,
                          cluster: Optional[int]) -> List[dict]:
        """Queue a /rank; concurrent ranks of one key share a forward."""
        return await self._submit(_Pending(
            "rank", self._make_future(), self._now(),
            node_type=node_type, k=int(k), cluster=cluster))

    async def submit_title(self, title: str) -> Dict[str, Any]:
        """Queue a cold-start title; it is scored alone within its flush.

        A title runs its own one-paper forward, so it shares the flush
        (and the admission bound) but not the computation.
        """
        return await self._submit(_Pending(
            "title", self._make_future(), self._now(), title=title))

    async def _submit(self, pending: _Pending) -> Any:
        self.queue.put(pending)  # raises AdmissionFull -> 503
        self.metrics.record_admitted()
        return await pending.future

    def _make_future(self) -> "asyncio.Future":
        return asyncio.get_running_loop().create_future()

    def _now(self) -> float:
        loop = self._loop or asyncio.get_running_loop()
        return loop.time()

    # ------------------------------------------------------------------
    # Collector loop
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        settings = self.settings
        while True:
            first = await self.queue.get()
            batch = [first]
            try:
                cost = first.cost
                deadline = self._now() + settings.max_wait_s
                while cost < settings.max_batch_size:
                    remaining = deadline - self._now()
                    nxt = (self.queue.get_nowait() if remaining <= 0
                           else await self.queue.get_within(remaining))
                    if nxt is None:
                        break
                    batch.append(nxt)
                    cost += nxt.cost
                await self._execute(batch)
            except asyncio.CancelledError:
                # Shutdown caught us holding requests already popped
                # from the queue (accumulating or mid-execute); they
                # must still resolve — exactly-once includes teardown.
                for pending in batch:
                    self._resolve_exception(
                        pending, RuntimeError("server shutting down"))
                raise

    async def _execute(self, batch: List[_Pending]) -> None:
        started = self._now()
        for pending in batch:
            pending.queue_wait_s = started - pending.enqueued_at
        predicts = [p for p in batch if p.kind == "predict"]
        ranks = [p for p in batch if p.kind == "rank"]
        titles = [p for p in batch if p.kind == "title"]
        try:
            result = await self._loop.run_in_executor(
                self._executor, self._forward, predicts, ranks, titles)
        except Exception as exc:  # noqa: BLE001 — fanned out per request
            for pending in batch:
                self._resolve_exception(pending, exc)
            self.metrics.record_batch(batch, self._now() - started,
                                      failed=True)
            return
        predicted, ranked, scored = result
        if predicts:
            offsets = np.cumsum([0] + [p.cost for p in predicts])
            values = predicted["predictions"]
            for i, pending in enumerate(predicts):
                self._resolve_result(pending, {
                    "paper_ids": [int(x) for x in pending.ids],
                    "predictions": [
                        float(v) for v in values[offsets[i]:offsets[i + 1]]
                    ],
                    "source": predicted["source"],
                    "degraded": predicted["degraded"],
                })
        for pending in ranks:
            outcome = ranked[(pending.node_type, pending.cluster)]
            if isinstance(outcome, BaseException):
                self._resolve_exception(pending, outcome)
            else:
                # A stable-argsort top-k is a prefix of any longer one,
                # so serving pending.k from the group's max-k ranking is
                # bitwise what an unbatched call would have returned.
                self._resolve_result(pending, outcome[:pending.k])
        for pending, outcome in zip(titles, scored):
            if isinstance(outcome, BaseException):
                self._resolve_exception(pending, outcome)
            else:
                self._resolve_result(
                    pending, {"prediction": outcome, "cold_start": True})
        self.metrics.record_batch(batch, self._now() - started)

    def _forward(self, predicts: List[_Pending], ranks: List[_Pending],
                 titles: List[_Pending]) -> Tuple[dict, dict, list]:
        """One executor dispatch covering the whole flush (worker thread).

        Predict ids are concatenated into a single
        :meth:`ServingRuntime.predict` call — one pass through the
        breaker, one micro-batched head application, one fallback
        decision shared by every coalesced request.  Rank requests are
        grouped by ``(node_type, cluster)`` and each group computes one
        ranking at the group's largest ``k``.  Titles are scored one at
        a time, each with its own verdict, so a bad title fails only its
        own request.
        """
        predicted: dict = {}
        if predicts:
            concat = (np.concatenate([p.ids for p in predicts])
                      if predicts else np.array([], dtype=np.intp))
            predicted = self.runtime.predict(concat)
        ranked: Dict[Tuple[str, Optional[int]], Any] = {}
        for pending in ranks:
            key = (pending.node_type, pending.cluster)
            want_k = max(p.k for p in ranks
                         if (p.node_type, p.cluster) == key)
            if key not in ranked:
                try:
                    ranked[key] = self.runtime.engine.rank(
                        pending.node_type, k=want_k, cluster=pending.cluster)
                except Exception as exc:  # noqa: BLE001 — per-key verdict
                    ranked[key] = exc
        scored: List[Any] = []
        for pending in titles:
            try:
                scored.append(self.runtime.engine.score_title(pending.title))
            except Exception as exc:  # noqa: BLE001 — per-title verdict
                scored.append(exc)
        return predicted, ranked, scored

    # ------------------------------------------------------------------
    def _resolve_result(self, pending: _Pending, value: Any) -> None:
        if not pending.future.done():
            pending.future.set_result(value)
            self.resolutions += 1

    def _resolve_exception(self, pending: _Pending,
                           exc: BaseException) -> None:
        if not pending.future.done():
            pending.future.set_exception(exc)
            self.resolutions += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Batching state for ``/metrics``."""
        out = self.metrics.snapshot()
        out["queue_depth"] = self.queue.depth
        out["queue_capacity"] = self.queue.capacity
        out["settings"] = {
            "max_batch_size": self.settings.max_batch_size,
            "max_wait_ms": self.settings.max_wait_ms,
            "max_queue_depth": self.settings.max_queue_depth,
        }
        return out
