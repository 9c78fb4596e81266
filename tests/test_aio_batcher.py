"""Property tests on the dynamic batcher invariants (DESIGN §16).

The batcher's contract is that coalescing is *invisible* to callers:
whatever interleaving of concurrent requests the collector happens to
flush together, every response must be bitwise what a sequential
unbatched call would have returned, and every submitted request must be
resolved exactly once — also when the engine call fails mid-batch.
These are pinned as hypothesis properties over random mixes of id
requests and cold-start titles, plus deterministic checks of when a
flush happens: at once by default (requests that arrive during a
compute form the next flush), and at the size or the opt-in wait
watermark.
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CATEHGN
from repro.eval.runner import default_cate_config
from repro.serve import (
    AdmissionQueue,
    BatchSettings,
    DynamicBatcher,
    InferenceEngine,
    ServingRuntime,
)

#: Title words: a few the tiny corpus knows and one it never saw.
TITLE_WORDS = ("data", "mining", "graph", "learning", "system", "zzzxqj")


@pytest.fixture(scope="module")
def runtime_pair(tiny_dataset, tmp_path_factory):
    """Two independent runtimes over the same checkpoint.

    Cache-free engines so every prediction exercises the real head
    path: with the LRU on, the reference pass would warm the cache for
    the batched pass and vice versa.
    """
    config = default_cate_config(dim=16, seed=0, outer_iters=1, mini_iters=1)
    est = CATEHGN(config).fit(tiny_dataset)
    path = est.save_checkpoint(tmp_path_factory.mktemp("ckpt") / "model")
    batched = ServingRuntime(InferenceEngine.from_checkpoint(
        path, cache_size=0))
    reference = ServingRuntime(InferenceEngine.from_checkpoint(
        path, cache_size=0))
    return batched, reference


def _run_batched(runtime, submissions, settings_=None):
    """Drive one batcher lifecycle: submit everything concurrently."""

    async def main():
        batcher = DynamicBatcher(
            runtime, settings_ or BatchSettings(max_wait_ms=5.0))
        batcher.start()
        try:
            results = await asyncio.gather(
                *(sub(batcher) for sub in submissions),
                return_exceptions=True)
        finally:
            await batcher.stop()
        return results, batcher

    return asyncio.run(main())


def _titles():
    return st.lists(st.sampled_from(TITLE_WORDS), min_size=1,
                    max_size=4).map(" ".join)


def _request_mixes(num_papers):
    """Lists of id lists (``/predict``) and title strings (cold start)."""
    ids = st.lists(st.integers(min_value=0, max_value=num_papers - 1),
                   min_size=1, max_size=5)
    return st.lists(st.one_of(ids, _titles()), min_size=1, max_size=12)


def _submit(request):
    """The batcher call for one drawn request."""
    if isinstance(request, str):
        return lambda b: b.submit_title(request)
    return lambda b: b.submit_predict(request)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_predict_bitwise_equals_sequential(runtime_pair, data):
    """Any concurrent interleaving == the sequential unbatched responses."""
    batched_rt, reference_rt = runtime_pair
    requests = data.draw(_request_mixes(batched_rt.engine.num_papers))

    results, batcher = _run_batched(
        batched_rt, [_submit(request) for request in requests])

    for request, got in zip(requests, results):
        assert not isinstance(got, BaseException), got
        if isinstance(request, str):
            expected = {
                "prediction": reference_rt.engine.score_title(request),
                "cold_start": True,
            }
        else:
            ref = reference_rt.predict(np.asarray(request, dtype=np.intp))
            expected = {
                "paper_ids": [int(i) for i in request],
                "predictions": [float(p) for p in ref["predictions"]],
                "source": ref["source"],
                "degraded": ref["degraded"],
            }
        assert got == expected  # float-exact, not approx
    assert batcher.resolutions == len(requests)


@settings(max_examples=10, deadline=None)
@given(ks=st.lists(st.integers(min_value=1, max_value=30),
                   min_size=1, max_size=8),
       node_type=st.sampled_from(["paper", "author", "venue"]))
def test_batched_rank_is_stable_prefix(runtime_pair, ks, node_type):
    """Coalesced ranks of mixed k == each unbatched stable-argsort rank."""
    batched_rt, reference_rt = runtime_pair

    results, _ = _run_batched(
        batched_rt,
        [lambda b, k=k: b.submit_rank(node_type, k, None) for k in ks])

    for k, got in zip(ks, results):
        assert not isinstance(got, BaseException), got
        assert got == reference_rt.engine.rank(node_type, k=k, cluster=None)


class _ScriptedRuntime:
    """Engine-free runtime: fails whenever a poisoned id is batched in.

    Titles score as their length; a title naming ``BAD_TITLE`` raises
    the engine's client error for that title alone.  While ``gate`` is
    cleared, ``predict`` parks on the executor thread.
    """

    NUM_PAPERS = 100
    POISON_AT = 50
    BAD_TITLE = "bad"

    class _StubEngine:
        num_papers = 100

        def score_title(self, title):
            if _ScriptedRuntime.BAD_TITLE in title.split():
                raise ValueError("scripted bad title")
            return float(len(title))

    def __init__(self):
        self.engine = self._StubEngine()
        self.calls = 0
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()

    @classmethod
    def poisoned(cls, request) -> bool:
        """Whether ``request`` (ids or a title) can never get a result."""
        if isinstance(request, str):
            return cls.BAD_TITLE in request.split()
        return max(request) >= cls.POISON_AT

    def predict(self, ids):
        self.calls += 1
        self.entered.set()
        self.gate.wait(timeout=30)
        ids = np.asarray(ids)
        if len(ids) and ids.max() >= self.POISON_AT:
            raise RuntimeError("scripted engine failure")
        return {"predictions": ids.astype(np.float64) * 2.0,
                "source": "model", "degraded": False}


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(
    st.one_of(st.lists(st.integers(min_value=0, max_value=99),
                       min_size=1, max_size=4),
              st.sampled_from(["graph mining", "bad", "a bad title"])),
    min_size=1, max_size=16))
def test_every_request_resolved_exactly_once(requests):
    """No drop, no double-resolve — also when the forward raises.

    A poisoned id fails the whole shared forward, so every request in
    that flush gets the exception; requests in clean flushes still get
    results.  A bad title fails only itself.  Either way the resolution
    count must equal the submission count for any interleaving.
    """
    runtime = _ScriptedRuntime()
    results, batcher = _run_batched(
        runtime, [_submit(request) for request in requests])

    assert len(results) == len(requests)
    assert batcher.resolutions == len(requests)
    for request, got in zip(requests, results):
        if isinstance(request, str):
            bad = _ScriptedRuntime.poisoned(request)
            allowed = (ValueError, RuntimeError) if bad else (
                dict, RuntimeError)
            assert isinstance(got, allowed), (request, got)
            if isinstance(got, dict):
                assert got == {"prediction": float(len(request)),
                               "cold_start": True}
            continue
        assert isinstance(got, (dict, RuntimeError)), got
        if isinstance(got, dict):
            # A clean response is always the right slice of the batch.
            assert got["predictions"] == [float(i) * 2.0 for i in request]
    clean = [r for r in results if isinstance(r, dict)]
    poisoned = [r for r in requests if _ScriptedRuntime.poisoned(r)]
    # Every all-clean-flush guarantee we can make without fixing the
    # interleaving: at least the poisoned requests cannot have resolved
    # to results.
    assert len(clean) <= len(requests) - len(poisoned)


def test_bad_title_fails_only_itself():
    """A title's client error does not touch the rest of its flush."""
    runtime = _ScriptedRuntime()
    results, batcher = _run_batched(
        runtime,
        [lambda b: b.submit_title("bad"),
         lambda b: b.submit_title("graph mining"),
         lambda b: b.submit_predict([3])],
        settings_=BatchSettings(max_wait_ms=5_000.0, max_batch_size=3))

    assert batcher.metrics.size_histogram == {3: 1}  # one shared flush
    assert isinstance(results[0], ValueError)
    assert results[1] == {"prediction": 12.0, "cold_start": True}
    assert results[2]["predictions"] == [6.0]


def test_default_collector_never_waits(monkeypatch):
    """Under ``BatchSettings()`` a flush takes what is queued, no timer."""
    waits = []

    async def no_waiting(self, timeout):
        waits.append(timeout)
        raise AssertionError("the collector waited for company")

    monkeypatch.setattr(AdmissionQueue, "get_within", no_waiting)

    async def main():
        batcher = DynamicBatcher(_ScriptedRuntime(), BatchSettings())
        batcher.start()
        try:
            return await asyncio.wait_for(asyncio.gather(
                *(batcher.submit_predict([i]) for i in range(8)),
                batcher.submit_title("graph mining")), timeout=10)
        finally:
            await batcher.stop()

    results = asyncio.run(main())
    assert waits == []
    assert [r["predictions"] for r in results[:8]] == [
        [float(i) * 2.0] for i in range(8)]
    assert results[8]["cold_start"] is True


async def _until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


def test_requests_arriving_during_a_compute_form_the_next_flush():
    """A parked flush of A; B and C queue behind it and flush together."""
    runtime = _ScriptedRuntime()
    runtime.gate.clear()

    async def main():
        batcher = DynamicBatcher(runtime, BatchSettings())
        batcher.start()
        try:
            first = asyncio.ensure_future(batcher.submit_predict([1]))
            await _until(runtime.entered.is_set)
            rest = [asyncio.ensure_future(batcher.submit_predict([2])),
                    asyncio.ensure_future(batcher.submit_title("graph"))]
            await _until(lambda: batcher.queue.depth == 2)
            runtime.gate.set()
            results = await asyncio.gather(first, *rest)
        finally:
            await batcher.stop()
        return results, batcher

    results, batcher = asyncio.run(main())
    assert results[0]["predictions"] == [2.0]
    assert results[1]["predictions"] == [4.0]
    assert results[2] == {"prediction": 5.0, "cold_start": True}
    assert batcher.metrics.size_histogram == {1: 1, 2: 1}


def test_size_watermark_bounds_the_flush():
    """cost >= max_batch_size flushes immediately, not at the deadline."""
    runtime = _ScriptedRuntime()
    settings_ = BatchSettings(max_batch_size=4, max_wait_ms=5_000.0)
    start = time.perf_counter()
    results, batcher = _run_batched(
        runtime,
        [lambda b, i=i: b.submit_predict([i % 40]) for i in range(12)],
        settings_=settings_)
    wall = time.perf_counter() - start

    assert all(isinstance(r, dict) for r in results)
    # Had the 5s wait watermark governed, this would take >= 15s.
    assert wall < 2.0
    sizes = [size for size, n in batcher.metrics.size_histogram.items()
             for _ in range(n)]
    assert max(sizes) <= 4
    assert sum(sizes) == 12


def test_wait_watermark_flushes_partial_batches():
    """A batch below the size watermark flushes at the wait deadline."""
    runtime = _ScriptedRuntime()
    settings_ = BatchSettings(max_batch_size=10_000, max_wait_ms=60.0)
    start = time.perf_counter()
    results, batcher = _run_batched(
        runtime,
        [lambda b, i=i: b.submit_predict([i]) for i in range(3)],
        settings_=settings_)
    wall = time.perf_counter() - start

    assert all(isinstance(r, dict) for r in results)
    # Flushed by the wait watermark: after ~60ms, long before the size
    # watermark could ever fill, and all three coalesced into one flush.
    assert 0.04 <= wall < 5.0
    assert batcher.metrics.batches == 1
    assert batcher.metrics.size_histogram == {3: 1}


def test_shutdown_fails_queued_requests():
    """stop() must resolve (not leak) anything still in the queue."""

    async def main():
        runtime = _ScriptedRuntime()
        batcher = DynamicBatcher(
            runtime, BatchSettings(max_wait_ms=10_000.0,
                                   max_batch_size=10_000))
        batcher.start()
        waiter = asyncio.ensure_future(batcher.submit_predict([1]))
        await asyncio.sleep(0.05)  # let it enter the queue
        # The collector holds it, waiting for the far-away watermarks;
        # stopping must still resolve the future.
        await batcher.stop()
        with pytest.raises(RuntimeError):
            await waiter
        return batcher

    batcher = asyncio.run(main())
    assert batcher.resolutions == 1
