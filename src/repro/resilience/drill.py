"""``python -m repro.resilience.drill`` — prove the recovery paths work.

Runs seeded end-to-end disaster drills on a tiny synthetic world and
reports PASS/FAIL per drill (non-zero exit on any failure):

``resume``       kill CATE-HGN training mid-run (fault injection), resume
                 from the checkpoint directory, assert the final model
                 state and predictions are **bitwise** identical to an
                 uninterrupted run.
``resume-gnn``   the same guarantee for the R-GCN baseline trainer.
``sample-resume`` kill minibatch neighbor-sampled training mid-epoch,
                 resume, assert the sampler replays the exact remaining
                 batch sequence and predictions are **bitwise** identical.
``divergence``   poison one optimization step with NaN gradients, assert
                 the divergence guard rolls back exactly once, backs off
                 the learning rate, and training still completes.
``atomicity``    kill the writer between temp-write and rename, truncate
                 and bit-flip snapshot files, assert loaders either fall
                 back to the previous good snapshot or raise
                 :class:`CheckpointCorruptError` — never half-load.
``quarantine``   poison the ingestion pipeline (future-cite, duplicate
                 and dangling citation edges), assert the ``strict``
                 contract policy rejects the graph, and that training on
                 the ``repair``-validated graph replays the clean run's
                 trajectory, state and predictions **bitwise**.
``degrade``      inject engine failures under a live HTTP server, assert
                 the circuit breaker trips and every request is still
                 answered 200 from the cache/prior fallback chain — zero
                 5xx — and that a shadow-validation-failed hot reload
                 leaves the old engine serving.
``batching``     the same zero-5xx guarantee under the asyncio runtime's
                 cross-request dynamic batching: concurrent bursts, the
                 engine killed mid-run, every coalesced request still
                 answered 200 (degraded, from the prior) and every
                 queued request resolved exactly once — nothing dropped,
                 nothing double-answered.
``race``         inject the classic AB/BA lock inversion plus a
                 lock-held ``time.sleep`` and assert the tsan-lite
                 runtime detector (``repro.analysis.concurrency``)
                 diagnoses both before anything can deadlock.
``fleet``        SIGKILL a serving-fleet replica under 1000-client
                 concurrent load, assert **zero 5xx** and exactly one
                 response per request (failover retries are invisible to
                 clients), the supervisor restarts the replica and
                 re-admits it to the hash ring, and the prediction
                 caches re-warm with bitwise-identical answers.
``worker-death`` kill one elastic-training worker mid-run (hard
                 ``os._exit`` at a chosen shard/step), assert the
                 coordinator reassigns the shard from its last-acked
                 sampler state and the run's remaining batch sequence,
                 trajectory fingerprint, and final parameters are
                 **bitwise** identical to an undisturbed run's.
``netsplit``     partition the coordinator↔worker link mid-step in
                 TCP elastic training (frame-level fault at the exact
                 ``push_result``), assert the worker's lease lapses,
                 its replacement runs at an advanced fence generation,
                 the healed **zombie's stale push is rejected at the
                 fence**, and the trajectory stays **bitwise**
                 identical to an undisturbed shared-memory run.
``router-failover`` kill the active fleet router under 1000-client
                 concurrent load with a warm standby armed, assert the
                 standby takes over the public port with **zero failed
                 requests and zero 5xx**, the ring survives intact,
                 and the promoted router serves bitwise-identical
                 predictions.

These are the same scenarios the test suite pins; the CLI exists so an
operator can re-certify the machinery on their own box in seconds::

    PYTHONPATH=src python -m repro.resilience.drill
    PYTHONPATH=src python -m repro.resilience.drill --only divergence -v
"""

from __future__ import annotations

import argparse
import tempfile
import time
import traceback
import warnings
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import faults
from .errors import CheckpointCorruptError, CrashInjected
from .snapshot import SnapshotStore


# ----------------------------------------------------------------------
# Tiny deterministic fixtures (kept small: the whole drill is seconds)
# ----------------------------------------------------------------------
def _tiny_dataset():
    from ..data import TextArtifacts, WorldConfig, generate_world, make_dblp_full

    world = generate_world(WorldConfig(
        num_papers=120, num_authors=50, venues_per_domain=2, seed=11,
        domain_names=("data", "learning", "system"),
    ))
    text = TextArtifacts.fit(world, dim=16)
    return make_dblp_full(world=world, text=text)


def _tiny_estimator():
    from ..core.model import CATEHGNConfig
    from ..core.trainer import CATEHGN

    config = CATEHGNConfig(dim=8, num_layers=2, outer_iters=5, mini_iters=2,
                           center_iters=1, kappa=12, num_clusters=4,
                           patience=10, seed=0)
    return CATEHGN(config)


def _state_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _check(condition: bool, message: str) -> None:
    """Drill verdict as an explicit raise (lint rule R006: no bare
    ``assert`` in library code — ``-O`` must not silence a drill)."""
    if not condition:
        raise AssertionError(message)


# ----------------------------------------------------------------------
# Drills
# ----------------------------------------------------------------------
def drill_resume(log: Callable[[str], None]) -> None:
    """Kill-and-resume must replay the uninterrupted trajectory bitwise."""
    dataset = _tiny_dataset()

    reference = _tiny_estimator()
    reference.fit(dataset)
    ref_pred = reference.predict()
    ref_state = reference.model.state_dict()
    log(f"reference run: {len(reference.history.train_loss)} "
        f"outer iterations")

    with tempfile.TemporaryDirectory() as tmp:
        victim = _tiny_estimator()
        try:
            with faults.crash_at_outer(3):
                victim.fit(dataset, checkpoint_dir=tmp)
            raise AssertionError("crash fault never fired")
        except CrashInjected:
            log("killed training at outer iteration 3")

        resumed = _tiny_estimator()
        resumed.fit(dataset, checkpoint_dir=tmp, resume=True)
        events = [e for e in resumed.history.events if e["type"] == "resume"]
        log(f"resumed from {events[0]['path']}" if events
            else "no resume event recorded!")
        _check(bool(events), "resume did not record a resume event")
        _check(_state_equal(ref_state, resumed.model.state_dict()),
               "resumed model state differs from the uninterrupted run")
        _check(np.array_equal(ref_pred, resumed.predict()),
               "resumed predictions differ from the uninterrupted run")
    log("state + predictions bitwise identical after resume")


def drill_resume_gnn(log: Callable[[str], None]) -> None:
    """Same kill-and-resume guarantee for the baseline trainer (R-GCN)."""
    from ..baselines import RGCN
    from ..baselines.gnn_common import GNNTrainConfig

    dataset = _tiny_dataset()
    config = GNNTrainConfig(epochs=6, eval_every=1, patience=10, seed=0)

    reference = RGCN(config)
    reference.fit(dataset)
    ref_pred = reference.predict()
    ref_state = reference.network.state_dict()

    with tempfile.TemporaryDirectory() as tmp:
        victim = RGCN(config)
        try:
            with faults.crash_at_epoch(3):
                victim.fit(dataset, checkpoint_dir=tmp)
            raise AssertionError("crash fault never fired")
        except CrashInjected:
            log("killed baseline training at epoch 3")
        resumed = RGCN(config)
        resumed.fit(dataset, checkpoint_dir=tmp, resume=True)
        _check(_state_equal(ref_state, resumed.network.state_dict()),
               "resumed baseline network differs from the uninterrupted run")
        _check(np.array_equal(ref_pred, resumed.predict()),
               "resumed baseline predictions differ")
    log("baseline state + predictions bitwise identical after resume")


def drill_sample_resume(log: Callable[[str], None]) -> None:
    """Kill-and-resume mid-epoch under minibatch neighbor sampling.

    The snapshot must carry the sampler's RNG + cursor state so the
    resumed run replays the *exact remaining batch sequence* — the same
    seed ids in the same order — and lands on bitwise-identical
    predictions.
    """
    from ..data.sampling import MinibatchSampler

    dataset = _tiny_dataset()

    def make_sampler() -> MinibatchSampler:
        return MinibatchSampler(batch_size=32, fanouts=5, replace=False,
                                shuffle=True, seed=0, record_seeds=True)

    reference = _tiny_estimator()
    ref_sampler = make_sampler()
    reference.fit(dataset, sampler=ref_sampler)
    ref_pred = reference.predict()
    ref_seeds = ref_sampler.seed_log
    log(f"reference run: {len(ref_seeds)} sampled minibatches")

    with tempfile.TemporaryDirectory() as tmp:
        victim = _tiny_estimator()
        victim_sampler = make_sampler()
        try:
            with faults.crash_at_outer(3):
                victim.fit(dataset, sampler=victim_sampler,
                           checkpoint_dir=tmp)
            raise AssertionError("crash fault never fired")
        except CrashInjected:
            log(f"killed sampled training after "
                f"{len(victim_sampler.seed_log)} minibatches")

        resumed = _tiny_estimator()
        resumed_sampler = make_sampler()
        resumed.fit(dataset, sampler=resumed_sampler,
                    checkpoint_dir=tmp, resume=True)
        replayed = victim_sampler.seed_log + resumed_sampler.seed_log
        _check(len(replayed) == len(ref_seeds),
               "resumed run sampled a different number of minibatches")
        _check(all(np.array_equal(a, b)
                   for a, b in zip(replayed, ref_seeds)),
               "resumed sampler did not replay the remaining batch "
               "sequence of the uninterrupted run")
        _check(np.array_equal(ref_pred, resumed.predict()),
               "resumed sampled-training predictions differ from the "
               "uninterrupted run")
        log(f"resumed run replayed the remaining "
            f"{len(resumed_sampler.seed_log)} minibatches identically")
    log("sampler state + predictions bitwise identical after resume")


def drill_divergence(log: Callable[[str], None]) -> None:
    """A NaN-poisoned step must trigger exactly one rollback + LR backoff."""
    dataset = _tiny_dataset()
    est = _tiny_estimator()
    originals = [est.config.lr, est.config.center_lr]
    with faults.nan_in_grad(iter=2):
        est.fit(dataset)
    rollbacks = [e for e in est.history.events if e["type"] == "rollback"]
    _check(len(rollbacks) == 1,
           f"expected exactly 1 rollback, got {len(rollbacks)}")
    event = rollbacks[0]
    log(f"rollback at outer {event['step']} (reason: {event['reason']})")
    _check(len(event["lr"]) == len(originals) and all(
        lr < lr0 for lr, lr0 in zip(event["lr"], originals)
    ), f"learning rates not backed off: {event['lr']} vs {originals}")
    _check(len(est.history.train_loss) > 0 and est.model is not None,
           "training did not complete after rollback")
    final = est.predict()
    _check(bool(np.all(np.isfinite(final))),
           "post-rollback predictions not finite")
    log(f"training completed {len(est.history.train_loss)} outer "
        f"iterations with finite predictions")


def drill_atomicity(log: Callable[[str], None]) -> None:
    """Snapshot writes survive kills; corrupt files never half-load."""
    with tempfile.TemporaryDirectory() as tmp:
        store = SnapshotStore(tmp, keep_last=3)
        rng = np.random.default_rng(0)
        for step in range(3):
            store.save(step, {"kind": "drill", "step": step},
                       {"w": rng.normal(size=(4, 3))})
        good = store.load_latest()
        _check(good is not None and good.step == 2,
               "latest snapshot missing before the kill drill")

        # Kill between temp-write and rename: step-2 file must survive.
        try:
            with faults.kill_before_replace():
                store.save(3, {"kind": "drill", "step": 3},
                           {"w": rng.normal(size=(4, 3))})
            raise AssertionError("kill fault never fired")
        except CrashInjected:
            log("writer killed between temp-write and rename, as injected")
        latest = store.load_latest()
        _check(latest is not None and latest.step == 2,
               "kill-before-replace lost the previous good snapshot")
        _check(_state_equal(latest.arrays, good.arrays),
               "surviving snapshot arrays differ from the pre-kill read")
        log("kill between temp-write and rename: previous snapshot intact")

        # Truncate the newest snapshot: loader must fall back to step 1.
        newest = store.path_for(2)
        payload = newest.read_bytes()
        newest.write_bytes(payload[: len(payload) // 2])
        try:
            store.load(2)
            raise AssertionError("truncated snapshot loaded without error")
        except CheckpointCorruptError as exc:
            log(f"truncated load rejected: {exc}")
        with warnings.catch_warnings():
            # load_latest warns as it skips the corrupt file — that is
            # exactly the behaviour under drill, not noise for the operator.
            warnings.simplefilter("ignore", RuntimeWarning)
            fallback = store.load_latest()
        _check(fallback is not None and fallback.step == 1,
               "load_latest did not fall back past the truncated snapshot")
        log("truncated snapshot rejected; fell back to previous good")

        # Bit-flip: checksum verification must catch silent corruption.
        newest.write_bytes(payload)  # restore
        flipped = bytearray(payload)
        flipped[len(flipped) // 2] ^= 0xFF
        newest.write_bytes(bytes(flipped))
        try:
            store.load(2)
            raise AssertionError("bit-flipped snapshot loaded without error")
        except CheckpointCorruptError as exc:
            log(f"bit-flipped load rejected: {exc}")
        log("bit-flipped snapshot rejected by checksum")


def drill_quarantine(log: Callable[[str], None]) -> None:
    """Poisoned ingestion + ``repair`` must replay the clean run bitwise.

    The poison set is append-only on citation edges (a future-cite and a
    duplicate reference at record level, a dangling edge at graph level),
    so quarantine-and-drop restores the clean graph exactly — and the
    repaired training run owes the clean run a **bitwise** trajectory.
    """
    from ..contracts import ContractViolation, validate_graph

    clean = _tiny_dataset()
    reference = _tiny_estimator()
    reference.fit(clean)
    ref_pred = reference.predict()
    ref_state = reference.model.state_dict()
    log(f"clean reference run: {len(reference.history.train_loss)} "
        f"outer iterations")

    injector = (faults.FaultInjector()
                .corrupt_record("future_cite")
                .corrupt_record("dup_cite")
                .poison_graph("dangling"))
    with injector:
        poisoned = _tiny_dataset()
    _check(injector.fired() == 3,
           f"expected 3 ingestion faults to fire, got {injector.fired()}")
    log("poisoned ingestion: future-cite + duplicate + dangling edge")

    try:
        validate_graph(poisoned.graph, policy="strict")
        raise AssertionError("strict policy accepted the poisoned graph")
    except ContractViolation as exc:
        codes = set(exc.report.codes())
        _check({"C002", "C003", "C004"} <= codes,
               f"poison not fully detected: {sorted(codes)}")
        log(f"strict policy rejected the graph: {exc.report.summary()}")

    victim = _tiny_estimator()
    victim.fit(poisoned, validate="repair")
    quarantines = [e for e in victim.history.events
                   if e["type"] == "quarantine"]
    _check(len(quarantines) == 1,
           f"expected 1 quarantine event, got {len(quarantines)}")
    log(f"repair policy quarantined: "
        f"{quarantines[0]['report'].get('repaired', {})}")

    _check(np.array_equal(np.asarray(reference.history.train_loss),
                          np.asarray(victim.history.train_loss)),
           "repaired-run loss trajectory differs from the clean run")
    _check(_state_equal(ref_state, victim.model.state_dict()),
           "repaired-run model state differs from the clean run")
    _check(np.array_equal(ref_pred, victim.predict()),
           "repaired-run predictions differ from the clean run")
    log("trajectory + state + predictions bitwise identical to clean run")


def drill_degrade(log: Callable[[str], None]) -> None:
    """Engine faults under live HTTP: breaker trips, prior answers, no 5xx."""
    import json
    import urllib.error
    import urllib.request

    from ..core.trainer import GraphBatch  # noqa: F401 — warm import
    from ..serve import (BackgroundAsyncServer, CircuitBreaker,
                         InferenceEngine, ServingRuntime, save_catehgn)

    dataset = _tiny_dataset()
    est = _tiny_estimator()
    est.fit(dataset)

    with tempfile.TemporaryDirectory() as tmp:
        path = save_catehgn(est, f"{tmp}/model.npz")
        engine = InferenceEngine.from_checkpoint(path)
        _check(engine.prior is not None,
               "checkpoint did not bake a prior head")
        runtime = ServingRuntime(engine, breaker=CircuitBreaker(
            failure_threshold=2, recovery_seconds=60.0))
        server = BackgroundAsyncServer(engine, runtime=runtime)
        host, port = server.start()
        base = f"http://{host}:{port}"

        def call(method: str, endpoint: str, body: Optional[dict] = None):
            data = None if body is None else json.dumps(body).encode()
            req = urllib.request.Request(
                base + endpoint, data=data, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(req, timeout=10) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        try:
            status, body = call("POST", "/predict", {"paper_ids": [0, 1, 2]})
            _check(status == 200 and body["source"] == "model"
                   and body["degraded"] is False,
                   f"healthy request not served by the model: {body}")
            log("healthy request served from source=model")

            with faults.fail_engine(times=10):
                responses = [call("POST", "/predict", {"paper_ids": [5]})
                             for _ in range(4)]
                responses.append(call("GET", "/predict?ids=0", None))
            statuses = [s for s, _ in responses]
            _check(all(s == 200 for s in statuses),
                   f"expected zero 5xx under engine fault, got {statuses}")
            _check(all(b["degraded"] is True for _, b in responses),
                   "fault-window responses not tagged degraded")
            sources = [b["source"] for _, b in responses]
            _check(all(s == "prior" for s in sources[:4]),
                   f"uncached ids not served by the prior head: {sources}")
            _check(sources[4] == "cache",
                   f"cached id not served from the cache: {sources[4]}")
            log(f"5/5 fault-window requests answered 200 "
                f"(sources: {sources})")

            status, health = call("GET", "/healthz", None)
            _check(status == 200 and health["status"] == "degraded"
                   and health["breaker"] == "open",
                   f"healthz did not report the open breaker: {health}")
            status, metrics = call("GET", "/metrics", None)
            _check(metrics["breaker"]["trips"] >= 1,
                   f"breaker never tripped: {metrics['breaker']}")
            _check(metrics["served"]["prior"] == 4
                   and metrics["served"]["cache"] == 1,
                   f"fallback counters wrong: {metrics['served']}")
            log("breaker open in /healthz; fallback counters in /metrics")

            # Shadow-validation gate: a corrupt candidate must be
            # rejected with 409 and the old engine must keep serving.
            bad = f"{tmp}/bad.npz"
            with open(bad, "wb") as fh:
                fh.write(b"this is not a checkpoint")
            old_engine = runtime.engine
            status, body = call("POST", "/admin/reload", {"path": bad})
            _check(status == 409 and body["reloaded"] is False,
                   f"corrupt reload not rejected: {status} {body}")
            _check(runtime.engine is old_engine,
                   "rejected reload swapped the engine anyway")
            status, body = call("POST", "/predict", {"paper_ids": [0]})
            _check(status == 200,
                   f"old engine stopped serving after rejected reload: "
                   f"{status}")
            log("corrupt reload rejected with 409; old engine kept serving")

            # A good candidate passes all gates and resets the breaker.
            status, body = call("POST", "/admin/reload", {"path": str(path)})
            _check(status == 200 and body["reloaded"] is True
                   and body["golden_checked"] > 0,
                   f"good reload rejected: {status} {body}")
            status, health = call("GET", "/healthz", None)
            _check(health["breaker"] == "closed",
                   f"reload did not reset the breaker: {health}")
            status, body = call("POST", "/predict", {"paper_ids": [7]})
            _check(status == 200 and body["source"] == "model",
                   f"post-reload request not served by the model: {body}")
            log("valid reload passed shadow validation; breaker reset, "
                "source=model again")
        finally:
            server.shutdown()


def drill_race(log: Callable[[str], None]) -> None:
    """The tsan-lite detector must trip on a seeded lock inversion.

    Injects the classic AB/BA deadlock (two threads taking two locks in
    opposite orders) and a lock-held ``time.sleep``, and asserts the
    runtime detector (:mod:`repro.analysis.concurrency.runtime`)
    diagnoses both *before* anything can actually hang.
    """
    import threading

    from ..analysis.concurrency import (
        InstrumentedLock,
        LockHeldIOError,
        LockOrderError,
        detect_races,
    )

    # -- seeded AB/BA inversion ----------------------------------------
    with detect_races(patch_factories=False) as detector:
        lock_a = InstrumentedLock(name="drill.A")
        lock_b = InstrumentedLock(name="drill.B")
        with lock_a:
            with lock_b:  # main thread records the order A -> B
                pass
        log("main thread established lock order A -> B")

        caught: List[BaseException] = []

        def inverted() -> None:
            try:
                with lock_b:
                    with lock_a:  # closes the cycle: B -> A
                        pass
            except LockOrderError as exc:
                caught.append(exc)

        worker = threading.Thread(target=inverted)
        worker.start()
        worker.join(timeout=10)
        _check(not worker.is_alive(), "inversion thread hung (deadlock the "
               "detector was supposed to preempt)")
        _check(len(caught) == 1,
               "seeded B -> A inversion was not detected")
        _check(len(detector.violations) == 1,
               f"expected exactly 1 violation, got {detector.violations}")
        log(f"inversion diagnosed before blocking: {caught[0]}")

    # -- seeded lock-held sleep ----------------------------------------
    with detect_races() as detector:  # patched factories: stdlib locks
        lock = threading.Lock()
        try:
            with lock:
                time.sleep(0.001)
            raise AssertionError("lock-held sleep was not detected")
        except LockHeldIOError as exc:
            log(f"lock-held sleep diagnosed: {exc}")
        detector.violations.clear()  # consumed above; window exits clean
    log("race detector drill: both seeded hazards diagnosed")


def drill_batching(log: Callable[[str], None]) -> None:
    """Engine faults under concurrent *batched* load (asyncio runtime).

    The dynamic batcher coalesces concurrent requests into shared
    engine forwards, so one engine failure now threatens a whole batch
    of clients at once.  This drill fires concurrent bursts at the
    asyncio server, kills the engine mid-run (same
    ``engine.predict`` fault site as the ``degrade`` drill), and
    asserts the two invariants that make batching operable:

    * **zero 5xx** — every fault-window request degrades to a 200 via
      the breaker fallback chain (model → cache → prior), exactly as
      unbatched requests would;
    * **exactly one response per request** — nothing queued is dropped
      or double-resolved, which the batcher's ``resolutions`` counter
      and the admission accounting pin from both sides.
    """
    import json
    import threading
    import urllib.error
    import urllib.request

    from ..serve import (BackgroundAsyncServer, BatchSettings,
                         CircuitBreaker, InferenceEngine, ServingRuntime,
                         save_catehgn)

    dataset = _tiny_dataset()
    est = _tiny_estimator()
    est.fit(dataset)

    with tempfile.TemporaryDirectory() as tmp:
        path = save_catehgn(est, f"{tmp}/model.npz")
        engine = InferenceEngine.from_checkpoint(path)
        runtime = ServingRuntime(engine, breaker=CircuitBreaker(
            failure_threshold=2, recovery_seconds=60.0))
        # A generous wait watermark so the concurrent bursts reliably
        # coalesce — the drill is about batched failure, not latency.
        bg = BackgroundAsyncServer(
            engine, runtime=runtime,
            settings=BatchSettings(max_batch_size=64, max_wait_ms=20.0))
        host, port = bg.start()
        base = f"http://{host}:{port}"

        def call(method: str, endpoint: str, body: Optional[dict] = None):
            data = None if body is None else json.dumps(body).encode()
            req = urllib.request.Request(
                base + endpoint, data=data, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        def burst(threads: int, per_thread: int, id_offset: int):
            """Concurrent predict burst; returns every (status, body)."""
            results: List = []
            results_lock = threading.Lock()
            barrier = threading.Barrier(threads)

            def worker(t: int) -> None:
                barrier.wait(timeout=30)
                for i in range(per_thread):
                    pid = (id_offset + t * per_thread + i) % engine.num_papers
                    out = call("POST", "/predict", {"paper_ids": [pid]})
                    with results_lock:
                        results.append(out)

            pool = [threading.Thread(target=worker, args=(t,))
                    for t in range(threads)]
            for th in pool:
                th.start()
            for th in pool:
                th.join(timeout=60)
            _check(not any(th.is_alive() for th in pool),
                   "burst worker hung — a queued request never got "
                   "its response")
            return results

        try:
            healthy = burst(8, 3, id_offset=0)
            _check(len(healthy) == 24,
                   f"expected 24 healthy responses, got {len(healthy)}")
            _check(all(s == 200 and b["source"] == "model"
                       and b["degraded"] is False for s, b in healthy),
                   "healthy burst not fully served by the model")
            log("healthy burst: 24/24 answered 200 from source=model")

            with faults.fail_engine(times=10):
                faulted = burst(8, 3, id_offset=24)
            statuses = sorted({s for s, _ in faulted})
            _check(len(faulted) == 24,
                   f"expected 24 fault-window responses, got {len(faulted)}")
            _check(statuses == [200],
                   f"expected zero 5xx under engine fault, got {statuses}")
            _check(all(b["degraded"] is True and b["source"] == "prior"
                       for _, b in faulted),
                   "fault-window responses not degraded prior fallbacks")
            log("fault burst: 24/24 answered 200 (degraded, source=prior) "
                "— zero 5xx")

            status, health = call("GET", "/healthz")
            _check(status == 200 and health["breaker"] == "open"
                   and health["status"] == "degraded",
                   f"healthz did not report the open breaker: {health}")

            # Exactly-one-response accounting, from both sides: every
            # admitted request was resolved exactly once, and every
            # resolved future was observed as an HTTP response above.
            status, metrics = call("GET", "/metrics")
            batching = metrics["batching"]
            _check(batching["admitted"] == 48,
                   f"admission accounting off: {batching['admitted']} != 48")
            _check(batching["batched_requests"] == 48,
                   f"batch accounting off: "
                   f"{batching['batched_requests']} != 48")
            _check(bg.app.batcher.resolutions == 48,
                   f"future resolutions off: "
                   f"{bg.app.batcher.resolutions} != 48")
            _check(batching["batches"] < 48,
                   f"concurrent bursts never coalesced: "
                   f"{batching['batches']} batches for 48 requests")
            _check(batching["failed_batches"] == 0,
                   f"batches surfaced failures despite the fallback "
                   f"chain: {batching['failed_batches']}")
            log(f"48 requests → {batching['batches']} batches "
                f"(mean {batching['mean_batch_size']:.1f}), every future "
                f"resolved exactly once")
        finally:
            bg.shutdown()


def drill_fleet(log: Callable[[str], None]) -> None:
    """Replica death under 1000-client load: zero 5xx, exactly-once.

    Boots a 2-replica :class:`~repro.fleet.ServingFleet`, drives 1000
    concurrent keep-alive clients through the consistent-hash router,
    and SIGKILLs one replica mid-load.  Asserts:

    * every scripted request gets **exactly one** response, all 200 —
      the router's failover (retry ring successors on connection
      errors; predictions are idempotent) absorbs the death invisibly;
    * the supervisor restarts the dead replica and re-admits it to the
      ring (visible in ``/fleet/status`` with ``restarts >= 1``);
    * caches re-warm: the same request body answered before the kill
      is answered bitwise-identically after recovery, and the fleet's
      aggregate cache counters show hits again.
    """
    import threading

    from ..fleet import ServingFleet
    from ..fleet.client import predict_scripts, run_load
    from ..fleet.heartbeat import http_json
    from ..serve import save_catehgn

    dataset = _tiny_dataset()
    est = _tiny_estimator()
    est.fit(dataset)
    num_papers = dataset.num_papers

    with tempfile.TemporaryDirectory() as tmp:
        path = save_catehgn(est, f"{tmp}/model.npz")
        fleet = ServingFleet(str(path), 2, probe_interval=0.2)
        host, port = fleet.start()
        try:
            probe_body = {"paper_ids": [3, 1, 4]}
            status, before = http_json(host, port, "POST", "/predict",
                                       probe_body)
            _check(status == 200, f"warmup predict failed: {status}")

            clients, per_client = 1000, 2
            scripts = predict_scripts(clients, per_client, num_papers,
                                      seed=23)
            holder: List = []
            load = threading.Thread(
                target=lambda: holder.append(
                    run_load(host, port, scripts)))
            load.start()
            time.sleep(0.5)  # let the load ramp before pulling a replica
            victim = fleet.supervisor.replica_names()[0]
            pid = fleet.supervisor.kill_replica(victim)
            log(f"killed {victim} (pid {pid}) mid-load")
            load.join(timeout=240)
            _check(not load.is_alive(), "load generator hung")
            result = holder[0]

            total = clients * per_client
            _check(result.failures == 0,
                   f"{result.failures} requests never answered "
                   f"(exactly-once broken on the drop side)")
            _check(len(result.statuses) == total,
                   f"expected {total} responses, got {len(result.statuses)} "
                   f"(exactly-once broken on the duplicate side)")
            _check(result.server_errors() == 0,
                   f"5xx leaked through failover: "
                   f"{sorted(set(result.statuses))}")
            _check(result.count(200) == total,
                   f"non-200 responses: {sorted(set(result.statuses))}")
            log(f"{total}/{total} requests answered 200 through the kill "
                f"window — zero 5xx")

            deadline = time.monotonic() + 60
            healed = False
            while time.monotonic() < deadline:
                status, snap = http_json(host, port, "GET", "/fleet/status")
                rep = snap["replicas"][victim]
                if (status == 200 and rep["alive"] and rep["restarts"] >= 1
                        and victim in snap["ring"]):
                    healed = True
                    break
                time.sleep(0.2)
            _check(healed, f"supervisor never restarted {victim}")
            log(f"supervisor restarted {victim} and re-admitted it "
                f"to the ring")

            status, after = http_json(host, port, "POST", "/predict",
                                      probe_body)
            _check(status == 200 and after == before,
                   "post-recovery predictions differ from pre-kill")
            http_json(host, port, "POST", "/predict", probe_body)
            status, metrics = http_json(host, port, "GET", "/metrics")
            hits = sum(r.get("cache", {}).get("hits", 0)
                       for r in metrics["replicas"].values()
                       if isinstance(r, dict))
            _check(hits > 0, "prediction caches never re-warmed")
            log("caches re-warmed; answers bitwise-identical to pre-kill")
        finally:
            fleet.shutdown()


def drill_worker_death(log: Callable[[str], None]) -> None:
    """Elastic training absorbs a worker kill bitwise.

    Runs the K=2 elastic trainer undisturbed for a reference, then
    reruns it with ``faults.kill_worker(shard=1, step=2)`` — a hard
    ``os._exit`` in the worker process, no cleanup.  The coordinator
    must detect the death, rebuild the shard's sampler from its
    last-acked snapshot state, re-issue the in-flight step, and finish
    with the **bitwise-identical** remaining batch sequence (per-step
    seed hashes), trajectory fingerprint, and final parameters.
    """
    from ..fleet import ElasticTrainer

    dataset = _tiny_dataset()
    config = _tiny_estimator().config

    reference = ElasticTrainer(config, num_workers=2, steps=4).fit(dataset)
    _check(reference.deaths == [],
           f"undisturbed run reported deaths: {reference.deaths}")
    log(f"reference run: fingerprint {reference.fingerprint[:16]}…")

    with faults.kill_worker(shard=1, step=2):
        survived = ElasticTrainer(config, num_workers=2, steps=4).fit(dataset)
    _check(len(survived.deaths) == 1,
           f"expected exactly one worker death, got {survived.deaths}")
    death = survived.deaths[0]
    _check(death["shard"] == 1 and death["step"] == 2,
           f"death recorded at the wrong site: {death}")
    log(f"worker shard={death['shard']} killed at step {death['step']} "
        f"(exit {death['exitcode']}), coordinator respawned it")

    _check(survived.seed_hashes == reference.seed_hashes,
           "remaining batch sequence diverged after reassignment")
    _check(survived.fingerprint == reference.fingerprint,
           f"trajectory fingerprint diverged: {survived.fingerprint[:16]}… "
           f"!= {reference.fingerprint[:16]}…")
    _check(set(survived.state) == set(reference.state)
           and all(np.array_equal(survived.state[k], reference.state[k])
                   for k in reference.state),
           "final parameters are not bitwise-identical")
    _check(survived.losses == reference.losses,
           "per-shard loss trajectory diverged")
    log("killed run matches reference bitwise: batch sequence, "
        "fingerprint, final parameters")


def drill_netsplit(log: Callable[[str], None]) -> None:
    """A mid-step netsplit must fence the zombie and stay bitwise.

    Runs the K=2 elastic trainer over the TCP transport with one
    worker's link routed through a :class:`FaultyTransport` proxy, and
    arms a frame-level partition that black-holes the link at the exact
    ``push_result`` of step 1.  The coordinator must see the lease
    lapse, fence the shard, and respawn it from the last-acked sampler
    state; when the partition heals, the zombie predecessor's stale
    push must be **rejected at the fence** (never reduced); and the
    final trajectory — fingerprint, per-step seed hashes, parameters —
    must be bitwise identical to an undisturbed *shared-memory* run,
    proving cross-transport parity under partition in one stroke.
    """
    import threading

    from ..fleet import ElasticTrainer
    from ..fleet.transport import FaultyTransport

    dataset = _tiny_dataset()
    config = _tiny_estimator().config

    reference = ElasticTrainer(config, num_workers=2, steps=3).fit(dataset)
    _check(reference.transport == "shm" and reference.deaths == [],
           f"undisturbed shm reference not clean: {reference.deaths}")
    log(f"shm reference: fingerprint {reference.fingerprint[:16]}…")

    proxies: Dict[str, FaultyTransport] = {}

    def endpoint_factory(shard: int, gen: int, address):
        # Only the first incarnation of shard 1 rides the faulty link;
        # its fenced replacement dials the coordinator directly.
        if shard == 1 and gen == 0:
            proxy = FaultyTransport(address, link="victim")
            addr = proxy.start()
            proxies["victim"] = proxy
            return addr
        return address

    def healer() -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            proxy = proxies.get("victim")
            if proxy is not None and proxy.partitioned:
                time.sleep(1.5)  # let fencing + respawn land first
                proxy.set_partitioned(False)
                return
            time.sleep(0.05)

    with faults.partition_at("push_result", step=1, link="victim"):
        threading.Thread(target=healer, daemon=True).start()
        result = ElasticTrainer(config, num_workers=2, steps=3,
                                transport="tcp", lease_ttl=1.0,
                                endpoint_factory=endpoint_factory,
                                ).fit(dataset)
    proxies["victim"].stop()

    _check([(d["step"], d["shard"], d["reason"]) for d in result.deaths]
           == [(1, 1, "lease")],
           f"expected one lease death of shard 1 at step 1: "
           f"{result.deaths}")
    log(f"partition at step 1: shard 1 lease lapsed, respawned at "
        f"gen {result.deaths[0]['gen'] + 1}")
    _check(any(r["member"] == "shard-1" and r["stale_gen"] == 0
               for r in result.fenced),
           f"healed zombie was never fenced: {result.fenced}")
    log(f"zombie's stale push rejected at the fence "
        f"({len(result.fenced)} rejection(s))")
    _check(result.fingerprint == reference.fingerprint,
           f"trajectory fingerprint diverged: {result.fingerprint[:16]}… "
           f"!= {reference.fingerprint[:16]}…")
    _check(result.seed_hashes == reference.seed_hashes,
           "remaining batch sequence diverged across the partition")
    _check(set(result.state) == set(reference.state)
           and all(np.array_equal(result.state[k], reference.state[k])
                   for k in reference.state),
           "final parameters are not bitwise-identical")
    log("TCP run under netsplit matches the shm reference bitwise")


def drill_router_failover(log: Callable[[str], None]) -> None:
    """Kill the active router under 1000-client load: zero failures.

    Boots a 2-replica fleet with a warm-standby router mirroring ring
    membership over the transport, drives 1000 concurrent keep-alive
    clients, and kills the active router (public listener + control
    server, no warning) mid-load.  Asserts the standby notices the
    lease lapse, binds the same public port, and that **every scripted
    request is answered 200** — no failures, no 5xx — with the ring
    intact and predictions bitwise-identical through the promoted twin.
    """
    import threading

    from ..fleet import ServingFleet
    from ..fleet.client import predict_scripts, run_load
    from ..fleet.heartbeat import http_json
    from ..serve import save_catehgn

    dataset = _tiny_dataset()
    est = _tiny_estimator()
    est.fit(dataset)
    num_papers = dataset.num_papers

    with tempfile.TemporaryDirectory() as tmp:
        path = save_catehgn(est, f"{tmp}/model.npz")
        fleet = ServingFleet(str(path), 2, probe_interval=0.2,
                             standby=True)
        host, port = fleet.start()
        try:
            probe_body = {"paper_ids": [3, 1, 4]}
            status, before = http_json(host, port, "POST", "/predict",
                                       probe_body)
            _check(status == 200, f"warmup predict failed: {status}")

            clients, per_client = 1000, 2
            scripts = predict_scripts(clients, per_client, num_papers,
                                      seed=29)
            holder: List = []
            load = threading.Thread(
                target=lambda: holder.append(
                    run_load(host, port, scripts)))
            load.start()
            time.sleep(0.5)  # let the load ramp before pulling the router
            fleet.kill_active()
            log("killed the active router (listener + control) mid-load")
            load.join(timeout=240)
            _check(not load.is_alive(), "load generator hung")
            result = holder[0]

            _check(fleet.standby.promoted.wait(10),
                   "standby never promoted")
            log(f"standby took the public port over in "
                f"{fleet.standby.takeover_seconds * 1000:.1f} ms after "
                f"{fleet.standby.syncs} membership syncs")

            total = clients * per_client
            _check(result.failures == 0,
                   f"{result.failures} requests never answered through "
                   f"the takeover window")
            _check(result.server_errors() == 0,
                   f"5xx leaked through the takeover: "
                   f"{sorted(set(result.statuses))}")
            _check(result.count(200) == result.total == total,
                   f"non-200 responses: {sorted(set(result.statuses))}")
            log(f"{total}/{total} requests answered 200 through the "
                f"router kill — zero failures, zero 5xx")

            status, snap = http_json(host, port, "GET", "/fleet/status")
            _check(status == 200
                   and sorted(snap["ring"]) == ["replica-0", "replica-1"],
                   f"ring not intact through takeover: {snap.get('ring')}")
            status, after = http_json(host, port, "POST", "/predict",
                                      probe_body)
            _check(status == 200 and after == before,
                   "post-takeover predictions differ from pre-kill")
            log("ring intact; predictions bitwise-identical through "
                "the promoted router")
        finally:
            fleet.shutdown()


DRILLS: Dict[str, Callable[[Callable[[str], None]], None]] = {
    "resume": drill_resume,
    "resume-gnn": drill_resume_gnn,
    "sample-resume": drill_sample_resume,
    "divergence": drill_divergence,
    "atomicity": drill_atomicity,
    "quarantine": drill_quarantine,
    "degrade": drill_degrade,
    "batching": drill_batching,
    "race": drill_race,
    "fleet": drill_fleet,
    "worker-death": drill_worker_death,
    "netsplit": drill_netsplit,
    "router-failover": drill_router_failover,
}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.drill",
        description="Run seeded disaster drills against the resilience "
                    "machinery (resume, divergence rollback, crash-safe "
                    "writes) and report PASS/FAIL.",
    )
    parser.add_argument("--only", choices=sorted(DRILLS), action="append",
                        help="run only the named drill (repeatable)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-drill progress lines")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names: List[str] = args.only or list(DRILLS)
    failures = 0
    for name in names:
        log = (lambda msg: print(f"    {msg}")) if args.verbose else (
            lambda msg: None)
        start = time.perf_counter()
        print(f"[drill] {name} ...", flush=True)
        try:
            DRILLS[name](log)
        except Exception:  # noqa: BLE001 — a drill failure is the verdict
            failures += 1
            print(f"[drill] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
            traceback.print_exc()
        else:
            print(f"[drill] {name}: PASS ({time.perf_counter() - start:.1f}s)")
    total = len(names)
    print(f"\n{total - failures}/{total} drills passed")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
