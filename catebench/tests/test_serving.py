"""Serving metrics over a phase, and the serving output check."""

from __future__ import annotations

import json
import math

from catebench import loadgen, serving


def test_phase_rates_are_whole_phase_figures():
    ok = [loadgen.Exchange(i, 0.0, 0.001, 200, b"") for i in range(90)]
    failed = [loadgen.Exchange(i, 0.0, 0.001, 503, b"") for i in range(10)]
    phase = serving.Phase(
        start_ns=0, end_ns=2_000_000_000, exchanges=ok + failed,
        cpu_before={1: 5.0, 2: 1.0}, cpu_after={1: 5.1, 2: 1.1},
        gen_cpu_s=0.0, peak_rss_kib=0, pids=[1, 2], before={}, after={})
    # 90 successes over 2 s; 0.2 s of tree CPU over all 100 requests.
    assert phase.ops_per_s() == 45.0
    assert math.isclose(phase.cpu_ms_per_op(), 2.0)
    assert math.isclose(phase.cpu_s[2], 0.1)


class _Engine:
    def __init__(self, fitted, scale=1.0):
        self.fitted, self.scale = fitted, scale

    def predict(self, ids):
        return [self.fitted[i] * self.scale for i in ids]

    def score_title(self, title):
        return 0.25


def _body(payload) -> bytes:
    return json.dumps(payload).encode()


def test_id_answers_must_be_the_fitted_models_bit_for_bit():
    fitted = [1.0, 2.0, 3.0]
    want = serving._expected(_Engine(fitted), fitted, {"paper_ids": [2, 0]})
    assert serving._matches(
        want, _body({"paper_ids": [2, 0], "predictions": [3.0, 1.0]}))
    assert not serving._matches(
        want, _body({"paper_ids": [2, 0],
                     "predictions": [3.0, math.nextafter(1.0, 2.0)]}))
    assert not serving._matches(
        want, _body({"paper_ids": [0, 2], "predictions": [3.0, 1.0]}))
    assert not serving._matches(want, b"not json")


def test_an_engine_that_drifted_from_the_fit_fails_every_id_answer():
    fitted = [1.0, 2.0, 3.0]
    drifted = _Engine(fitted, scale=1 + 1e-12)
    assert serving._expected(drifted, fitted, {"paper_ids": [1]}) is None
    title = serving._expected(drifted, fitted, {"title": "graph networks"})
    assert serving._matches(
        title, _body({"prediction": 0.25, "cold_start": True}))
