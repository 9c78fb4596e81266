"""Span bookkeeping: self time, coverage, and clean unwrapping."""

from __future__ import annotations

import time

from catebench.tracing import (OP, Span, Tracer, coverage, layer_totals,
                               self_times)


def _span(id_, parent, name, start, end, op=1):
    return Span(id_, parent, name, start, end, op, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0, OP, 0, 100),
        _span(2, 1, "core.forward", 10, 60),
        _span(3, 2, "structure.batch", 20, 30),
        _span(4, 1, "tensor.backward", 60, 95),
    ]
    assert self_times(spans) == {1: 15, 2: 40, 3: 10, 4: 35}
    totals = layer_totals(spans)
    assert totals["core.forward"].total_ns == 50
    assert totals["core.forward"].self_ns == 40
    # Layers cover everything but the op's own 15 ns.
    assert coverage(spans) == 0.85
    # Spans outside any op do not count.
    assert coverage(spans + [_span(5, 0, "core.predict", 100, 200, op=0)]) \
        == 0.85


class _Layer:
    def work(self, value):
        time.sleep(0.001)
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


def test_wrap_records_nested_spans_and_uninstalls():
    original_work = _Layer.__dict__["work"]
    tracer = Tracer()
    seen = []
    tracer.wrap(_Layer, "work", "outer", observe=seen.append)
    tracer.wrap(_Layer, "inner", "inner")
    tracer.op = 7
    with tracer.span(OP):
        assert _Layer().work(3) == 7
    tracer.op = 0
    assert seen == [7]
    names = {span.name: span for span in tracer.spans}
    assert names["inner"].parent == names["outer"].id
    assert names["outer"].parent == names[OP].id
    assert all(span.op == 7 for span in tracer.spans)
    assert 0.9 < coverage(tracer.spans) <= 1.0

    tracer.uninstall()
    assert _Layer.__dict__["work"] is original_work
    _Layer().work(1)
    assert len(tracer.spans) == 3
