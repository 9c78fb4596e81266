"""Outside-in layer tracing for the traced benchmark runs.

No program file is edited.  :meth:`Tracer.wrap` replaces a public
function or method of the program with a wrapper that records one span
per call — ``(id, parent, name, start_ns, end_ns, op, thread)`` — on
``time.monotonic_ns``, the clock every process on the host shares, so
the harness can cut a server's spans to its own timed phase.  Spans stay
in memory and are written out once, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children; summed over every layer span of an op, self times give the
share of the op's wall time the trace accounts for (``trace.coverage``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

#: Span name of one benchmark operation (a fit); its descendants are the
#: layer spans whose self times ``trace.coverage`` sums.
OP = "op"


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    op: int
    thread: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Id of the op the spans recorded now belong to (0: none).
        self.op = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield span_id
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   self.op, threading.get_ident()))

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a span timed elsewhere, e.g. from a parent process's clock."""
        self.spans.append(Span(next(self._ids), 0, name, start_ns, end_ns,
                               self.op, threading.get_ident()))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def wrap(self, owner: Any, attr: str, name: str,
             observe: Optional[Callable[[Any], None]] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a class (the attribute must be defined on it, not
        inherited) or a module.  ``observe`` sees each return value, to
        count work at the same boundary.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def load_spans(path) -> List[Span]:
    """The spans of a :meth:`Tracer.dump` file."""
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    return [Span(**record) for record in records if "counters" not in record]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class LayerTotals(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        child_ns[span.parent] += span.duration_ns
    return {span.id: span.duration_ns - child_ns[span.id] for span in spans}


def layer_totals(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Per span name: call count, summed duration and summed self time."""
    spans = list(spans)
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.duration_ns
        self_ns[span.name] += own[span.id]
    return {name: LayerTotals(calls[name], total[name], self_ns[name])
            for name in calls}


def coverage(spans: Iterable[Span]) -> float:
    """Layer self time inside ops ÷ op wall time."""
    spans = [span for span in spans if span.op]
    own = self_times(spans)
    op_ns = sum(span.duration_ns for span in spans if span.name == OP)
    layer_ns = sum(own[span.id] for span in spans if span.name != OP)
    return layer_ns / op_ns if op_ns else 0.0


# ---------------------------------------------------------------------------
# Layer boundaries of the program
# ---------------------------------------------------------------------------

def _install_model_layers(tracer: Tracer) -> None:
    """Boundaries that training and serving share."""
    from repro.core.model import CATEHGNModel
    from repro.hetnet.structure import BatchStructure, EdgeStructure

    tracer.wrap(BatchStructure, "__init__", "structure.batch")
    tracer.wrap(EdgeStructure, "__init__", "structure.edge")
    tracer.wrap(CATEHGNModel, "forward_state", "core.forward")
    tracer.wrap(CATEHGNModel, "predict_papers", "core.predict")


def install_training(tracer: Tracer) -> None:
    """Wrap each layer a CATE-HGN fit runs through."""
    from repro.core.model import CATEHGNModel
    from repro.core.text_enhance import TextEnhancer
    from repro.data.sampling import MinibatchSampler
    from repro.nn.optim import Adam, Optimizer
    from repro.tensor import Tensor

    def count_nodes(minibatch) -> None:
        tracer.count("sampling.nodes",
                     sum(len(ids) for ids in minibatch.nodes.values()))

    _install_model_layers(tracer)
    tracer.wrap(MinibatchSampler, "next_minibatch", "sampling",
                observe=count_nodes)
    tracer.wrap(CATEHGNModel, "hgn_loss", "core.loss")
    tracer.wrap(CATEHGNModel, "ca_loss", "core.loss")
    tracer.wrap(Tensor, "backward", "tensor.backward")
    tracer.wrap(Adam, "step", "optim")
    tracer.wrap(Optimizer, "clip_grad_norm", "optim")
    tracer.wrap(Optimizer, "zero_grad", "optim")
    for method in ("bootstrap", "refine", "rebuild_graph_terms"):
        tracer.wrap(TextEnhancer, method, "te")


def install_serving(tracer: Tracer) -> None:
    """Wrap checkpoint restore, engine freeze and the engine's entry points."""
    import repro.serve.engine as engine_module

    _install_model_layers(tracer)
    tracer.wrap(engine_module, "restore_catehgn", "setup.restore")
    engine = engine_module.InferenceEngine
    tracer.wrap(engine, "__init__", "setup.freeze")
    tracer.wrap(engine, "predict", "engine.predict")
    tracer.wrap(engine, "score_title", "engine.score_title")
