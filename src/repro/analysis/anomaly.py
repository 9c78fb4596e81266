"""Opt-in runtime anomaly detection for the autodiff tape.

``detect_anomaly()`` is a context manager that instruments
:class:`repro.tensor.Tensor` for the duration of a ``with`` block:

- every op output created through ``Tensor._make`` is checked for
  NaN/Inf *at the op that produced it* and the creation site (a trimmed
  stack trace) is recorded;
- every backward closure is wrapped so a NaN/Inf gradient flowing into an
  op is reported together with that op's recorded creation site — the
  forward line that built the offending node, not just the loss;
- calling ``backward()`` twice on the same output warns
  (:class:`TapeReuseWarning`) before the engine raises ``RuntimeError``:
  the first pass freed the tape, so there is nothing left to walk;
- on exit (or after each ``backward()``), parameters of any modules
  passed to ``detect_anomaly(modules=...)`` whose ``grad`` is still
  ``None`` are reported as unused (:class:`UnusedParameterWarning`) —
  the classic symptom of a layer constructed but never wired into
  ``forward``.

The instrumentation costs one ``np.isfinite`` reduction per op, so it is
strictly opt-in — production training loops never pay for it.

Usage::

    from repro import analysis

    with analysis.detect_anomaly(modules=[model]):
        loss = model.supervised_loss(state, batch)
        loss.backward()
"""

from __future__ import annotations

import traceback
import warnings
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor import Tensor

__all__ = [
    "AnomalyError",
    "TapeReuseWarning",
    "UnusedParameterWarning",
    "AnomalyGuard",
    "detect_anomaly",
]


class AnomalyError(FloatingPointError):
    """A NaN/Inf was produced by an op while anomaly mode was active."""


class TapeReuseWarning(UserWarning):
    """``backward()`` was called again on an already-consumed tape."""


class UnusedParameterWarning(UserWarning):
    """A parameter received no gradient from ``backward()``."""


def _creation_site(skip: int = 2, depth: int = 6) -> str:
    """A trimmed, formatted stack for the op being recorded.

    ``skip`` drops the instrumentation frames themselves; ``depth`` keeps
    the trace short enough to read in a test failure.
    """
    frames = traceback.extract_stack()[: -skip][-depth:]
    return "".join(traceback.format_list(frames))


class AnomalyGuard:
    """State for one active ``detect_anomaly`` block.

    Attributes
    ----------
    nan_count:
        Number of non-finite op outputs seen (only grows when
        ``action='warn'``; the first one raises otherwise).
    """

    def __init__(
        self,
        modules: Sequence = (),
        check_backward: bool = True,
        action: str = "raise",
    ) -> None:
        if action not in ("raise", "warn"):
            raise ValueError(f"action must be 'raise' or 'warn', got {action!r}")
        self.modules = list(modules)
        self.check_backward = check_backward
        self.action = action
        self.nan_count = 0
        # id(tensor) -> (tensor, creation site).  Strong refs: debug-only
        # mode, bounded by the lifetime of the `with` block.
        self._sites: dict[int, Tuple[Tensor, str]] = {}
        self._consumed: dict[int, Tensor] = {}
        self._saved_make: Optional[staticmethod] = None
        self._saved_backward: Optional[Callable] = None

    # ------------------------------------------------------------------
    def creation_site(self, tensor: Tensor) -> Optional[str]:
        """The recorded creation site of ``tensor``, if it was seen."""
        entry = self._sites.get(id(tensor))
        return entry[1] if entry is not None else None

    def unused_parameters(self) -> List[str]:
        """Names of parameters (across watched modules) with ``grad is None``."""
        unused: List[str] = []
        for i, module in enumerate(self.modules):
            prefix = f"modules[{i}]:" if len(self.modules) > 1 else ""
            for name, param in module.named_parameters():
                if param.grad is None:
                    unused.append(f"{prefix}{name}")
        return unused

    # ------------------------------------------------------------------
    def _flag(self, message: str) -> None:
        self.nan_count += 1
        if self.action == "raise":
            raise AnomalyError(message)
        warnings.warn(message, UserWarning, stacklevel=4)

    def _check_array(self, data: np.ndarray, kind: str, site: str) -> None:
        if not np.all(np.isfinite(data)):
            bad = int(np.size(data) - np.count_nonzero(np.isfinite(data)))
            self._flag(
                f"detect_anomaly: {kind} contains {bad} non-finite value(s) "
                f"(shape={np.shape(data)}).\nOp created at:\n{site}"
            )

    # ------------------------------------------------------------------
    def __enter__(self) -> "AnomalyGuard":
        guard = self
        original_make = Tensor._make  # bound staticmethod
        original_backward = Tensor.backward
        self._saved_make = Tensor.__dict__["_make"]
        self._saved_backward = original_backward

        def instrumented_make(
            data: np.ndarray,
            parents: Iterable[Tensor],
            backward: Callable[[np.ndarray], None],
        ) -> Tensor:
            site = _creation_site()
            guard._check_array(data, "forward output", site)
            parent_tuple = tuple(p for p in parents if isinstance(p, Tensor))
            wrapped = backward
            if guard.check_backward and backward is not None:
                def wrapped(grad: np.ndarray, _bw=backward, _site=site,
                            _parents=parent_tuple):  # type: ignore[misc]
                    # Gradient flowing INTO this op (produced downstream).
                    guard._check_array(grad, "backward gradient", _site)
                    _bw(grad)
                    # Gradients this op's closure just produced for its
                    # parents — catches e.g. d/dx sqrt(x) = inf at x=0
                    # even when the parent is a leaf with no closure.
                    for p in _parents:
                        if p.grad is not None:
                            guard._check_array(
                                p.grad, "gradient produced for a parent", _site
                            )
            out = original_make(data, parent_tuple, wrapped)
            guard._sites[id(out)] = (out, site)
            return out

        def instrumented_backward(tensor: Tensor, grad=None) -> None:
            if id(tensor) in guard._consumed:
                warnings.warn(
                    "detect_anomaly: backward() called again on an "
                    "already-consumed tape (the first pass freed it; "
                    "this call raises RuntimeError)",
                    TapeReuseWarning,
                    stacklevel=2,
                )
            original_backward(tensor, grad)
            guard._consumed[id(tensor)] = tensor
            guard._warn_unused()

        Tensor._make = staticmethod(instrumented_make)
        Tensor.backward = instrumented_backward
        return self

    def _warn_unused(self) -> None:
        for name in self.unused_parameters():
            warnings.warn(
                f"detect_anomaly: parameter {name!r} received no gradient "
                "(grad is None after backward()) — it is not wired into "
                "the forward computation",
                UnusedParameterWarning,
                stacklevel=3,
            )

    def __exit__(self, exc_type, exc, tb) -> None:
        Tensor._make = self._saved_make
        Tensor.backward = self._saved_backward
        self._sites.clear()
        self._consumed.clear()


def detect_anomaly(
    modules: Sequence = (),
    check_backward: bool = True,
    action: str = "raise",
) -> AnomalyGuard:
    """Create an anomaly-detection context (see module docstring).

    Parameters
    ----------
    modules:
        Modules whose parameters are audited for ``grad is None`` after
        every ``backward()`` inside the block.
    check_backward:
        Also check gradients flowing through each backward closure (the
        default; disable to halve the overhead).
    action:
        ``'raise'`` (default) raises :class:`AnomalyError` at the first
        non-finite value; ``'warn'`` emits warnings and keeps counting in
        :attr:`AnomalyGuard.nan_count`.
    """
    return AnomalyGuard(modules=modules, check_backward=check_backward, action=action)
