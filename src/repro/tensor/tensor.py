"""Reverse-mode automatic differentiation over numpy arrays.

This module is the numerical substrate for everything trainable in the
repository: the CATE-HGN model and every gradient-based baseline are built on
:class:`Tensor`.  The design is a classic dynamic tape — each operation
records its parents and a closure that accumulates gradients into them, and
:meth:`Tensor.backward` walks the tape in reverse topological order.

Only float64 arrays are supported; integer index arrays are passed around as
plain numpy arrays (they are never differentiated).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]


class GradMode:
    """Process-wide autodiff mode switch plus tape observability counters.

    ``enabled`` gates tape construction inside :meth:`Tensor._make`: while
    it is ``False`` every op returns a *constant* tensor — no parents, no
    backward closure, no tape node — regardless of ``requires_grad`` on
    the inputs.  This is strictly stronger than detaching inputs: the
    graph is never built, so an inference forward pass allocates nothing
    beyond its output arrays.

    ``tape_nodes`` counts every tape node created since process start (or
    the last :func:`reset_tape_node_counter`); the inference-mode tests
    assert it stays flat across a ``no_grad()`` forward pass.
    """

    enabled: bool = True
    #: Cumulative count of tape nodes (tensors carrying a backward
    #: closure) created through :meth:`Tensor._make`.
    tape_nodes: int = 0
    #: Times the glibc heap settings were applied: at most once per
    #: process, by its first :meth:`Tensor.backward` (see
    #: :func:`_keep_freed_heap`); 0 where ``mallopt`` is unavailable.
    heap_settings_applied: int = 0


def is_grad_enabled() -> bool:
    """Whether ops currently record onto the autodiff tape."""
    return GradMode.enabled


def tape_nodes_created() -> int:
    """Total tape nodes created so far (see :class:`GradMode`)."""
    return GradMode.tape_nodes


def reset_tape_node_counter() -> None:
    """Zero the tape-node counter (test/benchmark hygiene)."""
    GradMode.tape_nodes = 0


class set_grad_enabled:
    """Context manager / decorator that sets tape recording on or off.

    Re-entrant and exception-safe: the previous mode is restored on exit
    no matter how the block terminates.  Usable as a decorator too::

        @no_grad()
        def serve_one(batch): ...
    """

    def __init__(self, mode: bool) -> None:
        self._mode = bool(mode)
        self._prev: Optional[bool] = None

    def __enter__(self) -> "set_grad_enabled":
        self._prev = GradMode.enabled
        GradMode.enabled = self._mode
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        GradMode.enabled = bool(self._prev)
        return False

    def __call__(self, func):
        import functools

        mode = self._mode

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with set_grad_enabled(mode):
                return func(*args, **kwargs)

        return wrapper


class no_grad(set_grad_enabled):
    """Disable tape recording: ops return constants, gradients never flow."""

    def __init__(self) -> None:
        super().__init__(False)


class enable_grad(set_grad_enabled):
    """Re-enable tape recording inside an outer :class:`no_grad` block."""

    def __init__(self) -> None:
        super().__init__(True)


class inference_mode(no_grad):
    """Tape-free inference context (alias of :class:`no_grad`).

    The serving engine's canonical entry point: inside this block a
    forward pass through any :class:`~repro.nn.Module` allocates zero
    tape nodes and zero backward closures on the hot fused kernels —
    outputs are plain constant tensors that can be kept alive (e.g. as
    precomputed node embeddings) without pinning an autodiff graph.
    """


#: glibc ``mallopt`` parameter numbers (``malloc.h``) and the values
#: :func:`_keep_freed_heap` sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20))
_heap_settings_pending = True


def _keep_freed_heap() -> None:
    """Keep the memory each backward pass frees in the process heap.

    Runs once per process, from its first backward pass.  Each pass
    frees its tape; with glibc's defaults the emptied top of the heap,
    and every freed array above the dynamic mmap threshold, go back to
    the kernel, and the next step faults the same pages in again
    (DESIGN §10.5).  With these settings arrays under 32 MiB come from
    the heap, and the heap top is trimmed only once 256 MiB of it are
    free.  A process that never runs backward, such as a server, keeps
    glibc's defaults.  Where ``mallopt`` is missing this does nothing.
    """
    global _heap_settings_pending
    _heap_settings_pending = False
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return  # not glibc: keep the allocator's own behaviour
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)
    GradMode.heap_settings_applied += 1


def _released(grad: np.ndarray) -> None:
    """Backward closure left on an interior node once backward freed it."""
    raise RuntimeError(
        "backward() reached a node whose graph an earlier backward() "
        "already freed; run the forward pass again to backpropagate again")


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float64 numpy array (no copy when possible)."""
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When a forward op broadcast an operand of ``shape`` up to ``grad.shape``,
    the chain rule requires summing the incoming gradient over every
    broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an autodiff tape.

    Parameters
    ----------
    data:
        Array-like initial value; stored as float64.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single element, got {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        The pass consumes the tape (PyTorch's ``retain_graph=False``): as
        soon as an interior node's closure has run, its ``grad``, closure
        and parent links are dropped, so gradient buffers and forward
        intermediates are freed during the pass rather than kept into
        the next step.  Leaves keep their ``grad``.  Backpropagating
        through a freed node again raises ``RuntimeError`` before any
        gradient is touched.
        """
        if _heap_settings_pending:
            _keep_freed_heap()
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        order: list[Tensor] = []
        visited: set[int] = set()
        # Iterative topological sort (recursion would overflow on deep tapes).
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._backward is _released:
                _released(grad)  # raises: this graph was already consumed
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Popping drops the walk's own reference, so a node nothing else
        # holds is freed as soon as its closure has run.
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its grad
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _released
            node._parents = ()

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if not GradMode.enabled:
            # Inference mode: never build the tape, whatever the inputs.
            return Tensor(data)
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        # A freed interior node still counts as on the tape, so a new
        # graph built on it raises at backward() instead of silently
        # treating it as a constant.
        needs_grad = any(p.requires_grad or p._backward is not None
                         for p in parents)
        if not needs_grad:
            return Tensor(data)
        GradMode.tape_nodes += 1
        return Tensor(data, _parents=parents, _backward=backward)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other_t._accumulate(unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other_t._accumulate(unbroadcast(-grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other_t.data, self.shape))
            other_t._accumulate(unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other_t.data, self.shape))
            other_t._accumulate(
                unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape)
            )

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other_t._accumulate(grad * a)
            elif a.ndim == 1:
                # (d,) @ (d, m) -> (m,)
                self._accumulate(b @ grad)
                other_t._accumulate(np.outer(a, grad))
            elif b.ndim == 1:
                # (n, d) @ (d,) -> (n,)
                self._accumulate(np.outer(grad, b))
                other_t._accumulate(a.T @ grad)
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ grad
                self._accumulate(unbroadcast(ga, a.shape))
                other_t._accumulate(unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        out_data = np.transpose(self.data, axes_tuple)
        if axes_tuple is None:
            inverse: Optional[Tuple[int, ...]] = None
        else:
            inverse = tuple(np.argsort(axes_tuple))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = (self.data == out).astype(np.float64)
            # Split gradient evenly across ties.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / denom)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            inside = ((self.data >= low) & (self.data <= high)).astype(np.float64)
            self._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        out_data = np.where(self.data > 0, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(self.data > 0, 1.0, negative_slope))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
            np.exp(np.clip(self.data, -500, 500))
            / (1.0 + np.exp(np.clip(self.data, -500, 500))),
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def softplus(self) -> "Tensor":
        """sp(x) = log(1 + exp(x)), computed stably."""
        x = self.data
        out_data = np.logaddexp(0.0, x)

        def backward(grad: np.ndarray) -> None:
            sig = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
            self._accumulate(grad * sig)

        return Tensor._make(out_data, (self,), backward)
