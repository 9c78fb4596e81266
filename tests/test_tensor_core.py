"""Unit tests for the autodiff Tensor core: arithmetic, shapes, backward,
and the tape's lifetime (what a backward pass frees)."""

import tracemalloc

import numpy as np
import pytest

from repro.tensor import Tensor, numerical_gradient, unbroadcast


def gradcheck(build, *tensors, tol=1e-5):
    """Compare analytic and numeric gradients of scalar ``build()``."""
    out = build()
    for t in tensors:
        t.zero_grad()
    out = build()
    out.backward()
    for t in tensors:
        numeric = numerical_gradient(build, t)
        assert t.grad is not None, "missing gradient"
        assert np.allclose(t.grad, numeric, atol=tol), (
            f"grad mismatch: max err {np.abs(t.grad - numeric).max()}"
        )


class TestBasics:
    def test_construction_and_dtype(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)
        assert len(t) == 3

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))

    def test_item_and_numpy(self):
        t = Tensor(5.0)
        assert t.item() == 5.0
        assert t.numpy() is t.data

    def test_detach_cuts_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        z = (y * 3).sum()
        z.backward()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3
        y.backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x + x).sum()  # dy/dx = 2x + 1 = 5
        y.backward()
        assert np.allclose(x.grad, [5.0])


class TestArithmetic:
    def test_add_sub_mul_div_values(self):
        a, b = Tensor([4.0, 9.0]), Tensor([2.0, 3.0])
        assert np.allclose((a + b).data, [6, 12])
        assert np.allclose((a - b).data, [2, 6])
        assert np.allclose((a * b).data, [8, 27])
        assert np.allclose((a / b).data, [2, 3])

    def test_reflected_operators(self):
        a = Tensor([2.0])
        assert np.allclose((3 + a).data, [5])
        assert np.allclose((3 - a).data, [1])
        assert np.allclose((3 * a).data, [6])
        assert np.allclose((8 / a).data, [4])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_gradcheck_elementwise_chain(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
        gradcheck(lambda: ((x * y - x / y + y**2) * 0.5).sum(), x, y)

    def test_gradcheck_broadcast_add(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        gradcheck(lambda: ((x + b) ** 2).sum(), x, b)

    def test_gradcheck_broadcast_mul_scalar_tensor(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        s = Tensor(2.5, requires_grad=True)
        gradcheck(lambda: (x * s).sum(), x, s)


class TestMatmul:
    def test_matmul_2d(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        gradcheck(lambda: (a @ b).sum(), a, b)

    def test_matmul_vector_matrix(self, rng):
        a = Tensor(rng.normal(size=4), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        gradcheck(lambda: (a @ b).sum(), a, b)

    def test_matmul_matrix_vector(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        gradcheck(lambda: (a @ b).sum(), a, b)

    def test_matmul_vector_vector(self, rng):
        a = Tensor(rng.normal(size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        gradcheck(lambda: (a @ b) * 1.0, a, b)


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        gradcheck(lambda: (x.reshape(3, 4) ** 2).sum(), x)

    def test_reshape_tuple_argument(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape((2, 3)).shape == (2, 3)

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3))).flatten().shape == (6,)

    def test_transpose_and_T(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        assert x.T.shape == (5, 2)
        gradcheck(lambda: (x.T @ x).sum(), x)

    def test_transpose_axes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        gradcheck(lambda: (x.transpose(1, 0, 2) ** 2).sum(), x)

    def test_getitem_int_rows(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        gradcheck(lambda: (x[idx] ** 2).sum(), x)

    def test_getitem_column(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gradcheck(lambda: (x[:, 1] ** 2).sum(), x)


class TestReductions:
    def test_sum_axes(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda: (x.sum(axis=0) ** 2).sum(), x)
        x.zero_grad()
        gradcheck(lambda: (x.sum(axis=1, keepdims=True) ** 2).sum(), x)

    def test_mean_value(self):
        x = Tensor([[1.0, 3.0], [5.0, 7.0]])
        assert x.mean().item() == 4.0
        assert np.allclose(x.mean(axis=0).data, [3.0, 5.0])

    def test_mean_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda: (x.mean(axis=1) ** 2).sum(), x)

    def test_max_grad_no_ties(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        y = x.max(axis=1).sum()
        y.backward()
        assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_splits_ties(self):
        x = Tensor(np.array([3.0, 3.0]), requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad, [0.5, 0.5])


class TestNonlinearities:
    @pytest.mark.parametrize("fn", [
        lambda t: t.exp(), lambda t: t.sigmoid(), lambda t: t.tanh(),
        lambda t: t.softplus(), lambda t: t.relu(),
        lambda t: t.leaky_relu(0.1), lambda t: t.abs(),
    ])
    def test_gradcheck_activations(self, fn, rng):
        # Offset away from 0 so relu/abs kinks don't break finite diffs.
        x = Tensor(rng.normal(size=(3, 3)) * 2 + 0.3, requires_grad=True)
        gradcheck(lambda: fn(x).sum(), x)

    def test_log_sqrt(self, rng):
        x = Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
        gradcheck(lambda: (x.log() + x.sqrt()).sum(), x)

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-1000.0, 1000.0])
        s = x.sigmoid().data
        assert np.all(np.isfinite(s))
        assert s[0] < 1e-10 and s[1] > 1 - 1e-10

    def test_softplus_matches_reference(self):
        x = Tensor([-2.0, 0.0, 3.0])
        assert np.allclose(x.softplus().data, np.log1p(np.exp(x.data)))

    def test_clip(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        y = x.clip(0.0, 1.0)
        assert np.allclose(y.data, [0.0, 0.5, 1.0])
        y.sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestUnbroadcast:
    def test_noop_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_leading_axis(self):
        g = np.ones((4, 2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)
        assert np.all(unbroadcast(g, (2, 3)) == 4)

    def test_sums_kept_axis_of_size_one(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.all(out == 3)

    def test_deep_tape_does_not_overflow(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])


def _tape(root):
    """Every node reachable from ``root`` (interior and leaf), walk order."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _retained_backward(root):
    """The tape walk with nothing freed: the reference for leaf grads.

    Same topological order and accumulation order as
    :meth:`Tensor.backward`, minus the release of interior nodes.
    """
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if id(p) not in visited)
    root._accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _leaf_grads_both_ways(build):
    """Leaf grads of ``build()`` after ``backward()`` and after the
    retained walk, pairwise in tape order (shared leaves reset between)."""
    loss = build()
    leaves = [n for n in _tape(loss) if n._backward is None]
    loss.backward()
    freed = [None if n.grad is None else n.grad.copy() for n in leaves]
    for node in leaves:
        node.grad = None
    loss = build()
    ref_leaves = [n for n in _tape(loss) if n._backward is None]
    _retained_backward(loss)
    assert len(ref_leaves) == len(leaves)
    return freed, [n.grad for n in ref_leaves]


def _assert_bitwise(got, want):
    assert any(g is not None for g in got)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert np.array_equal(g, w)


class TestTapeLifetime:
    def test_backward_frees_every_interior_node(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        h = (x * 2.0).tanh()
        loss = (h * h + h.exp()).sum()
        interior = [n for n in _tape(loss) if n._backward is not None]
        assert len(interior) >= 5
        loss.backward()
        for node in interior:
            assert node.grad is None
            assert node._parents == ()
            assert node._backward.__closure__ is None  # holds no graph
        assert x.grad is not None  # leaves keep theirs

    def test_second_backward_raises_and_leaves_grads_alone(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            y.backward()
        assert np.array_equal(x.grad, [4.0])  # not 16, not 8

    def test_new_graph_on_freed_node_raises(self):
        x = Tensor([2.0], requires_grad=True)
        h = x * x
        h.sum().backward()
        with pytest.raises(RuntimeError, match="already freed"):
            (h * 3.0).sum().backward()
        assert np.array_equal(x.grad, [4.0])

    def test_diamond_leaf_grads_match_retained_walk(self, rng):
        data, bias = rng.normal(size=(4, 3)), rng.normal(size=(3,))

        def build():
            x = Tensor(data, requires_grad=True)
            b = Tensor(bias, requires_grad=True)
            h = (x * b).tanh()  # consumed twice: both paths meet at x, b
            return (h * h).sum() + (h / 3.0 + b).exp().sum()

        _assert_bitwise(*_leaf_grads_both_ways(build))

    def test_hgn_step_leaf_grads_match_retained_walk(self, tiny_dataset):
        from repro.core import CATEHGNConfig, CATEHGNModel, GraphBatch

        ids = np.arange(30, dtype=np.intp)
        batch = GraphBatch.from_graph(tiny_dataset.graph, ids,
                                      np.linspace(0.0, 2.0, 30))
        model = CATEHGNModel(
            CATEHGNConfig(dim=8, attention_heads=2, num_clusters=3, seed=0),
            batch.node_types,
            {t: batch.features[t].shape[1] for t in batch.node_types},
            list(batch.edges.keys()))

        def build():
            state = model.forward_state(batch)
            rng = np.random.default_rng(5)
            return model.hgn_loss(state, batch, rng) + model.ca_loss(state)

        _assert_bitwise(*_leaf_grads_both_ways(build))

    def test_tiny_fit_memory_ceiling(self, tiny_dataset):
        """The tape of one step is freed by its backward, not carried
        into the next step's forward.

        ``tracemalloc`` sees numpy's buffers.  Observed peak for this fit:
        about 12 MiB with the tape freed, 32 MiB when every interior
        grad, closure and parent link lived until the next step.
        """
        from repro.core import CATEHGN, CATEHGNConfig

        config = CATEHGNConfig(dim=16, attention_heads=2, num_clusters=4,
                               kappa=10, outer_iters=1, mini_iters=2,
                               center_iters=1, patience=3, seed=0)
        tracemalloc.start()
        try:
            CATEHGN(config).fit(tiny_dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 1024 * 1024, peak
