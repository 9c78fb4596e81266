"""Tests for the opt-in runtime tape sanitizer (analysis.detect_anomaly)."""

import warnings

import numpy as np
import pytest

from repro.analysis import (
    AnomalyError,
    TapeReuseWarning,
    UnusedParameterWarning,
    detect_anomaly,
)
from repro.nn import Linear, Module, Parameter
from repro.tensor import Tensor


@pytest.fixture(autouse=True)
def _quiet_numpy():
    # These tests *intentionally* produce NaN/Inf; silence numpy's own
    # RuntimeWarnings so the sanitizer's reporting is what gets tested.
    with np.errstate(all="ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            yield


def test_clean_computation_passes_through():
    with detect_anomaly():
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = (x * 3.0).sum()
        y.backward()
    assert np.allclose(x.grad, [3.0, 3.0])


def test_nan_flagged_at_producing_op():
    x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    with detect_anomaly():
        with pytest.raises(AnomalyError) as excinfo:
            _ = x.log()  # log(-1) = nan, flagged HERE, not at the loss
    msg = str(excinfo.value)
    assert "non-finite" in msg
    assert "Op created at" in msg
    # The creation-site traceback names this test file.
    assert "test_analysis_anomaly" in msg


def test_inf_flagged_in_forward():
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    with detect_anomaly():
        with pytest.raises(AnomalyError):
            _ = 1.0 / x


def test_nan_gradient_flagged_in_backward():
    # Forward is finite; the gradient of sqrt at 0 is inf.
    x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    with detect_anomaly():
        y = (x ** 0.5).sum()
        with pytest.raises(AnomalyError) as excinfo:
            y.backward()
    msg = str(excinfo.value)
    assert "gradient" in msg
    # Attribution points at the pow op that produced the inf gradient.
    assert "__pow__" in msg


def test_warn_action_counts_instead_of_raising():
    x = Tensor(np.array([-1.0]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with detect_anomaly(action="warn") as guard:
            _ = x.log()
            _ = x.log()
    assert guard.nan_count == 2


def test_instrumentation_restored_on_exit():
    original_make = Tensor.__dict__["_make"]
    original_backward = Tensor.backward
    with detect_anomaly():
        assert Tensor.__dict__["_make"] is not original_make
    assert Tensor.__dict__["_make"] is original_make
    assert Tensor.backward is original_backward
    # NaNs flow silently again outside the context (engine default).
    out = Tensor(np.array([-1.0]), requires_grad=True).log()
    assert np.isnan(out.data).all()


def test_instrumentation_restored_on_error():
    original_make = Tensor.__dict__["_make"]
    with pytest.raises(AnomalyError):
        with detect_anomaly():
            Tensor(np.array([-1.0]), requires_grad=True).log()
    assert Tensor.__dict__["_make"] is original_make


def test_double_backward_warns():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with detect_anomaly():
        y = (x * x).sum()
        y.backward()
        with pytest.warns(TapeReuseWarning):
            with pytest.raises(RuntimeError, match="already freed"):
                y.backward()
    # The first pass freed the tape; the second raises before touching
    # any gradient, so the leaf keeps exactly the first pass's 4.
    assert np.array_equal(x.grad, [4.0])


def test_unused_parameter_warning():
    class Leaky(Module):
        def __init__(self):
            super().__init__()
            rng = np.random.default_rng(0)
            self.used = Linear(3, 2, rng)
            self.orphan = Linear(3, 2, rng)  # never wired into forward

        def forward(self, x):
            return self.used(x)

    model = Leaky()
    x = Tensor(np.ones((4, 3)))
    with detect_anomaly(modules=[model]):
        loss = model(x).sum()
        with pytest.warns(UnusedParameterWarning, match="orphan"):
            loss.backward()


def test_all_parameters_used_no_warning():
    rng = np.random.default_rng(0)
    model = Linear(3, 2, rng)
    x = Tensor(np.ones((4, 3)))
    with detect_anomaly(modules=[model]):
        loss = model(x).sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnusedParameterWarning)
            loss.backward()


def test_unused_parameters_query():
    class Half(Module):
        def __init__(self):
            super().__init__()
            self.a = Parameter(np.ones(2))
            self.b = Parameter(np.ones(2))

        def forward(self, x):
            return (x * self.a).sum()

    model = Half()
    x = Tensor(np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with detect_anomaly(modules=[model]) as guard:
            model(x).backward()
            assert guard.unused_parameters() == ["b"]


def test_nested_contexts():
    with detect_anomaly():
        with detect_anomaly():
            x = Tensor(np.array([1.0]), requires_grad=True)
            (x * 2.0).sum().backward()
        # Inner exit restores the *outer* instrumentation, still active:
        with pytest.raises(AnomalyError):
            Tensor(np.array([-2.0]), requires_grad=True).log()
