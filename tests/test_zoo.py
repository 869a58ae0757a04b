import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoo_oracle
from arcgate import zoo
from arcgate.zoo import ActivationKind, act, act_batch, act_grad, act_grad_batch

SIGMOID_1 = 0.7310585786300049   # 1/(1+e^-1), mpmath oracle

ALL_KINDS = [ActivationKind(t) if t != "leaky_relu" else ActivationKind(t, 0.01)
             for t in zoo.KIND_TAGS]


def test_relu_values():
    k = ActivationKind("relu")
    assert act(k, -3.0) == 0.0
    assert act(k, 3.0) == 3.0
    assert act_grad(k, 2.0) == 1.0
    assert act_grad(k, -2.0) == 0.0
    assert act_grad(k, 0.0) == 0.0  # kink convention


def test_sigmoid_and_silu_values():
    assert act(ActivationKind("sigmoid"), 0.0) == 0.5
    assert act(ActivationKind("silu"), 1.0) == pytest.approx(SIGMOID_1, abs=1e-12)


def test_tanh_unit_slope_at_origin():
    assert act_grad(ActivationKind("tanh"), 0.0) == 1.0


def test_gelu_grad_matches_finite_differences():
    k = ActivationKind("gelu")
    h = 1e-6
    fd = (act(k, 0.5 + h) - act(k, 0.5 - h)) / (2 * h)
    assert act_grad(k, 0.5) == pytest.approx(fd, abs=1e-7)


def test_leaky_slope_validation():
    with pytest.raises(ValueError):
        ActivationKind("leaky_relu", 1.5)
    with pytest.raises(ValueError):
        ActivationKind("elu")


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        act(ActivationKind("relu"), math.inf)
    with pytest.raises(ValueError):
        act_grad(ActivationKind("tanh"), math.nan)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_grad_matches_central_differences_away_from_kinks(kind):
    xs = [x for x in np.linspace(-6, 6, 121) if abs(x) > 1e-3]
    h = 1e-6
    for x in xs:
        fd = (act(kind, x + h) - act(kind, x - h)) / (2 * h)
        ana = act_grad(kind, x)
        assert abs(fd - ana) <= max(1e-5 * abs(ana), 1e-7), (kind.tag, x)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_batch_matches_scalar(kind):
    # the scalar forms are one-element batch calls, so they agree bit for bit
    xs = np.linspace(-5, 5, 64)
    vals = act_batch(kind, xs)
    grads = act_grad_batch(kind, xs)
    scalar_vals = np.array([act(kind, float(x)) for x in xs])
    scalar_grads = np.array([act_grad(kind, float(x)) for x in xs])
    assert vals.tobytes() == scalar_vals.tobytes()
    assert grads.tobytes() == scalar_grads.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_batch_matches_the_math_oracle(kind):
    # numpy's and libm's exp and tanh may round differently; nothing else may
    xs = np.concatenate([np.linspace(-40, 40, 40001), [-0.0, 5e-324, -5e-324]])
    vals = act_batch(kind, xs)
    grads = act_grad_batch(kind, xs)
    want_vals = np.array([zoo_oracle.act(kind, float(x)) for x in xs])
    want_grads = np.array([zoo_oracle.act_grad(kind, float(x)) for x in xs])
    if kind.tag in ("relu", "leaky_relu", "identity", "gelu"):
        assert vals.tobytes() == want_vals.tobytes()
    else:
        assert np.all(np.abs(vals - want_vals) <= 4 * np.spacing(np.abs(want_vals)))
    if kind.tag in ("relu", "leaky_relu", "identity"):
        assert grads.tobytes() == want_grads.tobytes()
    else:
        # derivatives are O(1), and 1 - t*t style forms cancel, so count ulps of 1
        assert np.max(np.abs(grads - want_grads)) <= 4 * np.finfo(float).eps


@given(st.floats(min_value=-30, max_value=30))
@settings(max_examples=200)
def test_sigmoid_complement(x):
    s = act(ActivationKind("sigmoid"), x)
    assert abs(s + act(ActivationKind("sigmoid"), -x) - 1.0) < 1e-12
    assert 0.0 < s < 1.0


@given(st.floats(min_value=-30, max_value=30))
@settings(max_examples=200)
def test_tanh_odd_symmetry(x):
    k = ActivationKind("tanh")
    assert abs(act(k, x) + act(k, -x)) < 1e-12
