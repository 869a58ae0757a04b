"""Fixed reference activations used as baselines and as fit targets.

Values and first derivatives for the classical functions the adaptive gate
is compared against.  Each function has one formula, over ndarrays
(:func:`act_batch`, :func:`act_grad_batch`); the scalar :func:`act` and
:func:`act_grad` check that ``x`` is finite and evaluate a one-element
array.  GELU uses the exact Gaussian CDF (``math.erf``), not the tanh
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ActivationKind", "act", "act_grad", "act_batch", "act_grad_batch", "KIND_TAGS"]

KIND_TAGS = ("relu", "leaky_relu", "sigmoid", "tanh", "silu", "gelu", "identity")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ActivationKind:
    """A fixed activation; ``slope`` is only meaningful for leaky_relu."""

    tag: str
    slope: float = 0.01

    def __post_init__(self):
        if self.tag not in KIND_TAGS:
            raise ValueError(f"unknown activation {self.tag!r}; expected one of {KIND_TAGS}")
        if self.tag == "leaky_relu" and not 0.0 < self.slope < 1.0:
            raise ValueError(f"leaky slope must be in (0, 1), got {self.slope!r}")

    def label(self) -> str:
        if self.tag == "leaky_relu":
            return f"leaky_relu({self.slope:g})"
        return self.tag


def _check_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"input must be finite, got {x!r}")
    return x


def act(kind: ActivationKind, x: float) -> float:
    """Activation value at ``x``."""
    return float(act_batch(kind, np.array([_check_finite(x)]))[0])


def act_grad(kind: ActivationKind, x: float) -> float:
    """Analytical first derivative; at the rectifier kink the convention is 0."""
    return float(act_grad_batch(kind, np.array([_check_finite(x)]))[0])


def act_batch(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    tag = kind.tag
    if tag == "relu":
        return np.maximum(x, 0.0)
    if tag == "leaky_relu":
        return np.where(x > 0.0, x, kind.slope * x)
    if tag == "sigmoid":
        return _sigmoid_batch(x)
    if tag == "tanh":
        return np.tanh(x)
    if tag == "silu":
        return x * _sigmoid_batch(x)
    if tag == "gelu":
        return x * 0.5 * (1.0 + _erf_batch(x * _INV_SQRT2))
    return np.asarray(x, dtype=np.float64)


def act_grad_batch(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    tag = kind.tag
    if tag == "relu":
        return (x > 0.0).astype(np.float64)
    if tag == "leaky_relu":
        return np.where(x > 0.0, 1.0, kind.slope)
    if tag == "sigmoid":
        s = _sigmoid_batch(x)
        return s * (1.0 - s)
    if tag == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if tag == "silu":
        s = _sigmoid_batch(x)
        return s * (1.0 + x * (1.0 - s))
    if tag == "gelu":
        phi = 0.5 * (1.0 + _erf_batch(x * _INV_SQRT2))
        return phi + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return np.ones_like(x)


def _erf_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.array([math.erf(t) for t in x.ravel()]).reshape(x.shape)


def _sigmoid_batch(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0.0
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(x))
    np.divide(1.0, 1.0 + e, out=out, where=pos)
    np.divide(e, 1.0 + e, out=out, where=~pos)
    return out
