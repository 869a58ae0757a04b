"""Reference for the activation zoo: the per-point ``math`` formulas it replaced.

``zoo.act`` and ``zoo.act_grad`` once carried these scalar twins of the
batch formulas.  They are now one-element calls of ``act_batch`` and
``act_grad_batch``, which must stay within a few ulp of these values
(libm's and numpy's transcendentals may round differently) and equal them
bit for bit where no transcendental is involved or both call ``math.erf``.
"""

import math

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        e = math.exp(-x)
        return 1.0 / (1.0 + e)
    e = math.exp(x)
    return e / (1.0 + e)


def act(kind, x: float) -> float:
    tag = kind.tag
    if tag == "relu":
        return x if x > 0.0 else 0.0
    if tag == "leaky_relu":
        return x if x > 0.0 else kind.slope * x
    if tag == "sigmoid":
        return _sigmoid(x)
    if tag == "tanh":
        return math.tanh(x)
    if tag == "silu":
        return x * _sigmoid(x)
    if tag == "gelu":
        return x * 0.5 * (1.0 + math.erf(x * _INV_SQRT2))
    return x  # identity


def act_grad(kind, x: float) -> float:
    tag = kind.tag
    if tag == "relu":
        return 1.0 if x > 0.0 else 0.0
    if tag == "leaky_relu":
        return 1.0 if x > 0.0 else kind.slope
    if tag == "sigmoid":
        s = _sigmoid(x)
        return s * (1.0 - s)
    if tag == "tanh":
        t = math.tanh(x)
        return 1.0 - t * t
    if tag == "silu":
        s = _sigmoid(x)
        return s * (1.0 + x * (1.0 - s))
    if tag == "gelu":
        phi = 0.5 * (1.0 + math.erf(x * _INV_SQRT2))
        return phi + x * _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    return 1.0  # identity
