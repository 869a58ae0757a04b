"""The gate stages with the sign of the steepness or the sharpness left free.

The library requires a, p > 0.  These formula-extended forms accept either
sign, so the tests can check the mirror identity u(x; -a, c) = 1 - u(x; a, c)
and the complement identity v(x; -p) = 1 - v(x; p).
"""

import math

import numpy as np

from arcgate import core


def u_signed(x: float, a: float, c: float) -> float:
    z = float(np.clip(a * (x - c), -core._Z_CAP, core._Z_CAP))
    if z >= 0.0:
        u = 0.5 + float(np.arctan(z)) / math.pi
    else:
        u = float(np.arctan2(1.0, -z)) / math.pi
    return min(max(u, core.GATE_EPS), 1.0 - core.GATE_EPS)


def v_signed(x: float, a: float, c: float, p: float) -> float:
    tape = core.batch_eval(np.array([float(x)]), (a, c, 1.0, 0.0, 0.0, 0.0, 0.0))
    t = p * float(tape.log_odds[0])
    side = float(np.arctan(np.exp(-abs(t))) / (math.pi / 2.0))
    v = (1.0 - side) if t >= 0.0 else side
    return min(max(v, core.GATE_EPS), 1.0 - core.GATE_EPS)
