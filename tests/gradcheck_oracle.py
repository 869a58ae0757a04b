"""Reference for the gate gradient suite: one draw at a time, through the scalar API.

Per draw, one scalar ``grad`` call gives the eight partials, and two scalar
``eval_F`` calls give each central difference, four central differences per
partial.  ``core.gate_gradcheck`` runs the same draws as ``(k, 7)`` kernel
rows, 128 draws per block, and must return exactly the same worst relative
error; its 32 shifted values per draw must be these ``eval_F`` values.
"""

import numpy as np
from arcgate import core


def _gate_gradcheck(samples: int, seed: int, tol: float) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a = rng.uniform(0.1, 50.0)
        p = rng.uniform(0.2, 5.0)
        c = rng.uniform(-3.0, 3.0)
        x = c + rng.uniform(-10.0, 10.0)
        alpha, beta, gamma, delta = rng.uniform(-2.0, 2.0, 4)
        params = core.ArcGateParams.from_effective(a, c, p, alpha, beta, gamma, delta)
        g = core.grad(x, params)
        vals = [x, a, c, p, alpha, beta, gamma, delta]
        partials = [g.d_x, g.d_a, g.d_c, g.d_p, g.d_alpha, g.d_beta, g.d_gamma, g.d_delta]
        for i, ana in enumerate(partials):
            h = 1e-5 * max(1.0, abs(vals[i]))
            # Richardson extrapolation cancels the h^2 truncation term, which on
            # steep draws (large a, x near c) exceeds the tolerance by itself
            fd = (4.0 * _central_difference(vals, i, h / 2)
                  - _central_difference(vals, i, h)) / 3.0
            err = abs(fd - ana)
            if err > 1e-8:
                worst = max(worst, err / max(abs(ana), 1e-300))
    return worst


def _central_difference(vals: list[float], i: int, h: float) -> float:
    """(F(vals + h e_i) - F(vals - h e_i)) / 2h over (x, a, c, p, alpha, beta, gamma, delta)."""
    hi, lo = vals.copy(), vals.copy()
    hi[i] += h
    lo[i] -= h
    return (core.eval_F(hi[0], core.ArcGateParams.from_effective(*hi[1:])).f
            - core.eval_F(lo[0], core.ArcGateParams.from_effective(*lo[1:])).f) / (2 * h)
