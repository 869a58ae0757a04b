"""References for the training hot path: two per-slot AdamW forms and the array ``u``.

``per_slot_adamw_step`` is the published AdamW (Loshchilov & Hutter,
arXiv:1711.05101) as the optimizer ran before the flat arena: one loop
iteration per slot, fresh temporaries, decay only on slots flagged for it.
``per_slot_rescaled_adamw_step`` is the same update over the rescaled
moments ``m / (1 - b1)`` and ``v / (1 - b2)`` that the arena AdamW keeps,
in the arena's order of operations; the arena AdamW must match it bit for
bit and the published form to rounding.  ``u_from_tape`` is the array
formula the gate kernel used to compute for every element; the scalar
``eval_F(x).u`` must match it bit for bit.
"""

import math

import numpy as np

from arcgate import core
from arcgate.engine import NonFiniteGradientError


def _check_finite(slot, g, step):
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradientError(
            f"non-finite gradient for {slot.label} at step {step}: "
            f"max|g|={np.max(np.abs(g))!r}")


def per_slot_adamw_step(slots, grads, m_list, v_list, lr, weight_decay, step,
                        betas=(0.9, 0.999), eps=1e-8):
    b1, b2 = betas
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for i, (slot, g) in enumerate(zip(slots, grads)):
        _check_finite(slot, g, step)
        m, v = m_list[i], v_list[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        if slot.decay and weight_decay > 0.0:
            slot.array *= 1.0 - lr * weight_decay
        slot.array -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def per_slot_rescaled_adamw_step(slots, grads, m_list, v_list, lr, weight_decay, step,
                                 betas=(0.9, 0.999), eps=1e-8):
    """``m_list``/``v_list`` hold ``m / (1 - b1)`` and ``v / (1 - b2)``.

    With ``r = sqrt(bc2 / (1 - b2))`` the step
    ``lr * (m / bc1) / (sqrt(v / bc2) + eps)`` becomes
    ``lr * (1 - b1) * r / bc1 * m_hat / (sqrt(v_hat) + eps * r)``.
    """
    b1, b2 = betas
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    r = math.sqrt(bc2 / (1.0 - b2))
    for i, (slot, g) in enumerate(zip(slots, grads)):
        _check_finite(slot, g, step)
        m_list[i] = m_list[i] * b1 + g
        v_list[i] = v_list[i] * b2 + g * g
        if slot.decay and weight_decay > 0.0:
            slot.array *= 1.0 - lr * weight_decay
        slot.array -= m_list[i] / (np.sqrt(v_list[i]) + eps * r) * (lr * (1.0 - b1) * r / bc1)


def u_from_tape(tape):
    """u = max((theta/pi + 1/2) * H(z), psmall/pi), clamped to [GATE_EPS, 1 - GATE_EPS]."""
    u = np.divide(tape.theta, np.pi)
    u += 0.5
    u *= np.heaviside(tape.z, 1.0)
    np.maximum(u, np.divide(tape.psmall, np.pi), out=u)
    return np.minimum(np.maximum(u, core.GATE_EPS), 1.0 - core.GATE_EPS)
