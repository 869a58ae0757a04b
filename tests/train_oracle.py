"""References for the training hot path: the per-slot AdamW and the array ``u`` it replaced.

``per_slot_adamw_step`` is the optimizer as it was before the flat arena:
one loop iteration per slot, fresh temporaries, decay only on slots flagged
for it.  ``u_from_tape`` is the array formula the gate kernel used to
compute for every element.  The arena AdamW and the scalar ``eval_F(x).u``
must match them bit for bit.
"""

import numpy as np

from arcgate import core
from arcgate.engine import NonFiniteGradientError


def per_slot_adamw_step(slots, grads, m_list, v_list, lr, weight_decay, step,
                        betas=(0.9, 0.999), eps=1e-8):
    b1, b2 = betas
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for i, (slot, g) in enumerate(zip(slots, grads)):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(
                f"non-finite gradient for {slot.label} at step {step}: "
                f"max|g|={np.max(np.abs(g))!r}")
        m, v = m_list[i], v_list[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        if slot.decay and weight_decay > 0.0:
            slot.array *= 1.0 - lr * weight_decay
        slot.array -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def u_from_tape(tape):
    """u = max((theta/pi + 1/2) * H(z), psmall/pi), clamped to [GATE_EPS, 1 - GATE_EPS]."""
    u = np.divide(tape.theta, np.pi)
    u += 0.5
    u *= np.heaviside(tape.z, 1.0)
    np.maximum(u, np.divide(tape.psmall, np.pi), out=u)
    return np.minimum(np.maximum(u, core.GATE_EPS), 1.0 - core.GATE_EPS)
