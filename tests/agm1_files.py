"""Hand-made AGM1 files that the loader must reject, each with the reason it gives."""

import struct

import numpy as np

from arcgate import core

_GATE_RAW = core.preset("soft_relu_init").raw_vector()
_GRAN_CODES = {"fixed": 0, "global_shared": 1, "layer_wise": 2}


def dense(rows=2, cols=2, w=None, b=None) -> bytes:
    w = np.eye(rows, cols) if w is None else np.asarray(w, dtype="<f8")
    b = np.zeros(cols) if b is None else np.asarray(b, dtype="<f8")
    return struct.pack("<BII", 0, *w.shape) + w.astype("<f8").tobytes() \
        + b.astype("<f8").tobytes()


def gate(raw=_GATE_RAW, granularity="layer_wise", baseline_code=0, slope=0.0) -> bytes:
    return struct.pack("<BBBd", 1, _GRAN_CODES[granularity], baseline_code, slope) \
        + np.asarray(raw, dtype="<f8").tobytes()


def agm1(*layers: bytes) -> bytes:
    return b"AGM1" + struct.pack("<I", len(layers)) + b"".join(layers)


_OTHER_RAW = _GATE_RAW + np.array([0.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0])

#: name -> (file bytes, fragment of the error message)
BAD_MODELS = {
    "no_dense_layer": (agm1(gate()), "no dense layer"),
    "gate_is_final": (agm1(dense(), gate()), "final layer must be dense"),
    "gate_is_first": (agm1(gate(), dense()), "gate layer 0 does not follow a dense layer"),
    "gate_after_gate": (agm1(dense(), gate(), gate(), dense()),
                        "gate layer 2 does not follow a dense layer"),
    "shared_vectors_differ": (agm1(dense(), gate(granularity="global_shared"), dense(),
                                   gate(_OTHER_RAW, granularity="global_shared"), dense()),
                              "layer 3 stores a global_shared gate vector that differs"),
    "nan_dense_weight": (agm1(dense(w=[[1.0, np.nan], [0.0, 1.0]])),
                         "layer 0 has non-finite dense weights"),
    "inf_dense_bias": (agm1(dense(), gate(), dense(b=[0.0, -np.inf])),
                       "layer 2 has non-finite dense weights"),
    "nan_gate_value": (agm1(dense(), gate(_GATE_RAW * np.nan), dense()),
                       "layer 1 has non-finite gate values"),
    "inf_fixed_gate_value": (agm1(dense(), gate(np.full(7, np.inf), "fixed"), dense()),
                             "layer 1 has non-finite gate values"),
    "bad_leaky_slope": (agm1(dense(), gate(granularity="fixed", baseline_code=2, slope=1.5),
                             dense()),
                        "leaky slope must be in (0, 1)"),
    "shared_fixed_activation": (agm1(dense(), gate(granularity="global_shared"), dense(),
                                     gate(_OTHER_RAW, "global_shared", baseline_code=5), dense()),
                                "layer 3 stores a fixed silu activation whose granularity "
                                "is not the one save_model writes"),
    "fixed_activation_with_a_gate_vector": (agm1(dense(), gate(_OTHER_RAW, "fixed",
                                                               baseline_code=1), dense()),
                                            "layer 1 stores a fixed relu activation whose "
                                            "gate vector is not the one save_model writes"),
    "relu_with_a_slope": (agm1(dense(), gate(granularity="fixed", baseline_code=1, slope=0.5),
                               dense()),
                          "layer 1 stores a fixed relu activation whose slope is not the "
                          "one save_model writes"),
    "gate_with_a_slope": (agm1(dense(), gate(slope=0.5), dense()),
                          "layer 1 stores a gate whose slope is not the one save_model "
                          "writes"),
}
