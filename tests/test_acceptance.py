"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Thresholds marked "pinned" were recorded from development oracle runs and
frozen; seeds make every run reproduce them exactly.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from arcgate import core, engine, experiments, fitter
from arcgate.core import ArcGateParams, eval_F, eval_F_batch, grad, preset
from arcgate.engine import ModelSpec, TrainConfig
from arcgate.zoo import ActivationKind
from signed_gate import u_signed, v_signed

# pinned fit error ceilings (dev oracle: replicate_classics budget=5000 seed=0
# measured relu 8.9e-16, sigmoid 2.63e-3, tanh 1.02e-2, identity 0.0 under the
# Adam fitter; 8.9e-16, 2.28e-3, 8.97e-3 and 0.0 under Levenberg–Marquardt)
TAU = {"relu": 1e-12, "sigmoid": 4e-3, "tanh": 1.5e-2, "identity": 1e-6}

ACCEPTANCE_SIGMAS = (0.0, 0.1, 0.15, 0.2, 0.3, 0.5)
SEEDS = (1, 2, 3)


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_sweeps(desk_dataset):
    """Three seeded paired noise sweeps on the 5k fixture, shared by 8 and 9."""
    t0 = time.perf_counter()
    config = TrainConfig()  # defaults: 5 epochs, AdamW lr 1e-4 / wd 1e-2
    reports = {seed: experiments.noise_sweep(desk_dataset, ACCEPTANCE_SIGMAS,
                                             config, seed=seed)
               for seed in SEEDS}
    return reports, time.perf_counter() - t0


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for _ in range(1000):
        a = rng.uniform(0.1, 50.0)
        p = rng.uniform(0.2, 5.0)
        c = rng.uniform(-3.0, 3.0)
        x = c + rng.uniform(-10.0, 10.0)
        alpha, beta, gamma, delta = rng.uniform(-2.0, 2.0, 4)
        params = ArcGateParams.from_effective(a, c, p, alpha, beta, gamma, delta)
        g = grad(x, params)
        vals = [x, a, c, p, alpha, beta, gamma, delta]
        partials = [g.d_x, g.d_a, g.d_c, g.d_p, g.d_alpha, g.d_beta,
                    g.d_gamma, g.d_delta]
        for i, ana in enumerate(partials):
            h = 1e-5 * max(1.0, abs(vals[i]))
            hi, lo = vals.copy(), vals.copy()
            hi[i] += h
            lo[i] -= h
            fd = (eval_F(hi[0], ArcGateParams.from_effective(*hi[1:])).f
                  - eval_F(lo[0], ArcGateParams.from_effective(*lo[1:])).f) / (2 * h)
            err = abs(fd - ana)
            ok &= err <= max(1e-5 * abs(ana), 1e-8)
            if err > 1e-8:
                worst = max(worst, err / abs(ana))
    elapsed = time.perf_counter() - t0
    _report(1, "gradient oracle, 1000 draws vs central differences",
            ok and elapsed < 5.0, f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_symmetry_suite():
    t0 = time.perf_counter()
    xs = np.linspace(-8, 8, 10)
    steeps = np.geomspace(0.1, 100, 10)
    thirds = np.linspace(-2, 2, 10)
    sharps = np.geomspace(0.1, 10, 10)
    worst_u = max(abs(u_signed(float(x), float(-a), float(c))
                      - (1.0 - u_signed(float(x), float(a), float(c))))
                  for x in xs for a in steeps for c in thirds)
    worst_v = max(abs(v_signed(float(x), float(a), 0.3, float(-p))
                      - (1.0 - v_signed(float(x), float(a), 0.3, float(p))))
                  for x in xs for a in steeps for p in sharps)
    elapsed = time.perf_counter() - t0
    _report(2, "mirror and complement symmetry identities",
            worst_u < 1e-12 and worst_v < 1e-10 and elapsed < 1.0,
            f"u {worst_u:.1e}, v {worst_v:.1e}, {elapsed:.2f}s")


def test_criterion_3_stability_suite():
    t0 = time.perf_counter()
    ok = True
    for x in (1e2, -1e2, 1e4, -1e4, 1e8, -1e8):
        for a in (1e-3, 1.0, 1e3):
            for p in (0.1, 1.0, 10.0):
                params = ArcGateParams.from_effective(a, 0.0, p, 1.0, 0.5, 0.1, -0.2)
                ev = eval_F(x, params)
                ok &= 0.0 < ev.u < 1.0 and 0.0 < ev.v < 1.0 and math.isfinite(ev.f)
    elapsed = time.perf_counter() - t0
    _report(3, "no NaN/Inf and open-interval gates up to |x|=1e8",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_4_init_tuple():
    got = preset("soft_relu_init").effective()
    _report(4, "soft-rectifier init tuple is exactly (5,0,1,1,0,0,0)",
            got == (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0), repr(got))


def test_criterion_5_relu_limit():
    params = preset("relu_like", 1e4)
    xs = np.concatenate([np.linspace(-5.0, -0.5, 500), np.linspace(0.5, 5.0, 500)])
    sup = float(np.max(np.abs(eval_F_batch(xs, params) - np.maximum(xs, 0.0))))
    _report(5, "relu_like(1e4) within 1e-3 of ReLU on 0.5 <= |x| <= 5",
            sup < 1e-3, f"sup {sup:.2e}")


def test_criterion_6_fitter_recovery():
    t0 = time.perf_counter()
    table = dict((k.tag, r) for k, r in fitter.replicate_classics(budget=5000, seed=0))
    theta = ArcGateParams.from_effective(3.0, 0.5, 2.0, 1.2, 0.3, 0.1, -0.2)
    grid = np.linspace(-5, 5, 1001)
    target = fitter.FitTarget(grid, eval_F_batch(grid, theta), "self")
    res = fitter.fit(target, preset("soft_relu_init"), budget=15000, seed=1)
    self_linf = float(np.max(np.abs(eval_F_batch(grid, res.params) - target.values)))
    elapsed = time.perf_counter() - t0
    checks = {
        "identity": table["identity"].l_inf_error <= TAU["identity"],
        "self": self_linf <= 1e-5,
        "sigmoid": table["sigmoid"].l_inf_error <= TAU["sigmoid"],
        "tanh": table["tanh"].l_inf_error <= TAU["tanh"],
        "relu": table["relu"].l_inf_error <= TAU["relu"],
    }
    _report(6, "fitter recovery: identity/self/sigmoid/tanh/relu",
            all(checks.values()) and elapsed < 60.0,
            f"self {self_linf:.2e}, sigmoid {table['sigmoid'].l_inf_error:.2e}, "
            f"tanh {table['tanh'].l_inf_error:.2e}, {elapsed:.1f}s")


def test_criterion_7_end_to_end_gradient_check():
    t0 = time.perf_counter()
    spec = ModelSpec(in_dim=4, hidden=(8, 6), n_classes=3)
    config = TrainConfig(seed=17)
    model = engine.build_model(spec, config,
                               np.random.default_rng(np.random.SeedSequence(17)))
    for i, act in enumerate(model.activation_layers()):
        act.raw += np.array([0.2, -0.1, 0.15, 0.1, -0.05, 0.1, 0.05]) * (i + 1)
    rng = np.random.default_rng(18)
    x = rng.normal(0.0, 1.0, (16, 4))
    y = rng.integers(0, 3, 16)
    logits, cache = engine.forward(model, x)
    _, grad_logits = engine.softmax_cross_entropy(logits, y)
    grads = engine.backward(model, cache, grad_logits)

    def loss_now():
        lg, _ = engine.forward(model, x)
        return engine.softmax_cross_entropy(lg, y)[0]

    ok = True
    worst = 0.0
    for slot, g in zip(model.arena.slots, grads):
        flat, gflat = slot.array.ravel(), g.ravel()
        for k in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[k]))
            keep = flat[k]
            flat[k] = keep + h
            up = loss_now()
            flat[k] = keep - h
            down = loss_now()
            flat[k] = keep
            fd = (up - down) / (2 * h)
            err = abs(fd - gflat[k])
            ok &= err <= max(1e-4 * abs(gflat[k]), 1e-9)
            if err > 1e-9:
                worst = max(worst, err / abs(gflat[k]))
    elapsed = time.perf_counter() - t0
    _report(7, "end-to-end loss partials vs finite differences",
            ok and elapsed < 30.0, f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_desk_scale_training(desk_sweeps):
    reports, elapsed = desk_sweeps
    arc, relu = [], []
    for seed in SEEDS:
        acc = {(r.model, r.sigma): r.accuracy for r in reports[seed].rows}
        arc.append(acc[("arcgate", 0.0)])
        relu.append(acc[("relu", 0.0)])
    gap = float(np.mean(arc) - np.mean(relu))
    _report(8, "adaptive model within 1pt of (or above) ReLU after 5 epochs x 3 seeds",
            gap >= -0.01 and elapsed < 600.0,
            f"arcgate {np.mean(arc):.4f} vs relu {np.mean(relu):.4f}, "
            f"gap {gap:+.4f}, {elapsed:.0f}s")


def test_criterion_9_noise_robustness(desk_sweeps, tmp_path):
    reports, _ = desk_sweeps
    deltas = []
    exists_nonworse = False
    for seed in SEEDS:
        for sigma, gain in reports[seed].gains:
            if sigma > 0.0:
                deltas.append(gain)
                exists_nonworse |= gain >= 0.0
    mean_delta = float(np.mean(deltas))

    path = tmp_path / "sweep.csv"
    experiments.write_sweep_csv(reports[SEEDS[0]], path)
    lines = path.read_text().splitlines()
    schema_ok = (lines[0].startswith("#")
                 and lines[1] == "model,sigma,accuracy,seed"
                 and len(lines) == 2 + len(ACCEPTANCE_SIGMAS) * 2)
    with open(path, newline="") as f:
        body = [r for r in csv.reader(f) if not r[0].startswith("#")][1:]
    schema_ok &= all(len(r) == 4 and r[0] in ("arcgate", "relu") for r in body)
    _report(9, "mean noise-robustness gain >= 0 over sigma>0 x 3 seeds; schema exact",
            mean_delta >= 0.0 and exists_nonworse and schema_ok,
            f"mean delta {mean_delta:+.4f} over {len(deltas)} cells")


def test_criterion_10_granularity_structure(blob_dataset):
    spec = ModelSpec(784, (256, 128, 64), 10)
    counts = {}
    for granularity in ("fixed", "global_shared", "layer_wise"):
        cfg = TrainConfig(seed=0, granularity=granularity)
        model = engine.build_model(spec, cfg, np.random.default_rng(0))
        counts[granularity] = model.learnable_activation_parameter_count()
    traversal_ok = counts == {"fixed": 0, "global_shared": 7, "layer_wise": 21}

    config = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01,
                         weight_decay=0.0, seed=5, granularity="fixed")
    trained, _ = engine.train(ModelSpec(2, (8, 6), 2), blob_dataset, config)
    init_raw = preset("soft_relu_init").raw_vector()
    frozen_ok = all(np.array_equal(a.raw, init_raw)
                    for a in trained.activation_layers())

    wide = engine.build_model(ModelSpec(4, (3,) * 49, 2), TrainConfig(seed=0),
                              np.random.default_rng(0))
    reference_ok = (49 * 7 == 343
                    and wide.learnable_activation_parameter_count() == 343)
    _report(10, "granularity counts 0/7/7n by traversal; fixed bit-frozen; 49x7=343",
            traversal_ok and frozen_ok and reference_ok, repr(counts))


def test_criterion_11_determinism(small_dataset, tmp_path):
    config = TrainConfig(epochs=1, learning_rate=1e-3, seed=12)

    sweep_bytes = []
    for name in ("s1.csv", "s2.csv"):
        report = experiments.noise_sweep(small_dataset, (0.0, 0.3), config, seed=12)
        path = tmp_path / name
        experiments.write_sweep_csv(report, path)
        sweep_bytes.append(path.read_bytes())

    fit_bytes = []
    target = fitter.FitTarget.from_kind(ActivationKind("sigmoid"), -6, 6, 201)
    for name in ("f1.csv", "f2.csv"):
        res = fitter.fit(target, preset("sigmoid_like"), budget=300, seed=5)
        path = tmp_path / name
        fitter.write_fit_csv([(ActivationKind("sigmoid"), res)], path, (-6.0, 6.0), 300, 5)
        fit_bytes.append(path.read_bytes())

    model_bytes = []
    for name in ("m1.agm", "m2.agm"):
        spec = ModelSpec(small_dataset.x_train.shape[1], (16, 8), 10)
        model, _ = engine.train(spec, small_dataset, config)
        path = tmp_path / name
        engine.save_model(model, path)
        model_bytes.append(path.read_bytes())

    ok = (sweep_bytes[0] == sweep_bytes[1]
          and fit_bytes[0] == fit_bytes[1]
          and model_bytes[0] == model_bytes[1])
    _report(11, "repeated train/fit/sweep invocations are byte-identical", ok)
