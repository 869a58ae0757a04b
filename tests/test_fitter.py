import csv
import math
from pathlib import Path

import numpy as np
import pytest

from arcgate import core, fitter
from arcgate.fitter import FitResult, FitTarget, fit, write_fit_csv
from arcgate.zoo import ActivationKind
from fit_oracle import sequential_fit

DATA = Path(__file__).parent / "data"
CAPS = (10.0, 100.0, 1000.0)


def capped_relu_fit(cap, fitter_fn):
    target = FitTarget.from_kind(ActivationKind("relu"), -5, 5, 1001)
    return fitter_fn(target, core.preset("relu_like", cap), budget=2500, seed=2,
                     effective_cap=cap)


@pytest.fixture(scope="module")
def capped_fits():
    return [capped_relu_fit(cap, fit) for cap in CAPS]


class TestFitTarget:
    def test_from_kind_builds_grid(self):
        tgt = FitTarget.from_kind(ActivationKind("relu"), -2, 2, 33)
        assert tgt.grid.shape == (33,)
        assert tgt.values[0] == 0.0 and tgt.values[-1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FitTarget(np.linspace(0, 1, 8), np.zeros(8), "too-few")
        with pytest.raises(ValueError):
            FitTarget(np.zeros(20), np.zeros(20), "flat-grid")
        with pytest.raises(ValueError):
            FitTarget.from_kind(ActivationKind("relu"), 2, -2, 33)
        with pytest.raises(ValueError):
            FitTarget(np.linspace(0, 1, 20), np.zeros(21), "shape")


class TestFit:
    def test_identity_is_exactly_representable(self):
        tgt = FitTarget.from_kind(ActivationKind("identity"), -5, 5, 101)
        res = fit(tgt, core.preset("identity"), budget=500, seed=0)
        assert res.l_inf_error <= 1e-6

    def test_never_worse_than_init(self):
        for kind, preset_args in [(ActivationKind("sigmoid"), ("sigmoid_like", None)),
                                  (ActivationKind("tanh"), ("tanh_like", None))]:
            tgt = FitTarget.from_kind(kind, -6, 6, 201)
            init = core.preset(*preset_args)
            init_resid = core.batch_eval(tgt.grid, init.effective()).f - tgt.values
            init_linf = float(np.max(np.abs(init_resid)))
            res = fit(tgt, init, budget=400, seed=3)
            assert res.l_inf_error <= init_linf

    def test_restart_determinism(self):
        tgt = FitTarget.from_kind(ActivationKind("sigmoid"), -6, 6, 201)
        a = fit(tgt, core.preset("sigmoid_like"), budget=300, seed=11)
        b = fit(tgt, core.preset("sigmoid_like"), budget=300, seed=11)
        assert a == b

    def test_error_norm_consistency(self):
        tgt = FitTarget.from_kind(ActivationKind("silu"), -6, 6, 201)
        res = fit(tgt, core.preset("soft_relu_init"), budget=300, seed=5)
        assert res.l_inf_error >= res.l2_error / math.sqrt(tgt.grid.size) - 1e-15
        assert res.l_inf_error >= 0 and res.l2_error >= 0

    def test_effective_cap_monotone_toward_hard_rectifier(self, capped_fits):
        results = [res.l_inf_error for res in capped_fits]
        assert results[0] > results[1]
        # the on-grid error saturates at float rounding for large caps
        assert results[1] >= results[2]

    def test_non_finite_target_yields_failure_result(self):
        grid = np.linspace(-1, 1, 20)
        values = np.full(20, np.nan)
        res = fit(FitTarget(grid, values, "broken"), core.preset("identity"),
                  budget=50, seed=0)
        assert not res.converged
        assert math.isinf(res.l_inf_error)

    def test_budget_validation(self):
        tgt = FitTarget.from_kind(ActivationKind("relu"), -1, 1, 20)
        with pytest.raises(ValueError):
            fit(tgt, core.preset("identity"), budget=0)

    def test_self_recovery_in_function_space(self):
        theta = core.ArcGateParams.from_effective(2.0, -0.3, 1.5, 0.8, 0.2, 0.0, 0.1)
        grid = np.linspace(-5, 5, 201)
        tgt = FitTarget(grid, core.eval_F_batch(grid, theta), "self")
        res = fit(tgt, core.preset("soft_relu_init"), budget=4000, seed=1)
        fitted = core.eval_F_batch(grid, res.params)
        assert np.max(np.abs(fitted - tgt.values)) < 1e-3  # full bound in acceptance


@pytest.fixture(scope="module")
def table():
    return fitter.replicate_classics(n_points=201, budget=300, seed=0)


class TestReplicateClassics:
    def test_row_per_target(self, table):
        tags = [kind.tag for kind, _ in table]
        assert tags == ["relu", "sigmoid", "tanh", "silu", "gelu", "leaky_relu", "identity"]

    def test_identity_row_is_exact(self, table):
        res = dict((k.tag, r) for k, r in table)["identity"]
        assert res.l_inf_error <= 1e-6

    def test_tanh_preset_bounds_before_fitting(self):
        params = core.preset("tanh_like")
        assert core.eval_F(0.0, params).f == 0.0
        assert abs(core.eval_F(1e6, params).f - 1.0) < 1e-6
        assert abs(core.eval_F(-1e6, params).f + 1.0) < 1e-6

    def test_csv_schema(self, table, tmp_path):
        path = tmp_path / "fits.csv"
        write_fit_csv(table, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["target", "kind", "a", "c", "p", "alpha", "beta",
                           "gamma", "delta", "l_inf", "l2", "iterations", "converged"]
        assert len(rows) == 8
        assert rows[6][1] == "leaky_relu(0.01)"

    def test_csv_accepts_plain_labels(self, tmp_path):
        res = FitResult(core.preset("identity"), 0.0, 0.0, 1, True)
        path = tmp_path / "one.csv"
        write_fit_csv([("samples.csv", res)], path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[1][0] == "samples.csv"

    def test_csv_matches_saved_output(self, table, tmp_path):
        # written by the sequential fitter before descents were batched
        path = tmp_path / "fits.csv"
        write_fit_csv(table, path)
        assert path.read_bytes() == (DATA / "fit_classics_n201_b300_seed0.csv").read_bytes()


class TestSequentialOracle:
    """The batched fitter returns exactly what the sequential loop returns."""

    def test_replicate_classics(self, table):
        expected = [
            (kind, sequential_fit(FitTarget.from_kind(kind, -6, 6, 201), core.preset(*args),
                                  budget=300, seed=i)[0])
            for i, (kind, args) in enumerate(fitter.CLASSIC_TARGETS)]
        assert table == expected

    def test_restarts_stopping_at_different_iterations(self):
        target = FitTarget.from_kind(ActivationKind("leaky_relu", 0.01), -6, 6, 201)
        init = core.preset("leaky", 0.01)
        expected, log = sequential_fit(target, init, budget=300, seed=5)
        assert [iters for _, _, iters in log] == [297, 300, 300]
        assert fit(target, init, budget=300, seed=5) == expected

    def test_non_finite_target_exhausts_retries(self):
        target = FitTarget(np.linspace(-1, 1, 20), np.full(20, np.nan), "broken")
        expected, log = sequential_fit(target, core.preset("identity"), budget=50, seed=0)
        assert len(log) == 18 and all(iters is None for _, _, iters in log)
        assert fit(target, core.preset("identity"), budget=50, seed=0) == expected

    def test_blow_ups_recover_at_different_rates(self):
        grid = np.linspace(-1, 1, 20)
        target = FitTarget(grid, 1e150 * grid, "huge")
        init = core.preset("identity")
        with np.errstate(over="ignore", invalid="ignore"):
            expected, log = sequential_fit(target, init, budget=30, seed=0, lr=1e154)
            got = fit(target, init, budget=30, seed=0, lr=1e154)
        # restart 0 blows up six times; restarts 1 and 2 succeed on attempts 4 and 3
        assert [(r, a) for r, a, iters in log if iters is not None] == [(1, 4), (2, 3)]
        assert got == expected

    def test_effective_caps(self, capped_fits):
        expected = [capped_relu_fit(cap, lambda *a, **k: sequential_fit(*a, **k)[0])
                    for cap in CAPS]
        assert capped_fits == expected
