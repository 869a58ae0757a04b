import csv
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from arcgate import core, fitter, zoo
from arcgate.fitter import FitResult, FitTarget, fit, write_fit_csv
from arcgate.zoo import ActivationKind

DATA = Path(__file__).parent / "data"


class TestFitTarget:
    def test_from_kind_builds_grid(self):
        tgt = FitTarget.from_kind(ActivationKind("relu"), -2, 2, 33)
        assert tgt.grid.shape == (33,)
        assert tgt.values[0] == 0.0 and tgt.values[-1] == 2.0

    @pytest.mark.parametrize("tag", zoo.KIND_TAGS)
    def test_from_kind_values_are_the_batch_values_in_their_own_array(self, tag):
        # act_batch returns its input for identity; the target must not alias its grid
        kind = ActivationKind(tag)
        tgt = FitTarget.from_kind(kind, -3, 3, 41)
        assert tgt.values.tobytes() == zoo.act_batch(kind, np.linspace(-3, 3, 41)).tobytes()
        assert not np.shares_memory(tgt.values, tgt.grid)

    def test_validation(self):
        with pytest.raises(ValueError):
            FitTarget(np.linspace(0, 1, 8), np.zeros(8), "too-few")
        with pytest.raises(ValueError):
            FitTarget(np.zeros(20), np.zeros(20), "flat-grid")
        with pytest.raises(ValueError):
            FitTarget.from_kind(ActivationKind("relu"), 2, -2, 33)
        with pytest.raises(ValueError):
            FitTarget(np.linspace(0, 1, 20), np.zeros(21), "shape")

    @pytest.mark.parametrize("column, k, bad", [("grid point", 0, -math.inf),
                                                 ("value", 7, math.nan),
                                                 ("value", 19, math.inf)])
    def test_non_finite_samples_rejected(self, column, k, bad):
        grid, values = np.linspace(-1, 1, 20), np.zeros(20)
        (grid if column == "grid point" else values)[k] = bad
        with pytest.raises(ValueError, match=rf"^target {column} {k} is {bad!r}, not finite$"):
            FitTarget(grid, values, "bad")

    @pytest.mark.parametrize("n_points", [-1, 0, 15])
    def test_too_few_points_rejected(self, n_points):
        with pytest.raises(ValueError,
                           match=rf"^target grid needs at least 16 points, got {n_points}$"):
            FitTarget.from_kind(ActivationKind("relu"), -1, 1, n_points)

    @pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                        (0.0, math.nan)])
    def test_non_finite_window_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=r"fit window must be finite, got \["):
            FitTarget.from_kind(ActivationKind("relu"), lo, hi, 33)


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

    def test_a_fit_without_a_finite_descent_yields_failure_result(self):
        # alpha = 1e308 takes F past the double range, so the only descent's start is rejected
        target = FitTarget.from_kind(ActivationKind("tanh"), -6, 6, 101)
        overflowing = core.ArcGateParams.from_effective(1e4, 0.0, 1e3, 1e308, 0.0, 0.0, 0.0)
        res = fit(target, overflowing, budget=50, seed=0, restarts=1)
        assert not res.converged
        assert math.isinf(res.l_inf_error) and math.isinf(res.l2_error)
        assert res.params == overflowing

    def test_budget_validation(self):
        tgt = FitTarget.from_kind(ActivationKind("relu"), -1, 1, 20)
        with pytest.raises(ValueError):
            fit(tgt, core.preset("identity"), budget=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_validation(self, restarts):
        tgt = FitTarget.from_kind(ActivationKind("relu"), -1, 1, 20)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            fit(tgt, core.preset("identity"), restarts=restarts)

    def test_exact_init_stops_the_later_restarts(self):
        tgt = FitTarget.from_kind(ActivationKind("identity"), -6, 6, 201)
        three = fit(tgt, core.preset("identity"), seed=6, restarts=3)
        one = fit(tgt, core.preset("identity"), seed=6, restarts=1)
        assert (three.params, three.l_inf_error, three.l2_error, three.converged) \
            == (one.params, one.l_inf_error, one.l2_error, one.converged)
        assert one.iterations == 1 and three.iterations == 3

    def test_self_recovery_in_function_space(self):
        theta = core.ArcGateParams.from_effective(2.0, -0.3, 1.5, 0.8, 0.2, 0.0, 0.1)
        grid = np.linspace(-5, 5, 201)
        tgt = FitTarget(grid, core.eval_F_batch(grid, theta), "self")
        res = fit(tgt, core.preset("soft_relu_init"), budget=4000, seed=1)
        fitted = core.eval_F_batch(grid, res.params)
        assert np.max(np.abs(fitted - tgt.values)) < 1e-3  # full bound in acceptance


class TestOverflowingTargets:
    """Targets whose n * max|y|**2 overflows are fitted in units of a power of two."""

    XS = np.linspace(-3, 3, 20)

    def test_the_descent_is_that_of_the_target_in_its_unit(self):
        # max|y| = 0.995e200, so the unit is 2**665; F is linear in alpha..delta
        big = FitTarget(self.XS, np.tanh(self.XS) * 1e200, "big")
        unit = 2.0 ** 665
        assert fitter._units(big.values[None]).tolist() == [unit]
        init = core.preset("soft_relu_init")
        scaled = init.raw_vector()
        scaled[3:] /= unit
        small = FitTarget(self.XS, big.values / unit, "small")
        a = fit(big, init, budget=300, seed=0, restarts=1)
        b = fit(small, core.ArcGateParams.from_raw_vector(scaled), budget=300, seed=0,
                restarts=1)
        want = b.params.raw_vector()
        want[3:] *= unit
        assert a.params.raw_vector().tobytes() == want.tobytes()
        assert (a.l_inf_error, a.l2_error) == (b.l_inf_error * unit, b.l2_error * unit)
        assert (a.iterations, a.converged) == (b.iterations, b.converged)

    @pytest.mark.parametrize("shape", [np.tanh, np.ones_like])
    def test_errors_are_finite_and_relative_errors_small(self, shape):
        values = shape(self.XS)
        plain = fit(FitTarget(self.XS, values, "plain"), core.preset("soft_relu_init"),
                    budget=300)
        big = fit(FitTarget(self.XS, values * 1e200, "big"), core.preset("soft_relu_init"),
                  budget=300)
        assert math.isfinite(big.l_inf_error) and math.isfinite(big.l2_error)
        assert big.l_inf_error / 1e200 <= max(plain.l_inf_error, 1e-12)

    def test_targets_that_fit_today_are_not_scaled(self):
        grid = np.linspace(-6, 6, 1001)
        values = np.array([zoo.act_batch(kind, grid) for kind, _ in fitter.CLASSIC_TARGETS])
        assert fitter._units(values) is None
        assert fitter._units(np.full((1, 1001), 1e150)) is None


@functools.cache
def classics_n201_b300(seed):
    return fitter.replicate_classics(n_points=201, budget=300, seed=seed)


def saved_l_inf(name):
    """Target tag -> l_inf of a saved fit table; a ``#`` comment line is skipped."""
    with open(DATA / name, newline="") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    return {row[0]: float(row[9]) for row in rows[1:]}


@pytest.fixture(scope="module")
def table():
    return classics_n201_b300(0)


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
        write_fit_csv(table, path, (-6.0, 6.0), 300, 0)
        comment, *lines = path.read_text().splitlines()
        assert comment == "# range=-6.0,6.0 budget=300 seed=0"
        rows = list(csv.reader(lines))
        assert rows[0] == ["target", "kind", "a", "c", "p", "alpha", "beta",
                           "gamma", "delta", "l_inf", "l2", "iterations", "converged"]
        assert len(rows) == 8
        assert rows[6][1] == "leaky_relu(0.01)"

    def test_csv_accepts_plain_labels(self, tmp_path):
        res = FitResult(core.preset("identity"), 0.0, 0.0, 1, True)
        path = tmp_path / "one.csv"
        write_fit_csv([("samples.csv", res)], path, (-1.5, 2.0), 10, 3)
        comment, *lines = path.read_text().splitlines()
        assert comment == "# range=-1.5,2.0 budget=10 seed=3"
        assert list(csv.reader(lines))[1][0] == "samples.csv"

    def test_csv_matches_saved_output(self, table, tmp_path):
        # written by the Levenberg–Marquardt fitter with the ÷3/×2 damping schedule
        path = tmp_path / "fits.csv"
        write_fit_csv(table, path, (-6.0, 6.0), 300, 0)
        assert path.read_bytes() == (DATA / "fit_classics_n201_b300_seed0.csv").read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
    def test_no_worse_than_the_saved_adam_table(self, seed):
        # the Adam fitter's seed-0 table at the same grid and budget
        adam_l_inf = saved_l_inf("fit_classics_adam_n201_b300_seed0.csv")
        for kind, res in classics_n201_b300(seed):
            assert res.l_inf_error <= adam_l_inf[kind.tag], kind.tag

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
    def test_no_worse_than_the_saved_tenfold_table(self, seed):
        # the seed-0 table of Levenberg–Marquardt with ÷10/×10 damping, same grid and budget
        lm10_l_inf = saved_l_inf("fit_classics_lm10_n201_b300_seed0.csv")
        for kind, res in classics_n201_b300(seed):
            assert res.l_inf_error <= lm10_l_inf[kind.tag], kind.tag


class TestBatchInvariance:
    """A descent's row of the batch follows exactly the arithmetic of a fit run alone."""

    def test_replicate_classics_rows_equal_single_fits(self, table):
        expected = [(kind, fit(FitTarget.from_kind(kind, -6, 6, 201), core.preset(*args),
                               budget=300, seed=i))
                    for i, (kind, args) in enumerate(fitter.CLASSIC_TARGETS)]
        assert table == expected

    def test_restarts_stopping_at_different_iterations(self):
        target = FitTarget.from_kind(ActivationKind("leaky_relu", 0.01), -6, 6, 201)
        rng = np.random.default_rng(5)
        starts = np.array([core.preset("leaky", 0.01).raw_vector(), core.random_raw(rng),
                           core.random_raw(rng)])
        values = np.tile(target.values, (3, 1))
        together = fitter._descend_rows(target.grid, values, starts.copy(), np.zeros(3, int), 300)
        assert [iters for _, _, iters, _ in together] == [6, 6, 40]
        for r, (loss, raw, iters, converged) in enumerate(together):
            alone = fitter._descend_rows(target.grid, values[r:r + 1], starts[r:r + 1].copy(),
                                         np.zeros(1, int), 300)[0]
            assert alone[0] == loss and alone[1].tobytes() == raw.tobytes()
            assert alone[2:] == (iters, converged)

    def test_an_exact_row_stops_only_the_later_rows_of_its_fit(self):
        target = FitTarget.from_kind(ActivationKind("identity"), -6, 6, 201)
        starts = np.array([core.preset("sigmoid_like").raw_vector(),
                           core.preset("identity").raw_vector(),
                           core.random_raw(np.random.default_rng(3))])
        values = np.tile(target.values, (3, 1))
        first, exact, later = fitter._descend_rows(target.grid, values, starts.copy(),
                                                   np.zeros(3, int), 300)
        assert exact[0] == 0.0 and exact[2:] == (1, True)
        assert later[0] > 0.0 and later[2:] == (1, False)
        alone = fitter._descend_rows(target.grid, values[:1], starts[:1].copy(),
                                     np.zeros(1, int), 300)[0]
        assert alone[0] == first[0] and alone[1].tobytes() == first[1].tobytes()
        assert alone[2:] == first[2:] and first[2] > 1

    def test_singular_and_non_finite_rows_leave_the_others_intact(self):
        # the identity preset has zero a, c and p Jacobian columns (alpha = beta = 0),
        # so its first damped system is singular without Marquardt's floored diagonal
        grid = np.linspace(-6, 6, 201)
        sigmoid = FitTarget.from_kind(ActivationKind("sigmoid"), -6, 6, 201)
        values = np.array([0.5 * grid + 0.25, np.full(201, np.nan), sigmoid.values])
        inits = [core.preset("identity"), core.preset("identity"), core.preset("sigmoid_like")]
        line, broken, fitted = fitter._fit_targets(grid, values, inits, [0, 0, 4],
                                                   budget=300, restarts=1)
        assert line.l_inf_error < 1e-12
        assert math.isinf(broken.l_inf_error) and not broken.converged
        assert fitted == fit(sigmoid, core.preset("sigmoid_like"), budget=300, seed=4,
                             restarts=1)
        assert fitted.l_inf_error < 0.003    # 0.18 at the preset

    def test_a_row_rejected_with_a_non_finite_loss_leaves_the_others_intact(self):
        # alpha = 1e308 takes F past the double range, so that row's start is rejected;
        # its partials, taken along with the accepted row's, meet inf * 0 and must not
        # warn (the suite turns warnings into errors)
        target = FitTarget.from_kind(ActivationKind("tanh"), -6, 6, 101)
        overflowing = core.ArcGateParams.from_effective(1e4, 0.0, 1e3, 1e308, 0.0, 0.0, 0.0)
        starts = np.array([overflowing.raw_vector(), core.random_raw(np.random.default_rng(3))])
        values = np.tile(target.values, (2, 1))
        rejected, kept = fitter._descend_rows(target.grid, values, starts.copy(),
                                              np.zeros(2, int), 50)
        alone = fitter._descend_rows(target.grid, values[1:], starts[1:].copy(),
                                     np.zeros(1, int), 50)[0]
        assert rejected is None and kept[2] > 1
        assert alone[0] == kept[0] and alone[1].tobytes() == kept[1].tobytes()
        assert alone[2:] == kept[2:]
        result = fit(target, overflowing, budget=50, seed=3, restarts=2)
        assert result.params.raw_vector().tobytes() == kept[1].tobytes()
