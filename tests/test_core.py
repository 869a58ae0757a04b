import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcgate import core
from arcgate.core import ArcGateParams, eval_F, eval_F_batch, eval_u, eval_v, grad, preset
from gradcheck_oracle import _gate_gradcheck
from signed_gate import u_signed, v_signed
from train_oracle import u_from_tape

# high-precision oracle values (mpmath, 50 digits)
V_AT_ODDS3 = 0.7951672353008665          # (2/pi) * atan(3)
F_SOFTRELU_3 = 2.9586618013432832        # 3 * (2/pi) * atan(odds(15))
F_SOFTRELU_NEG_LIMIT = -2.0 / (5.0 * math.pi ** 2)

finite_x = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def soft_relu():
    return preset("soft_relu_init")


class TestPositiveMap:
    def test_positive_for_very_negative_raw(self):
        assert core.positive_map(-1e4) >= 1e-6
        assert core.positive_map(-745.0) > 0

    @pytest.mark.parametrize("value", [1e-4, 0.03, 0.5, 1.0, 5.0, 123.0, 1e4])
    def test_round_trip(self, value):
        back = core.positive_map(core.raw_from_effective(value))
        assert math.isclose(back, value, rel_tol=1e-12)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=200)
    def test_grad_matches_finite_differences(self, raw):
        h = 1e-6
        fd = (core.positive_map(raw + h) - core.positive_map(raw - h)) / (2 * h)
        assert math.isclose(core.positive_map_grad(raw), fd, rel_tol=1e-7, abs_tol=1e-12)

    def test_rejects_values_at_or_below_floor(self):
        with pytest.raises(ValueError):
            core.raw_from_effective(1e-7)
        with pytest.raises(ValueError):
            core.raw_from_effective(math.nan)


class TestScalarChecks:
    """The scalar API checks x, then c and the affine four, then a and p."""

    # (bad raw fields, message of eval_F / grad, message of eval_v, which ignores the affine four)
    CASES = [
        (dict(c=math.nan, alpha=math.inf, a_raw=math.inf),
         "c must be finite, got nan", "c must be finite, got nan"),
        (dict(alpha=math.inf, delta=math.nan, a_raw=math.inf),
         "alpha must be finite, got inf", "steepness a must be finite and > 0, got inf"),
        (dict(delta=-math.inf, p_raw=math.nan),
         "delta must be finite, got -inf", "sharpness p must be finite and > 0, got nan"),
        (dict(a_raw=math.inf, p_raw=math.nan),
         "steepness a must be finite and > 0, got inf",
         "steepness a must be finite and > 0, got inf"),
        (dict(p_raw=math.nan),
         "sharpness p must be finite and > 0, got nan",
         "sharpness p must be finite and > 0, got nan"),
    ]

    @pytest.mark.parametrize("bad, message, v_message", CASES)
    def test_first_failing_check_names_its_value(self, bad, message, v_message):
        params = dataclasses.replace(soft_relu(), **bad)
        for call in (eval_F, grad, eval_v):
            with pytest.raises(ValueError, match=r"^x must be finite, got inf$"):
                call(math.inf, params)
        for call in (eval_F, grad):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(0.0, params)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eval_F_batch([math.nan], params)   # the parameters before the inputs
        with pytest.raises(ValueError, match=f"^{re.escape(v_message)}$"):
            eval_v(0.0, params)

    def test_eval_u_checks_x_then_c_then_a(self):
        with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
            eval_u(math.nan, -1.0, math.inf)
        with pytest.raises(ValueError, match=r"^c must be finite, got inf$"):
            eval_u(0.0, -1.0, math.inf)
        with pytest.raises(ValueError, match=r"^steepness a must be finite and > 0, got -1.0$"):
            eval_u(0.0, -1.0, 0.0)


class TestEvalU:
    def test_center_is_half(self):
        assert eval_u(0.0, 5.0, 0.0) == 0.5

    def test_atan_one_quarter_turn(self):
        assert eval_u(1.0, 1.0, 0.0) == 0.75

    def test_sign_flip_mirrors_transition(self):
        # formula extended to a = -1 reverses the direction: 0.25 = 1 - 0.75
        assert u_signed(1.0, -1.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            eval_u(math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            eval_u(0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            eval_u(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            eval_u(0.0, 1.0, math.inf)

    def test_strictly_increasing_on_grid(self):
        xs = np.linspace(-50, 50, 2001)
        us = [eval_u(float(x), 3.7, 0.4) for x in xs]
        assert all(b > a for a, b in zip(us, us[1:]))

    @given(finite_x, st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=300)
    def test_open_interval(self, x, a, c):
        u = eval_u(x, a, c)
        assert 0.0 < u < 1.0


class TestEvalV:
    def test_center_is_half_for_any_shape(self):
        for a, p in [(0.2, 0.3), (5.0, 1.0), (80.0, 9.0)]:
            params = ArcGateParams.from_effective(a, 1.7, p, 1, 0, 0, 0)
            assert eval_v(1.7, params) == 0.5

    def test_derived_value_at_odds_three(self):
        params = ArcGateParams.from_effective(1.0, 0.0, 1.0, 1, 0, 0, 0)
        assert eval_v(1.0, params) == pytest.approx(V_AT_ODDS3, abs=1e-6)

    @given(finite_x, st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=300)
    def test_negative_p_complement(self, x, a, p):
        # formula extended to signed p
        lhs = v_signed(x, a, 0.0, -p)
        rhs = 1.0 - v_signed(x, a, 0.0, p)
        assert abs(lhs - rhs) < 1e-10


class TestEvalF:
    def test_soft_relu_zero_at_origin(self):
        assert eval_F(0.0, soft_relu()).f == 0.0

    def test_identity_preset_is_identity(self):
        ident = preset("identity")
        assert eval_F(2.5, ident).f == 2.5
        assert eval_F(-1.0, ident).f == -1.0

    def test_soft_relu_derived_value(self):
        assert eval_F(3.0, soft_relu()).f == pytest.approx(F_SOFTRELU_3, abs=1e-9)

    def test_returns_stage_values(self):
        ev = eval_F(1.0, soft_relu())
        assert 0 < ev.u < 1 and 0 < ev.v < 1
        assert math.isfinite(ev.log_odds)
        assert ev.f == pytest.approx((1.0 * 1.0 + 0.0) * ev.v, rel=1e-15)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            eval_F(math.inf, soft_relu())

    def test_u_matches_the_array_formula_on_edge_points(self):
        # raw a and p from deep saturation to 40; x at +-0, +-1e8, c and c +- 1 ulp
        raws = (-40.0, -8.0, -1.0, 0.0, 0.5, 3.0, 12.0, 40.0)
        checked = 0
        for a_raw in raws:
            for p_raw in raws[::2]:
                for c in (0.0, 0.3, -2.5, 1e-300, -7e7):
                    params = ArcGateParams(a_raw, c, p_raw, 1.0, 0.5, 0.1, -0.2)
                    xs = np.array([0.0, -0.0, 1e8, -1e8, c, math.nextafter(c, math.inf),
                                   math.nextafter(c, -math.inf), c + 1e-3, c - 1e-3, 7.0, -7.0])
                    want = u_from_tape(core.batch_eval(xs, params.effective()))
                    got = np.array([eval_F(x, params).u for x in xs])
                    assert got.tobytes() == want.tobytes(), (a_raw, p_raw, c)
                    # eval_u is a one-element kernel call; u_signed is its former formula
                    got = np.array([eval_u(x, params.a, c) for x in xs])
                    assert got.tobytes() == want.tobytes(), (a_raw, p_raw, c)
                    got = np.array([u_signed(x, params.a, c) for x in xs])
                    assert got.tobytes() == want.tobytes(), (a_raw, p_raw, c)
                    checked += xs.size
        assert checked == 1760


class TestEvalFBatch:
    def test_trivial_rows(self):
        assert eval_F_batch([0.0], soft_relu()).tolist() == [0.0]
        assert eval_F_batch([2.5, -1.0], preset("identity")).tolist() == [2.5, -1.0]

    def test_bit_identical_to_scalar_loop(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(-8, 8, 64)
        params = ArcGateParams.from_effective(3.1, -0.4, 2.2, 1.1, 0.5, 0.05, -0.3)
        batch = eval_F_batch(xs, params)
        scalar = np.array([eval_F(float(x), params).f for x in xs])
        assert np.array_equal(batch, scalar)

    def test_reports_index_of_bad_input(self):
        with pytest.raises(ValueError, match="index 2"):
            eval_F_batch([0.0, 1.0, math.nan, 3.0], soft_relu())

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (-math.inf, "-inf")])
    def test_bad_input_printed_as_a_plain_float(self, bad, shown):
        with pytest.raises(ValueError) as exc:
            eval_F_batch([0.0, bad], soft_relu())
        assert str(exc.value) == f"non-finite input at index 1: {shown}"


class TestBatchRows:
    """A (k, 7) parameter matrix evaluates each row as its own 7-vector would."""

    FIELDS = ("z", "theta", "psmall", "log_odds", "e", "v", "f")

    @staticmethod
    def grid_and_rows(k=5, n=301):
        rng = np.random.default_rng(4)
        eff = np.array([ArcGateParams.from_raw_vector(core.random_raw(rng)).effective()
                        for _ in range(k)])
        return np.linspace(-6.0, 6.0, n), eff

    def assert_rows_match_one_vector_each(self, x, eff):
        """Each row of the (k, 7) tape and its partials equals its own 7-vector's, bit for bit."""
        tape = core.batch_eval(x, eff)
        partials = core._partials(tape)
        assert all(d.shape == tape.f.shape for d in partials)
        for r in range(len(eff)):
            one = core.batch_eval(x if x.ndim == 1 else x[r], tuple(eff[r]))
            for name in self.FIELDS:
                assert np.array_equal(getattr(tape, name)[r], getattr(one, name)), name
            for d, one_d in zip(partials, core._partials(one)):
                assert d[r].tobytes() == one_d.tobytes()
        return tape

    def test_rows_bit_identical_to_one_vector_each(self):
        grid, eff = self.grid_and_rows()
        self.assert_rows_match_one_vector_each(grid, eff)

    def test_rows_pair_with_the_rows_of_a_two_dimensional_x(self):
        _, eff = self.grid_and_rows()
        x = np.random.default_rng(6).normal(0.0, 3.0, (len(eff), 37))
        tape = self.assert_rows_match_one_vector_each(x, eff)
        assert tape.f.shape == x.shape
        assert core.batch_value(x, eff).tobytes() == tape.f.tobytes()
        for bad in (x[:-1], x[:, :, None]):
            with pytest.raises(ValueError, match="1-D grid or k rows of x"):
                core.batch_eval(bad, eff)

    def test_rejects_bad_shapes(self):
        grid, eff = self.grid_and_rows()
        with pytest.raises(ValueError, match="1-D grid"):
            core.batch_eval(grid.reshape(7, 43), eff)


class TestBatchValue:
    """batch_value gives batch_eval's f bit for bit."""

    # (a, c, p, alpha, beta, gamma, delta): a soft rectifier; a steep, sharp gate
    # whose t passes 745, so exp(-|t|) underflows to 0 and v sits at both
    # GATE_EPS clamps; one steep enough that |z| reaches _Z_CAP; a saturating one
    ROWS = np.array([
        (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0),
        (1e6, 0.3, 100.0, 0.75, -0.5, 0.25, 1.5),
        (1e60, -0.2, 0.5, -1.25, 0.5, 0.1, -0.3),
        (2.0, 1.0, 3.0, 0.0, 2.0, 0.0, -1.0),
    ])
    GRID = np.concatenate([np.linspace(-12.0, 12.0, 241),
                           [0.3, -0.2, 1e100, -1e100, 1e-300, -1e-300]])

    def test_edges_are_reached(self):
        tape = core.batch_eval(self.GRID, self.ROWS)
        assert (tape.z > 0).any() and (tape.z < 0).any()
        assert (np.abs(tape.z) == core._Z_CAP).any()
        assert (tape.e == 0.0).any()
        assert (tape.v == core.GATE_EPS).any() and (tape.v == 1.0 - core.GATE_EPS).any()

    def test_rows_and_vectors_match_batch_eval(self):
        want = core.batch_eval(self.GRID, self.ROWS).f
        assert core.batch_value(self.GRID, self.ROWS).tobytes() == want.tobytes()
        for row, want_row in zip(self.ROWS, want):
            got = core.batch_value(self.GRID, tuple(row))
            assert got.tobytes() == core.batch_eval(self.GRID, tuple(row)).f.tobytes()
            assert got.tobytes() == want_row.tobytes()

    def test_two_dimensional_batch(self):
        x = np.random.default_rng(5).normal(0.0, 4.0, (64, 48))
        for row in self.ROWS:
            got = core.batch_value(x, tuple(row))
            assert got.shape == x.shape
            assert got.tobytes() == core.batch_eval(x, tuple(row)).f.tobytes()

    def test_a_fresh_tape_is_seven_arrays_and_a_work_array(self):
        x = np.random.default_rng(3).normal(0.0, 2.0, (64, 256))
        eff = tuple(self.ROWS[0])
        core.batch_eval(x, eff)                        # first-call allocations
        tracemalloc.start()
        try:
            core.batch_eval(x, eff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the tape's seven arrays and one work array; 11.08 inputs when the tape
        # kept four scratch arrays, 12.09 when it also kept t
        assert peak < 8.5 * x.nbytes, peak / x.nbytes

    def test_later_calls_leave_earlier_results_alone(self):
        x = np.random.default_rng(3).normal(0.0, 2.0, (64, 256))
        tape = core.batch_eval(x, tuple(self.ROWS[0]))
        cot = np.random.default_rng(4).normal(size=(2, *x.shape))
        d_x, d_eff = core.batch_vjp(tape, cot[0])
        arrays = (d_x, d_eff, *(getattr(tape, name) for name in TestBatchRows.FIELDS))
        first = [a.copy() for a in arrays]
        core.batch_vjp(tape, cot[1])
        core.batch_eval(x, tuple(self.ROWS[1]))
        for was, now in zip(first, arrays):
            assert now.tobytes() == was.tobytes()


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bit for bit (so -0 differs from +0), except that any NaN matches any NaN."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


class TestStep:
    """batch_eval's step gives the v and f bits of the np.heaviside(t, 1) formula."""

    # (t it lands on, x, (a, c, p)); alpha..delta are fixed below
    CASES = [
        ("+0", 0.0, (1.0, 0.0, 1.0)),
        ("-0", 0.0, (1.0, 0.0, -1.0)),
        ("+inf", 5.0, (1.0, 0.0, 1e308)),
        ("-inf", -5.0, (1.0, 0.0, 1e308)),
        ("nan", 0.0, (1.0, 0.0, math.inf)),         # inf * 0
        ("nan", math.nan, (1.0, 0.0, 1.0)),
        ("+subnormal", 1.0, (1.0, 0.0, 1e-310)),
        ("-subnormal", -1.0, (1.0, 0.0, 1e-310)),
    ]

    @staticmethod
    def heaviside_formula(tape):
        _a, _c, p, alpha, beta, gamma, delta = tape.eff
        with np.errstate(over="ignore", invalid="ignore"):
            t = p * tape.log_odds          # the kernel's t, which the tape does not keep
        side = np.arctan(np.exp(-np.abs(t))) / (math.pi / 2)
        v = np.clip(np.abs(np.heaviside(t, 1.0) - side), core.GATE_EPS, 1.0 - core.GATE_EPS)
        return t, v, (alpha * tape.x + beta) * v + (gamma * tape.x + delta)

    @pytest.mark.parametrize("kind, x, acp", CASES)
    def test_edge_t_matches_heaviside(self, kind, x, acp):
        with np.errstate(invalid="ignore"):
            tape = core.batch_eval(np.array([x]), (*acp, 0.75, -0.5, 0.25, 1.5))
            t, v, f = self.heaviside_formula(tape)
        t = t[0]
        landed = {"+0": t == 0 and not np.signbit(t), "-0": t == 0 and np.signbit(t),
                  "+inf": t == math.inf, "-inf": t == -math.inf, "nan": math.isnan(t),
                  "+subnormal": 0 < t < np.finfo(float).tiny,
                  "-subnormal": 0 > t > -np.finfo(float).tiny}[kind]
        assert landed, t
        assert same_bits(tape.v, v) and same_bits(tape.f, f)


class TestGateGradcheck:
    """gate_gradcheck returns exactly the one-draw-at-a-time oracle's worst error."""

    @pytest.mark.parametrize("skew", [False, True], ids=["exact", "skewed"])
    @pytest.mark.parametrize("seed", [0, 18, 1456708897, 42])
    def test_matches_the_oracle(self, seed, skew, monkeypatch):
        if skew:
            exact = core._partials

            def skewed(tape):
                # the suite and the oracle's grad both take their partials here
                d_x, d_a, d_c, d_p = exact(tape)
                d_a *= 1.0 + 1e-4
                d_p *= 1.0 - 3e-5
                return d_x, d_a, d_c, d_p

            monkeypatch.setattr(core, "_partials", skewed)
        want = _gate_gradcheck(1000, seed, 1e-5)
        assert (want > 1e-5) == skew
        assert core.gate_gradcheck(1000, seed).hex() == want.hex()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_shifted_value_matches_the_oracle(self, seed, monkeypatch):
        # 32 F values per draw: 4 shifts of x, then of each parameter in order.  Per
        # block of k draws, one (k, 4) call shifts x and one (28 k, 1) call the parameters.
        batch_value, eval_F = core.batch_value, core.eval_F
        batched, scalar = [], []

        def recording_batch_value(x, eff):
            f = batch_value(x, eff)
            batched.append(f.copy())
            return f

        def recording_eval_F(x, params):
            result = eval_F(x, params)
            scalar.append(result.f)
            return result

        monkeypatch.setattr(core, "batch_value", recording_batch_value)
        core.gate_gradcheck(300, seed)
        monkeypatch.setattr(core, "batch_value", batch_value)
        monkeypatch.setattr(core, "eval_F", recording_eval_F)
        _gate_gradcheck(300, seed, 1e-5)
        assert [f.shape for f in batched] == [(128, 4), (128 * 28, 1)] * 2 + [(44, 4), (44 * 28, 1)]
        per_draw = np.concatenate([np.concatenate([xs, ps.reshape(len(xs), 28)], axis=1)
                                   for xs, ps in zip(batched[::2], batched[1::2])])
        assert per_draw.tobytes() == np.array(scalar).tobytes()

    def test_memory_is_flat_in_the_draws(self):
        peaks = []
        for samples in (200, 2000):
            tracemalloc.start()
            try:
                core.gate_gradcheck(samples, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks


class TestGrad:
    def test_affine_partials_are_exact(self):
        params = ArcGateParams.from_effective(4.0, 0.3, 1.5, 0.7, -0.2, 0.4, 1.1)
        for x in (-2.0, 0.3, 5.5):
            g = grad(x, params)
            v = eval_F(x, params).v
            assert g.d_alpha == x * v
            assert g.d_beta == v
            assert g.d_gamma == x
            assert g.d_delta == 1.0

    def test_identity_preset_partials(self):
        ident = preset("identity")
        for x in (-3.0, 0.0, 2.7):
            g = grad(x, ident)
            v = eval_F(x, ident).v
            assert g.d_x == 1.0
            assert g.d_gamma == x
            assert g.d_alpha == x * v
            assert g.d_delta == 1.0

    def test_sharpness_partial_vanishes_at_center(self):
        params = ArcGateParams.from_effective(3.3, 1.7, 2.2, 1.0, 0.5, 0.2, -0.1)
        assert grad(1.7, params).d_p == 0.0

    def test_spot_check_against_central_differences(self):
        params = soft_relu()
        g = grad(0.7, params)
        names = ["d_x", "d_a", "d_c", "d_p", "d_alpha", "d_beta", "d_gamma", "d_delta"]
        base = [0.7, *params.effective()]
        for i, name in enumerate(names):
            h = 1e-5 * max(1.0, abs(base[i]))
            hi, lo = base.copy(), base.copy()
            hi[i] += h
            lo[i] -= h
            fd = (eval_F(hi[0], ArcGateParams.from_effective(*hi[1:])).f
                  - eval_F(lo[0], ArcGateParams.from_effective(*lo[1:])).f) / (2 * h)
            ana = getattr(g, name)
            assert fd == pytest.approx(ana, rel=1e-6, abs=1e-10), name

    def test_all_fields_finite_for_extreme_inputs(self):
        params = ArcGateParams.from_effective(1e3, 0.0, 10.0, 1.0, 0.5, 0.1, -0.2)
        for x in (-1e8, -1.0, 0.0, 1.0, 1e8):
            g = grad(x, params)
            for name in ("f", "d_x", "d_a", "d_c", "d_p", "d_alpha", "d_beta",
                         "d_gamma", "d_delta"):
                assert math.isfinite(getattr(g, name)), (x, name)


class TestPresets:
    def test_soft_relu_init_tuple_exact(self):
        assert soft_relu().effective() == (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)

    def test_relu_like_heaviside_limit(self):
        params = preset("relu_like", 1e4)
        xs = np.concatenate([np.linspace(-5, -0.5, 200), np.linspace(0.5, 5, 200)])
        fs = eval_F_batch(xs, params)
        assert np.max(np.abs(fs - np.maximum(xs, 0.0))) < 1e-3

    def test_tanh_like_shape(self):
        params = preset("tanh_like")
        assert eval_F(0.0, params).f == 0.0
        assert eval_F(1e6, params).f == pytest.approx(1.0, abs=1e-6)
        assert eval_F(-1e6, params).f == pytest.approx(-1.0, abs=1e-6)

    def test_sigmoid_like_is_bounded_sigmoidal(self):
        params = preset("sigmoid_like")
        assert eval_F(0.0, params).f == 0.5
        assert eval_F(50.0, params).f < 1.0
        assert eval_F(-50.0, params).f > 0.0

    def test_leaky_negative_slope(self):
        params = preset("leaky", 0.05)
        assert eval_F(-4.0, params).f == pytest.approx(-0.2, rel=1e-6)

    def test_invalid_payloads(self):
        with pytest.raises(ValueError):
            preset("relu_like", 0.5)
        with pytest.raises(ValueError):
            preset("relu_like")
        with pytest.raises(ValueError):
            preset("leaky", 1.5)
        with pytest.raises(ValueError):
            preset("soft_relu_init", 2.0)
        with pytest.raises(ValueError):
            preset("swish")


class TestInvariants:
    def test_mirror_symmetry_grid(self):
        # u(x; -a, c) = 1 - u(x; a, c) on a 10x10x10 grid
        xs = np.linspace(-8, 8, 10)
        steeps = np.geomspace(0.1, 100, 10)
        centers = np.linspace(-2, 2, 10)
        worst = 0.0
        for x in xs:
            for a in steeps:
                for c in centers:
                    lhs = u_signed(float(x), float(-a), float(c))
                    rhs = 1.0 - u_signed(float(x), float(a), float(c))
                    worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-12

    def test_gate_complement_symmetry_grid(self):
        # v(x; -p) = 1 - v(x; p) on a 10x10x10 grid
        xs = np.linspace(-8, 8, 10)
        steeps = np.geomspace(0.1, 100, 10)
        sharps = np.geomspace(0.1, 10, 10)
        worst = 0.0
        for x in xs:
            for a in steeps:
                for p in sharps:
                    lhs = v_signed(float(x), float(a), 0.3, float(-p))
                    rhs = 1.0 - v_signed(float(x), float(a), 0.3, float(p))
                    worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_stability_grid(self):
        for x in (1e2, -1e2, 1e4, -1e4, 1e8, -1e8):
            for a in (1e-3, 1.0, 1e3):
                for p in (0.1, 1.0, 10.0):
                    params = ArcGateParams.from_effective(a, 0.0, p, 1.0, 0.5, 0.1, -0.2)
                    ev = eval_F(x, params)
                    assert 0.0 < ev.u < 1.0
                    assert 0.0 < ev.v < 1.0
                    assert math.isfinite(ev.f)

    def test_gate_values_survive_astronomical_inputs(self):
        # far beyond the stability grid the clamp must hold the open interval
        params = ArcGateParams.from_effective(1e4, 0.0, 10.0, 1.0, 0.0, 0.0, 0.0)
        for x in (1e300, -1e300):
            ev = eval_F(x, params)
            assert core.GATE_EPS <= ev.u <= 1.0 - core.GATE_EPS
            assert core.GATE_EPS <= ev.v <= 1.0 - core.GATE_EPS

    def test_asymptotic_gating(self):
        params = soft_relu()
        assert abs(eval_F(1e6, params).f / 1e6 - 1.0) < 1e-4
        left_far = eval_F(-1e6, params).f
        left_farther = eval_F(-1e8, params).f
        assert abs(left_far - left_farther) < 1e-6
        assert left_farther == pytest.approx(F_SOFTRELU_NEG_LIMIT, abs=1e-6)

    def test_smoothness_proxy_second_differences(self):
        # Spec-sized step 1e-3; the gate's second-difference jump is bounded by
        # max|F'''| * step (~2.6e-2 for a=5) while ReLU's blows up as 1/step.
        from arcgate import zoo
        h = 1e-3
        xs = np.arange(-0.05, 0.05 + h / 2, h)
        params = soft_relu()

        def second(f):
            vals = np.array([(f(x + h) - 2 * f(x) + f(x - h)) / (h * h) for x in xs])
            return np.abs(np.diff(vals)).max()

        gate_jump = second(lambda x: eval_F(float(x), params).f)
        relu_jump = second(lambda x: zoo.act(zoo.ActivationKind("relu"), float(x)))
        assert gate_jump < 5e-2
        assert relu_jump > 100.0

    def test_gradients_match_finite_differences_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
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
                assert abs(fd - ana) <= max(1e-5 * abs(ana), 1e-8)
