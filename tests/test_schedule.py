"""Schedule families, bridge coefficients, epsilon policies, time grids."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab.schedule import (
    T_HORIZON,
    EpsilonPolicy,
    Schedule,
    TimeGrid,
    bridge_coefficients,
    epsilon,
    eval_schedule,
    make_time_grid,
    verify_reformulation,
)

PINNED_KINDS = [
    Schedule(kind="linear"),
    Schedule(kind="linear", gamma_multiplier=2.0),
    Schedule(kind="trig"),
    Schedule(kind="trig", gamma_scale=0.25),
    Schedule(kind="ddbm_ve"),
    Schedule(kind="ddbm_vp"),
    Schedule(kind="ddbm_vp", beta_d=5.0, beta_min=0.05),
    Schedule(kind="i2sb"),
    Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.3, 0.7, 1.0), i2sb_values=(0.5, 2.0, 1.0)),
]

INTERIOR = np.linspace(0.01, 0.99, 99)


def _custom_quadratic() -> Schedule:
    return Schedule(
        kind="custom",
        alpha_fn=lambda t: 1.0 - t * t,
        beta_fn=lambda t: t * t,
        gamma_fn=lambda t: 0.1 * t * (1.0 - t),
    )


class TestEndpoints:
    @pytest.mark.parametrize("sched", PINNED_KINDS, ids=lambda s: f"{s.kind}")
    def test_pinned_at_both_ends(self, sched):
        """alpha, beta, gamma interpolate exactly between the two endpoints."""
        ev0 = eval_schedule(sched, 0.0)
        evT = eval_schedule(sched, T_HORIZON)
        for got, want in [
            (ev0.alpha, 1.0), (ev0.beta, 0.0), (ev0.gamma, 0.0),
            (evT.alpha, 0.0), (evT.beta, 1.0), (evT.gamma, 0.0),
        ]:
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("sched", PINNED_KINDS, ids=lambda s: f"{s.kind}")
    def test_interior_positivity(self, sched):
        for t in INTERIOR:
            ev = eval_schedule(sched, t)
            assert ev.alpha > 0 and ev.beta > 0 and ev.gamma > 0

    def test_edm_is_identity_plus_noise(self):
        sched = Schedule(kind="edm")
        for t in (0.0, 0.3, 0.7, 1.0):
            ev = eval_schedule(sched, t)
            assert ev.alpha == 1.0 and ev.beta == 0.0
            assert ev.gamma == t


class TestEvalExamples:
    def test_linear_midpoint(self):
        ev = eval_schedule(Schedule(kind="linear", gamma_max=0.125), 0.5)
        assert (ev.alpha, ev.beta) == (0.5, 0.5)
        assert abs(ev.gamma - 0.03125) < 1e-15

    def test_edm_at_0p7(self):
        ev = eval_schedule(Schedule(kind="edm"), 0.7)
        assert (ev.alpha, ev.beta, ev.gamma) == (1.0, 0.0, 0.7)

    def test_trig_midpoint(self):
        ev = eval_schedule(Schedule(kind="trig", gamma_scale=1.0), 0.5)
        np.testing.assert_allclose([ev.alpha, ev.beta], math.sqrt(2) / 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ev.gamma, 1.0, rtol=0, atol=1e-15)

    def test_out_of_range_t(self):
        with pytest.raises(ValueError, match="outside"):
            eval_schedule(Schedule(kind="linear"), -0.01)
        with pytest.raises(ValueError, match="outside"):
            eval_schedule(Schedule(kind="linear"), 1.01)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Schedule(kind="linear", gamma_max=0.0)
        with pytest.raises(ValueError):
            Schedule(kind="ddbm_vp", beta_d=-1.0)
        with pytest.raises(ValueError):
            Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.5), i2sb_values=(1.0, 2.0))
        with pytest.raises(ValueError):
            Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.7, 0.5, 1.0), i2sb_values=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Schedule(kind="nope")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"kind": "linear", "gamma_multiplier": 0.0}, "gamma_multiplier must be positive"),
            ({"kind": "trig", "gamma_scale": -0.5}, "gamma_scale must be positive"),
            ({"kind": "i2sb", "i2sb_breakpoints": (0.0, 0.5, 1.0), "i2sb_values": (1.0, 0.0)},
             "i2sb noise-rate values must be positive"),
            ({"kind": "custom", "alpha_fn": abs, "beta_fn": abs, "gamma_fn": abs, "fd_step": 0.0},
             "fd_step must be positive"),
        ],
        ids=["gamma-multiplier", "gamma-scale", "i2sb-value", "fd-step"],
    )
    def test_non_positive_parameters_name_the_field(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Schedule(**kwargs)

    def test_trig_does_not_read_gamma_max(self):
        ignored = Schedule(kind="trig", gamma_max=-1.0)
        assert eval_schedule(ignored, 0.3) == eval_schedule(Schedule(kind="trig"), 0.3)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters(self, bad):
        for key in ("gamma_max", "gamma_multiplier"):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                Schedule(kind="linear", **{key: bad})
        with pytest.raises(ValueError, match="gamma_scale must be finite"):
            Schedule(kind="trig", gamma_scale=bad)
        with pytest.raises(ValueError, match="beta_d must be finite"):
            Schedule(kind="ddbm_vp", beta_d=bad)
        with pytest.raises(ValueError, match="i2sb breakpoints and values must be finite"):
            Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.5, 1.0), i2sb_values=(1.0, bad))
        with pytest.raises(ValueError, match="i2sb breakpoints and values must be finite"):
            Schedule(kind="i2sb", i2sb_breakpoints=(0.0, bad, 1.0), i2sb_values=(1.0, 1.0))

    @pytest.mark.parametrize("key", ["gamma_max", "gamma_multiplier", "fd_step"])
    def test_bool_parameters_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must be finite and real, got True"):
            Schedule(kind="linear", **{key: True})

    @pytest.mark.parametrize(
        "field, kw",
        [("i2sb_values", dict(i2sb_values=(True,))),
         ("i2sb_breakpoints", dict(i2sb_breakpoints=(0.0, True), i2sb_values=(1.0,)))],
    )
    def test_bool_i2sb_entries_rejected(self, field, kw):
        with pytest.raises(ValueError, match=f"{field} holds True"):
            Schedule(kind="i2sb", **kw)

    @pytest.mark.parametrize("as_sequence", [np.array, list], ids=["array", "list"])
    def test_i2sb_sequences_are_stored_as_float_tuples(self, as_sequence):
        """An array or list of i2sb values is stored as a tuple of floats, so the
        schedule hashes and compares by value."""
        sched = Schedule(kind="i2sb", i2sb_breakpoints=as_sequence([0, 0.5, 1.0]),
                         i2sb_values=as_sequence([1.0, 2.0]))
        assert sched.i2sb_breakpoints == (0.0, 0.5, 1.0) and sched.i2sb_values == (1.0, 2.0)
        assert all(type(v) is float for v in sched.i2sb_breakpoints + sched.i2sb_values)
        same = Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.5, 1.0), i2sb_values=(1.0, 2.0))
        assert sched == same and hash(sched) == hash(same)
        for a, b in zip(eval_schedule(sched, INTERIOR), eval_schedule(same, INTERIOR)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("value", [5, 2.0, np.array(1.0), "1.0", None],
                             ids=["int", "float", "0-d-array", "str", "None"])
    def test_i2sb_field_that_is_not_a_sequence_rejected(self, value):
        with pytest.raises(ValueError, match="i2sb_values must be a sequence of numbers"):
            Schedule(kind="i2sb", i2sb_values=value)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("sched", PINNED_KINDS + [Schedule(kind="edm")], ids=lambda s: s.kind)
    def test_matches_central_differences(self, sched):
        """Analytic derivatives agree with h = 1e-6 central differences."""
        h = 1e-6
        breakpoints = sched.i2sb_breakpoints if sched.kind == "i2sb" else ()
        for t in INTERIOR:
            if any(abs(t - b) <= 1e-3 for b in breakpoints):
                continue
            ev = eval_schedule(sched, t)
            lo = eval_schedule(sched, t - h)
            hi = eval_schedule(sched, t + h)
            np.testing.assert_allclose(
                [ev.d_alpha, ev.d_beta, ev.d_gamma],
                [
                    (hi.alpha - lo.alpha) / (2 * h),
                    (hi.beta - lo.beta) / (2 * h),
                    (hi.gamma - lo.gamma) / (2 * h),
                ],
                rtol=1e-5,
                atol=1e-8,
            )


class TestBridgeCoefficients:
    def test_linear_midpoint_example(self):
        co = bridge_coefficients(Schedule(kind="linear", gamma_max=0.125), 0.5)
        np.testing.assert_allclose([co.f, co.s], [-2.0, 2.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(co.g_sq, 0.00390625, rtol=0, atol=1e-18)

    def test_edm_is_pure_diffusion(self):
        sched = Schedule(kind="edm")
        for t in (0.1, 0.5, 0.9):
            co = bridge_coefficients(sched, t)
            assert co.f == 0.0 and co.s == 0.0
            np.testing.assert_allclose(co.g_sq, 2.0 * t, rtol=1e-14)

    def test_terminal_singularity(self):
        with pytest.raises(ValueError, match="singular"):
            bridge_coefficients(Schedule(kind="linear"), 1.0)

    @pytest.mark.parametrize("multiplier,expected", [(0.5, 0.00390625), (2.0, 0.0625)])
    def test_linear_constant_diffusion(self, multiplier, expected):
        """g^2 for the linear schedule is flat: (multiplier * gamma_max)^2."""
        sched = Schedule(kind="linear", gamma_max=0.125, gamma_multiplier=multiplier)
        for t in INTERIOR:
            assert abs(bridge_coefficients(sched, t).g_sq - expected) < 1e-12

    @pytest.mark.parametrize("sched", PINNED_KINDS, ids=lambda s: s.kind)
    def test_g_sq_nonnegative_on_interval(self, sched):
        for t in INTERIOR:
            assert bridge_coefficients(sched, t).g_sq >= 0.0


class TestEpsilonPolicy:
    def test_eta_scaled_example(self):
        policy = EpsilonPolicy(kind="eta_scaled", eta=0.3, tail_zero_steps=2)
        sched = Schedule(kind="linear", gamma_max=0.125)
        got = epsilon(policy, sched, 0.5, 0.01)
        np.testing.assert_allclose(got, 5.859375e-4, rtol=0, atol=1e-18)

    def test_i2sb_markovian_example(self):
        policy = EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=2)
        sched = Schedule(kind="linear", gamma_max=0.125)
        got = epsilon(policy, sched, 0.5, 0.25)
        np.testing.assert_allclose(got, 9.765625e-4, rtol=0, atol=1e-18)

    def test_i2sb_markovian_negative_is_an_error(self):
        """gamma growing faster than beta makes the matched variance negative."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = Schedule(
                kind="custom",
                alpha_fn=lambda t: 1.0 - t,
                beta_fn=lambda t: t,
                gamma_fn=lambda t: t * t,
            )
            policy = EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=0)
            with pytest.raises(ValueError, match="negative"):
                epsilon(policy, sched, 0.5, 0.1)

    @pytest.mark.parametrize("kind", ["zero", "eta_scaled", "constant", "i2sb_markovian"])
    def test_negative_dt_is_an_error(self, kind):
        with pytest.raises(ValueError, match=r"dt must be >= 0, got -0\.01"):
            epsilon(EpsilonPolicy(kind=kind), Schedule(kind="linear"), 0.5, -0.01)

    def test_i2sb_markovian_needs_a_step(self):
        policy = EpsilonPolicy(kind="i2sb_markovian")
        with pytest.raises(ValueError, match="i2sb_markovian epsilon needs dt > 0"):
            epsilon(policy, Schedule(kind="linear"), 0.5, 0.0)

    def test_i2sb_markovian_at_vanishing_beta_is_an_error(self):
        policy = EpsilonPolicy(kind="i2sb_markovian")
        with pytest.raises(ValueError, match=r"beta\(1e-13\) = .* is singular for i2sb_markovian"):
            epsilon(policy, Schedule(kind="linear"), 1e-13, 1e-13)

    def test_constant_and_zero_kinds(self):
        sched = Schedule(kind="linear")
        assert epsilon(EpsilonPolicy(kind="zero"), sched, 0.4, 0.01) == 0.0
        got = epsilon(EpsilonPolicy(kind="constant", const_value=0.7), sched, 0.4, 0.01)
        assert got == 0.7

    def test_constant_scaled_by_gamma_sq(self):
        sched = Schedule(kind="edm")
        policy = EpsilonPolicy(kind="constant", const_value=2.0, scale_by_gamma_sq=True)
        got = epsilon(policy, sched, 0.5, 0.01)
        np.testing.assert_allclose(got, 2.0 * 0.25, rtol=1e-15)

    def test_nonnegative_over_grid(self):
        policy = EpsilonPolicy(kind="eta_scaled", eta=1.0, tail_zero_steps=0)
        for sched in (Schedule(kind="linear"), Schedule(kind="trig")):
            for t in INTERIOR:
                assert epsilon(policy, sched, t, 0.01) >= 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EpsilonPolicy(kind="eta_scaled", eta=1.5)
        with pytest.raises(ValueError):
            EpsilonPolicy(kind="constant", const_value=-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="const_value"):
                EpsilonPolicy(kind="constant", const_value=bad)
        with pytest.raises(ValueError):
            EpsilonPolicy(kind="nope")
        with pytest.raises(ValueError):
            EpsilonPolicy(kind="zero", tail_zero_steps=-1)

    @pytest.mark.parametrize(
        "field, value, match",
        [("eta", True, "eta must be a real number"), ("eta", "0.3", "eta must be a real number"),
         ("const_value", True, "const_value must be finite, real"),
         ("scale_by_gamma_sq", 2.5, "scale_by_gamma_sq must be a bool"),
         ("scale_by_gamma_sq", 1, "scale_by_gamma_sq must be a bool")],
    )
    def test_bools_are_not_numbers_and_numbers_are_not_flags(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            EpsilonPolicy(kind="constant", **{field: value})

    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    def test_tail_zero_steps_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="tail_zero_steps must be an integer"):
            EpsilonPolicy(kind="zero", tail_zero_steps=value)


class TestTimeGrid:
    def test_single_step_is_just_endpoints(self):
        grid = make_time_grid(1, t_min=0.01, t_max=0.9999, rho=0.6)
        np.testing.assert_allclose(grid.points, [0.9999, 0.01], rtol=0, atol=0)

    def test_rho_one_is_linear_spacing(self):
        grid = make_time_grid(2, t_min=0.01, t_max=1.0, rho=1.0)
        np.testing.assert_allclose(grid.points, [1.0, 0.505, 0.01], rtol=0, atol=1e-16)

    def test_defaults(self):
        grid = make_time_grid(10)
        assert grid.t_min == 0.01 and grid.t_max == 1.0 - 1e-4 and grid.rho == 0.6
        assert grid.points[0] == grid.t_max and grid.points[-1] == grid.t_min
        assert grid.n_steps == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            make_time_grid(0)
        with pytest.raises(ValueError):
            make_time_grid(5, t_min=0.5, t_max=0.4)
        with pytest.raises(ValueError):
            make_time_grid(5, rho=0.0)
        with pytest.raises(ValueError):
            make_time_grid(5, t_max=1.2)

    @pytest.mark.parametrize("field", ["t_min", "t_max", "rho"])
    def test_bool_bounds_and_spacing_rejected(self, field):
        # True used to run as 1: rho = True gave linear spacing, t_max = True a grid up to T
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            make_time_grid(3, **{field: True})

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_step_count_must_be_an_integer(self, n):
        # 2.5 used to give a 3-step grid, True a 1-step grid
        with pytest.raises(ValueError, match="N must be an integer"):
            make_time_grid(n)

    def test_numpy_integer_step_count_is_accepted(self):
        assert make_time_grid(np.int64(7)) == make_time_grid(7)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 1000), rho=st.sampled_from([0.5, 0.6, 1.0, 7.0]))
    def test_strictly_decreasing(self, n, rho):
        grid = make_time_grid(n, rho=rho)
        pts = np.asarray(grid.points)
        assert pts.shape == (n + 1,)
        assert np.all(np.diff(pts) < 0)
        assert pts[0] == grid.t_max and pts[-1] == grid.t_min

    def test_steps_finer_than_float_spacing_are_an_error(self):
        """100 steps across 1e-15 near 0.5, where doubles are 1.1e-16 apart, repeat points."""
        with pytest.raises(ValueError, match="time grid is not strictly decreasing"):
            make_time_grid(100, 0.5, 0.5 + 1e-15, 1.0)


# reformulation family -> the schedule kind it is checked on
FAMILY_KINDS = {"ve": "ddbm_ve", "vp": "ddbm_vp", "edm": "edm", "i2sb": "i2sb"}


class TestReformulations:
    def test_ve_identity(self):
        dev = verify_reformulation(Schedule(kind="ddbm_ve"), np.linspace(0.1, 0.9, 33))
        assert dev <= 1e-10

    def test_edm_identity(self):
        dev = verify_reformulation(Schedule(kind="edm"), np.linspace(0.1, 0.9, 33))
        assert dev <= 1e-12

    def test_vp_identity(self):
        vp = Schedule(kind="ddbm_vp", beta_d=2.0, beta_min=0.1)
        dev = verify_reformulation(vp, np.linspace(0.1, 0.9, 33))
        assert dev <= 1e-8

    @pytest.mark.parametrize("family", ["ve", "vp", "edm", "i2sb"])
    def test_all_families_on_50_point_grid(self, family):
        dev = verify_reformulation(Schedule(kind=FAMILY_KINDS[family]), np.linspace(0.05, 0.95, 50))
        assert dev <= 1e-8

    def test_i2sb_multi_segment(self):
        dev = verify_reformulation(
            Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.25, 0.8, 1.0),
                     i2sb_values=(0.7, 1.8, 0.9)),
            np.linspace(0.05, 0.95, 40),
        )
        assert dev <= 1e-8

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            verify_reformulation(Schedule(kind="linear"), np.linspace(0.1, 0.9, 5))

    def test_grid_argument_accepts_time_grid(self):
        grid = make_time_grid(20, t_min=0.1, t_max=0.9)
        assert verify_reformulation(Schedule(kind="ddbm_ve"), grid) <= 1e-10


class TestCustomSchedule:
    def test_warns_and_uses_finite_differences(self):
        sched = _custom_quadratic()
        with pytest.warns(UserWarning, match="finite differences"):
            ev = eval_schedule(sched, 0.4)
        np.testing.assert_allclose(ev.alpha, 1.0 - 0.16, rtol=1e-15)
        np.testing.assert_allclose(ev.d_alpha, -0.8, rtol=0, atol=1e-8)
        np.testing.assert_allclose(ev.d_beta, 0.8, rtol=0, atol=1e-8)

    def test_requires_all_three_callables(self):
        with pytest.raises(ValueError):
            Schedule(kind="custom", alpha_fn=lambda t: 1.0 - t)


ARRAY_KINDS = PINNED_KINDS + [Schedule(kind="edm"), _custom_quadratic()]
# Both endpoints, a time next to 0, the interior and the multi-segment i2sb breakpoints.
T_ARRAY = np.concatenate([[0.0, 1.0, 0.3, 0.7, 1e-9], INTERIOR])


def _fields_equal(got, want_rows, shape):
    for name, field, column in zip(got._fields, got, zip(*want_rows)):
        assert field.shape == shape, name
        np.testing.assert_array_equal(field.ravel(), column, err_msg=name)


class TestArrayEvaluation:
    @pytest.mark.parametrize("sched", ARRAY_KINDS, ids=lambda s: s.kind)
    def test_eval_schedule_on_an_array_equals_the_float_calls(self, sched):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = eval_schedule(sched, T_ARRAY.reshape(2, -1))
            rows = [eval_schedule(sched, float(t)) for t in T_ARRAY]
        _fields_equal(got, rows, (2, T_ARRAY.size // 2))
        assert all(type(v) is float for row in rows for v in row)

    @pytest.mark.parametrize("sched", ARRAY_KINDS, ids=lambda s: s.kind)
    def test_bridge_coefficients_on_an_array_equal_the_float_calls(self, sched):
        ts = T_ARRAY[T_ARRAY < 1.0]  # alpha(T) = 0 is singular
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = bridge_coefficients(sched, ts)
            rows = [bridge_coefficients(sched, float(t)) for t in ts]
        _fields_equal(got, rows, ts.shape)
        assert all(type(v) is float for row in rows for v in row)

    def test_linear_kernel_is_its_closed_form_bit_for_bit(self):
        sched = Schedule(kind="linear", gamma_max=0.125)
        m = 0.5 * 0.125
        t = INTERIOR
        ev = eval_schedule(sched, t)
        want = [1.0 - t, t, m * np.sqrt(t * (1.0 - t)), -np.ones_like(t), np.ones_like(t)]
        for got, expected in zip(ev, want):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(ev.d_gamma_sq, m * m * (1.0 - 2.0 * t))
        np.testing.assert_array_equal(ev.d_gamma, ev.d_gamma_sq / (2.0 * ev.gamma))

    def test_i2sb_integral_at_and_between_breakpoints(self):
        sched = PINNED_KINDS[-1]  # rates 0.5, 2.0, 1.0 on [0, .3), [.3, .7), [.7, 1]
        u = np.array([0.0, 0.15, 0.15 + 0.4, 0.95, 0.95 + 0.15, 1.25])
        ev = eval_schedule(sched, [0.0, 0.3, 0.5, 0.7, 0.85, 1.0])
        np.testing.assert_allclose(ev.beta, u / 1.25, rtol=1e-15, atol=0)
        np.testing.assert_allclose(ev.d_beta, np.array([0.5, 2.0, 2.0, 1.0, 1.0, 1.0]) / 1.25,
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("bad", [[0.5, math.nan], [0.5, 1.2], [-0.1, 0.5], [[0.2], [1.5]]])
    def test_nan_or_out_of_range_entries_raise(self, bad):
        for fn in (eval_schedule, bridge_coefficients):
            with pytest.raises(ValueError, match="outside"):
                fn(Schedule(kind="linear"), np.array(bad))

    def test_singular_entry_names_its_time(self):
        with pytest.raises(ValueError, match=r"alpha\(1\.0\) = 0\.0 is singular"):
            bridge_coefficients(Schedule(kind="linear"), np.array([0.5, 1.0]))

    def test_i2sb_markovian_epsilon_checks_the_previous_time(self):
        policy = EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=0)
        with pytest.raises(ValueError, match="outside"):
            epsilon(policy, Schedule(kind="linear"), 0.05, 0.1)

    @pytest.mark.parametrize("family", ["ve", "vp", "edm", "i2sb"])
    def test_reformulation_deviation_is_a_python_float(self, family):
        sched = Schedule(kind=FAMILY_KINDS[family])
        assert type(verify_reformulation(sched, np.linspace(0.1, 0.9, 5))) is float

    def test_reformulation_needs_a_grid_and_probes(self):
        for family, grid, n_probes in (("i2sb", [0.5], 32), ("ve", [], 32), ("ve", [0.4, 0.5], 0),
                                       ("ve", [0.4, 0.5], 2.5), ("ve", [0.4, 0.5], True)):
            with pytest.raises(ValueError, match="need a 1-d grid of >= 2 times and n_probes >= 1"):
                verify_reformulation(Schedule(kind=FAMILY_KINDS[family]), grid, n_probes=n_probes)


HUGE = 10**400  # a Python int too large for a float


@pytest.mark.parametrize(
    "make, match",
    [(lambda: Schedule(kind="linear", gamma_max=HUGE), "gamma_max must be finite and real"),
     (lambda: Schedule(kind="i2sb", i2sb_breakpoints=(0.0, 0.5, 1.0), i2sb_values=(1.0, HUGE)),
      "i2sb_values holds"),
     (lambda: EpsilonPolicy(kind="constant", const_value=HUGE), "const_value must be finite"),
     (lambda: make_time_grid(5, rho=HUGE), "rho must be a real number and finite")],
    ids=["gamma_max", "i2sb_values", "const_value", "rho"],
)
def test_int_too_large_for_a_float_is_a_named_value_error(make, match):
    with pytest.raises(ValueError, match=match):
        make()
