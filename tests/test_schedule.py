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
        got = epsilon(policy, sched, 0.5, 0.01, step_index=5, total_steps=40)
        np.testing.assert_allclose(got, 5.859375e-4, rtol=0, atol=1e-18)

    @pytest.mark.parametrize(
        "policy",
        [
            EpsilonPolicy(kind="zero"),
            EpsilonPolicy(kind="eta_scaled", eta=1.0),
            EpsilonPolicy(kind="i2sb_markovian"),
            EpsilonPolicy(kind="constant", const_value=0.4),
        ],
        ids=lambda p: p.kind,
    )
    def test_tail_forces_zero(self, policy):
        sched = Schedule(kind="linear")
        assert epsilon(policy, sched, 0.5, 0.01, step_index=1, total_steps=40) == 0.0
        assert epsilon(policy, sched, 0.5, 0.01, step_index=0, total_steps=40) == 0.0

    def test_i2sb_markovian_example(self):
        policy = EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=2)
        sched = Schedule(kind="linear", gamma_max=0.125)
        got = epsilon(policy, sched, 0.5, 0.25, step_index=5, total_steps=40)
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
                epsilon(policy, sched, 0.5, 0.1, step_index=5, total_steps=40)

    def test_constant_and_zero_kinds(self):
        sched = Schedule(kind="linear")
        assert epsilon(EpsilonPolicy(kind="zero"), sched, 0.4, 0.01, 9, 10) == 0.0
        got = epsilon(EpsilonPolicy(kind="constant", const_value=0.7), sched, 0.4, 0.01, 9, 10)
        assert got == 0.7

    def test_constant_scaled_by_gamma_sq(self):
        sched = Schedule(kind="edm")
        policy = EpsilonPolicy(kind="constant", const_value=2.0, scale_by_gamma_sq=True)
        got = epsilon(policy, sched, 0.5, 0.01, step_index=9, total_steps=10)
        np.testing.assert_allclose(got, 2.0 * 0.25, rtol=1e-15)

    def test_nonnegative_over_grid(self):
        policy = EpsilonPolicy(kind="eta_scaled", eta=1.0, tail_zero_steps=0)
        for sched in (Schedule(kind="linear"), Schedule(kind="trig")):
            for t in INTERIOR:
                assert epsilon(policy, sched, t, 0.01, 5, 40) >= 0.0

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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 1000), rho=st.sampled_from([0.5, 0.6, 1.0, 7.0]))
    def test_strictly_decreasing(self, n, rho):
        grid = make_time_grid(n, rho=rho)
        pts = np.asarray(grid.points)
        assert pts.shape == (n + 1,)
        assert np.all(np.diff(pts) < 0)
        assert pts[0] == grid.t_max and pts[-1] == grid.t_min


class TestReformulations:
    def test_ve_identity(self):
        dev = verify_reformulation("ve", np.linspace(0.1, 0.9, 33))
        assert dev <= 1e-10

    def test_edm_identity(self):
        dev = verify_reformulation("edm", np.linspace(0.1, 0.9, 33))
        assert dev <= 1e-12

    def test_vp_identity(self):
        dev = verify_reformulation("vp", np.linspace(0.1, 0.9, 33), beta_d=2.0, beta_min=0.1)
        assert dev <= 1e-8

    @pytest.mark.parametrize("family", ["ve", "vp", "edm", "i2sb"])
    def test_all_families_on_50_point_grid(self, family):
        dev = verify_reformulation(family, np.linspace(0.05, 0.95, 50))
        assert dev <= 1e-8

    def test_i2sb_multi_segment(self):
        dev = verify_reformulation(
            "i2sb",
            np.linspace(0.05, 0.95, 40),
            i2sb_breakpoints=(0.0, 0.25, 0.8, 1.0),
            i2sb_values=(0.7, 1.8, 0.9),
        )
        assert dev <= 1e-8

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            verify_reformulation("vip", np.linspace(0.1, 0.9, 5))

    def test_grid_argument_accepts_time_grid(self):
        grid = make_time_grid(20, t_min=0.1, t_max=0.9)
        assert verify_reformulation("ve", grid) <= 1e-10


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
