"""Forward/reverse bridge simulation, moments, serialization, determinism."""

import struct
import warnings

import numpy as np
import pytest

from bridgelab import rng as _rng
from bridgelab.denoiser import JointGaussian
from bridgelab.dynamics import (
    PathEnsemble,
    estimate_marginal_moments,
    reverse_drift_from_score,
    simulate_ensemble,
)
from bridgelab.metrics import convergence_slope
from bridgelab.sampler import apply_step, step_euler_z
from bridgelab.schedule import EpsilonPolicy, Schedule, bridge_coefficients, eval_schedule

LINEAR = Schedule(kind="linear", gamma_max=0.125)


def _zero_gamma_schedule() -> Schedule:
    return Schedule(
        kind="custom",
        alpha_fn=lambda t: 1.0 - t,
        beta_fn=lambda t: t,
        gamma_fn=lambda t: 0.0,
    )


def _pair_1d() -> JointGaussian:
    # x0 | xT = N(0.5 xT + 0.1, 0.04)
    return JointGaussian(
        mean0=[0.35], meanT=[0.5], cov00=[[0.29]], covTT=[[1.0]], cov0T=[[0.5]]
    )


def _conditional_score_fn(dist: JointGaussian, sched: Schedule):
    """Closed-form score of the x_t marginal given xT under the kernel."""
    gain, cov_c = dist.conditional()
    mu_gain = float(gain[0, 0])
    mu_off = float(dist.mean0[0] - gain[0, 0] * dist.meanT[0])
    var_c = float(cov_c[0, 0])

    def score(x, xT, t):
        ev = eval_schedule(sched, t)
        mean = ev.alpha * (mu_gain * xT + mu_off) + ev.beta * xT
        var = ev.alpha**2 * var_c + ev.gamma**2
        return (mean - x) / var

    return score


class TestForwardStepEm:
    """The forward Euler-Maruyama step as simulate_ensemble takes it."""

    def test_drift_only_step(self):
        """One step minus its keyed noise draw is the pure drift update."""
        times = np.array([0.5, 0.51])
        ens = simulate_ensemble(LINEAR, np.array([0.5]), np.array([1.0]), times, "forward", 1, 3)
        z = _rng.stream(3, _rng.TAG_FORWARD, 0, 0).standard_normal((1, 1))
        noise = np.sqrt(bridge_coefficients(LINEAR, 0.5).g_sq * 0.01) * z
        np.testing.assert_allclose(ens.paths[:, 1] - noise, [[0.51]], rtol=0, atol=1e-15)

    def test_negative_dt_rejected(self):
        for times in ([0.5, 0.4], [0.3, 0.3, 0.4]):
            with pytest.raises(ValueError, match="increasing"):
                simulate_ensemble(
                    LINEAR, np.array([0.0]), np.array([1.0]), np.array(times), "forward", 1, 0
                )

    def test_nonfinite_state_rejected(self):
        """Non-finite start values or endpoint fail loudly and name the argument,
        in either direction."""
        def nan_row(rng, n):
            return np.where(np.arange(n)[:, None] == 5, np.nan, 0.0)

        cases = [
            (np.array([np.inf]), np.array([1.0]), "start"),
            (nan_row, np.array([1.0]), "start"),
            (np.array([0.0]), np.array([np.nan]), "xT"),
        ]
        times = np.linspace(0.1, 0.5, 5)
        reverse = dict(eps_policy=EpsilonPolicy(kind="zero"), score_fn=lambda x, xT, t: 0.0 * x)
        for direction, grid, kw in (("forward", times, {}), ("reverse", times[::-1], reverse)):
            for start, xT, name in cases:
                with pytest.raises(ValueError, match=name):
                    simulate_ensemble(LINEAR, start, xT, grid, direction, 8, 0, **kw)


class TestReverseDrift:
    """The drift family through the euler_z step at z = 0: x' = x - drift dt."""

    def test_midpoint_example(self):
        coeffs = step_euler_z(LINEAR, 0.5, 0.25, 0.0)
        got = apply_step(coeffs, np.array([1.0]), np.array([2.0]), np.array([1.4]))
        np.testing.assert_allclose((1.4 - got) / 0.25, [1.0], rtol=0, atol=1e-14)

    def test_gamma_singularity(self):
        with pytest.raises(ValueError, match="singular"):
            step_euler_z(LINEAR, 1.0, 0.25, 0.0)

    @pytest.mark.parametrize("eps", [0.0, 3e-4, 2e-3])
    @pytest.mark.parametrize("sched", [LINEAR, Schedule(kind="trig"), Schedule(kind="ddbm_ve")])
    def test_each_form_matches_the_other(self, sched, eps):
        """The denoiser-form euler_z step equals the score-form drift step."""
        rng = np.random.default_rng(11)
        dt = 0.05
        for t in (0.2, 0.5, 0.8):
            ev = eval_schedule(sched, t)
            x = rng.standard_normal(4)
            xT = rng.standard_normal(4)
            x_hat0 = rng.standard_normal(4)
            score = (ev.alpha * x_hat0 + ev.beta * xT - x) / ev.gamma**2
            a = apply_step(step_euler_z(sched, t, dt, eps), x_hat0, xT, x)
            b = x - reverse_drift_from_score(sched, eps, x, xT, t, score) * dt
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestSimulateEnsemble:
    def test_same_seed_is_bit_identical(self):
        times = np.linspace(0.0, 0.6, 61)
        runs = [
            simulate_ensemble(LINEAR, np.array([0.0]), np.array([1.0]), times, "forward", 256, 7)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].paths, runs[1].paths)

    def test_thread_count_does_not_change_output(self):
        times = np.linspace(0.0, 0.6, 31)
        a = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, "forward", 10000, 3, threads=1
        )
        b = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, "forward", 10000, 3, threads=4
        )
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_zero_noise_run_ignores_seed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = _zero_gamma_schedule()
            times = np.linspace(0.0, 0.9, 10)
            a = simulate_ensemble(sched, np.array([0.0]), np.array([1.0]), times, "forward", 1, 1)
            b = simulate_ensemble(sched, np.array([0.0]), np.array([1.0]), times, "forward", 1, 2)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_forward_moments_match_kernel(self):
        """EM marginals at t = 0.5 match the closed-form kernel moments."""
        times = np.linspace(0.0, 0.5, 501)
        ens = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, "forward", 20000, 5, threads=2
        )
        mom = estimate_marginal_moments(ens, -1)
        ev = eval_schedule(LINEAR, 0.5)
        assert abs(mom.mean[0] - ev.beta) <= 4.0 * mom.se_mean[0]
        assert abs(mom.cov[0, 0] - ev.gamma**2) <= 0.03 * ev.gamma**2

    def test_reverse_preserves_marginals_for_any_eps(self):
        """Terminal moments agree between the ODE and SDE members."""
        dist = _pair_1d()
        sched = LINEAR
        xT = np.array([0.8])
        score = _conditional_score_fn(dist, sched)
        gain, cov_c = dist.conditional()
        mu_c = float(dist.mean0[0] + gain[0, 0] * (xT[0] - dist.meanT[0]))
        var_c = float(cov_c[0, 0])
        t_hi, t_lo = 0.95, 0.01
        ev_hi = eval_schedule(sched, t_hi)

        def start(rng, n):
            mean = ev_hi.alpha * mu_c + ev_hi.beta * xT[0]
            std = np.sqrt(ev_hi.alpha**2 * var_c + ev_hi.gamma**2)
            return mean + std * rng.standard_normal((n, 1))

        times = np.linspace(t_hi, t_lo, 471)
        moments = {}
        for name, policy in (
            ("ode", EpsilonPolicy(kind="zero", tail_zero_steps=0)),
            ("sde", EpsilonPolicy(kind="eta_scaled", eta=1.0, tail_zero_steps=0)),
        ):
            ens = simulate_ensemble(
                sched, start, xT, times, "reverse", 20000, 9,
                eps_policy=policy, score_fn=score, threads=2, record=False,
            )
            moments[name] = estimate_marginal_moments(ens, -1)
        ev_lo = eval_schedule(sched, t_lo)
        true_mean = ev_lo.alpha * mu_c + ev_lo.beta * xT[0]
        true_var = ev_lo.alpha**2 * var_c + ev_lo.gamma**2
        pooled_se = float(np.hypot(moments["ode"].se_mean[0], moments["sde"].se_mean[0]))
        assert abs(moments["ode"].mean[0] - moments["sde"].mean[0]) <= 4.0 * pooled_se
        for name in ("ode", "sde"):
            assert abs(moments[name].mean[0] - true_mean) <= 4.0 * moments[name].se_mean[0]
            assert abs(moments[name].cov[0, 0] - true_var) <= 0.05 * true_var

    def test_weak_convergence_order_of_terminal_mean(self):
        """Terminal-mean error shrinks at first order in dt."""
        sched = Schedule(kind="trig", gamma_scale=0.005)
        truth = eval_schedule(sched, 0.9).beta
        dts = [1e-1, 1e-2, 1e-3]
        errors = []
        for dt in dts:
            n_steps = round(0.9 / dt)
            times = np.linspace(0.0, 0.9, n_steps + 1)
            ens = simulate_ensemble(
                sched, np.array([0.0]), np.array([1.0]), times, "forward", 4096, 13,
                threads=2, record=False,
            )
            errors.append(abs(float(ens.paths[:, -1, 0].mean()) - truth))
        assert convergence_slope(dts, errors) >= 0.9

    def test_reverse_needs_policy_and_exactly_one_driver(self):
        """A reverse run needs a policy and a score function; stepping with a
        denoiser instead is the sampler's euler_z variant."""
        times = np.linspace(0.9, 0.1, 9)
        with pytest.raises(ValueError, match="eps_policy"):
            simulate_ensemble(LINEAR, np.array([0.0]), np.array([1.0]), times, "reverse", 4, 0)
        with pytest.raises(ValueError, match="score_fn"):
            simulate_ensemble(
                LINEAR, np.array([0.0]), np.array([1.0]), times, "reverse", 4, 0,
                eps_policy=EpsilonPolicy(kind="zero"),
            )

    def test_step_errors_carry_time_context(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = Schedule(
                kind="custom",
                alpha_fn=lambda t: 1.0 - t,
                beta_fn=lambda t: t,
                gamma_fn=lambda t: t * t,
            )
            times = np.linspace(0.8, 0.2, 7)
            with pytest.raises(ValueError, match=r"step \d+ at t"):
                simulate_ensemble(
                    sched, np.array([0.5]), np.array([1.0]), times, "reverse", 4, 0,
                    eps_policy=EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=0),
                    score_fn=lambda x, xT, t: np.zeros_like(x),
                )

    def test_record_false_keeps_only_terminal_slice(self):
        times = np.linspace(0.0, 0.5, 11)
        ens = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, "forward", 64, 1, record=False
        )
        assert ens.paths.shape == (64, 1, 1)
        assert ens.times.shape == (1,)
        assert ens.times[0] == times[-1]

    def test_record_false_terminal_equals_recorded_terminal(self):
        times = np.linspace(0.0, 0.5, 11)
        full = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, "forward", 64, 1, record=True
        )
        last = simulate_ensemble(
            LINEAR, np.array([0.0]), np.array([1.0]), times, "forward", 64, 1, record=False
        )
        np.testing.assert_array_equal(full.paths[:, -1:, :], last.paths)


class TestMomentEstimate:
    def test_identical_paths_have_zero_cov(self):
        paths = np.zeros((2, 1, 2)) + 0.7
        mom = estimate_marginal_moments(PathEnsemble(paths, np.array([0.5]), 0), 0)
        np.testing.assert_array_equal(mom.cov, np.zeros((2, 2)))

    def test_two_point_example(self):
        paths = np.array([[[0.0]], [[2.0]]])
        mom = estimate_marginal_moments(PathEnsemble(paths, np.array([0.5]), 0), 0)
        np.testing.assert_allclose(mom.mean, [1.0], rtol=0, atol=0)
        np.testing.assert_allclose(mom.cov, [[2.0]], rtol=0, atol=0)
        np.testing.assert_allclose(mom.se_mean, [1.0], rtol=0, atol=0)
        assert mom.n == 2

    def test_single_path_rejected(self):
        ens = PathEnsemble(np.zeros((1, 1, 1)), np.array([0.5]), 0)
        with pytest.raises(ValueError, match="at least 2"):
            estimate_marginal_moments(ens, 0)

    def test_cov_is_symmetric(self):
        rng = np.random.default_rng(2)
        ens = PathEnsemble(rng.standard_normal((50, 1, 3)), np.array([0.5]), 0)
        mom = estimate_marginal_moments(ens, 0)
        np.testing.assert_allclose(mom.cov, mom.cov.T, rtol=0, atol=1e-12)
        assert np.all(np.diag(mom.cov) >= 0)


class TestPathEnsembleSerialization:
    def test_binary_round_trip_is_exact(self):
        rng = np.random.default_rng(8)
        ens = PathEnsemble(rng.standard_normal((5, 4, 3)), np.linspace(0.9, 0.1, 4), 42)
        back = PathEnsemble.from_binary(ens.to_binary())
        np.testing.assert_array_equal(back.paths, ens.paths)
        np.testing.assert_array_equal(back.times, ens.times)
        assert back.seed == 42

    def test_binary_rejects_other_blobs(self):
        with pytest.raises(ValueError, match="blob"):
            PathEnsemble.from_binary(b"not a path ensemble at all")

    def test_binary_rejects_corrupt_blobs(self):
        """Truncated, padded, inconsistent or non-finite blobs raise ValueError."""
        blob = PathEnsemble(np.ones((2, 3, 1)), np.linspace(0.9, 0.1, 3), 5).to_binary()
        bad_dims = blob[:8] + struct.pack("<qqqq", 2, -3, 1, 5) + blob[40:]
        inf_state = blob[:-8] + np.array([np.inf]).tobytes()
        nan_time = blob[:40] + np.array([np.nan]).tobytes() + blob[48:]
        cases = [
            (blob[:20], "header is truncated"),
            (bad_dims, ">= 0"),
            (blob + b"\0" * 8, "header needs"),
            (blob[:-8], "header needs"),
            (inf_state, "finite"),
            (nan_time, "finite"),
        ]
        for bad, match in cases:
            with pytest.raises(ValueError, match=match):
                PathEnsemble.from_binary(bad)

    def test_csv_rows_enumerate_path_then_time(self):
        paths = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        ens = PathEnsemble(paths, np.array([0.1, 0.2]), 0)
        rows = list(ens.to_csv_rows())
        assert rows[0] == (0, 0.1, 0.0, 1.0)
        assert rows[1] == (0, 0.2, 2.0, 3.0)
        assert rows[2] == (1, 0.1, 4.0, 5.0)
        assert len(rows) == 4

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="paths"):
            PathEnsemble(np.zeros((2, 3)), np.array([0.1]), 0)
        with pytest.raises(ValueError, match="times"):
            PathEnsemble(np.zeros((2, 3, 1)), np.array([0.1]), 0)
