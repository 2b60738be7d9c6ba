"""Sampler steps, variant equivalences, the batch loop, and diagnostics."""

import math

import numpy as np
import pytest

from bridgelab import rng as _rng
from bridgelab.denoiser import (
    AnalyticGaussianDenoiser,
    JointGaussian,
    denoise,
    sample_condition,
    zhat,
)
from bridgelab.sampler import (
    VARIANTS,
    SamplerConfig,
    sample,
    sample_result_csv_rows,
    step_dbim,
    step_euler_z,
    step_gamma_simplified,
    step_markovian,
)
from bridgelab.schedule import (
    EpsilonPolicy,
    Schedule,
    epsilon,
    eval_schedule,
    make_time_grid,
)

LINEAR = Schedule(kind="linear", gamma_max=0.125)
I2SB_MULTI = Schedule(
    kind="i2sb", i2sb_breakpoints=(0.0, 0.4, 1.0), i2sb_values=(0.5, 2.0)
)


def _task_1d() -> JointGaussian:
    return JointGaussian(
        mean0=[0.35], meanT=[0.5], cov00=[[0.29]], covTT=[[1.0]], cov0T=[[0.5]]
    )


def _den_1d() -> AnalyticGaussianDenoiser:
    return AnalyticGaussianDenoiser(_task_1d(), LINEAR)


class TestStepExamples:
    def test_euler_z_midpoint_example(self):
        """At t = 0.5 all terms are exact binary: the step lands on 2.1875."""
        got = step_euler_z(
            LINEAR, np.array([1.375]), np.array([2.0]), np.array([1.0]),
            0.5, 0.25, 0.03125, np.array([0.5]),
        )
        np.testing.assert_array_equal(got, [2.1875])

    def test_markovian_midpoint_example(self):
        """Both state coefficients are exactly 1/2 and the variance 2^-11."""
        got = step_markovian(LINEAR, np.array([1.0]), np.array([1.5]), 0.5, 0.25, np.array([0.0]))
        np.testing.assert_array_equal(got, [1.25])
        got_z = step_markovian(LINEAR, np.array([1.0]), np.array([1.5]), 0.5, 0.25, np.array([1.0]))
        np.testing.assert_allclose(got_z - got, [math.sqrt(2.0**-11)], rtol=0, atol=1e-15)

    def test_zero_eps_reduces_all_reinterpolators_to_one_map(self):
        """gamma-simplified and the root-split step agree exactly at eps = 0."""
        z_hat = np.array([-4.0])
        args = (LINEAR, np.array([1.0]), np.array([2.0]), z_hat, 0.5, 0.25, 0.0, np.array([0.0]))
        a = step_gamma_simplified(*args)
        b = step_dbim(*args)
        ev = eval_schedule(LINEAR, 0.25)
        want = 0.75 * 1.0 + 0.25 * 2.0 + ev.gamma * (-4.0)
        np.testing.assert_allclose(a, [want], rtol=0, atol=1e-15)
        np.testing.assert_allclose(b, [want], rtol=0, atol=1e-15)

    def test_dbim_rejects_oversized_eps(self):
        with pytest.raises(ValueError, match="too large"):
            step_dbim(
                LINEAR, np.array([1.0]), np.array([2.0]), np.array([0.0]),
                0.5, 0.25, 0.01, np.array([0.0]),
            )

    def test_markovian_singular_at_time_zero_beta(self):
        with pytest.raises(ValueError, match="singular"):
            step_markovian(LINEAR, np.array([1.0]), np.array([1.0]), 0.0, 0.25, np.array([0.0]))

    def test_steps_reject_nonpositive_dt(self):
        for fn in (step_gamma_simplified, step_dbim):
            with pytest.raises(ValueError, match="dt"):
                fn(LINEAR, np.array([1.0]), np.array([2.0]), np.array([0.0]),
                   0.5, 0.0, 0.0, np.array([0.0]))
        with pytest.raises(ValueError, match="dt"):
            step_euler_z(LINEAR, np.array([1.0]), np.array([2.0]), np.array([1.0]),
                         0.5, -0.1, 0.0, np.array([0.0]))
        with pytest.raises(ValueError, match="dt"):
            step_markovian(LINEAR, np.array([1.0]), np.array([1.0]), 0.5, 0.0, np.array([0.0]))


class TestVariantEquivalences:
    @pytest.mark.parametrize("sched", [LINEAR, I2SB_MULTI], ids=["linear", "i2sb_multi"])
    def test_dbim_with_matched_eps_equals_markovian(self, sched):
        """The root-split step at the matched eps level IS the Markovian step."""
        rng = np.random.default_rng(0)
        policy = EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=0)
        worst_det, worst_noise = 0.0, 0.0
        for _ in range(1000):
            t = float(rng.uniform(0.15, 0.9))
            dt = float(rng.uniform(0.01, min(0.1, t - 0.05)))
            x_hat0 = rng.standard_normal(2)
            xT = rng.standard_normal(2)
            ev = eval_schedule(sched, t)
            z_hat = rng.standard_normal(2)
            x_t = ev.alpha * x_hat0 + ev.beta * xT + ev.gamma * z_hat
            eps = epsilon(policy, sched, t, dt, 5, 10)
            a = step_dbim(sched, x_hat0, xT, z_hat, t, dt, eps, np.zeros(2))
            b = step_markovian(sched, x_hat0, x_t, t, dt, np.zeros(2))
            worst_det = max(worst_det, float(np.max(np.abs(a - b))))
            a_z = step_dbim(sched, x_hat0, xT, z_hat, t, dt, eps, np.ones(2))
            b_z = step_markovian(sched, x_hat0, x_t, t, dt, np.ones(2))
            worst_noise = max(worst_noise, float(np.max(np.abs((a_z - a) - (b_z - b)))))
        assert worst_det <= 1e-12
        assert worst_noise <= 1e-12

    def test_i2sb_markovian_step_matches_posterior_coefficients(self):
        """The Markovian step reproduces the pinned-diffusion posterior."""
        cases = [
            (Schedule(kind="i2sb"), lambda t: t, 1.0),
            (
                I2SB_MULTI,
                lambda t: 0.5 * min(t, 0.4) + 2.0 * max(t - 0.4, 0.0),
                0.5 * 0.4 + 2.0 * 0.6,
            ),
        ]
        for sched, u_of, u_total in cases:
            for t_hi, t_lo in ((0.9, 0.7), (0.5, 0.3), (0.45, 0.35), (0.6, 0.2)):
                sig_sq = u_of(t_lo)
                a_sq = u_of(t_hi) - u_of(t_lo)
                denom = a_sq + sig_sq
                c_hat = step_markovian(sched, np.array([1.0]), np.array([0.0]),
                                       t_hi, t_hi - t_lo, np.array([0.0]))[0]
                c_x = step_markovian(sched, np.array([0.0]), np.array([1.0]),
                                     t_hi, t_hi - t_lo, np.array([0.0]))[0]
                c_z = step_markovian(sched, np.array([0.0]), np.array([0.0]),
                                     t_hi, t_hi - t_lo, np.array([1.0]))[0]
                np.testing.assert_allclose(c_hat, a_sq / denom, rtol=0, atol=1e-12)
                np.testing.assert_allclose(c_x, sig_sq / denom, rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    c_z, math.sqrt(sig_sq * a_sq / denom), rtol=0, atol=1e-12
                )


class TestSamplerConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="zero"),
                grid=make_time_grid(4),
                variant="leapfrog",
            )

    def test_negative_boot_rejected(self):
        with pytest.raises(ValueError, match="boot_b"):
            SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="zero"),
                grid=make_time_grid(4),
                boot_b=-0.5,
            )

    @pytest.mark.parametrize("boot_b", [math.inf, math.nan])
    def test_non_finite_boot_rejected(self, boot_b):
        with pytest.raises(ValueError, match="boot_b must be finite"):
            SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="zero"),
                grid=make_time_grid(4),
                boot_b=boot_b,
            )

    def test_variant_listing(self):
        assert VARIANTS == ("euler_z", "gamma_simplified", "dbim", "markovian")


class TestSampleLoop:
    def test_single_step_grid_is_one_reinterpolation(self):
        """With N = 1 the lone step sits in the zero tail: pure re-interpolation."""
        den = _den_1d()
        grid = make_time_grid(1, t_min=0.3, t_max=0.9)
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="eta_scaled", eta=1.0),
            grid=grid,
            variant="gamma_simplified",
            seed=0,
        )
        xT = np.array([[0.8]])
        res = sample(cfg, den, xT)
        x_hat0 = denoise(den, xT, xT, 0.9)
        z_hat = zhat(LINEAR, x_hat0, xT, xT, 0.9)
        ev = eval_schedule(LINEAR, 0.3)
        want = ev.alpha * x_hat0 + ev.beta * xT + ev.gamma * z_hat
        np.testing.assert_allclose(res.x0_batch, want, rtol=0, atol=1e-14)
        assert res.eps_used.shape == (1,)
        assert res.eps_used[0] == 0.0

    def test_deterministic_family_ignores_seed(self):
        """b = 0 with the zero policy never consumes noise, whatever the seed."""
        den = _den_1d()
        grid = make_time_grid(12)
        xT = np.array([[0.8], [0.2], [1.3]])
        outs = []
        for seed in (1, 99):
            cfg = SamplerConfig(
                schedule=LINEAR, eps_policy=EpsilonPolicy(kind="zero"),
                grid=grid, variant="gamma_simplified", seed=seed,
            )
            outs.append(sample(cfg, den, xT).x0_batch)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_full_zero_tail_ignores_seed_for_any_policy(self):
        """tail_zero_steps = N silences every step regardless of eta."""
        den = _den_1d()
        grid = make_time_grid(8)
        xT = np.array([[0.8], [0.2]])
        outs = []
        for seed in (5, 6):
            cfg = SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="eta_scaled", eta=1.0, tail_zero_steps=8),
                grid=grid, variant="dbim", seed=seed,
            )
            outs.append(sample(cfg, den, xT).x0_batch)
        np.testing.assert_array_equal(outs[0], outs[1])
        assert np.all(outs[0] != xT)

    def test_same_seed_is_bit_identical_and_thread_invariant(self):
        den = _den_1d()
        grid = make_time_grid(10)
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.5),
            grid=grid, variant="euler_z", boot_b=0.25, seed=3,
        )
        xT = sample_condition(_task_1d(), 9000, _rng.stream(0, _rng.TAG_TASK))
        a = sample(cfg, den, xT, threads=1)
        b = sample(cfg, den, xT, threads=4)
        np.testing.assert_array_equal(a.x0_batch, b.x0_batch)
        np.testing.assert_array_equal(a.eps_used, b.eps_used)
        np.testing.assert_array_equal(
            np.nan_to_num(a.x0hat_change), np.nan_to_num(b.x0hat_change)
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_family_members_agree_on_population_moments(self, variant):
        """Every variant reproduces the task's x0 mean within sampling error."""
        dist = _task_1d()
        den = AnalyticGaussianDenoiser(dist, LINEAR)
        grid = make_time_grid(120)
        conds = sample_condition(dist, 4000, _rng.stream(0, _rng.TAG_TASK))
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.3),
            grid=grid, variant=variant, seed=7,
        )
        out = sample(cfg, den, conds, threads=2).x0_batch[:, 0]
        se = out.std() / math.sqrt(out.size)
        assert abs(out.mean() - 0.35) <= 4 * se
        np.testing.assert_allclose(out.var(), 0.29, rtol=0.10, atol=0)

    def test_trajectories_only_when_requested(self):
        den = _den_1d()
        grid = make_time_grid(6)
        base = dict(
            schedule=LINEAR, eps_policy=EpsilonPolicy(kind="zero"),
            grid=grid, variant="markovian", seed=0,
        )
        xT = np.array([[0.8], [0.4]])
        res = sample(SamplerConfig(**base), den, xT)
        assert res.trajectories is None
        res = sample(SamplerConfig(**base, record_trajectory=True), den, xT)
        assert res.trajectories is not None
        assert res.trajectories.paths.shape == (2, 7, 1)
        np.testing.assert_array_equal(res.trajectories.times, grid.points)
        np.testing.assert_array_equal(res.trajectories.paths[:, 0], xT)
        np.testing.assert_array_equal(res.trajectories.paths[:, -1], res.x0_batch)

    def test_boot_offsets_the_start(self):
        den = _den_1d()
        grid = make_time_grid(6)
        cfg = SamplerConfig(
            schedule=LINEAR, eps_policy=EpsilonPolicy(kind="zero"),
            grid=grid, variant="gamma_simplified", boot_b=0.5, seed=11,
            record_trajectory=True,
        )
        xT = np.zeros((3000, 1))
        res = sample(cfg, den, xT)
        start = res.trajectories.paths[:, 0, 0]
        assert abs(start.mean()) <= 4 * 0.5 / math.sqrt(3000)
        np.testing.assert_allclose(start.var(), 0.25, rtol=0.15, atol=0)

    def test_diagnostics_shapes_and_first_change_is_nan(self):
        den = _den_1d()
        grid = make_time_grid(9)
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.3),
            grid=grid, variant="gamma_simplified", seed=0,
        )
        res = sample(cfg, den, np.array([[0.8], [0.1]]))
        assert res.eps_used.shape == (9,)
        assert res.x0hat_change.shape == (9,)
        assert math.isnan(res.x0hat_change[0])
        assert np.all(np.isfinite(res.x0hat_change[1:]))
        assert np.all(res.x0hat_change[1:] >= 0)
        # the final tail_zero_steps grid slots carry eps = 0
        assert res.eps_used[-1] == 0.0 and res.eps_used[-2] == 0.0
        assert np.all(res.eps_used[:-2] > 0)

    def test_dimension_mismatch_rejected(self):
        den = _den_1d()
        cfg = SamplerConfig(
            schedule=LINEAR, eps_policy=EpsilonPolicy(kind="zero"),
            grid=make_time_grid(4),
        )
        with pytest.raises(ValueError, match="does not match"):
            sample(cfg, den, np.zeros((3, 2)))

    def test_step_errors_carry_row_and_time_context(self):
        den = _den_1d()
        grid = make_time_grid(6, t_min=0.2, t_max=0.9)
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="constant", const_value=5.0, tail_zero_steps=0),
            grid=grid, variant="dbim", seed=0,
        )
        with pytest.raises(ValueError, match=r"rows \[0:2\), step \d+ at t = "):
            sample(cfg, den, np.array([[0.8], [0.1]]))


class TestCsvRows:
    def test_rows_group_replicates_contiguously(self):
        from bridgelab.sampler import SampleResult

        res = SampleResult(
            x0_batch=np.arange(8, dtype=np.float64).reshape(4, 2),
            trajectories=None,
            eps_used=np.zeros(1),
            x0hat_change=np.full(1, np.nan),
        )
        rows = list(sample_result_csv_rows(res, 2))
        assert rows[0] == (0, 0, 0.0, 1.0)
        assert rows[1] == (0, 1, 2.0, 3.0)
        assert rows[2] == (1, 0, 4.0, 5.0)
        assert rows[3] == (1, 1, 6.0, 7.0)

    def test_indivisible_batch_rejected(self):
        from bridgelab.sampler import SampleResult

        res = SampleResult(
            x0_batch=np.zeros((4, 1)),
            trajectories=None,
            eps_used=np.zeros(1),
            x0hat_change=np.full(1, np.nan),
        )
        with pytest.raises(ValueError, match="does not split"):
            list(sample_result_csv_rows(res, 3))
