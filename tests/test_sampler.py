"""Sampler steps, variant equivalences, the batch loop, and diagnostics."""

import math

import numpy as np
import pytest

from bridgelab import rng as _rng
from bridgelab import sampler as sampler_module
from bridgelab.denoiser import (
    AnalyticDenoiser,
    GmmCoupling,
    JointGaussian,
    MlpDenoiser,
    Preconditioner,
    denoise,
    mlp_init,
    sample_condition,
    zhat,
)
from bridgelab.sampler import (
    VARIANTS,
    SamplerConfig,
    _row_norms,
    sample,
    apply_step,
    step_coefficients,
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


def _task_2d() -> JointGaussian:
    return JointGaussian(
        mean0=[0.85, -0.4], meanT=[0.5, -0.5], cov00=[[0.754, 0.165], [0.165, 0.474]],
        covTT=[[1.0, 0.3], [0.3, 0.8]], cov0T=[[0.84, 0.11], [0.31, 0.59]],
    )


def _den_1d() -> AnalyticDenoiser:
    return AnalyticDenoiser(_task_1d(), LINEAR)


# ---------------------------------------------------------------------------
# Reference implementation: each variant's step written directly as a state
# update, independent of the coefficient algebra in bridgelab.sampler.  All
# share the signature (sched, x_t, anchor, x_hat0, t, dt, eps, z).


def _ref_zhat(sched, x_hat0, anchor, x_t, t):
    ev = eval_schedule(sched, t)
    return (x_t - ev.alpha * x_hat0 - ev.beta * anchor) / ev.gamma


def ref_euler_z(sched, x_t, anchor, x_hat0, t, dt, eps, z):
    ev = eval_schedule(sched, t)
    z_hat = _ref_zhat(sched, x_hat0, anchor, x_t, t)
    drift = ev.d_alpha * x_hat0 + ev.d_beta * anchor + (ev.d_gamma + eps / ev.gamma) * z_hat
    return x_t - drift * dt + math.sqrt(2.0 * eps * dt) * z


def ref_gamma_simplified(sched, x_t, anchor, x_hat0, t, dt, eps, z):
    gamma_t = eval_schedule(sched, t).gamma
    nxt = eval_schedule(sched, t - dt)
    z_hat = _ref_zhat(sched, x_hat0, anchor, x_t, t)
    return (
        nxt.alpha * x_hat0
        + nxt.beta * anchor
        + (nxt.gamma - eps * dt / gamma_t) * z_hat
        + math.sqrt(2.0 * eps * dt) * z
    )


def ref_dbim(sched, x_t, anchor, x_hat0, t, dt, eps, z):
    nxt = eval_schedule(sched, t - dt)
    rad = nxt.gamma**2 - 2.0 * eps * dt
    assert rad >= -1e-12
    z_hat = _ref_zhat(sched, x_hat0, anchor, x_t, t)
    return (
        nxt.alpha * x_hat0
        + nxt.beta * anchor
        + math.sqrt(max(rad, 0.0)) * z_hat
        + math.sqrt(2.0 * eps * dt) * z
    )


def ref_markovian(sched, x_t, anchor, x_hat0, t, dt, eps, z):
    cur = eval_schedule(sched, t)
    nxt = eval_schedule(sched, t - dt)
    ratio = nxt.beta / cur.beta
    var = nxt.gamma**2 - ratio**2 * cur.gamma**2
    assert var >= -1e-12
    return (nxt.alpha - cur.alpha * ratio) * x_hat0 + ratio * x_t + math.sqrt(max(var, 0.0)) * z


def ref_tail(sched, x_t, anchor, x_hat0, t, dt, eps, z):
    nxt = eval_schedule(sched, t - dt)
    z_hat = _ref_zhat(sched, x_hat0, anchor, x_t, t)
    return nxt.alpha * x_hat0 + nxt.beta * anchor + nxt.gamma * z_hat


REFERENCE = {
    "euler_z": ref_euler_z,
    "gamma_simplified": ref_gamma_simplified,
    "dbim": ref_dbim,
    "markovian": ref_markovian,
}

SCHEDULES = {
    "linear": LINEAR,
    "trig": Schedule(kind="trig"),
    "i2sb_multi": I2SB_MULTI,
    "ddbm_vp": Schedule(kind="ddbm_vp"),
}
EPS_POLICIES = {
    "zero": EpsilonPolicy(kind="zero", tail_zero_steps=0),
    "eta_scaled": EpsilonPolicy(kind="eta_scaled", eta=0.3, tail_zero_steps=0),
    "markovian_matched": EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=0),
}


def _probe_steps(n: int, seed: int = 0, d: int = 2):
    """Random steps t -> t - dt inside [0.05, 0.9] with states (x_hat0, anchor, x_t, z)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        t = float(rng.uniform(0.15, 0.9))
        dt = float(rng.uniform(0.01, min(0.1, t - 0.05)))
        yield (t, dt, *rng.standard_normal((4, d)))


class TestStepTable:
    @pytest.mark.parametrize("eps_kind", list(EPS_POLICIES))
    @pytest.mark.parametrize("sched_name", list(SCHEDULES))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_coefficients_reproduce_the_reference_step(self, variant, sched_name, eps_kind):
        sched, policy = SCHEDULES[sched_name], EPS_POLICIES[eps_kind]
        for t, dt, x_hat0, anchor, x_t, z in _probe_steps(50):
            eps = epsilon(policy, sched, t, dt)
            if variant == "dbim" and eval_schedule(sched, t - dt).gamma ** 2 < 2.0 * eps * dt:
                # outside the root-split step's domain, which it must refuse
                with pytest.raises(ValueError, match="too large"):
                    step_coefficients(variant, sched, t, dt, eps)
                continue
            coeffs = step_coefficients(variant, sched, t, dt, eps)
            got = apply_step(coeffs, x_hat0, anchor, x_t, z)
            want = REFERENCE[variant](sched, x_t, anchor, x_hat0, t, dt, eps, z)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("tail", [1, 3, 12])
    def test_sample_matches_the_reference_loop(self, variant, tail):
        """A whole run, boot noise and zero tail included, against the
        reference steps driven by the same keyed draws."""
        dist = _task_1d()
        den = AnalyticDenoiser(dist, LINEAR)
        grid = make_time_grid(12)
        policy = EpsilonPolicy(kind="eta_scaled", eta=0.5, tail_zero_steps=tail)
        cfg = SamplerConfig(
            schedule=LINEAR, eps_policy=policy, grid=grid,
            variant=variant, boot_b=0.25, seed=4,
        )
        xT = sample_condition(dist, 64, _rng.stream(0, _rng.TAG_TASK))
        got = sample(cfg, den, xT).x0_batch

        ts = grid.points
        x = xT + 0.25 * _rng.stream(4, _rng.TAG_BOOT, 0, 0).standard_normal(xT.shape)
        anchor = x.copy()
        for k in range(grid.n_steps):
            t, dt = float(ts[k]), float(ts[k] - ts[k + 1])
            step_index = grid.n_steps - 1 - k
            x_hat0 = denoise(den, x, xT, t)
            if step_index < tail:
                x = ref_tail(LINEAR, x, anchor, x_hat0, t, dt, 0.0, 0.0)
            else:
                eps = epsilon(policy, LINEAR, t, dt)
                z = _rng.stream(4, _rng.TAG_SAMPLER, step_index, 0).standard_normal(x.shape)
                x = REFERENCE[variant](LINEAR, x, anchor, x_hat0, t, dt, eps, z)
        np.testing.assert_allclose(got, x, rtol=0, atol=1e-12)

    def test_unknown_variant_names_it(self):
        with pytest.raises(ValueError, match="'leapfrog'"):
            step_coefficients("leapfrog", LINEAR, 0.5, 0.1, 0.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_negative_eps_rejected(self, variant):
        with pytest.raises(ValueError, match="eps"):
            step_coefficients(variant, LINEAR, 0.5, 0.1, -1e-3)


class TestStepExamples:
    def test_euler_z_midpoint_example(self):
        """At t = 0.5 all terms are exact binary: the step lands on 2.1875."""
        coeffs = step_euler_z(LINEAR, 0.5, 0.25, 0.03125)
        assert coeffs == (4.25, 3.75, -7.0, 0.125)
        got = apply_step(coeffs, np.array([1.0]), np.array([2.0]), np.array([1.375]),
                         np.array([0.5]))
        np.testing.assert_array_equal(got, [2.1875])

    def test_markovian_midpoint_example(self):
        """Both state coefficients are exactly 1/2 and the variance 2^-11."""
        a, b, c, s = step_markovian(LINEAR, 0.5, 0.25, 0.0)
        assert (a, b, c) == (0.5, 0.0, 0.5)
        np.testing.assert_allclose(s, math.sqrt(2.0**-11), rtol=0, atol=1e-15)
        got = apply_step((a, b, c, s), np.array([1.0]), np.array([7.0]), np.array([1.5]),
                         np.array([0.0]))
        np.testing.assert_array_equal(got, [1.25])

    def test_zero_eps_reduces_all_reinterpolators_to_one_map(self):
        """gamma-simplified and the root-split step agree exactly at eps = 0."""
        a = step_gamma_simplified(LINEAR, 0.5, 0.25, 0.0)
        b = step_dbim(LINEAR, 0.5, 0.25, 0.0)
        assert a == b
        assert a[3] == 0.0
        ev = eval_schedule(LINEAR, 0.5)
        x_t = ev.alpha * 1.0 + ev.beta * 2.0 + ev.gamma * (-4.0)
        got = apply_step(a, np.array([1.0]), np.array([2.0]), np.array([x_t]))
        want = 0.75 * 1.0 + 0.25 * 2.0 + eval_schedule(LINEAR, 0.25).gamma * (-4.0)
        np.testing.assert_allclose(got, [want], rtol=0, atol=1e-15)

    def test_dbim_rejects_oversized_eps(self):
        with pytest.raises(ValueError, match="too large"):
            step_dbim(LINEAR, 0.5, 0.25, 0.01)

    def test_markovian_singular_at_time_zero_beta(self):
        with pytest.raises(ValueError, match="singular"):
            step_markovian(LINEAR, 0.0, 0.25, 0.0)

    def test_steps_reject_nonpositive_dt(self):
        for fn in (step_euler_z, step_gamma_simplified, step_dbim, step_markovian):
            for dt in (0.0, -0.1):
                with pytest.raises(ValueError, match="dt"):
                    fn(LINEAR, 0.5, dt, 0.0)


class TestVariantEquivalences:
    @pytest.mark.parametrize("sched", [LINEAR, I2SB_MULTI], ids=["linear", "i2sb_multi"])
    def test_dbim_with_matched_eps_equals_markovian(self, sched):
        """The root-split step at the matched eps level IS the Markovian step:
        the anchor coefficient vanishes and the other three agree."""
        policy = EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=0)
        for t, dt, *_ in _probe_steps(1000):
            eps = epsilon(policy, sched, t, dt)
            np.testing.assert_allclose(
                step_dbim(sched, t, dt, eps), step_markovian(sched, t, dt, eps),
                rtol=0, atol=1e-12,
            )

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
                c_hat, c_anchor, c_x, c_z = step_markovian(sched, t_hi, t_hi - t_lo, 0.0)
                assert c_anchor == 0.0
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

    @pytest.mark.parametrize("boot_b", [math.inf, math.nan, pytest.param(10**400, id="huge-int")])
    def test_non_finite_boot_rejected(self, boot_b):
        with pytest.raises(ValueError, match="boot_b must be finite"):
            SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="zero"),
                grid=make_time_grid(4),
                boot_b=boot_b,
            )

    @pytest.mark.parametrize("boot_b", [True, "0.25"])
    def test_non_number_boot_rejected(self, boot_b):
        with pytest.raises(ValueError, match="boot_b must be finite, real"):
            SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="zero"),
                grid=make_time_grid(4),
                boot_b=boot_b,
            )

    @pytest.mark.parametrize(
        "field, value, match",
        [("seed", 1.5, "seed must be an integer, got 1.5"),
         ("seed", True, "seed must be an integer, got True"),
         ("seed", "7", "seed must be an integer, got '7'"),
         ("record_trajectory", "no", "record_trajectory must be a bool, got 'no'"),
         ("record_trajectory", 1, "record_trajectory must be a bool, got 1")],
        ids=["float-seed", "bool-seed", "str-seed", "str-record", "int-record"],
    )
    def test_seed_and_record_flag_are_checked_and_named(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SamplerConfig(
                schedule=LINEAR,
                eps_policy=EpsilonPolicy(kind="zero"),
                grid=make_time_grid(4),
                **{field: value},
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

    @pytest.mark.parametrize("policy", [
        EpsilonPolicy(kind="zero", tail_zero_steps=8),
        EpsilonPolicy(kind="eta_scaled", eta=1.0, tail_zero_steps=8),
        EpsilonPolicy(kind="i2sb_markovian", tail_zero_steps=8),
        EpsilonPolicy(kind="constant", const_value=0.4, tail_zero_steps=8),
    ], ids=lambda p: p.kind)
    def test_full_zero_tail_ignores_seed_for_any_policy(self, policy):
        """tail_zero_steps = N silences every step, whatever eps the policy would give."""
        den = _den_1d()
        grid = make_time_grid(8)
        xT = np.array([[0.8], [0.2]])
        results = []
        for seed in (5, 6):
            cfg = SamplerConfig(
                schedule=LINEAR, eps_policy=policy, grid=grid, variant="dbim", seed=seed,
            )
            results.append(sample(cfg, den, xT))
        np.testing.assert_array_equal(results[0].x0_batch, results[1].x0_batch)
        assert np.all(results[0].x0_batch != xT)
        assert np.all(results[0].eps_used == 0.0)

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

    def test_mlp_scratch_changes_no_bit(self, monkeypatch):
        """Per-chunk layer buffers give the output of a fresh network call per step,
        over two chunks, the second one short."""
        sizes = [3, 16, 16, 1]
        den = MlpDenoiser(mlp_init(sizes, seed=2), sizes, Preconditioner(), LINEAR)
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.5),
            grid=make_time_grid(6), variant="dbim", boot_b=0.25, seed=4,
        )
        xT = sample_condition(_task_1d(), _rng.CHUNK_ROWS + 37, _rng.stream(0, _rng.TAG_TASK))
        got = sample(cfg, den, xT)
        monkeypatch.setattr(
            sampler_module, "denoise", lambda den, x, xT, t, scratch: denoise(den, x, xT, t)
        )
        want = sample(cfg, den, xT)
        assert got.x0_batch.tobytes() == want.x0_batch.tobytes()
        assert got.x0hat_change.tobytes() == want.x0hat_change.tobytes()

    @staticmethod
    def count_sampler_streams(monkeypatch) -> list:
        """The (step, chunk) of every TAG_SAMPLER stream built from now on."""
        built = []
        real = _rng.stream

        def counting(seed, tag, step=0, chunk=0):
            if tag == _rng.TAG_SAMPLER:
                built.append((step, chunk))
            return real(seed, tag, step, chunk)

        monkeypatch.setattr(_rng, "stream", counting)
        return built

    @pytest.mark.parametrize("policy", [
        EpsilonPolicy(kind="zero"), EpsilonPolicy(kind="eta_scaled", eta=0.0),
    ], ids=["zero", "eta-0"])
    @pytest.mark.parametrize("variant", ["euler_z", "gamma_simplified", "dbim"])
    def test_noise_free_steps_build_no_stream(self, monkeypatch, variant, policy):
        built = self.count_sampler_streams(monkeypatch)
        cfg = SamplerConfig(schedule=LINEAR, eps_policy=policy, grid=make_time_grid(6),
                            variant=variant, boot_b=0.25, seed=2)
        xT = sample_condition(_task_1d(), _rng.CHUNK_ROWS + 3, _rng.stream(0, _rng.TAG_TASK))
        sample(cfg, _den_1d(), xT)
        assert built == []

    @pytest.mark.parametrize("eta", [0.3, 1e-12])
    def test_noisy_steps_build_one_stream_per_chunk(self, monkeypatch, eta):
        """However small s is, a step with s > 0 draws its noise."""
        built = self.count_sampler_streams(monkeypatch)
        cfg = SamplerConfig(
            schedule=LINEAR, eps_policy=EpsilonPolicy(kind="eta_scaled", eta=eta, tail_zero_steps=2),
            grid=make_time_grid(6), variant="gamma_simplified", seed=2,
        )
        xT = sample_condition(_task_1d(), _rng.CHUNK_ROWS + 3, _rng.stream(0, _rng.TAG_TASK))
        sample(cfg, _den_1d(), xT)
        assert sorted(built) == [(step, chunk) for step in range(2, 6) for chunk in range(2)]

    TASKS_2D = pytest.mark.parametrize("dist", [
        _task_2d(), GmmCoupling((0.4, 0.6), (_task_2d(), JointGaussian(
            [-0.6, 0.9], [-0.4, 0.7], [[0.5, -0.1], [-0.1, 0.3]], [[0.6, 0.1], [0.1, 0.9]],
            [[0.2, 0.05], [-0.1, 0.25]]))),
    ], ids=["gaussian-2d", "mixture-2d"])
    CHUNK_PLUS_ONE = SamplerConfig(
        schedule=LINEAR, eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.3),
        grid=make_time_grid(6), variant="dbim", boot_b=0.25, seed=4,
    )

    @TASKS_2D
    def test_primed_plans_and_scratch_change_no_bit(self, monkeypatch, dist):
        """Against plans built by each chunk's first call and no scratch, over a
        full chunk and a one-row chunk."""
        cfg = self.CHUNK_PLUS_ONE
        xT = sample_condition(dist, _rng.CHUNK_ROWS + 1, _rng.stream(0, _rng.TAG_TASK))
        got = sample(cfg, AnalyticDenoiser(dist, LINEAR), xT)
        monkeypatch.setattr(sampler_module, "_prime_plans", lambda den, times: None)
        monkeypatch.setattr(
            sampler_module, "denoise", lambda den, x, xT, t, scratch: denoise(den, x, xT, t)
        )
        want = sample(cfg, AnalyticDenoiser(dist, LINEAR), xT)
        assert got.x0_batch.tobytes() == want.x0_batch.tobytes()
        assert got.x0hat_change.tobytes() == want.x0hat_change.tobytes()

    @pytest.mark.parametrize("layout", [
        np.asfortranarray, np.ascontiguousarray, lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    ], ids=["fortran", "c", "strided"])
    @TASKS_2D
    def test_plan_memory_layout_changes_no_bit(self, dist, layout):
        """With every cached plan's X and Y replaced by copies in another memory
        layout, a one-row denoise and a sample whose last chunk has one row keep
        their bits."""
        xT = sample_condition(dist, _rng.CHUNK_ROWS + 1, _rng.stream(0, _rng.TAG_TASK))
        den = AnalyticDenoiser(dist, LINEAR)
        want = sample(self.CHUNK_PLUS_ONE, den, xT)
        x_t = want.x0_batch[-1:] + 0.5
        want_rows = {t: denoise(den, x_t, xT[-1:], t) for t in den._plans}
        for t, plan in den._plans.items():
            den._plans[t] = plan._replace(X=layout(plan.X), Y=layout(plan.Y))
        for t, rows in want_rows.items():
            assert denoise(den, x_t, xT[-1:], t).tobytes() == rows.tobytes(), t
        got = sample(self.CHUNK_PLUS_ONE, den, xT)
        assert got.x0_batch.tobytes() == want.x0_batch.tobytes()
        assert got.x0hat_change.tobytes() == want.x0hat_change.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_family_members_agree_on_population_moments(self, variant):
        """Every variant reproduces the task's x0 mean within sampling error."""
        dist = _task_1d()
        den = AnalyticDenoiser(dist, LINEAR)
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_norms_match_linalg_norm_bit_for_bit(self, d):
        # values spanning many magnitudes, so any change of summation order shows
        gen = np.random.default_rng(d)
        x = gen.standard_normal((4096, d)) * np.exp(gen.uniform(-20.0, 20.0, (4096, d)))
        np.testing.assert_array_equal(_row_norms(x), np.linalg.norm(x, axis=1))

    def test_dimension_mismatch_rejected(self):
        den = _den_1d()
        cfg = SamplerConfig(
            schedule=LINEAR, eps_policy=EpsilonPolicy(kind="zero"),
            grid=make_time_grid(4),
        )
        with pytest.raises(ValueError, match="does not match"):
            sample(cfg, den, np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_condition_rejected(self, bad):
        """A non-finite endpoint fails before any chunk runs and names its row."""
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.3),
            grid=make_time_grid(9),
        )
        with pytest.raises(ValueError, match=r"xT_batch must be finite; row 1 is not"):
            sample(cfg, _den_1d(), np.array([[0.8], [bad], [0.1]]))

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

    def test_overflowing_x0hat_change_names_the_chunk_step_and_t(self):
        """A start near the float limit overflows the change's squares, not as a
        warning but as one error per chunk; the second chunk is named."""
        cfg = SamplerConfig(
            schedule=LINEAR, eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.3),
            grid=make_time_grid(6), boot_b=1e306,
        )
        xT = np.zeros((_rng.CHUNK_ROWS + 3, 1))
        with pytest.raises(ValueError, match=r"rows \[\d+:\d+\), step 4 at t = 0\.\d+: "
                                             r"the x0hat change is not finite"):
            sample(cfg, _den_1d(), xT)

    def test_non_finite_sample_names_the_last_step(self, monkeypatch):
        """A non-finite last update shows only in the sample; before, it was returned."""
        grid = make_time_grid(4, t_min=0.2, t_max=0.9)
        cfg = SamplerConfig(schedule=LINEAR, eps_policy=EpsilonPolicy(kind="eta_scaled", eta=0.3),
                            grid=grid)
        real_step = sampler_module.apply_step
        calls = []

        def last_step_overflows(*args):
            calls.append(None)
            out = real_step(*args)
            return np.full_like(out, math.inf) if len(calls) == grid.n_steps else out

        monkeypatch.setattr(sampler_module, "apply_step", last_step_overflows)
        with pytest.raises(ValueError, match=r"rows \[0:2\), step 0 at t = 0\.\d+: "
                                             r"the sample is not finite"):
            sample(cfg, _den_1d(), np.array([[0.8], [0.1]]))


class TestReverseFamilyPreservesMarginals:
    """From the exact t = 0.95 marginal of the 1-d task, the euler_z step with the
    exact denoiser reaches the kernel law at t = 0.01 for any eps >= 0."""

    XT = 0.8

    def _kernel_law(self, t):
        """Mean and variance of x_t | xT under the kernel."""
        dist = _task_1d()
        gain, cov_c = dist.conditional()
        mu_c = float(dist.mean0[0] + gain[0, 0] * (self.XT - dist.meanT[0]))
        ev = eval_schedule(LINEAR, t)
        return ev.alpha * mu_c + ev.beta * self.XT, ev.alpha**2 * float(cov_c[0, 0]) + ev.gamma**2

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_exact_law_propagation(self, eta):
        """Noise-free: carry mean and variance through each step's (a, b, c, s)
        and the denoiser's affine slope and intercept in x_t."""
        policy = EpsilonPolicy(kind="eta_scaled", eta=eta, tail_zero_steps=0)
        times = np.linspace(0.95, 0.01, 471)
        n_steps = times.size - 1
        xT = np.array([[self.XT]])
        mean, var = self._kernel_law(times[0])
        for k in range(n_steps):
            t, dt = float(times[k]), float(times[k] - times[k + 1])
            eps = epsilon(policy, LINEAR, t, dt)
            a, b, c, s = step_euler_z(LINEAR, t, dt, eps)
            at0, at1 = (
                float(denoise(AnalyticDenoiser(_task_1d(), LINEAR), np.array([[x]]), xT, t)[0, 0])
                for x in (0.0, 1.0)
            )
            gain = a * (at1 - at0) + c  # d x' / d x, with x0hat = at0 + (at1 - at0) x
            mean = gain * mean + a * at0 + b * self.XT
            var = gain * gain * var + s * s
        true_mean, true_var = self._kernel_law(times[-1])
        assert abs(mean - true_mean) <= 1e-12
        assert abs(var - true_var) <= 0.01 * true_var

    def test_sample_reaches_the_kernel_law(self):
        """The same claim on sample at eta = 1, started at x_T.  At eta = 0 the
        point-mass start keeps no spread, so only the exact check covers it."""
        cfg = SamplerConfig(
            schedule=LINEAR,
            eps_policy=EpsilonPolicy(kind="eta_scaled", eta=1.0, tail_zero_steps=0),
            grid=make_time_grid(470), variant="euler_z", boot_b=0.0, seed=9,
        )
        out = sample(cfg, _den_1d(), np.full((20000, 1), self.XT), threads=2).x0_batch[:, 0]
        true_mean, true_var = self._kernel_law(cfg.grid.t_min)
        se = out.std(ddof=1) / math.sqrt(out.size)
        assert abs(out.mean() - true_mean) <= 4.0 * se
        assert abs(out.var(ddof=1) - true_var) <= 0.05 * true_var
