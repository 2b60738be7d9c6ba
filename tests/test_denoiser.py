"""Analytic posterior means, preconditioning, MLP training, serialization."""

import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import denoiser as denoiser_module
from bridgelab import rng as _rng
from bridgelab.denoiser import (
    AnalyticDenoiser,
    GmmCoupling,
    JointGaussian,
    MlpDenoiser,
    MlpHyper,
    Preconditioner,
    denoise,
    denoiser_to_bytes,
    load_denoiser,
    mlp_forward,
    mlp_init,
    mlp_loss_and_grads,
    precondition,
    sample_condition,
    sample_pair,
    score_from_denoiser,
    train_mlp_denoiser,
    zhat,
)
from bridgelab.denoiser import _layers
from bridgelab.denoiser import test_mse_vs_analytic as mse_vs_analytic
from bridgelab.schedule import Schedule, eval_schedule

LINEAR = Schedule(kind="linear", gamma_max=0.125)

# Posterior mean of x0 | x_t, xT for the 1-d task below at t = 0.5 with
# xT = 0.8 and x_t = 0.45.  Equals 381/2810 exactly; three independent
# routes (joint-Gaussian conditioning, the precision form in rationals,
# and numerical quadrature over x0) agree on this value.
GAUSS_ORACLE = 0.13558718861209965

# Posterior mean for the 2-component mixture below at t = 0.5 with
# xT = 0.2 and x_t = 0.1, from numerical quadrature of the mixture
# posterior over x0 (epsabs 1e-16).
GMM_ORACLE = 0.0015193418468891062


def _task_1d() -> JointGaussian:
    return JointGaussian(
        mean0=[0.35], meanT=[0.5], cov00=[[0.29]], covTT=[[1.0]], cov0T=[[0.5]]
    )


def _task_2d() -> JointGaussian:
    return JointGaussian(
        mean0=[0.85, -0.4],
        meanT=[0.5, -0.5],
        cov00=[[0.754, 0.165], [0.165, 0.474]],
        covTT=[[1.0, 0.3], [0.3, 0.8]],
        cov0T=[[0.84, 0.11], [0.31, 0.59]],
    )


def _gmm_2comp() -> GmmCoupling:
    return GmmCoupling(
        weights=(0.3, 0.7),
        components=(
            JointGaussian([-1.0], [-0.8], [[0.30]], [[0.5]], [[0.2]]),
            JointGaussian([1.2], [0.9], [[0.25]], [[0.7]], [[0.15]]),
        ),
    )


class TestPairedDistributions:
    def test_joint_gaussian_rejects_non_psd_blocks(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            JointGaussian([0.0], [0.0], [[0.04]], [[1.0]], [[0.5]])

    def test_joint_gaussian_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="dimension"):
            JointGaussian([0.0, 0.0], [0.0], [[1.0]], [[1.0]], [[0.0]])

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("mean0", [[0.35]], "mean0 must be a vector"),
            ("cov00", [[[0.29]]], r"cov00 must be \(1, 1\)"),
            ("covTT", [[1.0, 0.0], [0.0, 1.0]], r"covTT must be \(1, 1\)"),
            ("cov0T", [[0.5, 0.5]], r"cov0T must be \(1, 1\)"),
        ],
        ids=["matrix-mean", "3d-cov00", "2x2-covTT", "1x2-cov0T"],
    )
    def test_joint_gaussian_rejects_misshapen_blocks(self, field, value, match):
        fields = {"mean0": [0.35], "meanT": [0.5], "cov00": [[0.29]], "covTT": [[1.0]],
                  "cov0T": [[0.5]], field: value}
        with pytest.raises(ValueError, match=match):
            JointGaussian(**fields)

    def test_conditional_blocks(self):
        dist = _task_1d()
        gain, cov_c = dist.conditional()
        np.testing.assert_allclose(gain, [[0.5]], rtol=0, atol=0)
        np.testing.assert_allclose(cov_c, [[0.04]], rtol=0, atol=1e-16)

    def test_singular_covTT_is_rejected_at_construction(self):
        # passes the joint PSD check; the xT marginal has no Cholesky factor
        with pytest.raises(ValueError, match="covTT must be positive definite"):
            JointGaussian([0.35], [0.5], [[0.29]], [[0.0]], [[0.0]])

    def test_joint_gaussian_is_frozen_with_read_only_blocks(self):
        dist = _task_2d()
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.covTT = np.eye(2)
        for name in ("mean0", "meanT", "cov00", "covTT", "cov0T"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(dist, name)[0] = 0.0

    def test_joint_gaussian_copies_the_caller_arrays(self):
        covTT = np.array([[1.0]])
        dist = JointGaussian([0.35], [0.5], [[0.29]], covTT, [[0.5]])
        covTT[0, 0] = 4.0
        assert dist.covTT[0, 0] == 1.0
        assert covTT.flags.writeable

    @pytest.mark.parametrize("make", [_task_1d, _task_2d], ids=["1d", "2d"])
    def test_cached_factors_equal_fresh_ones(self, make):
        dist = make()
        np.testing.assert_array_equal(dist._chol_TT, np.linalg.cholesky(dist.covTT))
        gain = np.linalg.solve(dist.covTT.T, dist.cov0T.T).T
        cov = dist.cov00 - gain @ dist.cov0T.T
        cov_c = 0.5 * (cov + cov.T)
        got_gain, got_cov = dist.conditional()
        np.testing.assert_array_equal(got_gain, gain)
        np.testing.assert_array_equal(got_cov, cov_c)
        np.testing.assert_array_equal(dist._chol_c, np.linalg.cholesky(cov_c))

    def test_gmm_weight_validation(self):
        comp = _task_1d()
        with pytest.raises(ValueError, match="sum"):
            GmmCoupling(weights=(0.4, 0.4), components=(comp, comp))
        with pytest.raises(ValueError, match="nonnegative"):
            GmmCoupling(weights=(1.2, -0.2), components=(comp, comp))
        with pytest.raises(ValueError, match="equal-length"):
            GmmCoupling(weights=(), components=())
        with pytest.raises(ValueError, match="dimension"):
            GmmCoupling(weights=(0.5, 0.5), components=(comp, _task_2d()))
        # nan > 0 is false, so unchecked a nan weight reads as weight 0
        for weights in ((math.nan, 1.0), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="weights must be finite"):
                GmmCoupling(weights=weights, components=(comp, comp))

    @pytest.mark.parametrize("field", ["mean0", "meanT", "cov00", "covTT", "cov0T"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_joint_gaussian_rejects_non_finite_moments(self, field, bad):
        fields = {"mean0": [0.35], "meanT": [0.5], "cov00": [[0.29]], "covTT": [[1.0]],
                  "cov0T": [[0.5]]}
        fields[field] = np.full(np.shape(fields[field]), bad)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            JointGaussian(**fields)

    def test_gmm_coupling_is_frozen_with_tuple_fields(self):
        comp = _task_1d()
        weights, components = [0.25, 0.75], [comp, comp]
        gmm = GmmCoupling(weights=weights, components=components)
        assert gmm.weights == (0.25, 0.75) and gmm.components == (comp, comp)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gmm.weights = (0.5, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gmm.components = (comp,)
        weights[0] = 0.5  # the caller's lists are not the coupling's
        assert gmm.weights == (0.25, 0.75)


class TestSamplePair:
    def test_joint_gaussian_moments(self):
        dist = _task_2d()
        x_0, x_T = sample_pair(dist, 30000, np.random.default_rng(0))
        n = x_0.shape[0]
        se0 = float(np.sqrt(np.diag(dist.cov00) / n).max())
        seT = float(np.sqrt(np.diag(dist.covTT) / n).max())
        np.testing.assert_allclose(x_0.mean(axis=0), dist.mean0, rtol=0, atol=4 * se0)
        np.testing.assert_allclose(x_T.mean(axis=0), dist.meanT, rtol=0, atol=4 * seT)
        joint = np.cov(np.hstack([x_0, x_T]).T)
        np.testing.assert_allclose(joint[:2, :2], dist.cov00, rtol=0.05, atol=0.01)
        np.testing.assert_allclose(joint[2:, 2:], dist.covTT, rtol=0.05, atol=0.01)
        np.testing.assert_allclose(joint[:2, 2:], dist.cov0T, rtol=0.05, atol=0.01)

    def test_singular_conditional_is_exactly_affine(self):
        """A deterministic coupling yields x0 as an affine map of xT."""
        dist = JointGaussian([0.35], [0.5], [[0.25]], [[1.0]], [[0.5]])
        x_0, x_T = sample_pair(dist, 200, np.random.default_rng(1))
        np.testing.assert_allclose(
            x_0, 0.35 + 0.5 * (x_T - 0.5), rtol=0, atol=1e-12
        )

    def test_gmm_component_frequencies(self):
        gmm = _gmm_2comp()
        x_0, _ = sample_pair(gmm, 20000, np.random.default_rng(2))
        frac_high = float(np.mean(x_0[:, 0] > 0.0))
        se = math.sqrt(0.3 * 0.7 / 20000)
        assert abs(frac_high - 0.7) <= 4 * se + 0.01

    def test_sample_condition_matches_xt_marginal(self):
        dist = _task_2d()
        x_T = sample_condition(dist, 30000, np.random.default_rng(5))
        seT = float(np.sqrt(np.diag(dist.covTT) / x_T.shape[0]).max())
        np.testing.assert_allclose(x_T.mean(axis=0), dist.meanT, rtol=0, atol=4 * seT)
        np.testing.assert_allclose(np.cov(x_T.T), dist.covTT, rtol=0.05, atol=0.01)


class TestAnalyticDenoise:
    def test_frozen_oracle(self):
        got = denoise(AnalyticDenoiser(_task_1d(), LINEAR), np.array([0.45]), np.array([0.8]), 0.5)
        np.testing.assert_allclose(got, [GAUSS_ORACLE], rtol=0, atol=1e-15)

    def test_batch_rows_match_single_calls(self):
        dist = _task_2d()
        rng = np.random.default_rng(6)
        x_t = rng.standard_normal((5, 2))
        xT = rng.standard_normal(2)
        batched = denoise(AnalyticDenoiser(dist, LINEAR), x_t, xT, 0.4)
        for i in range(5):
            np.testing.assert_allclose(
                batched[i], denoise(AnalyticDenoiser(dist, LINEAR), x_t[i], xT, 0.4),
                rtol=0, atol=1e-14,
            )

    def test_large_gamma_limit_returns_prior_mean(self):
        """When gamma dwarfs the conditional spread, x_t carries no news."""
        dist = JointGaussian([0.35], [0.5], [[0.2501]], [[1.0]], [[0.5]])
        xT = np.array([0.9])
        mu_c = 0.35 + 0.5 * (0.9 - 0.5)
        got = denoise(AnalyticDenoiser(dist, Schedule(kind="edm")), np.array([mu_c + 1.0]), xT, 1.0)
        np.testing.assert_allclose(got, [mu_c], rtol=0, atol=2e-4)

    def test_small_time_limit_returns_de_mixed_state(self):
        """As gamma -> 0 the posterior collapses onto (x_t - beta xT)/alpha."""
        dist = _task_1d()
        t = 1e-6
        ev = eval_schedule(LINEAR, t)
        x_t, xT = np.array([0.37]), np.array([0.8])
        got = denoise(AnalyticDenoiser(dist, LINEAR), x_t, xT, t)
        np.testing.assert_allclose(got, (x_t - ev.beta * xT) / ev.alpha, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("task", ["bimodal-1d", "two-component-2d"])
    def test_mixture_row_whose_quadratic_form_overflows_is_named(self, task):
        """Before, the row became a silent nan (with a warning); now no warning."""
        gmm = _gmm_bimodal() if task == "bimodal-1d" else _gmm_2d()
        x_t = np.full((3, gmm.d), 0.2)
        x_t[1] = 1e160
        for t in (0.5, np.full(3, 0.5)):
            with pytest.raises(ValueError, match="mixture quadratic form of row 1 of 3 is not finite"):
                denoise(AnalyticDenoiser(gmm, LINEAR), x_t, np.zeros(gmm.d), t)

    def test_singular_conditional_rejected(self):
        dist = JointGaussian([0.35], [0.5], [[0.25]], [[1.0]], [[0.5]])
        with pytest.raises(ValueError, match="singular"):
            denoise(AnalyticDenoiser(dist, LINEAR), np.array([0.4]), np.array([0.8]), 0.5)

    @pytest.mark.parametrize(
        "den",
        [AnalyticDenoiser(_task_1d(), LINEAR), AnalyticDenoiser(_gmm_2comp(), LINEAR)],
        ids=["single", "mixture"],
    )
    def test_gamma_singular_at_T_is_named(self, den):
        with pytest.raises(ValueError, match=r"gamma\(1\.0\) = 0\.0 is singular"):
            denoise(den, np.array([[0.4], [0.1]]), np.array([0.8]), 1.0)


class TestScoreIdentity:
    def test_score_matches_marginal_gaussian_oracle(self):
        """Denoiser-form score equals the closed-form marginal score."""
        dist = _task_2d()
        gain, cov_c = dist.conditional()
        gen = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            t = float(gen.uniform(0.05, 0.95))
            ev = eval_schedule(LINEAR, t)
            xT = sample_condition(dist, 1, gen)[0]
            mu_c = dist.mean0 + gain @ (xT - dist.meanT)
            x_t = ev.alpha * mu_c + ev.beta * xT + 0.3 * gen.standard_normal(2)
            x_hat0 = denoise(AnalyticDenoiser(dist, LINEAR), x_t, xT, t)
            got = score_from_denoiser(LINEAR, x_hat0, x_t, xT, t)
            cov_t = ev.alpha**2 * cov_c + ev.gamma**2 * np.eye(2)
            want = np.linalg.solve(cov_t, ev.alpha * mu_c + ev.beta * xT - x_t)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-8

    def test_score_singular_at_endpoints(self):
        with pytest.raises(ValueError, match="singular"):
            score_from_denoiser(LINEAR, np.array([0.0]), np.array([0.0]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="singular"):
            zhat(LINEAR, np.array([0.0]), np.array([0.0]), np.array([1.0]), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        x_hat0=st.floats(-10, 10),
        x_t=st.floats(-10, 10),
        xT=st.floats(-10, 10),
        t=st.floats(0.05, 0.95),
    )
    def test_zhat_is_minus_gamma_score_and_reconstructs(self, x_hat0, x_t, xT, t):
        """zhat = -gamma * score, and alpha x0hat + beta xT + gamma zhat = x_t."""
        ev = eval_schedule(LINEAR, t)
        a_x_hat0, a_x_t, a_xT = (np.array([v]) for v in (x_hat0, x_t, xT))
        z = zhat(LINEAR, a_x_hat0, a_x_t, a_xT, t)
        s = score_from_denoiser(LINEAR, a_x_hat0, a_x_t, a_xT, t)
        np.testing.assert_allclose(z, -ev.gamma * s, rtol=0, atol=1e-12)
        recon = ev.alpha * a_x_hat0 + ev.beta * a_xT + ev.gamma * z
        np.testing.assert_allclose(recon, a_x_t, rtol=0, atol=1e-12)


class TestGmmDenoise:
    def test_frozen_quadrature_oracle(self):
        got = denoise(AnalyticDenoiser(_gmm_2comp(), LINEAR), np.array([0.1]), np.array([0.2]), 0.5)
        np.testing.assert_allclose(got, [GMM_ORACLE], rtol=0, atol=1e-12)

    def test_single_component_equals_gaussian(self):
        dist = _task_2d()
        gmm = GmmCoupling(weights=(1.0,), components=(dist,))
        rng = np.random.default_rng(8)
        x_t = rng.standard_normal((6, 2))
        xT = rng.standard_normal(2)
        for t in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(
                denoise(AnalyticDenoiser(gmm, LINEAR), x_t, xT, t),
                denoise(AnalyticDenoiser(dist, LINEAR), x_t, xT, t),
                rtol=0,
                atol=1e-12,
            )

    def test_duplicated_component_equals_single(self):
        dist = _task_1d()
        gmm = GmmCoupling(weights=(0.5, 0.5), components=(dist, dist))
        got = denoise(AnalyticDenoiser(gmm, LINEAR), np.array([0.45]), np.array([0.8]), 0.5)
        np.testing.assert_allclose(got, [GAUSS_ORACLE], rtol=0, atol=1e-14)

    def test_batch_rows_match_single_calls(self):
        gmm = _gmm_2comp()
        rng = np.random.default_rng(9)
        x_t = rng.standard_normal((5, 1))
        xT = rng.standard_normal(1)
        batched = denoise(AnalyticDenoiser(gmm, LINEAR), x_t, xT, 0.3)
        for i in range(5):
            np.testing.assert_allclose(
                batched[i], denoise(AnalyticDenoiser(gmm, LINEAR), x_t[i], xT, 0.3),
                rtol=0, atol=1e-14,
            )


def _gmm_2d() -> GmmCoupling:
    shifted = JointGaussian(
        mean0=[-0.6, 0.9],
        meanT=[-0.4, 0.7],
        cov00=[[0.5, -0.1], [-0.1, 0.3]],
        covTT=[[0.6, 0.1], [0.1, 0.9]],
        cov0T=[[0.2, 0.05], [-0.1, 0.25]],
    )
    return GmmCoupling(weights=(0.4, 0.6), components=(_task_2d(), shifted))


def _gmm_bimodal() -> GmmCoupling:
    """The well-separated 1-d two-mode mixture that the sample benchmark runs."""
    return GmmCoupling(
        weights=(0.5, 0.5),
        components=(
            JointGaussian([-1.5], [-0.2], [[0.05]], [[0.4]], [[0.05]]),
            JointGaussian([1.5], [0.2], [[0.05]], [[0.4]], [[0.05]]),
        ),
    )


def _gmm_3comp() -> GmmCoupling:
    middle = JointGaussian([0.1], [0.05], [[0.2]], [[0.3]], [[0.1]])
    return GmmCoupling(weights=(0.3, 0.2, 0.5),
                       components=(*_gmm_bimodal().components, middle))


def _gmm_3d() -> GmmCoupling:
    first = JointGaussian(
        mean0=[0.4, -0.3, 1.1],
        meanT=[0.2, 0.0, 0.9],
        cov00=[[0.6, 0.1, -0.05], [0.1, 0.5, 0.12], [-0.05, 0.12, 0.4]],
        covTT=[[0.9, 0.2, 0.0], [0.2, 0.7, -0.1], [0.0, -0.1, 0.8]],
        cov0T=[[0.3, 0.05, 0.02], [-0.04, 0.25, 0.06], [0.1, 0.0, 0.2]],
    )
    second = JointGaussian(
        mean0=[-0.9, 0.5, -0.2],
        meanT=[-0.6, 0.4, 0.1],
        cov00=[[0.35, -0.08, 0.0], [-0.08, 0.45, 0.05], [0.0, 0.05, 0.3]],
        covTT=[[0.5, 0.0, 0.1], [0.0, 0.6, 0.15], [0.1, 0.15, 0.7]],
        cov0T=[[0.15, 0.02, 0.0], [0.0, 0.2, -0.03], [0.05, 0.04, 0.12]],
    )
    return GmmCoupling(weights=(0.25, 0.75), components=(first, second))


def _joint_conditioning(comp: JointGaussian, sched, x_t, xT, t):
    """(E[x0 | x_t, xT], log p(x_t, xT)) per row, by conditioning the full
    (x0, x_t, xT) Gaussian in covariance form with one solve."""
    ev = eval_schedule(sched, t)
    d = comp.d
    eye, zero = np.eye(d), np.zeros((d, d))
    # (x0, x_t, xT) = lin (x0, xT, z) with z ~ N(0, I) independent of (x0, xT)
    lin = np.block([[eye, zero, zero], [ev.alpha * eye, ev.beta * eye, ev.gamma * eye],
                    [zero, eye, zero]])
    src_cov = np.block([[comp.cov00, comp.cov0T, zero], [comp.cov0T.T, comp.covTT, zero],
                        [zero, zero, eye]])
    cov = lin @ src_cov @ lin.T
    mean = lin @ np.concatenate([comp.mean0, comp.meanT, np.zeros(d)])
    resid = np.hstack([x_t, xT]) - mean[d:]
    sol = np.linalg.solve(cov[d:, d:], resid.T)
    post = comp.mean0 + (cov[:d, d:] @ sol).T
    maha = np.einsum("in,ni->n", sol, resid)
    log_p = -0.5 * (maha + np.linalg.slogdet(cov[d:, d:])[1] + 2 * d * math.log(2 * math.pi))
    return post, log_p


def _mixture_by_joint_conditioning(gmm: GmmCoupling, x_t, xT, t):
    """E[x0 | x_t, xT] per row of a mixture from _joint_conditioning of each
    component, at a float t or at one t per row."""
    if not isinstance(t, float):
        return np.concatenate([_mixture_by_joint_conditioning(gmm, x_t[i : i + 1],
                                                              xT[i : i + 1], float(t_i))
                               for i, t_i in enumerate(t)])
    posts, log_ps = zip(*(_joint_conditioning(c, LINEAR, x_t, xT, t) for c in gmm.components))
    log_r = np.log(gmm.weights) + np.stack(log_ps, axis=1)
    resp = np.exp(log_r - log_r.max(axis=1, keepdims=True))
    resp /= resp.sum(axis=1, keepdims=True)
    return np.einsum("nk,knd->nd", resp, np.stack(posts))


class TestPosteriorPlan:
    """The cached affine plan behind denoise(): x0hat = x_t P^T + xT Q^T + r."""

    # Nearer T the covariance-form oracle, not the plan, loses digits: its
    # (x_t, xT) covariance turns ill-conditioned as x_t -> beta xT.  Against
    # 50-digit arithmetic at t = 0.999 the oracle is off by 4e-11, the plan by 3e-14.
    TIMES = (0.02, 0.3, 0.5, 0.7, 0.9)

    def _probes(self, dist, t, seed):
        gen = np.random.default_rng(seed)
        x_0, x_T = sample_pair(dist, 64, gen)
        ev = eval_schedule(LINEAR, t)
        return ev.alpha * x_0 + ev.beta * x_T + ev.gamma * gen.standard_normal(x_0.shape), x_T

    def test_gaussian_matches_joint_conditioning(self):
        dist = _task_2d()
        den = AnalyticDenoiser(dist, LINEAR)
        for k, t in enumerate(self.TIMES):
            x_t, xT = self._probes(dist, t, k)
            want, _ = _joint_conditioning(dist, LINEAR, x_t, xT, t)
            np.testing.assert_allclose(denoise(den, x_t, xT, t), want, rtol=0, atol=1e-12)

    MIXTURES = {"bimodal-1d": _gmm_bimodal, "three-component-1d": _gmm_3comp,
                "two-component-2d": _gmm_2d}

    @pytest.mark.parametrize("per_row", [False, True], ids=["float-t", "per-row-t"])
    @pytest.mark.parametrize("task", sorted(MIXTURES))
    def test_mixture_matches_joint_conditioning(self, task, per_row):
        """Also the benchmark's 1-d bimodal shape, three components, and one
        time per row as test_mse_vs_analytic evaluates it."""
        gmm = self.MIXTURES[task]()
        den = AnalyticDenoiser(gmm, LINEAR)
        for k, t in enumerate(self.TIMES):
            if per_row:
                gen = np.random.default_rng(50 + k)
                t = gen.uniform(0.02, t, 64)
                x_0, xT = sample_pair(gmm, 64, gen)
                ev = eval_schedule(LINEAR, t[:, None])
                x_t = ev.alpha * x_0 + ev.beta * xT + ev.gamma * gen.standard_normal(x_0.shape)
            else:
                x_t, xT = self._probes(gmm, t, k)
            want = _mixture_by_joint_conditioning(gmm, x_t, xT, t)
            np.testing.assert_allclose(denoise(den, x_t, xT, t), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "mixture"])
    def test_cache_hit_equals_uncached_route_bit_for_bit(self, kind):
        """A warm denoiser gives the bits of a fresh instance, whose cache is cold."""
        dist = _task_2d() if kind == "gaussian" else _gmm_2d()
        den = AnalyticDenoiser(dist, LINEAR)
        x_t, xT = self._probes(dist, 0.4, 1)
        first = denoise(den, x_t, xT, 0.4)
        assert list(den._plans) == [0.4]
        second = denoise(den, x_t, xT, 0.4)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(second, denoise(AnalyticDenoiser(dist, LINEAR), x_t, xT, 0.4))
        ts = np.random.default_rng(1).uniform(0.01, 0.99, x_t.shape[0])
        np.testing.assert_array_equal(
            denoise(den, x_t, xT, ts), denoise(AnalyticDenoiser(dist, LINEAR), x_t, xT, ts)
        )
        assert list(den._plans) == [0.4]

    def test_errors_are_never_cached(self):
        singular = AnalyticDenoiser(
            JointGaussian([0.35], [0.5], [[0.25]], [[1.0]], [[0.5]]), LINEAR
        )
        at_T = AnalyticDenoiser(_gmm_2comp(), LINEAR)
        for _ in range(2):
            with pytest.raises(ValueError, match="conditional covariance .* is singular"):
                denoise(singular, np.array([0.4]), np.array([0.8]), 0.5)
            with pytest.raises(ValueError, match=r"gamma\(1\.0\) = 0\.0 is singular"):
                denoise(at_T, np.array([0.4]), np.array([0.8]), 1.0)
        assert not singular._plans and not at_T._plans

    def test_caches_are_per_instance(self):
        dist = _task_2d()
        wide = Schedule(kind="linear", gamma_max=1.0)
        den_a, den_b = AnalyticDenoiser(dist, LINEAR), AnalyticDenoiser(dist, wide)
        x_t, xT = self._probes(dist, 0.5, 2)
        got_a, got_b = denoise(den_a, x_t, xT, 0.5), denoise(den_b, x_t, xT, 0.5)
        np.testing.assert_array_equal(got_b, denoise(AnalyticDenoiser(dist, wide), x_t, xT, 0.5))
        assert np.max(np.abs(got_a - got_b)) > 1e-3
        assert den_a._plans is not den_b._plans

    def test_threads_sharing_one_cache_get_the_uncached_result(self):
        """Racing builds of one entry store equal plans, so no lock is needed."""
        gmm = _gmm_2d()
        den = AnalyticDenoiser(gmm, LINEAR)
        x_t, xT = self._probes(gmm, 0.5, 4)
        times = [0.1 + 0.05 * k for k in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(denoise, den, x_t, xT, t) for t in times * 4]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for t, out in zip(times * 4, got):
            np.testing.assert_array_equal(out, denoise(AnalyticDenoiser(gmm, LINEAR), x_t, xT, t))
        assert sorted(den._plans) == times

    def test_analytic_denoisers_are_frozen(self):
        den = AnalyticDenoiser(_task_1d(), LINEAR)
        with pytest.raises(dataclasses.FrozenInstanceError):
            den.sched = Schedule(kind="linear", gamma_max=1.0)

    @pytest.mark.parametrize("kind", ["gaussian", "mixture", "mlp"])
    def test_array_t_matches_per_row_calls(self, kind):
        """One time per row, as test_mse_vs_analytic evaluates its probes."""
        if kind == "mlp":
            hyper = MlpHyper(layers=1, width=4, batch=8, iters=5, seed=2)
            den = train_mlp_denoiser(_task_2d(), LINEAR, Preconditioner(), hyper)[0]
        elif kind == "gaussian":
            den = AnalyticDenoiser(_task_2d(), LINEAR)
        else:
            den = AnalyticDenoiser(_gmm_2d(), LINEAR)
        gen = np.random.default_rng(3)
        ts = gen.uniform(0.01, 0.99, 7)
        x_t, xT = gen.standard_normal((7, 2)), gen.standard_normal((7, 2))
        got = denoise(den, x_t, xT, ts)
        for i, t in enumerate(ts.tolist()):
            np.testing.assert_allclose(got[i], denoise(den, x_t[i], xT[i], t), rtol=0, atol=1e-14)
        assert not getattr(den, "_plans", {}).keys() - set(ts.tolist())


def _sha256_of_floats(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestPinnedBits:
    """The bits of denoise on one d-vector and on 1, 2, 7 and 4096 rows.

    numpy may sum a product of one or a few rows in another order than a
    product of many, and the order can depend on the operands' memory layout;
    no tolerance test sees either.  Each digest hashes the output at one
    float t and, for rows, at one t per row.  The digests were computed before
    the posterior mean ran along the rows.
    """

    TASKS = {"gauss1d": _task_1d, "gauss2d": _task_2d, "gmm1d": _gmm_bimodal,
             "gmm2d": _gmm_2d, "gmm3d": _gmm_3d}
    PINNED = {
        ("gauss1d", 0): "a65cca97ee49919bac0e95c410b5845b4f40817be9f486de4673b9eebb3e2732",
        ("gauss1d", 1): "3b31b2611bb725cfa2f7917f468400d522ede6460b519ff3eed8550a32e26b56",
        ("gauss1d", 2): "6ecd0d6caac9a91aa8e6cb635008415e102d2c9635332ddc4a3e9f1b795ada05",
        ("gauss1d", 7): "87fd6479a0ae3f03f96c2ba67b7f500485317a847d874f8d966a013ec7127a1f",
        ("gauss1d", 4096): "f3518a30467aafdbffa3f062b51604f6e746d2ebccaa1fe82fb2e1c8fa75ab71",
        ("gauss2d", 0): "8912969b0a29fd24dd0a6ebf34f1358448e232096cdb319d1ed6a367d49fc472",
        ("gauss2d", 1): "566cb895b7b0de0ae7b2f6a78b66953ec3ef9f400a237a66c29e2e38ef206af1",
        ("gauss2d", 2): "992b9707ea2a42352bb808f61e936ad27f995305e29e0a3c5f5cd29afd4814cd",
        ("gauss2d", 7): "d6f6746823125cf876229685235da1faf72ce4c387a3b638f6510bb0a79927bf",
        ("gauss2d", 4096): "29ee60cb08c4e8fc760f0daef6b0ddb42beca2121df7bd9d590f6b68a6e80c5d",
        ("gmm1d", 0): "ce10ee25b91af9008e18629ac08309af6b01c781e96475a9c090699b1691f214",
        ("gmm1d", 1): "e0fa36d9fecb56633b40e7e09fffc45b44b399089a87fc39ec4ca3b5e0148929",
        ("gmm1d", 2): "0ca62dc9e1e05fede857af98cf9a7178a9295f87a38afd7a061af9822dd9f1e6",
        ("gmm1d", 7): "e57289213804bd6c1dcd41aaf6a8d2b67a1da3eeb5f3fd5fc609857664bf1bfc",
        ("gmm1d", 4096): "beb36dc8f864de0b03e423898c65e5afd9f2f993b0f022793baebdfe761a04fe",
        ("gmm2d", 0): "7319da21420d9acbf7acdc7b24f79e45f583720496d985c72900dfd7a8195b64",
        ("gmm2d", 1): "a54cdeaa36aa5341ee4c0f3d9366167b2822859a95b3ffc10264d3877abd112e",
        ("gmm2d", 2): "5c2c9e4e5e04e9652fff742f6720c9894f7512c43e7d99acecc840f10b328727",
        ("gmm2d", 7): "7bccf6772317952bea89f44dfa99de6a3f0db45cc926f846eee6d1e3a9a0ccae",
        ("gmm2d", 4096): "37d690eef2188563f74544c01bb2de9d19d1e7c708909ca78f88c2bf1a2ba1b2",
        ("gmm3d", 0): "bead5797f6315460f529f2e8808bad2348cc8ba0682592a67a7984b09c4deedc",
        ("gmm3d", 1): "ffcd81e69f381a5a34e8ec8adccd7ceee9eb599f89efe6915e09ab4fd7d1de49",
        ("gmm3d", 2): "d3794575f210207afe683e5af0dfcc8ff1ea6f59d65b0730918d3f1dc88ce624",
        ("gmm3d", 7): "0237db1d74f0c63514927b4bd2206147e35dfae61d129195e75aa61aa9573a8c",
        ("gmm3d", 4096): "65a4d1ed86cf200dd7ad2de56b536257ffbff6d6ceb73d6d893aee8b7d2218fa",
    }

    @classmethod
    def digest(cls, task: str, rows: int) -> str:
        """sha256 of the outputs for rows rows; rows = 0 is one d-vector."""
        dist = cls.TASKS[task]()
        gen = np.random.default_rng(1000 + rows)
        n = max(rows, 1)
        x_0, x_T = sample_pair(dist, n, gen)
        z = gen.standard_normal(x_0.shape)
        ts = gen.uniform(0.02, 0.9999, n)
        den = AnalyticDenoiser(dist, LINEAR)
        ev = eval_schedule(LINEAR, 0.37)
        x_t = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
        if rows == 0:
            return _sha256_of_floats(denoise(den, x_t[0], x_T[0], 0.37))
        ev = eval_schedule(LINEAR, ts[:, None])
        x_r = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
        return _sha256_of_floats(denoise(den, x_t, x_T, 0.37), denoise(den, x_r, x_T, ts))

    @pytest.mark.parametrize("task", sorted(TASKS))
    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 4096])
    def test_output_bits_are_pinned(self, task, rows):
        assert self.digest(task, rows) == self.PINNED[task, rows]


class TestPreconditioning:
    def test_midpoint_values(self):
        prec = Preconditioner()
        c_in, c_skip, c_out, c_noise, lam = precondition(prec, LINEAR, 0.5)
        var_in = 0.0625 + 0.0625 + 0.0625 + 0.03125**2
        assert var_in == 0.1884765625
        np.testing.assert_allclose(c_in, 1.0 / math.sqrt(0.1884765625), rtol=0, atol=1e-15)
        np.testing.assert_allclose(c_skip, 0.1875 / 0.1884765625, rtol=0, atol=1e-15)
        rad = 0.25 * 0.0625 - 0.25 * 0.015625 + 0.03125**2 * 0.25
        np.testing.assert_allclose(c_out, math.sqrt(rad / 0.1884765625), rtol=0, atol=1e-15)
        np.testing.assert_allclose(c_noise, 0.25 * math.log(0.5), rtol=0, atol=0)
        np.testing.assert_allclose(lam, 1.0 / c_out**2, rtol=0, atol=0)

    def test_unit_input_variance_closed_form(self):
        """c_in^2 Var(x_t) = 1 identically under the stated data statistics."""
        prec = Preconditioner(sigma0=0.7, sigmaT=0.4, sigma0T=0.1)
        for t in np.linspace(0.01, 1.0, 100):
            ev = eval_schedule(LINEAR, float(t))
            c_in = precondition(prec, LINEAR, float(t))[0]
            var_in = (
                ev.alpha**2 * prec.sigma0**2
                + ev.beta**2 * prec.sigmaT**2
                + 2 * ev.alpha * ev.beta * prec.sigma0T
                + ev.gamma**2
            )
            np.testing.assert_allclose(c_in**2 * var_in, 1.0, rtol=0, atol=1e-12)

    def test_unit_input_variance_monte_carlo(self):
        """Simulated Var(c_in x_t) is 1 when data matches the statistics."""
        dist = JointGaussian([0.0], [0.0], [[0.25]], [[0.25]], [[0.125]])
        prec = Preconditioner()
        gen = np.random.default_rng(10)
        x_0, x_T = sample_pair(dist, 60000, gen)
        z = gen.standard_normal(x_0.shape)
        for t in (0.2, 0.5, 0.8):
            ev = eval_schedule(LINEAR, t)
            c_in = precondition(prec, LINEAR, t)[0]
            x_t = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
            np.testing.assert_allclose(np.var(c_in * x_t), 1.0, rtol=0.02, atol=0)

    def test_weighted_loss_equals_residual_loss(self):
        """lam ||c_skip x_t + c_out F - x0||^2 == ||F - target||^2."""
        rng = np.random.default_rng(11)
        for t in (0.1, 0.5, 0.9):
            c_in, c_skip, c_out, _, lam = precondition(Preconditioner(), LINEAR, t)
            x_t = rng.standard_normal(50)
            x_0 = rng.standard_normal(50)
            f_out = rng.standard_normal(50)
            weighted = lam * np.mean((c_skip * x_t + c_out * f_out - x_0) ** 2)
            residual = np.mean((f_out - (x_0 - c_skip * x_t) / c_out) ** 2)
            np.testing.assert_allclose(weighted, residual, rtol=1e-12, atol=1e-12)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="t > 0"):
            precondition(Preconditioner(), LINEAR, 0.0)

    def test_inconsistent_statistics_rejected(self):
        with pytest.raises(ValueError, match="radicand"):
            precondition(Preconditioner(sigma0=0.1, sigmaT=0.1, sigma0T=0.5), LINEAR, 0.9)

    def test_array_equals_the_float_calls(self):
        prec = Preconditioner(sigma0=0.7, sigmaT=0.4, sigma0T=0.1)
        ts = np.linspace(0.01, 1.0, 50)
        got = precondition(prec, LINEAR, ts.reshape(5, 10))
        rows = [precondition(prec, LINEAR, float(t)) for t in ts]
        assert all(type(v) is float for row in rows for v in row)
        for field, column in zip(got, zip(*rows)):
            assert field.shape == (5, 10)
            np.testing.assert_array_equal(field.ravel(), column)

    @pytest.mark.parametrize("bad, match", [([0.5, 0.0], "t > 0"), ([0.5, math.nan], "outside"),
                                            ([0.5, 1.5], "outside")])
    def test_array_with_a_bad_time_raises(self, bad, match):
        with pytest.raises(ValueError, match=match):
            precondition(Preconditioner(), LINEAR, np.array(bad))

    @pytest.mark.parametrize(
        "kwargs",
        [{"sigma0": math.nan}, {"sigmaT": math.inf}, {"sigma0T": -math.inf}, {"sigma0": "x"},
         {"sigmaT": None}, {"sigma0T": True}, {"sigma0": 0.0}, {"sigmaT": -0.5},
         {"sigma0": 10**400}],
        ids=["nan", "inf", "-inf", "str", "none", "bool", "zero-sd", "negative-sd", "huge-int"],
    )
    def test_bad_statistics_rejected(self, kwargs):
        with pytest.raises(ValueError, match="prec"):
            Preconditioner(**kwargs)

    def test_from_pairs_exact_small_sample(self):
        x_0 = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 4.0]])
        x_T = np.array([[1.0, 0.0], [3.0, 2.0], [2.0, 1.0]])
        prec = Preconditioner.from_pairs(x_0, x_T)
        np.testing.assert_allclose(prec.sigma0, math.sqrt(2.5), rtol=0, atol=1e-15)
        np.testing.assert_allclose(prec.sigmaT, 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(prec.sigma0T, 1.0, rtol=0, atol=1e-15)


class TestMlp:
    def test_gradients_match_finite_differences(self):
        """Backprop gradients agree with central differences."""
        sizes = [3, 5, 2]
        params = mlp_init(sizes, seed=0)
        grads, spare = np.empty_like(params), np.empty_like(params)
        net, spare_net = _layers(params, sizes), _layers(spare, sizes)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        mlp_loss_and_grads(*net, x, target, *_layers(grads, sizes))
        h = 1e-5

        def loss_at():
            return mlp_loss_and_grads(*net, x, target, *spare_net)

        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            up = loss_at()
            params[i] = orig - h
            dn = loss_at()
            params[i] = orig
            num = (up - dn) / (2 * h)
            ana = grads[i]
            rel = abs(num - ana) / max(abs(num) + abs(ana), 1e-8)
            assert rel <= 1e-4, f"param {i}: {num} vs {ana}"

    def test_training_is_deterministic(self):
        dist = _task_1d()
        hyper = MlpHyper(layers=1, width=8, lr=0.02, batch=16, iters=30, seed=3)
        runs = [train_mlp_denoiser(dist, LINEAR, Preconditioner(), hyper) for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        for w_a, w_b in zip(runs[0][0].weights, runs[1][0].weights):
            np.testing.assert_array_equal(w_a, w_b)

    def test_short_training_beats_untrained_net(self):
        dist = _task_1d()
        prec = Preconditioner()
        hyper = MlpHyper(layers=2, width=32, lr=0.03, batch=128, iters=400, seed=0)
        den, running = train_mlp_denoiser(dist, LINEAR, prec, hyper)
        untrained = MlpHyper(layers=2, width=32, lr=0.03, batch=128, iters=1, seed=0)
        den0, _ = train_mlp_denoiser(dist, LINEAR, prec, untrained)
        trained_mse = mse_vs_analytic(den, dist, n_probes=512)
        untrained_mse = mse_vs_analytic(den0, dist, n_probes=512)
        assert trained_mse < 0.02
        assert trained_mse < untrained_mse

    def test_divergent_learning_rate_raises(self):
        hyper = MlpHyper(layers=1, width=8, lr=1e9, batch=16, iters=50, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="diverged"):
                train_mlp_denoiser(_task_1d(), LINEAR, Preconditioner(), hyper)

    def test_hyper_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MlpHyper(iters=0)
        with pytest.raises(ValueError, match="positive"):
            MlpHyper(lr=0.0)
        for t_min, t_max in ((0.5, 0.4), (0.01, 1.5), (0.0, 0.5), (0.3, 0.3)):
            with pytest.raises(ValueError, match="t_min < t_max"):
                MlpHyper(t_min=t_min, t_max=t_max)

    @pytest.mark.parametrize(
        "field, value",
        [("lr", math.nan), ("lr", math.inf), ("lr", -math.inf), ("lr", True), ("lr", "0.1"),
         ("layers", True), ("layers", 0), ("width", 2.5), ("width", np.float64(32.0)),
         ("batch", "8"), ("batch", False), ("iters", 10.0), ("iters", -1),
         ("t_max", True), ("t_min", "0.1"), ("t_min", math.nan), ("t_max", math.inf),
         ("t_min", False), ("t_max", None),
         pytest.param("lr", 10**400, id="lr-huge-int")],
    )
    def test_hyper_rejects_a_bad_value_and_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"train.{field} must be"):
            MlpHyper(**{field: value})

    def test_hyper_takes_numpy_integers(self):
        assert MlpHyper(width=np.int64(8), lr=np.float64(0.1)).width == 8

    def test_init_shapes_and_zero_biases(self):
        weights, biases = _layers(mlp_init([5, 7, 2], seed=1), [5, 7, 2])
        assert [w.shape for w in weights] == [(5, 7), (7, 2)]
        for b in biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_layers_are_views_of_a_frozen_private_copy(self):
        params = mlp_init([3, 4, 1], seed=0)
        den = MlpDenoiser(params, (3, np.int64(4), 1), Preconditioner(), LINEAR)
        params[0] += 1.0  # the caller's vector is not the denoiser's
        assert den.params[0] != params[0] and den.sizes == (3, 4, 1) and den.d == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            den.params = params
        with pytest.raises(ValueError, match="read-only"):
            den.weights[0][0, 0] = 1.0
        assert all(np.shares_memory(a, den.params) for a in den.weights + den.biases)
        _assert_same_bits(np.concatenate([den.weights[0].ravel(), den.biases[0],
                                          den.weights[1].ravel(), den.biases[1]]), den.params)

    @pytest.mark.parametrize(
        "sizes, params, match",
        [([3, 4], np.zeros(16), "sizes"), ([3, 0, 1], np.zeros(5), "sizes"),
         ([3], np.zeros(0), "sizes"), ([3.0, 4, 1], np.zeros(21), "sizes"),
         ([3, True, 1], np.zeros(7), "sizes"), ("3,4,1", np.zeros(21), "sizes"),
         ([3, 4, 1], np.zeros(20), "parameter block"),
         ([3, 4, 1], np.zeros((1, 21)), "parameter block"),
         ([3, 4, 1], np.r_[np.zeros(20), np.nan], "finite"),
         ([3, 4, 1], np.r_[np.inf, np.zeros(20)], "finite")],
        ids=["3-4", "zero-width", "one-size", "float-size", "bool-size", "str-sizes",
             "short", "2d-params", "nan", "inf"],
    )
    def test_direct_construction_checks_sizes_length_and_values(self, sizes, params, match):
        with pytest.raises(ValueError, match=match):
            MlpDenoiser(params, sizes, Preconditioner(), LINEAR)


def _forward_expression_form(weights, biases, x):
    """The network as written before layer buffers: a fresh array per operation."""
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w + b)
    return h @ weights[-1] + biases[-1]


def _random_params(sizes, seed):
    """Weights from mlp_init and nonzero biases, so every += b changes bits."""
    params = mlp_init(sizes, seed)
    gen = np.random.default_rng(seed)
    for b in _layers(params, sizes)[1]:
        b[...] = gen.standard_normal(b.size) * 0.3
    return params


def _random_net(sizes, seed):
    return _layers(_random_params(sizes, seed), sizes)


def _mlp_den(width: int = 32, d: int = 1, seed: int = 4) -> MlpDenoiser:
    sizes = [2 * d + 1, width, width, d]
    return MlpDenoiser(_random_params(sizes, seed), sizes, Preconditioner(0.6, 0.9, 0.2), LINEAR)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


class TestMlpLayerBuffers:
    """Layer outputs written into caller-owned buffers change no bit of the result."""

    @pytest.mark.parametrize("sizes", [[3, 32, 32, 1], [5, 64, 64, 64, 2], [17, 128, 8]])
    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_forward_equals_the_expression_form(self, sizes, rows):
        weights, biases = _random_net(sizes, seed=len(sizes))
        x = np.random.default_rng(rows).standard_normal((rows, sizes[0]))
        want = _forward_expression_form(weights, biases, x)
        bufs = [np.full((rows, n), np.nan) for n in sizes[1:]]
        for got, cache in (mlp_forward(weights, biases, x),
                           mlp_forward(weights, biases, x, bufs)):
            _assert_same_bits(got, want)
            assert len(cache) == len(sizes) and cache[0] is x
            _assert_same_bits(cache[-1], want)
        assert all(h is buf for h, buf in zip(cache[1:], bufs))  # written in place

    def test_forward_without_buffers_leaves_its_input_alone(self):
        weights, biases = _random_net([3, 8, 1], seed=1)
        x = np.random.default_rng(0).standard_normal((5, 3))
        before = x.copy()
        mlp_forward(weights, biases, x)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("per_row_t", [False, True])
    def test_reused_scratch_equals_fresh_calls_across_row_counts(self, per_row_t):
        den = _mlp_den()
        gen = np.random.default_rng(9)
        scratch: dict = {}
        for rows in (4096, 3616, 1, 4096):
            x_t, xT = gen.standard_normal((rows, 1)), gen.standard_normal((rows, 1))
            t = gen.uniform(0.05, 0.95, rows) if per_row_t else 0.37
            want = denoise(den, x_t, xT, t)
            _assert_same_bits(denoise(den, x_t, xT, t, scratch), want)
            assert [buf.shape[0] for buf in scratch["mlp_layers"]] == [rows] * 3

    def test_scratch_follows_a_change_of_network(self):
        scratch: dict = {}
        x_t, xT = np.full((6, 2), 0.3), np.full((6, 2), -0.2)
        for width in (8, 16):
            den = _mlp_den(width=width, d=2)
            want = denoise(den, x_t, xT, 0.5)
            _assert_same_bits(denoise(den, x_t, xT, 0.5, scratch), want)

    def test_returned_x0hat_survives_the_next_call(self):
        """The sampler keeps the previous step's x0hat; it must not alias the scratch."""
        den = _mlp_den()
        gen = np.random.default_rng(3)
        x_t, xT = gen.standard_normal((4096, 1)), gen.standard_normal((4096, 1))
        scratch: dict = {}
        first = denoise(den, x_t, xT, 0.8, scratch)
        kept = first.copy()
        second = denoise(den, x_t + 1.0, xT, 0.3, scratch)
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(first, second)
        for buf in scratch["mlp_layers"]:
            assert not np.shares_memory(first, buf) and not np.shares_memory(second, buf)

    def test_analytic_denoisers_ignore_scratch(self):
        scratch: dict = {}
        den = AnalyticDenoiser(_task_1d(), LINEAR)
        x_t, xT = np.array([[0.45]]), np.array([[0.8]])
        np.testing.assert_array_equal(denoise(den, x_t, xT, 0.5, scratch),
                                      denoise(den, x_t, xT, 0.5))
        assert scratch == {}

    def test_warm_scratch_call_allocates_less_than_one_hidden_layer(self):
        """Deterministic guard against fresh per-layer temporaries (no timing)."""
        den = _mlp_den(width=32)
        gen = np.random.default_rng(5)
        x_t, xT = gen.standard_normal((4096, 1)), gen.standard_normal((4096, 1))
        scratch: dict = {}
        denoise(den, x_t, xT, 0.5, scratch)
        one_hidden = 4096 * 32 * 8
        tracemalloc.start()
        try:
            denoise(den, x_t, xT, 0.4, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_hidden


def _train_per_iteration(data, sched, prec, hyper):
    """Reference training: builds each minibatch alone, one iteration at a time."""
    d = data.d
    sizes = [2 * d + 1] + [hyper.width] * hyper.layers + [d]
    params = mlp_init(sizes, hyper.seed)
    grads = np.empty_like(params)
    running = math.nan
    for it in range(hyper.iters):
        gen = _rng.stream(hyper.seed, _rng.TAG_TRAIN, it)
        x_0, x_T = sample_pair(data, hyper.batch, gen)
        ts = gen.uniform(hyper.t_min, hyper.t_max, hyper.batch)
        z = gen.standard_normal((hyper.batch, d))
        ev = eval_schedule(sched, ts[:, None])
        c_in, c_skip, c_out, c_noise, _ = precondition(prec, sched, ts[:, None])
        x_t = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
        x_net = np.concatenate([c_in * x_t, x_T, c_noise], axis=1)
        target = (x_0 - c_skip * x_t) / c_out
        loss = mlp_loss_and_grads(*_layers(params, sizes), x_net, target, *_layers(grads, sizes))
        if not math.isfinite(loss):
            raise ValueError(f"training diverged at iteration {it}: loss = {loss}")
        params -= hyper.lr * grads
        running = loss if math.isnan(running) else 0.99 * running + 0.01 * loss
    return params, running


def _assert_same_training(got, want):
    den, running = got
    params, want_running = want
    assert running == want_running
    np.testing.assert_array_equal(den.params, params)


class TestBlockedTraining:
    """Minibatches built a block of iterations at a time are the per-iteration ones."""

    TASKS = {"1d": _task_1d, "2d": _task_2d, "gmm": _gmm_2comp}

    @pytest.mark.parametrize("iters", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_matches_per_iteration_training(self, task, iters):
        data = self.TASKS[task]()
        prec = Preconditioner(0.6, 0.9, 0.2)
        hyper = MlpHyper(layers=1, width=8, lr=0.02, batch=128, iters=iters, seed=5)
        _assert_same_training(
            train_mlp_denoiser(data, LINEAR, prec, hyper),
            _train_per_iteration(data, LINEAR, prec, hyper),
        )

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_batch_above_the_block_rows_trains_one_iteration_per_block(self, task):
        data = self.TASKS[task]()
        hyper = MlpHyper(layers=1, width=4, lr=0.02, batch=_rng.CHUNK_ROWS + 1, iters=3, seed=2)
        _assert_same_training(
            train_mlp_denoiser(data, LINEAR, Preconditioner(), hyper),
            _train_per_iteration(data, LINEAR, Preconditioner(), hyper),
        )

    @pytest.mark.parametrize("block_iters", [1, 7])
    def test_weights_do_not_depend_on_the_block(self, monkeypatch, block_iters):
        hyper = MlpHyper(layers=2, width=8, lr=0.02, batch=64, iters=70, seed=1)
        want = train_mlp_denoiser(_task_2d(), LINEAR, Preconditioner(), hyper)
        monkeypatch.setattr(denoiser_module, "_TRAIN_BLOCK_ROWS", block_iters * hyper.batch)
        got = train_mlp_denoiser(_task_2d(), LINEAR, Preconditioner(), hyper)
        _assert_same_training(got, (want[0].params, want[1]))

    def test_divergence_names_the_per_iteration_index(self):
        hyper = MlpHyper(layers=1, width=8, lr=1e9, batch=16, iters=50, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="diverged") as want:
                _train_per_iteration(_task_1d(), LINEAR, Preconditioner(), hyper)
            with pytest.raises(ValueError, match="diverged") as got:
                train_mlp_denoiser(_task_1d(), LINEAR, Preconditioner(), hyper)
        assert str(got.value) == str(want.value)

    def test_scalings_are_evaluated_once_per_block(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.size(args[2]))
            return precondition(*args, **kwargs)

        monkeypatch.setattr(denoiser_module, "precondition", counted)
        hyper = MlpHyper(layers=1, width=4, lr=0.02, batch=128, iters=100, seed=0)
        train_mlp_denoiser(_task_1d(), LINEAR, Preconditioner(), hyper)
        assert calls == [32 * 128, 32 * 128, 32 * 128, 4 * 128]


class TestDenoiserDispatch:
    def test_each_kind_routes_to_its_evaluator(self):
        g_dist = _task_1d()
        x_t, xT = np.array([0.45]), np.array([0.8])
        got = denoise(AnalyticDenoiser(g_dist, LINEAR), x_t, xT, 0.5)
        np.testing.assert_allclose(got, [GAUSS_ORACLE], rtol=0, atol=1e-15)
        gmm = _gmm_2comp()
        got = denoise(AnalyticDenoiser(gmm, LINEAR), np.array([0.1]), np.array([0.2]), 0.5)
        np.testing.assert_allclose(got, [GMM_ORACLE], rtol=0, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown denoiser"):
            denoise(42, np.array([0.0]), np.array([0.0]), 0.5)

    def test_mse_of_reference_against_itself_is_zero(self):
        dist = _task_1d()
        den = AnalyticDenoiser(dist, LINEAR)
        assert mse_vs_analytic(den, dist, n_probes=64) == 0.0

    def test_mse_needs_an_analytic_reference(self):
        dist = object()
        den = AnalyticDenoiser(_task_1d(), LINEAR)
        with pytest.raises(ValueError, match="analytic reference"):
            mse_vs_analytic(den, dist, n_probes=8)


class TestAnalyticDenoiser:
    """One analytic denoiser and one uncached route serve both task kinds."""

    def test_task_without_a_closed_form_rejected_at_construction(self):
        dist = object()
        with pytest.raises(ValueError, match="analytic reference denoiser for object"):
            AnalyticDenoiser(dist, LINEAR)

    @pytest.mark.parametrize("entry", [
        lambda dist: sample_pair(dist, 2, np.random.default_rng(0)),
        lambda dist: sample_condition(dist, 2, np.random.default_rng(0)),
        lambda dist: train_mlp_denoiser(dist, LINEAR, Preconditioner(), MlpHyper(iters=1)),
    ], ids=["sample_pair", "sample_condition", "train_mlp_denoiser"])
    def test_task_without_a_closed_form_rejected_by_samplers_and_training(self, entry):
        with pytest.raises(ValueError, match="analytic reference denoiser for object"):
            entry(object())

    def test_array_holding_objects_compare_and_hash_by_identity(self):
        """Equal-valued but distinct tasks and networks compare unequal without
        raising; each equals itself and hashes."""
        task_a, task_b = _task_2d(), _task_2d()
        mlp_a, mlp_b = _mlp_den(d=2), _mlp_den(d=2)
        den_a, den_b = AnalyticDenoiser(task_a, LINEAR), AnalyticDenoiser(task_b, LINEAR)
        for a, b in ((task_a, task_b), (mlp_a, mlp_b), (den_a, den_b)):
            assert a == a and b == b
            assert a != b
            assert hash(a) == hash(a)
        assert AnalyticDenoiser(task_a, LINEAR) == den_a
        gmm = GmmCoupling(weights=(1.0,), components=(task_a,))
        assert gmm == GmmCoupling(weights=(1.0,), components=(task_a,))
        assert len({gmm, task_a, mlp_a}) == 3

    def test_uncached_route_equals_denoise_on_a_mixture(self):
        """A fresh instance, whose cache is cold, gives the bits of a warm one."""
        gmm = _gmm_2d()
        gen = np.random.default_rng(11)
        x_t, xT = gen.standard_normal((9, 2)), gen.standard_normal((9, 2))
        ts = gen.uniform(0.01, 0.99, 9)
        den = AnalyticDenoiser(gmm, LINEAR)
        denoise(den, x_t, xT, 0.3)  # warms the cache
        for t in (0.3, ts):
            np.testing.assert_array_equal(
                denoise(AnalyticDenoiser(gmm, LINEAR), x_t, xT, t), denoise(den, x_t, xT, t)
            )

    def test_gaussian_equals_its_one_component_mixture_bit_for_bit(self):
        dist = _task_2d()
        single = AnalyticDenoiser(dist, LINEAR)
        mixture = AnalyticDenoiser(GmmCoupling(weights=(1.0,), components=(dist,)), LINEAR)
        gen = np.random.default_rng(12)
        x_t, xT = gen.standard_normal((64, 2)), gen.standard_normal((64, 2))
        ts = gen.uniform(0.01, 0.9999, 64)
        for t in (0.01, 0.3, 0.9, 0.9999, ts):
            np.testing.assert_array_equal(denoise(single, x_t, xT, t),
                                          denoise(mixture, x_t, xT, t))


class TestSerialization:
    def _tiny_mlp(self):
        hyper = MlpHyper(layers=1, width=4, lr=0.02, batch=8, iters=5, seed=2)
        return train_mlp_denoiser(_task_1d(), LINEAR, Preconditioner(), hyper)[0]

    def test_round_trip_is_bit_exact(self, tmp_path):
        den = self._tiny_mlp()
        path = tmp_path / "model.bin"
        path.write_bytes(denoiser_to_bytes(den))
        back = load_denoiser(path)
        for w_a, w_b in zip(den.weights, back.weights):
            np.testing.assert_array_equal(w_a, w_b)
        for b_a, b_b in zip(den.biases, back.biases):
            np.testing.assert_array_equal(b_a, b_b)
        assert back.prec == den.prec
        assert back.sched == den.sched

    def test_array_i2sb_schedule_round_trips(self, tmp_path):
        """i2sb fields given as arrays are stored as tuples, so they serialize."""
        sched = Schedule(kind="i2sb", i2sb_breakpoints=np.array([0.0, 0.5, 1.0]),
                         i2sb_values=np.array([1.0, 2.0]))
        den = dataclasses.replace(self._tiny_mlp(), sched=sched)
        path = tmp_path / "model.bin"
        path.write_bytes(denoiser_to_bytes(den))
        assert load_denoiser(path).sched == sched

    def test_round_trip_predictions_identical(self, tmp_path):
        den = self._tiny_mlp()
        path = tmp_path / "model.bin"
        path.write_bytes(denoiser_to_bytes(den))
        back = load_denoiser(path)
        x_t, xT = np.array([0.4]), np.array([0.8])
        np.testing.assert_array_equal(
            denoise(den, x_t, xT, 0.5), denoise(back, x_t, xT, 0.5)
        )

    # sha256 of denoiser_to_bytes and float.hex of the running loss, computed
    # when each layer was still a separate array: the flat parameter vector
    # changed no byte of model.bin.
    @pytest.mark.parametrize(
        "task, hyper, digest, running",
        [("2d", MlpHyper(layers=2, width=8, lr=0.02, batch=64, iters=70, seed=1),
          "91746f5cb9f11bef783640598ee3b512ced023ee1fe8e18f1c5066902d63d569",
          "0x1.a3397835f209ep-1"),
         ("gmm", MlpHyper(layers=1, width=16, lr=0.03, batch=32, iters=40, seed=3),
          "a2a576d597dd9a0b8e7dad64a717a7748a94659007f0720ac747c022d6b8edf1",
          "0x1.a55059b816f89p+0")],
    )
    def test_trained_model_bytes_are_pinned(self, task, hyper, digest, running):
        data = {"2d": _task_2d, "gmm": _gmm_2comp}[task]()
        den, got = train_mlp_denoiser(data, LINEAR, Preconditioner(0.6, 0.9, 0.2), hyper)
        assert hashlib.sha256(denoiser_to_bytes(den)).hexdigest() == digest
        assert got.hex() == running

    def test_header_names_the_format(self):
        blob = denoiser_to_bytes(self._tiny_mlp())
        assert blob.split(b"\n", 1)[0].find(b"bridgelab-denoiser-v1") >= 0

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b'{"format": "something-else"}\n1234')
        with pytest.raises(ValueError, match="bridgelab-denoiser-v1"):
            load_denoiser(path)

    def test_corrupt_files_rejected(self, tmp_path):
        """Bad sizes, a body of the wrong length or non-finite weights raise."""
        blob = denoiser_to_bytes(self._tiny_mlp())
        header_line, body = blob.split(b"\n", 1)
        header = json.loads(header_line)

        def with_sizes(sizes):
            return json.dumps(dict(header, sizes=sizes)).encode() + b"\n" + body

        nan_weight = header_line + b"\n" + np.array([np.nan]).tobytes() + body[8:]
        cases = [
            (blob + b"\0" * 8, "parameter block"),
            (blob[:-8], "parameter block"),
            (nan_weight, "finite"),
            (with_sizes([3, 5, 1]), "parameter block"),
            (with_sizes([3, 0, 1]), "sizes"),
            (with_sizes([4, 4, 1]), "sizes"),
            (with_sizes([3]), "sizes"),
            (with_sizes("3,4,1"), "sizes"),
        ]
        for i, (bad, match) in enumerate(cases):
            path = tmp_path / f"bad{i}.bin"
            path.write_bytes(bad)
            with pytest.raises(ValueError, match=match):
                load_denoiser(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("prec", None),
            ("schedule", None),
            ("prec", {"sigma0": math.nan, "sigmaT": 0.5, "sigma0T": 0.125}),
            ("prec", {"sigma0": "x", "sigmaT": 0.5, "sigma0T": 0.125}),
            ("prec", {"sigma0": 0.5, "sigmaT": 0.5}),
            ("prec", {"sigma0": 0.5, "sigmaT": 0.5, "sigma0T": 0.125, "extra": 1.0}),
            ("prec", [0.5, 0.5, 0.125]),
            ("schedule", {"kind": "linear"}),
            ("schedule", "linear"),
            ("schedule.gamma_max", "x"),
            ("schedule.i2sb_values", 5),
            ("schedule.kind", "custom"),
        ],
        ids=["no-prec", "no-schedule", "nan-sigma0", "str-sigma0", "prec-missing-key",
             "prec-extra-key", "prec-list", "schedule-missing-keys", "schedule-str",
             "str-gamma-max", "scalar-i2sb-values", "custom-kind"],
    )
    def test_malformed_header_field_raises_value_error(self, tmp_path, field, value):
        header_line, body = denoiser_to_bytes(self._tiny_mlp()).split(b"\n", 1)
        header = json.loads(header_line)
        key, _, sub = field.partition(".")
        if sub:
            header[key][sub] = value
        elif value is None:
            del header[key]
        else:
            header[key] = value
        path = tmp_path / "model.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError):
            load_denoiser(path)

    def test_custom_schedule_not_serializable(self):
        den = dataclasses.replace(self._tiny_mlp(), sched=Schedule(
            kind="custom",
            alpha_fn=lambda t: 1 - t,
            beta_fn=lambda t: t,
            gamma_fn=lambda t: 0.1,
        ))
        with pytest.raises(ValueError, match="not serializable"):
            denoiser_to_bytes(den)
