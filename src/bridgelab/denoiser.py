"""Denoisers x0hat(x_t, xT, t): analytic conditional means and a trained MLP.

The L2-optimal denoiser is the posterior mean E[x0 | x_t, xT].  For jointly
Gaussian endpoint pairs it has a closed form (Gaussian conditioning in
precision form); for Gaussian-mixture couplings it is the responsibility-
weighted combination of the per-component forms.  The MLP denoiser predicts
the residual F with D = c_skip x_t + c_out F, using input/output scalings
chosen so that both the network input and the training target have unit
variance under the data statistics (sigma0, sigmaT, sigma0T).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import rng as _rng
from .schedule import DEFAULT_T_MAX, DEFAULT_T_MIN, T_HORIZON, Schedule, eval_schedule
from .schedule import _clamp_rounding, _first_where, _times

_EIG_TOL = 1e-12
_FILE_FORMAT = "bridgelab-denoiser-v1"


def _as_matrix(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=np.float64))


def _as_vector(a) -> np.ndarray:
    return np.atleast_1d(np.asarray(a, dtype=np.float64))


@dataclass
class JointGaussian:
    """Jointly Gaussian endpoint pair (x0, xT) given by block moments."""

    mean0: np.ndarray
    meanT: np.ndarray
    cov00: np.ndarray
    covTT: np.ndarray
    cov0T: np.ndarray  # Cov(x0, xT), shape (d, d)

    kind = "joint_gaussian"

    def __post_init__(self):
        self.mean0 = _as_vector(self.mean0)
        self.meanT = _as_vector(self.meanT)
        self.cov00 = _as_matrix(self.cov00)
        self.covTT = _as_matrix(self.covTT)
        self.cov0T = _as_matrix(self.cov0T)
        d = self.mean0.shape[0]
        if self.meanT.shape != (d,):
            raise ValueError("mean0 and meanT must share one dimension d")
        full = np.block([[self.cov00, self.cov0T], [self.cov0T.T, self.covTT]])
        if np.min(np.linalg.eigvalsh(full)) < -1e-10:
            raise ValueError("joint covariance is not positive semidefinite")

    @property
    def d(self) -> int:
        return self.mean0.shape[0]

    def conditional(self) -> tuple[np.ndarray, np.ndarray]:
        """Returns (gain M, cov) of x0 | xT = N(mean0 + M(xT - meanT), cov)."""
        gain = np.linalg.solve(self.covTT.T, self.cov0T.T).T
        cov = self.cov00 - gain @ self.cov0T.T
        return gain, 0.5 * (cov + cov.T)


@dataclass
class GmmCoupling:
    """Mixture of jointly Gaussian endpoint pairs."""

    weights: Sequence[float]
    components: Sequence[JointGaussian]

    kind = "gmm_coupling"

    def __post_init__(self):
        self.weights = tuple(float(w) for w in self.weights)
        self.components = tuple(self.components)
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("weights and components must be equal-length and non-empty")
        if any(w < 0 for w in self.weights):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(self.weights)}, expected 1")
        if len({c.d for c in self.components}) != 1:
            raise ValueError("mixture components must share one dimension")

    @property
    def d(self) -> int:
        return self.components[0].d


@dataclass
class MapPlusNoise:
    """x0 = map_fn(xT) + noise_scale * xi with xT from base_sampler(rng, n)."""

    base_sampler: Callable[[np.random.Generator, int], np.ndarray]
    map_fn: Callable[[np.ndarray], np.ndarray]
    noise_scale: float

    kind = "map_plus_noise"

    def __post_init__(self):
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")


PairedDistribution = Union[JointGaussian, GmmCoupling, MapPlusNoise]


def sample_pair(
    dist: PairedDistribution, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draws n endpoint pairs (x0, xT) from the coupling."""
    if isinstance(dist, JointGaussian):
        z_T = rng.standard_normal((n, dist.d))
        z_0 = rng.standard_normal((n, dist.d))
        x_T = dist.meanT + z_T @ np.linalg.cholesky(dist.covTT).T
        gain, cov_c = dist.conditional()
        x_0 = dist.mean0 + (x_T - dist.meanT) @ gain.T + z_0 @ _chol_psd(cov_c).T
        return x_0, x_T
    if isinstance(dist, GmmCoupling):
        ks = rng.choice(len(dist.weights), size=n, p=dist.weights)
        x_0 = np.empty((n, dist.d))
        x_T = np.empty((n, dist.d))
        for k, comp in enumerate(dist.components):
            mask = ks == k
            if mask.any():
                a, b = sample_pair(comp, int(mask.sum()), rng)
                x_0[mask], x_T[mask] = a, b
        return x_0, x_T
    x_T = np.asarray(dist.base_sampler(rng, n), dtype=np.float64)
    x_0 = np.asarray(dist.map_fn(x_T), dtype=np.float64)
    if dist.noise_scale > 0:
        x_0 = x_0 + dist.noise_scale * rng.standard_normal(x_T.shape)
    return x_0, x_T


def sample_condition(dist: PairedDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws n conditioning endpoints xT from the coupling's xT marginal."""
    if isinstance(dist, JointGaussian):
        return dist.meanT + rng.standard_normal((n, dist.d)) @ np.linalg.cholesky(dist.covTT).T
    if isinstance(dist, GmmCoupling):
        ks = rng.choice(len(dist.weights), size=n, p=dist.weights)
        x_T = np.empty((n, dist.d))
        for k, comp in enumerate(dist.components):
            mask = ks == k
            if mask.any():
                x_T[mask] = sample_condition(comp, int(mask.sum()), rng)
        return x_T
    return np.asarray(dist.base_sampler(rng, n), dtype=np.float64)


def _chol_psd(cov: np.ndarray) -> np.ndarray:
    # Tolerates exactly singular conditionals (deterministic couplings).
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _gauss_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance must be positive definite")
    diff = x - mean
    maha = np.einsum("ni,ni->n", diff, np.linalg.solve(cov, diff.T).T)
    return -0.5 * (maha + logdet + d * math.log(2.0 * math.pi))


def _posterior_mean(
    weights: Sequence[float], components: Sequence[JointGaussian], sched: Schedule,
    x_t: np.ndarray, xT: np.ndarray, t: float,
) -> np.ndarray:
    """E[x0 | x_t, xT] under a mixture of jointly Gaussian pairs.

    Per component: Gaussian conditioning in precision form, combining the
    prior x0 | xT from the joint blocks with the kernel likelihood
    x_t | x0, xT = N(alpha x0 + beta xT, gamma^2 I).  Several components are
    weighted by their responsibilities; a single one needs none.
    """
    ev = eval_schedule(sched, t)
    x_t = np.asarray(x_t, dtype=np.float64)
    squeeze = x_t.ndim == 1
    x_t2 = np.atleast_2d(x_t)
    xT2 = np.broadcast_to(np.atleast_2d(np.asarray(xT, dtype=np.float64)), x_t2.shape)
    eye = np.eye(x_t2.shape[1])
    means, log_resp = [], []
    for w, comp in zip(weights, components):
        gain, cov_c = comp.conditional()
        if np.min(np.abs(np.linalg.eigvalsh(cov_c))) < _EIG_TOL:
            raise ValueError("conditional covariance of x0 | xT is singular")
        prec_c = np.linalg.inv(cov_c)
        mu_c = comp.mean0 + (xT2 - comp.meanT) @ gain.T
        lam = prec_c + (ev.alpha**2 / ev.gamma**2) * eye
        eta = mu_c @ prec_c.T + (ev.alpha / ev.gamma**2) * (x_t2 - ev.beta * xT2)
        means.append(np.linalg.solve(lam, eta.T).T)
        if len(components) > 1:
            # evidence of xT under the component, then of x_t given xT
            log_w = math.log(w) if w > 0 else -np.inf
            lp_T = _gauss_logpdf(xT2, comp.meanT, comp.covTT)
            cov_t = ev.alpha**2 * cov_c + ev.gamma**2 * eye
            lp_t = _gauss_logpdf(x_t2, ev.alpha * mu_c + ev.beta * xT2, cov_t)
            log_resp.append(log_w + lp_T + lp_t)
    if len(means) == 1:
        out = means[0]
    else:
        log_resp = np.stack(log_resp, axis=1)
        log_resp -= log_resp.max(axis=1, keepdims=True)
        resp = np.exp(log_resp)
        resp /= resp.sum(axis=1, keepdims=True)
        out = np.einsum("nk,nkd->nd", resp, np.stack(means, axis=1))
    return out[0] if squeeze else out


def analytic_denoise(
    dist: JointGaussian, sched: Schedule, x_t: np.ndarray, xT: np.ndarray, t: float
) -> np.ndarray:
    """E[x0 | x_t, xT] for a jointly Gaussian endpoint pair."""
    if not isinstance(dist, JointGaussian):
        raise ValueError(f"analytic_denoise needs a JointGaussian, got {dist.kind}")
    return _posterior_mean((1.0,), (dist,), sched, x_t, xT, t)


def gmm_denoise(
    dist: GmmCoupling, sched: Schedule, x_t: np.ndarray, xT: np.ndarray, t: float
) -> np.ndarray:
    """Responsibility-weighted posterior mean over mixture components."""
    return _posterior_mean(dist.weights, dist.components, sched, x_t, xT, t)


def score_from_denoiser(
    sched: Schedule, x_hat0: np.ndarray, x_t: np.ndarray, xT: np.ndarray, t: float
) -> np.ndarray:
    """Score of the kernel marginal: (alpha x0hat + beta xT - x_t)/gamma^2."""
    ev = eval_schedule(sched, t)
    if ev.gamma < 1e-12:
        raise ValueError(f"gamma({t}) = {ev.gamma} is singular for the score")
    return (ev.alpha * np.asarray(x_hat0) + ev.beta * np.asarray(xT) - np.asarray(x_t)) / ev.gamma**2


def zhat(
    sched: Schedule, x_hat0: np.ndarray, x_t: np.ndarray, xT: np.ndarray, t: float
) -> np.ndarray:
    """Standardized residual (x_t - alpha x0hat - beta xT)/gamma = -gamma score."""
    ev = eval_schedule(sched, t)
    if ev.gamma < 1e-12:
        raise ValueError(f"gamma({t}) = {ev.gamma} is singular for zhat")
    return (np.asarray(x_t) - ev.alpha * np.asarray(x_hat0) - ev.beta * np.asarray(xT)) / ev.gamma


@dataclass(frozen=True)
class Preconditioner:
    """Per-dimension data statistics driving the network scalings.

    sigma0/sigmaT are endpoint standard deviations, sigma0T the endpoint
    covariance, treated as shared across dimensions.
    """

    sigma0: float = 0.5
    sigmaT: float = 0.5
    sigma0T: float = 0.125

    def __post_init__(self):
        for name in ("sigma0", "sigmaT", "sigma0T"):
            val = getattr(self, name)
            bad = isinstance(val, bool) or not isinstance(val, (int, float))
            if bad or not math.isfinite(val) or (val <= 0 and name != "sigma0T"):
                raise ValueError(f"prec.{name} must be finite (sigma0, sigmaT: > 0), got {val!r}")

    @classmethod
    def from_pairs(cls, x_0: np.ndarray, x_T: np.ndarray) -> "Preconditioner":
        """Moment-estimated statistics, averaged over dimensions."""
        x_0 = np.atleast_2d(np.asarray(x_0, dtype=np.float64))
        x_T = np.atleast_2d(np.asarray(x_T, dtype=np.float64))
        var0 = float(np.mean(np.var(x_0, axis=0, ddof=1)))
        varT = float(np.mean(np.var(x_T, axis=0, ddof=1)))
        c0 = x_0 - x_0.mean(axis=0)
        cT = x_T - x_T.mean(axis=0)
        cov = float(np.mean(np.sum(c0 * cT, axis=0) / (x_0.shape[0] - 1)))
        return cls(math.sqrt(var0), math.sqrt(varT), cov)


def precondition(prec: Preconditioner, sched: Schedule, t):
    """Returns (c_in, c_skip, c_out, c_noise, lam) at time t in (0, T].

    t is a float, giving floats, or an array, giving arrays shaped like t.
    c_in normalizes Var(c_in x_t) to 1 under the data statistics; c_skip and
    c_out make the residual target unit-variance; lam = 1/c_out^2 is the loss
    weight that turns the weighted denoising loss into a unit-weight residual
    loss.
    """
    t = _times(t)
    at = _first_where(t <= 0.0, t)
    if at:
        raise ValueError(f"preconditioning needs t > 0, got {at[0]}")
    ev = eval_schedule(sched, t)
    s0_sq = prec.sigma0**2
    sT_sq = prec.sigmaT**2
    var_in = (
        ev.alpha**2 * s0_sq
        + ev.beta**2 * sT_sq
        + 2.0 * ev.alpha * ev.beta * prec.sigma0T
        + ev.gamma**2
    )
    c_in = 1.0 / np.sqrt(var_in)
    c_skip = (ev.alpha * s0_sq + ev.beta * prec.sigma0T) * c_in**2
    rad = ev.beta**2 * s0_sq * sT_sq - ev.beta**2 * prec.sigma0T**2 + ev.gamma**2 * s0_sq
    rad = _clamp_rounding(rad, "c_out radicand {} is negative: data statistics are inconsistent")
    c_out = np.sqrt(rad) * c_in
    out = (c_in, c_skip, c_out, 0.25 * np.log(t), 1.0 / c_out**2)
    return tuple(map(float, out)) if isinstance(t, float) else out


# ---------------------------------------------------------------------------
# MLP denoiser


@dataclass
class MlpHyper:
    layers: int = 2
    width: int = 64
    lr: float = 0.03
    batch: int = 128
    iters: int = 20000
    seed: int = 0
    t_min: float = DEFAULT_T_MIN
    t_max: float = DEFAULT_T_MAX

    def __post_init__(self):
        if min(self.layers, self.width, self.batch, self.iters) < 1 or self.lr <= 0:
            raise ValueError("mlp hyperparameters must be positive")
        if not 0.0 < self.t_min < self.t_max <= T_HORIZON:
            raise ValueError(f"need 0 < t_min < t_max <= T, got [{self.t_min}, {self.t_max}]")


@dataclass
class MlpDenoiser:
    """Residual network F plus the scalings that assemble D from it."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    prec: Preconditioner
    sched: Schedule

    kind = "mlp"

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def d(self) -> int:
        return self.weights[-1].shape[1]


def mlp_init(sizes: Sequence[int], seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    gen = _rng.stream(seed, _rng.TAG_INIT)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(gen.standard_normal((n_in, n_out)) * math.sqrt(2.0 / n_in))
        biases.append(np.zeros(n_out))
    return weights, biases


def mlp_forward(
    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    cache = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w + b)
        cache.append(h)
    out = h @ weights[-1] + biases[-1]
    cache.append(out)
    return out, cache


def mlp_backward(
    weights: Sequence[np.ndarray], cache: Sequence[np.ndarray], d_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    n_layers = len(weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = d_out
    for k in range(n_layers - 1, -1, -1):
        grads_w[k] = cache[k].T @ delta
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k].T) * (1.0 - cache[k] ** 2)
    return grads_w, grads_b


def mlp_loss_and_grads(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    target: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared residual loss and its exact gradients."""
    out, cache = mlp_forward(weights, biases, x)
    resid = out - target
    loss = float(np.mean(resid**2))
    d_out = 2.0 * resid / resid.size
    grads_w, grads_b = mlp_backward(weights, cache, d_out)
    return loss, grads_w, grads_b


def _training_batch(
    data: PairedDistribution,
    sched: Schedule,
    prec: Preconditioner,
    hyper: MlpHyper,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One minibatch: network input X and unit-variance residual target."""
    x_0, x_T = sample_pair(data, hyper.batch, gen)
    d = x_0.shape[1]
    ts = gen.uniform(hyper.t_min, hyper.t_max, hyper.batch)
    z = gen.standard_normal((hyper.batch, d))
    ev = eval_schedule(sched, ts[:, None])
    c_in, c_skip, c_out, c_noise, _ = precondition(prec, sched, ts[:, None])
    x_t = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
    x_net = np.concatenate([c_in * x_t, x_T, c_noise], axis=1)
    target = (x_0 - c_skip * x_t) / c_out
    return x_net, target


def train_mlp_denoiser(
    data: PairedDistribution,
    sched: Schedule,
    prec: Preconditioner,
    hyper: MlpHyper,
) -> tuple[MlpDenoiser, float]:
    """Trains F by plain SGD on the unit-weight residual loss.

    The weighted denoising loss lam * ||D - x0||^2 with lam = 1/c_out^2 equals
    the residual loss ||F - (x0 - c_skip x_t)/c_out||^2, so training on the
    residual target is the weighted objective.  Returns the denoiser and the
    final running (EMA) loss; raises if the loss goes non-finite.
    """
    probe = sample_pair(data, 1, _rng.stream(hyper.seed, _rng.TAG_TASK))[0]
    d = probe.shape[1]
    sizes = [2 * d + 1] + [hyper.width] * hyper.layers + [d]
    weights, biases = mlp_init(sizes, hyper.seed)
    running = math.nan
    for it in range(hyper.iters):
        gen = _rng.stream(hyper.seed, _rng.TAG_TRAIN, it)
        x_net, target = _training_batch(data, sched, prec, hyper, gen)
        loss, grads_w, grads_b = mlp_loss_and_grads(weights, biases, x_net, target)
        if not math.isfinite(loss):
            raise ValueError(f"training diverged at iteration {it}: loss = {loss}")
        for k in range(len(weights)):
            weights[k] -= hyper.lr * grads_w[k]
            biases[k] -= hyper.lr * grads_b[k]
        running = loss if math.isnan(running) else 0.99 * running + 0.01 * loss
    return MlpDenoiser(weights, biases, prec, sched), running


def mlp_denoise(den: MlpDenoiser, x_t: np.ndarray, xT: np.ndarray, t: float) -> np.ndarray:
    x_t = np.asarray(x_t, dtype=np.float64)
    squeeze = x_t.ndim == 1
    x_t2 = np.atleast_2d(x_t)
    xT2 = np.broadcast_to(np.atleast_2d(np.asarray(xT, dtype=np.float64)), x_t2.shape)
    c_in, c_skip, c_out, c_noise, _ = precondition(den.prec, den.sched, t)
    noise_col = np.full((x_t2.shape[0], 1), c_noise)
    x_net = np.concatenate([c_in * x_t2, xT2, noise_col], axis=1)
    f_out, _ = mlp_forward(den.weights, den.biases, x_net)
    out = c_skip * x_t2 + c_out * f_out
    return out[0] if squeeze else out


@dataclass
class AnalyticGaussianDenoiser:
    dist: JointGaussian
    sched: Schedule

    kind = "analytic_gaussian"

    @property
    def d(self) -> int:
        return self.dist.d


@dataclass
class AnalyticGmmDenoiser:
    dist: GmmCoupling
    sched: Schedule

    kind = "analytic_gmm"

    @property
    def d(self) -> int:
        return self.dist.d


Denoiser = Union[AnalyticGaussianDenoiser, AnalyticGmmDenoiser, MlpDenoiser]


def denoise(den: Denoiser, x_t: np.ndarray, xT: np.ndarray, t: float) -> np.ndarray:
    """Evaluates x0hat(x_t, xT, t) for any denoiser kind."""
    if isinstance(den, AnalyticGaussianDenoiser):
        return analytic_denoise(den.dist, den.sched, x_t, xT, t)
    if isinstance(den, AnalyticGmmDenoiser):
        return gmm_denoise(den.dist, den.sched, x_t, xT, t)
    if isinstance(den, MlpDenoiser):
        return mlp_denoise(den, x_t, xT, t)
    raise ValueError(f"unknown denoiser type {type(den).__name__}")


def test_mse_vs_analytic(
    den: Denoiser,
    dist: PairedDistribution,
    n_probes: int = 2048,
    seed: int = 0,
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
) -> float:
    """Mean squared error of den against the closed-form posterior mean.

    Probes are fresh endpoint pairs pushed through the denoiser's own kernel
    at uniformly drawn times, so the value estimates the excess risk of den
    over the optimal denoiser for the coupling.
    """
    if isinstance(dist, JointGaussian):
        ref: Denoiser = AnalyticGaussianDenoiser(dist, den.sched)
    elif isinstance(dist, GmmCoupling):
        ref = AnalyticGmmDenoiser(dist, den.sched)
    else:
        raise ValueError(f"no analytic reference denoiser for {dist.kind}")
    gen = _rng.stream(seed, _rng.TAG_PROBE)
    x_0, x_T = sample_pair(dist, n_probes, gen)
    ts = gen.uniform(t_min, t_max, n_probes)
    z = gen.standard_normal(x_0.shape)
    ev = eval_schedule(den.sched, ts[:, None])
    x_t = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
    total = 0.0
    for i, t in enumerate(ts.tolist()):
        diff = denoise(den, x_t[i], x_T[i], t) - denoise(ref, x_t[i], x_T[i], t)
        total += float(np.sum(diff**2))
    return total / (n_probes * x_0.shape[1])


# ---------------------------------------------------------------------------
# Serialization: JSON header line + raw little-endian float64 parameter block.


_SCHEDULE_FIELDS = ("kind", "gamma_max", "gamma_multiplier", "gamma_scale", "beta_d", "beta_min",
                    "i2sb_breakpoints", "i2sb_values")
_PREC_FIELDS = ("sigma0", "sigmaT", "sigma0T")


def _schedule_to_config(sched: Schedule) -> dict:
    if sched.kind == "custom":
        raise ValueError("custom schedules are not serializable")
    return {key: getattr(sched, key) for key in _SCHEDULE_FIELDS}


def _header_object(header: dict, key: str, fields: tuple[str, ...]) -> dict:
    val = header.get(key)
    if not isinstance(val, dict) or set(val) != set(fields):
        raise ValueError(f"header field {key!r} must be an object with keys {fields}, got {val!r}")
    return val


def denoiser_to_bytes(den: MlpDenoiser) -> bytes:
    if not isinstance(den, MlpDenoiser):
        raise ValueError("only MLP denoisers are serialized; analytic ones are configs")
    header = {
        "format": _FILE_FORMAT,
        "kind": "mlp",
        "sizes": den.sizes,
        "prec": {key: getattr(den.prec, key) for key in _PREC_FIELDS},
        "schedule": _schedule_to_config(den.sched),
    }
    blocks = [json.dumps(header, sort_keys=True).encode() + b"\n"]
    for w, b in zip(den.weights, den.biases):
        blocks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        blocks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(blocks)


def save_denoiser(den: MlpDenoiser, path) -> None:
    with open(path, "wb") as fh:
        fh.write(denoiser_to_bytes(den))


def load_denoiser(path) -> MlpDenoiser:
    """Reads a denoiser file; a corrupt header or body raises ValueError."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    header = json.loads(header_line)
    if (
        not isinstance(header, dict)
        or header.get("format") != _FILE_FORMAT
        or header.get("kind") != "mlp"
    ):
        raise ValueError(f"not a {_FILE_FORMAT} mlp file")
    sizes = header.get("sizes")
    if (
        not isinstance(sizes, list)
        or len(sizes) < 2
        or not all(type(n) is int and n > 0 for n in sizes)
        or sizes[0] != 2 * sizes[-1] + 1
    ):
        raise ValueError(f"sizes {sizes!r} are not positive layer widths 2d+1 -> ... -> d")
    n_params = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    if len(body) != 8 * n_params:
        raise ValueError(
            f"parameter block holds {len(body)} bytes, sizes {sizes} need {8 * n_params}"
        )
    params = np.frombuffer(body, dtype="<f8")
    if not np.all(np.isfinite(params)):
        raise ValueError("denoiser parameters must be finite")
    weights, biases, offset = [], [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w, b = np.split(params[offset : offset + (n_in + 1) * n_out], [n_in * n_out])
        weights.append(w.reshape(n_in, n_out).copy())
        biases.append(b.copy())
        offset += (n_in + 1) * n_out
    prec = Preconditioner(**_header_object(header, "prec", _PREC_FIELDS))
    sched_cfg = _header_object(header, "schedule", _SCHEDULE_FIELDS)
    try:
        sched = Schedule(**{
            key: tuple(val) if key.startswith("i2sb") else val for key, val in sched_cfg.items()
        })
    except TypeError as err:  # a field of the wrong type
        raise ValueError(f"header field 'schedule' is malformed ({err})") from err
    return MlpDenoiser(weights, biases, prec, sched)
