"""Marginal-preserving reverse sampler with four interchangeable step rules.

Every step is the affine map x' = a x0hat + b anchor + c x + s z, and a
variant is nothing but its formula for the scalars (a, b, c, s).  All target
the same one-step posterior mean alpha' x0hat + beta' anchor + gamma' zhat;
they differ in how the injected noise sqrt(2 eps dt) z is compensated.  The
sampler anchors zhat at the boot-noised start x_N while the denoiser always
sees the clean conditioning endpoint, and replaces the last tail_zero_steps
steps with the exact deterministic re-interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as _rng
from .denoiser import Denoiser, denoise
from .dynamics import PathEnsemble
from .schedule import EpsilonPolicy, Schedule, TimeGrid, _clamp_rounding, epsilon, eval_schedule

VARIANTS = ("euler_z", "gamma_simplified", "dbim", "markovian")


@dataclass(frozen=True)
class SamplerConfig:
    schedule: Schedule
    eps_policy: EpsilonPolicy
    grid: TimeGrid
    variant: str = "gamma_simplified"
    boot_b: float = 0.0
    seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (_rng.is_finite_real(self.boot_b) and self.boot_b >= 0):
            raise ValueError(f"boot_b must be finite, real and >= 0, got {self.boot_b!r}")
        if not _rng.is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.record_trajectory, bool):
            raise ValueError(f"record_trajectory must be a bool, got {self.record_trajectory!r}")


@dataclass
class SampleResult:
    x0_batch: np.ndarray  # (n, d)
    trajectories: Optional[PathEnsemble]
    eps_used: np.ndarray  # (n_steps,) in execution order
    x0hat_change: np.ndarray  # (n_steps,) mean L2 change of x0hat; first is nan


def _evals(sched: Schedule, t: float, dt: float, eps: float, pivot: str = "gamma"):
    """Schedule values at t and t - dt; pivot names the value at t the step divides by."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    cur = eval_schedule(sched, t)
    if getattr(cur, pivot) < 1e-12:
        raise ValueError(f"{pivot}({t}) = {getattr(cur, pivot)} is singular")
    return cur, eval_schedule(sched, t - dt)


def _fold(cur, a: float, b: float, c: float, c_hat: float, s: float):
    """(a, b, c, s) of a x0hat + b anchor + c x + c_hat zhat + s z, with
    zhat = (x - alpha x0hat - beta anchor) / gamma at t folded in."""
    k = c_hat / cur.gamma
    return a - k * cur.alpha, b - k * cur.beta, c + k, s


def step_euler_z(sched: Schedule, t: float, dt: float, eps: float):
    """Euler step of the reverse SDE written in the standardized residual.

    x' = x - [d_alpha x0hat + d_beta anchor + (d_gamma + eps/gamma) zhat] dt
    + sqrt(2 eps dt) z.
    """
    cur, _ = _evals(sched, t, dt, eps)
    c_hat = -(cur.d_gamma + eps / cur.gamma) * dt
    return _fold(cur, -cur.d_alpha * dt, -cur.d_beta * dt, 1.0, c_hat, math.sqrt(2.0 * eps * dt))


def step_gamma_simplified(sched: Schedule, t: float, dt: float, eps: float):
    """Re-interpolation with the noise compensation linearized in dt.

    x' = alpha' x0hat + beta' anchor + (gamma' - eps dt / gamma) zhat
    + sqrt(2 eps dt) z.
    """
    cur, nxt = _evals(sched, t, dt, eps)
    c_hat = nxt.gamma - eps * dt / cur.gamma
    return _fold(cur, nxt.alpha, nxt.beta, 0.0, c_hat, math.sqrt(2.0 * eps * dt))


def step_dbim(sched: Schedule, t: float, dt: float, eps: float):
    """Re-interpolation with exact one-step variance splitting.

    x' = alpha' x0hat + beta' anchor + sqrt(gamma'^2 - 2 eps dt) zhat
    + sqrt(2 eps dt) z.  Requires gamma'^2 >= 2 eps dt.
    """
    cur, nxt = _evals(sched, t, dt, eps)
    var = 2.0 * eps * dt
    c_hat = math.sqrt(_clamp_rounding(
        nxt.gamma**2 - var,
        "step variance 2*eps*dt = {} exceeds gamma'^2 = {}: eps is too large for this step",
        var, nxt.gamma**2,
    ))
    return _fold(cur, nxt.alpha, nxt.beta, 0.0, c_hat, math.sqrt(var))


def step_markovian(sched: Schedule, t: float, dt: float, eps: float):
    """Conditional-forward posterior step; the anchor coefficient cancels and
    eps is implied by the schedule.

    x' = (alpha' - alpha beta'/beta) x0hat + (beta'/beta) x
    + sqrt(gamma'^2 - beta'^2 gamma^2 / beta^2) z.
    """
    cur, nxt = _evals(sched, t, dt, eps, pivot="beta")
    ratio = nxt.beta / cur.beta
    var = nxt.gamma**2 - ratio**2 * cur.gamma**2
    s = math.sqrt(_clamp_rounding(var, "Markovian step variance {} is negative"))
    return nxt.alpha - cur.alpha * ratio, 0.0, ratio, s


def step_coefficients(variant: str, sched: Schedule, t: float, dt: float, eps: float):
    """(a, b, c, s) of the named variant's step from t to t - dt:
    x' = a x0hat + b anchor + c x + s z."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown sampler variant {variant!r}; expected one of {VARIANTS}")
    # Looked up by name at call time, so a rebound step_* is the one called.
    return globals()[f"step_{variant}"](sched, t, dt, eps)


def apply_step(coeffs, x_hat0, anchor, x, z=0.0):
    """x' = a x0hat + b anchor + c x + s z; the default z = 0 leaves out the noise.

    The terms accumulate into one array shaped like x0hat, added left to right
    as the expression reads, so the result has the expression's bits.
    """
    a, b, c, s = coeffs
    out = a * x_hat0
    out += b * anchor
    out += c * x
    out += s * z
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x, summing the squares one column at a time.

    For fewer than 8 columns this is np.linalg.norm(x, axis=1) bit for bit
    (numpy sums a row of 8 or more pairwise), at a fraction of its cost on a
    narrow chunk.
    """
    sq = x[:, 0] ** 2
    for j in range(1, x.shape[1]):
        sq += x[:, j] ** 2
    return np.sqrt(sq)


def sample(cfg: SamplerConfig, den: Denoiser, xT_batch: np.ndarray, threads: int = 1) -> SampleResult:
    """Runs the reverse sampler for a batch of conditioning endpoints.

    Starts each row at x_N = x_T + b n0, walks the grid from t_max down to
    t_min, and applies the configured variant except in the zero tail where
    every variant degenerates to the deterministic re-interpolation.  Output
    is bit-identical for any thread count.
    """
    xT_batch = np.atleast_2d(np.asarray(xT_batch, dtype=np.float64))
    bad = np.flatnonzero(~np.all(np.isfinite(xT_batch), axis=1))
    if bad.size:
        raise ValueError(f"xT_batch must be finite; row {bad[0]} is not")
    n, d = xT_batch.shape
    den_d = getattr(den, "d", d)
    if den_d != d:
        raise ValueError(f"denoiser dimension {den_d} does not match condition dimension {d}")
    ts = np.asarray(cfg.grid.points)
    n_steps = cfg.grid.n_steps

    x0_batch = np.empty((n, d))
    traj = np.empty((n, n_steps + 1, d)) if cfg.record_trajectory else None
    slices = _rng.chunk_slices(n)
    eps_used = np.zeros(n_steps)
    change_sums = np.zeros((len(slices), n_steps))
    change_sums[:, 0] = math.nan

    def work(chunk: int, sl: slice) -> None:
        # An overflow shows as a non-finite x0hat change or sample, checked once per chunk.
        with np.errstate(over="ignore", invalid="ignore"):
            x = walk(chunk, sl)
        bad_steps = np.flatnonzero(~np.isfinite(change_sums[chunk, 1:]))
        if bad_steps.size or not np.all(np.isfinite(x)):
            k = int(bad_steps[0]) + 1 if bad_steps.size else n_steps - 1
            what = "the x0hat change" if bad_steps.size else "the sample"
            raise ValueError(f"rows [{sl.start}:{sl.stop}), step {n_steps - 1 - k} at "
                             f"t = {float(ts[k])}: {what} is not finite (an overflow)")
        x0_batch[sl] = x

    def walk(chunk: int, sl: slice) -> np.ndarray:
        xT = xT_batch[sl]
        x = xT.copy()
        if cfg.boot_b > 0:
            boot = _rng.stream(cfg.seed, _rng.TAG_BOOT, 0, chunk)
            x = x + cfg.boot_b * boot.standard_normal(xT.shape)
        anchor = x.copy()
        if traj is not None:
            traj[sl, 0] = x
        prev_hat: Optional[np.ndarray] = None
        scratch: dict = {}  # the denoiser's buffers, reused by all of this chunk's steps
        for k in range(n_steps):
            t, dt = float(ts[k]), float(ts[k] - ts[k + 1])
            step_index = n_steps - 1 - k
            try:
                x_hat0 = denoise(den, x, xT, t, scratch)
                if prev_hat is not None:
                    change_sums[chunk, k] = float(np.sum(_row_norms(x_hat0 - prev_hat)))
                prev_hat = x_hat0
                if step_index < cfg.eps_policy.tail_zero_steps:
                    # every variant's eps = 0 limit: the exact re-interpolation
                    cur, nxt = _evals(cfg.schedule, t, dt, 0.0)
                    coeffs = _fold(cur, nxt.alpha, nxt.beta, 0.0, nxt.gamma, 0.0)
                    x = apply_step(coeffs, x_hat0, anchor, x)
                else:
                    eps = epsilon(cfg.eps_policy, cfg.schedule, t, dt)
                    eps_used[k] = eps
                    coeffs = step_coefficients(cfg.variant, cfg.schedule, t, dt, eps)
                    z = _rng.stream(cfg.seed, _rng.TAG_SAMPLER, step_index, chunk)
                    x = apply_step(coeffs, x_hat0, anchor, x, z.standard_normal(x.shape))
            except ValueError as err:
                raise ValueError(
                    f"rows [{sl.start}:{sl.stop}), step {step_index} at t = {t}: {err}"
                ) from err
            if traj is not None:
                traj[sl, k + 1] = x
        return x

    _rng.run_chunked(n, threads, work)
    trajectories = PathEnsemble(traj, ts, cfg.seed) if traj is not None else None
    x0hat_change = change_sums.sum(axis=0) / n
    x0hat_change[0] = math.nan
    return SampleResult(x0_batch, trajectories, eps_used, x0hat_change)

