"""Marginal-preserving reverse sampler with four interchangeable step rules.

All variants target the same one-step posterior mean alpha' x0hat +
beta' anchor + gamma' zhat; they differ in how the injected noise sqrt(2 eps
dt) z is compensated.  The sampler anchors zhat at the boot-noised start x_N
while the denoiser always sees the clean conditioning endpoint, and replaces
the last tail_zero_steps steps with the exact deterministic re-interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as _rng
from .denoiser import Denoiser, denoise
from .dynamics import PathEnsemble
from .schedule import EpsilonPolicy, Schedule, TimeGrid, epsilon, eval_schedule

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
        if not 0 <= self.boot_b < math.inf:
            raise ValueError(f"boot_b must be finite and >= 0, got {self.boot_b}")


@dataclass
class SampleResult:
    x0_batch: np.ndarray  # (n, d)
    trajectories: Optional[PathEnsemble]
    eps_used: np.ndarray  # (n_steps,) in execution order
    x0hat_change: np.ndarray  # (n_steps,) mean L2 change of x0hat; first is nan


def _zhat_at(sched: Schedule, x_hat0, anchor, x_t, t: float) -> np.ndarray:
    ev = eval_schedule(sched, t)
    if ev.gamma < 1e-12:
        raise ValueError(f"gamma({t}) = {ev.gamma} is singular")
    return (np.asarray(x_t) - ev.alpha * np.asarray(x_hat0) - ev.beta * np.asarray(anchor)) / ev.gamma


def step_euler_z(sched: Schedule, x_t, xT_cond, x_hat0, t: float, dt: float, eps: float, z_draw):
    """Euler step of the reverse SDE written in the standardized residual.

    x' = x - [d_alpha x0hat + d_beta xT + (d_gamma + eps/gamma) zhat] dt
    + sqrt(2 eps dt) z.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    ev = eval_schedule(sched, t)
    if ev.gamma < 1e-12:
        raise ValueError(f"gamma({t}) = {ev.gamma} is singular")
    z_hat = _zhat_at(sched, x_hat0, xT_cond, x_t, t)
    drift = (
        ev.d_alpha * np.asarray(x_hat0)
        + ev.d_beta * np.asarray(xT_cond)
        + (ev.d_gamma + eps / ev.gamma) * z_hat
    )
    return np.asarray(x_t) - drift * dt + math.sqrt(2.0 * eps * dt) * np.asarray(z_draw)


def step_gamma_simplified(
    sched: Schedule, x_hat0, xT_cond, zhat_t, t: float, dt: float, eps: float, z_draw
):
    """Re-interpolation with the noise compensation linearized in dt.

    x' = alpha' x0hat + beta' xT + (gamma' - eps dt / gamma_t) zhat
    + sqrt(2 eps dt) z.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    gamma_t = eval_schedule(sched, t).gamma
    if gamma_t < 1e-12:
        raise ValueError(f"gamma({t}) = {gamma_t} is singular")
    nxt = eval_schedule(sched, t - dt)
    return (
        nxt.alpha * np.asarray(x_hat0)
        + nxt.beta * np.asarray(xT_cond)
        + (nxt.gamma - eps * dt / gamma_t) * np.asarray(zhat_t)
        + math.sqrt(2.0 * eps * dt) * np.asarray(z_draw)
    )


def step_dbim(
    sched: Schedule, x_hat0, xT_cond, zhat_t, t: float, dt: float, eps: float, z_draw
):
    """Re-interpolation with exact one-step variance splitting.

    x' = alpha' x0hat + beta' xT + sqrt(gamma'^2 - 2 eps dt) zhat
    + sqrt(2 eps dt) z.  Requires gamma'^2 >= 2 eps dt.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    nxt = eval_schedule(sched, t - dt)
    rad = nxt.gamma**2 - 2.0 * eps * dt
    if rad < 0.0:
        if rad < -1e-12:
            raise ValueError(
                f"step variance 2*eps*dt = {2.0 * eps * dt} exceeds gamma'^2 = "
                f"{nxt.gamma**2}: eps is too large for this step"
            )
        rad = 0.0
    return (
        nxt.alpha * np.asarray(x_hat0)
        + nxt.beta * np.asarray(xT_cond)
        + math.sqrt(rad) * np.asarray(zhat_t)
        + math.sqrt(2.0 * eps * dt) * np.asarray(z_draw)
    )


def step_markovian(sched: Schedule, x_hat0, x_t, t: float, dt: float, z_draw):
    """Conditional-forward posterior step; the endpoint coefficient cancels.

    x' = (alpha' - alpha beta'/beta) x0hat + (beta'/beta) x_t
    + sqrt(gamma'^2 - beta'^2 gamma^2 / beta^2) z.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    cur = eval_schedule(sched, t)
    if cur.beta < 1e-12:
        raise ValueError(f"beta({t}) = {cur.beta} is singular for the Markovian step")
    nxt = eval_schedule(sched, t - dt)
    ratio = nxt.beta / cur.beta
    var = nxt.gamma**2 - ratio**2 * cur.gamma**2
    if var < 0.0:
        if var < -1e-12:
            raise ValueError(f"Markovian step variance {var} is negative")
        var = 0.0
    return (
        (nxt.alpha - cur.alpha * ratio) * np.asarray(x_hat0)
        + ratio * np.asarray(x_t)
        + math.sqrt(var) * np.asarray(z_draw)
    )


def sample(cfg: SamplerConfig, den: Denoiser, xT_batch: np.ndarray, threads: int = 1) -> SampleResult:
    """Runs the reverse sampler for a batch of conditioning endpoints.

    Starts each row at x_N = x_T + b n0, walks the grid from t_max down to
    t_min, and applies the configured variant except in the zero tail where
    every variant degenerates to the deterministic re-interpolation.  Output
    is bit-identical for any thread count.
    """
    xT_batch = np.atleast_2d(np.asarray(xT_batch, dtype=np.float64))
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
        xT = xT_batch[sl]
        x = xT.copy()
        if cfg.boot_b > 0:
            boot = _rng.stream(cfg.seed, _rng.TAG_BOOT, 0, chunk)
            x = x + cfg.boot_b * boot.standard_normal(xT.shape)
        anchor = x.copy()
        if traj is not None:
            traj[sl, 0] = x
        prev_hat: Optional[np.ndarray] = None
        for k in range(n_steps):
            t, t_next = float(ts[k]), float(ts[k + 1])
            dt = t - t_next
            step_index = n_steps - 1 - k
            try:
                x_hat0 = denoise(den, x, xT, t)
                if prev_hat is not None:
                    change_sums[chunk, k] = float(
                        np.sum(np.linalg.norm(x_hat0 - prev_hat, axis=1))
                    )
                prev_hat = x_hat0
                if step_index < cfg.eps_policy.tail_zero_steps:
                    nxt = eval_schedule(cfg.schedule, t_next)
                    z_hat = _zhat_at(cfg.schedule, x_hat0, anchor, x, t)
                    x = nxt.alpha * x_hat0 + nxt.beta * anchor + nxt.gamma * z_hat
                else:
                    eps = epsilon(cfg.eps_policy, cfg.schedule, t, dt, step_index, n_steps)
                    eps_used[k] = eps
                    z = _rng.stream(cfg.seed, _rng.TAG_SAMPLER, step_index, chunk)
                    z_draw = z.standard_normal(x.shape)
                    if cfg.variant == "euler_z":
                        x = step_euler_z(cfg.schedule, x, anchor, x_hat0, t, dt, eps, z_draw)
                    elif cfg.variant == "gamma_simplified":
                        z_hat = _zhat_at(cfg.schedule, x_hat0, anchor, x, t)
                        x = step_gamma_simplified(
                            cfg.schedule, x_hat0, anchor, z_hat, t, dt, eps, z_draw
                        )
                    elif cfg.variant == "dbim":
                        z_hat = _zhat_at(cfg.schedule, x_hat0, anchor, x, t)
                        x = step_dbim(cfg.schedule, x_hat0, anchor, z_hat, t, dt, eps, z_draw)
                    else:
                        x = step_markovian(cfg.schedule, x_hat0, x, t, dt, z_draw)
            except ValueError as err:
                raise ValueError(
                    f"rows [{sl.start}:{sl.stop}), step {step_index} at t = {t}: {err}"
                ) from err
            if traj is not None:
                traj[sl, k + 1] = x
        x0_batch[sl] = x

    _rng.run_chunked(n, threads, work)
    trajectories = PathEnsemble(traj, ts, cfg.seed) if traj is not None else None
    x0hat_change = change_sums.sum(axis=0) / n
    x0hat_change[0] = math.nan
    return SampleResult(x0_batch, trajectories, eps_used, x0hat_change)


def sample_result_csv_rows(result: SampleResult, n_conditions: int):
    """Yields (row_id, replicate_id, *x) with replicates grouped contiguously.

    The batch is laid out as n_conditions blocks of equal replicate count;
    row_id indexes the condition and replicate_id the repeat within it.
    """
    n = result.x0_batch.shape[0]
    if n_conditions < 1 or n % n_conditions != 0:
        raise ValueError(
            f"batch of {n} rows does not split into {n_conditions} equal condition groups"
        )
    per = n // n_conditions
    for i in range(n):
        yield (i // per, i % per, *result.x0_batch[i])
