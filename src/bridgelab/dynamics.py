"""Forward and reverse simulation of the pinned bridge process.

The forward side integrates the linear SDE dX = (f X + s xT)dt + g dW whose
marginals reproduce the transition kernel for fixed endpoints.  The reverse
side integrates the one-parameter drift family that preserves those marginals
for any stochasticity level eps >= 0.  Ensembles are the Monte Carlo
verification harness: all noise comes from chunk-keyed counter streams, so a
run is bit-identical for any thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .schedule import EpsilonPolicy, Schedule, TimeGrid, bridge_coefficients, epsilon

_BINARY_MAGIC = b"BLPE0001"
_HEADER_BYTES = len(_BINARY_MAGIC) + 4 * 8


@dataclass
class PathEnsemble:
    """States of n_paths trajectories recorded on a shared time grid."""

    paths: np.ndarray  # (n_paths, n_times, d)
    times: np.ndarray  # (n_times,)
    seed: int

    def __post_init__(self):
        self.paths = np.asarray(self.paths, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.paths.ndim != 3:
            raise ValueError(f"paths must be (n_paths, n_times, d), got {self.paths.shape}")
        if self.paths.shape[1] != self.times.shape[0]:
            raise ValueError(
                f"times length {self.times.shape[0]} does not match "
                f"paths axis 1 ({self.paths.shape[1]})"
            )

    def to_binary(self) -> bytes:
        n, m, d = self.paths.shape
        header = _BINARY_MAGIC + struct.pack("<qqqq", n, m, d, self.seed)
        return header + self.times.tobytes() + self.paths.tobytes()

    @classmethod
    def from_binary(cls, blob: bytes) -> "PathEnsemble":
        if blob[:8] != _BINARY_MAGIC:
            raise ValueError("not a path-ensemble blob")
        if len(blob) < _HEADER_BYTES:
            raise ValueError(f"path-ensemble header is truncated: {len(blob)} bytes")
        n, m, d, seed = struct.unpack("<qqqq", blob[8:_HEADER_BYTES])
        if min(n, m, d) < 0:
            raise ValueError(f"path-ensemble dimensions must be >= 0, got {(n, m, d)}")
        want = _HEADER_BYTES + 8 * (m + n * m * d)
        if len(blob) != want:
            raise ValueError(f"path-ensemble blob holds {len(blob)} bytes, header needs {want}")
        values = np.frombuffer(blob, dtype="<f8", offset=_HEADER_BYTES)
        if not np.all(np.isfinite(values)):
            raise ValueError("path-ensemble times and states must be finite")
        return cls(values[m:].reshape(n, m, d).copy(), values[:m].copy(), seed)


@dataclass
class MomentEstimate:
    mean: np.ndarray
    cov: np.ndarray
    n: int
    se_mean: np.ndarray


def reverse_drift_from_score(
    sched: Schedule,
    eps: float,
    x: np.ndarray,
    xT: np.ndarray,
    t: float,
    score: np.ndarray,
) -> np.ndarray:
    """Reverse-family drift f x + s xT - (g^2/2 + eps) score from the raw score.

    eps = 0 gives the deterministic-flow drift, eps = g^2/2 the full reverse
    SDE, anything in between a marginal-preserving mixture.  It shares no
    code with the sampler's steps, so it serves as their independent oracle.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    bc = bridge_coefficients(sched, t)
    return bc.f * x + bc.s * xT - (0.5 * bc.g_sq + eps) * score


def _resolve_times(grid, direction: str) -> np.ndarray:
    if isinstance(grid, TimeGrid):
        times = np.asarray(grid.points, dtype=np.float64)
        if direction == "forward":
            times = times[::-1]
    else:
        times = np.asarray(grid, dtype=np.float64)
    diffs = np.diff(times)
    if direction == "forward" and not np.all(diffs > 0):
        raise ValueError("forward simulation needs strictly increasing times")
    if direction == "reverse" and not np.all(diffs < 0):
        raise ValueError("reverse simulation needs strictly decreasing times")
    return times


def simulate_ensemble(
    sched: Schedule,
    start,
    xT: np.ndarray,
    grid,
    direction: str,
    n_paths: int,
    seed: int,
    eps_policy: EpsilonPolicy | None = None,
    score_fn: Callable | None = None,
    threads: int = 1,
    record: bool = True,
) -> PathEnsemble:
    """Integrates an ensemble over the grid and records every state.

    Args:
        start: initial positions; a d-vector shared by all paths or a callable
            (rng, n) -> (n, d) drawn per chunk.
        xT: conditioning endpoint, d-vector (broadcast across paths).
        grid: TimeGrid (used t_max -> t_min for reverse, reversed for forward)
            or an explicit monotone time array.
        direction: "forward" (pinned SDE) or "reverse" (drift family; needs
            eps_policy and score_fn(x, xT, t) -> score).  A denoiser-driven
            reverse run is sampler.sample with variant "euler_z".
        threads: worker threads over fixed-size path chunks; any value yields
            bit-identical output.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown direction {direction!r}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if direction == "reverse" and (eps_policy is None or score_fn is None):
        raise ValueError("reverse simulation needs an eps_policy and a score_fn")

    times = _resolve_times(grid, direction)
    xT = np.asarray(xT, dtype=np.float64)
    if not np.all(np.isfinite(xT)):
        raise ValueError("xT must be finite")
    if not callable(start) and not np.all(np.isfinite(start)):
        raise ValueError("start must be finite")
    d = xT.shape[-1]
    m = times.shape[0]
    n_steps = m - 1
    # record=False keeps only the terminal slice; full trajectories at 1e5
    # paths and 1e3 steps would not fit comfortably in memory.
    out = np.empty((n_paths, m if record else 1, d))

    def work(chunk: int, sl: slice) -> None:
        rows = sl.stop - sl.start
        if callable(start):
            x = start(_rng.stream(seed, _rng.TAG_START, 0, chunk), rows)
            x = np.array(x, dtype=np.float64)  # a private float copy: the steps update it in place
        else:
            x = np.broadcast_to(np.asarray(start, dtype=np.float64), (rows, d)).copy()
        if x.shape != (rows, d):
            raise ValueError(f"start produced shape {x.shape}, expected {(rows, d)}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"start produced non-finite values in rows [{sl.start}:{sl.stop})")
        if record:
            out[sl, 0] = x
        tag = _rng.TAG_FORWARD if direction == "forward" else _rng.TAG_REVERSE
        for k in range(n_steps):
            t = float(times[k])
            z = _rng.stream(seed, tag, k, chunk).standard_normal((rows, d))
            try:
                if direction == "forward":
                    dt = float(times[k + 1] - times[k])
                    bc = bridge_coefficients(sched, t)
                    # x + (f x + s xT) dt + sqrt(g^2 dt) z, in place and in that
                    # operation order, so the bits match the expression form.
                    drift = bc.f * x
                    drift += bc.s * xT
                    drift *= dt
                    z *= np.sqrt(bc.g_sq * dt)
                    x += drift
                    x += z
                else:
                    dt = float(times[k] - times[k + 1])
                    step_index = n_steps - 1 - k
                    eps = epsilon(eps_policy, sched, t, dt, step_index, n_steps)
                    drift = reverse_drift_from_score(sched, eps, x, xT, t, score_fn(x, xT, t))
                    x = x - drift * dt + np.sqrt(2.0 * eps * dt) * z
            except ValueError as err:
                raise ValueError(f"step {k} at t = {t}: {err}") from err
            if record:
                out[sl, k + 1] = x
        if not record:
            out[sl, 0] = x

    _rng.run_chunked(n_paths, threads, work)
    return PathEnsemble(out, times if record else times[-1:], seed)


def estimate_marginal_moments(ens: PathEnsemble, time_index: int) -> MomentEstimate:
    """Unbiased mean/covariance of the ensemble slice at one recorded time."""
    x = ens.paths[:, time_index, :]
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 paths for moment estimation, got {n}")
    mean = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False))
    se = x.std(axis=0, ddof=1) / np.sqrt(n)
    return MomentEstimate(mean, cov, n, se)
