"""Forward simulation of the pinned bridge process.

simulate_ensemble integrates the linear SDE dX = (f X + s xT)dt + g dW whose
marginals reproduce the transition kernel for fixed endpoints.  Reverse
sampling is sampler.sample.  Ensembles are the Monte Carlo verification
harness: all noise comes from chunk-keyed counter streams, so a run is
bit-identical for any thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .schedule import Schedule, TimeGrid, bridge_coefficients

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


def _resolve_times(grid) -> np.ndarray:
    if isinstance(grid, TimeGrid):
        times = np.asarray(grid.points[::-1], dtype=np.float64)
    else:
        times = np.asarray(grid, dtype=np.float64)
    if not np.all(np.diff(times) > 0):
        raise ValueError("forward simulation needs strictly increasing times")
    return times


def simulate_ensemble(
    sched: Schedule,
    start,
    xT: np.ndarray,
    grid,
    n_paths: int,
    seed: int,
    threads: int = 1,
    record: bool = True,
) -> PathEnsemble:
    """Integrates the forward pinned SDE over the grid and records every state.

    Reverse sampling is sampler.sample; with variant "euler_z", boot_b = 0
    and tail_zero_steps = 0 it takes the Euler steps of the reverse drift
    family f x + s xT - (g^2/2 + eps) score.

    Args:
        start: initial position, d-vector shared by all paths.
        xT: conditioning endpoint, d-vector (broadcast across paths).
        grid: TimeGrid (walked t_min -> t_max) or an explicit strictly
            increasing time array.
        threads: worker threads over fixed-size path chunks; any value yields
            bit-identical output.
    """
    if not _rng.is_integer(n_paths) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    times = _resolve_times(grid)
    xT = np.asarray(xT, dtype=np.float64)
    if xT.ndim != 1:
        raise ValueError(f"xT must be a d-vector, got shape {xT.shape}")
    if not np.all(np.isfinite(xT)):
        raise ValueError("xT must be finite")
    d = xT.shape[0]
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (d,):
        raise ValueError(f"start must be a d-vector like xT, d = {d}; got shape {start.shape}")
    if not np.all(np.isfinite(start)):
        raise ValueError("start must be finite")
    m = times.shape[0]
    # record=False keeps only the terminal slice; full trajectories at 1e5
    # paths and 1e3 steps would not fit comfortably in memory.
    out = np.empty((n_paths, m if record else 1, d))

    def work(chunk: int, sl: slice) -> None:
        rows = sl.stop - sl.start
        x = np.broadcast_to(start, (rows, d)).copy()  # the steps update x in place
        if record:
            out[sl, 0] = x
        for k in range(m - 1):
            t = float(times[k])
            z = _rng.stream(seed, _rng.TAG_FORWARD, k, chunk).standard_normal((rows, d))
            try:
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
