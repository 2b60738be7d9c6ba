"""Diversity and distribution diagnostics: AFD, energy distance, slopes.

AFD takes plain replicate groups and an optional projection matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as _rng


def random_projection(d_in: int, d_out: int, seed: int) -> np.ndarray:
    """Seeded (d_out, d_in) random projection emulating a latent feature space."""
    if not _rng.is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    gen = np.random.default_rng(seed)
    return gen.standard_normal((d_out, d_in)) / np.sqrt(d_in)


@dataclass(frozen=True)
class AFDReport:
    afd: float
    per_group: tuple[float, ...]


# Rows of the left operand per block in _pair_distances. The scratch block
# holds this many rows of the output (384 kB at m = 3000), small enough to
# stay in cache; 16 was among the fastest sizes tried from 4 to 256.
_PAIR_BLOCK = 16


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a (..., n, d) and b (..., m, d).

    Returns (..., n, m).  The squared coordinate differences are summed in
    column order, as scipy.spatial.distance.cdist sums them, so the result
    equals cdist bit for bit.  Rows of a go in blocks of _PAIR_BLOCK, so the
    only temporary besides the output is one block of scratch.
    """
    n, d = a.shape[-2:]
    bT = np.ascontiguousarray(np.swapaxes(b, -1, -2))[..., None, :, :]  # (..., 1, d, m)
    out = np.empty(a.shape[:-2] + (n, b.shape[-2]))
    scratch = np.empty(a.shape[:-2] + (min(_PAIR_BLOCK, n), b.shape[-2]))
    for i in range(0, n, _PAIR_BLOCK):
        block = out[..., i : i + _PAIR_BLOCK, :]
        rows = a[..., i : i + _PAIR_BLOCK, :, None]  # (..., rows, d, 1)
        tmp = scratch[..., : block.shape[-2], :]
        np.subtract(rows[..., 0, :], bT[..., 0, :], out=block)
        np.multiply(block, block, out=block)
        for k in range(1, d):
            np.subtract(rows[..., k, :], bT[..., k, :], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(block, tmp, out=block)
        np.sqrt(block, out=block)
    return out


# Bound on the distance entries afd holds at once (8 MB), so stacking many
# equal-size groups costs no more memory than one large group.
_AFD_STACK_ENTRIES = 1 << 20


def afd(groups: Sequence[np.ndarray], projection: np.ndarray | None = None) -> AFDReport:
    """Mean pairwise feature distance within each group, averaged over groups.

    ``groups`` holds one (L_i, d) array of replicate outputs per conditioning
    input; the features are the rows themselves, or ``g @ projection.T`` for
    a (d_out, d) ``projection``.  Per group with L replicates: sum of
    ||F(y_k) - F(y_l)|| over ordered pairs k != l, divided by L^2 - L.
    Groups of one size share one stacked distance call.
    """
    groups = [np.atleast_2d(np.asarray(g, dtype=np.float64)) for g in groups]
    if not groups:
        raise ValueError("at least one replicate group is required")
    if len({g.shape[1] for g in groups}) != 1:
        raise ValueError("all groups must share one feature dimension")
    for i, g in enumerate(groups):
        if not np.all(np.isfinite(g)):
            raise ValueError(f"groups[{i}] contains non-finite values")
    feats = groups
    if projection is not None:
        projection = np.atleast_2d(np.asarray(projection, dtype=np.float64))
        if not np.all(np.isfinite(projection)):
            raise ValueError("projection matrix contains non-finite values")
        d_in, d = projection.shape[1], groups[0].shape[1]
        if d_in != d:
            raise ValueError(f"projection takes {d_in}-d inputs, groups are {d}-d")
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the group sums
            feats = [g @ projection.T for g in groups]
    sizes = np.array([f.shape[0] for f in feats])
    for i, n in enumerate(sizes):
        if n < 2:
            raise ValueError(f"group {i} has {n} replicate(s), need at least 2 for afd")
    sums = np.empty(len(feats))
    for n in np.unique(sizes):
        idx = np.flatnonzero(sizes == n)
        step = max(1, _AFD_STACK_ENTRIES // (n * n))
        for start in range(0, idx.size, step):
            part = idx[start : start + step]
            stack = np.stack([feats[i] for i in part])
            with np.errstate(over="ignore", invalid="ignore"):
                sums[part] = _pair_distances(stack, stack).sum(axis=(1, 2))
            bad = part[~np.isfinite(sums[part])]
            if bad.size:
                raise ValueError(f"afd: the distance sum of group {bad[0]} is not finite "
                                 "(an overflow)")
    per_group = sums / (sizes * sizes - sizes)
    return AFDReport(float(np.mean(per_group)), tuple(per_group.tolist()))


def _two_samples(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as 2-d float arrays, checked for size, finiteness and dimension."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError(
            f"need at least 2 samples per side, got {a.shape[0]} and {b.shape[0]}"
        )
    for name, x in (("a", a), ("b", b)):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} contains non-finite values")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"a and b must share one feature dimension, got {a.shape[1]} and {b.shape[1]}"
        )
    return a, b


def _energy_statistic(cross, within_a, within_b, n: int, m: int):
    """2 E||A-B|| - E||A-A'|| - E||B-B'|| from sums of pair distances.

    ``cross`` sums over the n*m pairs (A, B); ``within_a`` and ``within_b``
    sum over ordered off-diagonal pairs, so their means are U-statistics.
    Works elementwise on arrays of sums.
    """
    return 2.0 * (cross / (n * m)) - within_a / (n * (n - 1)) - within_b / (m * (m - 1))


# Rows of the left operand per distance tile in energy_distance and
# energy_permutation_quantile: 3 MB at 1500 + 1500 pooled, against 72 MB for
# the whole (n + m)^2 distance matrix.
_ROW_TILE = 128


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample energy statistic 2 E||A-B|| - E||A-A'|| - E||B-B'||.

    Within-sample means are U-statistics (off-diagonal pairs), so a sample
    tested against itself comes out at most 0, with O(1/n) magnitude.  Each
    block of pair distances is summed _ROW_TILE rows at a time, so only one
    tile of distances is held.
    """
    a, b = _two_samples(a, b)
    sums = []
    for name, x, y in (("a, b", a, b), ("a, a", a, a), ("b, b", b, b)):
        total = 0.0
        for lo in range(0, x.shape[0], _ROW_TILE):
            with np.errstate(over="ignore", invalid="ignore"):
                total += _pair_distances(x[lo : lo + _ROW_TILE], y).sum()
            if not np.isfinite(total):
                hi = min(lo + _ROW_TILE, x.shape[0])
                raise ValueError(f"energy_distance: the ({name}) distance sum of rows "
                                 f"[{lo}:{hi}) is not finite (an overflow)")
        sums.append(total)
    return float(_energy_statistic(*sums, a.shape[0], b.shape[0]))


def energy_permutation_quantile(
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int = 200,
    seed: int = 0,
    q: float = 0.95,
) -> float:
    """Permutation-null quantile of the energy statistic for samples a, b.

    The j-th null labelling puts the first n entries of the j-th
    ``default_rng(seed).permutation(n + m)`` on side A; column j of the
    (n + m) x P 0/1 matrix S marks it. With D the pooled distance matrix and
    r = D 1, a labelling's within-A sum is s'Ds (a column sum of S * DS), its
    cross sum s'r - s'Ds and its within-B sum 1'D1 - 2 s'r + s'Ds. D is
    walked in tiles of _ROW_TILE rows, each giving its rows of r and of
    S * DS, which are added to the running within-A sums in row order and
    dropped. Memory is S and one distance tile, 8 (n + m)(P + _ROW_TILE)
    bytes plus small scratch, rather than 8 (n + m)^2: below the full matrix
    while P < (n + m) - _ROW_TILE, about 2870 at 1500 + 1500.
    """
    a, b = _two_samples(a, b)
    for name, val in (("n_permutations", n_permutations), ("seed", seed)):
        if not _rng.is_integer(val):
            raise ValueError(f"{name} must be an integer, got {val!r}")
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if not (_rng.is_real(q) and 0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    n, m = a.shape[0], b.shape[0]
    pool = np.concatenate([a, b], axis=0)
    gen = np.random.default_rng(seed)
    labels = np.zeros((n + m, n_permutations))
    for j in range(n_permutations):
        labels[gen.permutation(n + m)[:n], j] = 1.0
    row_sums = np.empty(n + m)
    # Row 0 holds the running within-A sums, rows 1.. one tile of S * DS;
    # summing over axis 0 adds the rows in order, as one pass over all n + m would.
    acc = np.zeros((_ROW_TILE + 1, n_permutations))
    for lo in range(0, n + m, _ROW_TILE):
        hi = min(lo + _ROW_TILE, n + m)
        with np.errstate(over="ignore", invalid="ignore"):
            part = _pair_distances(pool[lo:hi], pool)
            row_sums[lo:hi] = part.sum(axis=1)
        # A finite distance is at most sqrt(DBL_MAX), about 1.3e154, so once
        # every row sum is finite no later sum over the pooled rows overflows.
        if not np.all(np.isfinite(row_sums[lo:hi])):
            raise ValueError(f"energy_permutation_quantile: the distance sum of rows "
                             f"[{lo}:{hi}) is not finite (an overflow)")
        tile = acc[1 : hi - lo + 1]
        np.matmul(part, labels, out=tile)
        del part  # freed before the next tile is built
        tile *= labels[lo:hi]
        acc[0] = acc[: hi - lo + 1].sum(axis=0)
    within_a = acc[0]
    a_row_sums = row_sums @ labels
    cross = a_row_sums - within_a
    within_b = row_sums.sum() - 2.0 * a_row_sums + within_a
    stats = _energy_statistic(cross, within_a, within_b, n, m)
    return float(np.quantile(stats, q))


def convergence_slope(dts: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log error against log step size."""
    dts = np.asarray(dts, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if dts.shape != errors.shape or dts.ndim != 1 or dts.shape[0] < 3:
        raise ValueError("need matching 1-d sequences of length >= 3")
    if not (np.all(np.isfinite(dts)) and np.all(np.isfinite(errors))):
        raise ValueError("step sizes and errors must be finite")
    if np.any(dts <= 0) or np.any(errors <= 0):
        raise ValueError("step sizes and errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
