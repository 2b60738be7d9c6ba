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
    for name, val in (("d_in", d_in), ("d_out", d_out)):
        if not _rng.is_integer(val) or val < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {val!r}")
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


def _require_matrix(name: str, x: np.ndarray) -> np.ndarray:
    """x itself, if it is 2-d with no empty axis; otherwise a ValueError naming its shape."""
    if x.ndim != 2 or 0 in x.shape:
        raise ValueError(f"{name} must be a 2-d array with no empty axis, got shape {x.shape}")
    return x


def afd(groups: Sequence[np.ndarray], projection: np.ndarray | None = None) -> AFDReport:
    """Mean pairwise feature distance within each group, averaged over groups.

    ``groups`` holds one (L_i, d) array of replicate outputs per conditioning
    input; the features are the rows themselves, or ``g @ projection.T`` for
    a (d_out, d) ``projection``.  Per group with L replicates: sum of
    ||F(y_k) - F(y_l)|| over ordered pairs k != l, divided by L^2 - L.
    Groups of one size share one stacked distance call.
    """
    groups = [_require_matrix(f"groups[{i}]", np.atleast_2d(np.asarray(g, dtype=np.float64)))
              for i, g in enumerate(groups)]
    if not groups:
        raise ValueError("at least one replicate group is required")
    if len({g.shape[1] for g in groups}) != 1:
        raise ValueError("all groups must share one feature dimension")
    for i, g in enumerate(groups):
        if not np.all(np.isfinite(g)):
            raise ValueError(f"groups[{i}] contains non-finite values")
    feats = groups
    if projection is not None:
        projection = _require_matrix("projection",
                                     np.atleast_2d(np.asarray(projection, dtype=np.float64)))
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
    """Both samples as 2-d float arrays, checked for shape, size, finiteness and dimension."""
    a = _require_matrix("a", np.atleast_2d(np.asarray(a, dtype=np.float64)))
    b = _require_matrix("b", np.atleast_2d(np.asarray(b, dtype=np.float64)))
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


# Rows of the pooled sample per distance tile in the energy walk: 3 MB at
# 1500 + 1500 pooled, against 72 MB for the whole (n + m)^2 distance matrix.
# 64 rows halve the tile but made the null about 6% slower at that shape: each
# tile copies every label slice it uses and BLAS packs it, so halving the tile
# doubles those per-slice costs.
_ROW_TILE = 128

# Rows per slice of the labels in the null's two label products: the tile
# product over the upper triangle and the labelled row sums.  A hypothesis,
# checked on one OpenBLAS build (0.3.31, SkylakeX kernels) only: one thread and
# several block the contraction axis differently, and a slice no wider than
# OpenBLAS's block of that axis is summed in the same order at any thread
# count.  At seeds 0-9 of the gate shape, q95 kept its bits at 1, 2 and 4
# threads with 256-row slices; 2 seeds moved with 512 or 1024 rows and 4 with
# the whole axis.
_K_SLICE = 256


def _label_slices(labels: np.ndarray, start: int, buf: np.ndarray):
    """(k, S[k : k + _K_SLICE] as float64) from row ``start`` on, in order.

    Each slice of the 0/1 ``labels`` is copied into the one reused C-ordered
    float64 ``buf`` just before it is used, so only one slice is ever held
    as float64.
    """
    for k in range(start, labels.shape[0], _K_SLICE):
        out = buf[: min(_K_SLICE, labels.shape[0] - k)]
        np.copyto(out, labels[k : k + _K_SLICE])
        yield k, out


def _energy_walk(a: np.ndarray, b: np.ndarray, labels: np.ndarray, caller: str):
    """The observed energy statistic of a, b and one statistic per labelling.

    Column j of the (n + m) x P uint8 0/1 matrix ``labels`` (S; P may be 0)
    marks the rows of the pool [a; b] on labelling j's side A.  With D the
    pooled distance matrix, D is walked once, in tiles of _ROW_TILE rows.
    Each tile gives its rows of r = D 1 and r_A = D[:, :n] 1 from all its
    columns.  The observed within-A sum is r_A summed over the A rows, the
    cross sum r - r_A over the A rows and the within-B sum r - r_A over the
    B rows.
    A labelling's within-A sum is s'Ds.  D is symmetric with a zero diagonal,
    so s'Ds is twice the sum of s_i D_ik s_k over i < k.  Each tile halves its
    diagonal block and multiplies only its columns from its first row on (the
    upper triangle) by S, in _K_SLICE-row slices of S added in order; its rows
    of S * (that product) are added to the running half sums in row order and
    dropped.  The labelled row sums s'r are the in-order sum of r's products
    with S's _K_SLICE-row slices from row 0.  A labelling's cross sum is then
    s'r - s'Ds and its within-B sum 1'D1 - 2 s'r + s'Ds.  S is held as bytes
    and each slice is made float64 only for its product (_label_slices).
    Memory is S, one distance tile, one float64 label slice, one slice
    product and the running sums: (n + m) P + 8 _ROW_TILE (n + m)
    + 8 (_K_SLICE + 2 _ROW_TILE + 1) P bytes plus small scratch.  That is
    below the full 8 (n + m)^2 while P < 8 (n + m)(n + m - _ROW_TILE) /
    (n + m + 8 (_K_SLICE + 2 _ROW_TILE + 1)), about 9700 at 1500 + 1500.
    Overflow raises a ValueError naming ``caller`` and the rows.
    """
    n, m = a.shape[0], b.shape[0]
    pool = np.concatenate([a, b], axis=0)
    row_sums = np.empty(n + m)
    row_sums_a = np.empty(n + m)
    # Row 0 holds the running half within-A sums, rows 1.. one tile of the
    # upper-triangle product; summing over axis 0 adds the rows in order.
    acc = np.zeros((_ROW_TILE + 1, labels.shape[1]))
    sliced = np.empty((_ROW_TILE, labels.shape[1]))
    label_buf = np.empty((min(_K_SLICE, n + m), labels.shape[1]))
    for lo in range(0, n + m, _ROW_TILE):
        hi = min(lo + _ROW_TILE, n + m)
        with np.errstate(over="ignore", invalid="ignore"):
            part = _pair_distances(pool[lo:hi], pool)
            row_sums[lo:hi] = part.sum(axis=1)
        # A finite distance is at most sqrt(DBL_MAX), about 1.3e154, so once
        # every row sum is finite no later sum over the pooled rows overflows.
        if not np.all(np.isfinite(row_sums[lo:hi])):
            raise ValueError(f"{caller}: the distance sum of rows [{lo}:{hi}) "
                             "is not finite (an overflow)")
        row_sums_a[lo:hi] = part[:, :n].sum(axis=1)
        if labels.shape[1]:  # with no labellings (energy_distance) the product is empty
            part[:, lo:hi] *= 0.5  # exact; the diagonal block counts each pair twice
            tile, out = acc[1 : hi - lo + 1], sliced[: hi - lo]
            tile.fill(0.0)
            for k, s in _label_slices(labels, lo, label_buf):
                np.matmul(part[:, k : k + _K_SLICE], s, out=out)
                tile += out
            tile *= labels[lo:hi]
            acc[0] = acc[: hi - lo + 1].sum(axis=0)
        del part  # freed before the next tile is built
    row_sums_b = row_sums - row_sums_a
    observed = _energy_statistic(row_sums_b[:n].sum(), row_sums_a[:n].sum(),
                                 row_sums_b[n:].sum(), n, m)
    within_a = 2.0 * acc[0]
    labelled_sums = np.zeros(labels.shape[1])
    for k, s in _label_slices(labels, 0, label_buf):
        labelled_sums += row_sums[k : k + _K_SLICE] @ s
    null = _energy_statistic(labelled_sums - within_a, within_a,
                             row_sums.sum() - 2.0 * labelled_sums + within_a, n, m)
    return float(observed), null


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample energy statistic 2 E||A-B|| - E||A-A'|| - E||B-B'||.

    Within-sample means are U-statistics (off-diagonal pairs), so a sample
    tested against itself comes out at most 0, with O(1/n) magnitude.  The
    sums come from the row sums of one tiled walk over the pooled distance
    matrix with no labellings, so only one tile of distances is held.
    """
    a, b = _two_samples(a, b)
    labels = np.empty((a.shape[0] + b.shape[0], 0), dtype=np.uint8)
    return _energy_walk(a, b, labels, "energy_distance")[0]


def _energy_test(a, b, n_permutations, seed, q, caller: str) -> tuple[float, float]:
    """energy_test, with overflow errors naming ``caller``."""
    a, b = _two_samples(a, b)
    for name, val in (("n_permutations", n_permutations), ("seed", seed)):
        if not _rng.is_integer(val):
            raise ValueError(f"{name} must be an integer, got {val!r}")
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if not (_rng.is_real(q) and 0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    n, m = a.shape[0], b.shape[0]
    gen = np.random.default_rng(seed)
    labels = np.zeros((n + m, n_permutations), dtype=np.uint8)
    for j in range(n_permutations):
        labels[gen.permutation(n + m)[:n], j] = 1
    observed, null = _energy_walk(a, b, labels, caller)
    return observed, float(np.quantile(null, q))


def energy_test(
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int = 200,
    seed: int = 0,
    q: float = 0.95,
) -> tuple[float, float]:
    """The energy statistic of a, b and the q-quantile of its permutation null.

    Returns (energy_distance(a, b), energy_permutation_quantile(a, b, ...))
    bit for bit, from one walk over the pooled distances (_energy_walk).
    The j-th null labelling puts the first n entries of the j-th
    ``default_rng(seed).permutation(n + m)`` on side A.
    """
    return _energy_test(a, b, n_permutations, seed, q, "energy_test")


def energy_permutation_quantile(
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int = 200,
    seed: int = 0,
    q: float = 0.95,
) -> float:
    """Permutation-null quantile of the energy statistic: energy_test's second value."""
    return _energy_test(a, b, n_permutations, seed, q, "energy_permutation_quantile")[1]


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
