"""Deterministic counter-based random streams for the simulation modules.

Every draw outside metrics is produced by a Philox generator keyed by
(seed, tag, step, chunk).  Paths and batch rows are processed in fixed-size
row chunks, each owning its own key, so results are bit-identical no matter
how many worker threads consume the chunks.  The two exceptions are
metrics.random_projection and metrics.energy_permutation_quantile, which draw
from np.random.default_rng(seed) in one thread: moving them to a keyed stream
would change the bits that the q95 float.hex pins and the random_projection
afd-study pins hold.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Fixed chunk size: must never depend on the thread count, or determinism
# across --threads settings is lost.
CHUNK_ROWS = 4096

_MASK64 = (1 << 64) - 1
_TAG_SHIFT = 48
_STEP_SHIFT = 24
_TAG_LIMIT = 1 << 16
_STEP_LIMIT = 1 << 24
_CHUNK_LIMIT = 1 << 24

# Stream tags.  Values are part of the on-disk determinism contract; do not
# renumber.  Value 2 is retired (it keyed the reverse branch of the forward
# simulator, which no longer exists); no new tag may reuse it.
TAG_FORWARD = 1
TAG_SAMPLER = 3
TAG_BOOT = 4
TAG_START = 5
TAG_TRAIN = 6
TAG_INIT = 7
TAG_TASK = 8
TAG_PROBE = 9


class _PhiloxKey(ISeedSequence):
    """Hands Philox its 128-bit key as the seed state, so a build draws no OS entropy.

    Philox(key=...) first seeds itself from a fresh SeedSequence, which reads
    OS entropy, and only then overrides the key; this seeds it with the key.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.key


def is_integer(val) -> bool:
    """True for a Python or NumPy integer; bools are flags, not counts."""
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def is_real(val) -> bool:
    """True for a Python or NumPy integer or float; bools are flags, not numbers."""
    return isinstance(val, (int, float, np.integer, np.floating)) and not isinstance(val, bool)


def is_finite_real(val) -> bool:
    """True for a real (is_real) that is finite as a float; an int too large for one is not."""
    try:
        return is_real(val) and abs(float(val)) < np.inf
    except OverflowError:
        return False


def stream(seed: int, tag: int, step: int = 0, chunk: int = 0) -> np.random.Generator:
    """Returns a fresh generator for one (seed, tag, step, chunk) cell.

    The Philox key is [seed mod 2**64, tag << 48 | step << 24 | chunk].

    Args:
        seed: experiment seed, any Python int (folded to 64 bits).
        tag: stream tag, one of the TAG_* constants (or any int in [0, 2**16)).
        step: time-step or iteration index, in [0, 2**24).
        chunk: row-chunk index, in [0, 2**24).

    Each must be an integer (Python or NumPy): a float or bool would be cut to
    the key of some other integer.
    """
    for name, val in (("seed", seed), ("tag", tag), ("step", step), ("chunk", chunk)):
        if not is_integer(val):
            raise ValueError(f"stream {name} must be an integer, got {val!r}")
    if not 0 <= tag < _TAG_LIMIT:
        raise ValueError(f"stream tag {tag} outside [0, {_TAG_LIMIT})")
    if not 0 <= step < _STEP_LIMIT:
        raise ValueError(f"step index {step} outside [0, {_STEP_LIMIT})")
    if not 0 <= chunk < _CHUNK_LIMIT:
        raise ValueError(f"chunk index {chunk} outside [0, {_CHUNK_LIMIT})")
    sub = (int(tag) << _TAG_SHIFT) | (int(step) << _STEP_SHIFT) | int(chunk)
    key = np.array([int(seed) & _MASK64, sub], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def chunk_slices(n_rows: int) -> list[tuple[int, slice]]:
    """Splits row indices [0, n_rows) into (chunk_index, slice) pairs."""
    return [
        (c, slice(lo, min(lo + CHUNK_ROWS, n_rows)))
        for c, lo in enumerate(range(0, n_rows, CHUNK_ROWS))
    ]


def run_chunked(n_rows: int, threads: int, work) -> None:
    """Runs work(chunk_index, row_slice) over all chunks.

    The chunk decomposition is identical for every thread count; only the
    execution order differs, and work must write to disjoint row slices.
    """
    tasks = chunk_slices(n_rows)
    if threads <= 1 or len(tasks) == 1:
        for c, sl in tasks:
            work(c, sl)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda cs: work(*cs), tasks))
