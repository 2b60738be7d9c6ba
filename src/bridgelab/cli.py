"""Experiment runner: config parsing, named runs, deterministic artifacts.

After the computation finishes, each artifact is encoded while it is written
to a temp file, a block at a time, so no encoded copy of a table is held.
The manifest is encoded last, and only when every temp file is complete are
they renamed into place; a run that fails before that leaves no file behind.
Numeric CSV fields use 17 significant digits so reruns are byte-comparable.
Exit codes: 0 success, 1 config/validation or output error, 2
numerical-property failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from . import rng as _rng
from .denoiser import (
    AnalyticDenoiser,
    GmmCoupling,
    JointGaussian,
    MlpHyper,
    Preconditioner,
    denoiser_to_bytes,
    load_denoiser,
    sample_condition,
    sample_pair,
    test_mse_vs_analytic,
    train_mlp_denoiser,
)
from .dynamics import estimate_marginal_moments, simulate_ensemble
from .metrics import afd, convergence_slope, random_projection
from .sampler import (
    VARIANTS,
    SamplerConfig,
    apply_step,
    sample,
    step_coefficients,
)
from .schedule import (
    EPSILON_KINDS,
    T_HORIZON,
    EpsilonPolicy,
    Schedule,
    TimeGrid,
    _probe_states,
    bridge_coefficients,
    epsilon,
    eval_schedule,
    make_time_grid,
    verify_reformulation,
)

class ConfigError(Exception):
    """Schema or validation problem, reported with the offending field path."""


# ---------------------------------------------------------------------------
# Config specs and the one reader
#
# A spec maps each key of a section to (type, default, bound).  The default
# _REQUIRED makes the key required, and None leaves an absent key out, so the
# library's own default applies.  The bound is the minimum of an integer, the
# choices of a string or the rank of an array.  A type that is itself a spec
# reads a nested section.  An entry that is itself a dict (at most one per
# section, such as "kind") is the section's discriminator: a required string
# whose value picks, from that dict, the spec of the keys it adds.

_REQUIRED = object()
_NUMBER = ("number", None, None)
_COUNT = ("integer", _REQUIRED, 1)
_VECTOR, _MATRIX = ("array", _REQUIRED, 1), ("array", _REQUIRED, 2)
_JOINT = {"mean0": _VECTOR, "meanT": _VECTOR, "cov00": _MATRIX, "covTT": _MATRIX, "cov0T": _MATRIX}
_SCHEDULE_KEYS = {
    "linear": {"gamma_max": _NUMBER, "gamma_multiplier": _NUMBER},
    "trig": {"gamma_scale": _NUMBER},
    "ddbm_ve": {},
    "ddbm_vp": {"beta_d": _NUMBER, "beta_min": _NUMBER},
    "i2sb": {"i2sb_breakpoints": ("array", None, 1), "i2sb_values": ("array", None, 1)},
    "edm": {},
}
# reformulation-check family -> the schedule kind it is checked on
_FAMILIES = {"ve": "ddbm_ve", "vp": "ddbm_vp", "edm": "edm", "i2sb": "i2sb"}

_SPECS = {
    "schedule": {"kind": _SCHEDULE_KEYS},
    "grid": {"n_steps": _COUNT, "t_min": _NUMBER, "t_max": _NUMBER, "rho": _NUMBER},
    "eps_policy": {
        "kind": ("string", _REQUIRED, EPSILON_KINDS), "eta": _NUMBER, "const_value": _NUMBER,
        "scale_by_gamma_sq": ("boolean", None, None), "tail_zero_steps": ("integer", None, 0),
    },
    "task": {"kind": {
        "joint_gaussian": _JOINT,
        "gmm_coupling": {"weights": _VECTOR, "components": ("list", _REQUIRED, None)},
    }},
    "denoiser": {"kind": {"analytic": {}, "mlp": {"path": ("string", _REQUIRED, None)}}},
    "sampler": {
        "variant": ("string", None, VARIANTS), "boot_b": _NUMBER,
        "record_trajectory": ("boolean", None, None),
    },
    "forward": {
        "x0": _VECTOR, "xT": _VECTOR, "n_paths": ("integer", _REQUIRED, 2),
        "record": ("boolean", True, None),
    },
    "sample": {"n_conditions": _COUNT, "n_replicates": ("integer", 1, 1)},
    "train": {
        "layers": ("integer", None, 1), "width": ("integer", None, 1), "lr": _NUMBER,
        "batch": ("integer", None, 1), "iters": ("integer", None, 1),
        "t_min": _NUMBER, "t_max": _NUMBER,
    },
    "prec": {
        "estimate_from": ("integer", None, 2),
        "sigma0": _NUMBER, "sigmaT": _NUMBER, "sigma0T": _NUMBER,
    },
    "afd": {
        "boot_values": _VECTOR, "n_conditions": _COUNT, "n_replicates": ("integer", _REQUIRED, 2),
        "feature": ({"kind": {
            "identity": {},
            "random_projection": {"d_out": _COUNT, "seed": ("integer", 0, 0)},
        }}, None, None),
    },
    "convergence": {
        "t": ("number", 0.5, None), "dts": _VECTOR, "eta": ("number", 0.3, None),
        "d": ("integer", 2, 1), "n_probes": ("integer", 32, 1),
        "pairs": ("list", (("euler_z", "gamma_simplified"), ("gamma_simplified", "dbim")), None),
        "slope_range": ("array or null", (1.8, 2.2), 1),
    },
    "reformulation": {
        "family": {family: _SCHEDULE_KEYS[kind] for family, kind in _FAMILIES.items()},
        "threshold": ("number", 1e-8, None),
        "t_lo": ("number", 0.1, None), "t_hi": ("number", 0.9, None),
        "n_points": ("integer", 25, 2), "n_probes": ("integer", 32, 1),
    },
}

# type -> (the Python types it takes, what an error says it expected)
_TYPES = {
    "number": ((int, float), "a number"),
    "integer": (int, "an integer"),
    "string": (str, "a string"),
    "boolean": (bool, "true/false"),
    "list": (list, "a list"),
}


def _read(parent: dict, key, spec: dict, path: str | None = None, required: bool = True):
    """The validated values of the section parent[key], or None if it is absent and optional.

    Unknown keys are rejected; every error names path (default: key) and the key.
    """
    path = str(key) if path is None else path
    if key not in parent:
        if required:
            raise ConfigError(f"{path}: required section is missing")
        return None
    section = parent[key]
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, got {type(section).__name__}")
    for name, entry in spec.items():
        if isinstance(entry, dict):  # the discriminator
            choice = ("string", _REQUIRED, tuple(entry))
            spec = {**spec, name: choice, **entry[_value(section, name, choice, path)]}
    unknown = sorted(set(section) - set(spec))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(spec)}")
    vals = {name: _value(section, name, entry, path) for name, entry in spec.items()}
    return {name: val for name, val in vals.items() if val is not None}


def _value(section: dict, key: str, entry: tuple, path: str):
    typ, default, bound = entry
    where = f"{path}.{key}"
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: required value is missing")
        return default
    val = section[key]
    if isinstance(typ, dict):
        return _read(section, key, typ, where)
    if typ.startswith("array"):
        if val is None and typ == "array or null":
            return None
        leaves = _build(where, np.asarray, val, dtype=object).flat
        # only numbers: a float64 np.asarray would also take "0.35", true and false
        if not all(type(x) in (int, float) for x in leaves):
            raise ConfigError(f"{where}: expected an array of numbers, got {val!r}")
        arr = _build(where, np.asarray, val, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{where}: contains non-finite values")
        if arr.ndim != bound:
            raise ConfigError(f"{where}: expected a {bound}-d array, got {arr.ndim}-d")
        return arr
    types, expected = _TYPES[typ]
    # bool is an int subclass; only boolean keys take true/false
    if isinstance(val, bool) != (typ == "boolean") or not isinstance(val, types):
        raise ConfigError(f"{where}: expected {expected}, got {val!r}")
    if typ == "number":
        num = _build(where, float, val)
        if not math.isfinite(num):
            raise ConfigError(f"{where}: expected a finite number, got {val!r}")
        return num
    if bound is not None and typ == "string" and val not in bound:
        raise ConfigError(f"{where}: {val!r} is not one of {bound}")
    if bound is not None and typ == "integer" and val < bound:
        raise ConfigError(f"{where}: expected an integer >= {bound}, got {val}")
    return val


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the error a bad value or file raises in it reported at path.

    LinAlgError is a ValueError; TypeError and OverflowError come from numbers and arrays
    that cannot be converted, OSError from a file that cannot be read.
    """
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, OverflowError, OSError) as err:
        raise ConfigError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# Section parsers.  Each command has a parser that reads and builds
# everything the run needs, so a bad config fails before any computation.


def _parse_schedule(cfg: dict) -> Schedule:
    return _build("schedule", Schedule, **_read(cfg, "schedule", _SPECS["schedule"]))


def _parse_grid(cfg: dict) -> TimeGrid:
    vals = _read(cfg, "grid", _SPECS["grid"])
    return _build("grid", make_time_grid, vals.pop("n_steps"), **vals)


def _parse_task(cfg: dict):
    vals = _read(cfg, "task", _SPECS["task"])
    if vals.pop("kind") == "joint_gaussian":
        return _build("task", JointGaussian, **vals)
    comps = dict(enumerate(vals["components"]))
    paths = {i: f"task.components[{i}]" for i in comps}
    parts = [_build(paths[i], JointGaussian, **_read(comps, i, _JOINT, paths[i])) for i in comps]
    return _build("task", GmmCoupling, vals["weights"], parts)


def _parse_denoiser(cfg: dict, task, sched: Schedule):
    vals = _read(cfg, "denoiser", _SPECS["denoiser"])
    if vals["kind"] == "analytic":
        return AnalyticDenoiser(task, sched)
    den = _build("denoiser.path", load_denoiser, vals["path"])
    if den.d != task.d:
        raise ConfigError(f"denoiser.path: the model is {den.d}-d, the task {task.d}-d")
    if den.sched != sched:
        differ = [f.name for f in dataclasses.fields(Schedule)
                  if getattr(den.sched, f.name) != getattr(sched, f.name)]
        raise ConfigError(f"denoiser.path: the model was trained on a {den.sched.kind} schedule "
                          f"and the run uses a {sched.kind} schedule; they differ in {differ}")
    return den


def _parse_sampling(cfg: dict, seed: int):
    """Task, denoiser and sampler config of sample and afd-study."""
    sched, grid = _parse_schedule(cfg), _parse_grid(cfg)
    eps = _build("eps_policy", EpsilonPolicy, **_read(cfg, "eps_policy", _SPECS["eps_policy"]))
    task = _parse_task(cfg)
    den = _parse_denoiser(cfg, task, sched)
    sampler = _read(cfg, "sampler", _SPECS["sampler"])
    return task, den, _build("sampler", SamplerConfig, sched, eps, grid, seed=seed, **sampler)


# ---------------------------------------------------------------------------
# Artifact encoding


_BLOCK_ROWS = 4096
# Below this many rows a table takes the template: the array path's fixed cost, about
# 0.1 ms per float column, is more than the template's 0.4 us per float.
_ARRAY_MIN_ROWS = 256
# "%.17g" prints |v| in [_FIXED_LO, _FIXED_HI) in fixed notation; those floats are encoded
# by array arithmetic, every other float by the template itself.
_FIXED_LO, _FIXED_HI = 1e-4, 1e17
_NONZERO_BIT = 0x7F7F7F7F7F7F7F7F  # added to raw digit bytes, sets bit 7 of each nonzero one
_BIT7 = 0x8080808080808080
_FLOAT_TEXT = 24  # bytes in a float's slot: the longest "%.17g", "-1.2345678901234567e-308"
_CELL = np.dtype((np.void, _FLOAT_TEXT))  # a float's slot, copied as one item


def _split(x):
    """Dekker's split of float64 x into two halves of at most 26 significant bits."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


# 10^(16 - E) for E = -4..16 (exact), then its two halves.
_POW10 = np.array([float(10**k) for k in range(20, -1, -1)])
_POW10 = np.stack([_POW10, *_split(_POW10)])


def _fixed_layouts() -> np.ndarray:
    """Where a fixed-notation cell's 17 digits go, per (E + 4) * 17 + nd - 1.

    G is the 17 digits as raw bytes 0-9, first digit in byte 0; nd counts them up to the
    last nonzero one.  The text starts at byte 1 (byte 0 holds the sign):
    E >= 0 prints the first E + 1 digits, then "." and the rest if nd > E + 1;
    E < 0 prints "0.", -E - 1 zeros, then nd digits.
    Rows: two words of the mask of G that keeps its place, the shift s of the rest of G,
    and three words of constant bytes: "0." prefixes, the ".", and 0x30 on each printed digit.
    """
    keep = np.zeros((21, 17, 16), np.uint8)
    const = np.zeros((21, 17, 24), np.uint8)
    shift = np.zeros((21, 17, 1), np.uint64)
    for e in range(-4, 17):
        for nd in range(1, 18):
            i, j, k = e + 4, nd - 1, e + 1
            if e < 0:
                const[i, j, 1 : 2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
                const[i, j, 2 - e : 2 - e + nd] = 0x30
                shift[i, j] = 8 * (2 - e)
            elif nd > k:
                keep[i, j, :k] = 0xFF
                const[i, j, 1 : k + 1] = 0x30
                const[i, j, k + 1] = ord(".")
                const[i, j, k + 2 : nd + 2] = 0x30
                shift[i, j] = 16
            else:
                keep[i, j] = 0xFF  # G's 17th byte is in the third word, which moves 8 bits
                const[i, j, 1 : k + 1] = 0x30
                shift[i, j] = 8
    rows = np.concatenate([keep.view(np.uint64), shift, const.view(np.uint64)], axis=2)
    return np.ascontiguousarray(rows.reshape(-1, 6).T)


_LAYOUTS = _fixed_layouts()


def _digits8(x: np.ndarray) -> np.ndarray:
    """uint64 values below 10^8 -> their 8 decimal digits as raw bytes, first digit lowest.

    SWAR: the 4-digit halves go to the two 32-bit lanes, then each lane's 2-digit halves to
    16-bit lanes, then digits to bytes; x // 100 and x // 10 are multiply-and-shift, exact
    below 10^4 and 10^2.
    """
    t = x // 10000
    w = x << 32
    t *= 10000 * 2**32 - 1  # w - t * (10^4 * 2^32 - 1) = t | (x - 10^4 t) << 32
    w -= t
    t = w * 10486
    t >>= 20
    t &= 0x0000007F0000007F
    w <<= 16
    t *= 100 * 2**16 - 1
    w -= t
    t = w * 103
    t >>= 10
    t &= 0x000F000F000F000F
    w <<= 8
    t *= 10 * 2**8 - 1
    w -= t
    return w


def _significand(x: np.ndarray):
    """x -> (E + 4, the 17 significant digits d as one uint64, whether the cell is exact).

    E = floor(log10 |v|), and |v| 10^(16 - E) is formed exactly as hi + lo: 10^k is exact
    for k <= 20, and Dekker's splits make the four partial products exact without an FMA.
    The product is at least 2^53, so hi is an even integer and |lo| <= 8; d = hi + rint(lo)
    is then the product rounded half to even.  No double in [1e-4, 1e17) lies within half a
    unit of the 17th digit below a power of ten, so d stays below 10^17, and if log10 put E
    one too high, d stays below 10^16: d outside [10^16, 10^17) means E is off, and that
    cell, like every value outside [1e-4, 1e17) or not finite, is not exact.
    """
    a = np.abs(x)
    fast = (a >= _FIXED_LO) & (a < _FIXED_HI)
    a = np.where(fast, a, 1.0)
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    np.minimum(e, 16, out=e)
    np.maximum(e, -4, out=e)
    e += 4
    p, p_hi, p_lo = _POW10.take(e, axis=1)
    hi = a * p
    a_hi, a_lo = _split(a)
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    d = hi.astype(np.uint64)
    d += np.rint(lo).astype(np.int64).view(np.uint64)
    ok = d - 10**16 < 9 * 10**16  # 10^16 <= d < 10^17
    ok &= fast
    return e, d, ok


def _put_floats(x: np.ndarray, dst: np.ndarray) -> None:
    """Writes each value's "%.17g" text, NUL-padded, into the rows of dst, (n, 24) uint8.

    The digits of the exact cells are placed by a layout table; every other cell is
    formatted by the template itself.
    """
    e, d, ok = _significand(x)
    g = np.empty((2, len(x)), np.uint64)
    np.floor_divide(d, 10**9, out=g[0])
    d -= g[0] * 10**9
    np.floor_divide(d, 10, out=g[1])
    d -= g[1] * 10  # the 17th digit
    g = _digits8(g)
    # nd from the highest nonzero digit byte: the float exponent of its bit 7 is 1030 + 8j.
    top = g + _NONZERO_BIT
    top &= _BIT7
    top = top.astype(np.float64).view(np.int64)
    top -= 1030 << 52
    top >>= 55
    top[0] += 1
    top[1] += 9
    nd = np.where(d != 0, 17, np.maximum(top[0], top[1]))

    # mode="clip": a cell left to the template may index past the table.  Two gathers of
    # three rows each keep every temporary at 3 words per cell.
    layout = e * 17 + nd - 1
    keep0, keep1, s = _LAYOUTS[:3].take(layout, axis=1, mode="clip")
    words = _LAYOUTS[3:].take(layout, axis=1, mode="clip")
    kept0, kept1 = g[0] & keep0, g[1] & keep1
    g[0] ^= kept0
    g[1] ^= kept1
    r = 64 - s
    text = np.empty((len(x), 3), np.uint64)  # each row one cell, so one copy moves it
    words[0] |= kept0 << 8
    words[0] |= g[0] << s
    np.bitwise_or(words[0], np.signbit(x).view(np.uint8) * np.uint8(ord("-")), out=text[:, 0])
    words[1] |= kept1 << 8
    words[1] |= kept0 >> 56
    words[1] |= g[1] << s
    np.bitwise_or(words[1], g[0] >> r, out=text[:, 1])
    words[2] |= kept1 >> 56
    words[2] |= d << s
    np.bitwise_or(words[2], g[1] >> r, out=text[:, 2])
    dst.view(_CELL)[:] = text.view(_CELL)
    if not ok.all():
        slow = ~ok
        texts = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{_FLOAT_TEXT}")
        dst[slow] = texts.view(np.uint8).reshape(-1, _FLOAT_TEXT)


def _put_ints(v: np.ndarray, dst: np.ndarray) -> None:
    """Writes each integer's "%s" text, NUL-padded, into the rows of dst, (n, 1 + 8k) uint8:
    the sign in byte 0, then the digits, right-aligned, with no leading zeros."""
    k = (dst.shape[1] - 1) // 8
    dst[:, 0] = (v < 0).view(np.uint8) * np.uint8(ord("-"))
    rest = np.abs(v).view(np.uint64)  # np.abs(int64 min) wraps to itself, 2^63 as uint64
    limbs = np.empty((k, len(v)), np.uint64)
    for j in range(k - 1, 0, -1):
        q = rest // 10**8
        np.subtract(rest, q * 10**8, out=limbs[j])
        rest = q
    limbs[0] = rest
    g = _digits8(limbs)
    nonzero = g + _NONZERO_BIT
    nonzero &= _BIT7
    printed = nonzero << 8  # every byte from the first nonzero digit on
    printed |= nonzero
    printed |= printed << 16
    printed |= printed << 32
    for j in range(1, k):
        printed[j][np.any(nonzero[:j], axis=0)] = _BIT7
    printed[k - 1] |= 0x80 << 56  # the last digit prints even for 0
    printed >>= 7
    g |= printed * 0x30
    dst[:, 1:].view(np.uint64)[:] = g.T


def _template_blocks(columns: list[np.ndarray]):
    """The rows of the template, "%.17g" for floats and "%s" for the rest, a block at a time."""
    template = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    k = len(columns)
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[lo : lo + _BLOCK_ROWS].tolist() for col in columns]
        cells = [None] * (k * len(block[0]))  # the block's values in row order
        for j, values in enumerate(block):
            cells[j::k] = values
        yield (template * len(block[0]) % tuple(cells)).encode()


def _csv_blocks(header: list[str], columns):
    """CSV of equal-length columns: floats to 17 significant digits, integers and labels as is.

    Yields the encoded header, then the encoded rows a block at a time, so neither a text
    nor a byte copy of the table is held.  The bytes are those of the template.  A numeric
    table of _ARRAY_MIN_ROWS rows or more has each block's cells written NUL-padded into
    fixed slots of one row buffer, each followed by its "," or newline, and the NULs dropped.
    """
    columns = [np.asarray(col) for col in columns]
    yield (",".join(header) + "\n").encode()
    n = len(columns[0])
    if n < _ARRAY_MIN_ROWS or any(col.dtype.kind not in "fiu" for col in columns):
        yield from _template_blocks(columns)
        return
    fields = []  # (writer, column, slot width)
    for col in columns:
        if col.dtype.kind == "f":
            fields.append((_put_floats, col.astype(np.float64, copy=False), _FLOAT_TEXT))
        else:
            col = col.astype(np.int64 if col.dtype.kind == "i" else np.uint64, copy=False)
            digits = len(str(max(-int(col.min()), int(col.max()))))
            fields.append((_put_ints, col, 1 + 8 * -(-digits // 8)))
    rows = min(n, _BLOCK_ROWS)
    starts = np.cumsum([0] + [width + 1 for _, _, width in fields])
    row_buffer = bytearray(rows * int(starts[-1]))
    buf = np.frombuffer(row_buffer, np.uint8).reshape(rows, -1)
    buf[:, starts[1:] - 1] = np.frombuffer(b"," * (len(fields) - 1) + b"\n", np.uint8)
    for lo in range(0, n, _BLOCK_ROWS):
        m = min(n - lo, rows)
        buf[m:] = 0  # the last block's unused rows print nothing
        for (put, col, width), start in zip(fields, starts):
            put(col[lo : lo + m], buf[:m, start : start + width])
        yield row_buffer.translate(None, b"\0")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return None if math.isnan(val) else val
    return obj


def _json_bytes(obj) -> bytes:
    return (json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n").encode()


def _write_artifacts(out_dir: str, artifacts: dict) -> None:
    """Writes each artifact, bytes or an iterable of bytes-like blocks, into out_dir.

    Artifacts are written in order, each to a temp file as its blocks are produced, and
    renamed into place only once every temp file is complete.  If anything raises before
    then, every temp file is unlinked and no artifact of the run is renamed into place.
    """
    os.makedirs(out_dir, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    written = []  # (temp file, artifact path)
    try:
        for name, data in artifacts.items():
            path = os.path.join(out_dir, name)
            if os.path.isdir(path):  # os.replace would fail only after earlier renames
                raise IsADirectoryError(f"{path} is a directory")
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
            written.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                for block in [data] if isinstance(data, bytes) else data:
                    fh.write(block)
            # mkstemp creates the file 0600; give it the mode open() would have.
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            if os.path.exists(tmp):  # not yet renamed
                os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Commands.  Each is a parser, which takes (cfg, seed) and returns a tuple,
# and a runner, which takes (*that tuple, seed, threads) and returns
# (artifacts, failures); failures non-empty means exit code 2.


def _parse_verify_schedule(cfg: dict, seed: int):
    return _parse_schedule(cfg), _parse_grid(cfg)


def _run_verify_schedule(sched, grid, seed: int, threads: int):
    ts = np.array(grid.points[::-1])
    ev = eval_schedule(sched, ts)
    failures = []
    try:
        co = bridge_coefficients(sched, ts)
        min_g_sq = float(np.min(co.g_sq))
    except ValueError as err:
        failures.append(f"bridge_coefficients on the grid: {err}")
        co, min_g_sq = (np.full_like(ts, math.nan),) * 3, math.nan

    ends = eval_schedule(sched, np.array([0.0, T_HORIZON]))
    endpoint_dev = float(np.max(np.abs([ends.alpha - (1, 0), ends.beta - (0, 1), ends.gamma])))
    if endpoint_dev > 1e-9:
        failures.append(f"endpoint pinning deviates by {endpoint_dev}")

    # Central differences, one-sided at the ends of [0, T], against every finite derivative.
    h = 1e-6
    lo, hi = np.maximum(ts - h, 0.0), np.minimum(ts + h, T_HORIZON)
    ev_hi, ev_lo = eval_schedule(sched, hi), eval_schedule(sched, lo)
    num = (np.array(ev_hi[:3]) - np.array(ev_lo[:3])) / (hi - lo)
    ana = np.array(ev[3:6])
    ok = np.isfinite(ana)
    if sched.kind == "i2sb":
        ok &= np.min(np.abs(ts[:, None] - np.array(sched.i2sb_breakpoints)), axis=1) > 1e-3
    num, ana = num[ok], ana[ok]
    deriv_dev = float(np.max(np.abs(num - ana) / np.maximum(1.0, np.abs(ana)), initial=0.0))
    if deriv_dev > 1e-4:
        failures.append(f"analytic derivatives deviate from central differences by {deriv_dev}")

    min_gamma = float(np.min(ev.gamma))
    if min_gamma <= 0:
        failures.append(f"gamma is not positive on the grid (min {min_gamma})")

    artifacts = {
        "schedule.csv": _csv_blocks(
            ["t", "alpha", "beta", "gamma", "d_alpha", "d_beta", "d_gamma", "f", "s", "g_sq"],
            [ts, *ev[:6], *co],
        ),
        "verify.json": _json_bytes(
            {
                "schedule_kind": sched.kind,
                "endpoint_deviation": endpoint_dev,
                "derivative_deviation": deriv_dev,
                "min_gamma": min_gamma,
                "min_g_sq": min_g_sq,
                "passed": not failures,
                "failures": failures,
            }
        ),
    }
    return artifacts, failures


def _parse_simulate_forward(cfg: dict, seed: int):
    sched, grid = _parse_schedule(cfg), _parse_grid(cfg)
    fwd = _read(cfg, "forward", _SPECS["forward"])
    if fwd["x0"].shape != fwd["xT"].shape:
        raise ConfigError("forward.x0/forward.xT: expected matching 1-d vectors")
    return sched, grid, fwd


def _run_simulate_forward(sched, grid, fwd, seed: int, threads: int):
    x0, record = fwd["x0"], fwd["record"]
    ens = simulate_ensemble(
        sched, x0, fwd["xT"], grid, fwd["n_paths"], seed, threads=threads, record=record
    )
    mom = estimate_marginal_moments(ens, -1)
    artifacts = {
        "moments.json": _json_bytes(
            {
                "t": float(ens.times[-1]),
                "mean": mom.mean,
                "cov": mom.cov,
                "n": mom.n,
                "se_mean": mom.se_mean,
            }
        )
    }
    if record:
        # path-major, then time
        n, m, d = ens.paths.shape
        artifacts["forward.csv"] = _csv_blocks(
            ["path_id", "time"] + [f"x_{j}" for j in range(d)],
            [np.repeat(np.arange(n), m), np.tile(ens.times, n), *ens.paths.reshape(n * m, d).T],
        )
        artifacts["forward.traj"] = ens.binary_parts()
    return artifacts, []


def _parse_sample(cfg: dict, seed: int):
    return (*_parse_sampling(cfg, seed), _read(cfg, "sample", _SPECS["sample"]))


def _run_sample(task, den, sampler_cfg, vals, seed: int, threads: int):
    n_conditions, n_replicates = vals["n_conditions"], vals["n_replicates"]
    conds = sample_condition(task, n_conditions, _rng.stream(seed, _rng.TAG_TASK))
    xT_batch = np.repeat(conds, n_replicates, axis=0)
    result = sample(sampler_cfg, den, xT_batch, threads=threads)
    d = xT_batch.shape[1]
    x0 = result.x0_batch
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x0.mean(axis=0)
        cov = np.cov(x0.T) if x0.shape[0] > 1 else np.zeros((d, d))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise ValueError(f"the mean or covariance of the {x0.shape[0]} sample rows is not finite "
                         "(an overflow)")
    artifacts = {
        # each condition's replicates in consecutive rows
        "sample.csv": _csv_blocks(
            ["row_id", "replicate_id"] + [f"x_{j}" for j in range(d)],
            [*np.divmod(np.arange(x0.shape[0]), n_replicates), *x0.T],
        ),
        "moments.json": _json_bytes({"mean": mean, "cov": cov, "n": x0.shape[0]}),
        "diagnostics.json": _json_bytes(
            {"eps_used": result.eps_used, "x0hat_change": result.x0hat_change}
        ),
    }
    if result.trajectories is not None:
        artifacts["sample.traj"] = result.trajectories.binary_parts()
    return artifacts, []


def _parse_train_denoiser(cfg: dict, seed: int):
    sched, task = _parse_schedule(cfg), _parse_task(cfg)
    hyper = _build("train", MlpHyper, seed=seed, **_read(cfg, "train", _SPECS["train"]))
    prec = _read(cfg, "prec", _SPECS["prec"], required=False) or {}
    n_est = prec.pop("estimate_from", None)
    if n_est is None:
        return sched, task, hyper, _build("prec", Preconditioner, **prec)
    if prec:
        raise ConfigError(f"prec: estimate_from excludes {sorted(prec)}")
    gen = _rng.stream(seed, _rng.TAG_TASK)
    return sched, task, hyper, _build(
        "prec", lambda: Preconditioner.from_pairs(*sample_pair(task, n_est, gen))
    )


def _run_train_denoiser(sched, task, hyper, prec, seed: int, threads: int):
    den, running = train_mlp_denoiser(task, sched, prec, hyper)
    test_mse = test_mse_vs_analytic(den, task, seed=seed, t_min=hyper.t_min, t_max=hyper.t_max)
    artifacts = {
        "model.bin": denoiser_to_bytes(den),
        "train.json": _json_bytes(
            {
                "final_running_loss": running,
                "test_mse_vs_analytic": test_mse,
                "prec": {"sigma0": prec.sigma0, "sigmaT": prec.sigmaT, "sigma0T": prec.sigma0T},
                "iters": hyper.iters,
            }
        ),
    }
    return artifacts, []


def _parse_afd_study(cfg: dict, seed: int):
    task, den, base_cfg = _parse_sampling(cfg, seed)
    vals = _read(cfg, "afd", _SPECS["afd"])
    if vals["boot_values"].size < 1 or np.any(vals["boot_values"] < 0):
        raise ConfigError("afd.boot_values: expected a non-empty list of values >= 0")
    feature = vals.get("feature", {"kind": "identity"})
    vals["projection"] = (
        random_projection(task.d, feature["d_out"], feature["seed"])
        if feature["kind"] == "random_projection" else None
    )
    return task, den, base_cfg, vals


def _run_afd_study(task, den, base_cfg, vals, seed: int, threads: int):
    boot_values, projection = vals["boot_values"], vals["projection"]
    n_conditions, n_replicates = vals["n_conditions"], vals["n_replicates"]
    conds = sample_condition(task, n_conditions, _rng.stream(seed, _rng.TAG_TASK))
    xT_batch = np.repeat(conds, n_replicates, axis=0)
    afd_values, group_afds = [], []
    for b in boot_values:
        cfg_b = dataclasses.replace(base_cfg, boot_b=float(b), record_trajectory=False)
        result = sample(cfg_b, den, xT_batch, threads=threads)
        report = afd(np.split(result.x0_batch, n_conditions), projection)
        afd_values.append(report.afd)
        group_afds.append(report.per_group)

    nondecreasing = all(a <= b + 1e-15 for a, b in zip(afd_values, afd_values[1:]))
    artifacts = {
        "afd.csv": _csv_blocks(["boot_b", "afd"], [boot_values, afd_values]),
        "afd_groups.csv": _csv_blocks(
            ["boot_b", "group_id", "afd"],
            [np.repeat(boot_values, n_conditions),
             np.tile(np.arange(n_conditions), boot_values.size), np.concatenate(group_afds)],
        ),
        "afd.json": _json_bytes(
            {
                "boot_values": boot_values,
                "afd_values": afd_values,
                "nondecreasing": nondecreasing,
            }
        ),
    }
    return artifacts, []


def _parse_convergence_study(cfg: dict, seed: int):
    sched = _parse_schedule(cfg)
    vals = _read(cfg, "convergence", _SPECS["convergence"])
    t, dts = vals["t"], vals["dts"]
    if not 0.0 < t <= T_HORIZON:
        raise ConfigError(f"convergence.t: need 0 < t <= {T_HORIZON}, got {t}")
    if dts.size < 3 or np.any(dts <= 0) or np.any(dts > t):
        raise ConfigError("convergence.dts: need >= 3 positive step sizes no larger than t")
    for i, pair in enumerate(vals["pairs"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"convergence.pairs[{i}]: expected a pair of variant names")
        for name in pair:
            if name not in VARIANTS:
                raise ConfigError(f"convergence.pairs[{i}]: {name!r} is not one of {VARIANTS}")
        if pair[0] == pair[1]:
            raise ConfigError(f"convergence.pairs[{i}]: a variant paired with itself never differs")
        if pair in vals["pairs"][:i]:
            raise ConfigError(f"convergence.pairs[{i}]: {list(pair)} is listed twice")
    slope_range = vals.get("slope_range")
    if slope_range is not None:
        if len(slope_range) != 2 or not slope_range[0] <= slope_range[1]:
            raise ConfigError("convergence.slope_range: expected [lo, hi] with lo <= hi, or null")
        vals["slope_range"] = (float(slope_range[0]), float(slope_range[1]))
    policy = _build("convergence.eta", EpsilonPolicy, "eta_scaled", eta=vals["eta"])
    return sched, policy, vals


def _run_convergence_study(sched, policy, vals, seed: int, threads: int):
    t, eta, dts, slope_range = vals["t"], vals["eta"], vals["dts"], vals.get("slope_range")
    n_probes, d = vals["n_probes"], vals["d"]
    x_hat0, anchor, zh = _probe_states(n_probes, d, seed)
    ev = eval_schedule(sched, t)
    x_t = ev.alpha * x_hat0 + ev.beta * anchor + ev.gamma * zh

    all_diffs = []
    slopes = {}
    failures = []
    for a_name, b_name in vals["pairs"]:
        diffs = []
        for dt in dts:
            eps = epsilon(policy, sched, t, float(dt))
            out_a, out_b = (
                apply_step(step_coefficients(name, sched, t, float(dt), eps), x_hat0, anchor, x_t)
                for name in (a_name, b_name)
            )
            diff = float(np.mean(np.linalg.norm(out_a - out_b, axis=1)))
            diffs.append(diff)
        all_diffs += diffs
        slope = convergence_slope(dts, diffs)
        slopes[f"{a_name}|{b_name}"] = slope
        if slope_range is not None and not (slope_range[0] <= slope <= slope_range[1]):
            failures.append(
                f"variant-consistency slope for {a_name}|{b_name} is {slope}, "
                f"outside [{slope_range[0]}, {slope_range[1]}]"
            )

    artifacts = {
        "convergence.csv": _csv_blocks(
            ["pair", "dt", "mean_diff"],
            [np.repeat([f"{a}|{b}" for a, b in vals["pairs"]], dts.size),
             np.tile(dts, len(vals["pairs"])), all_diffs],
        ),
        "convergence.json": _json_bytes(
            {
                "t": t,
                "eta": eta,
                "slopes": slopes,
                "slope_range": list(slope_range) if slope_range is not None else None,
                "passed": not failures,
            }
        ),
    }
    return artifacts, failures


def _parse_reformulation_check(cfg: dict, seed: int):
    vals = _read(cfg, "reformulation", _SPECS["reformulation"])
    if not (0 < vals["t_lo"] < vals["t_hi"] < T_HORIZON):
        raise ConfigError("reformulation.t_lo/t_hi: need 0 < t_lo < t_hi < 1")
    kind = _FAMILIES[vals["family"]]
    given = {k: vals[k] for k in _SCHEDULE_KEYS[kind] if k in vals}
    return vals, _build("reformulation", Schedule, kind, **given)


def _run_reformulation_check(vals, sched, seed: int, threads: int):
    family, threshold = vals["family"], vals["threshold"]
    t_grid = np.linspace(vals["t_lo"], vals["t_hi"], vals["n_points"])
    deviation = verify_reformulation(sched, t_grid, n_probes=vals["n_probes"])
    passed = deviation <= threshold
    failures = [] if passed else [
        f"reformulation deviation for {family} is {deviation}, above threshold {threshold}"
    ]
    artifacts = {
        "reformulation.json": _json_bytes(
            {
                "family": family,
                "deviation": deviation,
                "threshold": threshold,
                "passed": passed,
            }
        )
    }
    return artifacts, failures


_SAMPLING = ("schedule", "grid", "eps_policy", "task", "denoiser", "sampler")
# command -> (the top-level config sections it reads, parser, runner); main reads seed and out
COMMANDS = {
    "verify-schedule": (("schedule", "grid"), _parse_verify_schedule, _run_verify_schedule),
    "simulate-forward": (("schedule", "grid", "forward"),
                         _parse_simulate_forward, _run_simulate_forward),
    "sample": ((*_SAMPLING, "sample"), _parse_sample, _run_sample),
    "train-denoiser": (("schedule", "task", "train", "prec"),
                       _parse_train_denoiser, _run_train_denoiser),
    "afd-study": ((*_SAMPLING, "afd"), _parse_afd_study, _run_afd_study),
    "convergence-study": (("schedule", "convergence"),
                          _parse_convergence_study, _run_convergence_study),
    "reformulation-check": (("reformulation",),
                            _parse_reformulation_check, _run_reformulation_check),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use: building
    its seven subcommands costs far more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="bridgelab", description="Diffusion-bridge schedule, sampler, and metric runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument("--threads", type=int, default=1, help="worker threads")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    start = time.perf_counter()
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as err:
            raise ConfigError(f"config: cannot read {args.config!r} ({err})") from err
        except ValueError as err:  # a JSONDecodeError, or an integer too long to convert
            raise ConfigError(f"config: invalid JSON ({err})") from err
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be an object")
        sections, parse, run = COMMANDS[args.command]
        unknown = sorted(set(cfg) - {"seed", "out", *sections})
        if unknown:
            raise ConfigError(f"config: unknown section(s) {unknown} for {args.command}")

        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None or isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("seed: an integer seed is required (config key or --seed)")
        out_dir = args.out if args.out is not None else cfg.get("out")
        if not out_dir or not isinstance(out_dir, str):
            raise ConfigError("out: an output directory is required (config key or --out)")
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")

        artifacts, failures = run(*parse(cfg, seed), seed, args.threads)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2

    echo = {k: v for k, v in cfg.items() if k != "out"}
    echo["seed"] = seed

    def manifest():
        # Produced when the writer reaches it, after every other artifact is encoded and
        # written, so wall_time_s covers that work too.
        yield _json_bytes(
            {
                "command": args.command,
                "config": echo,
                "seed": seed,
                "threads": args.threads,
                "versions": {
                    "bridgelab": __version__,
                    "numpy": np.__version__,
                    "python": sys.version.split()[0],
                },
                "wall_time_s": time.perf_counter() - start,
            }
        )

    artifacts["manifest.json"] = manifest()
    try:
        _write_artifacts(out_dir, artifacts)
    except OSError as err:
        print(f"output error: cannot write {out_dir!r} ({err})", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"numerical failure: {failure}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
