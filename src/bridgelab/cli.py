"""Experiment runner: config parsing, named runs, deterministic artifacts.

Every run writes its artifacts with temp-file + atomic rename after the
computation finishes, so failed or invalid runs never leave partial files.
Numeric CSV fields use 17 significant digits so reruns are byte-comparable.
Exit codes: 0 success, 1 config/validation error, 2 numerical-property
failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np
import scipy

from . import __version__
from . import rng as _rng
from .denoiser import (
    AnalyticGaussianDenoiser,
    AnalyticGmmDenoiser,
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
from .metrics import ConditionedSamples, Identity, afd, convergence_slope, random_projection
from .sampler import (
    VARIANTS,
    SamplerConfig,
    sample,
    sample_result_csv_rows,
    step_dbim,
    step_euler_z,
    step_gamma_simplified,
    step_markovian,
)
from .schedule import (
    EPSILON_KINDS,
    SCHEDULE_KINDS,
    T_HORIZON,
    EpsilonPolicy,
    Schedule,
    TimeGrid,
    bridge_coefficients,
    epsilon,
    eval_schedule,
    make_time_grid,
    verify_reformulation,
)

COMMANDS = (
    "verify-schedule",
    "simulate-forward",
    "sample",
    "train-denoiser",
    "afd-study",
    "convergence-study",
    "reformulation-check",
)


class ConfigError(Exception):
    """Schema or validation problem, reported with the offending field path."""


# ---------------------------------------------------------------------------
# Config access helpers


def _section(cfg: dict, key: str, path: str, required: bool = True) -> dict | None:
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}{key}: required section is missing")
        return None
    val = cfg[key]
    if not isinstance(val, dict):
        raise ConfigError(f"{path}{key}: expected an object, got {type(val).__name__}")
    return val


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _num(section: dict, key: str, path: str, default=None) -> float | None:
    if key not in section:
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:
        num = math.inf
    if not math.isfinite(num):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r}")
    return num


def _intval(section: dict, key: str, path: str, default=None) -> int | None:
    if key not in section:
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    return val


def _strval(section: dict, key: str, path: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: required value is missing")
        return default
    val = section[key]
    if not isinstance(val, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {val!r}")
    return val


def _boolval(section: dict, key: str, path: str, default=False) -> bool:
    if key not in section:
        return default
    val = section[key]
    if not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {val!r}")
    return val


def _array(section: dict, key: str, path: str, required: bool = True):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: required value is missing")
        return None
    try:
        arr = np.asarray(section[key], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{path}.{key}: not a numeric array ({err})") from err
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key}: contains non-finite values")
    return arr


# ---------------------------------------------------------------------------
# Section parsers


def _parse_schedule(cfg: dict, path: str = "schedule") -> Schedule:
    section = _section(cfg, "schedule", "")
    allowed = {
        "kind",
        "gamma_max",
        "gamma_multiplier",
        "gamma_scale",
        "beta_d",
        "beta_min",
        "i2sb_breakpoints",
        "i2sb_values",
    }
    _check_keys(section, allowed, path)
    kind = _strval(section, "kind", path, required=True)
    if kind == "custom":
        raise ConfigError(f"{path}.kind: custom schedules need callables and have no config form")
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"{path}.kind: {kind!r} is not one of {SCHEDULE_KINDS}")
    kwargs: dict = {"kind": kind}
    for key in ("gamma_max", "gamma_multiplier", "gamma_scale", "beta_d", "beta_min"):
        val = _num(section, key, path)
        if val is not None:
            kwargs[key] = val
    for key in ("i2sb_breakpoints", "i2sb_values"):
        if key in section:
            arr = _array(section, key, path)
            kwargs[key] = tuple(float(v) for v in arr)
    try:
        return Schedule(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_grid(cfg: dict, path: str = "grid") -> TimeGrid:
    section = _section(cfg, "grid", "")
    _check_keys(section, {"n_steps", "t_min", "t_max", "rho"}, path)
    n_steps = _intval(section, "n_steps", path)
    if n_steps is None:
        raise ConfigError(f"{path}.n_steps: required value is missing")
    kwargs = {}
    for key in ("t_min", "t_max", "rho"):
        val = _num(section, key, path)
        if val is not None:
            kwargs[key] = val
    try:
        return make_time_grid(n_steps, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_eps_policy(cfg: dict, path: str = "eps_policy") -> EpsilonPolicy:
    section = _section(cfg, "eps_policy", "")
    _check_keys(section, {"kind", "eta", "const_value", "scale_by_gamma_sq", "tail_zero_steps"}, path)
    kind = _strval(section, "kind", path, required=True)
    if kind not in EPSILON_KINDS:
        raise ConfigError(f"{path}.kind: {kind!r} is not one of {EPSILON_KINDS}")
    kwargs: dict = {"kind": kind}
    for key in ("eta", "const_value"):
        val = _num(section, key, path)
        if val is not None:
            kwargs[key] = val
    if "scale_by_gamma_sq" in section:
        kwargs["scale_by_gamma_sq"] = _boolval(section, "scale_by_gamma_sq", path)
    tail = _intval(section, "tail_zero_steps", path)
    if tail is not None:
        kwargs["tail_zero_steps"] = tail
    try:
        return EpsilonPolicy(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_joint_gaussian(section: dict, path: str) -> JointGaussian:
    _check_keys(section, {"kind", "mean0", "meanT", "cov00", "covTT", "cov0T"}, path)
    fields = {
        key: _array(section, key, path) for key in ("mean0", "meanT", "cov00", "covTT", "cov0T")
    }
    try:
        return JointGaussian(**fields)
    except (ValueError, np.linalg.LinAlgError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_task(cfg: dict, path: str = "task"):
    section = _section(cfg, "task", "")
    kind = _strval(section, "kind", path, required=True)
    if kind == "joint_gaussian":
        return _parse_joint_gaussian(section, path)
    if kind == "gmm_coupling":
        _check_keys(section, {"kind", "weights", "components"}, path)
        weights = _array(section, "weights", path)
        comps_raw = section.get("components")
        if not isinstance(comps_raw, list) or not comps_raw:
            raise ConfigError(f"{path}.components: expected a non-empty list")
        comps = []
        for i, comp in enumerate(comps_raw):
            if not isinstance(comp, dict):
                raise ConfigError(f"{path}.components[{i}]: expected an object")
            comp = {**comp, "kind": "joint_gaussian"}
            comps.append(_parse_joint_gaussian(comp, f"{path}.components[{i}]"))
        try:
            return GmmCoupling(tuple(float(w) for w in weights), tuple(comps))
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err
    raise ConfigError(f"{path}.kind: {kind!r} is not one of ('joint_gaussian', 'gmm_coupling')")


def _parse_denoiser(cfg: dict, task, sched: Schedule, path: str = "denoiser"):
    section = _section(cfg, "denoiser", "")
    kind = _strval(section, "kind", path, required=True)
    if kind == "analytic":
        _check_keys(section, {"kind"}, path)
        if isinstance(task, JointGaussian):
            return AnalyticGaussianDenoiser(task, sched)
        return AnalyticGmmDenoiser(task, sched)
    if kind == "mlp":
        _check_keys(section, {"kind", "path"}, path)
        model_path = _strval(section, "path", path, required=True)
        if not os.path.isfile(model_path):
            raise ConfigError(f"{path}.path: file {model_path!r} does not exist")
        try:
            return load_denoiser(model_path)
        except (ValueError, json.JSONDecodeError) as err:
            raise ConfigError(f"{path}.path: cannot load {model_path!r} ({err})") from err
    raise ConfigError(f"{path}.kind: {kind!r} is not one of ('analytic', 'mlp')")


def _parse_sampler(cfg: dict, sched, eps_policy, grid, seed: int, path: str = "sampler") -> SamplerConfig:
    section = _section(cfg, "sampler", "")
    _check_keys(section, {"variant", "boot_b", "record_trajectory"}, path)
    variant = _strval(section, "variant", path, default="gamma_simplified")
    if variant not in VARIANTS:
        raise ConfigError(f"{path}.variant: {variant!r} is not one of {VARIANTS}")
    try:
        return SamplerConfig(
            schedule=sched,
            eps_policy=eps_policy,
            grid=grid,
            variant=variant,
            boot_b=_num(section, "boot_b", path, 0.0),
            seed=seed,
            record_trajectory=_boolval(section, "record_trajectory", path),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# Artifact encoding


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_bytes(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row) + "\n")
    return buf.getvalue().encode()


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


def _write_artifacts(out_dir: str, artifacts: dict[str, bytes]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    for name in sorted(artifacts):
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(artifacts[name])
            # mkstemp creates the file 0600; give it the mode open() would have.
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, os.path.join(out_dir, name))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# Command runners.  Each returns (artifacts, failures); failures non-empty
# means exit code 2.


def _run_verify_schedule(cfg: dict, seed: int, threads: int):
    sched = _parse_schedule(cfg)
    grid = _parse_grid(cfg)
    pts = list(reversed(grid.points))
    rows = []
    min_g_sq = math.inf
    failures = []
    for t in pts:
        ev = eval_schedule(sched, t)
        try:
            co = bridge_coefficients(sched, t)
            min_g_sq = min(min_g_sq, co.g_sq)
            f_s_g = (co.f, co.s, co.g_sq)
        except ValueError as err:
            failures.append(f"bridge_coefficients at t = {t}: {err}")
            f_s_g = (math.nan, math.nan, math.nan)
        rows.append((t, ev.alpha, ev.beta, ev.gamma, ev.d_alpha, ev.d_beta, ev.d_gamma, *f_s_g))

    ev0 = eval_schedule(sched, 0.0)
    evT = eval_schedule(sched, T_HORIZON)
    endpoint_dev = max(
        abs(ev0.alpha - 1.0), abs(ev0.beta), abs(ev0.gamma),
        abs(evT.alpha), abs(evT.beta - 1.0), abs(evT.gamma),
    )
    if endpoint_dev > 1e-9:
        failures.append(f"endpoint pinning deviates by {endpoint_dev}")

    h = 1e-6
    deriv_dev = 0.0
    for t in pts:
        if sched.kind == "i2sb" and any(abs(t - b) <= 1e-3 for b in sched.i2sb_breakpoints):
            continue
        lo, hi = eval_schedule(sched, t - h), eval_schedule(sched, t + h)
        for num, ana in (
            ((hi.alpha - lo.alpha) / (2 * h), eval_schedule(sched, t).d_alpha),
            ((hi.beta - lo.beta) / (2 * h), eval_schedule(sched, t).d_beta),
            ((hi.gamma - lo.gamma) / (2 * h), eval_schedule(sched, t).d_gamma),
        ):
            deriv_dev = max(deriv_dev, abs(num - ana) / max(1.0, abs(ana)))
    if deriv_dev > 1e-4:
        failures.append(f"analytic derivatives deviate from central differences by {deriv_dev}")

    min_gamma = min(eval_schedule(sched, t).gamma for t in pts)
    if min_gamma <= 0:
        failures.append(f"gamma is not positive on the grid (min {min_gamma})")
    if min_g_sq < 0:
        failures.append(f"g_sq is negative on the grid (min {min_g_sq})")

    artifacts = {
        "schedule.csv": _csv_bytes(
            ["t", "alpha", "beta", "gamma", "d_alpha", "d_beta", "d_gamma", "f", "s", "g_sq"],
            rows,
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


def _run_simulate_forward(cfg: dict, seed: int, threads: int):
    sched = _parse_schedule(cfg)
    grid = _parse_grid(cfg)
    section = _section(cfg, "forward", "")
    _check_keys(section, {"x0", "xT", "n_paths", "record"}, "forward")
    x0 = _array(section, "x0", "forward")
    xT = _array(section, "xT", "forward")
    n_paths = _intval(section, "n_paths", "forward")
    if n_paths is None or n_paths < 1:
        raise ConfigError("forward.n_paths: a positive integer is required")
    record = _boolval(section, "record", "forward", default=True)
    if x0.ndim != 1 or x0.shape != xT.shape:
        raise ConfigError("forward.x0/forward.xT: expected matching 1-d vectors")

    ens = simulate_ensemble(
        sched, x0, xT, grid, "forward", n_paths, seed, threads=threads, record=record
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
        artifacts["forward.csv"] = _csv_bytes(
            ["path_id", "time"] + [f"x_{j}" for j in range(x0.shape[0])],
            ((str(pid), t, *x) for pid, t, *x in ens.to_csv_rows()),
        )
        artifacts["forward.traj"] = ens.to_binary()
    return artifacts, []


def _run_sample(cfg: dict, seed: int, threads: int):
    sched = _parse_schedule(cfg)
    grid = _parse_grid(cfg)
    eps_policy = _parse_eps_policy(cfg)
    task = _parse_task(cfg)
    den = _parse_denoiser(cfg, task, sched)
    sampler_cfg = _parse_sampler(cfg, sched, eps_policy, grid, seed)
    section = _section(cfg, "sample", "")
    _check_keys(section, {"n_conditions", "n_replicates"}, "sample")
    n_conditions = _intval(section, "n_conditions", "sample")
    n_replicates = _intval(section, "n_replicates", "sample", default=1)
    if not n_conditions or n_conditions < 1 or n_replicates < 1:
        raise ConfigError("sample.n_conditions/n_replicates: positive integers are required")

    conds = sample_condition(task, n_conditions, _rng.stream(seed, _rng.TAG_TASK))
    xT_batch = np.repeat(conds, n_replicates, axis=0)
    result = sample(sampler_cfg, den, xT_batch, threads=threads)
    d = xT_batch.shape[1]
    x0 = result.x0_batch
    artifacts = {
        "sample.csv": _csv_bytes(
            ["row_id", "replicate_id"] + [f"x_{j}" for j in range(d)],
            ((str(r), str(rep), *x) for r, rep, *x in sample_result_csv_rows(result, n_conditions)),
        ),
        "moments.json": _json_bytes(
            {
                "mean": x0.mean(axis=0),
                "cov": np.cov(x0.T) if x0.shape[0] > 1 else np.zeros((d, d)),
                "n": x0.shape[0],
            }
        ),
        "diagnostics.json": _json_bytes(
            {"eps_used": result.eps_used, "x0hat_change": result.x0hat_change}
        ),
    }
    if result.trajectories is not None:
        artifacts["sample.traj"] = result.trajectories.to_binary()
    return artifacts, []


def _run_train_denoiser(cfg: dict, seed: int, threads: int):
    sched = _parse_schedule(cfg)
    task = _parse_task(cfg)
    section = _section(cfg, "train", "")
    allowed = {"layers", "width", "lr", "batch", "iters", "t_min", "t_max"}
    _check_keys(section, allowed, "train")
    kwargs: dict = {"seed": seed}
    for key in ("layers", "width", "batch", "iters"):
        val = _intval(section, key, "train")
        if val is not None:
            kwargs[key] = val
    for key in ("lr", "t_min", "t_max"):
        val = _num(section, key, "train")
        if val is not None:
            kwargs[key] = val
    try:
        hyper = MlpHyper(**kwargs)
    except ValueError as err:
        raise ConfigError(f"train: {err}") from err

    prec_section = _section(cfg, "prec", "", required=False)
    if prec_section is None:
        prec = Preconditioner()
    elif "estimate_from" in prec_section:
        _check_keys(prec_section, {"estimate_from"}, "prec")
        n_est = _intval(prec_section, "estimate_from", "prec")
        if not n_est or n_est < 2:
            raise ConfigError("prec.estimate_from: an integer >= 2 is required")
        x0_est, xT_est = sample_pair(task, n_est, _rng.stream(seed, _rng.TAG_TASK))
        prec = Preconditioner.from_pairs(x0_est, xT_est)
    else:
        _check_keys(prec_section, {"sigma0", "sigmaT", "sigma0T"}, "prec")
        prec = Preconditioner(
            sigma0=_num(prec_section, "sigma0", "prec", 0.5),
            sigmaT=_num(prec_section, "sigmaT", "prec", 0.5),
            sigma0T=_num(prec_section, "sigma0T", "prec", 0.125),
        )

    den, running = train_mlp_denoiser(task, sched, prec, hyper)
    test_mse = test_mse_vs_analytic(den, task, seed=seed)
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


def _run_afd_study(cfg: dict, seed: int, threads: int):
    sched = _parse_schedule(cfg)
    grid = _parse_grid(cfg)
    eps_policy = _parse_eps_policy(cfg)
    task = _parse_task(cfg)
    den = _parse_denoiser(cfg, task, sched)
    base_cfg = _parse_sampler(cfg, sched, eps_policy, grid, seed)
    section = _section(cfg, "afd", "")
    _check_keys(section, {"boot_values", "n_conditions", "n_replicates", "feature"}, "afd")
    boot_values = _array(section, "boot_values", "afd")
    n_conditions = _intval(section, "n_conditions", "afd")
    n_replicates = _intval(section, "n_replicates", "afd")
    if not n_conditions or not n_replicates or n_conditions < 1 or n_replicates < 2:
        raise ConfigError("afd.n_conditions/n_replicates: need >= 1 condition and >= 2 replicates")
    if boot_values.ndim != 1 or boot_values.size < 1 or np.any(boot_values < 0):
        raise ConfigError("afd.boot_values: expected a non-empty list of values >= 0")

    feature = Identity()
    feat_section = _section(section, "feature", "afd.", required=False)
    if feat_section is not None:
        kind = _strval(feat_section, "kind", "afd.feature", required=True)
        if kind == "random_projection":
            _check_keys(feat_section, {"kind", "d_out", "seed"}, "afd.feature")
            d_out = _intval(feat_section, "d_out", "afd.feature")
            if not d_out or d_out < 1:
                raise ConfigError("afd.feature.d_out: a positive integer is required")
            d_task = getattr(task, "d")
            feature = random_projection(d_task, d_out, _intval(feat_section, "seed", "afd.feature", 0))
        elif kind != "identity":
            raise ConfigError(
                f"afd.feature.kind: {kind!r} is not one of ('identity', 'random_projection')"
            )

    conds = sample_condition(task, n_conditions, _rng.stream(seed, _rng.TAG_TASK))
    xT_batch = np.repeat(conds, n_replicates, axis=0)
    afd_values = []
    group_rows = []
    for b in boot_values:
        cfg_b = SamplerConfig(
            schedule=base_cfg.schedule,
            eps_policy=base_cfg.eps_policy,
            grid=base_cfg.grid,
            variant=base_cfg.variant,
            boot_b=float(b),
            seed=base_cfg.seed,
            record_trajectory=False,
        )
        result = sample(cfg_b, den, xT_batch, threads=threads)
        groups = [
            result.x0_batch[i * n_replicates : (i + 1) * n_replicates] for i in range(n_conditions)
        ]
        report = afd(ConditionedSamples(groups, feature))
        afd_values.append(report.afd)
        group_rows.extend((float(b), str(g), v) for g, v in enumerate(report.per_group))

    nondecreasing = all(a <= b + 1e-15 for a, b in zip(afd_values, afd_values[1:]))
    artifacts = {
        "afd.csv": _csv_bytes(["boot_b", "afd"], zip(boot_values, afd_values)),
        "afd_groups.csv": _csv_bytes(
            ["boot_b", "group_id", "afd"], ((b, g, v) for b, g, v in group_rows)
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


def _variant_step(name: str, sched, x_t, anchor, x_hat0, zh, t, dt, eps):
    if name == "euler_z":
        return step_euler_z(sched, x_t, anchor, x_hat0, t, dt, eps, 0.0)
    if name == "gamma_simplified":
        return step_gamma_simplified(sched, x_hat0, anchor, zh, t, dt, eps, 0.0)
    if name == "dbim":
        return step_dbim(sched, x_hat0, anchor, zh, t, dt, eps, 0.0)
    return step_markovian(sched, x_hat0, x_t, t, dt, 0.0)


def _run_convergence_study(cfg: dict, seed: int, threads: int):
    sched = _parse_schedule(cfg)
    section = _section(cfg, "convergence", "")
    allowed = {"t", "dts", "eta", "d", "n_probes", "pairs", "slope_range"}
    _check_keys(section, allowed, "convergence")
    t = _num(section, "t", "convergence", 0.5)
    eta = _num(section, "eta", "convergence", 0.3)
    d = _intval(section, "d", "convergence", 2)
    n_probes = _intval(section, "n_probes", "convergence", 32)
    dts = _array(section, "dts", "convergence")
    if dts is None or dts.ndim != 1 or dts.size < 3 or np.any(dts <= 0):
        raise ConfigError("convergence.dts: need >= 3 positive step sizes")
    pairs_raw = section.get(
        "pairs", [["euler_z", "gamma_simplified"], ["gamma_simplified", "dbim"]]
    )
    pairs = []
    for i, pair in enumerate(pairs_raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"convergence.pairs[{i}]: expected a pair of variant names")
        for name in pair:
            if name not in VARIANTS:
                raise ConfigError(f"convergence.pairs[{i}]: {name!r} is not one of {VARIANTS}")
        pairs.append((pair[0], pair[1]))
    slope_range = section.get("slope_range", [1.8, 2.2])
    if slope_range is not None:
        arr = np.asarray(slope_range, dtype=np.float64)
        if arr.shape != (2,):
            raise ConfigError("convergence.slope_range: expected [lo, hi] or null")
        slope_range = (float(arr[0]), float(arr[1]))

    gen = _rng.stream(seed, _rng.TAG_PROBE)
    x_hat0 = gen.standard_normal((n_probes, d))
    anchor = gen.standard_normal((n_probes, d))
    zh = gen.standard_normal((n_probes, d))
    ev = eval_schedule(sched, t)
    x_t = ev.alpha * x_hat0 + ev.beta * anchor + ev.gamma * zh
    policy = EpsilonPolicy(kind="eta_scaled", eta=eta, tail_zero_steps=0)

    rows = []
    slopes = {}
    failures = []
    for a_name, b_name in pairs:
        diffs = []
        for dt in dts:
            eps = epsilon(policy, sched, t, float(dt), 1, 2)
            out_a = _variant_step(a_name, sched, x_t, anchor, x_hat0, zh, t, float(dt), eps)
            out_b = _variant_step(b_name, sched, x_t, anchor, x_hat0, zh, t, float(dt), eps)
            diff = float(np.mean(np.linalg.norm(out_a - out_b, axis=1)))
            diffs.append(diff)
            rows.append((f"{a_name}|{b_name}", float(dt), diff))
        slope = convergence_slope(dts, diffs)
        slopes[f"{a_name}|{b_name}"] = slope
        if slope_range is not None and not (slope_range[0] <= slope <= slope_range[1]):
            failures.append(
                f"variant-consistency slope for {a_name}|{b_name} is {slope}, "
                f"outside [{slope_range[0]}, {slope_range[1]}]"
            )

    artifacts = {
        "convergence.csv": _csv_bytes(
            ["pair", "dt", "mean_diff"], ((p, dt, df) for p, dt, df in rows)
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


def _run_reformulation_check(cfg: dict, seed: int, threads: int):
    section = _section(cfg, "reformulation", "")
    allowed = {
        "family",
        "threshold",
        "t_lo",
        "t_hi",
        "n_points",
        "n_probes",
        "beta_d",
        "beta_min",
        "i2sb_breakpoints",
        "i2sb_values",
    }
    _check_keys(section, allowed, "reformulation")
    family = _strval(section, "family", "reformulation", required=True)
    if family not in ("ve", "vp", "edm", "i2sb"):
        raise ConfigError(
            f"reformulation.family: {family!r} is not one of ('ve', 'vp', 'edm', 'i2sb')"
        )
    threshold = _num(section, "threshold", "reformulation", 1e-8)
    t_lo = _num(section, "t_lo", "reformulation", 0.1)
    t_hi = _num(section, "t_hi", "reformulation", 0.9)
    n_points = _intval(section, "n_points", "reformulation", 25)
    n_probes = _intval(section, "n_probes", "reformulation", 32)
    if not (0 < t_lo < t_hi < T_HORIZON):
        raise ConfigError("reformulation.t_lo/t_hi: need 0 < t_lo < t_hi < 1")
    kwargs: dict = {"n_probes": n_probes}
    for key in ("beta_d", "beta_min"):
        val = _num(section, key, "reformulation")
        if val is not None:
            kwargs[key] = val
    for key in ("i2sb_breakpoints", "i2sb_values"):
        if key in section:
            kwargs[key] = tuple(float(v) for v in _array(section, key, "reformulation"))

    t_grid = np.linspace(t_lo, t_hi, n_points)
    deviation = verify_reformulation(family, t_grid, **kwargs)
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


_RUNNERS = {
    "verify-schedule": _run_verify_schedule,
    "simulate-forward": _run_simulate_forward,
    "sample": _run_sample,
    "train-denoiser": _run_train_denoiser,
    "afd-study": _run_afd_study,
    "convergence-study": _run_convergence_study,
    "reformulation-check": _run_reformulation_check,
}


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as err:
            raise ConfigError(f"config: cannot read {args.config!r} ({err})") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config: invalid JSON ({err})") from err
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be an object")

        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None or isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("seed: an integer seed is required (config key or --seed)")
        out_dir = args.out if args.out is not None else cfg.get("out")
        if not out_dir or not isinstance(out_dir, str):
            raise ConfigError("out: an output directory is required (config key or --out)")
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")

        artifacts, failures = _RUNNERS[args.command](cfg, seed, args.threads)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2

    echo = {k: v for k, v in cfg.items() if k != "out"}
    echo["seed"] = seed
    artifacts["manifest.json"] = _json_bytes(
        {
            "command": args.command,
            "config": echo,
            "seed": seed,
            "threads": args.threads,
            "versions": {
                "bridgelab": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": time.perf_counter() - start,
        }
    )
    _write_artifacts(out_dir, artifacts)
    for failure in failures:
        print(f"numerical failure: {failure}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
