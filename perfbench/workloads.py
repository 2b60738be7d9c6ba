"""The four benchmark workloads: their inputs, operations and output checks.

A workload is a fixed cycle of operations (ops). Each op is either an
in-process ``bridgelab.cli.main([...])`` call or a public library call. All
inputs derive from the workload seed. Every op returns a fingerprint of its
output (the sha256 of each artifact, or of the returned numbers), and the
first cycle's outputs are checked against closed-form oracles. Later cycles
repeat the same ops on the same inputs, so their fingerprints must equal the
first cycle's.

Library and CLI entry points are looked up as module attributes at call
time, so the traced run sees every call the ops make.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bridgelab.cli
import bridgelab.dynamics
import bridgelab.metrics

# Linear schedule of the acceptance gate, with the default multiplier spelled
# out so the oracles below can use the closed form gamma = m sqrt(t (1 - t)).
LINEAR = {"kind": "linear", "gamma_max": 0.125, "gamma_multiplier": 0.5}
TASK_2D = {
    "kind": "joint_gaussian",
    "mean0": [0.85, -0.4],
    "meanT": [0.5, -0.5],
    "cov00": [[0.754, 0.165], [0.165, 0.474]],
    "covTT": [[1.0, 0.3], [0.3, 0.8]],
    "cov0T": [[0.84, 0.11], [0.31, 0.59]],
}
TASK_1D = {
    "kind": "joint_gaussian",
    "mean0": [0.35], "meanT": [0.5], "cov00": [[0.29]], "covTT": [[1.0]], "cov0T": [[0.5]],
}
GMM_BIMODAL = {
    "kind": "gmm_coupling",
    "weights": [0.5, 0.5],
    "components": [
        {"mean0": [-1.5], "meanT": [-0.2], "cov00": [[0.05]], "covTT": [[0.4]], "cov0T": [[0.05]]},
        {"mean0": [1.5], "meanT": [0.2], "cov00": [[0.05]], "covTT": [[0.4]], "cov0T": [[0.05]]},
    ],
}
VARIANTS = ("euler_z", "gamma_simplified", "dbim", "markovian")

# Sizes of one cycle.
N_STEPS = 40
SAMPLE_CONDITIONS, SAMPLE_REPLICATES = 10_000, 4
AFD_CONDITIONS, AFD_REPLICATES = 500, 8
FORWARD_PATHS, FORWARD_STEPS, FORWARD_T = 100_000, 500, 0.5
EXPORT_PATHS, EXPORT_STEPS = 2000, 200
FAMILY_ETAS = (0.0, 0.3, 1.0)
FAMILY_CONDITIONS = 10_000
ENERGY_SUBSAMPLE, ENERGY_PERMUTATIONS = 1500, 200
TRAIN = {"layers": 2, "width": 32, "lr": 0.03, "batch": 128, "iters": 2000}

# Tolerances. Moment checks allow sampling noise (4 standard errors for a
# mean, 5 for a covariance, with one independent draw per condition) plus a
# known discretisation bias at N = 40. euler_z is biased on this task: with
# 1e5 conditions its mean is off by 0.028 marginal standard deviations, and
# its variance may overshoot by about 13% (README, numerical notes).
MEAN_SE_TOL = 4.0
COV_SE_TOL = 5.0
BIAS_ALLOWANCE = {"euler_z": (0.05, 0.13)}  # (mean in standard deviations, covariance rel.)
FORWARD_VAR_REL_TOL = 0.03
TRAIN_MSE_TOL = 5e-3
FAMILY_COV_REL_TOL = 0.05
ENERGY_RATIO_TOL = 3.0


@dataclass
class Check:
    """One output check: passes when value <= tol; value / tol feeds oracle_dev."""

    name: str
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.tol

    @property
    def dev(self) -> float:
        return self.value / self.tol


def flag(name: str, ok: bool) -> Check:
    """A pass/fail check with no magnitude; it never raises oracle_dev."""
    return Check(name, 0.0 if ok else math.inf, 1.0)


@dataclass
class OpResult:
    ok: bool  # exit code 0 (CLI) or a normal return (library)
    fingerprint: dict  # artifact name -> sha256, or value name -> sha256
    bytes_written: int = 0
    output: object = None  # a CLI op's out dir, or a library op's return value


@dataclass
class Op:
    name: str
    run: Callable[[], OpResult]  # the timed call
    check: Callable[[OpResult], list[Check]] = field(default=lambda res: [])
    prepare: Callable[[], None] = field(default=lambda: None)  # untimed, runs before run


# ---------------------------------------------------------------------------
# Helpers


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))
    return path


def artifact_digests(out_dir: Path) -> tuple[dict, int]:
    """sha256 and total bytes of every artifact but manifest.json.

    The manifest records the run's wall time, so it is the one artifact that
    differs between identical runs.
    """
    digests, total = {}, 0
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            data = (out_dir / name).read_bytes()
            digests[name] = hashlib.sha256(data).hexdigest()
            total += len(data)
    return digests, total


def cli_op(name: str, command: str, cfg_path: Path, out_dir: Path, seed: int,
           check=lambda res: []) -> Op:
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir),
            "--seed", str(seed), "--threads", "1"]

    def run() -> OpResult:
        code = bridgelab.cli.main(argv)
        if code != 0 or not out_dir.is_dir():
            return OpResult(False, {})
        digests, nbytes = artifact_digests(out_dir)
        return OpResult(True, digests, nbytes, out_dir)

    return Op(name, run, check)


def _read_json(res: OpResult, name: str) -> dict:
    return json.loads((res.output / name).read_text())


def _read_samples(out_dir: Path) -> np.ndarray:
    """The x columns of a sample.csv (after row_id and replicate_id)."""
    return np.loadtxt(out_dir / "sample.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2:]


def _linear_kernel(t: float) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the LINEAR schedule at t."""
    m = LINEAR["gamma_multiplier"] * LINEAR["gamma_max"]
    return 1.0 - t, t, m * math.sqrt(t * (1.0 - t))


def _moment_checks(prefix: str, x: np.ndarray, mean, cov, n_groups: int, bias=(0.0, 0.0)):
    """Checks the sample mean and covariance of x against the law N(mean, cov).

    The mean error is in marginal standard deviations, the covariance error
    relative in the Frobenius norm. Rows of one group share a condition, so
    the noise allowance counts one independent draw per group.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    got_cov = np.atleast_2d(np.cov(x, rowvar=False))
    mean_err = np.abs(x.mean(axis=0) - mean) / np.sqrt(np.diag(cov))
    return [
        Check(f"{prefix}.mean_sd", float(np.max(mean_err)),
              bias[0] + MEAN_SE_TOL / math.sqrt(n_groups)),
        Check(f"{prefix}.cov_rel", float(np.linalg.norm(got_cov - cov) / np.linalg.norm(cov)),
              bias[1] + COV_SE_TOL * math.sqrt(2.0 / n_groups)),
    ]


def _sample_cfg(task, variant: str, eta: float, n_cond: int, n_rep: int, denoiser=None) -> dict:
    return {
        "schedule": LINEAR,
        "grid": {"n_steps": N_STEPS},
        "eps_policy": {"kind": "eta_scaled", "eta": eta},
        "task": task,
        "denoiser": denoiser or {"kind": "analytic"},
        "sampler": {"variant": variant, "boot_b": 0.0},
        "sample": {"n_conditions": n_cond, "n_replicates": n_rep},
    }


# ---------------------------------------------------------------------------
# Workloads


def build_sample(work: Path, seed: int) -> list[Op]:
    ops = []
    for variant in VARIANTS:
        cfg = _write_json(work / f"sample-{variant}.json", _sample_cfg(
            TASK_2D, variant, 0.3, SAMPLE_CONDITIONS, SAMPLE_REPLICATES))

        def check(res, variant=variant):
            x = _read_samples(res.output)
            rows_ok = x.shape == (SAMPLE_CONDITIONS * SAMPLE_REPLICATES, 2)
            return [flag(f"{variant}.rows", rows_ok)] + _moment_checks(
                variant, x, TASK_2D["mean0"], TASK_2D["cov00"], SAMPLE_CONDITIONS,
                BIAS_ALLOWANCE.get(variant, (0.0, 0.0)))

        ops.append(cli_op(f"sample/{variant}", "sample", cfg, work / f"out-{variant}", seed, check))

    # The bimodal x0 marginal is symmetric about 0 with variance 2.3. Only the
    # mean is checked: at N = 40 the output variance is about 1.5 and it
    # approaches 2.3 only slowly as N grows.
    comps = GMM_BIMODAL["components"]
    gmm_var = sum(w * (c["cov00"][0][0] + c["mean0"][0] ** 2)
                  for w, c in zip(GMM_BIMODAL["weights"], comps))
    cfg = _write_json(work / "sample-gmm.json", _sample_cfg(
        GMM_BIMODAL, "gamma_simplified", 0.3, SAMPLE_CONDITIONS, SAMPLE_REPLICATES))

    def check_gmm(res):
        x = _read_samples(res.output)[:, 0]
        return [flag("gmm.rows", x.shape == (SAMPLE_CONDITIONS * SAMPLE_REPLICATES,)),
                Check("gmm.mean_sd", abs(x.mean()) / math.sqrt(gmm_var),
                      MEAN_SE_TOL / math.sqrt(SAMPLE_CONDITIONS))]

    ops.append(cli_op("sample/gmm", "sample", cfg, work / "out-gmm", seed, check_gmm))

    # Without sampler noise (eps = 0) the spread within a group comes from the
    # boot noise alone, so AFD grows with b.
    cfg = _write_json(work / "afd-study.json", {
        "schedule": LINEAR,
        "grid": {"n_steps": N_STEPS},
        "eps_policy": {"kind": "zero"},
        "task": GMM_BIMODAL,
        "denoiser": {"kind": "analytic"},
        "sampler": {"variant": "gamma_simplified"},
        "afd": {"boot_values": [0.0, 0.25, 0.5],
                "n_conditions": AFD_CONDITIONS, "n_replicates": AFD_REPLICATES},
    })

    def check_afd(res):
        values = _read_json(res, "afd.json")["afd_values"]
        return [flag("afd.nondecreasing", all(a <= b for a, b in zip(values, values[1:])))]

    ops.append(cli_op("afd-study/gmm", "afd-study", cfg, work / "out-afd", seed, check_afd))
    return ops


def build_train(work: Path, seed: int) -> list[Op]:
    train_out = work / "out-train"
    cfg = _write_json(work / "train.json", {"schedule": LINEAR, "task": TASK_1D, "train": TRAIN})

    def check_train(res):
        mse = _read_json(res, "train.json")["test_mse_vs_analytic"]
        return [Check("train.test_mse_vs_analytic", mse, TRAIN_MSE_TOL)]

    # Training keeps the criterion-7 seed 0: at 2000 iterations the test MSE
    # depends on the training seed and exceeds 5e-3 at some seeds.
    ops = [cli_op("train-denoiser", "train-denoiser", cfg, train_out, 0, check_train)]

    cfg = _write_json(work / "sample-mlp.json", _sample_cfg(
        TASK_1D, "gamma_simplified", 0.3, SAMPLE_CONDITIONS, SAMPLE_REPLICATES,
        denoiser={"kind": "mlp", "path": str(train_out / "model.bin")}))

    def check_mlp(res):
        x = _read_samples(res.output)
        return [flag("mlp.rows", x.shape == (SAMPLE_CONDITIONS * SAMPLE_REPLICATES, 1)),
                flag("mlp.finite", bool(np.all(np.isfinite(x))))]

    ops.append(cli_op("sample/mlp", "sample", cfg, work / "out-mlp", seed, check_mlp))

    cfg = _write_json(work / "verify.json", {
        "schedule": LINEAR, "grid": {"n_steps": 4000, "rho": 1.0}})

    def check_verify(res):
        rep = _read_json(res, "verify.json")
        return [flag("verify.passed", rep["passed"]),
                Check("verify.derivative_deviation", rep["derivative_deviation"], 1e-4)]

    ops.append(cli_op("verify-schedule", "verify-schedule", cfg, work / "out-verify", seed,
                      check_verify))

    cfg = _write_json(work / "convergence.json", {
        "schedule": LINEAR, "convergence": {"dts": [0.04, 0.02, 0.01, 0.005]}})

    def check_convergence(res):
        slopes = _read_json(res, "convergence.json")["slopes"]
        return [Check(f"convergence.{k}", abs(v - 2.0), 0.2) for k, v in sorted(slopes.items())]

    ops.append(cli_op("convergence-study", "convergence-study", cfg, work / "out-conv", seed,
                      check_convergence))

    cfg = _write_json(work / "reformulation.json", {"reformulation": {"family": "vp"}})

    def check_reformulation(res):
        rep = _read_json(res, "reformulation.json")
        return [Check("reformulation.vp", rep["deviation"], rep["threshold"])]

    ops.append(cli_op("reformulation-check", "reformulation-check", cfg, work / "out-reform",
                      seed, check_reformulation))
    return ops


def build_forward(work: Path, seed: int) -> list[Op]:
    _, beta, gamma = _linear_kernel(FORWARD_T)
    ops = []
    for name, n_paths, n_steps, record in (
        ("kernel", FORWARD_PATHS, FORWARD_STEPS, False),
        ("export", EXPORT_PATHS, EXPORT_STEPS, True),
    ):
        cfg = _write_json(work / f"forward-{name}.json", {
            "schedule": LINEAR,
            "grid": {"n_steps": n_steps, "t_min": 1e-6, "t_max": FORWARD_T, "rho": 1.0},
            "forward": {"x0": [0.0], "xT": [1.0], "n_paths": n_paths, "record": record},
        })
        # Criterion 1 bounds the variance at 1e5 paths by 3%; the export op
        # has fewer paths, so its bound is four standard errors of a variance.
        var_tol = FORWARD_VAR_REL_TOL if not record else 4.0 * math.sqrt(2.0 / (n_paths - 1))

        def check(res, name=name, n_paths=n_paths, n_steps=n_steps, record=record, var_tol=var_tol):
            mom = _read_json(res, "moments.json")
            checks = [
                Check(f"{name}.mean_se", abs(mom["mean"][0] - beta) / mom["se_mean"][0],
                      MEAN_SE_TOL),
                Check(f"{name}.var_rel", abs(mom["cov"][0][0] - gamma**2) / gamma**2, var_tol),
                flag(f"{name}.n", mom["n"] == n_paths),
            ]
            if record:
                ens = bridgelab.dynamics.PathEnsemble.from_binary(
                    (res.output / "forward.traj").read_bytes())
                last = ens.paths[:, -1, 0]
                with open(res.output / "forward.csv", "rb") as fh:
                    lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
                checks += [
                    flag(f"{name}.traj_shape", ens.paths.shape == (n_paths, n_steps + 1, 1)),
                    flag(f"{name}.traj_matches_moments",
                         abs(last.mean() - mom["mean"][0]) <= 1e-12 * max(1.0, abs(last.mean()))),
                    flag(f"{name}.csv_rows", lines == n_paths * (n_steps + 1) + 1),
                ]
            return checks

        ops.append(cli_op(f"simulate-forward/{name}", "simulate-forward", cfg,
                          work / f"out-forward-{name}", seed, check))
    return ops


def build_family_check(work: Path, seed: int) -> list[Op]:
    """Criterion 2: gamma_simplified at three eta levels shares one output law.

    The three samples come from CLI ``sample`` runs; the energy test runs
    through the library at the gate's sizes on the eta = 0 / eta = 1 pair,
    the pair furthest apart in stochasticity.
    """
    ops = []
    outs = {}
    for eta in FAMILY_ETAS:
        cfg = _write_json(work / f"family-{eta}.json", _sample_cfg(
            TASK_2D, "gamma_simplified", eta, FAMILY_CONDITIONS, 1))
        outs[eta] = work / f"out-family-{eta}"
        ops.append(cli_op(f"sample/eta={eta}", "sample", cfg, outs[eta], seed))

    state = {}

    def read_samples() -> None:
        """Reads the three samples back and draws the gate's subsamples (untimed)."""
        state["x"] = x = {eta: _read_samples(outs[eta]) for eta in FAMILY_ETAS}
        sub = np.random.default_rng(seed)
        lo, hi = x[FAMILY_ETAS[0]], x[FAMILY_ETAS[-1]]
        state["a"] = lo[sub.choice(len(lo), ENERGY_SUBSAMPLE, replace=False)]
        state["b"] = hi[sub.choice(len(hi), ENERGY_SUBSAMPLE, replace=False)]

    def energy_distance() -> OpResult:
        state["ed"] = ed = bridgelab.metrics.energy_distance(state["a"], state["b"])
        return OpResult(True, {"energy_distance": _digest(ed)}, 0, ed)

    def permutation_quantile() -> OpResult:
        q95 = bridgelab.metrics.energy_permutation_quantile(
            state["a"], state["b"], n_permutations=ENERGY_PERMUTATIONS, seed=seed)
        return OpResult(True, {"q95": _digest(q95)}, 0, q95)

    def check_energy(res):
        x = state["x"]
        worst_mean, worst_cov = 0.0, 0.0
        for lo, hi in ((0.0, 0.3), (0.0, 1.0), (0.3, 1.0)):
            pa, pb = x[lo], x[hi]
            pooled = np.sqrt(pa.var(axis=0) / len(pa) + pb.var(axis=0) / len(pb))
            worst_mean = max(worst_mean, float(np.max(np.abs(pa.mean(0) - pb.mean(0)) / pooled)))
            ca, cb = np.cov(pa.T), np.cov(pb.T)
            worst_cov = max(worst_cov, float(np.max(np.abs(ca - cb) / np.abs(cb))))
        return [
            Check("family.mean_se", worst_mean, MEAN_SE_TOL),
            Check("family.cov_rel", worst_cov, FAMILY_COV_REL_TOL),
            Check("family.energy_ratio", state["ed"] / res.output, ENERGY_RATIO_TOL),
        ]

    ops.append(Op("energy_distance", energy_distance, prepare=read_samples))
    ops.append(Op("energy_permutation_quantile", permutation_quantile, check_energy))
    return ops


def _digest(value) -> str:
    return hashlib.sha256(np.asarray(value, dtype=np.float64).tobytes()).hexdigest()


BUILDERS = {
    "sample": build_sample,
    "train": build_train,
    "forward": build_forward,
    "family-check": build_family_check,
}


def build(workload: str, work: Path, seed: int) -> list[Op]:
    """Writes the workload's configs under work and returns its op cycle."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](work, seed)
