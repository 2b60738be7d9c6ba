"""End-to-end command runs: exit codes, artifacts, atomicity, determinism."""

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import cli
from bridgelab.cli import main
from bridgelab.denoiser import load_denoiser
from bridgelab.denoiser import test_mse_vs_analytic as mse_vs_analytic
from bridgelab.rng import CHUNK_ROWS
from bridgelab.schedule import SCHEDULE_KINDS

LINEAR_SCHEDULE = {"kind": "linear", "gamma_max": 0.125}
TASK_1D = {
    "kind": "joint_gaussian",
    "mean0": [0.35],
    "meanT": [0.5],
    "cov00": [[0.29]],
    "covTT": [[1.0]],
    "cov0T": [[0.5]],
}
TASK_2D = {
    **TASK_1D,
    "mean0": [0.35, 0.1],
    "meanT": [0.5, 0.2],
    "cov00": [[0.29, 0.0], [0.0, 0.2]],
    "covTT": [[1.0, 0.0], [0.0, 1.0]],
    "cov0T": [[0.5, 0.0], [0.0, 0.3]],
}
# Non-diagonal 2-d Gaussian (TASK_2D is diagonal) and a 2-d two-component mixture
TASK_2D_FULL = {
    "kind": "joint_gaussian",
    "mean0": [0.85, -0.4],
    "meanT": [0.5, -0.5],
    "cov00": [[0.754, 0.165], [0.165, 0.474]],
    "covTT": [[1.0, 0.3], [0.3, 0.8]],
    "cov0T": [[0.84, 0.11], [0.31, 0.59]],
}
GMM_2D_TASK = {
    "kind": "gmm_coupling",
    "weights": [0.4, 0.6],
    "components": [
        {key: TASK_2D_FULL[key] for key in ("mean0", "meanT", "cov00", "covTT", "cov0T")},
        {"mean0": [-0.6, 0.9], "meanT": [-0.4, 0.7], "cov00": [[0.5, -0.1], [-0.1, 0.3]],
         "covTT": [[0.6, 0.1], [0.1, 0.9]], "cov0T": [[0.2, 0.05], [-0.1, 0.25]]},
    ],
}
GMM_TASK = {
    "kind": "gmm_coupling",
    "weights": [0.5, 0.5],
    "components": [
        {"mean0": [-1.5], "meanT": [-0.2], "cov00": [[0.05]], "covTT": [[0.4]], "cov0T": [[0.05]]},
        {"mean0": [1.5], "meanT": [0.2], "cov00": [[0.05]], "covTT": [[0.4]], "cov0T": [[0.05]]},
    ],
}


def _write_config(tmp_path, name: str, cfg: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _argv(command: str, config_path: str, out_dir, seed: int = 0, threads: int = 1) -> list:
    return [command, "--config", config_path, "--out", str(out_dir), "--seed", str(seed),
            "--threads", str(threads)]


def _run(command: str, config_path: str, out_dir, seed: int = 0, threads: int = 1) -> int:
    return main(_argv(command, config_path, out_dir, seed, threads))


def _read_json(out_dir, name: str) -> dict:
    with open(os.path.join(str(out_dir), name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(out_dir, name: str) -> bytes:
    with open(os.path.join(str(out_dir), name), "rb") as fh:
        return fh.read()


class TestParser:
    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, capsys):
        """Two commands and a bad flag in one process build the parser once, and
        the bad flag gets the usage text and exit code of a freshly built one."""
        cli._parser.cache_clear()
        verify = _write_config(tmp_path, "v.json",
                               {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}})
        reform = _write_config(tmp_path, "r.json", {"reformulation": {"family": "vp"}})
        assert _run("verify-schedule", verify, tmp_path / "v") == 0
        assert _run("reformulation-check", reform, tmp_path / "r") == 0
        capsys.readouterr()
        bad = ["sample", "--config", verify, "--bogus", "1"]
        with pytest.raises(SystemExit) as cached:
            main(bad)
        cached_err = capsys.readouterr().err
        assert cli._parser.cache_info().misses == 1
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as fresh:
            main(bad)
        assert cached.value.code == fresh.value.code == 2
        assert cached_err == capsys.readouterr().err
        assert cached_err.startswith("usage: bridgelab ")
        assert "error: unrecognized arguments: --bogus 1" in cached_err


class TestVerifySchedule:
    CONFIG = {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 16}}

    def test_passes_and_writes_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path, "c.json", self.CONFIG)
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "schedule.csv", "verify.json"]
        verify = _read_json(out, "verify.json")
        assert verify["passed"] is True
        assert verify["endpoint_deviation"] <= 1e-9
        assert verify["min_gamma"] > 0

    def test_csv_has_header_and_full_precision(self, tmp_path):
        cfg = _write_config(tmp_path, "c.json", self.CONFIG)
        out = tmp_path / "out"
        _run("verify-schedule", cfg, out)
        lines = _read_bytes(out, "schedule.csv").decode().strip().split("\n")
        assert lines[0] == "t,alpha,beta,gamma,d_alpha,d_beta,d_gamma,f,s,g_sq"
        assert len(lines) == 1 + 17
        cells = lines[-1].split(",")
        # the last grid point is t_max = 0.9999 printed at full precision
        assert cells[0] == "0.99990000000000001"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "c.json", self.CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        _run("verify-schedule", cfg, out_a)
        _run("verify-schedule", cfg, out_b)
        for name in ("schedule.csv", "verify.json"):
            assert _read_bytes(out_a, name) == _read_bytes(out_b, name)

    def test_grid_reaching_T_reports_the_singular_endpoint(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json", {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 16, "t_max": 1.0}}
        )
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 2
        assert sorted(os.listdir(out)) == ["manifest.json", "schedule.csv", "verify.json"]
        verify = _read_json(out, "verify.json")
        assert verify["passed"] is False
        assert verify["derivative_deviation"] <= 1e-4
        assert any("alpha(1.0) = 0.0 is singular" in f for f in verify["failures"])
        last = _read_bytes(out, "schedule.csv").decode().strip().split("\n")[-1].split(",")
        assert last[:4] == ["1", "0", "1", "0"]

    def test_unpinned_schedule_fails_the_endpoint_check(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "c.json", {"schedule": {"kind": "edm"}, "grid": {"n_steps": 8}})
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 2
        verify = _read_json(out, "verify.json")
        assert verify["endpoint_deviation"] == 1.0 and verify["passed"] is False
        assert "numerical failure: endpoint pinning deviates by 1.0" in capsys.readouterr().err

    def test_grid_near_the_square_root_endpoint_fails_the_derivative_check(self, tmp_path, capsys):
        """gamma ~ sqrt(t) near 0: a 1e-6 central difference at t = 1e-5 is off by 1.3e-3."""
        cfg = _write_config(tmp_path, "c.json",
                            {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 8, "t_min": 1e-5}})
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 2
        verify = _read_json(out, "verify.json")
        assert 1e-4 < verify["derivative_deviation"] < 1e-2 and verify["endpoint_deviation"] == 0
        assert ("analytic derivatives deviate from central differences"
                in capsys.readouterr().err)

    def test_i2sb_breakpoints_on_the_grid_are_not_differenced(self, tmp_path):
        """The rate jumps at 0.3 and 0.7, both grid points; a difference across a jump is no
        derivative, so those points are left out of the check."""
        schedule = {"kind": "i2sb", "i2sb_breakpoints": [0.0, 0.3, 0.7, 1.0],
                    "i2sb_values": [0.1, 0.3, 0.2]}
        grid = {"n_steps": 4, "t_min": 0.1, "t_max": 0.9, "rho": 1.0}
        cfg = _write_config(tmp_path, "c.json", {"schedule": schedule, "grid": grid})
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 0
        verify = _read_json(out, "verify.json")
        assert verify["passed"] is True and verify["derivative_deviation"] <= 1e-4

    @pytest.mark.parametrize("kind", [kind for kind in SCHEDULE_KINDS if kind != "edm"])
    def test_every_pinned_kind_passes_with_its_analytic_derivatives(self, kind, tmp_path):
        """Each pinned kind's defaults pass every check on the default grid: its analytic
        derivatives agree with central differences, with no finite-difference fallback."""
        cfg = _write_config(tmp_path, "c.json", {"schedule": {"kind": kind}, "grid": {"n_steps": 16}})
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 0
        verify = _read_json(out, "verify.json")
        assert verify["passed"] is True and verify["failures"] == []
        assert verify["schedule_kind"] == kind
        assert verify["derivative_deviation"] <= 1e-4 and verify["endpoint_deviation"] <= 1e-9

    def test_manifest_echoes_config_without_out(self, tmp_path):
        cfg_dict = {**self.CONFIG, "out": "ignored-dir"}
        cfg = _write_config(tmp_path, "c.json", cfg_dict)
        out = tmp_path / "out"
        _run("verify-schedule", cfg, out, seed=11, threads=2)
        manifest = _read_json(out, "manifest.json")
        assert manifest["command"] == "verify-schedule"
        assert "out" not in manifest["config"]
        assert manifest["config"]["seed"] == 11
        assert manifest["seed"] == 11
        assert manifest["threads"] == 2
        assert manifest["wall_time_s"] >= 0
        for key in ("bridgelab", "numpy", "python"):
            assert key in manifest["versions"]
        assert "scipy" not in manifest["versions"]


class TestConfigErrors:
    def test_unknown_key_exits_1_without_artifacts(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {"schedule": {**LINEAR_SCHEDULE, "bogus": 1}, "grid": {"n_steps": 4}},
        )
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("schedule", [
        {"kind": "linear", "beta_d": -5.0},
        {"kind": "linear", "gamma_scale": 99.0},
        {"kind": "linear", "i2sb_values": [3.0]},
        {"kind": "trig", "gamma_max": -1.0},
        {"kind": "edm", "gamma_multiplier": 0.5},
    ], ids=["linear-beta_d", "linear-gamma_scale", "linear-i2sb_values", "trig-gamma_max",
            "edm-gamma_multiplier"])
    def test_schedule_key_of_another_kind_exits_1(self, tmp_path, capsys, schedule):
        cfg = _write_config(tmp_path, "c.json", {"schedule": schedule, "grid": {"n_steps": 4}})
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out) == 1
        assert not out.exists()
        assert "schedule: unknown key(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("reformulation", [
        {"family": "ve", "beta_d": 3.0},
        {"family": "ve", "i2sb_breakpoints": [0.2, 0.5]},
        {"family": "edm", "beta_min": 0.1},
        {"family": "vp", "i2sb_values": [1.0]},
        {"family": "i2sb", "beta_d": 3.0},
    ], ids=["ve-beta_d", "ve-i2sb_breakpoints", "edm-beta_min", "vp-i2sb_values", "i2sb-beta_d"])
    def test_reformulation_key_of_another_family_exits_1(self, tmp_path, capsys, reformulation):
        cfg = _write_config(tmp_path, "c.json", {"reformulation": reformulation})
        out = tmp_path / "out"
        assert _run("reformulation-check", cfg, out) == 1
        assert not out.exists()
        assert "reformulation: unknown key(s)" in capsys.readouterr().err

    def test_schedule_spec_has_every_kind_but_custom(self):
        assert tuple(cli._SPECS["schedule"]["kind"]) == tuple(
            kind for kind in SCHEDULE_KINDS if kind != "custom")

    def test_missing_config_file_exits_1(self, tmp_path):
        assert _run("verify-schedule", str(tmp_path / "nope.json"), tmp_path / "out") == 1

    def test_invalid_json_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert _run("verify-schedule", str(path), tmp_path / "out") == 1

    def test_integer_too_long_to_convert_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"schedule": {"kind": "linear"}, "grid": {"n_steps": 1%s}}' % ("0" * 5000))
        out = tmp_path / "out"
        assert _run("verify-schedule", str(path), out) == 1
        assert not out.exists()
        assert "config: invalid JSON" in capsys.readouterr().err

    def test_missing_seed_exits_1(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json", {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}}
        )
        code = main(["verify-schedule", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1

    def test_boolean_seed_in_config_exits_1(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}, "seed": True},
        )
        code = main(["verify-schedule", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1

    def test_top_level_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        out = tmp_path / "out"
        assert _run("verify-schedule", str(path), out) == 1
        assert not out.exists()
        assert "config: top level must be an object" in capsys.readouterr().err

    def test_missing_out_exits_1(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, "c.json", {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}}
        )
        assert main(["verify-schedule", "--config", cfg, "--seed", "0"]) == 1
        assert "out: an output directory is required" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [0, -2])
    def test_non_positive_thread_count_exits_1(self, tmp_path, capsys, threads):
        cfg = _write_config(
            tmp_path, "c.json", {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}}
        )
        out = tmp_path / "out"
        assert _run("verify-schedule", cfg, out, threads=threads) == 1
        assert not out.exists()
        assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err

    def test_seed_in_config_suffices(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}, "seed": 3},
        )
        out = tmp_path / "out"
        assert main(["verify-schedule", "--config", cfg, "--out", str(out)]) == 0
        assert _read_json(out, "manifest.json")["seed"] == 3

    def test_custom_schedule_has_no_config_form(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json", {"schedule": {"kind": "custom"}, "grid": {"n_steps": 4}}
        )
        assert _run("verify-schedule", cfg, tmp_path / "out") == 1

    def test_non_psd_task_exits_1_without_artifacts(self, tmp_path):
        bad_task = {**TASK_1D, "cov00": [[0.04]]}
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 4},
                "eps_policy": {"kind": "zero"},
                "task": bad_task,
                "denoiser": {"kind": "analytic"},
                "sampler": {},
                "sample": {"n_conditions": 4},
            },
        )
        out = tmp_path / "out"
        assert _run("sample", cfg, out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["task", "task.components[1]"])
    def test_singular_covTT_exits_1_and_names_the_task(self, tmp_path, capsys, where):
        """A degenerate xT marginal passes the joint PSD check but has no Cholesky factor."""
        singular = {"mean0": [0.35], "meanT": [0.5], "cov00": [[0.29]], "covTT": [[0.0]],
                    "cov0T": [[0.0]]}
        if where == "task":
            task = {"kind": "joint_gaussian", **singular}
        else:
            task = {**GMM_TASK, "components": [GMM_TASK["components"][0], singular]}
        cfg = _write_config(tmp_path, "c.json", {**SAMPLE_CONFIG, "task": task})
        out = tmp_path / "out"
        assert _run("sample", cfg, out) == 1
        assert not out.exists()
        assert f"{where}: covTT must be positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, literal",
        [
            ("sampler", "boot_b", "NaN"),
            ("sampler", "boot_b", "1e400"),
            ("sampler", "boot_b", "1" + "0" * 400),
            ("schedule", "gamma_max", "Infinity"),
            ("task", "mean0", "[-Infinity]"),
            ("task", "cov0T", "[[NaN]]"),
        ],
        ids=["nan", "overflow-float", "overflow-int", "infinity", "array-inf", "matrix-nan"],
    )
    def test_non_finite_number_exits_1_without_artifacts(
        self, tmp_path, capsys, section, key, literal
    ):
        cfg = {**TestSample.CONFIG, "sample": {"n_conditions": 4}}
        cfg[section] = {**cfg[section], key: "PLACEHOLDER"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', literal))
        out = tmp_path / "out"
        assert _run("sample", str(path), out) == 1
        assert not out.exists()
        assert f"{section}.{key}" in capsys.readouterr().err


AFD_CONFIG = {
    "schedule": LINEAR_SCHEDULE,
    "grid": {"n_steps": 8},
    "eps_policy": {"kind": "zero"},
    "task": TASK_1D,
    "denoiser": {"kind": "analytic"},
    "sampler": {},
    "afd": {
        "boot_values": [0.0, 0.5],
        "n_conditions": 3,
        "n_replicates": 4,
        "feature": {"kind": "random_projection", "d_out": 1, "seed": -1},
    },
}
CONVERGENCE_DTS = [0.04, 0.02, 0.01]
SAMPLE_CONFIG = {
    "schedule": LINEAR_SCHEDULE,
    "grid": {"n_steps": 8},
    "eps_policy": {"kind": "zero"},
    "task": TASK_1D,
    "denoiser": {"kind": "analytic"},
    "sampler": {},
    "sample": {"n_conditions": 4},
}


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("train-denoiser",
         {"schedule": LINEAR_SCHEDULE, "task": TASK_1D, "train": {"t_min": 0.5, "t_max": 0.4}},
         "train: need 0 < t_min < t_max"),
        ("train-denoiser",
         {"schedule": LINEAR_SCHEDULE, "task": TASK_1D, "train": {"t_max": 1.5}},
         "train: need 0 < t_min < t_max"),
        ("train-denoiser",
         {"schedule": LINEAR_SCHEDULE, "task": TASK_1D, "train": {"iters": 1},
          "prec": {"sigma0": -0.5}},
         "prec.sigma0"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE, "convergence": {"dts": CONVERGENCE_DTS, "t": 2.0}},
         "convergence.t"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE, "convergence": {"dts": CONVERGENCE_DTS, "d": 0}},
         "convergence.d"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE, "convergence": {"dts": CONVERGENCE_DTS, "n_probes": -1}},
         "n_probes"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE,
          "convergence": {"dts": CONVERGENCE_DTS, "slope_range": ["a", 1]}},
         "convergence.slope_range"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE, "convergence": {"dts": CONVERGENCE_DTS, "eta": 1.5}},
         "convergence.eta"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE, "convergence": {"dts": CONVERGENCE_DTS, "pairs": 5}},
         "convergence.pairs"),
        ("reformulation-check", {"reformulation": {"family": "ve", "n_points": 0}}, "n_points"),
        ("reformulation-check", {"reformulation": {"family": "ve", "n_probes": 0}}, "n_probes"),
        ("afd-study", AFD_CONFIG, "afd.feature.seed"),
        ("reformulation-check", {"reformulation": {"family": "vp", "beta_d": -1.0}},
         "reformulation"),
        ("reformulation-check",
         {"reformulation": {"family": "i2sb", "i2sb_breakpoints": [0.0, 0.5]}},
         "reformulation"),
        ("sample",
         {**SAMPLE_CONFIG, "task": {**TASK_1D, "mean0": [0.35, 0.1], "meanT": [0.5, 0.2]}},
         "task: cov00"),
        ("sample", {**SAMPLE_CONFIG, "task": {**TASK_1D, "cov00": [[[0.29]]]}}, "task.cov00"),
        ("verify-schedule",
         {"schedule": {"kind": "i2sb", "i2sb_breakpoints": 0.5}, "grid": {"n_steps": 4}},
         "schedule.i2sb_breakpoints"),
        ("train-denoiser",
         {"schedule": LINEAR_SCHEDULE, "task": TASK_1D, "train": {"iters": 1},
          "precs": {"sigma0": 7.0}},
         "precs"),
        ("sample", {**SAMPLE_CONFIG, "task": {**TASK_1D, "mean0": ["0.35"]}}, "task.mean0"),
        ("sample", {**SAMPLE_CONFIG, "task": {**TASK_1D, "covTT": [[True]]}}, "task.covTT"),
        ("sample", {k: v for k, v in SAMPLE_CONFIG.items() if k != "sample"},
         "sample: required section is missing"),
        ("train-denoiser",
         {"schedule": LINEAR_SCHEDULE, "task": TASK_1D, "train": {"iters": 1},
          "prec": {"estimate_from": 64, "sigma0": 0.5}},
         "prec: estimate_from excludes ['sigma0']"),
        ("afd-study",
         {**AFD_CONFIG, "afd": {**AFD_CONFIG["afd"], "feature": {"kind": "identity"},
                                "boot_values": []}},
         "afd.boot_values: expected a non-empty list of values >= 0"),
        ("afd-study",
         {**AFD_CONFIG, "afd": {**AFD_CONFIG["afd"], "feature": {"kind": "identity"},
                                "boot_values": [0.0, -0.5]}},
         "afd.boot_values: expected a non-empty list of values >= 0"),
        ("convergence-study", {"schedule": LINEAR_SCHEDULE, "convergence": {"dts": [0.04, 0.02]}},
         "convergence.dts: need >= 3 positive step sizes"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE, "convergence": {"dts": [0.04, 0.02, 0.6], "t": 0.5}},
         "convergence.dts: need >= 3 positive step sizes"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE,
          "convergence": {"dts": CONVERGENCE_DTS, "pairs": [["euler_z", "dbim", "markovian"]]}},
         "convergence.pairs[0]: expected a pair of variant names"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE,
          "convergence": {"dts": CONVERGENCE_DTS, "pairs": [["euler_z", "dbim"], "dbim"]}},
         "convergence.pairs[1]: expected a pair of variant names"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE,
          "convergence": {"dts": CONVERGENCE_DTS, "slope_range": [2.2, 1.8]}},
         "convergence.slope_range: expected [lo, hi] with lo <= hi"),
        ("convergence-study",
         {"schedule": LINEAR_SCHEDULE,
          "convergence": {"dts": CONVERGENCE_DTS, "slope_range": [1.8, 2.0, 2.2]}},
         "convergence.slope_range: expected [lo, hi] with lo <= hi"),
        ("reformulation-check", {"reformulation": {"family": "ve", "t_lo": 0.9, "t_hi": 0.1}},
         "reformulation.t_lo/t_hi: need 0 < t_lo < t_hi < 1"),
        ("reformulation-check", {"reformulation": {"family": "ve", "t_hi": 1.0}},
         "reformulation.t_lo/t_hi: need 0 < t_lo < t_hi < 1"),
        ("simulate-forward",
         {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4},
          "forward": {"x0": [0.0], "xT": [1.0], "n_paths": 1}},
         "forward.n_paths: expected an integer >= 2, got 1"),
    ],
    ids=["train-t-order", "train-t-max", "train-prec-sigma0", "convergence-t", "convergence-d",
         "convergence-n-probes", "convergence-slope-range", "convergence-eta",
         "convergence-pairs", "reformulation-n-points",
         "reformulation-n-probes", "afd-feature-seed", "reformulation-vp-beta-d",
         "reformulation-i2sb-breakpoints", "task-2d-means-1x1-blocks", "task-3d-cov",
         "schedule-scalar-breakpoints", "top-level-unknown-section", "array-string-leaf",
         "array-boolean-leaf", "missing-section", "prec-estimate-from-excludes",
         "afd-boot-values-empty", "afd-boot-values-negative", "convergence-dts-too-few",
         "convergence-dts-above-t", "convergence-pairs-triple", "convergence-pairs-string",
         "convergence-slope-range-reversed", "convergence-slope-range-length",
         "reformulation-t-order", "reformulation-t-hi-at-T", "forward-one-path"],
)
def test_bad_config_value_exits_1_and_names_the_field(tmp_path, capsys, command, cfg, field):
    out = tmp_path / "out"
    assert _run(command, _write_config(tmp_path, "c.json", cfg), out) == 1
    assert not out.exists()
    assert field in capsys.readouterr().err


class TestArtifactMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
    def test_artifacts_take_the_umask_mode(self, tmp_path, umask, mode):
        cfg = _write_config(
            tmp_path, "c.json", {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}}
        )
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert _run("verify-schedule", cfg, out) == 0
        finally:
            os.umask(previous)
        for name in os.listdir(out):
            assert os.stat(out / name).st_mode & 0o777 == mode, name


class TestOutputErrors:
    """An output that cannot be written exits 1 with one line and leaves no file behind."""

    FORWARD = {
        "schedule": LINEAR_SCHEDULE,
        "grid": {"n_steps": 10},
        "forward": {"x0": [0.0], "xT": [1.0], "n_paths": 20, "record": True},
    }

    def test_out_that_is_a_regular_file_exits_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "c.json", self.FORWARD)
        out = tmp_path / "out"
        out.write_bytes(b"keep")
        assert _run("simulate-forward", cfg, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert str(out) in err
        assert out.read_bytes() == b"keep"
        assert sorted(os.listdir(tmp_path)) == ["c.json", "out"]

    def test_artifact_path_that_is_a_directory_renames_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "c.json", self.FORWARD)
        out = tmp_path / "out"
        (out / "forward.traj").mkdir(parents=True)
        assert _run("simulate-forward", cfg, out) == 1
        assert "forward.traj is a directory" in capsys.readouterr().err
        assert os.listdir(out) == ["forward.traj"]

    @pytest.mark.parametrize("error", [OSError, RuntimeError])
    def test_encoder_failing_after_the_first_temp_file_leaves_the_directory_as_it_was(
        self, tmp_path, capsys, monkeypatch, error
    ):
        cfg = _write_config(tmp_path, "c.json", self.FORWARD)
        out = tmp_path / "out"
        assert _run("simulate-forward", cfg, out, seed=1) == 0
        before = {name: _read_bytes(out, name) for name in os.listdir(out)}
        seen = []

        def failing_encoder(header, columns):
            seen.extend(os.listdir(out))
            yield b"path_id,time,x_0\n"
            raise error(28, "No space left on device")

        monkeypatch.setattr(cli, "_csv_blocks", failing_encoder)
        if error is OSError:
            assert _run("simulate-forward", cfg, out, seed=2) == 1
            assert capsys.readouterr().err.startswith(f"output error: cannot write {str(out)!r}")
        else:
            with pytest.raises(RuntimeError):
                _run("simulate-forward", cfg, out, seed=2)
        # moments.json, written before forward.csv, had its temp file when the encoder ran
        assert any(name.startswith(".moments.json.") for name in seen)
        assert {name: _read_bytes(out, name) for name in os.listdir(out)} == before


def _ulps(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


ARRAY_MIN_ROWS = cli._ARRAY_MIN_ROWS


class TestCsvEncoder:
    """The encoder against format(v, ".17g") and str(v), cell by cell.  Tables shorter than
    cli._ARRAY_MIN_ROWS, and tables with a label column, take the template; these tests lower
    the row count to 1 so that the array path encodes every numeric table of at least one
    row; one test restores the default."""

    @pytest.fixture(autouse=True)
    def _array_path_from_one_row(self, monkeypatch):
        monkeypatch.setattr(cli, "_ARRAY_MIN_ROWS", 1)

    # Each side of the fixed-notation bounds, the template's values (zeros, subnormals, nan,
    # inf, large and tiny), ties, and fast-path values with trailing zeros or a long prefix.
    EDGES = [
        -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 1 / 3, 1e-7, 0.1, -2.5e-300,
        *_ulps(cli._FIXED_LO), *_ulps(-cli._FIXED_HI), 1.0, -1.0, 1e15 + 0.625, 123456.5,
        0.00012345678901234567, -98765432109876.5,
    ]

    @staticmethod
    def _reference(header, columns) -> bytes:
        """Row by row: labels as str, floats with format(x, ".17g")."""
        lines = [",".join(header)]
        for row in zip(*columns):
            lines.append(",".join(
                str(v) if isinstance(v, (int, str)) else format(v, ".17g") for v in row
            ))
        return "".join(line + "\n" for line in lines).encode()

    def _assert_matches(self, *columns):
        """The columns as arrays, encoded, against their values as Python objects."""
        header = [f"c{j}" for j in range(len(columns))]
        columns = [np.asarray(col) for col in columns]
        got = b"".join(cli._csv_blocks(header, columns))
        assert got == self._reference(header, [col.tolist() for col in columns])

    @pytest.mark.parametrize("label", ["int", "str"])
    @pytest.mark.parametrize("position", [0, 1], ids=["first", "middle"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["0", "B-1", "B", "B+1"])
    def test_matches_a_row_wise_reference_byte_for_byte(self, label, position, offset):
        n = 0 if offset is None else cli._BLOCK_ROWS + offset
        edges = (self.EDGES * (n // len(self.EDGES) + 1))[:n]
        labels = list(range(-3, n - 3)) if label == "int" else [f"v{i}|w\u00e9" for i in range(n)]
        columns = [edges, edges[::-1]]
        columns.insert(position, labels)
        header = ["a", "b", "c"]
        got = b"".join(cli._csv_blocks(header, [np.array(col) for col in columns]))
        assert got == self._reference(header, columns)
        assert got.count(b"\n") == 1 + n

    def test_powers_of_ten_and_their_neighbours(self):
        """10^k and one ulp either side, for k = -6..18: E and the digits change there."""
        values = [v for k in range(-6, 19) for v in _ulps(float(10**k) if k >= 0 else 10.0**k)]
        self._assert_matches(values, [-v for v in values])

    def test_no_double_rounds_to_a_power_of_ten(self):
        """The encoder's range check relies on it: the double closest below each 10^m in
        the fixed range is more than half a unit of the 17th digit away (5e-17 relative),
        so at 17 digits it neither rounds up to 10^m nor, scaled by one power too few,
        up to 10^16."""
        for m in range(-4, 18):
            power = Fraction(10) ** m
            below = float(power)
            if Fraction(below) >= power:
                below = math.nextafter(below, 0.0)
            assert (power - Fraction(below)) / power > Fraction(5, 10**17), m

    def test_largest_values_below_each_power_of_ten(self):
        """The cells closest to a carry: no double below 10^k rounds up to 10^k at 17 digits,
        so D stays below 10^17, and its digits are nines or end in them."""
        values = [math.nextafter(10.0**k, 0.0) for k in range(-4, 18)]
        values += [float(10**17 - 16 * i) for i in range(1, 5)]
        self._assert_matches(values)
        assert all(format(v, ".17g").replace(".", "").lstrip("0")[:15] == "9" * 15
                   for v in values[:-4])

    def test_exact_ties_round_half_to_even(self):
        """1e15 + k/8 is a double whose 17th digit is an exact half for odd k."""
        values = [1e15 + k / 8 for k in range(-64, 65)]
        assert format(1e15 + 1 / 8, ".17g") == "1000000000000000.1"  # .125 rounds down
        self._assert_matches(values, [-v for v in values])

    def test_subnormals_and_non_finite_values(self):
        values = [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
                  math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                  -1.2345678901234567e-300]  # 24 characters, the template's longest
        self._assert_matches(values, values[::-1])

    def test_integer_extremes_and_wide_integers(self):
        values = [-(2**63), 2**63 - 1, 0, -1, 10**16, -(10**16), 10**16 - 1, 10**17, 10**18 + 7]
        self._assert_matches(values, [7, -7, 0, 1, 99999999, 100000000, -100000000, 12, 3])
        self._assert_matches(np.array([2**64 - 1, 0, 10**19], dtype=np.uint64))

    def test_a_table_with_labels_takes_the_template(self, monkeypatch):
        monkeypatch.setattr(cli, "_put_floats", None)  # the array path would call it
        self._assert_matches(["a|b", "", "\u00e9\u00e8\u20ac", "x" * 40], [1.5, 2.5, 3.5, 4.5])

    @pytest.mark.parametrize("n", [1, ARRAY_MIN_ROWS - 1, ARRAY_MIN_ROWS])
    def test_either_side_of_the_default_array_min_rows(self, monkeypatch, n):
        monkeypatch.setattr(cli, "_ARRAY_MIN_ROWS", ARRAY_MIN_ROWS)
        edges = (self.EDGES * (n // len(self.EDGES) + 1))[:n]
        self._assert_matches(list(range(n)), edges)

    def test_random_bit_patterns(self):
        """2e5 float64 bit patterns, seeded: every exponent, half of them negative."""
        bits = np.random.default_rng(27).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64).tolist()
        self._assert_matches(values[:100_000], values[100_000:])

    def test_random_values_in_the_fixed_range(self):
        """1e5 values spread over every decimal exponent of the fast path, seeded."""
        rng = np.random.default_rng(28)
        values = (rng.random(100_000) * 10.0 ** rng.integers(-4, 17, 100_000)).tolist()
        self._assert_matches(values)


class TestReformulationCheck:
    @pytest.mark.parametrize("family", ["ve", "vp", "edm", "i2sb"])
    def test_each_family_passes_default_threshold(self, tmp_path, family):
        cfg = _write_config(tmp_path, "c.json", {"reformulation": {"family": family}})
        out = tmp_path / f"out_{family}"
        assert _run("reformulation-check", cfg, out) == 0
        report = _read_json(out, "reformulation.json")
        assert report["passed"] is True
        assert report["deviation"] <= 1e-8

    def test_unreachable_threshold_exits_2_with_artifacts(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json", {"reformulation": {"family": "vp", "threshold": 1e-30}}
        )
        out = tmp_path / "out"
        assert _run("reformulation-check", cfg, out) == 2
        report = _read_json(out, "reformulation.json")
        assert report["passed"] is False
        assert os.path.isfile(os.path.join(str(out), "manifest.json"))

    def test_unknown_family_exits_1(self, tmp_path):
        cfg = _write_config(tmp_path, "c.json", {"reformulation": {"family": "cosine"}})
        assert _run("reformulation-check", cfg, tmp_path / "out") == 1


class TestSample:
    CONFIG = {
        "schedule": LINEAR_SCHEDULE,
        "grid": {"n_steps": 8},
        "eps_policy": {"kind": "eta_scaled", "eta": 0.3},
        "task": TASK_1D,
        "denoiser": {"kind": "analytic"},
        "sampler": {"variant": "gamma_simplified", "boot_b": 0.25},
        "sample": {"n_conditions": 50, "n_replicates": 2},
    }

    def test_writes_expected_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path, "c.json", self.CONFIG)
        out = tmp_path / "out"
        assert _run("sample", cfg, out, seed=7) == 0
        names = sorted(os.listdir(out))
        assert names == ["diagnostics.json", "manifest.json", "moments.json", "sample.csv"]
        lines = _read_bytes(out, "sample.csv").decode().strip().split("\n")
        assert lines[0] == "row_id,replicate_id,x_0"
        assert len(lines) == 1 + 100
        assert lines[1].startswith("0,0,")
        assert lines[2].startswith("0,1,")
        assert lines[3].startswith("1,0,")
        diag = _read_json(out, "diagnostics.json")
        assert len(diag["eps_used"]) == 8
        assert diag["x0hat_change"][0] is None
        moments = _read_json(out, "moments.json")
        assert moments["n"] == 100

    def test_thread_count_leaves_artifacts_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "c.json", self.CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert _run("sample", cfg, out_a, seed=7, threads=1) == 0
        assert _run("sample", cfg, out_b, seed=7, threads=4) == 0
        for name in ("sample.csv", "moments.json", "diagnostics.json"):
            assert _read_bytes(out_a, name) == _read_bytes(out_b, name)

    def test_grid_reaching_T_fails_with_a_named_error(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, "c.json", {**self.CONFIG, "grid": {"n_steps": 8, "t_max": 1.0}}
        )
        out = tmp_path / "out"
        assert _run("sample", cfg, out) == 2
        assert not out.exists()
        assert "gamma(1.0) = 0.0 is singular" in capsys.readouterr().err

    @pytest.mark.parametrize("task, boot_b, match", [
        (GMM_TASK, 1e160, r"rows \[0:10\), step 7 at t = 0\.9999: "
                          r"the mixture quadratic form of row \d+ of 10 is not finite"),
        (TASK_1D, 1e306, r"rows \[0:10\), step \d+ at t = 0\.\d+: "
                         r"the x0hat change is not finite"),
        (TASK_1D, 1e154, r"the mean or covariance of the 10 sample rows is not finite"),
    ], ids=["mixture", "gaussian", "gaussian-moments"])
    def test_overflow_exits_2_naming_rows_step_and_t(self, tmp_path, capsys, task, boot_b, match):
        """Before, each exited 0: nan rows and a null mean, or an infinite covariance."""
        cfg = {**self.CONFIG, "task": task, "sampler": {**self.CONFIG["sampler"], "boot_b": boot_b},
               "sample": {"n_conditions": 5, "n_replicates": 2}}
        out = tmp_path / "out"
        assert _run("sample", _write_config(tmp_path, "c.json", cfg), out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and re.search(match, err), err

    def test_trajectory_artifact_when_requested(self, tmp_path):
        cfg_dict = {
            **self.CONFIG,
            "sampler": {**self.CONFIG["sampler"], "record_trajectory": True},
            "sample": {"n_conditions": 5, "n_replicates": 2},
        }
        cfg = _write_config(tmp_path, "c.json", cfg_dict)
        out = tmp_path / "out"
        assert _run("sample", cfg, out) == 0
        from bridgelab.dynamics import PathEnsemble

        ens = PathEnsemble.from_binary(_read_bytes(out, "sample.traj"))
        assert ens.paths.shape == (10, 9, 1)

    def test_csv_groups_replicates_and_holds_the_last_trajectory_slice(self, tmp_path):
        cfg_dict = {
            **self.CONFIG,
            "task": TASK_2D,
            "sampler": {**self.CONFIG["sampler"], "record_trajectory": True},
            "sample": {"n_conditions": 5, "n_replicates": 3},
        }
        out = tmp_path / "out"
        assert _run("sample", _write_config(tmp_path, "c.json", cfg_dict), out) == 0
        from bridgelab.dynamics import PathEnsemble

        ens = PathEnsemble.from_binary(_read_bytes(out, "sample.traj"))
        header, *lines = _read_bytes(out, "sample.csv").decode().splitlines()
        assert header == "row_id,replicate_id,x_0,x_1"
        rows = [line.split(",") for line in lines]
        ids = [(int(r[0]), int(r[1])) for r in rows]
        assert ids == [(i, k) for i in range(5) for k in range(3)]
        x = np.array([[float(v) for v in r[2:]] for r in rows])
        assert x.tobytes() == ens.paths[:, -1, :].tobytes()

    # sha256 of each artifact, computed while the analytic denoiser had an
    # uncached twin and shaped its inputs in the posterior-mean routine.
    def test_gmm_artifact_bytes_are_pinned(self, tmp_path):
        cfg = {**self.CONFIG, "grid": {"n_steps": 12}, "task": GMM_TASK,
               "sample": {"n_conditions": 6, "n_replicates": 4}}
        out = tmp_path / "out"
        assert _run("sample", _write_config(tmp_path, "c.json", cfg), out, seed=3) == 0
        digests = {
            "sample.csv": "ce706ab8b680e938c43744fcd1ce699e24395f09260a4d6367cfc6602e62c952",
            "moments.json": "f1a2e1deb4c8ef36b19d811dc9dbc64b94ddc571f5f46486a118aa28fd89e25b",
            "diagnostics.json": "735b0f7e88c30236f5dd89ccb39a9cb17b873b5b55e4d775de5370ca594b9830",
        }
        for name, digest in digests.items():
            assert hashlib.sha256(_read_bytes(out, name)).hexdigest() == digest, name

    # sha256 computed while the encoded artifacts were held in memory before writing
    def test_trajectory_bytes_are_pinned(self, tmp_path):
        cfg = {**self.CONFIG, "task": TASK_2D,
               "sampler": {**self.CONFIG["sampler"], "record_trajectory": True},
               "sample": {"n_conditions": 5, "n_replicates": 3}}
        out = tmp_path / "out"
        assert _run("sample", _write_config(tmp_path, "c.json", cfg), out, seed=7) == 0
        digests = {
            "sample.traj": "653cea8774330cc9886dc9f6a00779cc0677c47f90fe54e5bd3895b8a2ebe03e",
            "sample.csv": "f191aea6e430dc6516e0356b87826ebb8325fd5eed7157ba53b56cc573b49726",
        }
        for name, digest in digests.items():
            assert hashlib.sha256(_read_bytes(out, name)).hexdigest() == digest, name


    # sha256 of each artifact, computed before the posterior mean ran along the
    # rows; 4097 rows leave a last chunk of one row.
    PINS_4097_ROWS = {
        "gaussian-2d": (TASK_2D_FULL, {
            "sample.csv": "655be76f2dcecc5078ab7024ce6b731a5c94d4d9bffbed47903db6ad8c22a0b4",
            "moments.json": "b40b8352d5fc763dd2aaef1ea85806b79c8bd1fc39cd5c0d62305f11e8a15dcd",
            "diagnostics.json": "9f275d7b59c423d86ea7dd4a1c7d7df0e44bd9f8871d12c656d7e3b968234924",
        }),
        "mixture-2d": (GMM_2D_TASK, {
            "sample.csv": "9eb85710a79f088113b680d09e6de2513fdbb8caa2f96f763a6f4d4da53d0f31",
            "moments.json": "ae0af9665b0509356795b4f729c4469897b063cc1ef6c98f5f032f011a1d01d3",
            "diagnostics.json": "3f410013be763c9f2a013dab410efde3316362c2a1ff59717147894084f60e08",
        }),
    }

    @classmethod
    def run_4097_rows(cls, tmp_path, task) -> tuple:
        """The _run arguments of the pinned 4097-row sample of ``task``."""
        cfg = {**cls.CONFIG, "grid": {"n_steps": 6}, "task": task,
               "sample": {"n_conditions": 4097, "n_replicates": 1}}
        return "sample", _write_config(tmp_path, "c.json", cfg), tmp_path / "out", 5

    @pytest.mark.parametrize("task, digests", list(PINS_4097_ROWS.values()),
                             ids=list(PINS_4097_ROWS))
    def test_4097_row_artifact_bytes_are_pinned(self, tmp_path, task, digests):
        command, cfg, out, seed = self.run_4097_rows(tmp_path, task)
        assert _run(command, cfg, out, seed=seed) == 0
        for name, digest in digests.items():
            assert hashlib.sha256(_read_bytes(out, name)).hexdigest() == digest, name

    # sha256 of each artifact, computed while every eta = 0 step still drew
    # its normals and multiplied them by zero, and each step time's plan was
    # built by the first chunk to reach it.  CHUNK_ROWS + 1 rows leave a last
    # chunk of one row, which takes the plan's memory layout as built.
    PINS_ETA0 = {
        "gaussian-2d": (TASK_2D_FULL, {
            "sample.csv": "cd732546d8bb37f1356f96b9cedc02942de1ba19b8e2b29a1e53b1607adc004b",
            "moments.json": "4b9f88819d9a3eadbde7ec431d19b5fd5b5f62d4b70a5f8832559cf3519ddc50",
            "diagnostics.json": "e6e01fff68c17e18cbb2772ec57332b604d570037d67da9caba2b8b9ce280623",
        }),
        "mixture-2d": (GMM_2D_TASK, {
            "sample.csv": "dcd2f41cd61e584371fcf36b3d20adfc458e695c68ddd317d6015dcba11d61ec",
            "moments.json": "d326376dca45650c6d8ecf3fe090a9107227f4e9c1bc8a704be1323d067f8a81",
            "diagnostics.json": "2b52d094b7ce080c3e4986d50611c26b9b5d7028c96cf59b1bdc5693c9f89411",
        }),
    }

    @classmethod
    def run_eta0(cls, tmp_path, task) -> tuple:
        """The _run arguments of the pinned eta = 0 gamma_simplified sample of ``task``."""
        cfg = {**cls.CONFIG, "grid": {"n_steps": 6}, "task": task,
               "eps_policy": {"kind": "eta_scaled", "eta": 0.0},
               "sample": {"n_conditions": CHUNK_ROWS + 1, "n_replicates": 1}}
        return "sample", _write_config(tmp_path, "c.json", cfg), tmp_path / "out", 5

    @pytest.mark.parametrize("task, digests", list(PINS_ETA0.values()), ids=list(PINS_ETA0))
    def test_eta0_artifact_bytes_are_pinned(self, tmp_path, task, digests):
        command, cfg, out, seed = self.run_eta0(tmp_path, task)
        assert _run(command, cfg, out, seed=seed) == 0
        for name, digest in digests.items():
            assert hashlib.sha256(_read_bytes(out, name)).hexdigest() == digest, name


class TestSimulateForward:
    @staticmethod
    def _config(tmp_path, n_paths: int, grid: dict, x0=(0.0,), xT=(1.0,)) -> str:
        return _write_config(
            tmp_path, "c.json",
            {"schedule": LINEAR_SCHEDULE, "grid": grid,
             "forward": {"x0": list(x0), "xT": list(xT), "n_paths": n_paths, "record": True}},
        )

    # sha256 computed while the encoded artifacts were held in memory before
    # writing; 300 paths x 21 times span two CSV blocks.
    def test_path_artifact_bytes_are_pinned(self, tmp_path):
        grid = {"n_steps": 20, "t_min": 0.02, "t_max": 0.7, "rho": 7.0}
        cfg = self._config(tmp_path, 300, grid, x0=(0.0, 2.0), xT=(1.0, -1.0))
        out = tmp_path / "out"
        assert _run("simulate-forward", cfg, out, seed=11) == 0
        digests = {
            "forward.csv": "6e1f69623f1017961b0f0bb1a4bc253364f729f897ede22ab8752faeea77b536",
            "forward.traj": "dc37191cf903799cccf8702b162aed5960beb1495350d00a08f1f5038e546415",
        }
        for name, digest in digests.items():
            assert hashlib.sha256(_read_bytes(out, name)).hexdigest() == digest, name

    def test_peak_memory_is_below_the_csv_it_writes(self, tmp_path):
        """Each artifact is encoded while it is written, so no encoded copy of the CSV is held."""
        grid = {"n_steps": 100, "t_min": 0.02, "t_max": 0.5, "rho": 1.0}
        cfg, out = self._config(tmp_path, 1000, grid), tmp_path / "out"
        tracemalloc.start()
        try:
            code = _run("simulate-forward", cfg, out, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        csv_bytes = os.path.getsize(out / "forward.csv")
        assert peak < csv_bytes, f"peak {peak / 1e6:.1f} MB, forward.csv {csv_bytes / 1e6:.1f} MB"

    def test_writes_moments_and_paths(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 50, "t_min": 0.02, "t_max": 0.5, "rho": 1.0},
                "forward": {"x0": [0.0], "xT": [1.0], "n_paths": 500, "record": True},
            },
        )
        out = tmp_path / "out"
        assert _run("simulate-forward", cfg, out, seed=5) == 0
        names = sorted(os.listdir(out))
        assert names == ["forward.csv", "forward.traj", "manifest.json", "moments.json"]
        moments = _read_json(out, "moments.json")
        assert moments["n"] == 500
        assert moments["t"] == 0.5
        from bridgelab.dynamics import PathEnsemble

        ens = PathEnsemble.from_binary(_read_bytes(out, "forward.traj"))
        assert ens.paths.shape == (500, 51, 1)

    def test_csv_is_path_major_and_matches_the_trajectory_bit_exactly(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 6},
                "forward": {"x0": [0.0, 2.0], "xT": [1.0, -1.0], "n_paths": 7, "record": True},
            },
        )
        out = tmp_path / "out"
        assert _run("simulate-forward", cfg, out, seed=5) == 0
        from bridgelab.dynamics import PathEnsemble

        ens = PathEnsemble.from_binary(_read_bytes(out, "forward.traj"))
        header, *lines = _read_bytes(out, "forward.csv").decode().splitlines()
        assert header == "path_id,time,x_0,x_1"
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == [p for p in range(7) for _ in range(7)]
        values = np.array([[float(v) for v in r[1:]] for r in rows])
        assert values[:, 0].tobytes() == np.tile(ens.times, 7).tobytes()
        assert values[:, 1:].tobytes() == ens.paths.reshape(49, 2).tobytes()

    def test_csv_equals_the_encoder_over_float_columns(self, tmp_path):
        """forward.csv is the encoder's output over the path ids, the times and the paths."""
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 30, "t_min": 0.013, "t_max": 0.77, "rho": 7.0},
                "forward": {"x0": [0.0, 2.0], "xT": [1.0, -1.0], "n_paths": 150, "record": True},
            },
        )
        out = tmp_path / "out"
        assert _run("simulate-forward", cfg, out, seed=3) == 0
        from bridgelab.dynamics import PathEnsemble

        ens = PathEnsemble.from_binary(_read_bytes(out, "forward.traj"))
        n, m, d = ens.paths.shape
        want = b"".join(cli._csv_blocks(
            ["path_id", "time", "x_0", "x_1"],
            [np.repeat(np.arange(n), m), np.tile(ens.times, n), *ens.paths.reshape(n * m, d).T],
        ))
        assert _read_bytes(out, "forward.csv") == want

    def test_record_false_skips_path_artifacts(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 20, "t_min": 0.02, "t_max": 0.5, "rho": 1.0},
                "forward": {"x0": [0.0], "xT": [1.0], "n_paths": 100, "record": False},
            },
        )
        out = tmp_path / "out"
        assert _run("simulate-forward", cfg, out) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "moments.json"]

    @pytest.mark.parametrize("record", [False, True])
    def test_overflowing_moments_exit_2_naming_paths_and_t(self, tmp_path, capsys, record):
        """Before, this exited 0 with an infinite cov and se_mean in moments.json."""
        cfg = _write_config(
            tmp_path, "c.json",
            {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 10, "t_max": 0.5},
             "forward": {"x0": [1e200], "xT": [1.0], "n_paths": 50, "record": record}},
        )
        out = tmp_path / "out"
        assert _run("simulate-forward", cfg, out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "of the 50 paths at t = 0.5 is not finite" in err, err


class TestAfdStudy:
    def test_boot_sweep_reports_nondecreasing_diversity(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 12},
                "eps_policy": {"kind": "zero"},
                "task": GMM_TASK,
                "denoiser": {"kind": "analytic"},
                "sampler": {"variant": "gamma_simplified"},
                "afd": {"boot_values": [0.0, 0.25, 0.5], "n_conditions": 6, "n_replicates": 8},
            },
        )
        out = tmp_path / "out"
        assert _run("afd-study", cfg, out, seed=1) == 0
        report = _read_json(out, "afd.json")
        assert report["nondecreasing"] is True
        assert len(report["afd_values"]) == 3
        lines = _read_bytes(out, "afd.csv").decode().strip().split("\n")
        assert lines[0] == "boot_b,afd"
        assert len(lines) == 4
        groups = _read_bytes(out, "afd_groups.csv").decode().strip().split("\n")
        assert len(groups) == 1 + 3 * 6

    def test_random_projection_feature(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 8},
                "eps_policy": {"kind": "zero"},
                "task": TASK_1D,
                "denoiser": {"kind": "analytic"},
                "sampler": {},
                "afd": {
                    "boot_values": [0.0, 0.5],
                    "n_conditions": 3,
                    "n_replicates": 4,
                    "feature": {"kind": "random_projection", "d_out": 1, "seed": 0},
                },
            },
        )
        assert _run("afd-study", cfg, tmp_path / "out") == 0


    # sha256 of each artifact, computed while afd still took a wrapper type
    # around its groups and feature map: passing the plain groups and
    # projection matrix changed no byte.
    @pytest.mark.parametrize(
        "task, feature, digests",
        [(GMM_TASK, {"kind": "identity"},
          {"afd.csv": "9cc2bc2c383f146cf66590a0731ae573b9edb399ea5436fe392a7ea865566a66",
           "afd_groups.csv": "e69ebca3fd59d1977dd7ee5d1f72124d123c3580929a0dc50754ade1e610acd3",
           "afd.json": "c06cf4116017e37bcb3d093203280eefd48167bf3f9ed5654bb9d039707561a6"}),
         (TASK_2D, {"kind": "random_projection", "d_out": 16, "seed": 2},
          {"afd.csv": "6ff7a9a6d1ab21ef035c4a38f6974a1da8bc9a63d7abac7f739a04de7130e9e1",
           "afd_groups.csv": "6ea8989037b8c55f60db5a208f714b3f088fed9112ab3aa998f39dd515775e68",
           "afd.json": "fc0fe6803ab5739573e297ba093851df79226b463257260ced9d8f2e2a963e77"}),
         # computed while each zero-policy step still drew normals it multiplied by zero
         (GMM_2D_TASK, {"kind": "identity"},
          {"afd.csv": "425284549c7f8d30f940fabc251d807fc049ce70d10e0afa8ee6ef5f6a1a343b",
           "afd_groups.csv": "161a55ddccf252f5ff498d1346ad3c36524c1250c972d55030bba1ca64f5842d",
           "afd.json": "eb737f7add5af02df7291f6a89684831586ca6374cdcedc4bb9b3fc00e16a8dd"})],
        ids=["identity", "random_projection", "mixture-2d-identity"],
    )
    def test_artifact_bytes_are_pinned(self, tmp_path, task, feature, digests):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 12},
                "eps_policy": {"kind": "zero"},
                "task": task,
                "denoiser": {"kind": "analytic"},
                "sampler": {"variant": "gamma_simplified"},
                "afd": {"boot_values": [0.0, 0.25, 0.5], "n_conditions": 6, "n_replicates": 8,
                        "feature": feature},
            },
        )
        out = tmp_path / "out"
        assert _run("afd-study", cfg, out, seed=1) == 0
        for name, digest in digests.items():
            assert hashlib.sha256(_read_bytes(out, name)).hexdigest() == digest, name


class TestConvergenceStudy:
    CONFIG = {
        "schedule": LINEAR_SCHEDULE,
        "convergence": {"dts": [0.04, 0.02, 0.01, 0.005]},
    }

    def test_default_pairs_fall_in_second_order_band(self, tmp_path):
        cfg = _write_config(tmp_path, "c.json", self.CONFIG)
        out = tmp_path / "out"
        assert _run("convergence-study", cfg, out) == 0
        report = _read_json(out, "convergence.json")
        assert report["passed"] is True
        for slope in report["slopes"].values():
            assert 1.8 <= slope <= 2.2
        lines = _read_bytes(out, "convergence.csv").decode().strip().split("\n")
        assert lines[0] == "pair,dt,mean_diff"
        assert len(lines) == 1 + 2 * 4

    # sha256 of each artifact, computed while the command drew its probe
    # states inline and passed a step index to epsilon.
    def test_artifact_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "out"
        assert _run("convergence-study", _write_config(tmp_path, "c.json", self.CONFIG), out,
                    seed=7) == 0
        digests = {
            "convergence.csv": "5dcd69cb0461caccf26084488392750aefe627f412c6855642a5b0158b5742f3",
            "convergence.json": "8d7c9ca8aa896b3bc8bd7f5b20caa9763595a71e408f3c15653c0e6157538d72",
        }
        for name, digest in digests.items():
            assert hashlib.sha256(_read_bytes(out, name)).hexdigest() == digest, name

    def test_impossible_slope_range_exits_2_with_artifacts(self, tmp_path):
        cfg_dict = {
            "schedule": LINEAR_SCHEDULE,
            "convergence": {"dts": [0.04, 0.02, 0.01, 0.005], "slope_range": [3.9, 4.0]},
        }
        cfg = _write_config(tmp_path, "c.json", cfg_dict)
        out = tmp_path / "out"
        assert _run("convergence-study", cfg, out) == 2
        report = _read_json(out, "convergence.json")
        assert report["passed"] is False

    def test_null_slope_range_checks_no_band(self, tmp_path):
        cfg_dict = {
            "schedule": LINEAR_SCHEDULE,
            "convergence": {"dts": [0.04, 0.02, 0.01, 0.005], "slope_range": None},
        }
        out = tmp_path / "out"
        assert _run("convergence-study", _write_config(tmp_path, "c.json", cfg_dict), out) == 0
        report = _read_json(out, "convergence.json")
        assert report["slope_range"] is None and report["passed"] is True
        assert len(report["slopes"]) == 2

    def test_bad_pair_name_exits_1(self, tmp_path):
        cfg_dict = {
            "schedule": LINEAR_SCHEDULE,
            "convergence": {"dts": [0.04, 0.02, 0.01], "pairs": [["euler_z", "verlet"]]},
        }
        cfg = _write_config(tmp_path, "c.json", cfg_dict)
        assert _run("convergence-study", cfg, tmp_path / "out") == 1

    @pytest.mark.parametrize(
        "pairs, field",
        [
            ([["dbim", "euler_z"], ["dbim", "euler_z"]], "convergence.pairs[1]"),
            ([["dbim", "dbim"]], "convergence.pairs[0]"),
        ],
        ids=["duplicate-pair", "self-pair"],
    )
    def test_degenerate_pair_exits_1_and_names_it(self, tmp_path, capsys, pairs, field):
        """A repeated pair would share one slope key; a self-pair has no differences to fit."""
        cfg_dict = {"schedule": LINEAR_SCHEDULE,
                    "convergence": {**self.CONFIG["convergence"], "pairs": pairs}}
        out = tmp_path / "out"
        assert _run("convergence-study", _write_config(tmp_path, "c.json", cfg_dict), out) == 1
        assert not out.exists()
        assert field in capsys.readouterr().err


class TestTrainDenoiser:
    def test_train_then_sample_through_saved_model(self, tmp_path):
        train_cfg = _write_config(
            tmp_path, "train.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "task": TASK_1D,
                "train": {"layers": 1, "width": 16, "lr": 0.05, "batch": 64, "iters": 200},
            },
        )
        train_out = tmp_path / "train_out"
        assert _run("train-denoiser", train_cfg, train_out, seed=0) == 0
        report = _read_json(train_out, "train.json")
        assert report["final_running_loss"] < 1.0
        assert report["test_mse_vs_analytic"] < 0.1
        model_path = os.path.join(str(train_out), "model.bin")
        assert os.path.isfile(model_path)

        sample_cfg = _write_config(
            tmp_path, "sample.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 8},
                "eps_policy": {"kind": "zero"},
                "task": TASK_1D,
                "denoiser": {"kind": "mlp", "path": model_path},
                "sampler": {},
                "sample": {"n_conditions": 20},
            },
        )
        out = tmp_path / "sample_out"
        assert _run("sample", sample_cfg, out, seed=7) == 0
        moments = _read_json(out, "moments.json")
        assert np.isfinite(moments["mean"]).all()

    def test_reported_mse_probes_the_trained_time_range(self, tmp_path):
        train = {"layers": 1, "width": 8, "batch": 32, "iters": 20, "t_min": 0.3, "t_max": 0.7}
        cfg = {"schedule": LINEAR_SCHEDULE, "task": TASK_1D, "train": train}
        out = tmp_path / "out"
        assert _run("train-denoiser", _write_config(tmp_path, "c.json", cfg), out, seed=3) == 0
        den = load_denoiser(out / "model.bin")
        task = cli._parse_task(cfg)
        trained = mse_vs_analytic(den, task, seed=3, t_min=0.3, t_max=0.7)
        assert _read_json(out, "train.json")["test_mse_vs_analytic"] == trained
        assert mse_vs_analytic(den, task, seed=3) != trained

    def test_mlp_sample_is_byte_identical_across_thread_counts(self, tmp_path):
        """4200 rows: a full chunk and a short one, each with its own layer buffers."""
        train_cfg = _write_config(
            tmp_path, "train.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "task": TASK_1D,
                "train": {"layers": 2, "width": 8, "lr": 0.05, "batch": 32, "iters": 20},
            },
        )
        assert _run("train-denoiser", train_cfg, tmp_path / "train_out") == 0
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 8},
                "eps_policy": {"kind": "eta_scaled", "eta": 0.3},
                "task": TASK_1D,
                "denoiser": {"kind": "mlp", "path": str(tmp_path / "train_out" / "model.bin")},
                "sampler": {"variant": "gamma_simplified", "boot_b": 0.25},
                "sample": {"n_conditions": 2100, "n_replicates": 2},
            },
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert _run("sample", cfg, out_a, seed=7, threads=1) == 0
        assert _run("sample", cfg, out_b, seed=7, threads=4) == 0
        assert _read_json(out_a, "moments.json")["n"] == 4200
        for name in ("sample.csv", "moments.json", "diagnostics.json"):
            assert _read_bytes(out_a, name) == _read_bytes(out_b, name)

    # sha256 of each artifact, computed while the MLP denoiser had its own
    # public entry point: train.json holds test_mse_vs_analytic, which takes
    # the one-time-per-row path of both denoiser kinds.  Keyed by (output
    # directory under tmp_path, artifact).
    MLP_PINS = {
        ("train_out", "model.bin"):
            "6073cc561e75e661557630c140d584c8e9254e8bbb06026927428c20b386aaac",
        ("train_out", "train.json"):
            "417738cceba35bc340729de0a0d049c2193155e18b30eee3dadd5fa0b4ff56b8",
        ("out", "sample.csv"): "04a06bf3ec3e3809a1d05754c6d67f161c030b5783ac02d40ecfd6f3f0ff3b52",
        ("out", "moments.json"):
            "12b49c7f831dadff1312558f5ccb861396a8aa34e9cf566afa117fae105648c1",
        ("out", "diagnostics.json"):
            "7f350c6cd01ca5a5d8c216ff649c206f2f63767f06b8dcba28025c6d16a4e7ba",
    }

    @staticmethod
    def mlp_runs(tmp_path) -> list:
        """The _run arguments of the pinned training and of the MLP sample that reads its model."""
        train_cfg = _write_config(
            tmp_path, "train.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "task": TASK_2D,
                "train": {"layers": 2, "width": 8, "lr": 0.05, "batch": 32, "iters": 20},
            },
        )
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 8},
                "eps_policy": {"kind": "eta_scaled", "eta": 0.3},
                "task": TASK_2D,
                "denoiser": {"kind": "mlp", "path": str(tmp_path / "train_out" / "model.bin")},
                "sampler": {"variant": "dbim", "boot_b": 0.25},
                "sample": {"n_conditions": 5, "n_replicates": 3},
            },
        )
        return [("train-denoiser", train_cfg, tmp_path / "train_out", 0),
                ("sample", cfg, tmp_path / "out", 7)]

    def test_train_and_mlp_sample_bytes_are_pinned(self, tmp_path):
        for command, cfg, out, seed in self.mlp_runs(tmp_path):
            assert _run(command, cfg, out, seed=seed) == 0
        for (where, name), digest in self.MLP_PINS.items():
            assert hashlib.sha256(_read_bytes(tmp_path / where, name)).hexdigest() == digest, name

    def test_pinned_bytes_do_not_follow_the_blas_thread_count(self, tmp_path):
        """The pinned analytic 4097-row samples at eta 0.3 and at eta 0 and the
        pinned MLP training and sample, each set run in a fresh process at 1
        and at 4 BLAS threads."""
        task, sample_pins = TestSample.PINS_4097_ROWS["gaussian-2d"]
        eta0_task, eta0_pins = TestSample.PINS_ETA0["gaussian-2d"]
        pins = {**self.MLP_PINS,
                **{("analytic", "out", name): digest for name, digest in sample_pins.items()},
                **{("eta0", "out", name): digest for name, digest in eta0_pins.items()}}
        probe = ("import json, sys; from bridgelab.cli import main\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    assert main(argv) == 0, argv\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        for threads in ("1", "4"):
            where = tmp_path / threads
            (where / "analytic").mkdir(parents=True)
            (where / "eta0").mkdir()
            runs = [TestSample.run_4097_rows(where / "analytic", task),
                    TestSample.run_eta0(where / "eta0", eta0_task), *self.mlp_runs(where)]
            argvs = [_argv(command, cfg, out, seed) for command, cfg, out, seed in runs]
            subprocess.run(
                [sys.executable, "-c", probe, json.dumps(argvs)], timeout=120, check=True,
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            )
            for (*dirs, name), digest in pins.items():
                got = hashlib.sha256(_read_bytes(where.joinpath(*dirs), name)).hexdigest()
                assert got == digest, (threads, *dirs, name)

    def test_estimated_preconditioner_is_reported(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "task": TASK_1D,
                "train": {"layers": 1, "width": 8, "lr": 0.05, "batch": 32, "iters": 20},
                "prec": {"estimate_from": 4000},
            },
        )
        out = tmp_path / "out"
        assert _run("train-denoiser", cfg, out, seed=0) == 0
        prec = _read_json(out, "train.json")["prec"]
        np.testing.assert_allclose(prec["sigma0"], np.sqrt(0.29), rtol=0.1, atol=0)
        np.testing.assert_allclose(prec["sigmaT"], 1.0, rtol=0.1, atol=0)

    @pytest.mark.parametrize(
        "corruption",
        ["nan_weight", "trailing_bytes", "sizes_vs_body", "missing_prec", "missing_schedule",
         "nan_sigma0", "string_sigma0"],
    )
    def test_corrupt_model_file_exits_1_without_artifacts(self, tmp_path, corruption):
        train_cfg = _write_config(
            tmp_path, "train.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "task": TASK_1D,
                "train": {"layers": 1, "width": 4, "lr": 0.05, "batch": 8, "iters": 5},
            },
        )
        assert _run("train-denoiser", train_cfg, tmp_path / "train_out") == 0
        header, body = _read_bytes(tmp_path / "train_out", "model.bin").split(b"\n", 1)
        if corruption == "nan_weight":
            body = np.array([np.nan]).tobytes() + body[8:]
        elif corruption == "trailing_bytes":
            body += b"\0" * 8
        elif corruption == "sizes_vs_body":
            assert b'"sizes": [3, 4, 1]' in header
            header = header.replace(b'"sizes": [3, 4, 1]', b'"sizes": [3, 3, 1]')
        else:
            fields = json.loads(header)
            if corruption.startswith("missing_"):
                del fields[corruption[len("missing_"):]]
            else:
                fields["prec"]["sigma0"] = math.nan if corruption == "nan_sigma0" else "x"
            header = json.dumps(fields).encode()
        model_path = tmp_path / "model.bin"
        model_path.write_bytes(header + b"\n" + body)
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 8},
                "eps_policy": {"kind": "zero"},
                "task": TASK_1D,
                "denoiser": {"kind": "mlp", "path": str(model_path)},
                "sampler": {},
                "sample": {"n_conditions": 4},
            },
        )
        out = tmp_path / "out"
        assert _run("sample", cfg, out) == 1
        assert not out.exists()

    def test_missing_model_file_exits_1(self, tmp_path):
        cfg = _write_config(
            tmp_path, "c.json",
            {
                "schedule": LINEAR_SCHEDULE,
                "grid": {"n_steps": 8},
                "eps_policy": {"kind": "zero"},
                "task": TASK_1D,
                "denoiser": {"kind": "mlp", "path": str(tmp_path / "missing.bin")},
                "sampler": {},
                "sample": {"n_conditions": 4},
            },
        )
        assert _run("sample", cfg, tmp_path / "out") == 1

    @pytest.mark.parametrize("command", ["sample", "afd-study"])
    def test_model_of_another_dimension_exits_1_without_artifacts(self, tmp_path, capsys, command):
        from bridgelab.denoiser import MlpDenoiser, Preconditioner, denoiser_to_bytes, mlp_init
        from bridgelab.schedule import Schedule

        model_path = tmp_path / "model.bin"
        sizes = [3, 4, 1]
        den = MlpDenoiser(mlp_init(sizes, 0), sizes, Preconditioner(), Schedule(**LINEAR_SCHEDULE))
        model_path.write_bytes(denoiser_to_bytes(den))
        base = SAMPLE_CONFIG if command == "sample" else {
            **AFD_CONFIG, "afd": {**AFD_CONFIG["afd"], "feature": {"kind": "identity"}}}
        cfg = {**base, "task": TASK_2D, "denoiser": {"kind": "mlp", "path": str(model_path)}}
        out = tmp_path / "out"
        assert _run(command, _write_config(tmp_path, "c.json", cfg), out) == 1
        assert not out.exists()
        assert "denoiser.path" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["sample", "afd-study"])
    def test_model_of_another_schedule_exits_1_without_artifacts(self, tmp_path, capsys, command):
        """A model trained on linear, run on ddbm_vp: the network would
        precondition with one kernel while the sampler walks another."""
        from bridgelab.denoiser import MlpDenoiser, Preconditioner, denoiser_to_bytes, mlp_init
        from bridgelab.schedule import Schedule

        model_path = tmp_path / "model.bin"
        sizes = [5, 4, 2]
        den = MlpDenoiser(mlp_init(sizes, 0), sizes, Preconditioner(), Schedule(**LINEAR_SCHEDULE))
        model_path.write_bytes(denoiser_to_bytes(den))
        base = SAMPLE_CONFIG if command == "sample" else {
            **AFD_CONFIG, "afd": {**AFD_CONFIG["afd"], "feature": {"kind": "identity"}}}
        cfg = {**base, "schedule": {"kind": "ddbm_vp"}, "task": TASK_2D,
               "denoiser": {"kind": "mlp", "path": str(model_path)}}
        out = tmp_path / "out"
        assert _run(command, _write_config(tmp_path, "c.json", cfg), out) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "denoiser.path: the model was trained on a linear schedule" in err
        assert "the run uses a ddbm_vp schedule" in err

# Stands for the model file that the mlp_model fixture writes.
MLP_MODEL = "<model.bin: linear schedule, 1-d>"


@pytest.fixture(scope="module")
def mlp_model(tmp_path_factory) -> str:
    """A model file for the MLP sample base: its linear schedule, the GMM task's dimension."""
    from bridgelab.denoiser import MlpDenoiser, Preconditioner, denoiser_to_bytes, mlp_init
    from bridgelab.schedule import Schedule

    sizes = [3, 4, 1]
    den = MlpDenoiser(mlp_init(sizes, 0), sizes, Preconditioner(), Schedule(**LINEAR_SCHEDULE))
    path = tmp_path_factory.mktemp("mlp") / "model.bin"
    path.write_bytes(denoiser_to_bytes(den))
    return str(path)


def _with_model(cfg: dict, model_path: str) -> dict:
    """A deep copy of cfg, its denoiser path MLP_MODEL replaced by model_path."""
    cfg = copy.deepcopy(cfg)
    if cfg.get("denoiser", {}).get("path") == MLP_MODEL:
        cfg["denoiser"]["path"] = model_path
    return cfg


# One valid config per command, and more where a kind or family adds keys of its own.
PARSE_BASES = [
    ("verify-schedule", {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4}}),
    ("verify-schedule",
     {"schedule": {"kind": "i2sb", "i2sb_breakpoints": [0.0, 1.0], "i2sb_values": [1.0]},
      "grid": {"n_steps": 4, "t_min": 0.1, "t_max": 0.9, "rho": 1.0}}),
    ("verify-schedule", {"schedule": {"kind": "trig", "gamma_scale": 1.0}, "grid": {"n_steps": 4}}),
    ("verify-schedule",
     {"schedule": {"kind": "ddbm_vp", "beta_d": 2.0, "beta_min": 0.1}, "grid": {"n_steps": 4}}),
    ("simulate-forward",
     {"schedule": LINEAR_SCHEDULE, "grid": {"n_steps": 4},
      "forward": {"x0": [0.0], "xT": [1.0], "n_paths": 4, "record": False}}),
    ("sample",
     {**SAMPLE_CONFIG,
      "eps_policy": {"kind": "constant", "eta": 0.3, "const_value": 0.1,
                     "scale_by_gamma_sq": True, "tail_zero_steps": 1},
      "sampler": {"variant": "dbim", "boot_b": 0.1, "record_trajectory": False},
      "sample": {"n_conditions": 4, "n_replicates": 2}}),
    ("sample", {**SAMPLE_CONFIG, "task": GMM_TASK, "denoiser": {"kind": "mlp", "path": MLP_MODEL}}),
    ("train-denoiser",
     {"schedule": LINEAR_SCHEDULE, "task": TASK_1D,
      "train": {"layers": 1, "width": 4, "lr": 0.05, "batch": 8, "iters": 5, "t_min": 0.1,
                "t_max": 0.9},
      "prec": {"sigma0": 0.5, "sigmaT": 0.5, "sigma0T": 0.1}}),
    ("train-denoiser",
     {"schedule": LINEAR_SCHEDULE, "task": TASK_1D, "train": {}, "prec": {"estimate_from": 8}}),
    ("afd-study", {**AFD_CONFIG, "afd": {**AFD_CONFIG["afd"], "feature": {
        "kind": "random_projection", "d_out": 1, "seed": 0}}}),
    ("convergence-study",
     {"schedule": LINEAR_SCHEDULE,
      "convergence": {"t": 0.5, "dts": CONVERGENCE_DTS, "eta": 0.3, "d": 2, "n_probes": 4,
                      "pairs": [["euler_z", "dbim"]], "slope_range": [1.8, 2.2]}}),
    ("reformulation-check",
     {"reformulation": {"family": "i2sb", "threshold": 1e-8, "t_lo": 0.1, "t_hi": 0.9,
                        "n_points": 3, "n_probes": 2,
                        "i2sb_breakpoints": [0.0, 1.0], "i2sb_values": [1.0]}}),
    ("reformulation-check",
     {"reformulation": {"family": "vp", "n_points": 3, "n_probes": 2, "beta_d": 2.0,
                        "beta_min": 0.1}}),
]


def _key_paths(cfg: dict) -> list[tuple]:
    """Every section of cfg and every key its spec defines there, as key paths."""
    paths = []

    def walk(section, spec, prefix):
        for key, entry in spec.items():
            if isinstance(entry, dict):  # the discriminator: its value's keys join the section
                spec = {**spec, key: None, **entry[section[key]]}
        for key, entry in spec.items():
            paths.append((*prefix, key))
            if entry is not None and isinstance(entry[0], dict) and key in section:
                walk(section[key], entry[0], (*prefix, key))

    for name, spec in cli._SPECS.items():
        if name in cfg:
            paths.append((name,))
            walk(cfg[name], spec, (name,))
    for i, comp in enumerate(cfg.get("task", {}).get("components", [])):
        walk(comp, cli._JOINT, ("task", "components", i))
    return paths


PARSE_CASES = [(command, cfg, path) for command, cfg in PARSE_BASES for path in _key_paths(cfg)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.floats() | st.integers(-64, 64),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize(
    "command, cfg", [pytest.param(c, cfg, id=f"{i}-{c}") for i, (c, cfg) in enumerate(PARSE_BASES)]
)
def test_every_parse_base_parses(command, cfg, mlp_model):
    """Each base is valid as written, so a mutation of any key reaches that key's check."""
    _, parse, _ = cli.COMMANDS[command]
    parse(_with_model(cfg, mlp_model), 0)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_parser_reads_exactly_the_sections_its_command_declares(command, mlp_model,
                                                                     monkeypatch):
    """main accepts the declared sections, so one that no parser read would be ignored."""
    sections, parse, _ = cli.COMMANDS[command]
    cfg = _with_model(next(cfg for name, cfg in PARSE_BASES if name == command), mlp_model)
    read, seen = cli._read, set()

    def tracked(parent, key, *args, **kwargs):
        if parent is cfg:
            seen.add(key)
        return read(parent, key, *args, **kwargs)

    monkeypatch.setattr(cli, "_read", tracked)
    parse(cfg, 0)
    assert seen == set(sections)


def test_every_spec_key_is_exercised():
    covered = {path[:2] for _, _, path in PARSE_CASES if len(path) > 1}
    for section, spec in cli._SPECS.items():
        keys = set(spec)
        for entry in spec.values():
            if isinstance(entry, dict):
                keys |= {key for sub in entry.values() for key in sub}
        assert {(section, key) for key in keys} <= covered


@settings(max_examples=250, deadline=None)
@given(case=st.sampled_from(PARSE_CASES), value=JSON_VALUES)
def test_parsers_reject_any_value_with_a_config_error(case, value, mlp_model):
    """Any JSON value at any key: the command's parser returns or raises ConfigError."""
    command, cfg, path = case
    cfg = _with_model(cfg, mlp_model)
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    _, parse, _ = cli.COMMANDS[command]
    try:
        parse(cfg, 0)
    except cli.ConfigError:
        pass
