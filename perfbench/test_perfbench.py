"""Self-test of the benchmark's tracing and contract.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"

On tiny configs the traced counts must equal the counts known from the
algorithms, repeat exactly, leave every module attribute as it was, and not
change a byte of any artifact.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import bridgelab.cli  # noqa: E402
import bridgelab.metrics  # noqa: E402
from bridgelab.rng import CHUNK_ROWS  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import LINEAR, TASK_2D, artifact_digests  # noqa: E402

N_CONDITIONS, N_REPLICATES, N_STEPS, TAIL = 2500, 2, 6, 2  # 5000 rows: two chunks
FORWARD_PATHS, FORWARD_STEPS = 5000, 10


def _bindings() -> dict:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "bridgelab" or name.startswith("bridgelab.")
            for attr, value in vars(module).items()}


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-test-"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _cli(self, command: str, cfg: dict, out: str) -> Path:
        cfg_path = self.tmp / f"{out}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = self.tmp / out
        code = bridgelab.cli.main([command, "--config", str(cfg_path), "--out", str(out_dir),
                                   "--seed", "3", "--threads", "1"])
        self.assertEqual(code, 0)
        return out_dir

    def _sample(self, out: str) -> Path:
        return self._cli("sample", {
            "schedule": LINEAR,
            "grid": {"n_steps": N_STEPS},
            "eps_policy": {"kind": "eta_scaled", "eta": 0.3, "tail_zero_steps": TAIL},
            "task": TASK_2D,
            "denoiser": {"kind": "analytic"},
            "sampler": {"variant": "gamma_simplified"},
            "sample": {"n_conditions": N_CONDITIONS, "n_replicates": N_REPLICATES},
        }, out)

    def _forward(self, out: str) -> Path:
        return self._cli("simulate-forward", {
            "schedule": LINEAR,
            "grid": {"n_steps": FORWARD_STEPS, "t_min": 0.02, "t_max": 0.5, "rho": 1.0},
            "forward": {"x0": [0.0], "xT": [1.0], "n_paths": FORWARD_PATHS, "record": False},
        }, out)

    def test_sample_counts_match_the_algorithm(self):
        with Tracer() as tr:
            self._sample("traced")
        m = layer_metrics(tr, 0)
        rows, d = N_CONDITIONS * N_REPLICATES, 2
        chunks = math.ceil(rows / CHUNK_ROWS)
        noisy_steps = N_STEPS - TAIL  # the zero tail draws no noise
        self.assertEqual(m["denoiser.calls"][0], N_STEPS * chunks)
        self.assertEqual(m["denoiser.rows"][0], N_STEPS * rows)
        self.assertEqual(m["sampler.row_steps"][0], N_STEPS * rows)
        self.assertEqual(m["sampler.step_calls"][0], noisy_steps * chunks)
        # one stream for the conditions, one per noisy step and chunk
        self.assertEqual(m["rng.streams"][0], 1 + noisy_steps * chunks)
        self.assertEqual(m["rng.normals"][0], N_CONDITIONS * d + noisy_steps * rows * d)
        self.assertEqual(m["cli.ops"][0], 1)
        self.assertEqual(m["dynamics.path_steps"][0], 0)
        self.assertEqual(m["metrics.permutations"][0], 0)
        for layer in ("cli", "sampler", "denoiser", "schedule"):
            self.assertGreater(m[f"{layer}.self_s"][0], 0.0)

    def test_forward_counts_match_the_algorithm(self):
        with Tracer() as tr:
            self._forward("traced")
        m = layer_metrics(tr, 0)
        chunks = math.ceil(FORWARD_PATHS / CHUNK_ROWS)
        self.assertEqual(m["dynamics.path_steps"][0], FORWARD_PATHS * FORWARD_STEPS)
        self.assertEqual(m["rng.streams"][0], FORWARD_STEPS * chunks)
        self.assertEqual(m["rng.normals"][0], FORWARD_PATHS * FORWARD_STEPS)
        # one bridge_coefficients call per step and chunk
        self.assertEqual(m["schedule.calls"][0], FORWARD_STEPS * chunks)
        self.assertEqual(m["denoiser.calls"][0], 0)

    def test_permutation_counts_and_bytes(self):
        gen = np.random.default_rng(0)
        a, b = gen.standard_normal((30, 2)), gen.standard_normal((20, 2))
        with Tracer() as tr:
            bridgelab.metrics.energy_permutation_quantile(a, b, n_permutations=7, seed=1)
        m = layer_metrics(tr, 0)
        self.assertEqual(m["metrics.permutations"][0], 7)
        self.assertAlmostEqual(m["metrics.perm_gb_computed"][0],
                               (30 * 30 + 20 * 20 + 30 * 20) * 8 * 7 / 1e9, places=15)
        self.assertGreater(m["metrics.ms_per_permutation"][0], 0.0)

    def test_counts_repeat_exactly(self):
        counts = []
        for k in range(2):
            with Tracer() as tr:
                outs = [self._sample(f"run{k}"), self._forward(f"fwd{k}")]
            counts.append((dict(tr.calls), dict(tr.work),
                           [artifact_digests(out) for out in outs]))
        self.assertEqual(counts[0], counts[1])

    def test_bindings_are_restored_and_outputs_unchanged(self):
        before = _bindings()
        plain = self._sample("plain")
        with Tracer():
            patched = _bindings()
            traced = self._sample("traced")
        self.assertNotEqual(patched[("bridgelab.sampler", "eval_schedule")],
                            before[("bridgelab.sampler", "eval_schedule")])
        self.assertNotEqual(patched[("bridgelab.cli", "sample")],
                            before[("bridgelab.cli", "sample")])
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(artifact_digests(plain)[0], artifact_digests(traced)[0])

    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reported = set(layer_metrics(Tracer(), 0)) | {"trace.overhead_frac"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, reported)
        units = {name: unit for name, (_, unit) in layer_metrics(Tracer(), 0).items()}
        for m in spec["per_layer"]:
            if m["name"] in units:
                self.assertEqual(m["unit"], units[m["name"]], m["name"])

    def test_fails_without_the_program_sources(self):
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
