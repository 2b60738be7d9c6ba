"""bridgelab benchmark: one workload per run, closed loop, one client, --threads 1.

Usage, from the repository root:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 --trace 0

The run imports bridgelab from ./src and writes the workload's inputs from
the seed. The first cycle's outputs are checked against closed-form oracles;
every later run of an op must reproduce its artifacts byte for byte.

--trace 0 runs the op cycle once, then keeps cycling through the ops that
still fit in --seconds, and reports the end-to-end metrics. --trace 1
alternates whole untraced and traced cycles and reports the per-layer
metrics of the first traced cycle plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a full record goes to .perfbench/results/.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: this is a one-client benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import COMPUTED, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
CAVEAT = ("no thread-scaling numbers: the 2-vCPU host the baseline was measured on "
          "behaves like about one CPU (two threads give no speedup even for GIL-free "
          "work), so runs use one client and --threads 1")


def import_program() -> None:
    """Puts ./src first on sys.path; exits nonzero when the sources are absent."""
    if not (SRC / "bridgelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bridgelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bridgelab

    if Path(bridgelab.__file__).resolve().parent != (SRC / "bridgelab").resolve():
        sys.exit(f"perfbench: imported bridgelab from {bridgelab.__file__}, not {SRC}")


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where that cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return int(getattr(dll, symbol)())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "caveat": CAVEAT,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready for the first op."""
    times = []
    for k in range(SETUP_REPEATS):
        work = STATE / "work" / f"setup-{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                "--workload", workload, "--seed", str(seed), "--work", str(work)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait()
            finally:
                watchdog.cancel()
        if line != "ready" or code != 0:
            sys.exit(f"perfbench: set-up child exited with {code}")
        times.append(elapsed)
        shutil.rmtree(work, ignore_errors=True)
    return times


def run_cycle(ops, reference: dict | None, deadline: float | None = None,
              expected: dict | None = None) -> dict:
    """Runs the ops in order, one at a time.

    The first cycle (reference None) checks every output against its
    oracles; later cycles compare each op's fingerprint with the first
    cycle's. Given a deadline, an op runs only if its expected latency ends
    before it.
    """
    records, checks = [], []
    for op in ops:
        if deadline is not None and time.perf_counter() + expected[op.name] > deadline:
            continue
        op.prepare()
        start = time.perf_counter()
        try:
            res = op.run()
            error = None
        except Exception as err:  # an op that raises is counted as failed
            res, error = None, f"{type(err).__name__}: {err}"
        latency = time.perf_counter() - start
        ok = res is not None and res.ok
        op_checks = []
        if ok and reference is None:
            op_checks = op.check(res)
            ok = all(ch.ok for ch in op_checks)
        elif ok and res.fingerprint != reference[op.name]:
            ok, error = False, "output differs from the first cycle"
        checks += op_checks
        records.append({
            "op": op.name, "latency_s": latency, "ok": ok, "error": error,
            "bytes": res.bytes_written if res is not None else 0,
            "fingerprint": res.fingerprint if res is not None else {},
            "checks": [{"name": ch.name, "value": ch.value, "tol": ch.tol, "ok": ch.ok}
                       for ch in op_checks],
        })
    return {"ops": records, "checks": checks, "bytes": sum(r["bytes"] for r in records)}


def artifacts_sha256(cycle: dict) -> str:
    """One digest over every op's artifact digests, to compare outputs across commits."""
    listing = json.dumps([[r["op"], r["fingerprint"]] for r in cycle["ops"]], sort_keys=True)
    return hashlib.sha256(listing.encode()).hexdigest()


def op_medians_s(ops, cycles) -> dict[str, float]:
    """Each op's median latency over every run of it in the cycles."""
    latencies = {op.name: [] for op in ops}
    for cycle in cycles:
        for r in cycle["ops"]:
            latencies[r["op"]].append(r["latency_s"])
    return {name: statistics.median(values) for name, values in latencies.items()}


def typical_cycle_s(ops, cycles) -> float:
    return sum(op_medians_s(ops, cycles).values())


def run_workload(ops, seconds: float, trace: bool):
    """Closed loop; returns (untraced cycles, traced cycles, first tracer).

    Untraced: one whole cycle, then further cycles that run each op whose
    expected latency still fits in --seconds, so an op far shorter than the
    cycle is measured many times. Traced: whole cycles alternating untraced
    and traced, at least one of each, while a whole cycle fits.
    """
    start = time.perf_counter()
    deadline = start + seconds
    plain = [run_cycle(ops, None)]
    reference = {r["op"]: r["fingerprint"] for r in plain[0]["ops"]}
    if not trace:
        while True:
            cycle = run_cycle(ops, reference, deadline, op_medians_s(ops, plain))
            if not cycle["ops"]:
                return plain, [], None
            plain.append(cycle)
    traced, first_tracer = [], None
    while not traced or time.perf_counter() + typical_cycle_s(ops, plain) <= deadline:
        if len(plain) > len(traced):
            with Tracer() as tracer:
                traced.append(run_cycle(ops, reference))
            first_tracer = first_tracer or tracer
        else:
            plain.append(run_cycle(ops, reference))
    return plain, traced, first_tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {tuple(workloads.BUILDERS)}")
    if args.setup_only:
        workloads.build(args.workload, args.work, args.seed)
        print("ready", flush=True)
        return 0

    work = STATE / "work" / "main"
    shutil.rmtree(STATE / "work", ignore_errors=True)
    ops = workloads.build(args.workload, work, args.seed)
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    plain, traced, tracer = run_workload(ops, args.seconds, bool(args.trace))
    shutil.rmtree(STATE / "work", ignore_errors=True)

    cycles = plain + traced
    op_records = [r for c in cycles for r in c["ops"]]
    attempted = len(op_records)
    failed = sum(not r["ok"] for r in op_records)
    checks = plain[0]["checks"]
    oracle_dev = max((ch.dev for ch in checks), default=0.0)

    if args.trace:
        overhead = typical_cycle_s(ops, traced) / typical_cycle_s(ops, plain) - 1.0
        values = layer_metrics(tracer, traced[0]["bytes"])
        values["trace.overhead_frac"] = (overhead, "frac")
    else:
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (typical_cycle_s(ops, plain), "s"),
            "op_p50_s": (statistics.median(op_medians_s(ops, plain).values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "artifact_mb": (plain[0]["bytes"] / 1e6, "MB"),
        }

    env = environment()
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced cycles, {attempted} ops")
    print(f"# git {env['git_sha']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, blas threads {env['blas_threads']}")
    print(f"# caveat: {CAVEAT}")
    # Both of these depend on the seed or are 0 on correct code, so neither
    # is a bounded metric; failures make the result incorrect instead.
    print(f"ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"oracle_dev {oracle_dev:.6g} ratio (largest check value / tolerance)")
    if not args.trace:
        print(f"# setup_s: median of {len(setup_times)} set-ups; wall_s: sum, op_p50_s: median "
              f"of the {len(ops)} ops' median latencies over {len(op_records)} op runs")
    for ch in checks:
        print(f"check {ch.name} {ch.value:.6g} (tol {ch.tol:g}) {'ok' if ch.ok else 'FAIL'}")
    for r in op_records:
        if r["error"]:
            print(f"op {r['op']} failed: {r['error']}")
    print(f"artifacts_sha256 {artifacts_sha256(plain[0])}")
    for name, (value, unit) in values.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {unit}{label}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup_times, "metrics": metrics,
        "ops_failed_frac": failed / attempted, "oracle_dev": oracle_dev,
        "artifacts_sha256": artifacts_sha256(plain[0]),
        "cycles": [{"traced": traced_flag, "ops": c["ops"]}
                   for traced_flag, group in ((False, plain), (True, traced)) for c in group],
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
