"""Per-layer tracing of bridgelab from outside the package.

``Tracer`` replaces every public function of the seven layer modules with a
timing wrapper, in every ``bridgelab`` module namespace that binds it: a
``from .schedule import eval_schedule`` in ``sampler`` holds its own
reference, so patching ``bridgelab.schedule`` alone would miss those calls.
Each call is a span; a layer's self time is its spans' durations minus the
time of the spans they contain. ``rng.stream`` returns a thin proxy whose
methods are timed as draws. Leaving the ``with`` block restores every
original binding.

Not traced: methods of classes, generator functions (their body runs when the
caller iterates, so the caller's layer is charged) and ``rng.run_chunked`` /
``rng.chunk_slices``, which only route each chunk's work back to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("schedule", "dynamics", "rng", "denoiser", "sampler", "metrics", "cli")
TRANSPARENT = {"rng.run_chunked", "rng.chunk_slices"}
NORMAL_DRAWS = ("standard_normal", "normal")
SAMPLER_STEPS = ("step_euler_z", "step_gamma_simplified", "step_dbim", "step_markovian")
# Metrics computed from call arguments and draw sizes rather than counted calls.
COMPUTED = {"rng.normals", "dynamics.path_steps", "denoiser.rows", "sampler.row_steps",
            "metrics.permutations", "metrics.perm_gb_computed"}


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _grid_steps(grid) -> int:
    n_steps = getattr(grid, "n_steps", None)
    return n_steps if n_steps is not None else len(grid) - 1


def _count_sample(work: Counter, a: dict) -> None:
    work["sampler.row_steps"] += _rows(a["xT_batch"]) * a["cfg"].grid.n_steps


def _count_simulate(work: Counter, a: dict) -> None:
    work["dynamics.path_steps"] += a["n_paths"] * _grid_steps(a["grid"])


def _count_denoise(work: Counter, a: dict) -> None:
    work["denoiser.rows"] += _rows(a["x_t"])


def _count_permutations(work: Counter, a: dict) -> None:
    n, m, p = _rows(a["a"]), _rows(a["b"]), a["n_permutations"]
    work["metrics.permutations"] += p
    # Each permutation copies three blocks of the distance matrix with np.ix_.
    work["metrics.perm_bytes"] += (n * n + m * m + n * m) * 8 * p


# Work counters computed from a call's arguments, by traced function.
ARGUMENT_COUNTERS = {
    "sampler.sample": _count_sample,
    "dynamics.simulate_ensemble": _count_simulate,
    "denoiser.denoise": _count_denoise,
    "metrics.energy_permutation_quantile": _count_permutations,
}


class _Draws:
    """Stands in for a numpy Generator and times every method call as a draw."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        method = getattr(self._gen, name)
        if not callable(method):
            return method
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = tracer.span("rng", "rng.draw", method, args, kwargs)
            if name in NORMAL_DRAWS:
                tracer.work["rng.normals"] += int(np.size(out))
            return out

        return draw


class Tracer:
    """Spans and counts per layer while installed (use as a context manager)."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()  # "layer.function" -> calls
        self.incl_s: defaultdict = defaultdict(float)  # "layer.function" -> span seconds
        self.work: Counter = Counter()  # work counters computed from arguments
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []

    def span(self, layer: str, qual: str, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.self_s[layer] += elapsed - frame[0]
            self.calls[qual] += 1
            self.incl_s[qual] += elapsed

    def _wrap(self, layer: str, qual: str, fn):
        span = self.span
        count = ARGUMENT_COUNTERS.get(qual)
        if qual == "rng.stream":
            def wrapper(*args, **kwargs):
                return _Draws(span(layer, qual, fn, args, kwargs), self)
        elif count is not None:
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.work, bound.arguments)
                return span(layer, qual, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return span(layer, qual, fn, args, kwargs)
        return functools.update_wrapper(wrapper, fn)

    def __enter__(self) -> "Tracer":
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"bridgelab.{layer}")
            for name, obj in vars(module).items():
                qual = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and qual not in TRANSPARENT
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = (obj, self._wrap(layer, qual, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bridgelab" and not mod_name.startswith("bridgelab."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, entry[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tr: Tracer, cli_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced cycle: name -> (value, unit).

    ``cli_bytes`` is what the cycle's CLI ops wrote. The metrics in COMPUTED
    are work computed from call arguments and draw sizes; the other counts
    are calls seen by the wrappers.
    """
    c, incl, s, w = tr.calls, tr.incl_s, tr.self_s, tr.work
    schedule_calls = c["schedule.eval_schedule"] + c["schedule.bridge_coefficients"] \
        + c["schedule.epsilon"]
    streams = c["rng.stream"]
    return {
        "schedule.calls": (schedule_calls, "count"),
        "schedule.self_s": (s["schedule"], "s"),
        "schedule.us_per_call": (_per(s["schedule"], schedule_calls, 1e6), "us"),
        "denoiser.precondition_calls": (c["denoiser.precondition"], "count"),
        "rng.streams": (streams, "count"),
        "rng.build_us": (_per(incl["rng.stream"], streams, 1e6), "us"),
        "rng.normals": (w["rng.normals"], "count"),
        "rng.draw_s": (incl["rng.draw"], "s"),
        "dynamics.path_steps": (w["dynamics.path_steps"], "count"),
        "dynamics.self_s": (s["dynamics"], "s"),
        "dynamics.ns_per_path_step": (_per(s["dynamics"], w["dynamics.path_steps"], 1e9), "ns"),
        "denoiser.calls": (c["denoiser.denoise"], "count"),
        "denoiser.rows": (w["denoiser.rows"], "count"),
        "denoiser.self_s": (s["denoiser"], "s"),
        "denoiser.us_per_row": (_per(incl["denoiser.denoise"], w["denoiser.rows"], 1e6), "us"),
        "denoiser.train_iters": (c["denoiser.mlp_loss_and_grads"], "count"),
        "denoiser.mlp_grad_s": (incl["denoiser.mlp_loss_and_grads"], "s"),
        "denoiser.load_s": (incl["denoiser.load_denoiser"], "s"),
        "sampler.step_calls": (sum(c[f"sampler.{f}"] for f in SAMPLER_STEPS), "count"),
        "sampler.row_steps": (w["sampler.row_steps"], "count"),
        "sampler.self_s": (s["sampler"], "s"),
        "sampler.ns_per_row_step": (_per(s["sampler"], w["sampler.row_steps"], 1e9), "ns"),
        "metrics.permutations": (w["metrics.permutations"], "count"),
        "metrics.ms_per_permutation": (_per(
            incl["metrics.energy_permutation_quantile"], w["metrics.permutations"], 1e3), "ms"),
        "metrics.perm_gb_computed": (w["metrics.perm_bytes"] / 1e9, "GB"),
        "metrics.afd_calls": (c["metrics.afd"], "count"),
        "metrics.self_s": (s["metrics"], "s"),
        "cli.ops": (c["cli.main"], "count"),
        "cli.self_s": (s["cli"], "s"),
        "cli.bytes_written": (cli_bytes, "B"),
        "cli.encode_mb_per_s": (_per(cli_bytes / 1e6, s["cli"], 1.0), "MB/s"),
    }
