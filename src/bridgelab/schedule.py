"""Transition-kernel schedules and their induced bridge-SDE coefficients.

A schedule defines the Gaussian kernel N(alpha_t x0 + beta_t xT, gamma_t^2 I)
interpolating between the endpoint pair (x0 at t = 0, xT at t = T).  This
module evaluates (alpha, beta, gamma) and their time derivatives for the
supported kernel families, derives the linear-SDE coefficients (f, s, g^2) of
the pinned process, produces per-step stochasticity levels eps_t, builds the
rho-spaced integration grids, and cross-checks the schedule algebra against
the native drift/diffusion expressions of the reformulated model families.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import rng as _rng

T_HORIZON = 1.0
DEFAULT_T_MIN = 0.01
DEFAULT_T_MAX = 1.0 - 1e-4
DEFAULT_RHO = 0.6

SCHEDULE_KINDS = ("linear", "trig", "ddbm_ve", "ddbm_vp", "i2sb", "edm", "custom")
EPSILON_KINDS = ("zero", "eta_scaled", "i2sb_markovian", "constant")


@dataclass(frozen=True)
class Schedule:
    """A named kernel family plus its parameters.

    Fields irrelevant to a kind are ignored by it.  gamma_multiplier scales
    the linear-family gamma: the default 0.5 gives gamma = (gamma_max/2)
    sqrt(t(1-t)); multiplier 2.0 gives the 2*gamma_max convention.

    i2sb_breakpoints and i2sb_values describe a piecewise-constant noise rate
    b(tau) on [0, T]: values[j] holds on [breakpoints[j], breakpoints[j+1]).
    sigma_t^2 is its exact running integral.  Both are stored as tuples of
    floats, so a schedule hashes and compares by value.

    Custom schedules supply alpha_fn/beta_fn/gamma_fn callables; their
    derivatives come from central differences with step fd_step, and every
    evaluation records a warning since the derivative-consistency guarantee
    does not apply.
    """

    kind: str
    gamma_max: float = 0.125
    gamma_multiplier: float = 0.5
    gamma_scale: float = 1.0
    beta_d: float = 2.0
    beta_min: float = 0.1
    i2sb_breakpoints: tuple[float, ...] = (0.0, 1.0)
    i2sb_values: tuple[float, ...] = (1.0,)
    alpha_fn: Callable[[float], float] | None = None
    beta_fn: Callable[[float], float] | None = None
    gamma_fn: Callable[[float], float] | None = None
    fd_step: float = 1e-6

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("gamma_max", "gamma_multiplier", "gamma_scale", "beta_d", "beta_min",
                     "fd_step"):
            val = getattr(self, name)
            if not _rng.is_finite_real(val):
                raise ValueError(f"{name} must be finite and real, got {val!r}")
        for name in ("i2sb_breakpoints", "i2sb_values"):
            seq = getattr(self, name)
            seq = seq.tolist() if isinstance(seq, np.ndarray) else seq
            if not isinstance(seq, (list, tuple)):
                raise ValueError(f"{name} must be a sequence of numbers, got {seq!r}")
            for val in seq:
                if not _rng.is_finite_real(val):
                    raise ValueError(
                        f"i2sb breakpoints and values must be finite and real; {name} holds {val!r}"
                    )
            object.__setattr__(self, name, tuple(map(float, seq)))
        if self.kind == "linear" and self.gamma_max <= 0:
            raise ValueError(f"gamma_max must be positive, got {self.gamma_max}")
        if self.kind == "linear" and self.gamma_multiplier <= 0:
            raise ValueError(
                f"gamma_multiplier must be positive, got {self.gamma_multiplier}"
            )
        if self.kind == "trig" and self.gamma_scale <= 0:
            raise ValueError(f"gamma_scale must be positive, got {self.gamma_scale}")
        if self.kind == "ddbm_vp" and (self.beta_d <= 0 or self.beta_min <= 0):
            raise ValueError(
                f"ddbm_vp needs positive beta_d, beta_min; "
                f"got ({self.beta_d}, {self.beta_min})"
            )
        if self.kind == "i2sb":
            bp = self.i2sb_breakpoints
            vals = self.i2sb_values
            if len(bp) != len(vals) + 1:
                raise ValueError(
                    f"i2sb needs len(breakpoints) == len(values) + 1, "
                    f"got {len(bp)} and {len(vals)}"
                )
            if bp[0] != 0.0 or abs(bp[-1] - T_HORIZON) > 0:
                raise ValueError("i2sb breakpoints must start at 0 and end at T = 1")
            if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
                raise ValueError("i2sb breakpoints must be strictly increasing")
            if any(v <= 0 for v in vals):
                raise ValueError("i2sb noise-rate values must be positive")
        if self.kind == "custom":
            if not (self.alpha_fn and self.beta_fn and self.gamma_fn):
                raise ValueError("custom schedules need alpha_fn, beta_fn, gamma_fn")
            if self.fd_step <= 0:
                raise ValueError(f"fd_step must be positive, got {self.fd_step}")


class ScheduleEval(NamedTuple):
    """Kernel coefficients and their time derivatives, each shaped like t.

    d_gamma_sq = d(gamma^2)/dt stays finite at the endpoints where d_gamma
    itself diverges for square-root-shaped gamma; bridge_coefficients needs
    the finite form.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray
    d_alpha: float | np.ndarray
    d_beta: float | np.ndarray
    d_gamma: float | np.ndarray
    d_gamma_sq: float | np.ndarray


class BridgeCoefficients(NamedTuple):
    """Linear-SDE coefficients of the pinned process: dX = (fX + s xT)dt + g dW."""

    f: float | np.ndarray
    s: float | np.ndarray
    g_sq: float | np.ndarray


@dataclass(frozen=True)
class EpsilonPolicy:
    """Rule producing the per-step stochasticity level eps_t >= 0.

    kinds: zero; eta_scaled (eps = eta * g^2/2); i2sb_markovian (the exact
    level at which the gamma-root step coincides with the Markovian step);
    constant (eps = const_value, optionally scaled by gamma_t^2 which gives
    the churn-style shape used with variance-exploding kernels).

    tail_zero_steps belongs to the sampler, not to epsilon: sampler.sample
    runs its final tail_zero_steps steps as the noise-free re-interpolation
    and asks epsilon for none of them.
    """

    kind: str
    eta: float = 0.3
    const_value: float = 0.0
    scale_by_gamma_sq: bool = False
    tail_zero_steps: int = 2

    def __post_init__(self):
        if self.kind not in EPSILON_KINDS:
            raise ValueError(f"unknown epsilon policy kind {self.kind!r}")
        if not (_rng.is_real(self.eta) and 0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta must be a real number in [0, 1], got {self.eta!r}")
        if not (_rng.is_finite_real(self.const_value) and self.const_value >= 0):
            raise ValueError(f"const_value must be finite, real and >= 0, got {self.const_value!r}")
        if not isinstance(self.scale_by_gamma_sq, bool):
            raise ValueError(f"scale_by_gamma_sq must be a bool, got {self.scale_by_gamma_sq!r}")
        tail = self.tail_zero_steps
        if not _rng.is_integer(tail) or tail < 0:
            raise ValueError(f"tail_zero_steps must be an integer >= 0, got {tail!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly decreasing integration times from t_max down to t_min."""

    points: tuple[float, ...]
    t_min: float
    t_max: float
    rho: float

    @property
    def n_steps(self) -> int:
        return len(self.points) - 1


def _times(t):
    """A float (or int) t as a float; anything else as a float64 array copy."""
    return float(t) if isinstance(t, (float, int)) else np.array(t, dtype=np.float64)


def _first_where(bad, *values):
    """None if bad (a bool, or a bool array) holds nowhere, else the values where it first holds."""
    if bad is False or not np.any(bad):
        return None
    i = np.flatnonzero(bad)[0]
    return tuple(np.ravel(v)[i] for v in values)


def _clamp_rounding(x, message: str, *context):
    """x with negatives in [-1e-12, 0) set to 0; an entry below -1e-12 raises
    ValueError(message.format(*context, entry)), context taken at that entry."""
    at = _first_where(x < -1e-12, *context, x)
    if at:
        raise ValueError(message.format(*at))
    if isinstance(x, float):
        return 0.0 if x < 0.0 else x
    return np.where(x < 0.0, 0.0, x)


def _vp_base(t, beta_d: float, beta_min: float):
    # Shared closed forms so the t = T evaluation reuses the exact same
    # arithmetic as the reference values at T (endpoints land on 0/1 exactly).
    a_int = 0.5 * beta_d * t * t + beta_min * t
    a_rate = beta_d * t + beta_min
    e = np.exp(a_int)
    sigma = np.sqrt(np.maximum(e - 1.0, 0.0))
    return a_rate, e, sigma, np.exp(-0.5 * a_int)


def _i2sb_integral(sched: Schedule, t):
    """Returns (sigma_t^2, d(sigma_t^2)/dt) for the piecewise-constant rate."""
    bp = np.asarray(sched.i2sb_breakpoints)
    vals = np.asarray(sched.i2sb_values)
    cum = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
    j = np.searchsorted(bp[1:-1], t, side="right")
    return cum[j] + vals[j] * (t - bp[j]), vals[j]


def _kernel(sched: Schedule, t, one):
    """(alpha, beta, gamma, d_alpha, d_beta, d_gamma, d_gamma_sq) at t; one is 1 shaped like t."""
    if sched.kind == "linear":
        m = sched.gamma_multiplier * sched.gamma_max
        gamma = m * np.sqrt(t * (1.0 - t))
        d_gamma_sq = m * m * (1.0 - 2.0 * t)
        return 1.0 - t, t, gamma, -one, 1.0 * one, d_gamma_sq / (2.0 * gamma), d_gamma_sq

    if sched.kind == "trig":
        h = 0.5 * math.pi
        alpha = np.cos(h * t)
        beta = np.sin(h * t)
        gamma = sched.gamma_scale * np.sin(math.pi * t)
        d_gamma = sched.gamma_scale * math.pi * np.cos(math.pi * t)
        return alpha, beta, gamma, -h * beta, h * alpha, d_gamma, 2.0 * gamma * d_gamma

    if sched.kind == "ddbm_ve":
        # sigma_t = t, scale a_t = 1, T = 1: alpha = 1 - t^2, beta = t^2.
        t2 = t * t
        gamma = np.sqrt(t2 * (1.0 - t2))
        d_gamma = (1.0 - 2.0 * t2) / np.sqrt(1.0 - t2)
        return 1.0 - t2, t2, gamma, -2.0 * t, 2.0 * t, d_gamma, 2.0 * t - 4.0 * t * t2

    if sched.kind == "ddbm_vp":
        a_rate, e, sigma, a_t = _vp_base(t, sched.beta_d, sched.beta_min)
        _, e1, _, a_1 = _vp_base(T_HORIZON, sched.beta_d, sched.beta_min)
        # r = (sigma_t^2 a_1^2)/(sigma_1^2 a_t^2) = (E^2 - E)/(E1^2 - E1); the
        # ratio form makes r(T) = 1 exactly so the endpoint pins in IEEE.
        q1 = e1 * e1 - e1
        r = (e * e - e) / q1
        d_r = a_rate * (2.0 * e * e - e) / q1
        d_a = -0.5 * a_rate * a_t
        one_m_r = np.maximum(1.0 - r, 0.0)
        gamma = sigma * np.sqrt(one_m_r)
        d_gamma_sq = a_rate * e * one_m_r - sigma * sigma * d_r
        return (
            a_t * (1.0 - r), (a_t / a_1) * r, gamma, d_a * (1.0 - r) - a_t * d_r,
            (d_a * r + a_t * d_r) / a_1, d_gamma_sq / (2.0 * gamma), d_gamma_sq,
        )

    if sched.kind == "i2sb":
        u, rate = _i2sb_integral(sched, t)
        u_T, _ = _i2sb_integral(sched, T_HORIZON)
        frac = u / u_T
        gamma = np.sqrt(np.maximum(u * (1.0 - frac), 0.0))
        d_gamma_sq = rate * (1.0 - 2.0 * frac)
        return (
            1.0 - frac, frac, gamma, -rate / u_T, rate / u_T, d_gamma_sq / (2.0 * gamma), d_gamma_sq
        )

    if sched.kind == "edm":
        return 1.0 * one, 0.0 * one, t, 0.0 * one, 0.0 * one, 1.0 * one, 2.0 * t

    # custom: the callables take one scalar t; derivatives are central
    # differences, one-sided where the step would leave [0, T].
    def call(fn, x):
        return np.reshape([float(fn(float(v))) for v in np.ravel(x)], np.shape(x))

    fns = (sched.alpha_fn, sched.beta_fn, sched.gamma_fn)
    lo, hi = np.maximum(t - sched.fd_step, 0.0), np.minimum(t + sched.fd_step, T_HORIZON)
    (a_lo, b_lo, g_lo), (a_hi, b_hi, g_hi) = ([call(fn, x) for fn in fns] for x in (lo, hi))
    span = hi - lo
    return (
        *(call(fn, t) for fn in fns), (a_hi - a_lo) / span, (b_hi - b_lo) / span,
        (g_hi - g_lo) / span, (g_hi * g_hi - g_lo * g_lo) / span,
    )


def _eval_full(sched: Schedule, t) -> ScheduleEval:
    t = _times(t)
    at = _first_where((t < 0.0) | (t > T_HORIZON) | (t != t), t)
    if at:
        raise ValueError(f"t = {at[0]} outside [0, {T_HORIZON}]")
    if sched.kind == "custom":
        warnings.warn(
            "custom schedule: derivatives are finite differences, the "
            "derivative-consistency guarantee does not apply",
            stacklevel=3,
        )
    scalar = isinstance(t, float)
    # Square-root-shaped gamma divides by zero at the endpoints: +-inf there.
    with np.errstate(divide="ignore", invalid="ignore"):
        fields = _kernel(sched, t, 1.0 if scalar else np.ones_like(t))
    return ScheduleEval(*map(float, fields)) if scalar else ScheduleEval(*fields)


def eval_schedule(sched: Schedule, t) -> ScheduleEval:
    """Evaluates (alpha, beta, gamma) and time derivatives at t in [0, T].

    t is a float, giving floats, or an array, giving fields shaped like t.
    Derivatives of square-root-shaped gamma diverge at the endpoints; they
    are returned as +-inf there.  All quantities are finite on (0, T).
    """
    return _eval_full(sched, t)


def bridge_coefficients(sched: Schedule, t) -> BridgeCoefficients:
    """Linear-SDE coefficients at t: f = da/a, s = db - f b, g^2 = 2(g g' - f g^2).

    t is a float or an array, as for eval_schedule.  Raises on |alpha(t)| <
    1e-12, where the drift gain diverges.  A g^2 within -1e-12 of zero is
    clamped to 0; anything more negative is a schedule error.
    """
    ev = _eval_full(sched, t)
    at = _first_where(abs(ev.alpha) < 1e-12, t, ev.alpha)
    if at:
        raise ValueError("alpha({}) = {} is singular for the pinned SDE".format(*at))
    f = ev.d_alpha / ev.alpha
    g_sq = _clamp_rounding(
        ev.d_gamma_sq - 2.0 * f * ev.gamma * ev.gamma,
        "g^2({}) = {} is negative; schedule is not a bridge", t,
    )
    return BridgeCoefficients(f, ev.d_beta - f * ev.beta, g_sq)


def epsilon(policy: EpsilonPolicy, sched: Schedule, t: float, dt: float) -> float:
    """Stochasticity level of the step from t to t - dt.

    It does not read policy.tail_zero_steps: the sampler runs its zero tail
    without asking for eps.
    """
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if policy.kind == "zero":
        return 0.0
    if policy.kind == "eta_scaled":
        return policy.eta * bridge_coefficients(sched, t).g_sq / 2.0
    if policy.kind == "constant":
        if policy.scale_by_gamma_sq:
            g = _eval_full(sched, t).gamma
            return policy.const_value * g * g
        return policy.const_value
    # i2sb_markovian
    if dt == 0:
        raise ValueError("i2sb_markovian epsilon needs dt > 0")
    now = _eval_full(sched, t)
    prev = _eval_full(sched, t - dt)
    if abs(now.beta) < 1e-12:
        raise ValueError(f"beta({t}) = {now.beta} is singular for i2sb_markovian")
    b_sq = now.beta * now.beta
    eps = (
        prev.gamma * prev.gamma * b_sq - prev.beta * prev.beta * now.gamma * now.gamma
    ) / (2.0 * b_sq * dt)
    return _clamp_rounding(
        eps,
        "i2sb_markovian epsilon is negative ({2}) at t = {0}, dt = {1}; "
        "the schedule/grid pairing is invalid",
        t, dt,
    )


def make_time_grid(
    N: int,
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
    rho: float = DEFAULT_RHO,
) -> TimeGrid:
    """rho-spaced grid t_i = (t_max^(1/rho) + (i/N)(t_min^(1/rho) - t_max^(1/rho)))^rho.

    The grid formula itself is regular at t_max = T; singular-point guards
    live where the coefficients are evaluated, so t_max <= T is accepted.
    """
    if not _rng.is_integer(N) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N!r}")
    for name, val in (("t_min", t_min), ("t_max", t_max), ("rho", rho)):
        if not _rng.is_finite_real(val):
            raise ValueError(f"{name} must be a real number and finite, got {val!r}")
    if not 0.0 < t_min < t_max <= T_HORIZON:
        raise ValueError(f"need 0 < t_min < t_max <= {T_HORIZON}, got [{t_min}, {t_max}]")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    i = np.arange(N + 1) / N
    pts = (t_max ** (1.0 / rho) + i * (t_min ** (1.0 / rho) - t_max ** (1.0 / rho))) ** rho
    pts[0] = t_max
    pts[-1] = t_min
    if not np.all(np.diff(pts) < 0):
        raise ValueError("time grid is not strictly decreasing")
    return TimeGrid(tuple(float(p) for p in pts), t_min, t_max, rho)


def _probe_states(n: int, d: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gen = _rng.stream(seed, _rng.TAG_PROBE)
    x = gen.standard_normal((n, d))
    x_T = gen.standard_normal((n, d))
    score = gen.standard_normal((n, d))
    return x, x_T, score


def verify_reformulation(
    sched: Schedule, t_grid: TimeGrid | Sequence[float], n_probes: int = 32
) -> float:
    """Max deviation between schedule-derived and native family expressions.

    The family is the schedule's kind: ddbm_ve, ddbm_vp, edm or i2sb.
    VE: framework drift f x + s xT vs 2 sigma sigma' (xT - x)/(sigma_T^2 -
    sigma_t^2) and g^2 vs 2 sigma sigma'.  VP: same comparison against the
    scaled-process drift fbar x - gbar^2 hbar and gbar^2.  EDM: the eps = 0
    drift vs -sigma sigma' score.  I2SB: the Markovian one-step coefficients
    vs the integrated-noise posterior coefficients on consecutive grid pairs.
    """
    if sched.kind not in ("ddbm_ve", "ddbm_vp", "edm", "i2sb"):
        raise ValueError(f"no reformulation family for schedule kind {sched.kind!r}; "
                         "expected ddbm_ve, ddbm_vp, edm or i2sb")
    pts = np.asarray(t_grid.points if isinstance(t_grid, TimeGrid) else t_grid, dtype=np.float64)
    if pts.ndim != 1 or pts.size < 2 or not _rng.is_integer(n_probes) or n_probes < 1:
        raise ValueError(
            f"need a 1-d grid of >= 2 times and n_probes >= 1, got {pts.shape}, {n_probes}"
        )
    x, x_T, score = _probe_states(n_probes, 2)
    t = pts[:, None, None]  # one probe block per grid time

    def max_abs(*diffs) -> float:
        return float(max(np.max(np.abs(d)) for d in diffs))

    if sched.kind == "i2sb":
        # Markovian step coefficients against the posterior form written with
        # the integrated noise rate directly, on consecutive pairs.
        t_hi, t_lo = pts[:-1], pts[1:]
        now, prev = _eval_full(sched, t_hi), _eval_full(sched, t_lo)
        c0 = prev.alpha - now.alpha * prev.beta / now.beta
        cx = prev.beta / now.beta
        cn_sq = prev.gamma**2 - prev.beta**2 * now.gamma**2 / now.beta**2
        sig_n_sq, _ = _i2sb_integral(sched, t_lo)
        a_n_sq = _i2sb_integral(sched, t_hi)[0] - sig_n_sq
        tot = sig_n_sq + a_n_sq
        return max_abs(c0 - a_n_sq / tot, cx - sig_n_sq / tot, cn_sq - sig_n_sq * a_n_sq / tot)

    bc = bridge_coefficients(sched, t)
    if sched.kind == "ddbm_ve":
        native = 2.0 * t * (x_T - x) / (1.0 - t * t)
        return max_abs(bc.f * x + bc.s * x_T - native, bc.g_sq - 2.0 * t)

    if sched.kind == "ddbm_vp":
        _, _, sigma1, a_1 = _vp_base(T_HORIZON, sched.beta_d, sched.beta_min)
        a_rate, e, sigma, a_t = _vp_base(t, sched.beta_d, sched.beta_min)
        d_a = -0.5 * a_rate * a_t
        d_sigma = a_rate * e / (2.0 * sigma)
        f_native = d_a / a_t
        g_sq_native = 2.0 * sigma * d_sigma - 2.0 * f_native * sigma * sigma
        denom = sigma1 * sigma1 * a_t * a_t - sigma * sigma * a_1 * a_1
        h_bar = (a_1 * a_t * x_T - a_1 * a_1 * x) / denom
        # The conditioned process adds the h-transform pull toward x_T.
        native = f_native * x + g_sq_native * h_bar
        return max_abs(bc.f * x + bc.s * x_T - native, bc.g_sq - g_sq_native)

    # edm
    ours = bc.f * x + bc.s * x_T - 0.5 * bc.g_sq * score
    return max_abs(ours - (-t * score), bc.g_sq - 2.0 * t)
