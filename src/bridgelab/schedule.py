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

_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class Schedule:
    """A named kernel family plus its parameters.

    Fields irrelevant to a kind are ignored by it.  gamma_multiplier scales
    the linear-family gamma: the default 0.5 gives gamma = (gamma_max/2)
    sqrt(t(1-t)); multiplier 2.0 gives the 2*gamma_max convention.

    i2sb_breakpoints and i2sb_values describe a piecewise-constant noise rate
    b(tau) on [0, T]: values[j] holds on [breakpoints[j], breakpoints[j+1]).
    sigma_t^2 is its exact running integral.

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
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if not all(map(math.isfinite, (*self.i2sb_breakpoints, *self.i2sb_values))):
            raise ValueError("i2sb breakpoints and values must be finite")
        if self.kind in ("linear", "trig") and self.gamma_max <= 0:
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


@dataclass(frozen=True)
class ScheduleEval:
    """Kernel coefficients and their time derivatives at one t."""

    alpha: float
    beta: float
    gamma: float
    d_alpha: float
    d_beta: float
    d_gamma: float


@dataclass(frozen=True)
class BridgeCoefficients:
    """Linear-SDE coefficients of the pinned process: dX = (fX + s xT)dt + g dW."""

    f: float
    s: float
    g_sq: float


@dataclass(frozen=True)
class EpsilonPolicy:
    """Rule producing the per-step stochasticity level eps_t >= 0.

    kinds: zero; eta_scaled (eps = eta * g^2/2); i2sb_markovian (the exact
    level at which the gamma-root step coincides with the Markovian step);
    constant (eps = const_value, optionally scaled by gamma_t^2 which gives
    the churn-style shape used with variance-exploding kernels).

    Every kind returns 0 for the final tail_zero_steps steps.
    """

    kind: str
    eta: float = 0.3
    const_value: float = 0.0
    scale_by_gamma_sq: bool = False
    tail_zero_steps: int = 2

    def __post_init__(self):
        if self.kind not in EPSILON_KINDS:
            raise ValueError(f"unknown epsilon policy kind {self.kind!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0 <= self.const_value < math.inf:
            raise ValueError(f"const_value must be finite and >= 0, got {self.const_value}")
        if self.tail_zero_steps < 0:
            raise ValueError(f"tail_zero_steps must be >= 0, got {self.tail_zero_steps}")


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


class _EvalFull(NamedTuple):
    # d_gamma_sq = d(gamma^2)/dt stays finite at the endpoints where d_gamma
    # itself diverges for square-root-shaped gamma; bridge_coefficients needs
    # the finite form.
    alpha: float
    beta: float
    gamma: float
    d_alpha: float
    d_beta: float
    d_gamma: float
    d_gamma_sq: float


def _vp_base(t: float, beta_d: float, beta_min: float):
    # Shared closed forms so the t = T evaluation reuses the exact same
    # arithmetic as the reference values at T (endpoints land on 0/1 exactly).
    a_int = 0.5 * beta_d * t * t + beta_min * t
    a_rate = beta_d * t + beta_min
    e = math.exp(a_int)
    sigma = math.sqrt(e - 1.0) if e > 1.0 else 0.0
    scale = math.exp(-0.5 * a_int)
    return a_int, a_rate, e, sigma, scale


def _i2sb_integral(sched: Schedule, t: float) -> tuple[float, float]:
    """Returns (sigma_t^2, d(sigma_t^2)/dt) for the piecewise-constant rate."""
    bp = sched.i2sb_breakpoints
    vals = sched.i2sb_values
    u = 0.0
    rate = vals[-1]
    for j, v in enumerate(vals):
        lo, hi = bp[j], bp[j + 1]
        if t >= hi:
            u += v * (hi - lo)
        else:
            u += v * (t - lo)
            rate = v
            break
    return u, rate


def _eval_full(sched: Schedule, t: float) -> _EvalFull:
    if sched.kind == "linear":
        m = sched.gamma_multiplier * sched.gamma_max
        q = t * (1.0 - t)
        gamma = m * math.sqrt(q)
        d_gamma_sq = m * m * (1.0 - 2.0 * t)
        with np.errstate(divide="ignore"):
            d_gamma = float(np.divide(d_gamma_sq, 2.0 * gamma)) if q >= 0 else math.nan
        return _EvalFull(1.0 - t, t, gamma, -1.0, 1.0, d_gamma, d_gamma_sq)

    if sched.kind == "trig":
        h = 0.5 * math.pi
        alpha = math.cos(h * t)
        beta = math.sin(h * t)
        gamma = sched.gamma_scale * math.sin(math.pi * t)
        d_gamma = sched.gamma_scale * math.pi * math.cos(math.pi * t)
        return _EvalFull(
            alpha, beta, gamma, -h * beta, h * alpha, d_gamma, 2.0 * gamma * d_gamma
        )

    if sched.kind == "ddbm_ve":
        # sigma_t = t, scale a_t = 1, T = 1: alpha = 1 - t^2, beta = t^2.
        t2 = t * t
        gamma_sq = t2 * (1.0 - t2)
        gamma = math.sqrt(gamma_sq) if gamma_sq > 0 else 0.0
        d_gamma_sq = 2.0 * t - 4.0 * t * t2
        with np.errstate(divide="ignore"):
            d_gamma = float(np.divide(1.0 - 2.0 * t2, np.sqrt(1.0 - t2)))
        return _EvalFull(1.0 - t2, t2, gamma, -2.0 * t, 2.0 * t, d_gamma, d_gamma_sq)

    if sched.kind == "ddbm_vp":
        _, a_rate, e, sigma, a_t = _vp_base(t, sched.beta_d, sched.beta_min)
        _, _, e1, sigma1, a_1 = _vp_base(T_HORIZON, sched.beta_d, sched.beta_min)
        # r = (sigma_t^2 a_1^2)/(sigma_1^2 a_t^2) = (E^2 - E)/(E1^2 - E1); the
        # ratio form makes r(T) = 1 exactly so the endpoint pins in IEEE.
        q1 = e1 * e1 - e1
        r = (e * e - e) / q1
        d_r = a_rate * (2.0 * e * e - e) / q1
        d_a = -0.5 * a_rate * a_t
        alpha = a_t * (1.0 - r)
        d_alpha = d_a * (1.0 - r) - a_t * d_r
        beta = (a_t / a_1) * r
        d_beta = (d_a * r + a_t * d_r) / a_1
        one_m_r = max(1.0 - r, 0.0)
        gamma = sigma * math.sqrt(one_m_r)
        gamma_sq = sigma * sigma * one_m_r
        d_sigma_sq = a_rate * e
        d_gamma_sq = d_sigma_sq * one_m_r - sigma * sigma * d_r
        with np.errstate(divide="ignore", invalid="ignore"):
            d_gamma = float(np.divide(d_gamma_sq, 2.0 * gamma))
        return _EvalFull(alpha, beta, gamma, d_alpha, d_beta, d_gamma, d_gamma_sq)

    if sched.kind == "i2sb":
        u, rate = _i2sb_integral(sched, t)
        u_T, _ = _i2sb_integral(sched, T_HORIZON)
        frac = u / u_T
        gamma_sq = u * (1.0 - frac)
        gamma = math.sqrt(gamma_sq) if gamma_sq > 0 else 0.0
        d_gamma_sq = rate * (1.0 - 2.0 * frac)
        with np.errstate(divide="ignore", invalid="ignore"):
            d_gamma = float(np.divide(d_gamma_sq, 2.0 * gamma))
        return _EvalFull(
            1.0 - frac, frac, gamma, -rate / u_T, rate / u_T, d_gamma, d_gamma_sq
        )

    if sched.kind == "edm":
        return _EvalFull(1.0, 0.0, t, 0.0, 0.0, 1.0, 2.0 * t)

    # custom
    warnings.warn(
        "custom schedule: derivatives are finite differences, the "
        "derivative-consistency guarantee does not apply",
        stacklevel=3,
    )
    h = sched.fd_step
    alpha = float(sched.alpha_fn(t))
    beta = float(sched.beta_fn(t))
    gamma = float(sched.gamma_fn(t))
    lo, hi = max(t - h, 0.0), min(t + h, T_HORIZON)
    span = hi - lo
    d_alpha = (float(sched.alpha_fn(hi)) - float(sched.alpha_fn(lo))) / span
    d_beta = (float(sched.beta_fn(hi)) - float(sched.beta_fn(lo))) / span
    g_hi, g_lo = float(sched.gamma_fn(hi)), float(sched.gamma_fn(lo))
    d_gamma = (g_hi - g_lo) / span
    d_gamma_sq = (g_hi * g_hi - g_lo * g_lo) / span
    return _EvalFull(alpha, beta, gamma, d_alpha, d_beta, d_gamma, d_gamma_sq)


def eval_schedule(sched: Schedule, t: float) -> ScheduleEval:
    """Evaluates (alpha, beta, gamma) and time derivatives at t in [0, T].

    Derivatives of square-root-shaped gamma diverge at the endpoints; they
    are returned as +-inf there.  All quantities are finite on (0, T).
    """
    if not 0.0 <= t <= T_HORIZON:
        raise ValueError(f"t = {t} outside [0, {T_HORIZON}]")
    fe = _eval_full(sched, t)
    return ScheduleEval(fe.alpha, fe.beta, fe.gamma, fe.d_alpha, fe.d_beta, fe.d_gamma)


def bridge_coefficients(sched: Schedule, t: float) -> BridgeCoefficients:
    """Linear-SDE coefficients at t: f = da/a, s = db - f b, g^2 = 2(g g' - f g^2).

    Raises on |alpha(t)| < 1e-12, where the drift gain diverges.  A g^2 within
    -1e-12 of zero is clamped to 0; anything more negative is a schedule error.
    """
    if not 0.0 <= t <= T_HORIZON:
        raise ValueError(f"t = {t} outside [0, {T_HORIZON}]")
    fe = _eval_full(sched, t)
    if abs(fe.alpha) < 1e-12:
        raise ValueError(f"alpha({t}) = {fe.alpha} is singular for the pinned SDE")
    f = fe.d_alpha / fe.alpha
    s = fe.d_beta - f * fe.beta
    g_sq = fe.d_gamma_sq - 2.0 * f * fe.gamma * fe.gamma
    if g_sq < 0.0:
        if g_sq < -1e-12:
            raise ValueError(f"g^2({t}) = {g_sq} is negative; schedule is not a bridge")
        g_sq = 0.0
    return BridgeCoefficients(f, s, g_sq)


def epsilon(
    policy: EpsilonPolicy,
    sched: Schedule,
    t: float,
    dt: float,
    step_index: int,
    total_steps: int,
) -> float:
    """Per-step stochasticity level; step_index counts total_steps-1 down to 0."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if step_index < policy.tail_zero_steps:
        return 0.0
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
    if eps < 0.0:
        if eps < -1e-12:
            raise ValueError(
                f"i2sb_markovian epsilon is negative ({eps}) at t = {t}, dt = {dt}; "
                f"the schedule/grid pairing is invalid"
            )
        eps = 0.0
    return eps


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
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
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
    family: str,
    t_grid: TimeGrid | Sequence[float],
    beta_d: float = 2.0,
    beta_min: float = 0.1,
    i2sb_breakpoints: tuple[float, ...] = (0.0, 1.0),
    i2sb_values: tuple[float, ...] = (1.0,),
    n_probes: int = 32,
) -> float:
    """Max deviation between schedule-derived and native family expressions.

    VE: framework drift f x + s xT vs 2 sigma sigma' (xT - x)/(sigma_T^2 -
    sigma_t^2) and g^2 vs 2 sigma sigma'.  VP: same comparison against the
    scaled-process drift fbar x - gbar^2 hbar and gbar^2.  EDM: the eps = 0
    drift vs -sigma sigma' score.  I2SB: the Markovian one-step coefficients
    vs the integrated-noise posterior coefficients on consecutive grid pairs.
    """
    pts = list(t_grid.points) if isinstance(t_grid, TimeGrid) else [float(t) for t in t_grid]
    if family not in ("ve", "vp", "edm", "i2sb"):
        raise ValueError(f"unknown reformulation family {family!r}")
    dev = 0.0
    x, x_T, score = _probe_states(n_probes, 2)

    if family == "ve":
        sched = Schedule("ddbm_ve")
        for t in pts:
            bc = bridge_coefficients(sched, t)
            ours = bc.f * x + bc.s * x_T
            native = 2.0 * t * (x_T - x) / (1.0 - t * t)
            dev = max(dev, float(np.max(np.abs(ours - native))))
            dev = max(dev, abs(bc.g_sq - 2.0 * t))
        return dev

    if family == "vp":
        sched = Schedule("ddbm_vp", beta_d=beta_d, beta_min=beta_min)
        _, _, _, sigma1, a_1 = _vp_base(T_HORIZON, beta_d, beta_min)
        for t in pts:
            bc = bridge_coefficients(sched, t)
            ours = bc.f * x + bc.s * x_T
            _, a_rate, e, sigma, a_t = _vp_base(t, beta_d, beta_min)
            d_a = -0.5 * a_rate * a_t
            d_sigma = a_rate * e / (2.0 * sigma)
            f_native = (d_a / a_t)
            g_sq_native = 2.0 * sigma * d_sigma - 2.0 * f_native * sigma * sigma
            denom = sigma1 * sigma1 * a_t * a_t - sigma * sigma * a_1 * a_1
            h_bar = (a_1 * a_t * x_T - a_1 * a_1 * x) / denom
            # The conditioned process adds the h-transform pull toward x_T.
            native = f_native * x + g_sq_native * h_bar
            dev = max(dev, float(np.max(np.abs(ours - native))))
            dev = max(dev, abs(bc.g_sq - g_sq_native))
        return dev

    if family == "edm":
        sched = Schedule("edm")
        for t in pts:
            bc = bridge_coefficients(sched, t)
            ours = bc.f * x + bc.s * x_T - 0.5 * bc.g_sq * score
            native = -t * score
            dev = max(dev, float(np.max(np.abs(ours - native))))
            dev = max(dev, abs(bc.g_sq - 2.0 * t))
        return dev

    # i2sb: compare Markovian step coefficients against the posterior form
    # written with the integrated noise rate directly.
    sched = Schedule("i2sb", i2sb_breakpoints=i2sb_breakpoints, i2sb_values=i2sb_values)
    for t_hi, t_lo in zip(pts, pts[1:]):
        now = _eval_full(sched, t_hi)
        prev = _eval_full(sched, t_lo)
        c0 = prev.alpha - now.alpha * prev.beta / now.beta
        cx = prev.beta / now.beta
        cn_sq = prev.gamma**2 - prev.beta**2 * now.gamma**2 / now.beta**2
        u_lo, _ = _i2sb_integral(sched, t_lo)
        u_hi, _ = _i2sb_integral(sched, t_hi)
        sig_n_sq = u_lo
        a_n_sq = u_hi - u_lo
        tot = sig_n_sq + a_n_sq
        dev = max(dev, abs(c0 - a_n_sq / tot))
        dev = max(dev, abs(cx - sig_n_sq / tot))
        dev = max(dev, abs(cn_sq - sig_n_sq * a_n_sq / tot))
    return dev
