"""Denoisers x0hat(x_t, xT, t): analytic conditional means and a trained MLP.

The L2-optimal denoiser is the posterior mean E[x0 | x_t, xT].  For jointly
Gaussian endpoint pairs it has a closed form (Gaussian conditioning in
precision form); for Gaussian-mixture couplings it is the responsibility-
weighted combination of the per-component forms.  The MLP denoiser predicts
the residual F with D = c_skip x_t + c_out F, using input/output scalings
chosen so that both the network input and the training target have unit
variance under the data statistics (sigma0, sigmaT, sigma0T).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import rng as _rng
from .schedule import DEFAULT_T_MAX, DEFAULT_T_MIN, T_HORIZON, Schedule, eval_schedule
from .schedule import _clamp_rounding, _first_where, _times

_EIG_TOL = 1e-12
_FILE_FORMAT = "bridgelab-denoiser-v1"


def _as_matrix(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=np.float64))


def _as_vector(a) -> np.ndarray:
    return np.atleast_1d(np.asarray(a, dtype=np.float64))


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy(order="K")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class JointGaussian:
    """Jointly Gaussian endpoint pair (x0, xT) given by block moments.

    Frozen, with read-only copies of its blocks, so the factors built once at
    construction stay valid: the Cholesky factor of covTT, the gain M and
    covariance C of x0 | xT, and a square root of C.  It compares and hashes
    by identity, as its array fields have no single truth value.
    """

    mean0: np.ndarray
    meanT: np.ndarray
    cov00: np.ndarray
    covTT: np.ndarray
    cov0T: np.ndarray  # Cov(x0, xT), shape (d, d)
    _chol_TT: np.ndarray = field(init=False, repr=False, compare=False)
    _gain: np.ndarray = field(init=False, repr=False, compare=False)
    _cov_c: np.ndarray = field(init=False, repr=False, compare=False)
    _chol_c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, as_array in (("mean0", _as_vector), ("meanT", _as_vector), ("cov00", _as_matrix),
                               ("covTT", _as_matrix), ("cov0T", _as_matrix)):
            val = _read_only(as_array(getattr(self, name)))
            if not np.all(np.isfinite(val)):
                raise ValueError(f"{name} must be finite, got {val.tolist()}")
            object.__setattr__(self, name, val)
        if self.mean0.ndim != 1:
            raise ValueError(f"mean0 must be a vector, got shape {self.mean0.shape}")
        d = self.mean0.shape[0]
        if self.meanT.shape != (d,):
            raise ValueError("mean0 and meanT must share one dimension d")
        for name in ("cov00", "covTT", "cov0T"):
            if getattr(self, name).shape != (d, d):
                raise ValueError(f"{name} must be ({d}, {d}), got {getattr(self, name).shape}")
        full = np.block([[self.cov00, self.cov0T], [self.cov0T.T, self.covTT]])
        if np.min(np.linalg.eigvalsh(full)) < -1e-10:
            raise ValueError("joint covariance is not positive semidefinite")
        try:
            chol_TT = np.linalg.cholesky(self.covTT)
        except np.linalg.LinAlgError:
            raise ValueError("covTT must be positive definite") from None
        gain = np.linalg.solve(self.covTT.T, self.cov0T.T).T
        cov = self.cov00 - gain @ self.cov0T.T
        cov_c = 0.5 * (cov + cov.T)
        for name, val in (("_chol_TT", chol_TT), ("_gain", gain), ("_cov_c", cov_c),
                          ("_chol_c", _chol_psd(cov_c))):
            object.__setattr__(self, name, _read_only(val))

    @property
    def d(self) -> int:
        return self.mean0.shape[0]

    def conditional(self) -> tuple[np.ndarray, np.ndarray]:
        """Returns (gain M, cov) of x0 | xT = N(mean0 + M(xT - meanT), cov)."""
        return self._gain, self._cov_c


@dataclass(frozen=True)
class GmmCoupling:
    """Mixture of jointly Gaussian endpoint pairs.

    Frozen, with its weights and components held as tuples, so a denoiser's
    per-t plan cache stays valid for the task it was built from.
    """

    weights: Sequence[float]
    components: Sequence[JointGaussian]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("weights and components must be equal-length and non-empty")
        if not all(map(math.isfinite, self.weights)):
            raise ValueError(f"mixture weights must be finite, got {self.weights}")
        if any(w < 0 for w in self.weights):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(self.weights)}, expected 1")
        if len({c.d for c in self.components}) != 1:
            raise ValueError("mixture components must share one dimension")

    @property
    def d(self) -> int:
        return self.components[0].d


AnalyticTask = Union[JointGaussian, GmmCoupling]


def _check_analytic(dist) -> None:
    if not isinstance(dist, (JointGaussian, GmmCoupling)):
        raise ValueError(f"no analytic reference denoiser for {type(dist).__name__}: the task "
                         "must be a joint_gaussian or a gmm_coupling")


def sample_pair(
    dist: AnalyticTask, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draws n endpoint pairs (x0, xT) from the coupling."""
    _check_analytic(dist)
    if isinstance(dist, JointGaussian):
        z_T = rng.standard_normal((n, dist.d))
        z_0 = rng.standard_normal((n, dist.d))
        x_T = dist.meanT + z_T @ dist._chol_TT.T
        x_0 = dist.mean0 + (x_T - dist.meanT) @ dist._gain.T + z_0 @ dist._chol_c.T
        return x_0, x_T
    ks = rng.choice(len(dist.weights), size=n, p=dist.weights)
    x_0 = np.empty((n, dist.d))
    x_T = np.empty((n, dist.d))
    for k, comp in enumerate(dist.components):
        mask = ks == k
        if mask.any():
            a, b = sample_pair(comp, int(mask.sum()), rng)
            x_0[mask], x_T[mask] = a, b
    return x_0, x_T


def sample_condition(dist: AnalyticTask, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws n conditioning endpoints xT from the coupling's xT marginal."""
    _check_analytic(dist)
    if isinstance(dist, JointGaussian):
        return dist.meanT + rng.standard_normal((n, dist.d)) @ dist._chol_TT.T
    ks = rng.choice(len(dist.weights), size=n, p=dist.weights)
    x_T = np.empty((n, dist.d))
    for k, comp in enumerate(dist.components):
        mask = ks == k
        if mask.any():
            x_T[mask] = sample_condition(comp, int(mask.sum()), rng)
    return x_T


def _chol_psd(cov: np.ndarray) -> np.ndarray:
    # Tolerates exactly singular conditionals (deterministic couplings).
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


class _Plan(NamedTuple):
    """E[x0 | x_t, xT] at one time t (or one t per row) as one affine map.

    u = x_t X + xT Y + c holds, per component k, the mean x_t P_k^T + xT Q_k^T
    + r_k.  A mixture appends, per component, the whitened residuals of x_t
    given xT and of xT, whose squared norms are the two quadratic forms of its
    responsibility; log_norm holds log w_k minus the half log-determinants,
    shaped (k, 1), or (k, n) for one t per row.
    """

    X: np.ndarray
    Y: np.ndarray
    c: np.ndarray
    log_norm: np.ndarray | None


def _whiten(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, half log-determinant) with W W^T = cov^-1, for a (stack of) covariance(s)."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None
    half_logdet = np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return np.swapaxes(np.linalg.inv(chol), -1, -2), half_logdet


def _plan(dist: AnalyticTask, sched: Schedule, t) -> _Plan:
    """The plan of E[x0 | x_t, xT] at t, a float or an (n,) float64 array.

    Per component, with x0 | xT = N(mean0 + M(xT - meanT), C) and the kernel
    x_t | x0, xT = N(alpha x0 + beta xT, gamma^2 I), conditioning in the
    gamma-stable precision form Lam = gamma^2 C^-1 + alpha^2 I gives
    x0hat = P x_t + Q xT + r with P = alpha Lam^-1,
    Q = Lam^-1 (gamma^2 C^-1 M - alpha beta I) and
    r = Lam^-1 gamma^2 C^-1 (mean0 - M meanT).  A mixture also needs
    x_t | xT = N(A xT + a, alpha^2 C + gamma^2 I) with A = alpha M + beta I and
    a = alpha (mean0 - M meanT), and xT ~ N(meanT, covTT).  An array t gives
    one plan per row.
    """
    if isinstance(dist, GmmCoupling):
        weights, components = dist.weights, dist.components
    else:
        weights, components = (1.0,), (dist,)
    ev = eval_schedule(sched, t)
    at = _first_where(ev.gamma < 1e-12, t, ev.gamma)
    if at:
        raise ValueError("gamma({}) = {} is singular".format(*at))
    # scalars as (1, 1), or (n, 1, 1) for an array t, to broadcast against (d, d)
    alpha, beta, g_sq = (
        np.reshape(v, np.shape(v) + (1, 1)) for v in (ev.alpha, ev.beta, ev.gamma**2)
    )
    d = components[0].d
    eye = np.eye(d)
    mixed = len(components) > 1
    # (X, Y, c) column blocks: the means, then whitened x_t | xT, then whitened xT
    means, resid_t, resid_T, log_norm = [], [], [], []
    for w, comp in zip(weights, components):
        gain, cov_c = comp.conditional()
        if np.min(np.abs(np.linalg.eigvalsh(cov_c))) < _EIG_TOL:
            raise ValueError("conditional covariance of x0 | xT is singular")
        g = g_sq * np.linalg.inv(cov_c)
        offset = comp.mean0 - gain @ comp.meanT
        rhs = np.concatenate(
            [np.broadcast_to(alpha * eye, g.shape), g @ gain - alpha * beta * eye,
             (g @ offset)[..., None]], axis=-1,
        )
        sol = np.swapaxes(np.linalg.solve(g + alpha**2 * eye, rhs), -1, -2)  # rows P^T, Q^T, r
        means.append((sol[..., :d, :], sol[..., d : 2 * d, :], sol[..., 2 * d, :]))
        if mixed:
            Wt, half_t = _whiten(alpha**2 * cov_c + g_sq * eye)
            WT, half_T = _whiten(comp.covTT)
            AT = np.swapaxes(alpha * gain + beta * eye, -1, -2)
            a = alpha[..., 0] * offset
            resid_t.append((Wt, -AT @ Wt, -np.einsum("...i,...ij->...j", a, Wt)))
            resid_T.append((np.zeros_like(Wt), np.broadcast_to(WT, Wt.shape),
                            np.broadcast_to(-comp.meanT @ WT, a.shape)))
            log_norm.append((math.log(w) if w > 0 else -math.inf) - half_T - half_t)
    X, Y, c = (np.concatenate(cols, axis=-1) for cols in zip(*means, *resid_t, *resid_T))
    return _Plan(X, Y, c, np.reshape(log_norm, (len(log_norm), -1)) if mixed else None)


def _times_rows(x: np.ndarray, m: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ m for one (d, w) matrix, or row i of x times m[i] for an (n, d, w)
    stack.

    Any number of rows multiplies a C-contiguous copy of m, so the bits do
    not depend on the layout m was built in; out, an (n, w) C-contiguous
    array, receives the product.  A stack ignores out.
    """
    if m.ndim == 3:
        return (x[:, None, :] @ m)[:, 0]
    return np.matmul(x, np.ascontiguousarray(m), out=out)


def _along_rows(a: np.ndarray) -> np.ndarray:
    """A plan row, (w,), or one per data row, (n, w), as (w, 1) or (w, n)."""
    return np.reshape(a.T, (a.shape[-1], -1))


def _buffer(scratch: Optional[dict], key: str, shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of shape, kept in scratch under key for
    the next call that asks for the same shape; a fresh one without scratch.
    It is the only way either denoiser kind keeps an array in a scratch."""
    if scratch is None:
        return np.empty(shape)
    buf = scratch.get(key)
    if buf is None or buf.shape != shape:
        buf = scratch[key] = np.empty(shape)
    return buf


def _posterior_mean(
    plan: _Plan, x_t: np.ndarray, xT: np.ndarray, scratch: Optional[dict] = None
) -> np.ndarray:
    """E[x0 | x_t, xT] for (n, d) rows from a plan: one affine map, then for a
    mixture the responsibility-weighted sum of the component means.

    Every elementwise pass runs along the n rows, as numpy loops over a short
    last axis many times slower.  A Gaussian adds the offset c one column at
    a time; a mixture works on u^T, one row per plan column, and sums each
    component's squares and means in index order, whatever the row count.
    Each pass adds and multiplies in the order of the expressions it
    replaces, so the bits are theirs: u = x_t X + xT Y + c.  A mixture row
    whose quadratic form is not finite raises ValueError.  A mixture keeps
    its temporaries in scratch (see denoise); the result is never one of
    them.
    """
    n, d = x_t.shape
    if plan.log_norm is None:
        u = _times_rows(x_t, plan.X)
        u += _times_rows(xT, plan.Y)
        if plan.c.ndim == 2:
            u += plan.c
        else:
            for j, c_j in enumerate(plan.c.tolist()):
                u[:, j] += c_j
        return u
    k, w = plan.log_norm.shape[0], plan.X.shape[-1]
    u = _buffer(scratch, "mix_u", (w, n))
    other = _buffer(scratch, "mix_other", (w, n))  # the xT term, then each weighted mean
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 1:  # a contraction of length 1 is one product per entry
            np.multiply(_along_rows(plan.X[..., 0, :]), x_t[:, 0], out=u)
            u += np.multiply(_along_rows(plan.Y[..., 0, :]), xT[:, 0], out=other)
        else:
            rows = _times_rows(x_t, plan.X, _buffer(scratch, "mix_rows", (n, w)))
            rows += _times_rows(xT, plan.Y, other.reshape(n, w))
            np.copyto(u, rows.T)
        u += _along_rows(plan.c)
        sq = np.square(u[k * d :], out=_buffer(scratch, "mix_sq", (2 * k * d, n)))
        # (k, n) views of the whitened residuals' squares, x_t | xT then xT, by dimension
        terms = [half[:, j] for half in sq.reshape(2, k, d, n) for j in range(d)]
        log_resp = _buffer(scratch, "mix_resp", (k, n))
        np.copyto(log_resp, terms[0])
        for term in terms[1:]:
            log_resp += term
    if not log_resp.max(initial=-math.inf) < math.inf:
        row = np.flatnonzero(~np.all(np.isfinite(log_resp), axis=0))[0]
        raise ValueError(f"the mixture quadratic form of row {row} of {n} is not finite")
    by_row = _buffer(scratch, "mix_row", (n,))
    log_resp *= -0.5
    log_resp += plan.log_norm
    log_resp -= np.max(log_resp, axis=0, out=by_row)
    resp = np.exp(log_resp, out=log_resp)
    resp /= np.sum(resp, axis=0, out=by_row)
    means = u[: k * d].reshape(k, d, n)
    weighted = other[:d]
    out = np.empty((n, d))
    out_cols = out.T
    np.multiply(resp[0], means[0], out=out_cols)
    for j in range(1, k):
        out_cols += np.multiply(resp[j], means[j], out=weighted)
    return out


def score_from_denoiser(
    sched: Schedule, x_hat0: np.ndarray, x_t: np.ndarray, xT: np.ndarray, t: float
) -> np.ndarray:
    """Score of the kernel marginal: (alpha x0hat + beta xT - x_t)/gamma^2."""
    ev = eval_schedule(sched, t)
    if ev.gamma < 1e-12:
        raise ValueError(f"gamma({t}) = {ev.gamma} is singular for the score")
    return (ev.alpha * np.asarray(x_hat0) + ev.beta * np.asarray(xT) - np.asarray(x_t)) / ev.gamma**2


def zhat(
    sched: Schedule, x_hat0: np.ndarray, x_t: np.ndarray, xT: np.ndarray, t: float
) -> np.ndarray:
    """Standardized residual (x_t - alpha x0hat - beta xT)/gamma = -gamma score."""
    ev = eval_schedule(sched, t)
    if ev.gamma < 1e-12:
        raise ValueError(f"gamma({t}) = {ev.gamma} is singular for zhat")
    return (np.asarray(x_t) - ev.alpha * np.asarray(x_hat0) - ev.beta * np.asarray(xT)) / ev.gamma


@dataclass(frozen=True)
class Preconditioner:
    """Per-dimension data statistics driving the network scalings.

    sigma0/sigmaT are endpoint standard deviations, sigma0T the endpoint
    covariance, treated as shared across dimensions.
    """

    sigma0: float = 0.5
    sigmaT: float = 0.5
    sigma0T: float = 0.125

    def __post_init__(self):
        for name in _PREC_FIELDS:
            val = getattr(self, name)
            if not _rng.is_finite_real(val) or (val <= 0 and name != "sigma0T"):
                raise ValueError(f"prec.{name} must be finite (sigma0, sigmaT: > 0), got {val!r}")

    @classmethod
    def from_pairs(cls, x_0: np.ndarray, x_T: np.ndarray) -> "Preconditioner":
        """Moment-estimated statistics, averaged over dimensions."""
        x_0 = np.atleast_2d(np.asarray(x_0, dtype=np.float64))
        x_T = np.atleast_2d(np.asarray(x_T, dtype=np.float64))
        var0 = float(np.mean(np.var(x_0, axis=0, ddof=1)))
        varT = float(np.mean(np.var(x_T, axis=0, ddof=1)))
        c0 = x_0 - x_0.mean(axis=0)
        cT = x_T - x_T.mean(axis=0)
        cov = float(np.mean(np.sum(c0 * cT, axis=0) / (x_0.shape[0] - 1)))
        return cls(math.sqrt(var0), math.sqrt(varT), cov)


_PREC_FIELDS = tuple(f.name for f in fields(Preconditioner))


def precondition(prec: Preconditioner, sched: Schedule, t):
    """Returns (c_in, c_skip, c_out, c_noise, lam) at time t in (0, T].

    t is a float, giving floats, or an array, giving arrays shaped like t.
    c_in normalizes Var(c_in x_t) to 1 under the data statistics; c_skip and
    c_out make the residual target unit-variance; lam = 1/c_out^2 is the loss
    weight that turns the weighted denoising loss into a unit-weight residual
    loss.
    """
    t = _times(t)
    at = _first_where(t <= 0.0, t)
    if at:
        raise ValueError(f"preconditioning needs t > 0, got {at[0]}")
    ev = eval_schedule(sched, t)
    s0_sq = prec.sigma0**2
    sT_sq = prec.sigmaT**2
    var_in = (
        ev.alpha**2 * s0_sq
        + ev.beta**2 * sT_sq
        + 2.0 * ev.alpha * ev.beta * prec.sigma0T
        + ev.gamma**2
    )
    c_in = 1.0 / np.sqrt(var_in)
    c_skip = (ev.alpha * s0_sq + ev.beta * prec.sigma0T) * c_in**2
    rad = ev.beta**2 * s0_sq * sT_sq - ev.beta**2 * prec.sigma0T**2 + ev.gamma**2 * s0_sq
    rad = _clamp_rounding(rad, "c_out radicand {} is negative: data statistics are inconsistent")
    c_out = np.sqrt(rad) * c_in
    out = (c_in, c_skip, c_out, 0.25 * np.log(t), 1.0 / c_out**2)
    return tuple(map(float, out)) if isinstance(t, float) else out


# ---------------------------------------------------------------------------
# MLP denoiser


@dataclass
class MlpHyper:
    layers: int = 2
    width: int = 64
    lr: float = 0.03
    batch: int = 128
    iters: int = 20000
    seed: int = 0
    t_min: float = DEFAULT_T_MIN
    t_max: float = DEFAULT_T_MAX

    def __post_init__(self):
        for name in ("layers", "width", "batch", "iters"):
            val = getattr(self, name)
            if not _rng.is_integer(val) or val < 1:
                raise ValueError(f"train.{name} must be a positive integer, got {val!r}")
        for name in ("lr", "t_min", "t_max"):
            val = getattr(self, name)
            if not _rng.is_finite_real(val) or (name == "lr" and val <= 0):
                raise ValueError(f"train.{name} must be finite (lr: positive), got {val!r}")
        if not 0.0 < self.t_min < self.t_max <= T_HORIZON:
            raise ValueError(f"need 0 < t_min < t_max <= T, got [{self.t_min}, {self.t_max}]")


def _param_count(sizes: Sequence[int]) -> int:
    return sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


def _layers(params: np.ndarray, sizes: Sequence[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weights (n_in, n_out) and biases (n_out,) as views into params.

    params is one flat float64 vector laid out [w0, b0, w1, b1, ...], each
    weight row-major: the body of a model.bin file.  This is the only code that
    knows that layout.
    """
    if params.shape != (_param_count(sizes),):
        raise ValueError(f"parameter block holds {params.size} values, "
                         f"sizes {list(sizes)} need {_param_count(sizes)}")
    weights, biases, offset = [], [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(params[offset : offset + n_in * n_out].reshape(n_in, n_out))
        offset += n_in * n_out
        biases.append(params[offset : offset + n_out])
        offset += n_out
    return weights, biases


@dataclass(frozen=True, eq=False)
class MlpDenoiser:
    """Residual network F plus the scalings that assemble D from it.

    params holds every weight and bias in one float64 vector, the model.bin
    body, for layer widths sizes = [2d+1, ..., d].  Frozen, with a read-only
    copy of params, so the weights and biases views built once at
    construction stay valid.  It compares and hashes by identity.  Bad sizes,
    a params vector of the wrong length or a non-finite value raise
    ValueError.
    """

    params: np.ndarray
    sizes: Sequence[int]
    prec: Preconditioner
    sched: Schedule
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.sizes
        if (
            not isinstance(sizes, (list, tuple))
            or len(sizes) < 2
            or not all(_rng.is_integer(n) and n > 0 for n in sizes)
            or sizes[0] != 2 * sizes[-1] + 1
        ):
            raise ValueError(f"sizes {sizes!r} are not positive layer widths 2d+1 -> ... -> d")
        sizes = tuple(int(n) for n in sizes)
        params = _read_only(np.asarray(self.params, dtype=np.float64))
        weights, biases = _layers(params, sizes)
        if not np.all(np.isfinite(params)):
            raise ValueError("denoiser parameters must be finite")
        for name, val in (("sizes", sizes), ("params", params), ("weights", weights),
                          ("biases", biases)):
            object.__setattr__(self, name, val)

    @property
    def d(self) -> int:
        return self.sizes[-1]


def mlp_init(sizes: Sequence[int], seed: int) -> np.ndarray:
    """He-normal weights, drawn layer by layer, and zero biases, as one flat
    parameter vector (see _layers)."""
    gen = _rng.stream(seed, _rng.TAG_INIT)
    params = np.zeros(_param_count(sizes))
    for w in _layers(params, sizes)[0]:
        w[...] = gen.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[0])
    return params


def mlp_forward(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    scratch: Optional[dict] = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Network output and the per-layer activations [x, h_1, ..., out].

    Each layer is matmul, then += bias, then tanh in place on all but the last:
    np.tanh(h @ w + b) bit for bit.  Layer k writes into _buffer(scratch,
    f"mlp_{k}", ...), so with a scratch the returned output and activations
    are its buffers and the next call with that scratch overwrites them;
    without one each layer allocates its output, as training needs.
    """
    cache = [x]
    h = x
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        h = np.matmul(h, w, out=_buffer(scratch, f"mlp_{k}", (h.shape[0], w.shape[1])))
        h += b
        if k < last:
            np.tanh(h, out=h)
        cache.append(h)
    return h, cache


def mlp_backward(
    weights: Sequence[np.ndarray],
    cache: Sequence[np.ndarray],
    d_out: np.ndarray,
    grads_w: Sequence[np.ndarray],
    grads_b: Sequence[np.ndarray],
) -> None:
    """Backpropagates d_out, writing each layer's gradients into grads_w and
    grads_b: views into one flat gradient vector laid out as the parameters."""
    delta = d_out
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(cache[k].T, delta, out=grads_w[k])
        delta.sum(axis=0, out=grads_b[k])
        if k > 0:
            delta = (delta @ weights[k].T) * (1.0 - cache[k] ** 2)


def mlp_loss_and_grads(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    target: np.ndarray,
    grads_w: Sequence[np.ndarray],
    grads_b: Sequence[np.ndarray],
) -> float:
    """Mean squared residual loss; writes its exact gradients into grads_w and
    grads_b (see mlp_backward)."""
    out, cache = mlp_forward(weights, biases, x)
    resid = out - target
    loss = float(np.mean(resid**2))
    mlp_backward(weights, cache, 2.0 * resid / resid.size, grads_w, grads_b)
    return loss


# Rows in one block of training iterations: everything in a minibatch that does
# not depend on the weights is built for a whole block at once.
_TRAIN_BLOCK_ROWS = _rng.CHUNK_ROWS


def _training_inputs(
    data: AnalyticTask,
    sched: Schedule,
    prec: Preconditioner,
    hyper: MlpHyper,
    its: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs X and unit-variance residual targets of iterations its,
    hyper.batch rows per iteration, in iteration order.

    Each iteration draws from its own stream, as it would alone; the algebra
    after the draws is row-wise, so one pass over the block's rows gives every
    minibatch bit for bit.
    """
    draws = []
    for it in its:
        gen = _rng.stream(hyper.seed, _rng.TAG_TRAIN, it)
        x_0, x_T = sample_pair(data, hyper.batch, gen)
        ts = gen.uniform(hyper.t_min, hyper.t_max, hyper.batch)
        draws.append((x_0, x_T, ts[:, None], gen.standard_normal(x_0.shape)))
    x_0, x_T, ts, z = (np.concatenate(cols) for cols in zip(*draws))
    ev = eval_schedule(sched, ts)
    c_in, c_skip, c_out, c_noise, _ = precondition(prec, sched, ts)
    x_t = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
    x_net = np.concatenate([c_in * x_t, x_T, c_noise], axis=1)
    target = (x_0 - c_skip * x_t) / c_out
    return x_net, target


def train_mlp_denoiser(
    data: AnalyticTask,
    sched: Schedule,
    prec: Preconditioner,
    hyper: MlpHyper,
) -> tuple[MlpDenoiser, float]:
    """Trains F by plain SGD on the unit-weight residual loss.

    The weighted denoising loss lam * ||D - x0||^2 with lam = 1/c_out^2 equals
    the residual loss ||F - (x0 - c_skip x_t)/c_out||^2, so training on the
    residual target is the weighted objective.  Returns the denoiser and the
    final running (EMA) loss; raises if the loss goes non-finite.

    Iteration it draws its minibatch from its own stream (seed, TAG_TRAIN, it):
    endpoint pairs, then times, then noise.  The schedule, scalings and network
    inputs are evaluated once per block of about CHUNK_ROWS rows, which gives
    the same minibatches, so the trained weights do not depend on the block.
    The layer views of the parameters and of the one gradient buffer are built
    once per run, and each step is one update of the flat parameter vector.
    """
    _check_analytic(data)
    d = data.d
    sizes = [2 * d + 1] + [hyper.width] * hyper.layers + [d]
    params = mlp_init(sizes, hyper.seed)
    grads = np.empty_like(params)
    (weights, biases), (grads_w, grads_b) = _layers(params, sizes), _layers(grads, sizes)
    running = math.nan
    block = max(1, _TRAIN_BLOCK_ROWS // hyper.batch)
    for start in range(0, hyper.iters, block):
        its = range(start, min(start + block, hyper.iters))
        x_block, target_block = _training_inputs(data, sched, prec, hyper, its)
        for i, it in enumerate(its):
            rows = slice(i * hyper.batch, (i + 1) * hyper.batch)
            loss = mlp_loss_and_grads(
                weights, biases, x_block[rows], target_block[rows], grads_w, grads_b
            )
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at iteration {it}: loss = {loss}")
            params -= hyper.lr * grads
            running = loss if math.isnan(running) else 0.99 * running + 0.01 * loss
    return MlpDenoiser(params, sizes, prec, sched), running


def _mlp_denoise(
    den: MlpDenoiser, x_t: np.ndarray, xT: np.ndarray, t, scratch: Optional[dict]
) -> np.ndarray:
    """D = c_skip x_t + c_out F on (n, d) rows at t, a float or an (n,) array."""
    t = t if isinstance(t, float) else np.reshape(t, (-1, 1))
    c_in, c_skip, c_out, c_noise, _ = precondition(den.prec, den.sched, t)
    noise_col = np.broadcast_to(c_noise, (x_t.shape[0], 1))
    x_net = np.concatenate([c_in * x_t, xT, noise_col], axis=1)
    f_out, _ = mlp_forward(den.weights, den.biases, x_net, scratch)
    return c_skip * x_t + c_out * f_out


@dataclass(frozen=True)
class AnalyticDenoiser:
    """The exact posterior mean of a JointGaussian or GmmCoupling task.

    denoise caches the plan of every float t it is called at, so a sampler
    pays the t-only algebra once per step time, not once per chunk; one time
    per row is never cached.  The plan is a pure function of (task, schedule,
    t), and both task kinds are frozen.  Chunks racing under --threads store
    equal values, so the cache needs no lock.  Errors raise before anything
    is stored, so they fire on every call.  _prime_plans fills the cache for
    all of a run's step times at once, with views of one array-t plan; no
    output bit depends on a cached plan's memory layout (see _times_rows).
    """

    dist: AnalyticTask
    sched: Schedule
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_analytic(self.dist)

    @property
    def d(self) -> int:
        return self.dist.d


Denoiser = Union[AnalyticDenoiser, MlpDenoiser]


def _prime_plans(den: Denoiser, times: np.ndarray) -> None:
    """Caches an AnalyticDenoiser's plans at every float t in times from one
    array-t _plan call, instead of one float-t call per time.

    Row i of each array-t field, and column i of log_norm as a (k, 1) view,
    hold the values of a float-t plan at times[i]; no output bit depends on
    a plan's memory layout.  Times already cached keep their plans.  Any
    other denoiser, and an array call that raises, primes nothing: the
    first float-t call at a bad time then raises its own error.
    """
    if not isinstance(den, AnalyticDenoiser):
        return
    keys = times.tolist()
    if all(t in den._plans for t in keys):
        return
    try:
        plans = _plan(den.dist, den.sched, times)
    except ValueError:  # raised again, at its step, by that time's float-t call
        return
    for i, t in enumerate(keys):
        log_norm = None if plans.log_norm is None else plans.log_norm[:, i : i + 1]
        den._plans.setdefault(t, _Plan(plans.X[i], plans.Y[i], plans.c[i], log_norm))


def denoise(
    den: Denoiser, x_t: np.ndarray, xT: np.ndarray, t, scratch: Optional[dict] = None
) -> np.ndarray:
    """Evaluates x0hat(x_t, xT, t) for any denoiser kind: the one entry point.

    x_t is a d-vector, giving a d-vector, or (n, d) rows; xT is broadcast to
    x_t; t is a float or an (n,) array of one time per row.  An
    AnalyticDenoiser reuses the plan it cached for a float t (see its class).

    scratch is an optional dict, owned by the caller, in which an MLP denoiser
    keeps its layer outputs, and an analytic mixture its temporaries, from
    one call to the next, each array under its own _buffer key; a single
    Gaussian ignores it.  A fresh 4096 x 32 float64 temporary is 1 MB, a new
    memory mapping whose pages fault in on first touch, so a sampler passes
    one scratch per row chunk and reuses it for all of that chunk's steps.
    The buffers keep the full chunk's GEMM shapes: evaluating the network in
    smaller row blocks would sum in another order and change the output
    bits.  A scratch must not be shared between threads, and it dies with
    the chunk, so it adds nothing to peak memory after the loop.  The
    returned x0hat never aliases the scratch.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    squeeze = x_t.ndim == 1
    x_t = np.atleast_2d(x_t)
    xT = np.atleast_2d(np.asarray(xT, dtype=np.float64))
    if xT.shape != x_t.shape:
        xT = np.broadcast_to(xT, x_t.shape)
    t = _times(t)
    if isinstance(den, AnalyticDenoiser):
        if not isinstance(t, float):  # one time per row: never cached
            plan = _plan(den.dist, den.sched, t)
        elif (plan := den._plans.get(t)) is None:
            plan = den._plans[t] = _plan(den.dist, den.sched, t)
        out = _posterior_mean(plan, x_t, xT, scratch)
    elif isinstance(den, MlpDenoiser):
        out = _mlp_denoise(den, x_t, xT, t, scratch)
    else:
        raise ValueError(f"unknown denoiser type {type(den).__name__}")
    return out[0] if squeeze else out


def test_mse_vs_analytic(
    den: Denoiser,
    dist: AnalyticTask,
    n_probes: int = 2048,
    seed: int = 0,
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
) -> float:
    """Mean squared error of den against the closed-form posterior mean.

    Probes are fresh endpoint pairs pushed through the denoiser's own kernel
    at uniformly drawn times, so the value estimates the excess risk of den
    over the optimal denoiser for the coupling.
    """
    ref = AnalyticDenoiser(dist, den.sched)
    gen = _rng.stream(seed, _rng.TAG_PROBE)
    x_0, x_T = sample_pair(dist, n_probes, gen)
    ts = gen.uniform(t_min, t_max, n_probes)
    z = gen.standard_normal(x_0.shape)
    ev = eval_schedule(den.sched, ts[:, None])
    x_t = ev.alpha * x_0 + ev.beta * x_T + ev.gamma * z
    diff = denoise(den, x_t, x_T, ts) - denoise(ref, x_t, x_T, ts)
    return float(np.sum(diff**2)) / (n_probes * x_0.shape[1])


# ---------------------------------------------------------------------------
# Serialization: JSON header line + raw little-endian float64 parameter block.


_SCHEDULE_FIELDS = tuple(f.name for f in fields(Schedule))


def _schedule_to_config(sched: Schedule) -> dict:
    return {key: getattr(sched, key) for key in _SCHEDULE_FIELDS}


def _header_object(header: dict, key: str, fields: tuple[str, ...]) -> dict:
    val = header.get(key)
    if not isinstance(val, dict) or set(val) != set(fields):
        raise ValueError(f"header field {key!r} must be an object with keys {fields}, got {val!r}")
    return val


def denoiser_to_bytes(den: MlpDenoiser) -> bytes:
    if not isinstance(den, MlpDenoiser):
        raise ValueError("only MLP denoisers are serialized; analytic ones are configs")
    header = {
        "format": _FILE_FORMAT,
        "kind": "mlp",
        "sizes": den.sizes,
        "prec": {key: getattr(den.prec, key) for key in _PREC_FIELDS},
        "schedule": _schedule_to_config(den.sched),
    }
    body = den.params.astype("<f8", copy=False).tobytes()
    return json.dumps(header, sort_keys=True).encode() + b"\n" + body


def load_denoiser(path) -> MlpDenoiser:
    """Reads a denoiser file; a corrupt header or body raises ValueError."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    header = json.loads(header_line)
    if (
        not isinstance(header, dict)
        or header.get("format") != _FILE_FORMAT
        or header.get("kind") != "mlp"
    ):
        raise ValueError(f"not a {_FILE_FORMAT} mlp file")
    if len(body) % 8:
        raise ValueError(f"parameter block holds {len(body)} bytes, not whole float64 values")
    prec = Preconditioner(**_header_object(header, "prec", _PREC_FIELDS))
    sched = Schedule(**_header_object(header, "schedule", _SCHEDULE_FIELDS))
    return MlpDenoiser(np.frombuffer(body, dtype="<f8"), header.get("sizes"), prec, sched)
