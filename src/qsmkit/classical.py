"""Classical dipole inversions: TKD, edge-weighted L1 regularization, CGLS.

All three consume a demodulated field volume plus a precomputed kernel and
return susceptibility estimates; none of them touch the learned machinery.
MEDI and CGLS allocate their work volumes once per solve, update them in
place, and release them before the result volume is built; MEDI's edge
masks are held as booleans, an eighth of a float64 volume each. Unweighted
CGLS iterates in the half spectrum, where H is diagonal, and takes its
residual norms by Parseval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dipole import (DipoleKernel, _from_half_spectrum, _half_spectrum_sqnorm, _to_half_spectrum,
                     apply_spectrum, half_spectrum_buffer)
from .errors import InputError, NumericalError, require
from .volume import RealVolume, forward_diff, forward_diff_adjoint, require_same_grid

log = logging.getLogger(__name__)

SMOOTH_EPS = 1e-6  # smoothing of |t| as sqrt(t^2 + eps^2) in the regularizer


@dataclass(frozen=True)
class TkdParams:
    a: float = 0.1

    def __post_init__(self) -> None:
        require("threshold a", self.a, gt=0, lt=2.0 / 3.0)


@dataclass(frozen=True)
class MediParams:
    lam: float = 600.0
    iters: int = 300
    step: float = 1.0

    def __post_init__(self) -> None:
        require("lambda", self.lam, ge=0)
        require("iters", self.iters, ge=1, integer=True)
        require("step", self.step, gt=0)


@dataclass(frozen=True)
class MediWeights:
    """Data weighting W (mean 1 over the magnitude support) and per-axis
    gradient masks M that release the strongest magnitude edges.

    Each mask is given as a ``Mask`` or an array of exact 0s and 1s on W's
    grid, and is held as a read-only boolean array; anything else is an
    input error. NumPy casts True and False to exactly 1.0 and 0.0, so M
    times a float64 volume has the bytes a float64 mask gives, and W with
    its masks holds 1.375 volumes.
    """

    w: RealVolume
    m: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        if len(self.m) != 3:
            raise InputError(f"MEDI needs one edge mask per axis, got {len(self.m)}")
        held = []
        for ax, mk in enumerate(self.m):
            if isinstance(mk, RealVolume):
                require_same_grid(self.w.meta, "W", **{f"edge mask {ax}": mk})
                mk = mk.data
            arr = np.asarray(mk)
            if arr.shape != self.w.meta.dims:
                raise InputError(f"edge mask {ax} has shape {arr.shape}, "
                                 f"W has dims {self.w.meta.dims}")
            if not np.all((arr == 0) | (arr == 1)):
                raise InputError(f"edge mask {ax} voxels must be exactly 0 or 1")
            arr = np.array(arr, dtype=bool)
            arr.setflags(write=False)
            held.append(arr)
        object.__setattr__(self, "m", tuple(held))


def tkd_invert(field: RealVolume, kernel: DipoleKernel,
               params: TkdParams = TkdParams()) -> RealVolume:
    """Thresholded k-space division.

    The divisor keeps d where |d| > a and substitutes a * sign(d) elsewhere,
    with sign(0) taken as +1 so the cone itself divides by +a.
    """
    require_same_grid(field.meta, "field", kernel=kernel)
    d = kernel.spectrum
    sign = np.where(d >= 0.0, 1.0, -1.0)
    da = np.where(np.abs(d) > params.a, d, params.a * sign)
    return RealVolume(field.meta, apply_spectrum(field.data, 1.0 / da))


def build_medi_weights(magnitude: RealVolume, edge_fraction: float = 0.3) -> MediWeights:
    """Derive W and M from a magnitude image.

    W is the magnitude scaled to mean 1 over its positive support (the
    support doubles as the data mask: zero magnitude contributes nothing).
    M_c zeroes the voxels whose |forward difference| along axis c falls in the
    top ``edge_fraction`` quantile, so strong anatomy edges go unpenalized.
    """
    require("edge_fraction", edge_fraction, ge=0, lt=1)
    mag = magnitude.data
    if np.any(mag < 0):
        raise InputError("magnitude must be nonnegative")
    support = mag > 0
    if not np.any(support):
        raise InputError("magnitude has empty support")
    w = mag / np.mean(mag[support])
    masks = []
    for ax in range(3):
        g = np.abs(forward_diff(mag, ax))
        thr = np.quantile(g, 1.0 - edge_fraction)
        if thr == 0.0 and g.max() == 0.0:
            log.warning("constant magnitude along axis %d: edge mask is all ones", ax)
        masks.append(g <= thr)
    return MediWeights(w=RealVolume(magnitude.meta, w), m=tuple(masks))


def _medi_objective(x: np.ndarray, hx: np.ndarray, b: np.ndarray, w2: np.ndarray,
                    m: tuple, lam: float, s1: np.ndarray,
                    s2: np.ndarray) -> tuple[float, float, float]:
    """(objective, data term, regulariser term) at ``x`` with ``hx`` = Hx;
    ``s1`` and ``s2`` are scratch volumes, and ``hx`` may be ``s1``."""
    resid = np.subtract(b, hx, out=s1)
    data = float(np.sum(np.multiply(np.multiply(w2, resid, out=s2), resid, out=s2)))
    reg = 0.0
    for ax in range(3):
        g = forward_diff(x, ax, out=s1)
        mag = np.sqrt(np.add(np.multiply(g, g, out=s2), SMOOTH_EPS ** 2, out=s2), out=s2)
        reg += float(np.sum(np.multiply(m[ax], mag, out=s2)))
    return data + lam * reg, data, lam * reg


def medi_invert(field: RealVolume, kernel: DipoleKernel, weights: MediWeights,
                params: MediParams = MediParams()) -> tuple[RealVolume, list[tuple]]:
    """Minimize ||W(b - Hx)||^2 + lam * sum_c ||M_c grad_c(x)||_1 by descent.

    The L1 factors are smoothed as sqrt(t^2 + eps^2) so the objective is
    differentiable; an Armijo backtracking line search keeps the recorded
    objective trace non-increasing. H is linear, so a trial x - t g reuses Hx
    and Hg. Trace rows are (iteration, objective, data_term, reg_term).
    Seven work volumes are allocated once per solve: the iterate, Hx, the
    gradient, Hg, the trial and two scratch volumes. A trial's Hx - t Hg is
    formed in scratch; an accepted trial swaps with the iterate and updates
    Hx in place by the same two operations. The work volumes are freed
    before the result volume is built.
    """
    require_same_grid(field.meta, "field", kernel=kernel, weights=weights.w)
    x, trace = _medi_solve(field.data, kernel.spectrum, weights, params)
    return RealVolume(field.meta, x), trace


def _medi_solve(b: np.ndarray, spec: np.ndarray, weights: MediWeights,
                params: MediParams) -> tuple[np.ndarray, list[tuple]]:
    """medi_invert's iteration on bare arrays: (iterate, trace)."""
    w2 = weights.w.data ** 2
    m = weights.m
    lam = params.lam
    x, hx, grad, hg, cand, s1, s2 = (np.zeros_like(b) for _ in range(7))
    work = half_spectrum_buffer(b.shape)

    f, data, reg = _medi_objective(x, hx, b, w2, m, lam, s1, s2)
    trace = [(0, f, data, reg)]
    f0 = f
    t = params.step
    for it in range(1, params.iters + 1):
        np.multiply(w2, np.subtract(hx, b, out=s1), out=s1)
        np.multiply(2.0, apply_spectrum(s1, spec, out=grad, work=work), out=grad)
        for ax in range(3):
            g = forward_diff(x, ax, out=s1)
            denom = np.sqrt(np.add(np.multiply(g, g, out=s2), SMOOTH_EPS ** 2, out=s2), out=s2)
            psi = np.divide(np.multiply(m[ax], g, out=s1), denom, out=s1)
            grad += np.multiply(lam, forward_diff_adjoint(psi, ax, out=s2), out=s2)
        gnorm2 = float(np.sum(np.multiply(grad, grad, out=s1)))
        if gnorm2 == 0.0:
            break
        apply_spectrum(grad, spec, out=hg, work=work)
        t = min(t * 2.0, params.step)
        while True:
            np.subtract(x, np.multiply(t, grad, out=cand), out=cand)
            # the trial's Hx in s1, read before the objective overwrites it
            hcand = np.subtract(hx, np.multiply(t, hg, out=s1), out=s1)
            f_new, data_new, reg_new = _medi_objective(cand, hcand, b, w2, m, lam, s1, s2)
            if np.isfinite(f_new) and f_new <= f - 1e-4 * t * gnorm2:
                x, cand = cand, x
                np.subtract(hx, np.multiply(t, hg, out=s1), out=hx)
                f, data, reg = f_new, data_new, reg_new
                break
            t *= 0.5
            if t < 1e-20:  # stalled: keep current iterate
                break
        if not np.isfinite(f) or f > 10.0 * f0:
            raise NumericalError(f"objective diverged at iteration {it}: {f:g}")
        trace.append((it, f, data, reg))
        if t < 1e-20:
            break
    return x, trace


def cg_least_squares(field: RealVolume, kernel: DipoleKernel,
                     weights: RealVolume | None = None, iters: int = 50,
                     tol: float = 1e-10) -> tuple[RealVolume, list[float]]:
    """CGLS for min ||W(b - Hx)||_2, the lam -> 0 reference for medi_invert.

    Works on the normal equations implicitly (never forms H^T W^2 H). The
    returned residual list holds ||W(b - Hx_k)||_2, which is non-increasing
    because each CG step minimizes it over a nested Krylov subspace.

    Without weights the recursion runs in the half spectrum: b is transformed
    once, each iteration multiplies by the real half spectrum of H and takes
    norms by Parseval, and the iterate is transformed back at the end. W
    does not commute with H, so a weighted solve iterates on real volumes
    with two spectral applies per iteration.
    """
    require("iters", iters, ge=1, integer=True)
    require("tol", tol, ge=0)
    require_same_grid(field.meta, "field", kernel=kernel, weights=weights)
    wd = None if weights is None else weights.data
    x, residuals = _cgls_solve(field.data, kernel.spectrum, wd, iters, tol)
    return RealVolume(field.meta, x), residuals


def _cgls_solve(b: np.ndarray, spec: np.ndarray, wd: np.ndarray | None, iters: int,
                tol: float) -> tuple[np.ndarray, list[float]]:
    """cg_least_squares' iteration on bare arrays: (iterate, residuals)."""
    if wd is not None:
        work = half_spectrum_buffer(b.shape)

        def a_fwd(v: np.ndarray, out: np.ndarray) -> np.ndarray:  # W H v
            return np.multiply(wd, apply_spectrum(v, spec, out=out, work=work), out=out)

        def a_adj(v: np.ndarray, out: np.ndarray) -> np.ndarray:  # H W v
            # apply_spectrum reads all of its input before it writes ``out``
            return apply_spectrum(np.multiply(wd, v, out=out), spec, out=out, work=work)

        def sqnorm(v: np.ndarray, tmp: np.ndarray) -> float:
            return float(np.sum(np.multiply(v, v, out=tmp)))

        return _cgls(wd * b, a_fwd, a_adj, sqnorm, lambda v: float(np.linalg.norm(v)),
                     iters, tol)

    n = b.shape[-1]
    d = spec[..., :n // 2 + 1]

    def a_diag(v: np.ndarray, out: np.ndarray) -> np.ndarray:  # D v, so A = A^T
        return np.multiply(d, v, out=out)

    def sqnorm(v: np.ndarray, tmp: np.ndarray) -> float:  # needs no scratch
        return _half_spectrum_sqnorm(v, n)

    x, residuals = _cgls(_to_half_spectrum(b), a_diag, a_diag, sqnorm,
                         lambda v: float(np.sqrt(_half_spectrum_sqnorm(v, n))), iters, tol)
    return _from_half_spectrum(x, n), residuals


def _cgls(r: np.ndarray, a_fwd, a_adj, sqnorm, norm, iters: int,
          tol: float) -> tuple[np.ndarray, list[float]]:
    """CGLS for min ||r - A x|| on vectors of ``r``'s kind, updating ``r``
    in place: (x, [||r - A x_k||]).

    ``a_fwd(v, out)`` and ``a_adj(v, out)`` put A v and A^T v in ``out``;
    ``sqnorm(v, tmp)`` is ||v||^2 with scratch ``tmp``, ``norm(v)`` is ||v||.
    Five vectors are held: q = A p shares s's buffer, as it is last read
    before s is rebuilt.
    """
    x = np.zeros_like(r)
    s, tmp = np.empty_like(r), np.empty_like(r)
    a_adj(r, s)
    p = s.copy()
    q = s
    gamma = sqnorm(s, tmp)
    residuals = [norm(r)]
    r0 = residuals[0]
    for _ in range(iters):
        a_fwd(p, q)
        qq = sqnorm(q, tmp)
        if qq == 0.0 or gamma == 0.0:
            break
        alpha = gamma / qq
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, q, out=tmp)
        residuals.append(norm(r))
        a_adj(r, s)
        gamma_new = sqnorm(s, tmp)
        if not np.isfinite(gamma_new):
            raise NumericalError("CGLS produced non-finite iterates")
        if r0 > 0 and residuals[-1] <= tol * r0:
            break
        np.add(s, np.multiply(gamma_new / gamma, p, out=p), out=p)
        gamma = gamma_new
    return x, residuals
