"""Classical dipole inversions: TKD, edge-weighted L1 regularization, CGLS.

All three consume a demodulated field volume plus a precomputed kernel and
return susceptibility estimates; none of them touch the learned machinery.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dipole import DipoleKernel, apply_spectrum
from .errors import InputError, NumericalError, require
from .volume import Mask, RealVolume, forward_diff, forward_diff_adjoint, require_same_grid

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
    gradient masks M that release the strongest magnitude edges."""

    w: RealVolume
    m: tuple[Mask, Mask, Mask]


def tkd_invert(field: RealVolume, kernel: DipoleKernel,
               params: TkdParams = TkdParams()) -> RealVolume:
    """Thresholded k-space division.

    The divisor keeps d where |d| > a and substitutes a * sign(d) elsewhere,
    with sign(0) taken as +1 so the cone itself divides by +a.
    """
    kernel.require_grid(field.meta)
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
        masks.append(Mask(magnitude.meta, (g <= thr).astype(np.float64)))
    return MediWeights(w=RealVolume(magnitude.meta, w), m=tuple(masks))


def _medi_objective(x: np.ndarray, hx: np.ndarray, b: np.ndarray,
                    w2: np.ndarray, m: tuple, lam: float) -> tuple[float, float, float]:
    resid = b - hx
    data = float(np.sum(w2 * resid * resid))
    reg = 0.0
    for ax in range(3):
        g = forward_diff(x, ax)
        reg += float(np.sum(m[ax] * np.sqrt(g * g + SMOOTH_EPS ** 2)))
    return data + lam * reg, data, lam * reg


def medi_invert(field: RealVolume, kernel: DipoleKernel, weights: MediWeights,
                params: MediParams = MediParams()) -> tuple[RealVolume, list[tuple]]:
    """Minimize ||W(b - Hx)||^2 + lam * sum_c ||M_c grad_c(x)||_1 by descent.

    The L1 factors are smoothed as sqrt(t^2 + eps^2) so the objective is
    differentiable; an Armijo backtracking line search keeps the recorded
    objective trace non-increasing. H is linear, so a trial x - t g reuses Hx
    and Hg. Trace rows are (iteration, objective, data_term, reg_term).
    """
    kernel.require_grid(field.meta)
    require_same_grid(field.meta, "field", weights=weights.w)
    b = field.data
    spec = kernel.spectrum
    w2 = weights.w.data ** 2
    m = tuple(mk.data for mk in weights.m)
    lam = params.lam

    x, hx = np.zeros_like(b), np.zeros_like(b)
    f, data, reg = _medi_objective(x, hx, b, w2, m, lam)
    trace = [(0, f, data, reg)]
    f0 = f
    t = params.step
    for it in range(1, params.iters + 1):
        grad = 2.0 * apply_spectrum(w2 * (hx - b), spec)
        for ax in range(3):
            g = forward_diff(x, ax)
            psi = m[ax] * g / np.sqrt(g * g + SMOOTH_EPS ** 2)
            grad += lam * forward_diff_adjoint(psi, ax)
        gnorm2 = float(np.sum(grad * grad))
        if gnorm2 == 0.0:
            break
        hg = apply_spectrum(grad, spec)
        t = min(t * 2.0, params.step)
        while True:
            cand, hcand = x - t * grad, hx - t * hg
            f_new, data_new, reg_new = _medi_objective(cand, hcand, b, w2, m, lam)
            if np.isfinite(f_new) and f_new <= f - 1e-4 * t * gnorm2:
                break
            t *= 0.5
            if t < 1e-20:  # stalled: keep current iterate
                cand, hcand, f_new, data_new, reg_new = x, hx, f, data, reg
                break
        x, hx, f, data, reg = cand, hcand, f_new, data_new, reg_new
        if not np.isfinite(f) or f > 10.0 * f0:
            raise NumericalError(f"objective diverged at iteration {it}: {f:g}")
        trace.append((it, f, data, reg))
        if t < 1e-20:
            break
    return RealVolume(field.meta, x), trace


def cg_least_squares(field: RealVolume, kernel: DipoleKernel,
                     weights: RealVolume | None = None, iters: int = 50,
                     tol: float = 1e-10) -> tuple[RealVolume, list[float]]:
    """CGLS for min ||W(b - Hx)||_2, the lam -> 0 reference for medi_invert.

    Works on the normal equations implicitly (never forms H^T W^2 H). The
    returned residual list holds ||W(b - Hx_k)||_2, which is non-increasing
    because each CG step minimizes it over a nested Krylov subspace.
    """
    kernel.require_grid(field.meta)
    require("iters", iters, ge=1, integer=True)
    require("tol", tol, ge=0)
    require_same_grid(field.meta, "field", weights=weights)
    spec = kernel.spectrum
    wd = np.ones(field.meta.dims) if weights is None else weights.data

    def a_fwd(v):
        return wd * apply_spectrum(v, spec)

    def a_adj(v):
        return apply_spectrum(wd * v, spec)

    x = np.zeros(field.meta.dims)
    r = wd * field.data
    s = a_adj(r)
    p = s.copy()
    gamma = float(np.sum(s * s))
    residuals = [float(np.linalg.norm(r))]
    r0 = residuals[0]
    for _ in range(iters):
        q = a_fwd(p)
        qq = float(np.sum(q * q))
        if qq == 0.0 or gamma == 0.0:
            break
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        residuals.append(float(np.linalg.norm(r)))
        s = a_adj(r)
        gamma_new = float(np.sum(s * s))
        if not np.isfinite(gamma_new):
            raise NumericalError("CGLS produced non-finite iterates")
        if r0 > 0 and residuals[-1] <= tol * r0:
            break
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return RealVolume(field.meta, x), residuals
