"""Reconstruction quality metrics and region-of-interest statistics.

Conventions, stated once here and assumed by every routine:

* Inputs are RealVolume/Mask instances on one shared grid; a ``mask`` of None
  selects the whole volume (the reported-table convention for psnr/ssim3,
  which a brain mask can override).
* rmse is the root mean square error over the selected voxels, reported as a
  percentage (x100); any normalization of the truth is the caller's concern.
* Local statistics in ssim3 use uniform windows whose weights sum to one
  (population variance, no Bessel correction).
* Regression pools voxel pairs across regions by default, so a voxel inside
  two regions counts twice; ``mode="means"`` regresses one point per region.

All functions are pure and allocate only transient arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, require
from .volume import Mask, RealVolume, require_same_grid

__all__ = [
    "RegressionResult",
    "RoiSet",
    "psnr",
    "rmse",
    "roi_means",
    "roi_regression",
    "ssim3",
]


def _check_pair(truth: RealVolume, recon: RealVolume) -> None:
    if not isinstance(truth, RealVolume) or not isinstance(recon, RealVolume):
        raise InputError("truth and recon must be RealVolume instances")
    require_same_grid(truth.meta, "truth", recon=recon)


def _select(truth: RealVolume, mask: Mask | None) -> np.ndarray:
    """Boolean selector for the evaluated voxels."""
    if mask is None:
        return np.ones(truth.meta.dims, dtype=bool)
    if not isinstance(mask, Mask):
        raise InputError("mask must be a Mask instance or None")
    require_same_grid(truth.meta, "truth", mask=mask)
    return mask.data > 0


def rmse(truth: RealVolume, recon: RealVolume,
         mask: Mask | None = None) -> float:
    """Root mean square error over the mask, as a percentage.

    sqrt(mean((truth - recon)^2 over selected voxels)) * 100.
    """
    _check_pair(truth, recon)
    sel = _select(truth, mask)
    diff = truth.data[sel] - recon.data[sel]
    return 100.0 * float(np.sqrt(np.mean(diff * diff)))


def psnr(truth: RealVolume, recon: RealVolume, mask: Mask | None = None,
         peak: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB: 10 log10(peak^2 / MSE).

    ``peak`` defaults to max |truth| over the selected voxels; pass an
    explicit value (always checked) to compare against other tools'
    conventions. A perfect reconstruction (MSE = 0) returns the +inf sentinel.
    """
    _check_pair(truth, recon)
    sel = _select(truth, mask)
    diff = truth.data[sel] - recon.data[sel]
    mse = float(np.mean(diff * diff))
    if peak is None and mse:
        peak = float(np.max(np.abs(truth.data[sel])))
    if peak is not None:
        require("peak", peak, gt=0)
    return 10.0 * math.log10(peak * peak / mse) if mse else math.inf


def _box_sums(a: np.ndarray, w: int) -> np.ndarray:
    """Exact sums over every fully-contained w^3 window (valid positions),
    via cumulative sums along each axis in turn. Each is written after a
    zero first face into one buffer, sized for the longest of the three."""
    out = np.asarray(a, dtype=np.float64)
    buf = np.empty(out.size + out.size // min(out.shape))
    for ax in range(3):
        n = out.shape[ax]
        shape = out.shape[:ax] + (n + 1,) + out.shape[ax + 1:]
        cs = buf[:math.prod(shape)].reshape(shape)
        face = [slice(None)] * 3
        face[ax] = 0
        cs[tuple(face)] = 0.0
        face[ax] = slice(1, None)
        np.cumsum(out, axis=ax, out=cs[tuple(face)])
        hi = [slice(None)] * 3
        lo = [slice(None)] * 3
        hi[ax] = slice(w, n + 1)
        lo[ax] = slice(0, n + 1 - w)
        out = cs[tuple(hi)] - cs[tuple(lo)]
    return out


def ssim3(truth: RealVolume, recon: RealVolume, mask: Mask | None = None,
          window: int = 7, k1: float = 0.01, k2: float = 0.03) -> float:
    """Mean local structural similarity over w^3 windows.

    Windows must lie fully inside the volume; a window contributes when its
    center voxel is selected by the mask. The dynamic range is
    max - min of the truth over the selected voxels, so a constant truth is
    rejected. Identical volumes score exactly 1.
    """
    _check_pair(truth, recon)
    sel = _select(truth, mask)
    require("window", window, ge=1, integer=True)
    if window % 2 == 0:
        raise InputError(f"window must be odd, got {window}")
    if window > min(truth.meta.dims):
        raise InputError(
            f"window {window} exceeds volume dims {truth.meta.dims}")
    require("k1 and k2", k1, k2, gt=0)
    span = float(np.ptp(truth.data[sel]))
    require("truth's dynamic range over the mask", span, gt=0)
    c1 = (k1 * span) ** 2
    c2 = (k2 * span) ** 2
    n3 = float(window ** 3)
    t, r = truth.data, recon.data
    mu_t = _box_sums(t, window) / n3
    mu_r = _box_sums(r, window) / n3
    # var_t + var_r and cov each live only until they are used, so at most
    # four box-sum maps are held at once
    var_sum = _box_sums(t * t, window) / n3 - mu_t * mu_t
    var_sum += _box_sums(r * r, window) / n3 - mu_r * mu_r
    cov = _box_sums(t * r, window) / n3 - mu_t * mu_r
    num = (2.0 * mu_t * mu_r + c1) * (2.0 * cov + c2)
    del cov
    den = (mu_t * mu_t + mu_r * mu_r + c1) * (var_sum + c2)
    ssim_map = num / den
    h = window // 2
    centers = sel[tuple(slice(h, h + n) for n in ssim_map.shape)]
    if not centers.any():
        raise InputError("no complete window is centered inside the mask")
    return float(np.mean(ssim_map[centers]))


@dataclass(frozen=True)
class RoiSet:
    """Named regions of interest on one shared grid."""

    rois: tuple[tuple[str, Mask], ...]

    def __post_init__(self):
        object.__setattr__(self, "rois", tuple(tuple(r) for r in self.rois))
        if not self.rois:
            raise InputError("RoiSet needs at least one region")
        names = [name for name, _ in self.rois]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate ROI names in {names}")
        for name, m in self.rois:
            if not isinstance(m, Mask):
                raise InputError(f"ROI {name!r} is not a Mask")
        require_same_grid(self.rois[0][1].meta, "the first ROI",
                          **{f"ROI {name!r}": m for name, m in self.rois})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.rois)


@dataclass(frozen=True)
class RegressionResult:
    """Ordinary least squares of recon against truth, with the agreement
    statistics reported alongside it: Pearson correlation, its square, and
    the mean and spread of the absolute error."""

    slope: float
    intercept: float
    r_squared: float
    corr: float
    mean_abs_error: float
    std_abs_error: float


def _pooled_pairs(truth: RealVolume, recon: RealVolume, rois: RoiSet,
                  mode: str) -> tuple[np.ndarray, np.ndarray]:
    if mode not in ("voxels", "means"):
        raise InputError(f"mode must be 'voxels' or 'means', got {mode!r}")
    require_same_grid(truth.meta, "truth", ROI=rois.rois[0][1])
    xs, ys = [], []
    for _, m in rois.rois:
        sel = m.data > 0
        if mode == "voxels":
            xs.append(truth.data[sel])
            ys.append(recon.data[sel])
        else:
            xs.append([float(np.mean(truth.data[sel]))])
            ys.append([float(np.mean(recon.data[sel]))])
    return np.concatenate(xs), np.concatenate(ys)


def roi_regression(truth: RealVolume, recon: RealVolume, rois: RoiSet,
                   mode: str = "voxels") -> RegressionResult:
    """Least-squares line recon = slope * truth + intercept over the pooled
    region voxels (or one point per region with mode="means").

    r_squared is the squared Pearson correlation; a constant recon has no
    linear association and reports corr = r_squared = 0. A constant truth
    admits no slope and is rejected.
    """
    _check_pair(truth, recon)
    x, y = _pooled_pairs(truth, recon, rois, mode)
    if x.size < 2:
        raise InputError(f"regression needs >= 2 points, got {x.size}")
    if np.all(x == x[0]):
        raise InputError("constant truth values admit no regression slope")
    xm, ym = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - xm) ** 2))
    syy = float(np.sum((y - ym) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    # an exactly constant recon carries no linear association; near-constant
    # recons keep their (tiny) computed correlation
    corr = 0.0 if np.all(y == y[0]) else sxy / math.sqrt(sxx * syy)
    err = np.abs(x - y)
    return RegressionResult(
        slope=slope, intercept=ym - slope * xm, r_squared=corr * corr,
        corr=corr, mean_abs_error=float(np.mean(err)),
        std_abs_error=float(np.std(err)))


def roi_means(recon: RealVolume, rois: RoiSet
              ) -> list[tuple[str, float, float]]:
    """Per-region (name, mean, population std) in the set's order."""
    if not isinstance(recon, RealVolume):
        raise InputError("recon must be a RealVolume instance")
    require_same_grid(recon.meta, "recon", ROI=rois.rois[0][1])
    out = []
    for name, m in rois.rois:
        vals = recon.data[m.data > 0]
        out.append((name, float(np.mean(vals)), float(np.std(vals))))
    return out
