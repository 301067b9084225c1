"""Synthetic susceptibility phantoms and simulated acquisition cases.

Voxel centers sit at ``(i + 0.5) * voxel_size`` per axis, so the grid covers
``[0, fov]`` in mm. Shapes are evaluated on voxel centers; later shapes
overwrite earlier ones where they overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dipole import DipoleKernel, build_dipole, forward_field
from .errors import InputError, require
from .volume import Mask, RealVolume, VolumeMeta, require_same_grid


@dataclass(frozen=True)
class Sphere:
    center_mm: tuple[float, float, float]
    radius_mm: float
    chi: float


@dataclass(frozen=True)
class Box:
    corner_mm: tuple[float, float, float]
    extent_mm: tuple[float, float, float]
    chi: float


Shape = Sphere | Box


@dataclass(frozen=True)
class PhantomSpec:
    meta: VolumeMeta
    shapes: tuple[Shape, ...] = ()
    background_chi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shapes", tuple(self.shapes))


@dataclass(frozen=True)
class SimulatedCase:
    """One synthetic acquisition: ground truth, noisy field, magnitude, mask,
    all on the field's grid."""

    chi: RealVolume
    field: RealVolume
    magnitude: RealVolume
    mask: Mask
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        require_same_grid(self.field.meta, "field", chi=self.chi, mask=self.mask,
                          magnitude=self.magnitude)


def _centers(meta: VolumeMeta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = [(np.arange(n, dtype=np.float64) + 0.5) * s
          for n, s in zip(meta.dims, meta.voxel_size)]
    return xs[0][:, None, None], xs[1][None, :, None], xs[2][None, None, :]


def _check_inside(meta: VolumeMeta, shape: Shape) -> None:
    fov = meta.fov_mm
    if isinstance(shape, Sphere):
        require("sphere centre", *shape.center_mm)
        require("sphere radius", shape.radius_mm, gt=0)
        lo = [c - shape.radius_mm for c in shape.center_mm]
        hi = [c + shape.radius_mm for c in shape.center_mm]
    else:
        require("box corner", *shape.corner_mm)
        require("box extents", *shape.extent_mm, gt=0)
        lo = list(shape.corner_mm)
        hi = [c + e for c, e in zip(shape.corner_mm, shape.extent_mm)]
    if any(l < 0 or h > f for l, h, f in zip(lo, hi, fov)):
        raise InputError(f"shape {shape} does not lie inside the grid (fov {fov})")


def make_phantom(spec: PhantomSpec) -> RealVolume:
    """Rasterize shapes over a constant background, last shape wins."""
    cx, cy, cz = _centers(spec.meta)
    out = np.full(spec.meta.dims, float(spec.background_chi), dtype=np.float64)
    for shape in spec.shapes:
        _check_inside(spec.meta, shape)
        if isinstance(shape, Sphere):
            x0, y0, z0 = shape.center_mm
            inside = ((cx - x0) ** 2 + (cy - y0) ** 2 + (cz - z0) ** 2
                      <= shape.radius_mm ** 2)
        else:
            x0, y0, z0 = shape.corner_mm
            ex, ey, ez = shape.extent_mm
            inside = ((cx >= x0) & (cx < x0 + ex)
                      & (cy >= y0) & (cy < y0 + ey)
                      & (cz >= z0) & (cz < z0 + ez))
        if not np.any(inside):
            raise InputError(f"shape {shape} covers no voxel centre")
        out[inside] = shape.chi
    return RealVolume(spec.meta, out)


def shape_coverage(spec: PhantomSpec) -> Mask:
    """Indicator of voxels touched by any shape, for mask construction: the
    phantom of the same shapes at chi 1 over a zero background."""
    ones = tuple(replace(s, chi=1.0) for s in spec.shapes)
    out = make_phantom(PhantomSpec(spec.meta, ones)).data
    if not np.any(out):
        raise InputError("spec has no shapes covering any voxel")
    return Mask(spec.meta, out)


def make_random_piecewise(meta: VolumeMeta, n_blobs: int,
                          chi_range: tuple[float, float] = (-0.2, 0.2),
                          seed: int = 0) -> RealVolume:
    """Random axis-aligned ellipsoids, piecewise-constant chi, last wins.

    Per blob the generator draws center (3), semi-axes (3), then chi (1), so
    the volume is a pure function of (meta, n_blobs, chi_range, seed).
    """
    require("n_blobs", n_blobs, ge=1, integer=True)
    require("seed", seed, ge=0, integer=True)
    lo, hi = chi_range
    require("chi_range", lo, hi)
    if not lo < hi:
        raise InputError(f"chi_range must be increasing, got {chi_range}")
    rng = np.random.default_rng(seed)
    fov = meta.fov_mm
    cx, cy, cz = _centers(meta)
    out = np.zeros(meta.dims, dtype=np.float64)
    for _ in range(n_blobs):
        semi = [rng.uniform(0.06, 0.18) * f for f in fov]
        center = [rng.uniform(s, f - s) for s, f in zip(semi, fov)]
        chi = rng.uniform(lo, hi)
        inside = (((cx - center[0]) / semi[0]) ** 2
                  + ((cy - center[1]) / semi[1]) ** 2
                  + ((cz - center[2]) / semi[2]) ** 2) <= 1.0
        out[inside] = chi
    return RealVolume(meta, out)


def simulate_case(chi: RealVolume, mask: Mask, noise_sigma: float = 0.0,
                  seed: int = 0, kernel: DipoleKernel | None = None) -> SimulatedCase:
    """Forward-simulate the field, add white Gaussian noise, attach magnitude.

    Magnitude is the mask indicator: featureless but structurally honest for
    synthetic data.
    """
    require("noise_sigma", noise_sigma, ge=0)
    require("seed", seed, ge=0, integer=True)
    if kernel is None:
        kernel = build_dipole(chi.meta)
    clean = forward_field(chi, kernel)
    data = clean.data
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        data = data + rng.normal(0.0, noise_sigma, size=chi.meta.dims)
    return SimulatedCase(
        chi=chi,
        field=RealVolume(chi.meta, data),
        magnitude=RealVolume(mask.meta, mask.data),
        mask=mask,
        noise_sigma=float(noise_sigma),
    )


def analytic_sphere_field(meta: VolumeMeta, center_mm: tuple[float, float, float],
                          radius_mm: float, delta_chi: float) -> RealVolume:
    """Closed-form field of a uniform sphere in an empty background.

    Zero inside; outside it is the point-dipole pattern of the sphere's total
    moment: ``delta_chi/3 * (R/r)^3 * (3 cos^2 theta - 1)`` with theta measured
    against b0. Matches forward_field away from the voxelized boundary; the
    agreement is validated against the spectral operator in the test suite.
    """
    require("radius", radius_mm, gt=0)
    cx, cy, cz = _centers(meta)
    rx = cx - center_mm[0]
    ry = cy - center_mm[1]
    rz = cz - center_mm[2]
    r2 = rx * rx + ry * ry + rz * rz
    bx, by, bz = meta.b0_dir
    dot = rx * bx + ry * by + rz * bz
    with np.errstate(divide="ignore", invalid="ignore"):
        cos2 = (dot * dot) / r2
        out = (delta_chi / 3.0) * (radius_mm ** 2 / r2) ** 1.5 * (3.0 * cos2 - 1.0)
    out[r2 <= radius_mm ** 2] = 0.0
    return RealVolume(meta, out)
