"""Unit dipole kernel in k-space and the spectral forward/inverse field maps.

The kernel value at frequency k is ``1/3 - (k.b0)^2 / |k|^2`` with the k = 0
sample pinned to 0 (demodulated field has no DC). Frequencies are physical:
``k_i = f_i / voxel_size_i`` with f the standard FFT frequency grid, so
anisotropic voxels and oblique b0 produce the correct magic-angle cone.

``apply_spectrum`` is the one k-space multiply of a real volume in the
package: the forward field, the naive and TKD inverses, MEDI, weighted CGLS
and the autodiff ``spectral_filter`` all go through it. A ``DipoleKernel``
only holds a real spectrum equal to its own k -> -k mirror, so its product
with the transform of a real field is Hermitian and a real FFT over the half
spectrum suffices. The apply runs in one complex half-spectrum buffer, which
an iterative solver allocates once (``half_spectrum_buffer``) and passes to
every call. Its two FFT passes, to and from the half spectrum, are the only
transforms in the package; unweighted CGLS runs each once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, require
from .volume import RealVolume, VolumeMeta, require_same_grid

SPECTRUM_MIN = -2.0 / 3.0
SPECTRUM_MAX = 1.0 / 3.0


@dataclass(frozen=True)
class DipoleKernel:
    """Real spectrum of the unit dipole on a concrete grid, exactly even."""

    meta: VolumeMeta
    spectrum: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.spectrum, dtype=np.float64)
        if arr.shape != self.meta.dims:
            raise InputError("kernel spectrum shape does not match meta dims")
        if not np.array_equal(arr, k_mirror(arr)):
            raise InputError("kernel spectrum is not even under k -> -k")
        arr.setflags(write=False)
        object.__setattr__(self, "spectrum", arr)


def k_mirror(spec: np.ndarray) -> np.ndarray:
    """The k -> -k mirror of a spectrum sampled on the FFT grid: index i
    moves to -i mod n on every axis (a flip, then a roll by one)."""
    return np.roll(np.flip(spec), 1, axis=tuple(range(spec.ndim)))


def build_dipole(meta: VolumeMeta) -> DipoleKernel:
    """Sample the dipole spectrum on the FFT grid of ``meta``.

    Written as ``(|k|^2 - 3 (k.b0)^2) / (3 |k|^2)`` so grid points that land
    exactly on the magic cone evaluate to exactly 0 in floating point. On even
    grid sizes the Nyquist bin aliases both +-1/2: an oblique b0 mixes axes
    there and breaks evenness, so the spectrum is averaged with its k -> -k
    mirror (a no-op everywhere already even). The result is clipped to the
    analytic range [-2/3, 1/3].
    """
    freqs = [np.fft.fftfreq(n, d=s) for n, s in zip(meta.dims, meta.voxel_size)]
    kx = freqs[0][:, None, None]
    ky = freqs[1][None, :, None]
    kz = freqs[2][None, None, :]
    bx, by, bz = meta.b0_dir
    k2 = kx * kx + ky * ky + kz * kz
    dot = kx * bx + ky * by + kz * bz
    num = k2 - 3.0 * (dot * dot)
    with np.errstate(divide="ignore", invalid="ignore"):
        spec = num / (3.0 * k2)
    spec[0, 0, 0] = 0.0  # demodulated field: no DC response
    spec = 0.5 * (spec + k_mirror(spec))
    np.clip(spec, SPECTRUM_MIN, SPECTRUM_MAX, out=spec)
    return DipoleKernel(meta, spec)


def half_spectrum_buffer(shape: tuple) -> np.ndarray:
    """An uninitialised ``work`` buffer for ``apply_spectrum`` on float64
    arrays of ``shape``: the last axis keeps its non-negative frequencies."""
    return np.empty(tuple(shape[:-1]) + (shape[-1] // 2 + 1,), np.complex128)


def apply_spectrum(data: np.ndarray, spectrum: np.ndarray, out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """real(ifft(spectrum * fft(data))) over the last three axes, by real FFT.

    ``spectrum`` must equal its ``k_mirror`` (every ``DipoleKernel`` does):
    only its half along the last axis is read. Leading axes (channels) share
    the spectrum; the dtype follows NumPy's promotion of data and spectrum.

    The passes are those of ``irfftn(half * rfftn(data))``, in its axis order
    (``_to_half_spectrum``, then ``_from_half_spectrum``), run in one complex
    buffer: ``work`` (from ``half_spectrum_buffer``, of ``rfftn(data)``'s
    dtype) if given, else a fresh one. The product is formed in place unless
    promotion widens it (float32 data with a float64 spectrum). The result
    goes to ``out`` if given, which is returned.
    """
    half = spectrum[..., :data.shape[-1] // 2 + 1]
    buf = _to_half_spectrum(data, work)
    if np.result_type(buf, half) == buf.dtype:
        np.multiply(buf, half, out=buf)
    else:
        buf = half * buf
    return _from_half_spectrum(buf, data.shape[-1], out)


def _to_half_spectrum(data: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """rfftn of ``data`` over the last three axes, into ``work`` if given."""
    return np.fft.rfftn(data, axes=(-3, -2, -1), out=work)


def _from_half_spectrum(buf: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The real volume, last axis of length ``n``, whose half spectrum is
    ``buf``; ``buf`` is overwritten, and the result goes to ``out`` if given."""
    # irfftn transforms its complex axes first to last; ifftn runs its axes
    # last to first, so (-2, -3) keeps that order, and with it the bytes
    np.fft.ifftn(buf, axes=(-2, -3), out=buf)
    return np.fft.irfft(buf, n=n, axis=-1, out=out)


def _half_spectrum_sqnorm(buf: np.ndarray, n: int) -> float:
    """||x||^2 of the real volume x, last axis of length ``n``, whose half
    spectrum is ``buf``, by Parseval: each stored bin counts twice unless it
    is its own k -> -k partner (last-axis bin 0 and, n even, n/2)."""
    unpaired = (0,) if n % 2 else (0, -1)
    twice = 2.0 * np.vdot(buf, buf).real
    once = sum(np.vdot(buf[..., i], buf[..., i]).real for i in unpaired)
    return float((twice - once) / (buf.shape[-3] * buf.shape[-2] * n))


def forward_field(chi: RealVolume, kernel: DipoleKernel) -> RealVolume:
    """Field perturbation of a susceptibility map: ifft(d * fft(chi))."""
    require_same_grid(chi.meta, "chi", kernel=kernel)
    return RealVolume(chi.meta, apply_spectrum(chi.data, kernel.spectrum))


def naive_inverse(field: RealVolume, kernel: DipoleKernel, eps: float = 1e-6) -> RealVolume:
    """Direct spectral division chi_hat = b_hat / d, zeroed where |d| <= eps.

    Unstable near the magic cone by construction; kept as the reference
    worst-case baseline.
    """
    require("eps", eps, gt=0)
    require_same_grid(field.meta, "field", kernel=kernel)
    d = kernel.spectrum
    inv = np.zeros_like(d)
    np.divide(1.0, d, out=inv, where=np.abs(d) > eps)
    return RealVolume(field.meta, apply_spectrum(field.data, inv))
