import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsmkit
from qsmkit.dipole import (
    SPECTRUM_MAX,
    SPECTRUM_MIN,
    DipoleKernel,
    apply_spectrum,
    build_dipole,
    forward_field,
    half_spectrum_buffer,
    k_mirror,
    naive_inverse,
)
from qsmkit.errors import InputError
from qsmkit.volume import RealVolume, VolumeMeta

METAS = {
    "iso": VolumeMeta((16, 16, 16), (1.0, 1.0, 1.0), (0, 0, 1)),
    "aniso": VolumeMeta((12, 10, 8), (0.8, 1.0, 2.0), (0, 0, 1)),
    "oblique": VolumeMeta((12, 12, 12), (1.0, 1.0, 1.0), (1.0, 2.0, 2.0)),
    "odd": VolumeMeta((9, 7, 11), (1.0, 1.3, 0.7), (0, 1, 1)),
}


def rand_volume(meta, seed=0):
    rng = np.random.default_rng(seed)
    return RealVolume(meta, rng.standard_normal(meta.dims))


@pytest.mark.parametrize("name", sorted(METAS))
class TestSpectrum:
    def test_bounds(self, name):
        spec = build_dipole(METAS[name]).spectrum
        assert spec.min() >= SPECTRUM_MIN and spec.max() <= SPECTRUM_MAX

    def test_dc_zero(self, name):
        assert build_dipole(METAS[name]).spectrum[0, 0, 0] == 0.0

    def test_even(self, name):
        spec = build_dipole(METAS[name]).spectrum
        idx = [(-np.arange(n)) % n for n in METAS[name].dims]
        mirrored = spec[np.ix_(*idx)]
        np.testing.assert_allclose(mirrored, spec, atol=1e-12)

    def test_matches_direct_formula(self, name):
        meta = METAS[name]
        spec = build_dipole(meta).spectrum
        rng = np.random.default_rng(3)
        b0 = np.array(meta.b0_dir)
        for _ in range(50):
            ijk = [int(rng.integers(n)) for n in meta.dims]
            if ijk == [0, 0, 0]:
                continue
            # Nyquist planes are symmetrized (+-1/2 alias), skip them here
            if any(n % 2 == 0 and i == n // 2 for i, n in zip(ijk, meta.dims)):
                continue
            k = np.array([np.fft.fftfreq(n, d=s)[i]
                          for i, n, s in zip(ijk, meta.dims, meta.voxel_size)])
            want = 1.0 / 3.0 - np.dot(k, b0) ** 2 / np.dot(k, k)
            assert abs(spec[tuple(ijk)] - want) < 1e-12


class TestSpecialDirections:
    def test_cone_zero_exact(self):
        # (j, j, j) index triples satisfy |k|^2 = 3 kz^2 exactly on an
        # isotropic grid with b0 = z, so the spectrum must be exactly 0 there
        meta = METAS["iso"]
        spec = build_dipole(meta).spectrum
        for j in (1, 2, 3, 5, 7):
            assert spec[j, j, j] == 0.0
            assert spec[-j % 16, -j % 16, -j % 16] == 0.0

    def test_parallel_and_perpendicular(self):
        spec = build_dipole(METAS["iso"]).spectrum
        assert spec[0, 0, 1] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert spec[0, 0, 5] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert spec[1, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert spec[0, 3, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_pure_function(self):
        a = build_dipole(METAS["aniso"]).spectrum
        b = build_dipole(METAS["aniso"]).spectrum
        np.testing.assert_array_equal(a, b)


class TestKernelEvenness:
    @pytest.mark.parametrize("dims", [(16, 15, 14), (9, 7, 11), (12, 12, 12)])
    def test_accepts_built_kernel_oblique_b0(self, dims):
        meta = VolumeMeta(dims, (0.9, 1.1, 1.4), (0.3, -0.5, 0.8))
        kern = build_dipole(meta)
        assert DipoleKernel(meta, kern.spectrum).meta == meta

    @pytest.mark.parametrize("shape", [(4, 6, 4), (9, 7, 11), (16, 15, 14)])
    def test_mirror_matches_index_oracle(self, shape):
        a = np.random.default_rng(0).normal(size=shape)
        idx = [(-np.arange(n)) % n for n in shape]
        np.testing.assert_array_equal(k_mirror(a), a[np.ix_(*idx)])

    def test_rejects_uneven_spectrum(self):
        meta = METAS["odd"]
        spec = np.array(build_dipole(meta).spectrum)
        spec[1, 2, 3] += 1e-9  # its mirror bin (-1, -2, -3) is untouched
        with pytest.raises(InputError, match="even"):
            DipoleKernel(meta, spec)


def apply_spectrum_complex(data, spectrum):
    """The complex-FFT apply that the half-spectrum one replaced, kept
    verbatim as its oracle."""
    axes = (-3, -2, -1)
    return np.real(np.fft.ifftn(spectrum * np.fft.fftn(data, axes=axes), axes=axes))


class TestApplySpectrum:
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("dims", [(16, 15, 14), (9, 7, 11), (12, 12, 12)])
    def test_matches_complex_apply(self, dims, lead, dtype, tol):
        meta = VolumeMeta(dims, (0.9, 1.1, 1.4), (0.3, -0.5, 0.8))
        spec = build_dipole(meta).spectrum.astype(dtype)
        data = np.random.default_rng(1).standard_normal(lead + dims).astype(dtype)
        got = apply_spectrum(data, spec)
        want = apply_spectrum_complex(data, spec)
        assert got.shape == data.shape
        assert got.dtype == want.dtype == data.dtype
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    def test_only_apply_spectrum_transforms(self):
        # One spectral operator: every transform in the package is one of
        # dipole's two passes over a half-spectrum buffer, which
        # apply_spectrum and unweighted CGLS share.
        found = [(path.stem,) + use
                 for path in sorted(Path(qsmkit.__file__).parent.glob("*.py"))
                 for use in transform_uses(path.read_text())]
        assert sorted(found) == [("dipole", "_from_half_spectrum", "np.fft.ifftn"),
                                 ("dipole", "_from_half_spectrum", "np.fft.irfft"),
                                 ("dipole", "_to_half_spectrum", "np.fft.rfftn")]


TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
              "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"}


def transform_uses(source: str) -> list[tuple[str, str]]:
    """(outermost enclosing function, expression) of every FFT transform a
    module names, and of every import naming an fft module."""
    tree = ast.parse(source)
    owner = {}  # node -> outermost enclosing function
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in TRANSFORMS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"):
            found.append((owner.get(id(node), "<module>"), ast.unparse(node)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("fft" in n for n in names):
                found.append(("import", ast.unparse(node)))
    return found


def test_transform_uses_are_found():
    source = ("import numpy.fft\nfrom numpy import fft as f\nfrom scipy.fft import rfftn\n"
              "def g(x):\n    def h(y):\n        return numpy.fft.rfftn(y)\n"
              "    return np.fft.fftfreq(4), np.fft.ifft(x)\n")
    assert sorted(transform_uses(source)) == [
        ("g", "np.fft.ifft"), ("g", "numpy.fft.rfftn"), ("import", "from numpy import fft as f"),
        ("import", "from scipy.fft import rfftn"), ("import", "import numpy.fft")]


def apply_spectrum_allocating(data: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """real(ifft(spectrum * fft(data))) over the last three axes, by real FFT.

    ``spectrum`` must equal its ``k_mirror`` (every ``DipoleKernel`` does):
    only its half along the last axis is read. Leading axes (channels) share
    the spectrum; the dtype follows NumPy's promotion of data and spectrum.
    """
    axes = (-3, -2, -1)
    half = spectrum[..., :data.shape[-1] // 2 + 1]
    return np.fft.irfftn(half * np.fft.rfftn(data, axes=axes), s=data.shape[-3:], axes=axes)


class TestApplySpectrumOneBuffer:
    """The one-buffer apply against the apply that allocated its spectrum and
    product on every call (above, kept verbatim under a new name)."""

    @pytest.mark.parametrize("buffers", [False, True], ids=["fresh", "caller"])
    @pytest.mark.parametrize("data_dtype, spec_dtype",
                             [(np.float32, np.float32), (np.float64, np.float64),
                              (np.float32, np.float64), (np.float64, np.float32)],
                             ids=["f32", "f64", "f32-data-f64-spec", "f64-data-f32-spec"])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("dims", [(16, 15, 14), (9, 7, 11), (12, 12, 12)])
    def test_bytes_match_allocating_apply(self, dims, lead, data_dtype, spec_dtype, buffers):
        meta = VolumeMeta(dims, (0.9, 1.1, 1.4), (0.3, -0.5, 0.8))
        spec = build_dipole(meta).spectrum.astype(spec_dtype)
        data = np.random.default_rng(1).standard_normal(lead + dims).astype(data_dtype)
        want = apply_spectrum_allocating(data, spec)
        if buffers:
            out = np.full(want.shape, np.nan, want.dtype)
            work = np.full(lead + dims[:2] + (dims[2] // 2 + 1,), np.nan,
                           np.result_type(data_dtype, np.complex64))
            got = apply_spectrum(data, spec, out=out, work=work)
            assert got is out
        else:
            got = apply_spectrum(data, spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_caller_buffers_allocate_under_one_volume(self):
        # float64, the solvers' dtype. NumPy 2.4 runs a float32 transform in
        # its float64 loop (its norm factor is the Python int 1), through
        # casting temporaries of several volumes, with or without ``out``.
        meta = VolumeMeta((32, 32, 32), (1.0, 1.0, 1.0), (0, 0, 1))
        spec = build_dipole(meta).spectrum
        data = np.random.default_rng(2).standard_normal(meta.dims)
        out = np.empty_like(data)
        work = half_spectrum_buffer(meta.dims)
        apply_spectrum(data, spec, out=out, work=work)  # FFT plans are built once
        tracemalloc.start()
        try:
            got = apply_spectrum(data, spec, out=out, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is out
        assert peak < data.nbytes


class TestForward:
    @pytest.mark.parametrize("name", sorted(METAS))
    def test_linearity(self, name):
        meta = METAS[name]
        kern = build_dipole(meta)
        x, y = rand_volume(meta, 0), rand_volume(meta, 1)
        a, b = 1.7, -0.4
        lhs = forward_field(RealVolume(meta, a * x.data + b * y.data), kern).data
        rhs = a * forward_field(x, kern).data + b * forward_field(y, kern).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("name", sorted(METAS))
    def test_self_adjoint(self, name):
        meta = METAS[name]
        kern = build_dipole(meta)
        x, y = rand_volume(meta, 2), rand_volume(meta, 3)
        lhs = np.sum(forward_field(x, kern).data * y.data)
        rhs = np.sum(x.data * forward_field(y, kern).data)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_constant_chi_maps_to_zero(self):
        meta = METAS["iso"]
        out = forward_field(RealVolume(meta, np.full(meta.dims, 0.3)),
                            build_dipole(meta))
        assert np.max(np.abs(out.data)) < 1e-14

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(InputError):
            forward_field(rand_volume(METAS["iso"]), build_dipole(METAS["aniso"]))

    def test_operator_norm_bounded(self):
        # |H x| <= (2/3) |x| in the spectral domain
        meta = METAS["odd"]
        kern = build_dipole(meta)
        for seed in range(3):
            x = rand_volume(meta, seed)
            assert (np.linalg.norm(forward_field(x, kern).data)
                    <= (2.0 / 3.0) * np.linalg.norm(x.data) * (1 + 1e-12))


def band_limited(meta, kern, threshold, seed=0):
    """Random chi whose spectrum is zeroed wherever |d| <= threshold."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(meta.dims)
    hat = np.fft.fftn(raw)
    hat[np.abs(kern.spectrum) <= threshold] = 0.0
    return RealVolume(meta, np.real(np.fft.ifftn(hat)))


class TestNaiveInverse:
    @pytest.mark.parametrize("name", ["iso", "aniso"])
    def test_band_limited_recovery(self, name):
        meta = METAS[name]
        kern = build_dipole(meta)
        chi = band_limited(meta, kern, 0.1, seed=4)
        b = forward_field(chi, kern)
        rec = naive_inverse(b, kern, eps=1e-6)
        err = np.linalg.norm(rec.data - chi.data) / np.linalg.norm(chi.data)
        assert err < 1e-8

    def test_eps_validation(self):
        meta = METAS["iso"]
        b = rand_volume(meta)
        with pytest.raises(InputError):
            naive_inverse(b, build_dipole(meta), eps=0.0)

    def test_infinite_eps_rejected(self):
        # every spectrum value lies below an infinite floor: an all-zero inverse
        meta = METAS["iso"]
        with pytest.raises(InputError, match="eps"):
            naive_inverse(rand_volume(meta), build_dipole(meta), eps=np.inf)

    def test_noise_amplification(self):
        # near-cone bins amplify noise: noisy error dwarfs the clean error
        meta = METAS["iso"]
        kern = build_dipole(meta)
        chi = band_limited(meta, kern, 0.1, seed=5)
        b = forward_field(chi, kern)
        rng = np.random.default_rng(6)
        noisy = RealVolume(meta, b.data + 1e-3 * rng.standard_normal(meta.dims))
        err_clean = np.linalg.norm(naive_inverse(b, kern, eps=1e-9).data - chi.data)
        err_noisy = np.linalg.norm(naive_inverse(noisy, kern, eps=1e-9).data - chi.data)
        assert err_clean < 1e-10 * np.linalg.norm(chi.data)
        assert err_noisy > 1e6 * err_clean
