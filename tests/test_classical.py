import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qsmkit import classical
from qsmkit.classical import (
    SMOOTH_EPS,
    MediParams,
    MediWeights,
    TkdParams,
    build_medi_weights,
    cg_least_squares,
    medi_invert,
    tkd_invert,
)
from qsmkit.dipole import DipoleKernel, apply_spectrum, build_dipole, forward_field
from qsmkit.errors import InputError, NumericalError, require
from qsmkit.phantom import make_random_piecewise
from qsmkit.volume import (
    Mask,
    RealVolume,
    VolumeMeta,
    forward_diff,
    forward_diff_adjoint,
    read_volume,
    require_same_grid,
    write_volume,
)

META = VolumeMeta((16, 16, 16), (1.0, 1.0, 1.0), (0, 0, 1))
KERN = build_dipole(META)


def band_limited(threshold, seed=0, meta=META, kern=KERN):
    rng = np.random.default_rng(seed)
    hat = np.fft.fftn(rng.standard_normal(meta.dims))
    hat[np.abs(kern.spectrum) <= threshold] = 0.0
    return RealVolume(meta, np.real(np.fft.ifftn(hat)))


def ones_weights(meta=META):
    return build_medi_weights(RealVolume(meta, np.ones(meta.dims)))


# The MEDI solver that applied H to every line-search trial, kept verbatim
# (under new names) as the oracle of the linear line search in medi_invert.
def _medi_objective_reference(x: np.ndarray, b: np.ndarray, spec: np.ndarray,
                              w2: np.ndarray, m: tuple, lam: float) -> tuple[float, float, float]:
    resid = b - apply_spectrum(x, spec)
    data = float(np.sum(w2 * resid * resid))
    reg = 0.0
    for ax in range(3):
        g = forward_diff(x, ax)
        reg += float(np.sum(m[ax] * np.sqrt(g * g + SMOOTH_EPS ** 2)))
    return data + lam * reg, data, lam * reg


def medi_invert_reference(field: RealVolume, kernel: DipoleKernel, weights: MediWeights,
                          params: MediParams = MediParams()) -> tuple[RealVolume, list[tuple]]:
    """Minimize ||W(b - Hx)||^2 + lam * sum_c ||M_c grad_c(x)||_1 by descent.

    The L1 factors are smoothed as sqrt(t^2 + eps^2) so the objective is
    differentiable; an Armijo backtracking line search keeps the recorded
    objective trace non-increasing. Trace rows are
    (iteration, objective, data_term, reg_term).
    """
    require_same_grid(field.meta, "field", kernel=kernel)
    if weights.w.meta != field.meta:
        raise InputError("weights geometry differs from field")
    b = field.data
    spec = kernel.spectrum
    w2 = weights.w.data ** 2
    m = tuple(np.asarray(mk, dtype=np.float64) for mk in weights.m)
    lam = params.lam

    x = np.zeros_like(b)
    f, data, reg = _medi_objective_reference(x, b, spec, w2, m, lam)
    trace = [(0, f, data, reg)]
    f0 = f
    t = params.step
    for it in range(1, params.iters + 1):
        resid = apply_spectrum(x, spec) - b
        grad = 2.0 * apply_spectrum(w2 * resid, spec)
        for ax in range(3):
            g = forward_diff(x, ax)
            psi = m[ax] * g / np.sqrt(g * g + SMOOTH_EPS ** 2)
            grad += lam * forward_diff_adjoint(psi, ax)
        gnorm2 = float(np.sum(grad * grad))
        if gnorm2 == 0.0:
            break
        t = min(t * 2.0, params.step)
        while True:
            cand = x - t * grad
            f_new, data_new, reg_new = _medi_objective_reference(cand, b, spec, w2, m, lam)
            if np.isfinite(f_new) and f_new <= f - 1e-4 * t * gnorm2:
                break
            t *= 0.5
            if t < 1e-20:  # stalled: keep current iterate
                cand, f_new, data_new, reg_new = x, f, data, reg
                break
        x, f, data, reg = cand, f_new, data_new, reg_new
        if not np.isfinite(f) or f > 10.0 * f0:
            raise NumericalError(f"objective diverged at iteration {it}: {f:g}")
        trace.append((it, f, data, reg))
        if t < 1e-20:
            break
    return RealVolume(field.meta, x), trace


# The solvers that allocated fresh volumes in every expression, kept verbatim
# (under new names) as the byte oracles of the in-place medi_invert and
# cg_least_squares.
def _medi_objective_allocating(x: np.ndarray, hx: np.ndarray, b: np.ndarray,
                               w2: np.ndarray, m: tuple, lam: float) -> tuple[float, float, float]:
    resid = b - hx
    data = float(np.sum(w2 * resid * resid))
    reg = 0.0
    for ax in range(3):
        g = forward_diff(x, ax)
        reg += float(np.sum(m[ax] * np.sqrt(g * g + SMOOTH_EPS ** 2)))
    return data + lam * reg, data, lam * reg


def medi_invert_allocating(field: RealVolume, kernel: DipoleKernel, weights: MediWeights,
                           params: MediParams = MediParams()) -> tuple[RealVolume, list[tuple]]:
    """Minimize ||W(b - Hx)||^2 + lam * sum_c ||M_c grad_c(x)||_1 by descent.

    The L1 factors are smoothed as sqrt(t^2 + eps^2) so the objective is
    differentiable; an Armijo backtracking line search keeps the recorded
    objective trace non-increasing. H is linear, so a trial x - t g reuses Hx
    and Hg. Trace rows are (iteration, objective, data_term, reg_term).
    """
    require_same_grid(field.meta, "field", kernel=kernel, weights=weights.w)
    b = field.data
    spec = kernel.spectrum
    w2 = weights.w.data ** 2
    m = tuple(np.asarray(mk, dtype=np.float64) for mk in weights.m)
    lam = params.lam

    x, hx = np.zeros_like(b), np.zeros_like(b)
    f, data, reg = _medi_objective_allocating(x, hx, b, w2, m, lam)
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
            f_new, data_new, reg_new = _medi_objective_allocating(cand, hcand, b, w2, m, lam)
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


def cg_least_squares_allocating(field: RealVolume, kernel: DipoleKernel,
                                weights: RealVolume | None = None, iters: int = 50,
                                tol: float = 1e-10) -> tuple[RealVolume, list[float]]:
    """CGLS for min ||W(b - Hx)||_2, the lam -> 0 reference for medi_invert.

    Works on the normal equations implicitly (never forms H^T W^2 H). The
    returned residual list holds ||W(b - Hx_k)||_2, which is non-increasing
    because each CG step minimizes it over a nested Krylov subspace.
    """
    require("iters", iters, ge=1, integer=True)
    require("tol", tol, ge=0)
    require_same_grid(field.meta, "field", kernel=kernel, weights=weights)
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


BYTE_METAS = {"iso24": VolumeMeta((24, 24, 24), (1.0, 1.0, 1.0), (0, 0, 1)),
              "aniso-oblique": VolumeMeta((17, 20, 13), (0.9, 1.1, 1.4), (0.3, -0.5, 0.8))}


def noisy_case(meta, seed=3):
    """A noisy field from a piecewise phantom and magnitude MEDI weights."""
    kern = build_dipole(meta)
    rng = np.random.default_rng(seed)
    field = RealVolume(meta, forward_field(make_random_piecewise(meta, 4, seed=seed), kern).data
                       + 0.002 * rng.standard_normal(meta.dims))
    mag = 1.0 + np.abs(make_random_piecewise(meta, 3, seed=seed + 1).data)
    return field, kern, build_medi_weights(RealVolume(meta, mag))


class TestInPlaceSolvers:
    """Every byte of the in-place solvers equals the allocating ones'."""

    # lam 0.01 is the case whose output follows round-off
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.01])
    @pytest.mark.parametrize("name", sorted(BYTE_METAS))
    def test_medi_bytes(self, name, lam):
        field, kern, weights = noisy_case(BYTE_METAS[name])
        params = MediParams(lam=lam, iters=25)
        got, trace = medi_invert(field, kern, weights, params)
        want, want_trace = medi_invert_allocating(field, kern, weights, params)
        assert got.data.tobytes() == want.data.tobytes()
        assert trace == want_trace

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("name", sorted(BYTE_METAS))
    def test_cgls_bytes(self, name, weighted):
        field, kern, weights = noisy_case(BYTE_METAS[name])
        wd = weights.w if weighted else None
        got, res = cg_least_squares(field, kern, weights=wd, iters=25)
        want, want_res = cg_least_squares_allocating(field, kern, weights=wd, iters=25)
        if weighted:
            assert got.data.tobytes() == want.data.tobytes()
            assert res == want_res
        else:
            # unweighted CGLS iterates in the half spectrum and takes its
            # norms by Parseval: the same recursion, summed in another order
            err = np.max(np.abs(got.data - want.data)) / np.max(np.abs(want.data))
            assert err <= 1e-12
            assert len(res) == len(want_res)
            np.testing.assert_allclose(res, want_res, rtol=1e-12, atol=0)


def test_medi_same_bytes_from_file_and_memory(tmp_path):
    # every volume is C-ordered in memory, so a volume read from DBV1 and an
    # in-memory copy of it take the same summation order through a solve
    field, kern, weights = noisy_case(META)
    write_volume(field, tmp_path / "field.dbv")
    write_volume(weights.w, tmp_path / "mag.dbv")
    field, mag = read_volume(tmp_path / "field.dbv"), read_volume(tmp_path / "mag.dbv")
    field_copy, mag_copy = (RealVolume(META, np.ascontiguousarray(v.data)) for v in (field, mag))
    params = MediParams(lam=1e-3, iters=20)
    got, trace = medi_invert(field, kern, build_medi_weights(mag), params)
    want, want_trace = medi_invert(field_copy, kern, build_medi_weights(mag_copy), params)
    assert got.data.tobytes() == want.data.tobytes()
    assert repr(trace) == repr(want_trace)


class TestSolverMemory:
    """A solve allocates its buffers once. Its tracemalloc peak at 32^3, in
    volumes, was 13.5 for the allocating MEDI and 9.2 for the allocating
    weighted CGLS, at 5 and at 40 iterations. In place, with eight MEDI work
    volumes and the result copied while they were alive, it read 11.2 and
    8.2. With seven MEDI work volumes, freed before the result is copied,
    it reads 9.6 for MEDI and read 7.6 for CGLS, weighted or not. Unweighted
    CGLS read 9.2 while a ones volume stood in for its weights. Weighted CGLS
    reads 6.6 since q = A p shares s's buffer, under a bound of 8.0; the
    MEDI and unweighted CGLS bounds leave under one volume of room above the
    current figure, so one more volume held through a solve fails them, and
    so does a copy of the result made while the work volumes are alive. The
    weights are built before the trace starts; ``test_weights_footprint``
    bounds what they hold."""

    META32 = VolumeMeta((32, 32, 32), (1.0, 1.0, 1.0), (0, 0, 1))

    @staticmethod
    def peak_volumes(solve, volume_bytes):
        solve()  # FFT plans are built once
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / volume_bytes

    @pytest.mark.parametrize("iters", [5, 40])
    def test_medi_peak(self, iters):
        field, kern, weights = noisy_case(self.META32)
        params = MediParams(lam=1e-3, iters=iters)
        peak = self.peak_volumes(lambda: medi_invert(field, kern, weights, params),
                                 field.data.nbytes)
        assert peak <= 10.0

    @pytest.mark.parametrize("iters", [5, 40])
    def test_cgls_peak(self, iters):
        field, kern, weights = noisy_case(self.META32)
        peak = self.peak_volumes(
            lambda: cg_least_squares(field, kern, weights=weights.w, iters=iters),
            field.data.nbytes)
        assert peak <= 8.0

    @pytest.mark.parametrize("iters", [5, 40])
    def test_cgls_unweighted_peak(self, iters):
        """No ones volume stands in for the weights, and the solve iterates in
        the half spectrum: five complex half-spectrum vectors of 17/16 volume
        each, freed before the inverse pass, read 5.8 volumes at 5 and at 40
        iterations (7.6 while it iterated on real volumes). One more vector
        held through the solve fails the bound."""
        field, kern, _ = noisy_case(self.META32)
        peak = self.peak_volumes(lambda: cg_least_squares(field, kern, iters=iters),
                                 field.data.nbytes)
        assert peak <= 6.5

    def test_weights_footprint(self):
        # W and three boolean edge masks: 1 + 3/8 volumes; float64 masks
        # held 4, and any one of them kept beside its boolean fails this
        meta = self.META32
        mag = RealVolume(meta, 1.0 + np.abs(make_random_piecewise(meta, 3, seed=4).data))
        build_medi_weights(mag)  # lazy imports and caches are filled once
        tracemalloc.start()
        try:
            weights = build_medi_weights(mag)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(mk.dtype == bool for mk in weights.m)
        assert held / mag.data.nbytes <= 1.375 + 0.02  # Python objects: under 0.01


def float_masks(weights):
    """The weights with float64 0/1 edge masks, as MEDI held them before
    they were booleans; the oracles read either form."""
    return SimpleNamespace(w=weights.w, m=tuple(mk.astype(np.float64) for mk in weights.m))


class TestBooleanMasks:
    """Boolean edge masks give the bytes float64 masks gave."""

    @pytest.mark.parametrize("lam", [1e-3, 0.01])
    def test_medi_bytes_against_float_masks(self, lam):
        field, kern, weights = noisy_case(BYTE_METAS["aniso-oblique"])
        params = MediParams(lam=lam, iters=25)
        got, trace = medi_invert(field, kern, weights, params)
        want, want_trace = medi_invert_allocating(field, kern, float_masks(weights), params)
        assert got.data.tobytes() == want.data.tobytes()
        assert trace == want_trace
        # the per-trial reference takes each mask through its own products
        ref, ref_trace = medi_invert_reference(field, kern, weights, params)
        ref_f, ref_f_trace = medi_invert_reference(field, kern, float_masks(weights), params)
        assert ref.data.tobytes() == ref_f.data.tobytes()
        assert ref_trace == ref_f_trace

    def test_mask_forms_accepted(self):
        weights = noisy_case(META)[2]
        floats = float_masks(weights).m
        for given in (floats, tuple(Mask(META, mk) for mk in floats), weights.m):
            held = MediWeights(w=weights.w, m=given).m
            for mk, want in zip(held, weights.m):
                assert mk.dtype == bool and not mk.flags.writeable
                assert np.array_equal(mk, want)

    def test_caller_array_not_frozen(self):
        mk = np.ones(META.dims, dtype=bool)
        MediWeights(w=RealVolume(META, np.ones(META.dims)), m=(mk, mk, mk))
        assert mk.flags.writeable

    @pytest.mark.parametrize("dims", [(1, 1, 1), (8, 8, 8), (16, 16, 15)])
    @pytest.mark.parametrize("form", ["array", "Mask"])
    def test_mask_off_grid_rejected(self, dims, form):
        # 1x1x1 masks used to broadcast through a whole solve, and 8^3 ones
        # failed inside NumPy
        meta = VolumeMeta(dims, (1.0, 1.0, 1.0), (0, 0, 1))
        mk = np.ones(dims) if form == "array" else Mask(meta, np.ones(dims))
        with pytest.raises(InputError, match="edge mask 0"):
            MediWeights(w=RealVolume(META, np.ones(META.dims)), m=(mk, mk, mk))

    def test_mask_on_other_geometry_rejected(self):
        other = VolumeMeta(META.dims, (1.0, 1.0, 2.0), (0, 0, 1))
        mk = Mask(other, np.ones(META.dims))
        with pytest.raises(InputError, match="edge mask 0 grid"):
            MediWeights(w=RealVolume(META, np.ones(META.dims)), m=(mk, mk, mk))

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_non_binary_mask_rejected(self, bad):
        mk = np.ones(META.dims)
        mk[3, 4, 5] = bad
        ones = np.ones(META.dims)
        with pytest.raises(InputError, match="edge mask 2 voxels"):
            MediWeights(w=RealVolume(META, ones), m=(ones, ones, mk))

    @pytest.mark.parametrize("count", [2, 4])
    def test_one_mask_per_axis(self, count):
        ones = np.ones(META.dims)
        with pytest.raises(InputError, match="one edge mask per axis"):
            MediWeights(w=RealVolume(META, ones), m=(ones,) * count)


class TestTkd:
    @pytest.mark.parametrize("a", [0.0, -0.1, 2.0 / 3.0, 1.0])
    def test_threshold_validation(self, a):
        with pytest.raises(InputError):
            TkdParams(a=a)

    def test_band_limited_recovery(self):
        chi = band_limited(0.1, seed=1)
        b = forward_field(chi, KERN)
        rec = tkd_invert(b, KERN, TkdParams(a=0.1))
        err = np.linalg.norm(rec.data - chi.data) / np.linalg.norm(chi.data)
        assert err < 1e-8

    def test_cone_sign_convention(self):
        # (3,3,3)/16 sits exactly on the cone where d = 0; sign(0) := +1 so a
        # cosine there comes back scaled by +1/a
        n = 16
        x = np.arange(n)
        phase = 2.0 * np.pi * 3.0 / n
        wave = (np.cos(phase * x)[:, None, None]
                * np.cos(phase * x)[None, :, None]
                * np.cos(phase * x)[None, None, :])
        # product of cosines spreads energy over (+-3,+-3,+-3), all on the cone
        b = RealVolume(META, 0.01 * wave)
        rec = tkd_invert(b, KERN, TkdParams(a=0.1))
        np.testing.assert_allclose(rec.data, b.data / 0.1, atol=1e-12)

    def test_geometry_mismatch(self):
        other = VolumeMeta((8, 8, 8), (1, 1, 1))
        with pytest.raises(InputError):
            tkd_invert(RealVolume(other, np.zeros(other.dims)), KERN)


class TestMediWeights:
    def test_uniform_magnitude(self):
        w = ones_weights()
        assert np.all(w.w.data == 1.0)
        for mk in w.m:
            assert np.all(mk)

    def test_mean_one_over_support(self):
        rng = np.random.default_rng(2)
        mag = np.abs(rng.standard_normal(META.dims)) + 0.1
        mag[:3] = 0.0
        w = build_medi_weights(RealVolume(META, mag))
        support = mag > 0
        assert np.mean(w.w.data[support]) == pytest.approx(1.0, rel=1e-12)
        assert np.all(w.w.data[~support] == 0.0)

    def test_edge_fraction_zero_rate(self):
        rng = np.random.default_rng(3)
        mag = np.abs(rng.standard_normal(META.dims)) + 0.1
        frac = 0.3
        w = build_medi_weights(RealVolume(META, mag), edge_fraction=frac)
        for mk in w.m:
            zero_rate = 1.0 - np.mean(mk)
            assert abs(zero_rate - frac) < 0.02

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            build_medi_weights(RealVolume(META, -np.ones(META.dims)))
        with pytest.raises(InputError):
            build_medi_weights(RealVolume(META, np.zeros(META.dims)))
        with pytest.raises(InputError):
            build_medi_weights(RealVolume(META, np.ones(META.dims)), edge_fraction=1.0)


class TestMediInvert:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_non_increasing(self, seed):
        chi = make_random_piecewise(META, 3, seed=seed)
        b = forward_field(chi, KERN)
        _, trace = medi_invert(b, KERN, ones_weights(),
                               MediParams(lam=0.01, iters=40))
        objs = [row[1] for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_trace_row_shape(self):
        chi = make_random_piecewise(META, 3, seed=5)
        b = forward_field(chi, KERN)
        out, trace = medi_invert(b, KERN, ones_weights(),
                                 MediParams(lam=0.01, iters=10))
        it, obj, data, reg = trace[-1]
        assert it == 10
        assert obj == pytest.approx(data + reg, rel=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_matches_cgls_when_unregularized(self):
        chi = band_limited(0.3, seed=7)
        b = forward_field(chi, KERN)
        gd, _ = medi_invert(b, KERN, ones_weights(),
                            MediParams(lam=0.0, iters=300))
        cg, _ = cg_least_squares(b, KERN, iters=80)
        rel = np.linalg.norm(gd.data - cg.data) / np.linalg.norm(cg.data)
        assert rel < 1e-4

    def test_matches_per_trial_line_search(self):
        chi = make_random_piecewise(META, 4, seed=3)
        mag = RealVolume(META, 1.0 + np.abs(make_random_piecewise(META, 3, seed=4).data))
        b = forward_field(chi, KERN)
        weights = build_medi_weights(mag)
        params = MediParams(lam=0.01, iters=30)
        got, trace = medi_invert(b, KERN, weights, params)
        want, want_trace = medi_invert_reference(b, KERN, weights, params)
        assert len(trace) == len(want_trace) == 31
        rel = np.max(np.abs(got.data - want.data)) / np.max(np.abs(want.data))
        assert rel < 1e-9
        np.testing.assert_allclose(trace, want_trace, rtol=1e-9, atol=0)

    def test_two_applies_per_iteration(self, monkeypatch):
        calls = []

        def counting(data, spectrum, **kw):
            calls.append(1)
            return apply_spectrum(data, spectrum, **kw)

        monkeypatch.setattr(classical, "apply_spectrum", counting)
        chi = make_random_piecewise(META, 4, seed=3)
        _, trace = medi_invert(forward_field(chi, KERN), KERN, ones_weights(),
                               MediParams(lam=0.01, iters=30))
        assert len(trace) - 1 == 30
        assert len(calls) == 2 * 30

    def test_param_validation(self):
        with pytest.raises(InputError):
            MediParams(lam=-1.0)
        with pytest.raises(InputError):
            MediParams(iters=0)
        with pytest.raises(InputError):
            MediParams(step=0.0)

    @pytest.mark.parametrize("bad, word", [({"step": np.inf}, "step"),
                                           ({"lam": np.nan}, "lambda"),
                                           ({"lam": np.inf}, "lambda")],
                             ids=["step-inf", "lam-nan", "lam-inf"])
    def test_non_finite_params_rejected(self, bad, word):
        # an infinite step would halve forever in the line search, and a
        # non-finite lam diverges on the first objective
        with pytest.raises(InputError, match=word):
            MediParams(**bad)

    def test_weights_geometry_checked(self):
        other = VolumeMeta((8, 8, 8), (1, 1, 1))
        b = forward_field(make_random_piecewise(META, 2, seed=1), KERN)
        with pytest.raises(InputError):
            medi_invert(b, KERN, ones_weights(other))


class TestCgls:
    def test_band_limited_recovery(self):
        chi = band_limited(0.3, seed=4)
        b = forward_field(chi, KERN)
        rec, res = cg_least_squares(b, KERN, iters=80)
        err = np.linalg.norm(rec.data - chi.data) / np.linalg.norm(chi.data)
        assert err < 1e-6
        assert res[-1] < 1e-8 * res[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_non_increasing(self, seed):
        chi = make_random_piecewise(META, 4, seed=seed)
        rng = np.random.default_rng(seed + 100)
        b = RealVolume(META, forward_field(chi, KERN).data
                       + 0.01 * rng.standard_normal(META.dims))
        _, res = cg_least_squares(b, KERN, iters=30)
        assert all(b <= a + 1e-8 * res[0] for a, b in zip(res, res[1:]))

    def test_weighted_matches_dense_lstsq(self):
        # tiny grid: build W*H as an explicit matrix and solve directly
        meta = VolumeMeta((6, 5, 4), (1.0, 1.0, 1.0), (0, 0, 1))
        kern = build_dipole(meta)
        n = meta.voxel_count
        rng = np.random.default_rng(9)
        wd = np.abs(rng.standard_normal(meta.dims)) + 0.5
        from qsmkit.dipole import apply_spectrum
        cols = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            cols.append((wd * apply_spectrum(e.reshape(meta.dims), kern.spectrum)).ravel())
        a_mat = np.stack(cols, axis=1)
        b = RealVolume(meta, rng.standard_normal(meta.dims))
        x_dense, *_ = np.linalg.lstsq(a_mat, (wd * b.data).ravel(), rcond=None)
        rec, _ = cg_least_squares(b, kern, weights=RealVolume(meta, wd), iters=400)
        resid_cg = np.linalg.norm(a_mat @ rec.data.ravel() - (wd * b.data).ravel())
        resid_dense = np.linalg.norm(a_mat @ x_dense - (wd * b.data).ravel())
        assert resid_cg <= resid_dense * (1 + 1e-6)

    @pytest.mark.parametrize("iters", [5, 30])
    def test_one_pass_each_way_unweighted(self, monkeypatch, iters):
        # unweighted, H is diagonal in k-space: the solve transforms b once
        # and the iterate back once, and makes no apply; weighted, it makes
        # two applies per iteration plus one
        calls = []

        def counting(name, f):
            def wrapped(*args, **kw):
                calls.append(name)
                return f(*args, **kw)
            return wrapped

        for name in ("apply_spectrum", "_to_half_spectrum", "_from_half_spectrum"):
            monkeypatch.setattr(classical, name, counting(name, getattr(classical, name)))
        field, kern, weights = noisy_case(META)
        _, res = cg_least_squares(field, kern, iters=iters, tol=0.0)
        assert len(res) - 1 == iters
        assert sorted(calls) == ["_from_half_spectrum", "_to_half_spectrum"]
        calls.clear()
        _, res = cg_least_squares(field, kern, weights=weights.w, iters=iters, tol=0.0)
        assert len(res) - 1 == iters
        assert calls == ["apply_spectrum"] * (2 * iters + 1)

    @pytest.mark.parametrize("name", sorted(BYTE_METAS))  # last axis even and odd
    def test_residuals_by_parseval(self, name):
        # the half-spectrum norms count each stored bin once for itself and
        # once for its unstored k -> -k partner, if it has one
        field, kern, _ = noisy_case(BYTE_METAS[name])
        for k in range(1, 6):
            x, res = cg_least_squares(field, kern, iters=k, tol=0.0)
            assert len(res) == k + 1
            want = np.linalg.norm(field.data - apply_spectrum(x.data, kern.spectrum))
            assert res[-1] == pytest.approx(want, rel=1e-12, abs=0)
        assert res[0] == pytest.approx(np.linalg.norm(field.data), rel=1e-12, abs=0)

    def test_zero_field(self):
        rec, res = cg_least_squares(RealVolume(META, np.zeros(META.dims)), KERN)
        assert not np.any(rec.data)
        assert res == [0.0]

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tol_outside_domain_rejected(self, tol):
        # nan never stops, inf stops after one iteration, -1 never stops early
        b = forward_field(band_limited(0.3, seed=4), KERN)
        with pytest.raises(InputError, match="tol"):
            cg_least_squares(b, KERN, iters=5, tol=tol)

    def test_zero_tol_runs_every_iteration(self):
        b = forward_field(make_random_piecewise(META, 4, seed=3), KERN)
        _, res = cg_least_squares(b, KERN, iters=5, tol=0.0)
        assert len(res) == 6
