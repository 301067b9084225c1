"""Metric tests against closed-form values and independent loop oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from qsmkit.errors import InputError, require
from qsmkit.metrics import (
    _box_sums,
    _check_pair,
    _select,
    RoiSet,
    psnr,
    rmse,
    roi_means,
    roi_regression,
    ssim3,
)
from qsmkit.phantom import PhantomSpec, Sphere, make_random_piecewise, shape_coverage
from qsmkit.volume import Mask, RealVolume, VolumeMeta

META = VolumeMeta((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))


def vol(arr, meta=META):
    return RealVolume(meta, arr)


def random_pair(seed, scale=0.05, meta=META):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-0.2, 0.2, size=meta.dims)
    r = t + rng.normal(0.0, scale, size=meta.dims)
    return vol(t, meta), vol(r, meta)


def random_mask(seed, meta=META, p=0.5):
    rng = np.random.default_rng(seed)
    m = (rng.uniform(size=meta.dims) < p).astype(np.float64)
    m.flat[0] = 1.0  # masks must select at least one voxel
    return Mask(meta, m)


class TestRmse:
    def test_identical_is_zero(self):
        t, _ = random_pair(0)
        assert rmse(t, t) == 0.0

    def test_constant_offset(self):
        t, _ = random_pair(1)
        r = vol(t.data + 0.03)
        assert rmse(t, r) == pytest.approx(3.0, rel=1e-12)

    def test_loop_oracle_with_mask(self):
        t, r = random_pair(2)
        mask = random_mask(3)
        acc, n = 0.0, 0
        for idx in np.ndindex(*META.dims):
            if mask.data[idx]:
                acc += (t.data[idx] - r.data[idx]) ** 2
                n += 1
        want = 100.0 * math.sqrt(acc / n)
        assert rmse(t, r, mask) == pytest.approx(want, rel=1e-12)

    def test_voxel_order_invariance(self):
        t, r = random_pair(4)
        tf = vol(np.flip(t.data).copy())
        rf = vol(np.flip(r.data).copy())
        assert rmse(t, r) == pytest.approx(rmse(tf, rf), rel=1e-12)

    def test_geometry_checks(self):
        t, r = random_pair(5)
        other = VolumeMeta((4, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        small = RealVolume(other, np.zeros((4, 4, 4)))
        with pytest.raises(InputError, match="geometry"):
            rmse(t, small)
        with pytest.raises(InputError, match="mask"):
            rmse(t, r, Mask(other, np.ones((4, 4, 4))))
        with pytest.raises(InputError, match="RealVolume"):
            rmse(t.data, r.data)


class TestPsnr:
    def test_identical_is_inf(self):
        t, _ = random_pair(0)
        assert psnr(t, t) == math.inf

    def test_error_equal_to_peak_is_zero_db(self):
        t = vol(np.full(META.dims, 0.0))
        arr = t.data.copy()
        arr[0, 0, 0] = 2.0  # peak |truth| = 2
        t = vol(arr)
        r = vol(t.data + 2.0)  # MSE = 4 = peak^2
        assert psnr(t, r) == pytest.approx(0.0, abs=1e-12)

    def test_loop_oracle_with_mask(self):
        t, r = random_pair(6)
        mask = random_mask(7)
        acc, n, peak = 0.0, 0, 0.0
        for idx in np.ndindex(*META.dims):
            if mask.data[idx]:
                acc += (t.data[idx] - r.data[idx]) ** 2
                n += 1
                peak = max(peak, abs(t.data[idx]))
        want = 10.0 * math.log10(peak ** 2 / (acc / n))
        assert psnr(t, r, mask) == pytest.approx(want, abs=1e-9)

    def test_peak_override_shifts_by_constant(self):
        t, r = random_pair(8)
        base = psnr(t, r)
        doubled = psnr(t, r, peak=2.0 * float(np.max(np.abs(t.data))))
        assert doubled - base == pytest.approx(10.0 * math.log10(4.0),
                                               rel=1e-12)

    def test_mask_excludes_corruption(self):
        t, _ = random_pair(9)
        mask = random_mask(10)
        arr = t.data + 0.5 * (1.0 - mask.data)
        r = vol(arr)
        assert psnr(t, r, mask) == math.inf
        assert math.isfinite(psnr(t, r))

    def test_decreases_with_noise_level(self):
        # monotone in expectation; majority rule over seeds
        t, _ = random_pair(11)
        wins = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            vals = [psnr(t, vol(t.data + rng.normal(0.0, s, size=META.dims)))
                    for s in (0.01, 0.02, 0.05)]
            wins += vals[0] > vals[1] > vals[2]
        assert wins >= 3

    def test_given_peak_checked_on_identical_volumes(self):
        t, _ = random_pair(13)
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(InputError, match="peak"):
                psnr(t, t, peak=bad)

    def test_identical_all_zero_is_inf(self):
        z = vol(np.zeros(META.dims))
        assert psnr(z, z) == math.inf

    def test_degenerate_peak_rejected(self):
        z = vol(np.zeros(META.dims))
        r = vol(np.ones(META.dims))
        with pytest.raises(InputError, match="peak"):
            psnr(z, r)
        t, r2 = random_pair(12)
        with pytest.raises(InputError, match="peak"):
            psnr(t, r2, peak=0.0)
        with pytest.raises(InputError, match="peak"):
            psnr(t, r2, peak=math.nan)


def ssim_window(t, r, span):
    """Single-window structural similarity from its definition: uniform
    weights summing to one, population moments."""
    c1, c2 = (0.01 * span) ** 2, (0.03 * span) ** 2
    mu_t, mu_r = t.mean(), r.mean()
    cov = np.mean((t - mu_t) * (r - mu_r))
    num = (2 * mu_t * mu_r + c1) * (2 * cov + c2)
    den = (mu_t ** 2 + mu_r ** 2 + c1) * (t.var() + r.var() + c2)
    return num / den



# The box sums that padded each cumulative sum with np.concatenate, kept
# verbatim (under a new name) as the byte oracle of metrics._box_sums.
def box_sums_concatenate(a: np.ndarray, w: int) -> np.ndarray:
    """Exact sums over every fully-contained w^3 window (valid positions),
    via padded cumulative sums along each axis in turn."""
    out = np.asarray(a, dtype=np.float64)
    for ax in range(3):
        cs = np.cumsum(out, axis=ax)
        pad = np.zeros_like(np.take(cs, [0], axis=ax))
        cs = np.concatenate([pad, cs], axis=ax)
        n = out.shape[ax]
        hi = [slice(None)] * 3
        lo = [slice(None)] * 3
        hi[ax] = slice(w, n + 1)
        lo[ax] = slice(0, n + 1 - w)
        out = cs[tuple(hi)] - cs[tuple(lo)]
    return out


class TestBoxSums:
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    # (5, 6, 4) and (3, 1, 2) at w 1 fill the shared buffer exactly
    @pytest.mark.parametrize("shape, w", [((9, 8, 10), 7), ((7, 7, 7), 7), ((5, 6, 4), 1),
                                          ((3, 1, 2), 1), ((24, 24, 24), 7), ((11, 3, 13), 3)])
    def test_bytes_match_concatenate(self, shape, w, order):
        rng = np.random.default_rng(sum(shape) + w)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, size=shape)
        if order == "F":
            a = np.asfortranarray(a)
        elif order == "strided":
            a = np.repeat(a, 2, axis=1)[:, ::2]
        got = _box_sums(a, w)
        want = box_sums_concatenate(a, w)
        assert got.shape == want.shape == tuple(n - w + 1 for n in shape)
        assert got.tobytes() == want.tobytes()

    def test_window_sums_by_loop(self):
        a = np.arange(4 * 5 * 6, dtype=np.float64).reshape(4, 5, 6)
        got = _box_sums(a, 3)
        for i, j, k in np.ndindex(got.shape):
            assert got[i, j, k] == a[i:i + 3, j:j + 3, k:k + 3].sum()


class TestSsim:
    def test_identical_is_one(self):
        t, _ = random_pair(0)
        assert abs(ssim3(t, t) - 1.0) <= 1e-12

    def test_negated_is_below_one(self):
        t, _ = random_pair(1)
        assert ssim3(t, vol(-t.data)) < 1.0

    def test_single_window_matches_hand_formula(self):
        meta = VolumeMeta((7, 7, 7), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        rng = np.random.default_rng(13)
        t = rng.uniform(-0.2, 0.2, size=(7, 7, 7))
        r = 0.9 * t + 0.02 + rng.normal(0.0, 0.01, size=(7, 7, 7))
        want = ssim_window(t, r, t.max() - t.min())
        got = ssim3(RealVolume(meta, t), RealVolume(meta, r))
        assert got == pytest.approx(want, abs=1e-9)

    def test_multi_window_loop_oracle_with_mask(self):
        meta = VolumeMeta((9, 8, 10), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        rng = np.random.default_rng(14)
        t = rng.uniform(-0.2, 0.2, size=(9, 8, 10))
        r = t + rng.normal(0.0, 0.03, size=(9, 8, 10))
        m = (rng.uniform(size=(9, 8, 10)) < 0.5).astype(np.float64)
        m[4, 4, 4] = 1.0  # keep at least one valid window center
        mask = Mask(meta, m)
        span = t[m > 0].max() - t[m > 0].min()
        vals = []
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    if m[i + 3, j + 3, k + 3]:
                        vals.append(ssim_window(
                            t[i:i + 7, j:j + 7, k:k + 7],
                            r[i:i + 7, j:j + 7, k:k + 7], span))
        got = ssim3(RealVolume(meta, t), RealVolume(meta, r), mask)
        assert got == pytest.approx(np.mean(vals), abs=1e-9)

    def test_flip_invariance(self):
        t, r = random_pair(15)
        tf = vol(np.flip(t.data).copy())
        rf = vol(np.flip(r.data).copy())
        assert ssim3(t, r) == pytest.approx(ssim3(tf, rf), rel=1e-12)

    def test_window_validation(self):
        t, r = random_pair(16)
        with pytest.raises(InputError, match="odd"):
            ssim3(t, r, window=4)
        with pytest.raises(InputError, match="exceeds"):
            ssim3(t, r, window=9)
        with pytest.raises(InputError, match="k1 and k2"):
            ssim3(t, r, k1=0.0)

    @pytest.mark.parametrize("window", [7.0, 7.5, True, 0])
    def test_window_must_be_a_positive_integer(self, window):
        t, r = random_pair(16)
        with pytest.raises(InputError,
                           match=rf"^window must be >= 1 and an integer, got {window}$"):
            ssim3(t, r, window=window)

    def test_constant_truth_rejected(self):
        c = vol(np.full(META.dims, 0.3))
        t, _ = random_pair(17)
        with pytest.raises(InputError, match="dynamic range"):
            ssim3(c, t)

    def test_mask_without_window_centers_rejected(self):
        t, r = random_pair(18)
        m = np.zeros(META.dims)
        # corners are never 7^3 window centers on 8^3; two voxels keep the
        # truth's dynamic range over the mask nonzero
        m[0, 0, 0] = 1.0
        m[7, 7, 7] = 1.0
        with pytest.raises(InputError, match="window"):
            ssim3(t, r, Mask(META, m))

    def test_window_one_runs(self):
        t, r = random_pair(19)
        val = ssim3(t, r, window=1)
        assert math.isfinite(val)
        assert abs(ssim3(t, t, window=1) - 1.0) <= 1e-12


# ssim3 as it was while it held five box-sum maps and the selected truth at
# once, kept verbatim (under a new name) as the byte oracle of metrics.ssim3.
def ssim3_five_maps(truth: RealVolume, recon: RealVolume, mask: Mask | None = None,
                    window: int = 7, k1: float = 0.01, k2: float = 0.03) -> float:
    _check_pair(truth, recon)
    sel = _select(truth, mask)
    require("window", window, ge=1, integer=True)
    if window % 2 == 0:
        raise InputError(f"window must be odd, got {window}")
    if window > min(truth.meta.dims):
        raise InputError(
            f"window {window} exceeds volume dims {truth.meta.dims}")
    require("k1 and k2", k1, k2, gt=0)
    t_sel = truth.data[sel]
    span = float(t_sel.max() - t_sel.min())
    require("truth's dynamic range over the mask", span, gt=0)
    c1 = (k1 * span) ** 2
    c2 = (k2 * span) ** 2
    n3 = float(window ** 3)
    t, r = truth.data, recon.data
    mu_t = _box_sums(t, window) / n3
    mu_r = _box_sums(r, window) / n3
    var_t = _box_sums(t * t, window) / n3 - mu_t * mu_t
    var_r = _box_sums(r * r, window) / n3 - mu_r * mu_r
    cov = _box_sums(t * r, window) / n3 - mu_t * mu_r
    num = (2.0 * mu_t * mu_r + c1) * (2.0 * cov + c2)
    den = (mu_t * mu_t + mu_r * mu_r + c1) * (var_t + var_r + c2)
    ssim_map = num / den
    h = window // 2
    centers = sel[tuple(slice(h, h + n) for n in ssim_map.shape)]
    if not centers.any():
        raise InputError("no complete window is centered inside the mask")
    return float(np.mean(ssim_map[centers]))


def ball_case(n: int, seed: int) -> tuple[RealVolume, RealVolume, Mask]:
    """A piecewise truth inside a ball filling most of the grid, a noisy
    copy of it, and the ball as the mask."""
    meta = VolumeMeta((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
    mask = shape_coverage(PhantomSpec(meta, (Sphere((n / 2,) * 3, 0.4 * n, 1.0),)))
    chi = make_random_piecewise(meta, 10, seed=seed).data * mask.data
    noise = 0.01 * np.random.default_rng(seed).standard_normal(meta.dims)
    return RealVolume(meta, chi), RealVolume(meta, chi + noise), mask


class TestSsimOracle:
    """ssim3 returns the oracle's float, bit for bit."""

    @pytest.mark.parametrize("seed, scale", [(0, 0.05), (1, 0.5), (2, 1e-4)])
    @pytest.mark.parametrize("window", [1, 3, 7])
    @pytest.mark.parametrize("masked", [False, True])
    def test_random_pairs(self, seed, scale, window, masked):
        t, r = random_pair(seed, scale)
        mask = random_mask(seed) if masked else None
        want = ssim3_five_maps(t, r, mask, window=window)
        assert ssim3(t, r, mask, window=window).hex() == want.hex()

    @pytest.mark.parametrize("masked", [False, True])
    def test_ball_phantom(self, masked):
        t, r, mask = ball_case(24, seed=41)
        mask = mask if masked else None
        assert ssim3(t, r, mask).hex() == ssim3_five_maps(t, r, mask).hex()


class TestSsimMemory:
    """Tracemalloc peak of one ssim3 call at 64^3, in float64 volumes. It
    read 7.12 with the ball mask and 7.85 without while five box-sum maps
    and the selected truth were alive together; with var_r folded into
    var_t, cov dropped after its one use and no copy of the selected truth
    kept, it reads 6.10 either way. The bound sits just above that."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_peak(self, masked):
        t, r, mask = ball_case(64, seed=41)
        mask = mask if masked else None
        ssim3(t, r, mask)
        tracemalloc.start()
        try:
            ssim3(t, r, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / t.data.nbytes <= 6.2


def box_roi(meta, lo, hi):
    m = np.zeros(meta.dims)
    m[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1.0
    return Mask(meta, m)


def two_rois(meta=META):
    return RoiSet((("left", box_roi(meta, (0, 0, 0), (4, 8, 8))),
                   ("right", box_roi(meta, (4, 0, 0), (8, 8, 8)))))


class TestRoiSet:
    def test_names_in_order(self):
        assert two_rois().names == ("left", "right")

    def test_validation(self):
        m = box_roi(META, (0, 0, 0), (2, 2, 2))
        with pytest.raises(InputError, match="at least one"):
            RoiSet(())
        with pytest.raises(InputError, match="duplicate"):
            RoiSet((("a", m), ("a", m)))
        other = VolumeMeta((4, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        with pytest.raises(InputError, match="share one grid"):
            RoiSet((("a", m), ("b", Mask(other, np.ones((4, 4, 4))))))
        with pytest.raises(InputError, match="not a Mask"):
            RoiSet((("a", np.ones(META.dims)),))


class TestRegression:
    def test_identity_line(self):
        t, _ = random_pair(20)
        res = roi_regression(t, t, two_rois())
        assert res.slope == pytest.approx(1.0, rel=1e-12)
        assert res.intercept == pytest.approx(0.0, abs=1e-12)
        assert res.r_squared == pytest.approx(1.0, rel=1e-12)
        assert res.corr == pytest.approx(1.0, rel=1e-12)
        assert res.mean_abs_error == 0.0
        assert res.std_abs_error == 0.0

    def test_exact_linear_map(self):
        t, _ = random_pair(21)
        r = vol(0.5 * t.data + 0.2)
        res = roi_regression(t, r, two_rois())
        assert res.slope == pytest.approx(0.5, rel=1e-12)
        assert res.intercept == pytest.approx(0.2, rel=1e-12)
        assert res.corr == pytest.approx(1.0, rel=1e-12)

    def test_normal_equation_oracle(self):
        t, r = random_pair(22)
        rois = two_rois()
        res = roi_regression(t, r, rois)
        sel = (rois.rois[0][1].data + rois.rois[1][1].data) > 0
        x, y = t.data[sel], r.data[sel]
        coef, *_ = np.linalg.lstsq(np.stack([x, np.ones_like(x)], axis=1),
                                   y, rcond=None)
        assert res.slope == pytest.approx(coef[0], abs=1e-10)
        assert res.intercept == pytest.approx(coef[1], abs=1e-10)
        assert res.corr == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)
        assert res.r_squared == pytest.approx(res.corr ** 2, rel=1e-12)
        err = np.abs(x - y)
        assert res.mean_abs_error == pytest.approx(err.mean(), rel=1e-12)
        assert res.std_abs_error == pytest.approx(err.std(), rel=1e-12)

    def test_duplicated_region_leaves_line_unchanged(self):
        t, r = random_pair(23)
        m = box_roi(META, (1, 1, 1), (6, 6, 6))
        one = roi_regression(t, r, RoiSet((("a", m),)))
        two = roi_regression(t, r, RoiSet((("a", m), ("b", m))))
        assert two.slope == pytest.approx(one.slope, rel=1e-12)
        assert two.intercept == pytest.approx(one.intercept, abs=1e-12)
        assert two.corr == pytest.approx(one.corr, rel=1e-12)

    def test_means_mode_two_point_oracle(self):
        t, r = random_pair(24)
        rois = two_rois()
        res = roi_regression(t, r, rois, mode="means")
        pts = []
        for _, m in rois.rois:
            sel = m.data > 0
            pts.append((t.data[sel].mean(), r.data[sel].mean()))
        (x1, y1), (x2, y2) = pts
        slope = (y2 - y1) / (x2 - x1)
        assert res.slope == pytest.approx(slope, rel=1e-12)
        assert res.intercept == pytest.approx(y1 - slope * x1, rel=1e-9)
        assert abs(res.corr) == pytest.approx(1.0, rel=1e-12)

    def test_bounds_hold_on_random_cases(self):
        for seed in range(5):
            t, r = random_pair(30 + seed, scale=0.2)
            res = roi_regression(t, r, two_rois())
            assert -1.0 - 1e-12 <= res.corr <= 1.0 + 1e-12
            assert res.r_squared <= 1.0 + 1e-12
            assert res.std_abs_error >= 0.0

    def test_constant_recon_reports_zero_association(self):
        t, _ = random_pair(25)
        res = roi_regression(t, vol(np.full(META.dims, 0.1)), two_rois())
        assert abs(res.slope) < 1e-12
        assert res.corr == 0.0
        assert res.r_squared == 0.0
        assert res.intercept == pytest.approx(0.1, rel=1e-12)

    def test_validation(self):
        t, r = random_pair(26)
        with pytest.raises(InputError, match="constant truth"):
            roi_regression(vol(np.full(META.dims, 0.2)), r, two_rois())
        single = np.zeros(META.dims)
        single[0, 0, 0] = 1.0
        with pytest.raises(InputError, match=">= 2 points"):
            roi_regression(t, r, RoiSet((("a", Mask(META, single)),)))
        with pytest.raises(InputError, match="mode"):
            roi_regression(t, r, two_rois(), mode="median")
        other = VolumeMeta((4, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        faraway = RoiSet((("a", Mask(other, np.ones((4, 4, 4)))),))
        with pytest.raises(InputError, match="ROI grid"):
            roi_regression(t, r, faraway)


class TestRoiMeans:
    def test_constant_region(self):
        rois = two_rois()
        r = vol(np.full(META.dims, 0.07))
        for name, mean, std in roi_means(r, rois):
            assert mean == pytest.approx(0.07, rel=1e-12)
            assert std == pytest.approx(0.0, abs=1e-12)

    def test_loop_oracle_and_order(self):
        t, _ = random_pair(27)
        rois = two_rois()
        out = roi_means(t, rois)
        assert [name for name, _, _ in out] == ["left", "right"]
        for (name, mean, std), (_, m) in zip(out, rois.rois):
            vals = [t.data[idx] for idx in np.ndindex(*META.dims)
                    if m.data[idx]]
            assert mean == pytest.approx(np.mean(vals), rel=1e-12)
            assert std == pytest.approx(np.std(vals), rel=1e-12)

    def test_grid_mismatch(self):
        other = VolumeMeta((4, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        r = RealVolume(other, np.zeros((4, 4, 4)))
        with pytest.raises(InputError, match="ROI grid"):
            roi_means(r, two_rois())
