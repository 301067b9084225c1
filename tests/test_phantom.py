from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from qsmkit.dipole import build_dipole, forward_field
from qsmkit.errors import InputError
from qsmkit.phantom import (
    Box,
    PhantomSpec,
    Sphere,
    analytic_sphere_field,
    make_phantom,
    make_random_piecewise,
    shape_coverage,
    simulate_case,
)
from qsmkit.volume import Mask, RealVolume, VolumeMeta

META32 = VolumeMeta((32, 32, 32), (1.0, 1.0, 1.0), (0, 0, 1))


class TestMakePhantom:
    def test_background_only(self):
        v = make_phantom(PhantomSpec(META32, (), background_chi=0.05))
        assert np.all(v.data == 0.05)

    def test_sphere_volume_fraction(self):
        R = 10.0
        spec = PhantomSpec(META32, (Sphere((16, 16, 16), R, 1.0),))
        v = make_phantom(spec)
        voxels = int(np.sum(v.data))
        analytic = 4.0 / 3.0 * np.pi * R ** 3
        assert abs(voxels - analytic) / analytic < 0.02

    def test_box_is_exact(self):
        spec = PhantomSpec(META32, (Box((4, 4, 4), (6, 5, 3), 2.0),))
        v = make_phantom(spec)
        # corners at voxel boundaries: 6*5*3 voxels exactly
        assert int(np.sum(v.data == 2.0)) == 6 * 5 * 3

    def test_last_shape_wins(self):
        spec = PhantomSpec(META32, (
            Sphere((16, 16, 16), 8.0, 1.0),
            Sphere((16, 16, 16), 4.0, -1.0),
        ))
        v = make_phantom(spec)
        assert v.data[16, 16, 16] == -1.0
        assert v.data[16, 16, 22] == 1.0

    @pytest.mark.parametrize("shape", [
        Sphere((2, 16, 16), 4.0, 1.0),
        Sphere((16, 16, 31), 4.0, 1.0),
        Box((-1, 4, 4), (2, 2, 2), 1.0),
        Box((28, 4, 4), (6, 2, 2), 1.0),
        Sphere((16, 16, 16), -1.0, 1.0),
        Box((4, 4, 4), (0, 2, 2), 1.0),
    ])
    def test_out_of_grid_rejected(self, shape):
        with pytest.raises(InputError):
            make_phantom(PhantomSpec(META32, (shape,)))

    @pytest.mark.parametrize("shape", [
        Sphere((2.2, 2.2, 2.2), 0.1, 0.5),  # inside the grid, between centres
        Box((1.6, 1.6, 1.6), (0.8, 0.8, 0.8), 0.5),
    ])
    def test_shape_covering_no_voxel_centre_rejected(self, shape):
        # a second shape must not vanish silently behind one that does cover
        meta = VolumeMeta((8, 8, 8), (1.0, 1.0, 1.0), (0, 0, 1))
        spec = PhantomSpec(meta, (Sphere((4, 4, 4), 3.0, 0.1), shape))
        for build in (make_phantom, shape_coverage):
            with pytest.raises(InputError, match="covers no voxel centre"):
                build(spec)

    def test_coverage_of_empty_spec_rejected(self):
        with pytest.raises(InputError, match="no shapes covering any voxel"):
            shape_coverage(PhantomSpec(META32, ()))

    def test_coverage_superset_of_nonbackground(self):
        spec = PhantomSpec(META32, (
            Sphere((10, 10, 10), 5.0, 0.1),
            Box((18, 18, 18), (6, 6, 6), -0.2),
        ))
        cov = shape_coverage(spec)
        chi = make_phantom(spec)
        assert np.all(cov.data[chi.data != 0.0] == 1.0)


class TestRandomPiecewise:
    def test_deterministic(self):
        a = make_random_piecewise(META32, 5, seed=42)
        b = make_random_piecewise(META32, 5, seed=42)
        np.testing.assert_array_equal(a.data, b.data)
        c = make_random_piecewise(META32, 5, seed=43)
        assert np.any(a.data != c.data)

    def test_values_in_range(self):
        v = make_random_piecewise(META32, 8, chi_range=(-0.2, 0.2), seed=1)
        assert v.data.min() >= -0.2 and v.data.max() <= 0.2
        assert np.any(v.data != 0.0)

    def test_bad_args(self):
        with pytest.raises(InputError):
            make_random_piecewise(META32, 0)
        with pytest.raises(InputError):
            make_random_piecewise(META32, 3, chi_range=(0.2, -0.2))

    @pytest.mark.parametrize("chi_range", [(-np.inf, 0.1), (0.0, np.inf), (np.nan, 0.1)])
    def test_chi_range_must_be_finite(self, chi_range):
        with pytest.raises(InputError, match="^chi_range must be finite"):
            make_random_piecewise(META32, 3, chi_range=chi_range)

    @pytest.mark.parametrize("seed", [-1, 0.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # -1 would reach NumPy's ValueError, 0.5 a TypeError, True seed 1
        with pytest.raises(InputError, match="^seed must be >= 0 and an integer"):
            make_random_piecewise(META32, 3, seed=seed)

    def test_blob_chi_uniform(self):
        # single-blob phantoms; blob value read off the dominant voxel
        meta = VolumeMeta((16, 16, 16), (1.0, 1.0, 1.0))
        vals = []
        for seed in range(1000):
            v = make_random_piecewise(meta, 1, chi_range=(-0.2, 0.2), seed=seed)
            peak = np.unravel_index(np.argmax(np.abs(v.data)), meta.dims)
            val = v.data[peak]
            if val != 0.0:
                vals.append(val)
        assert len(vals) > 900
        res = stats.kstest(np.asarray(vals), stats.uniform(-0.2, 0.4).cdf)
        assert res.pvalue > 0.01


class TestSimulateCase:
    def _mask(self):
        m = np.zeros(META32.dims)
        m[4:28, 4:28, 4:28] = 1.0
        return Mask(META32, m)

    def test_zero_noise_is_exact_forward(self):
        chi = make_random_piecewise(META32, 4, seed=3)
        case = simulate_case(chi, self._mask(), noise_sigma=0.0)
        want = forward_field(chi, build_dipole(META32))
        np.testing.assert_array_equal(case.field.data, want.data)
        np.testing.assert_array_equal(case.magnitude.data, case.mask.data)

    def test_noise_statistics_and_determinism(self):
        chi = make_random_piecewise(META32, 4, seed=3)
        sigma = 0.01
        a = simulate_case(chi, self._mask(), noise_sigma=sigma, seed=9)
        b = simulate_case(chi, self._mask(), noise_sigma=sigma, seed=9)
        np.testing.assert_array_equal(a.field.data, b.field.data)
        clean = forward_field(chi, build_dipole(META32))
        noise = a.field.data - clean.data
        assert abs(np.std(noise) - sigma) < 0.1 * sigma

    @pytest.mark.parametrize("part", ["chi", "mask", "magnitude"])
    def test_parts_share_the_field_grid(self, part):
        meta = VolumeMeta((8, 8, 8), (1.0, 1.0, 1.0))
        case = simulate_case(make_random_piecewise(meta, 2, seed=0),
                             Mask(meta, np.ones(meta.dims)))
        other = VolumeMeta((8, 8, 8), (2.0, 1.0, 1.0))
        off = {"chi": RealVolume(other, case.chi.data), "mask": Mask(other, case.mask.data),
               "magnitude": RealVolume(other, case.magnitude.data)}[part]
        with pytest.raises(InputError, match=f"^{part} grid does not match field"):
            replace(case, **{part: off})

    def test_geometry_mismatch_rejected(self):
        chi = make_random_piecewise(META32, 2, seed=0)
        other = VolumeMeta((16, 16, 16), (1, 1, 1))
        m = np.ones(other.dims)
        with pytest.raises(InputError):
            simulate_case(chi, Mask(other, m))

    def test_negative_sigma_rejected(self):
        chi = make_random_piecewise(META32, 2, seed=0)
        with pytest.raises(InputError):
            simulate_case(chi, self._mask(), noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # nan compares false against 0, so it used to pass as "no noise"
        chi = make_random_piecewise(META32, 2, seed=0)
        with pytest.raises(InputError, match="noise_sigma"):
            simulate_case(chi, self._mask(), noise_sigma=sigma)


class TestAnalyticSphere:
    def test_frozen_probe_values(self):
        # sphere centered on voxel (16,16,16) of a 33^3 grid; probes on voxel
        # centers at exactly r = 2R on-axis and equatorial:
        #   axis:    dchi/3 * (1/8) * (3*1 - 1) = dchi/12
        #   equator: dchi/3 * (1/8) * (0 - 1)  = -dchi/24
        meta = VolumeMeta((33, 33, 33), (1.0, 1.0, 1.0), (0, 0, 1))
        dchi, R = 0.12, 4.0
        center = (16.5, 16.5, 16.5)
        f = analytic_sphere_field(meta, center, R, dchi)
        assert f.data[16, 16, 24] == pytest.approx(dchi / 12.0, rel=1e-12)
        assert f.data[16, 16, 8] == pytest.approx(dchi / 12.0, rel=1e-12)
        assert f.data[24, 16, 16] == pytest.approx(-dchi / 24.0, rel=1e-12)
        assert f.data[16, 8, 16] == pytest.approx(-dchi / 24.0, rel=1e-12)

    def test_zero_inside(self):
        meta = VolumeMeta((33, 33, 33), (1.0, 1.0, 1.0), (0, 0, 1))
        f = analytic_sphere_field(meta, (16.5, 16.5, 16.5), 5.0, 0.1)
        assert f.data[16, 16, 16] == 0.0
        assert f.data[16, 16, 20] == 0.0  # r = 4 < R

    def test_matches_forward_operator(self):
        # coarse sanity run; the acceptance suite does 64^3 and 128^3
        meta = VolumeMeta((48, 48, 48), (1.0, 1.0, 1.0), (0, 0, 1))
        R, dchi, c = 6.0, 0.1, (24.0, 24.0, 24.0)
        chi = make_phantom(PhantomSpec(meta, (Sphere(c, R, dchi),)))
        b = forward_field(chi, build_dipole(meta))
        ana = analytic_sphere_field(meta, c, R, dchi)
        xs = (np.arange(48) + 0.5)
        cx, cy, cz = np.meshgrid(xs, xs, xs, indexing="ij")
        r = np.sqrt((cx - c[0]) ** 2 + (cy - c[1]) ** 2 + (cz - c[2]) ** 2)
        ext = r > 1.5 * R
        rms = np.sqrt(np.mean((b.data - ana.data)[ext] ** 2))
        assert rms < 0.05 * np.max(np.abs(ana.data))

    def test_oblique_b0_angle_dependence(self):
        # theta is measured against b0, not the grid z axis
        meta = VolumeMeta((33, 33, 33), (1.0, 1.0, 1.0), (1, 0, 0))
        f = analytic_sphere_field(meta, (16.5, 16.5, 16.5), 4.0, 0.12)
        assert f.data[24, 16, 16] == pytest.approx(0.12 / 12.0, rel=1e-12)
        assert f.data[16, 16, 24] == pytest.approx(-0.12 / 24.0, rel=1e-12)
