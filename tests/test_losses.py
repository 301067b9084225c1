"""Value-level tests for the training objectives: closed-form oracles for
each term, the exact-inverse round trip, detach and masking contracts, and
the weighted-total bookkeeping."""

import numpy as np
import pytest

from qsmkit import autodiff as ad
from qsmkit.autodiff import Tensor
from qsmkit.dipole import DipoleKernel, apply_spectrum, build_dipole
from qsmkit.errors import InputError
from qsmkit.losses import (
    LossReport,
    LossWeights,
    cycle_loss,
    dip_loss,
    grad_diff_loss,
    lsgan_losses,
    total_generator_loss,
    tv_loss,
)
from qsmkit.network import build_discriminator, build_generator
from qsmkit.volume import RealVolume, VolumeMeta

DIMS = (4, 4, 4)
META = VolumeMeta(DIMS, (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def kernel():
    return build_dipole(META)


def tpatch(arr):
    return Tensor(np.asarray(arr, dtype=np.float64)[None])


def zero_gen(phase, magnitude):
    return ad.mul(phase, Tensor(np.zeros((), dtype=phase.dtype.type)))


def grad_mean_oracle(x):
    """Sum over axes of mean|forward difference|, zero-padded to full shape."""
    n = x.size
    return sum(np.abs(np.diff(x, axis=a)).sum() / n for a in range(x.ndim))


class TestCycle:
    def test_zero_generator_reduces_to_means(self, kernel):
        rng = np.random.default_rng(11)
        chi = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        got = cycle_loss([tpatch(chi)], [tpatch(b)], zero_gen, kernel).item()
        want = np.abs(chi).mean() + np.abs(b).mean()
        assert got == pytest.approx(want, abs=1e-12)

    def test_l2_norm_switch(self, kernel):
        rng = np.random.default_rng(12)
        chi = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        got = cycle_loss([tpatch(chi)], [tpatch(b)], zero_gen, kernel,
                         norm="l2").item()
        assert got == pytest.approx((chi ** 2).mean() + (b ** 2).mean(),
                                    abs=1e-12)

    def test_batch_mean_over_samples(self, kernel):
        rng = np.random.default_rng(13)
        chis = [rng.normal(size=DIMS) for _ in range(3)]
        bs = [rng.normal(size=DIMS) for _ in range(3)]
        got = cycle_loss([tpatch(c) for c in chis], [tpatch(b) for b in bs],
                         zero_gen, kernel).item()
        want = (np.mean([np.abs(c).mean() for c in chis])
                + np.mean([np.abs(b).mean() for b in bs]))
        assert got == pytest.approx(want, abs=1e-12)

    def test_exact_inverse_gives_zero(self, kernel):
        # restrict to the well-conditioned band of the dipole spectrum; there
        # the forward filter has an exact inverse and both round trips close
        rng = np.random.default_rng(14)
        support = np.abs(kernel.spectrum) > 0.15
        assert support.any() and not support.all()
        inv_spec = np.where(support, 1.0 / np.where(support, kernel.spectrum, 1.0), 0.0)
        inv = DipoleKernel(META, inv_spec)

        def oracle_gen(phase, magnitude):
            return ad.spectral_filter(phase, inv)

        def project(x):
            return np.real(np.fft.ifftn(np.fft.fftn(x) * support))

        chi_p = project(rng.normal(size=DIMS))
        b = apply_spectrum(project(rng.normal(size=DIMS)), kernel.spectrum)
        got = cycle_loss([tpatch(chi_p)], [tpatch(b)], oracle_gen, kernel).item()
        assert got < 1e-10

    def test_mask_gates_residual(self, kernel):
        rng = np.random.default_rng(15)
        chi = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        m = (rng.uniform(size=DIMS) > 0.5).astype(np.float64)
        got = cycle_loss([tpatch(chi)], [tpatch(b)], zero_gen, kernel,
                         mask_batch=[tpatch(m)]).item()
        want = (m * np.abs(chi)).mean() + (m * np.abs(b)).mean()
        assert got == pytest.approx(want, abs=1e-12)

    def test_magnitude_reaches_field_branch_only(self, kernel):
        # generator that echoes its magnitude input: the chi branch gets the
        # implicit all-ones magnitude, the field branch the supplied one
        rng = np.random.default_rng(16)
        chi = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        mag = np.zeros(DIMS)

        def echo_gen(phase, magnitude):
            return magnitude

        got = cycle_loss([tpatch(chi)], [tpatch(b)], echo_gen, kernel,
                         mag_batch=[tpatch(mag)]).item()
        want = np.abs(chi - 1.0).mean() + np.abs(b).mean()
        assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative(self, kernel):
        rng = np.random.default_rng(17)
        chi, b = rng.normal(size=DIMS), rng.normal(size=DIMS)
        assert cycle_loss([tpatch(chi)], [tpatch(b)], zero_gen, kernel).item() >= 0


class TestLSGAN:
    def test_perfect_discriminator_zero_d_loss(self):
        real = [tpatch(np.ones(DIMS))]
        fake = [tpatch(np.zeros(DIMS))]
        gan_d, gan_g = lsgan_losses(lambda x: x, real, fake)
        assert gan_d.item() == pytest.approx(0.0, abs=1e-15)
        assert gan_g.item() == pytest.approx(1.0, abs=1e-15)

    def test_half_factor(self):
        # D stuck at zero: real term (0-1)^2 = 1, fake term 0, halved
        real = [tpatch(np.ones(DIMS))]
        fake = [tpatch(np.ones(DIMS))]
        gan_d, _ = lsgan_losses(lambda x: x * 0.0, real, fake)
        assert gan_d.item() == pytest.approx(0.5, abs=1e-15)

    def test_fake_detached_in_d_loss(self):
        leaf = Tensor(np.ones((1,) + DIMS), requires_grad=True)
        w = Tensor(np.ones(()), requires_grad=True)
        fake = leaf * 2.0
        gan_d, gan_g = lsgan_losses(lambda x: ad.mul(x, w),
                                    [tpatch(np.ones(DIMS))], [fake])
        ad.backward(gan_d)
        assert w.grad is not None
        assert leaf.grad is None
        ad.zero_grads([w, leaf])
        ad.backward(gan_g)
        assert leaf.grad is not None

    def test_mask_multiplies_disc_input(self):
        rng = np.random.default_rng(21)
        m = (rng.uniform(size=DIMS) > 0.5).astype(np.float64)
        real = [tpatch(np.ones(DIMS))]
        fake = [tpatch(np.ones(DIMS))]
        gan_d, _ = lsgan_losses(lambda x: x, real, fake,
                                mask_batch=[tpatch(m)])
        # binary mask: (m-1)^2 = 1-m on the real side, m^2 = m on the fake
        want = 0.5 * ((1.0 - m).mean() + m.mean())
        assert gan_d.item() == pytest.approx(want, abs=1e-12)

    def test_batch_mean(self):
        reals = [tpatch(np.full(DIMS, v)) for v in (1.0, 0.0)]
        fakes = [tpatch(np.zeros(DIMS)) for _ in range(2)]
        gan_d, _ = lsgan_losses(lambda x: x, reals, fakes)
        assert gan_d.item() == pytest.approx(0.5 * (0.0 + 1.0) / 2, abs=1e-15)


class TestGradDiffTV:
    def test_grad_diff_matches_loop_oracle(self, kernel):
        rng = np.random.default_rng(31)
        chi = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        got = grad_diff_loss([tpatch(chi)], [tpatch(b)], zero_gen, kernel).item()
        want = grad_mean_oracle(chi) + grad_mean_oracle(b)
        assert got == pytest.approx(want, abs=1e-12)

    def test_tv_constant_is_zero(self):
        assert tv_loss([tpatch(np.full(DIMS, 3.7))]).item() == 0.0

    def test_tv_step_edge(self):
        # one step of height h along axis 0: a single 4x4 plane of
        # differences, averaged over all 64 voxels
        x = np.zeros(DIMS)
        x[2:] = 0.25
        assert tv_loss([tpatch(x)]).item() == pytest.approx(
            0.25 * 16 / 64, abs=1e-15)

    def test_tv_matches_loop_oracle(self):
        rng = np.random.default_rng(32)
        x, y = rng.normal(size=DIMS), rng.normal(size=DIMS)
        got = tv_loss([tpatch(x), tpatch(y)]).item()
        want = (grad_mean_oracle(x) + grad_mean_oracle(y)) / 2
        assert got == pytest.approx(want, abs=1e-12)

    def test_tv_l2(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=DIMS)
        got = tv_loss([tpatch(x)], norm="l2").item()
        n = x.size
        want = sum((np.diff(x, axis=a) ** 2).sum() / n for a in range(3))
        assert got == pytest.approx(want, abs=1e-12)


def affine_gen(w1, w2):
    def gen(phase, magnitude):
        return ad.add(ad.mul(phase, w1), ad.mul(magnitude, w2))
    return gen


class TestTotal:
    def setup_method(self):
        rng = np.random.default_rng(41)
        self.chi = [tpatch(rng.normal(size=DIMS))]
        self.b = [tpatch(rng.normal(size=DIMS))]
        self.mask = [tpatch((rng.uniform(size=DIMS) > 0.3).astype(np.float64))]
        self.w1 = Tensor(np.full((), 0.8), requires_grad=True)
        self.w2 = Tensor(np.full((), -0.3), requires_grad=True)
        self.gen = affine_gen(self.w1, self.w2)
        self.disc = build_discriminator(n_layers=1, base_channels=4, seed=3)

    def total(self, **kw):
        return total_generator_loss(self.chi, self.b, self.gen, self.disc,
                                    build_dipole(META), **kw)

    def test_report_identity(self):
        report, total, gan_d = self.total()
        w = LossWeights()
        assert report.total == w.gamma * report.cycle + report.gan_g \
            + w.eta * report.grad + w.rho * report.tv
        assert total.item() == pytest.approx(report.total, rel=1e-12)
        assert gan_d.item() == pytest.approx(report.gan_d, rel=1e-12)

    def test_zero_weights_leave_gan_g(self):
        report, total, _ = self.total(weights=LossWeights(0.0, 0.0, 0.0))
        assert total.item() == report.gan_g

    def test_doubling_gamma_adds_gamma_cycle(self):
        r1, t1, _ = self.total(weights=LossWeights(10.0, 1.0, 0.1))
        r2, t2, _ = self.total(weights=LossWeights(20.0, 1.0, 0.1))
        assert r2.cycle == r1.cycle
        assert t2.item() - t1.item() == pytest.approx(10.0 * r1.cycle, rel=1e-9)

    def test_terms_match_standalone_losses(self):
        kernel = build_dipole(META)
        report, _, _ = self.total(mask_batch=self.mask, mask_losses=True)
        ones = Tensor(np.ones((1,) + DIMS))
        fakes = [self.gen(b, ones) for b in self.b]
        assert report.cycle == pytest.approx(
            cycle_loss(self.chi, self.b, self.gen, kernel,
                       mask_batch=self.mask).item(), abs=1e-12)
        assert report.grad == pytest.approx(
            grad_diff_loss(self.chi, self.b, self.gen, kernel,
                           mask_batch=self.mask).item(), abs=1e-12)
        assert report.tv == pytest.approx(
            tv_loss(fakes, mask_batch=self.mask).item(), abs=1e-12)
        gan_d, gan_g = lsgan_losses(self.disc, self.chi, fakes,
                                    mask_batch=self.mask)
        assert report.gan_d == pytest.approx(gan_d.item(), abs=1e-12)
        assert report.gan_g == pytest.approx(gan_g.item(), abs=1e-12)

    def test_mask_losses_flag_gates_loss_masking(self):
        kernel = build_dipole(META)
        report, _, _ = self.total(mask_batch=self.mask, mask_losses=False)
        # discriminator sees the mask either way, the cycle term does not
        assert report.cycle == pytest.approx(
            cycle_loss(self.chi, self.b, self.gen, kernel).item(), abs=1e-12)
        masked, _, _ = self.total(mask_batch=self.mask, mask_losses=True)
        assert masked.cycle < report.cycle

    def test_backward_routes_gradients(self):
        _, total, gan_d = self.total()
        ad.backward(total)
        assert self.w1.grad is not None and self.w2.grad is not None
        d_param = self.disc.params["layer0.w"]
        assert d_param.grad is not None  # via gan_g through D(fake)
        ad.zero_grads([self.w1, self.w2, *self.disc.params.values()])
        _, _, gan_d = self.total()
        ad.backward(gan_d)
        assert d_param.grad is not None
        assert self.w1.grad is None and self.w2.grad is None

    def test_real_generator_runs(self):
        gen = build_generator(depth=2, base_channels=4, seed=5)
        report, total, gan_d = total_generator_loss(
            self.chi, self.b, gen, self.disc, build_dipole(META))
        assert np.isfinite(report.row()).all()
        ad.backward(total)
        assert gen.params["enc0.c1.w"].grad is not None

    def test_report_row_order(self):
        r = LossReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert r.row() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_weight_validation(self):
        with pytest.raises(InputError, match="gamma"):
            LossWeights(gamma=-1.0)
        with pytest.raises(InputError, match="eta"):
            LossWeights(eta=np.inf)


class TestDip:
    def test_consistent_field_is_near_zero(self, kernel):
        rng = np.random.default_rng(51)
        chi = rng.normal(size=DIMS)
        b = apply_spectrum(chi, kernel.spectrum)
        w = rng.uniform(0.5, 1.5, size=DIMS)
        got = dip_loss(tpatch(chi), b, w, kernel, lam=0.0).item()
        assert got < 1e-5

    def test_antipodal_voxel_contributes_two(self, kernel):
        rng = np.random.default_rng(52)
        chi = rng.normal(size=DIMS)
        b = apply_spectrum(chi, kernel.spectrum)
        b[1, 2, 3] += np.pi  # phasor distance |e^j0 - e^jpi| = 2
        got = dip_loss(tpatch(chi), b, np.ones(DIMS), kernel, lam=0.0).item()
        n = np.prod(DIMS)
        # consistent voxels sit at the sqrt(eps) floor of the smoothed phasor
        want = (2.0 + (n - 1) * 1e-6) / n
        assert got == pytest.approx(want, abs=1e-9)

    def test_wraparound_invariance(self, kernel):
        # 2*pi offsets are invisible to the phasor residual
        rng = np.random.default_rng(53)
        chi = rng.normal(size=DIMS)
        b = apply_spectrum(chi, kernel.spectrum) + rng.normal(size=DIMS)
        w = rng.uniform(0.5, 1.5, size=DIMS)
        base = dip_loss(tpatch(chi), b, w, kernel, lam=0.0).item()
        wrapped = dip_loss(tpatch(chi), b + 2 * np.pi, w, kernel, lam=0.0).item()
        assert wrapped == pytest.approx(base, abs=1e-9)

    def test_lambda_scales_tv_term(self, kernel):
        rng = np.random.default_rng(54)
        chi = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        w = np.ones(DIMS)
        l0 = dip_loss(tpatch(chi), b, w, kernel, lam=0.0).item()
        l2 = dip_loss(tpatch(chi), b, w, kernel, lam=2.0).item()
        assert l2 - l0 == pytest.approx(2.0 * grad_mean_oracle(chi), rel=1e-9)

    def test_accepts_real_volumes(self, kernel):
        rng = np.random.default_rng(55)
        chi = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        w = rng.uniform(0.5, 1.5, size=DIMS)
        via_arrays = dip_loss(tpatch(chi), b, w, kernel).item()
        via_volumes = dip_loss(tpatch(chi), RealVolume(META, b),
                               RealVolume(META, w), kernel).item()
        assert via_volumes == via_arrays

    def test_gradient_reaches_chi(self, kernel):
        rng = np.random.default_rng(56)
        chi = Tensor(rng.normal(size=(1,) + DIMS), requires_grad=True)
        loss = dip_loss(chi, rng.normal(size=DIMS), np.ones(DIMS), kernel)
        ad.backward(loss)
        assert chi.grad is not None and np.isfinite(chi.grad).all()

    def test_validation(self, kernel):
        chi = tpatch(np.zeros(DIMS))
        b = np.zeros(DIMS)
        with pytest.raises(InputError, match="lam"):
            dip_loss(chi, b, np.ones(DIMS), kernel, lam=-1.0)
        with pytest.raises(InputError, match="lam"):
            dip_loss(chi, b, np.ones(DIMS), kernel, lam=np.nan)
        with pytest.raises(InputError, match="field"):
            dip_loss(chi, np.zeros((3, 3, 3)), np.ones(DIMS), kernel)
        with pytest.raises(InputError, match="weight"):
            dip_loss(chi, b, np.ones((5, 4, 4)), kernel)
        with pytest.raises(InputError, match="chi"):
            dip_loss(tpatch(np.zeros((3, 3, 3))), b, np.ones(DIMS), kernel)


class TestValidation:
    def test_empty_batch(self, kernel):
        with pytest.raises(InputError, match="empty"):
            cycle_loss([], [], zero_gen, kernel)

    def test_bad_norm(self, kernel):
        chi = [tpatch(np.zeros(DIMS))]
        with pytest.raises(InputError, match="norm"):
            cycle_loss(chi, chi, zero_gen, kernel, norm="huber")

    def test_patch_shape_mismatch(self, kernel):
        bad = [Tensor(np.zeros((2,) + DIMS))]
        good = [tpatch(np.zeros(DIMS))]
        with pytest.raises(InputError, match="shape"):
            cycle_loss(bad, good, zero_gen, kernel)

    def test_mask_length_mismatch(self, kernel):
        chi = [tpatch(np.zeros(DIMS))]
        masks = [tpatch(np.ones(DIMS)), tpatch(np.ones(DIMS))]
        with pytest.raises(InputError, match="mask batch length"):
            cycle_loss(chi, chi, zero_gen, kernel, mask_batch=masks)
        with pytest.raises(InputError, match="mask batch length"):
            tv_loss(chi, mask_batch=masks)
        with pytest.raises(InputError, match="mask batch length"):
            lsgan_losses(lambda x: x, chi, chi, mask_batch=masks)

    def test_mag_length_mismatch(self, kernel):
        chi = [tpatch(np.zeros(DIMS))]
        mags = [tpatch(np.ones(DIMS)), tpatch(np.ones(DIMS))]
        with pytest.raises(InputError, match="mag_batch"):
            cycle_loss(chi, chi, zero_gen, kernel, mag_batch=mags)
