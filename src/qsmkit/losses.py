"""Training objectives: cycle consistency, LSGAN, gradient difference, TV,
their weighted combination, and the phasor data-consistency loss used by the
per-volume optimizers.

Reduction convention: every term is a per-voxel mean (then a mean over the
batch), so loss values and the default weights are comparable across patch
sizes. L1 is the default residual norm; "l2" (mean of squares) is selectable.

Generators are applied through a single indirection so tests can substitute
an oracle callable (phase, magnitude) -> Tensor for the real U-Net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dipole import DipoleKernel
from .errors import InputError, require
from .network import Discriminator, forward_discriminator, forward_generator
from .volume import RealVolume

DIP_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Term weights for the generator objective
    gamma*cycle + gan*gan_g + eta*grad + rho*tv; gan=0 trains on the
    non-adversarial terms alone."""
    gamma: float = 10.0
    eta: float = 1.0
    rho: float = 0.1
    gan: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "eta", "rho", "gan"):
            require(name, getattr(self, name), ge=0)


@dataclass(frozen=True)
class LossReport:
    """Float snapshot of one generator step; total is rebuilt from the terms
    so the Eq-style identity holds exactly."""
    cycle: float
    gan_g: float
    gan_d: float
    grad: float
    tv: float
    total: float

    def row(self) -> tuple[float, ...]:
        return (self.cycle, self.gan_g, self.gan_d, self.grad, self.tv, self.total)


def _norm_mean(t: Tensor, norm: str) -> Tensor:
    if norm == "l1":
        return ad.tmean(ad.absolute(t))
    if norm == "l2":
        return ad.tmean(ad.mul(t, t))
    raise InputError(f"norm must be 'l1' or 'l2', got {norm!r}")


def _batch_mean(terms: list[Tensor]) -> Tensor:
    if not terms:
        raise InputError("empty batch")
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total * (1.0 / len(terms))


def _check_patch(t: Tensor, kernel: DipoleKernel, what: str) -> None:
    if t.shape[0] != 1 or t.shape[1:] != kernel.meta.dims:
        raise InputError(
            f"{what} shape {t.shape} does not match kernel grid {kernel.meta.dims}")


def apply_generator(gen, phase: Tensor, magnitude: Tensor | None) -> Tensor:
    """Run ``gen`` on (phase, magnitude); a missing magnitude becomes ones.

    ``gen`` may be a Generator or any callable (phase, magnitude) -> Tensor,
    which is how tests substitute closed-form oracles for the U-Net."""
    if magnitude is None:
        magnitude = Tensor(np.ones(phase.shape, dtype=phase.dtype))
    if callable(gen):
        return gen(phase, magnitude)
    return forward_generator(gen, phase, magnitude)


def _apply_disc(disc, x: Tensor, mask: Tensor | None) -> Tensor:
    if callable(disc):
        return disc(_masked(x, mask))
    return forward_discriminator(disc, x, mask)


def _masks(mask_batch, *batches) -> list:
    """One mask (None when ``mask_batch`` is None) per sample of the longest
    batch, after checking that every batch matches the mask batch length."""
    if mask_batch is None:
        return [None] * max(len(batch) for batch in batches)
    for batch in batches:
        if len(batch) != len(mask_batch):
            raise InputError(
                f"mask batch length {len(mask_batch)} does not match "
                f"patch batch length {len(batch)}")
    return list(mask_batch)


def _grad_terms(t: Tensor, norm: str, mask: Tensor | None) -> Tensor:
    x, y, z = [_norm_mean(_masked(ad.shift_diff(t, axis), mask), norm) for axis in range(3)]
    return ad.add(ad.add(x, y), z)


def _masked(t: Tensor, mask: Tensor | None) -> Tensor:
    return t if mask is None else ad.mul(t, mask)


def _roundtrips(chi_batch, b_batch, gen, kernel, mag_batch):
    """The (target, round trip) pairs of both cycles, (chi, G(H chi)) and
    (b, H G(b)), plus the list of G(b)."""
    if mag_batch is not None and len(mag_batch) != len(b_batch):
        raise InputError("mag_batch length must match b_batch")
    chi_cycle = []
    for chi in chi_batch:
        _check_patch(chi, kernel, "chi patch")
        h_chi = ad.spectral_filter(chi, kernel.spectrum)
        chi_cycle.append((chi, apply_generator(gen, h_chi, None)))
    fakes, b_cycle = [], []
    for b, mag in zip(b_batch, mag_batch or [None] * len(b_batch)):
        _check_patch(b, kernel, "field patch")
        fakes.append(apply_generator(gen, b, mag))
        b_cycle.append((b, ad.spectral_filter(fakes[-1], kernel.spectrum)))
    return (chi_cycle, b_cycle), fakes


def _over_cycles(cycles, term, masks) -> Tensor:
    """Sum over the two cycles of the batch mean of ``term(target - round
    trip, mask)``."""
    return ad.add(*[_batch_mean([term(ad.sub(t, rt), m) for (t, rt), m in zip(pairs, masks)])
                    for pairs in cycles])


def _cycle_term(cycles, norm: str, masks) -> Tensor:
    return _over_cycles(cycles, lambda r, m: _norm_mean(_masked(r, m), norm), masks)


def _grad_diff_term(cycles, norm: str, masks) -> Tensor:
    return _over_cycles(cycles, lambda r, m: _grad_terms(r, norm, m), masks)


def _tv_term(out_batch: list[Tensor], norm: str, masks) -> Tensor:
    return _batch_mean([_grad_terms(t, norm, m) for t, m in zip(out_batch, masks)])


def cycle_loss(chi_batch: list[Tensor], b_batch: list[Tensor], gen,
               kernel: DipoleKernel, mag_batch: list[Tensor] | None = None,
               norm: str = "l1", mask_batch: list[Tensor] | None = None) -> Tensor:
    """chi -> H chi -> G round trip plus b -> G(b) -> H round trip."""
    masks = _masks(mask_batch, chi_batch, b_batch)
    cycles, _ = _roundtrips(chi_batch, b_batch, gen, kernel, mag_batch)
    return _cycle_term(cycles, norm, masks)


def lsgan_losses(disc: Discriminator, real_batch: list[Tensor],
                 fake_batch: list[Tensor],
                 mask_batch: list[Tensor] | None = None) -> tuple[Tensor, Tensor]:
    """Least-squares GAN pair (gan_d, gan_g) with 0/1 targets.

    The fake is detached inside gan_d, so discriminator training never pushes
    gradients into the generator. Masks (when given) multiply the
    discriminator inputs, fulfilling the mask-before-discriminator contract.
    ``disc`` may be a Discriminator or a callable Tensor -> Tensor.
    """
    masks = _masks(mask_batch, real_batch, fake_batch)
    gan_d = _lsgan_d(disc, real_batch, fake_batch, masks)
    d_fake = [_apply_disc(disc, f, m) for f, m in zip(fake_batch, masks)]
    gan_g = _batch_mean([ad.tmean(ad.mul(d - 1.0, d - 1.0)) for d in d_fake])
    return gan_d, gan_g


def _lsgan_d(disc, real_batch: list[Tensor], fake_batch: list[Tensor], masks: list) -> Tensor:
    """gan_d alone, one discriminator pass per real and per detached fake,
    for updates that have no use for gan_g."""
    d_real = [_apply_disc(disc, r, m) for r, m in zip(real_batch, masks)]
    d_fake = [_apply_disc(disc, f.detach(), m) for f, m in zip(fake_batch, masks)]
    return ad.add(
        _batch_mean([ad.tmean(ad.mul(d - 1.0, d - 1.0)) for d in d_real]),
        _batch_mean([ad.tmean(ad.mul(d, d)) for d in d_fake])) * 0.5


def grad_diff_loss(chi_batch: list[Tensor], b_batch: list[Tensor], gen,
                   kernel: DipoleKernel, mag_batch: list[Tensor] | None = None,
                   norm: str = "l1",
                   mask_batch: list[Tensor] | None = None) -> Tensor:
    """Finite-difference mismatch of both cycle branches, to keep edges."""
    masks = _masks(mask_batch, chi_batch, b_batch)
    cycles, _ = _roundtrips(chi_batch, b_batch, gen, kernel, mag_batch)
    return _grad_diff_term(cycles, norm, masks)


def tv_loss(out_batch: list[Tensor], norm: str = "l1",
            mask_batch: list[Tensor] | None = None) -> Tensor:
    """Anisotropic total variation of generator outputs, per-voxel mean."""
    return _tv_term(out_batch, norm, _masks(mask_batch, out_batch))


def total_generator_loss(chi_batch: list[Tensor], b_batch: list[Tensor], gen,
                         disc: Discriminator, kernel: DipoleKernel,
                         weights: LossWeights = LossWeights(),
                         mag_batch: list[Tensor] | None = None,
                         mask_batch: list[Tensor] | None = None,
                         norm: str = "l1",
                         mask_losses: bool = False) -> tuple[LossReport, Tensor, Tensor]:
    """One full objective evaluation sharing every generator application.

    Returns (report, total_g, gan_d): ``total_g`` is the differentiable
    generator objective gamma*cycle + gan*gan_g + eta*grad + rho*tv and ``gan_d``
    the discriminator objective. Masks always gate the discriminator input;
    they enter the cycle/grad/tv terms only when ``mask_losses`` is set.
    """
    masks = _masks(mask_batch, chi_batch, b_batch)
    loss_masks = masks if mask_losses else [None] * len(masks)
    cycles, fakes = _roundtrips(chi_batch, b_batch, gen, kernel, mag_batch)

    cycle = _cycle_term(cycles, norm, loss_masks)
    grad = _grad_diff_term(cycles, norm, loss_masks)
    tv = _tv_term(fakes, norm, loss_masks)
    gan_d, gan_g = lsgan_losses(disc, chi_batch, fakes, mask_batch)

    total = ad.add(ad.add(cycle * weights.gamma, gan_g * weights.gan),
                   ad.add(grad * weights.eta, tv * weights.rho))

    cycle_f, gan_g_f, gan_d_f = cycle.item(), gan_g.item(), gan_d.item()
    grad_f, tv_f = grad.item(), tv.item()
    report = LossReport(
        cycle=cycle_f, gan_g=gan_g_f, gan_d=gan_d_f, grad=grad_f, tv=tv_f,
        total=weights.gamma * cycle_f + weights.gan * gan_g_f
        + weights.eta * grad_f + weights.rho * tv_f)
    return report, total, gan_d


def _as_array(v, dims, what: str) -> np.ndarray:
    arr = v.data if isinstance(v, RealVolume) else np.asarray(v, dtype=np.float64)
    if arr.shape != dims:
        raise InputError(f"{what} shape {arr.shape} does not match grid {dims}")
    return arr


def dip_loss(chi: Tensor, b, weight, kernel: DipoleKernel,
             lam: float = 1e-3) -> Tensor:
    """Phasor data consistency |e^(jH chi) - e^(jb)| with magnitude weighting
    plus lambda * anisotropic TV; the phasor distance is computed as
    sqrt(2 - 2 cos(H chi - b) + eps) which keeps it differentiable at 0."""
    _check_patch(chi, kernel, "chi")
    require("lam", lam, ge=0)
    dims = kernel.meta.dims
    b_arr = _as_array(b, dims, "field")[None].astype(np.float64)
    w_arr = _as_array(weight, dims, "weight")[None].astype(np.float64)
    h_chi = ad.spectral_filter(chi, kernel.spectrum)
    delta = ad.sub(h_chi, Tensor(b_arr, dtype=h_chi.dtype))
    dist = ad.sqrt(2.0 - ad.cos(delta) * 2.0 + DIP_EPS)
    data = ad.tmean(ad.mul(dist, Tensor(w_arr, dtype=h_chi.dtype)))
    return ad.add(data, _grad_terms(chi, "l1", None) * lam)
