"""Standard gradient-check suite: one randomized case family per op and per
loss term.

Each case builds small tensors, a scalar objective, and runs central
differences against the reverse-mode gradients. Op objectives are weighted
sums with fixed random weights so that symmetric mistakes (a flipped kernel,
a transposed axis) cannot cancel out of the readout.

Inputs are sampled away from the kinks of absolute/leaky_relu (also where
instance_norm applies the leaky ReLU) and away from the poles of div/sqrt,
so the finite-difference step never crosses a non-smooth point. For the
same reason the loss cases drive smooth surrogate networks (affine
generator, linear conv discriminator) instead of the leaky-ReLU U-Net; the
real networks are covered by the op-level cases plus double-precision
end-to-end spot checks in the test suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from . import losses as ls
from .autodiff import Tensor, check_gradients
from .dipole import apply_spectrum, build_dipole, k_mirror
from .errors import InputError, require
from .volume import VolumeMeta

F32_TOL = 1e-3
F64_TOL = 1e-6

OPS = (
    "add", "sub", "mul", "div", "neg", "absolute", "sqrt", "cos",
    "tsum", "tmean", "leaky_relu", "concat", "nn_upsample", "shift_diff",
    "spectral_filter", "conv3d", "conv3d_strided", "instance_norm",
    "broadcast_affine", "conv3d_padded_strided",
)

LOSSES = ("cycle", "lsgan_d", "lsgan_g", "grad_diff", "tv", "dip")

# ops fused for the networks; they come after LOSSES because a family's
# position in the suite seeds its draws, so older families keep theirs
FUSED = ("instance_norm_lrelu",)

FAMILIES = OPS + LOSSES + FUSED


def _u(rng: np.random.Generator, shape, lo: float, hi: float, dtype) -> np.ndarray:
    return rng.uniform(lo, hi, size=shape).astype(dtype)


def _signed(rng: np.random.Generator, shape, lo: float, hi: float, dtype) -> np.ndarray:
    mag = rng.uniform(lo, hi, size=shape)
    return (mag * rng.choice([-1.0, 1.0], size=shape)).astype(dtype)


def _wsum(t: Tensor, weights: np.ndarray) -> Tensor:
    return ad.tsum(ad.mul(t, Tensor(weights)))


def _even_spectrum(rng: np.random.Generator, dims) -> np.ndarray:
    s = rng.uniform(-0.7, 0.4, size=dims)
    return 0.5 * (s + k_mirror(s))


# (sampler, low, high) of the second operand; the first is uniform in [-1, 1]
_BINARY = {"add": (_u, -1.0, 1.0), "sub": (_u, -1.0, 1.0), "mul": (_u, -1.0, 1.0),
           "div": (_signed, 0.7, 1.7)}
# (sampler, low, high) of the operand, clear of each op's kink or pole
_UNARY = {"neg": (_u, -1.0, 1.0), "absolute": (_signed, 0.2, 1.2), "sqrt": (_u, 0.5, 2.5),
          "cos": (_u, -3.0, 3.0), "leaky_relu": (_signed, 0.2, 1.2)}
# input, weight and output shapes, stride, pad
_CONV = {
    "conv3d": ((2, 4, 5, 4), (3, 2, 3, 3, 3), (3, 4, 5, 4), 1, 1),
    # stride 2 with an axis whose windows do not tile exactly (remainder 1)
    "conv3d_strided": ((2, 6, 5, 4), (2, 2, 3, 3, 3), (2, 2, 2, 1), 2, 0),
    # the discriminator's k4 s2 p1 layer; the y axis leaves a remainder,
    # so the scattered input gradient must be cropped correctly
    "conv3d_padded_strided": ((2, 6, 5, 4), (2, 2, 4, 4, 4), (2, 3, 2, 2), 2, 1),
}


def build_case(op: str, rng: np.random.Generator,
               dtype) -> tuple[Callable[[], Tensor], list[Tensor]]:
    """Return (scalar objective, leaf tensors to check) for one random case."""
    shape = (2, 3, 4, 3)
    wgt = _u(rng, shape, -1.0, 1.0, dtype)

    if op in _BINARY:
        sampler, lo, hi = _BINARY[op]
        a = Tensor(_u(rng, shape, -1.0, 1.0, dtype), requires_grad=True)
        b = Tensor(sampler(rng, shape, lo, hi, dtype), requires_grad=True)
        return lambda: _wsum(getattr(ad, op)(a, b), wgt), [a, b]

    if op in _UNARY:
        sampler, lo, hi = _UNARY[op]
        a = Tensor(sampler(rng, shape, lo, hi, dtype), requires_grad=True)
        return lambda: _wsum(getattr(ad, op)(a), wgt), [a]

    if op == "tsum":
        a = Tensor(_u(rng, shape, -1.0, 1.0, dtype), requires_grad=True)
        w2 = _u(rng, (shape[0], shape[2]), -1.0, 1.0, dtype)
        return lambda: _wsum(ad.tsum(a, axis=(1, 3)), w2), [a]

    if op == "tmean":
        a = Tensor(_u(rng, shape, -1.0, 1.0, dtype), requires_grad=True)
        w2 = _u(rng, (shape[0], shape[1], 1, shape[3]), -1.0, 1.0, dtype)
        return lambda: _wsum(ad.tmean(a, axis=2, keepdims=True), w2), [a]

    if op == "concat":
        spatial = shape[1:]
        parts = [Tensor(_u(rng, (c,) + spatial, -1.0, 1.0, dtype), requires_grad=True)
                 for c in (1, 2, 3)]
        w6 = _u(rng, (6,) + spatial, -1.0, 1.0, dtype)
        return lambda: _wsum(ad.concat(parts), w6), parts

    if op == "nn_upsample":
        a = Tensor(_u(rng, (2, 3, 2, 2), -1.0, 1.0, dtype), requires_grad=True)
        w2 = _u(rng, (2, 6, 4, 4), -1.0, 1.0, dtype)
        return lambda: _wsum(ad.nn_upsample(a, 2), w2), [a]

    if op == "shift_diff":
        a = Tensor(_u(rng, shape, -1.0, 1.0, dtype), requires_grad=True)
        ws = [_u(rng, shape, -1.0, 1.0, dtype) for _ in range(3)]

        def f():
            total = _wsum(ad.shift_diff(a, 0), ws[0])
            total = ad.add(total, _wsum(ad.shift_diff(a, 1), ws[1]))
            return ad.add(total, _wsum(ad.shift_diff(a, 2), ws[2]))

        return f, [a]

    if op == "spectral_filter":
        dims = (4, 6, 4)
        spec = _even_spectrum(rng, dims)
        a = Tensor(_u(rng, (2,) + dims, -1.0, 1.0, dtype), requires_grad=True)
        w2 = _u(rng, (2,) + dims, -1.0, 1.0, dtype)
        return lambda: _wsum(ad.spectral_filter(a, spec), w2), [a]

    if op in _CONV:
        x_shape, w_shape, out_shape, stride, pad = _CONV[op]
        x = Tensor(_u(rng, x_shape, -1.0, 1.0, dtype), requires_grad=True)
        w = Tensor(_u(rng, w_shape, -0.5, 0.5, dtype), requires_grad=True)
        b = Tensor(_u(rng, w_shape[:1], -0.5, 0.5, dtype), requires_grad=True)
        wo = _u(rng, out_shape, -1.0, 1.0, dtype)
        return lambda: _wsum(ad.conv3d(x, w, b, stride=stride, pad=pad), wo), [x, w, b]

    if op == "instance_norm":
        x = Tensor(_u(rng, (3, 4, 4, 4), -1.0, 1.0, dtype), requires_grad=True)
        gamma = Tensor(_u(rng, (3, 1, 1, 1), 0.5, 1.5, dtype), requires_grad=True)
        beta = Tensor(_u(rng, (3, 1, 1, 1), -0.5, 0.5, dtype), requires_grad=True)
        wo = _u(rng, (3, 4, 4, 4), -1.0, 1.0, dtype)
        return lambda: _wsum(ad.instance_norm(x, gamma, beta), wo), [x, gamma, beta]

    if op == "instance_norm_lrelu":
        # each channel holds +m and -m for 32 magnitudes m in [0.4, 1.2], so
        # |x_hat| >= 1/3 and every pre-activation stays >= 0.06 from the kink
        m = rng.uniform(0.4, 1.2, size=(3, 32))
        x = Tensor(rng.permuted(np.concatenate([m, -m], axis=1), axis=1)
                   .reshape(3, 4, 4, 4).astype(dtype), requires_grad=True)
        gamma = Tensor(_u(rng, (3, 1, 1, 1), 0.5, 1.5, dtype), requires_grad=True)
        beta = Tensor(_u(rng, (3, 1, 1, 1), -0.1, 0.1, dtype), requires_grad=True)
        wo = _u(rng, (3, 4, 4, 4), -1.0, 1.0, dtype)
        return (lambda: _wsum(ad.instance_norm(x, gamma, beta, slope=0.2), wo),
                [x, gamma, beta])

    if op == "broadcast_affine":
        x = Tensor(_u(rng, shape, -1.0, 1.0, dtype), requires_grad=True)
        gamma = Tensor(_u(rng, (shape[0], 1, 1, 1), 0.5, 1.5, dtype), requires_grad=True)
        beta = Tensor(_u(rng, (shape[0], 1, 1, 1), -0.5, 0.5, dtype), requires_grad=True)
        return lambda: _wsum(ad.add(ad.mul(x, gamma), beta), wgt), [x, gamma, beta]

    if op in LOSSES:
        return _loss_case(op, rng, dtype)

    raise InputError(f"unknown gradcheck case {op!r}")


def _affine_gen(rng: np.random.Generator, dtype, zero: bool):
    """Smooth surrogate generator w1*phase + w2*magnitude.

    Zero-initialized for the L1 cases: the loss residual then equals the raw
    input, which the ramp sampler keeps away from the |.| kink, and the loss
    is locally linear in (w1, w2) so central differences stay exact.
    """
    if zero:
        w1 = Tensor(np.zeros((), dtype=dtype), requires_grad=True)
        w2 = Tensor(np.zeros((), dtype=dtype), requires_grad=True)
    else:
        w1 = Tensor(_signed(rng, (), 0.5, 1.5, dtype), requires_grad=True)
        w2 = Tensor(_signed(rng, (), 0.5, 1.5, dtype), requires_grad=True)

    def gen(phase, magnitude):
        return ad.add(ad.mul(phase, w1), ad.mul(magnitude, w2))

    return gen, (w1, w2)


def _linear_disc(rng: np.random.Generator, dtype):
    """Linear conv discriminator: the LSGAN objectives become quadratics, for
    which central differences are exact, so the check isolates the loss
    plumbing (batching, detach, mean semantics) from activation curvature."""
    wd = Tensor(_u(rng, (1, 1, 3, 3, 3), -0.5, 0.5, dtype), requires_grad=True)
    bd = Tensor(_u(rng, (1,), -0.5, 0.5, dtype), requires_grad=True)

    def disc(x):
        return ad.conv3d(x, wd, bd, stride=2, pad=1)

    return disc, (wd, bd)


def _ramp(rng: np.random.Generator, dims, offset: float, dtype) -> np.ndarray:
    """Linear ramp plus small noise: values near the offset and every forward
    difference at least ~0.2 in magnitude, clear of the L1 kink."""
    slopes = _signed(rng, (3,), 0.3, 0.5, np.float64)
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in dims],
                        indexing="ij")
    base = offset + sum(s * g for s, g in zip(slopes, grids))
    base += rng.uniform(-0.05, 0.05, size=dims)
    return base[None].astype(dtype)


def _loss_case(op: str, rng: np.random.Generator,
               dtype) -> tuple[Callable[[], Tensor], list[Tensor]]:
    # small mixed dims: mean reduction over fewer voxels keeps per-coordinate
    # gradients large relative to float32 evaluation noise
    meta = VolumeMeta((2, 3, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
    kernel = build_dipole(meta)
    dims = (1,) + meta.dims

    if op in ("cycle", "grad_diff"):
        chi = Tensor(_ramp(rng, meta.dims, 4.0, dtype), requires_grad=True)
        b = Tensor(_ramp(rng, meta.dims, -4.0, dtype), requires_grad=True)
        gen, gen_params = _affine_gen(rng, dtype, zero=True)
        loss = ls.cycle_loss if op == "cycle" else ls.grad_diff_loss
        return lambda: loss([chi], [b], gen, kernel), [chi, b, *gen_params]

    if op == "tv":
        chi = Tensor(_ramp(rng, meta.dims, 0.0, dtype), requires_grad=True)
        b = Tensor(_ramp(rng, meta.dims, 1.0, dtype), requires_grad=True)
        return lambda: ls.tv_loss([chi, b]), [chi, b]

    if op == "lsgan_d":
        # the fake is detached inside gan_d, so it is not a checked leaf
        chi = Tensor(_u(rng, dims, -1.0, 1.0, dtype), requires_grad=True)
        gen, _ = _affine_gen(rng, dtype, zero=False)
        disc, disc_params = _linear_disc(rng, dtype)
        fake = gen(Tensor(_u(rng, dims, -1.0, 1.0, dtype)),
                   Tensor(np.ones(dims, dtype=dtype)))
        f = lambda: ls.lsgan_losses(disc, [chi], [fake])[0]
        return f, [chi, *disc_params]

    if op == "lsgan_g":
        b = Tensor(_u(rng, dims, -1.0, 1.0, dtype), requires_grad=True)
        real = Tensor(_u(rng, dims, -1.0, 1.0, dtype))
        gen, gen_params = _affine_gen(rng, dtype, zero=False)
        disc, disc_params = _linear_disc(rng, dtype)
        f = lambda: ls.lsgan_losses(
            disc, [real], [gen(b, Tensor(np.ones(dims, dtype=dtype)))])[1]
        return f, [b, *gen_params, *disc_params]

    if op == "dip":
        # keep the phasor difference away from its smoothed kink at 0
        chi = Tensor(_ramp(rng, meta.dims, 2.0, dtype), requires_grad=True)
        offsets = _signed(rng, meta.dims, 0.3, 1.0, np.float64)
        h_chi = apply_spectrum(chi.data.astype(np.float64)[0], kernel.spectrum)
        b_arr = h_chi - offsets
        w_arr = _u(rng, meta.dims, 0.5, 1.5, np.float64)
        f = lambda: ls.dip_loss(chi, b_arr, w_arr, kernel, lam=1e-3)
        return f, [chi]

    raise InputError(f"unknown loss case {op!r}")


def run_suite(dtype=np.float32, n_cases: int = 20, samples: int = 8,
              seed: int = 0) -> dict[str, float]:
    """Worst relative gradient error per family of ``FAMILIES``, in its
    order, over ``n_cases`` random draws.

    A family's draws are seeded by its index in ``FAMILIES``; ``seed`` shifts
    every case's data and probe coordinates, giving an independent rerun of
    the whole suite."""
    require("n_cases (cases per family)", n_cases, ge=1, integer=True)
    require("seed", seed, ge=0, integer=True)
    results: dict[str, float] = {}
    for idx, op in enumerate(FAMILIES):
        worst = 0.0
        for case in range(n_cases):
            rng = np.random.default_rng([seed, idx, case])
            f, tensors = build_case(op, rng, dtype)
            err = check_gradients(
                f, tensors, rng=np.random.default_rng([seed, idx, case, 1]),
                samples=samples)
            worst = max(worst, err)
        results[op] = worst
    return results
