"""Patch sampling, augmentation, the unpaired adversarial training loop,
per-volume deep-prior optimization, field-only phasor training, and stitched
full-volume inference.

The three optimisation loops (``train_cycleqsm``, ``train_uqsm``,
``optimize_dip``) share one run driver, ``_run``: each supplies a
``step(update)`` closure that returns one log row and calls ``update(loss,
name)`` per model update. The driver checks the Adam settings, owns each
model's Adam state, the epoch and step loop, per-epoch checkpoints, the halt
path and the CSV log; its ``update`` is the one backward/Adam/zero-grad
sequence, as ``_draw_batch`` is the one place a drawn batch becomes tensors.

Determinism contract: every routine that draws randomness takes a seed or an
explicit rng, consumes it in a documented order, and mutates parameters only
from the step body, so identical (dataset, config, seed) reproduce identical
parameter trajectories, logs, and outputs bit for bit on one thread.
"""

from __future__ import annotations

import csv
import io
import itertools
import locale
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dipole import DipoleKernel, build_dipole
from .errors import InputError, NumericalError, require
from .losses import (
    LossReport,
    LossWeights,
    _batch_mean,
    _lsgan_d,
    apply_generator,
    dip_loss,
    total_generator_loss,
)
from .network import (
    AdamState,
    Discriminator,
    Generator,
    adam_step,
    build_generator,
    check_adam,
    forward_generator,
    save_checkpoint,
)
from .phantom import SimulatedCase
from .volume import Mask, RealVolume, VolumeMeta, require_same_grid, write_file

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """What both patch trainers read; each objective's own settings are
    parameters of its trainer (``train_cycleqsm``, ``train_uqsm``).

    ``patches_per_epoch`` counts sampled patch groups; generator steps per
    epoch are patches_per_epoch // batch_size (floored, at least one).
    ``infer_stride`` is read and checked only by ``infer_stitched``.
    """

    epochs: int = 50
    patches_per_epoch: int = 256
    patch_size: int = 16
    infer_stride: int | None = None
    lr: float = 1e-5
    beta1: float = 0.5
    beta2: float = 0.999
    seed: int = 0
    batch_size: int = 1

    def __post_init__(self):
        require("epochs and patches_per_epoch", self.epochs, self.patches_per_epoch,
                ge=1, integer=True)
        require("patch_size", self.patch_size, ge=2, integer=True)
        check_adam(self.lr, self.beta1, self.beta2)
        require("batch_size", self.batch_size, ge=1, integer=True)
        require("seed", self.seed, ge=0, integer=True)


@dataclass(frozen=True)
class UnpairedDataset:
    """Two unpaired sample sets: simulated field cases and chi volumes.

    No pairing between the lists is assumed or used; each draw picks an
    independent uniform index into each list. All volumes must share voxel
    size and field direction so a single patch-grid kernel serves every draw.
    """

    field_cases: tuple[SimulatedCase, ...]
    chi_volumes: tuple[RealVolume, ...]

    def __post_init__(self):
        object.__setattr__(self, "field_cases", tuple(self.field_cases))
        object.__setattr__(self, "chi_volumes", tuple(self.chi_volumes))
        if not self.field_cases or not self.chi_volumes:
            raise InputError(
                "dataset needs at least one field case and one chi volume")
        ref = self.field_cases[0].field.meta
        for case in self.field_cases:
            self._check_meta(case.field.meta, ref)
        for vol in self.chi_volumes:
            self._check_meta(vol.meta, ref)

    @staticmethod
    def _check_meta(meta: VolumeMeta, ref: VolumeMeta) -> None:
        if meta.voxel_size != ref.voxel_size or meta.b0_dir != ref.b0_dir:
            raise InputError(
                "all dataset volumes must share voxel size and b0 direction")

    def patch_meta(self, patch_size: int) -> VolumeMeta:
        ref = self.field_cases[0].field.meta
        return VolumeMeta((patch_size,) * 3, ref.voxel_size, ref.b0_dir)


def _origin(rng: np.random.Generator, dims, p: int) -> tuple[int, ...]:
    return tuple(int(rng.integers(n - p + 1)) for n in dims)


def _slices(origin, p: int):
    return tuple(slice(o, o + p) for o in origin)


def sample_patches(ds: UnpairedDataset, cfg: TrainConfig,
                   rng: np.random.Generator, count: int = 1):
    """Draw ``count`` unpaired patch groups of side cfg.patch_size.

    Per group, in fixed rng order: field case index, field origin (three
    uniform ints over valid starts), chi volume index, chi origin. Magnitude
    and mask patches ride with the field draw; the chi patch comes from an
    independently chosen volume and position. Returns (field_patches,
    chi_patches, mask_patches) with field_patches a list of
    (phase, magnitude) array pairs.
    """
    require("count", count, ge=1, integer=True)
    p = cfg.patch_size
    for vol in [case.field for case in ds.field_cases] + list(ds.chi_volumes):
        if min(vol.meta.dims) < p:
            raise InputError(
                f"volume dims {vol.meta.dims} smaller than patch size {p}")
    field_patches, chi_patches, mask_patches = [], [], []
    for _ in range(count):
        case = ds.field_cases[int(rng.integers(len(ds.field_cases)))]
        f_sl = _slices(_origin(rng, case.field.meta.dims, p), p)
        vol = ds.chi_volumes[int(rng.integers(len(ds.chi_volumes)))]
        c_sl = _slices(_origin(rng, vol.meta.dims, p), p)
        field_patches.append((case.field.data[f_sl].copy(),
                              case.magnitude.data[f_sl].copy()))
        mask_patches.append(case.mask.data[f_sl].copy())
        chi_patches.append(vol.data[c_sl].copy())
    return field_patches, chi_patches, mask_patches


def augment(patch_group, rng: np.random.Generator, meta: VolumeMeta) -> list[np.ndarray]:
    """Random flips plus a k*90 degree rotation about the field axis, limited
    to those after which the field patch is still the dipole field of the chi
    patch on the patch grid ``meta``.

    Every array in the group has shape ``meta.dims`` and receives the
    identical transform. The draw order is fixed (three flip coins, then k)
    whatever the geometry, so the rng stream does not depend on it. A flip
    keeps (k.b0)^2 only if every axis b0 has a component on flips with it, so
    those axes all take the coin of the first of them. A rotation needs b0
    along a grid axis; an oblique b0 skips it with a logged notice. A quarter
    turn swaps the two in-plane axes, so an odd k applies only when their
    voxel sizes are equal, and otherwise drops to the half turn below it.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in patch_group]
    for a in arrays:
        if a.shape != meta.dims:
            raise InputError(f"patch shape {a.shape} does not match patch dims {meta.dims}")
    coins = rng.integers(0, 2, size=3)
    k = int(rng.integers(4))
    on_b0 = [abs(c) >= 1e-12 for c in meta.b0_dir]  # the axes b0 has a component on
    tied = coins[on_b0.index(True)]
    flipped = tuple(ax for ax in range(3) if (tied if on_b0[ax] else coins[ax]))
    plane = tuple(ax for ax in range(3) if not on_b0[ax])
    if len(plane) < 2:
        log.info("b0 %s is not axis-aligned; rotation augmentation skipped", meta.b0_dir)
        k = 0
    elif k % 2 and meta.voxel_size[plane[0]] != meta.voxel_size[plane[1]]:
        k -= 1
    if k % 2 and meta.dims[plane[0]] != meta.dims[plane[1]]:
        raise InputError(
            f"90 degree rotation needs equal lengths on axes {plane}, got {meta.dims}")
    out = [np.flip(a, axis=flipped) for a in arrays]
    if k:
        out = [np.rot90(a, k, axes=plane) for a in out]
    return [np.ascontiguousarray(a) for a in out]


def _to_tensor(arr: np.ndarray) -> Tensor:
    return Tensor(arr[None].astype(np.float32))


def _draw_batch(ds, cfg, rng, meta) -> list[list[Tensor]]:
    """Sample cfg.batch_size patch groups, augment each on the patch grid
    ``meta``; return the batch's phase, magnitude, chi and mask tensor lists."""
    field_p, chi_p, mask_p = sample_patches(ds, cfg, rng, cfg.batch_size)
    groups = [augment([phase, mag, chi, mask], rng, meta)
              for (phase, mag), chi, mask in zip(field_p, chi_p, mask_p)]
    return [[_to_tensor(a) for a in column] for column in zip(*groups)]


def csv_text(header: list[str], rows) -> str:
    """A header and one line per row: ints and strings as they are, every
    other value as repr(float), with '\\n' line ends, so identical values
    serialize to identical bytes."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([v if isinstance(v, (int, str)) else repr(float(v)) for v in row]
                for row in rows)
    return buf.getvalue()


def write_csv(path, header: list[str], rows) -> None:
    data = csv_text(header, rows).encode(locale.getpreferredencoding(False))
    write_file(path, lambda fh: fh.write(data))


def write_log_csv(rows: list[LossReport], path, steps_per_epoch: int) -> None:
    """One CSV row per generator step: step, epoch, then the loss terms."""
    require("steps_per_epoch", steps_per_epoch, ge=1, integer=True)
    write_csv(path, ["step", "epoch", "cycle", "gan_g", "gan_d", "grad", "tv",
                     "total"],
              [(i, i // steps_per_epoch) + r.row() for i, r in enumerate(rows)])


def _write_trace(trace: list[float], path) -> None:
    write_csv(path, ["iteration", "objective"], enumerate(trace))


def _run(step, models: dict, opt: tuple, epochs: int, steps: int,
         checkpoint_dir=None, log_path=None, write_log=_write_trace) -> list:
    """Call ``step(update)`` ``steps`` times per epoch and collect what it
    returns; ``update(loss, name)`` runs backward, one Adam step on the model
    ``name`` at ``opt = (lr, beta1, beta2)`` (one AdamState per model), then
    clears every model's gradients.

    ``opt`` is checked before any file is touched. After each epoch every
    model is saved as ``<name>_epoch<NNN>.dbc1`` in checkpoint_dir, created
    at the first save. A NumericalError from a step halts the run with the
    epoch and generator step in the message. With a checkpoint_dir, the
    parameters from the start of the last step that completed (or of the
    halted one when none did) are saved as ``<name>_last_good.dbc1`` if they
    are finite: a diverging update shows as a failure only one step later.
    The rows completed so far reach ``write_log(rows, log_path)`` when the
    run ends or halts; any other error propagates with no log written.
    """
    check_adam(*opt)
    ckdir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    def save(tag: str) -> None:
        ckdir.mkdir(parents=True, exist_ok=True)
        for name, model in models.items():
            save_checkpoint(model, ckdir / f"{name}_{tag}.dbc1")

    params = [t for m in models.values() for t in m.params.values()]
    states = {name: AdamState() for name in models}

    def update(loss: Tensor, name: str) -> None:
        model = models[name]
        ad.backward(loss)
        adam_step(model.params, {n: t.grad for n, t in model.params.items()},
                  states[name], *opt)
        ad.zero_grads(params)

    ad.zero_grads(params)
    # snaps[0]: parameters at the start of the last completed step;
    # snaps[1]: at the start of the step running now
    snaps = [[t.data.copy() for t in params] for _ in range(2)] if ckdir else None
    rows: list = []
    halt = None
    try:
        for epoch in range(epochs):
            for _ in range(steps):
                if snaps:
                    for t, buf in zip(params, snaps[1]):
                        np.copyto(buf, t.data)
                rows.append(step(update))
                if snaps:
                    snaps.reverse()
            if ckdir is not None:
                save(f"epoch{epoch:03d}")
    except NumericalError as exc:
        halt = exc
    if log_path is not None:
        write_log(rows, log_path)
    if halt is None:
        return rows
    msg = f"training halted at epoch {epoch}, generator step {len(rows)}: {halt}"
    if snaps and all(np.isfinite(buf).all() for buf in snaps[0]):
        live = [t.data for t in params]
        for t, buf in zip(params, snaps[0]):
            t.data = buf
        save("last_good")
        for t, data in zip(params, live):
            t.data = data
        msg += (f"; parameters from before generator step "
                f"{max(len(rows) - 1, 0)} saved to ") + " and ".join(
            f"{name}_last_good.dbc1" for name in models)
    elif ckdir is not None:
        msg += ("; parameters already non-finite, fall back to the "
                "newest epoch checkpoint")
    raise NumericalError(msg) from halt


def train_cycleqsm(ds: UnpairedDataset, gen: Generator, disc: Discriminator,
                   cfg: TrainConfig, checkpoint_dir=None, log_path=None, *,
                   weights: LossWeights = LossWeights(), norm: str = "l1",
                   mask_losses: bool = False, d_steps_per_g_step: int = 1
                   ) -> tuple[Generator, list[LossReport]]:
    """Adversarial unpaired training of the dipole-inversion generator.

    Per generator step: sample and augment a batch, evaluate the combined
    objective once (sharing all generator applications), update the generator
    on gamma*cycle + gan*gan_g + eta*grad + rho*tv under ``weights``, then the
    discriminator on gan_d; extra discriminator steps (d_steps_per_g_step > 1)
    resample fresh batches. The residuals take ``norm`` ("l1" or "l2"; another
    stops the first step, before any file is written) and the masks only with
    ``mask_losses``; masks always multiply discriminator inputs. Returns the
    generator and one LossReport per generator step; checkpoints per epoch and
    a CSV log are written when the paths are given. A non-finite value
    anywhere halts with NumericalError and keeps the last good parameters.
    """
    require("d_steps_per_g_step", d_steps_per_g_step, ge=1, integer=True)
    gen.require_divisible("patch_size", cfg.patch_size)
    disc.require_patch(cfg.patch_size)
    rng = np.random.default_rng(cfg.seed)
    meta = ds.patch_meta(cfg.patch_size)
    kernel = build_dipole(meta)

    def step(update) -> LossReport:
        b_b, mag_b, chi_b, mask_b = _draw_batch(ds, cfg, rng, meta)
        report, total_g, gan_d = total_generator_loss(
            chi_b, b_b, gen, disc, kernel, weights=weights, mag_batch=mag_b,
            mask_batch=mask_b, norm=norm, mask_losses=mask_losses)
        update(total_g, "gen")
        update(gan_d, "disc")
        for _ in range(d_steps_per_g_step - 1):
            b_b, mag_b, chi_b, mask_b = _draw_batch(ds, cfg, rng, meta)
            fakes = [apply_generator(gen, b, m).detach()
                     for b, m in zip(b_b, mag_b)]
            update(_lsgan_d(disc, chi_b, fakes, mask_b), "disc")
        return report

    steps = max(1, cfg.patches_per_epoch // cfg.batch_size)
    rows = _run(step, {"gen": gen, "disc": disc}, (cfg.lr, cfg.beta1, cfg.beta2),
                cfg.epochs, steps, checkpoint_dir, log_path,
                lambda rows, path: write_log_csv(rows, path, steps))
    return gen, rows


def window_origins(n: int, p: int, stride: int) -> list[int]:
    """Sliding-window start positions covering [0, n): regular strides plus
    an edge-clamped final window so the last voxels are always covered."""
    require("patch and stride", p, stride, ge=1, integer=True)
    if n <= p:
        return [0]
    out = list(range(0, n - p + 1, stride))
    if out[-1] != n - p:
        out.append(n - p)
    return out


def infer_stitched(gen, field: RealVolume, magnitude: RealVolume | None,
                   mask: Mask | None, cfg: TrainConfig) -> RealVolume:
    """Full-volume inference by averaging overlapping patch predictions.

    Windows of side cfg.patch_size slide at cfg.infer_stride, an integer in
    [1, patch_size] where None means half the patch (at least 1), with
    edge-clamped final positions; each voxel's output is the uniform average
    over the windows covering it. Volumes smaller than the patch run
    zero-padded and are cropped back. The output is multiplied by the mask
    when one is given.
    """
    meta = field.meta
    p = cfg.patch_size
    stride = max(1, p // 2) if cfg.infer_stride is None else cfg.infer_stride
    require("infer_stride", stride, ge=1, integer=True)
    if stride > p:
        raise InputError(f"infer_stride {stride} > patch_size {p}")
    if isinstance(gen, Generator):
        gen.require_divisible("patch_size", p)
    require_same_grid(meta, "field", magnitude=magnitude, mask=mask)
    dims = meta.dims
    pad = [(0, max(n, p) - n) for n in dims]
    f = np.pad(field.data, pad)
    m = np.pad(magnitude.data if magnitude is not None else np.ones(dims), pad)
    out, cnt = np.zeros(f.shape), np.zeros(f.shape)
    origins = [window_origins(n, p, stride) for n in f.shape]
    for origin in itertools.product(*origins):
        sl = _slices(origin, p)
        pred = apply_generator(gen, _to_tensor(f[sl]), _to_tensor(m[sl]))
        out[sl] += pred.data[0].astype(np.float64)
        cnt[sl] += 1.0
    out = (out / cnt)[:dims[0], :dims[1], :dims[2]]
    if mask is not None:
        out = out * mask.data
    return RealVolume(meta, out)


def optimize_dip(field: RealVolume, magnitude: RealVolume | None,
                 mask: Mask | None, kernel: DipoleKernel, lam: float = 1e-3,
                 iters: int = 200, lr: float = 1e-3, seed: int = 0,
                 depth: int = 3, base_channels: int = 8, beta1: float = 0.5,
                 beta2: float = 0.999, log_path=None
                 ) -> tuple[RealVolume, list[float]]:
    """Deep-prior inversion of a single volume, no training data.

    A freshly initialized half-width generator driven by a fixed uniform
    noise input is fit with Adam to the phasor data term (weighted by
    magnitude * mask) plus lam * TV on this one volume. Returns the
    best-objective iterate (masked when a mask is given) and the
    per-iteration objective trace, also written to log_path when given.
    """
    meta = field.meta
    require("iters", iters, ge=1, integer=True)
    require_same_grid(meta, "field", kernel=kernel, magnitude=magnitude, mask=mask)
    gen = build_generator(depth=depth, base_channels=base_channels, seed=seed)
    gen.require_divisible("volume dims", meta.dims)
    w_arr = magnitude.data if magnitude is not None else np.ones(meta.dims)
    if mask is not None:
        w_arr = w_arr * mask.data
    rng = np.random.default_rng(seed)
    noise = rng.uniform(0.0, 0.1, size=(2,) + meta.dims).astype(np.float32)
    phase_in = Tensor(noise[:1])
    mag_in = Tensor(noise[1:])
    best_val, best_chi = np.inf, None

    def step(update) -> float:
        nonlocal best_val, best_chi
        chi = forward_generator(gen, phase_in, mag_in)
        loss = dip_loss(chi, field.data, w_arr, kernel, lam=lam)
        val = loss.item()
        if val < best_val:
            best_val, best_chi = val, chi.data[0].astype(np.float64)
        update(loss, "gen")
        return val

    trace = _run(step, {"gen": gen}, (lr, beta1, beta2), 1, iters, log_path=log_path)
    out = best_chi if mask is None else best_chi * mask.data
    return RealVolume(meta, out), trace


def train_uqsm(ds: UnpairedDataset, gen: Generator, cfg: TrainConfig,
               lam: float = 1e-3, checkpoint_dir=None, log_path=None
               ) -> tuple[Generator, list[float]]:
    """Field-only training: fit the generator across random field patches to
    the phasor data term (weighted by magnitude * mask) plus lam * TV. No
    discriminator and no chi labels; same sampling, augmentation, halt, and
    checkpoint machinery as the adversarial trainer. Returns the generator
    and the per-step objective trace, also written to log_path when given.
    ``lam`` is this objective's one setting; ``cfg`` carries only what both
    patch trainers read.
    """
    gen.require_divisible("patch_size", cfg.patch_size)
    rng = np.random.default_rng(cfg.seed)
    meta = ds.patch_meta(cfg.patch_size)
    kernel = build_dipole(meta)

    def step(update) -> float:
        b_b, mag_b, _, mask_b = _draw_batch(ds, cfg, rng, meta)
        total = _batch_mean([
            dip_loss(forward_generator(gen, b, m), b.data[0], m.data[0] * k.data[0],
                     kernel, lam=lam)
            for b, m, k in zip(b_b, mag_b, mask_b)])
        update(total, "gen")
        return total.item()

    steps = max(1, cfg.patches_per_epoch // cfg.batch_size)
    trace = _run(step, {"gen": gen}, (cfg.lr, cfg.beta1, cfg.beta2), cfg.epochs,
                 steps, checkpoint_dir, log_path)
    return gen, trace
