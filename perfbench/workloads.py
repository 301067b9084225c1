"""The three benchmark workloads.

Each is a closed loop with one client in one process: an operation starts
only after the previous one has finished. The program sees only the inputs
generated here from the seed. Calls go through module attributes
(``classical.tkd_invert``) so that tracing can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qsmkit import (autodiff, classical, dipole, metrics, network, phantom,
                    training, volume)
from qsmkit.errors import QsmError
from qsmkit.volume import Mask, RealVolume, VolumeMeta

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def iso_meta(n: int) -> VolumeMeta:
    return VolumeMeta((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))


def sphere_mask(meta: VolumeMeta) -> Mask:
    """A brain-like ball filling most of the grid."""
    n = meta.dims[0]
    spec = phantom.PhantomSpec(meta, (phantom.Sphere((n / 2,) * 3, 0.4 * n, 1.0),))
    return phantom.shape_coverage(spec)


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def within(value: float, ref: dict) -> bool:
    return abs(value - ref["value"]) <= ref["tol"] * ref["value"]


@dataclass
class Unit:
    """What one pass of a workload produced: per-operation times (a training
    run holds many steps), a digest of its outputs, quality figures, named
    sub-timings and check results (name -> ok)."""

    op_s: list[float]
    busy_s: float
    digest: str = ""
    quality: dict[str, float] = field(default_factory=dict)
    parts: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    output: object = None


class Workload:
    name = ""
    ops_per_unit = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self):
        raise NotImplementedError

    def unit(self, state, tracer) -> Unit:
        """Run and time one pass; ``tracer`` (or None) gets a new operation
        id per operation after the first."""
        raise NotImplementedError

    def verify(self, state, unit: Unit) -> None:
        """Checks that run outside the operation and its trace."""

    def named_metrics(self, units: list[Unit]) -> list[tuple[str, float, str]]:
        """The workload's own figures over the units that ran to the end."""
        raise NotImplementedError


# train: the write path of the learned stack. One generator step per
# operation in the criterion-06 configuration; most of the time is conv3d
# forward and backward, then Adam and a DBC1 checkpoint pair per epoch.
# dipole appears only as the 16^3 patch kernel; classical is never called.
class Train(Workload):
    name = "train"
    EPOCHS = 2
    STEPS_PER_EPOCH = 8
    ops_per_unit = EPOCHS * STEPS_PER_EPOCH

    def setup(self):
        meta = iso_meta(24)
        kernel = dipole.build_dipole(meta)
        ones = Mask(meta, np.ones(meta.dims))
        base = 100 * self.seed
        chis = [phantom.make_random_piecewise(meta, 6, seed=base + i) for i in range(8)]
        cases = [phantom.simulate_case(c, ones, 0.0, 0, kernel) for c in chis[:4]]
        # the CLI trains from DBV1 files: write the inputs and read them back
        fields, labels = [], []
        for i, case in enumerate(cases):
            volume.write_volume(case.field, self.work / f"field{i}.dbv")
            fields.append(volume.read_volume(self.work / f"field{i}.dbv"))
        for i, chi in enumerate(chis[4:]):
            volume.write_volume(chi, self.work / f"chi{i}.dbv")
            labels.append(volume.read_volume(self.work / f"chi{i}.dbv"))
        cases = [phantom.SimulatedCase(chi=c.chi, field=f, magnitude=c.magnitude,
                                       mask=c.mask) for c, f in zip(cases, fields)]
        return training.UnpairedDataset(tuple(cases), tuple(labels))

    def unit(self, ds, tracer) -> Unit:
        gen = network.build_generator(depth=3, base_channels=16, seed=self.seed)
        disc = network.build_discriminator(n_layers=3, base_channels=16, seed=self.seed + 1)
        cfg = training.TrainConfig(epochs=self.EPOCHS, patches_per_epoch=self.STEPS_PER_EPOCH,
                                   patch_size=16, lr=1e-3, seed=self.seed)
        ckdir = self.work / "ckpt"
        shutil.rmtree(ckdir, ignore_errors=True)
        # step clock: each step starts by sampling its batch
        marks: list[float] = []
        sample = training.sample_patches

        def clocked(*args, **kwargs):
            marks.append(time.perf_counter())
            if tracer is not None and len(marks) > 1:
                tracer.op = tracer.new_op()
            return sample(*args, **kwargs)

        training.sample_patches = clocked
        try:
            t0 = time.perf_counter()
            _, rows = training.train_cycleqsm(ds, gen, disc, cfg, checkpoint_dir=ckdir)
            t1 = time.perf_counter()
        finally:
            training.sample_patches = sample
        bounds = [t0] + marks[1:] + [t1]
        op_s = [b - a for a, b in zip(bounds, bounds[1:])]
        values = np.array([r.row() for r in rows])
        cycle = float(np.mean(values[-self.STEPS_PER_EPOCH:, 0]))
        return Unit(
            op_s=op_s, busy_s=t1 - t0, digest=digest(values), output=gen,
            quality={"train_cycle_loss": cycle},
            checks={
                "train.steps": len(rows) == self.ops_per_unit == len(op_s),
                "train.finite": bool(np.all(np.isfinite(values))),
                "train.cycle_loss_vs_reference": within(cycle, REFERENCE["train_cycle_loss"]),
            })

    def verify(self, ds, unit):
        saved = network.load_checkpoint(
            self.work / "ckpt" / f"gen_epoch{self.EPOCHS - 1:03d}.dbc1")
        unit.checks["train.checkpoint_roundtrip"] = all(
            np.array_equal(saved.params[k].data, p.data) for k, p in unit.output.params.items())

    def named_metrics(self, units):
        steps = [s for u in units for s in u.op_s]
        busy = sum(u.busy_s for u in units)
        return [
            ("train_steps_per_s", len(steps) / busy, "1/s"),
            ("train_step_p50_s", statistics.median(steps), "s"),
            ("train_step_tail_s", *tail(steps)),
            ("train_cycle_loss", statistics.mean(u.quality["train_cycle_loss"] for u in units), "1"),
        ]


# infer: forward only, many small calls. One stitched 48^3 volume per
# operation (125 windows of 16^3 at stride 8) through a freshly seeded
# generator; no backward, Adam or checkpoint. A conv or tape change that
# helps training but costs forward-only or per-call overhead shows here.
class Infer(Workload):
    name = "infer"
    N, PATCH, STRIDE = 48, 16, 8

    def setup(self):
        meta = iso_meta(self.N)
        kernel = dipole.build_dipole(meta)
        mask = sphere_mask(meta)
        chi = phantom.make_random_piecewise(meta, 8, seed=self.seed)
        chi = RealVolume(meta, chi.data * mask.data)
        case = phantom.simulate_case(chi, mask, 0.002, self.seed, kernel)
        volume.write_volume(case.field, self.work / "field.dbv")
        volume.write_volume(case.magnitude, self.work / "mag.dbv")
        gen = network.build_generator(depth=3, base_channels=16, seed=self.seed)
        return {"gen": gen, "mask": mask,
                "field": volume.read_volume(self.work / "field.dbv"),
                "mag": volume.read_volume(self.work / "mag.dbv"),
                "cfg": training.TrainConfig(patch_size=self.PATCH, infer_stride=self.STRIDE)}

    def windows(self) -> int:
        return len(training.window_origins(self.N, self.PATCH, self.STRIDE)) ** 3

    def unit(self, st, tracer) -> Unit:
        t0 = time.perf_counter()
        out = training.infer_stitched(st["gen"], st["field"], st["mag"], st["mask"], st["cfg"])
        t1 = time.perf_counter()
        outside = st["mask"].data == 0
        return Unit(op_s=[t1 - t0], busy_s=t1 - t0, digest=digest(out.data), output=out,
                    checks={"infer.finite": bool(np.all(np.isfinite(out.data))),
                            "infer.zero_outside_mask": not np.any(out.data[outside])})

    def verify(self, st, unit):
        """Voxels [16, 24)^3 lie in the 8 windows with origins 8 and 16 on each
        axis; their stitched value is the mean of those predictions."""
        out = unit.output
        p, lo = self.PATCH, 16
        acc = np.zeros((8, 8, 8))
        for ox in (8, 16):
            for oy in (8, 16):
                for oz in (8, 16):
                    sl = (slice(ox, ox + p), slice(oy, oy + p), slice(oz, oz + p))
                    phase = autodiff.Tensor(st["field"].data[sl][None].astype(np.float32))
                    mag = autodiff.Tensor(st["mag"].data[sl][None].astype(np.float32))
                    pred = network.forward_generator(st["gen"], phase, mag).data[0]
                    acc += pred[lo - ox:lo - ox + 8, lo - oy:lo - oy + 8,
                                lo - oz:lo - oz + 8].astype(np.float64)
        want = acc / 8 * st["mask"].data[lo:lo + 8, lo:lo + 8, lo:lo + 8]
        got = out.data[lo:lo + 8, lo:lo + 8, lo:lo + 8]
        unit.checks["infer.window_average"] = bool(
            np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want)))

    def named_metrics(self, units):
        vols = [s for u in units for s in u.op_s]
        busy = sum(u.busy_s for u in units)
        return [
            ("infer_volume_s", statistics.median(vols), "s"),
            ("infer_windows_per_s", self.windows() * len(vols) / busy, "1/s"),
        ]


# recon: the physics path, the README quick start at 64^3. Almost all time
# is dipole.apply_spectrum inside MEDI and CGLS; autodiff is idle. Every
# solver reads its inputs from DBV1 and writes its result, as the CLI does.
class Recon(Workload):
    name = "recon"
    N = 64
    SOLVER_ITERS = 20

    def setup(self):
        meta = iso_meta(self.N)
        kernel = dipole.build_dipole(meta)
        mask = sphere_mask(meta)
        chi = phantom.make_random_piecewise(meta, 10, seed=self.seed)
        chi = RealVolume(meta, chi.data * mask.data)
        case = phantom.simulate_case(chi, mask, 0.002, self.seed, kernel)
        volume.write_volume(case.field, self.work / "field.dbv")
        volume.write_volume(case.magnitude, self.work / "mag.dbv")
        return {"kernel": kernel, "truth": chi, "mask": mask}

    def unit(self, st, tracer) -> Unit:
        kernel, w = st["kernel"], self.work
        t0 = time.perf_counter()
        tkd = classical.tkd_invert(volume.read_volume(w / "field.dbv"), kernel,
                                   classical.TkdParams(a=0.1))
        volume.write_volume(tkd, w / "tkd.dbv")
        t1 = time.perf_counter()
        weights = classical.build_medi_weights(volume.read_volume(w / "mag.dbv"))
        medi, trace = classical.medi_invert(
            volume.read_volume(w / "field.dbv"), kernel, weights,
            classical.MediParams(lam=1e-3, iters=self.SOLVER_ITERS))
        volume.write_volume(medi, w / "medi.dbv")
        t2 = time.perf_counter()
        cgls, resid = classical.cg_least_squares(volume.read_volume(w / "field.dbv"), kernel,
                                                 iters=self.SOLVER_ITERS)
        volume.write_volume(cgls, w / "cgls.dbv")
        t3 = time.perf_counter()
        scores, roundtrip = {}, True
        for name, rec in (("tkd", tkd), ("medi", medi), ("cgls", cgls)):
            back = volume.read_volume(w / f"{name}.dbv")
            roundtrip &= np.array_equal(back.data, rec.data.astype("<f4").astype(np.float64))
            scores[f"recon_{name}_rmse_pct"] = metrics.rmse(st["truth"], back, st["mask"])
            scores[f"recon_{name}_ssim"] = metrics.ssim3(st["truth"], back, st["mask"])
        t4 = time.perf_counter()
        objective = [row[1] for row in trace]
        return Unit(
            op_s=[t4 - t0], busy_s=t4 - t0, digest=digest(tkd.data, medi.data, cgls.data),
            quality=scores, parts={"tkd": t1 - t0, "medi": t2 - t1, "cgls": t3 - t2},
            checks={
                "recon.iterations": len(trace) == len(resid) == self.SOLVER_ITERS + 1,
                "recon.medi_objective_nonincreasing": all(
                    b <= a for a, b in zip(objective, objective[1:])),
                "recon.cgls_residual_nonincreasing": all(
                    b <= a for a, b in zip(resid, resid[1:])),
                "recon.dbv1_roundtrip": bool(roundtrip),
                "recon.medi_rmse_vs_reference": within(
                    scores["recon_medi_rmse_pct"], REFERENCE["recon_medi_rmse_pct"]),
                "recon.cgls_rmse_vs_reference": within(
                    scores["recon_cgls_rmse_pct"], REFERENCE["recon_cgls_rmse_pct"]),
            })

    def named_metrics(self, units):
        out = [(f"recon_{k}_s", statistics.median(u.parts[k] for u in units), "s")
               for k in ("tkd", "medi", "cgls")]
        return out + [(k, statistics.mean(u.quality[k] for u in units),
                       "%" if k.endswith("_pct") else "1") for k in units[0].quality]


WORKLOADS = {w.name: w for w in (Train, Infer, Recon)}

TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile on a fixed ladder with at least ten samples
    beyond it; the maximum when there are too few samples for any."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            rank = min(n - 1, int(np.ceil(p / 100 * n)) - 1)
            return ordered[rank], f"s (p{p:g} of {n}, {n - 1 - rank} beyond)"
    return ordered[-1], f"s (max of {n})"


def run_unit(wl: Workload, state, tracer=None) -> Unit:
    """One unit; a QsmError marks all of its operations failed, as does a
    failed check."""
    if tracer is not None:
        tracer.op = tracer.new_op()
    try:
        u = wl.unit(state, tracer)
    except QsmError as exc:
        return Unit(op_s=[], busy_s=0.0, checks={f"{wl.name}.raised {exc!r}": False})
    finally:
        if tracer is not None:
            tracer.op = None
    try:
        wl.verify(state, u)
    except QsmError as exc:
        u.checks[f"{wl.name}.verify raised {exc!r}"] = False
    return u


def run_units(wl: Workload, state, seconds: float) -> tuple[Unit, list[Unit]]:
    """One warm-up unit, then whole units, untraced, until ``seconds`` have
    passed (at least one). The warm-up unit is checked but not timed."""
    warm = run_unit(wl, state)
    units: list[Unit] = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        units.append(run_unit(wl, state))
    return warm, units
