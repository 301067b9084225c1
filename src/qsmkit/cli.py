"""One executable covering the full pipeline: phantom rasterization, forward
simulation, classical and learned inversions, training, stitched inference,
and evaluation.

Exit codes: 0 success, 1 input error (flags, files, geometry), 2 numerical
failure (NaN or divergence). Every subcommand accepts --seed and produces
bit-identical outputs for identical inputs and seed; subcommands without any
randomness simply ignore it. Config-file subcommands resolve each value as
flag > config file > built-in default. A settings-table row names the library
function or settings class it configures and the parameter it sets, takes that
parameter's type and default (``_default``), and reaches it as a keyword, so the
two cannot drift apart; only the ``--seed`` and ``--disc-seed`` defaults are the CLI's.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from . import __version__
from .classical import (
    MediParams,
    TkdParams,
    build_medi_weights,
    cg_least_squares,
    medi_invert,
    tkd_invert,
)
from .config import read_config_items
from .dipole import build_dipole, naive_inverse
from .errors import InputError, NumericalError, QsmError
from .gradcheck import F32_TOL, F64_TOL, run_suite
from .losses import LossWeights
from .metrics import RoiSet, psnr, rmse, roi_means, roi_regression, ssim3
from .network import (
    Generator,
    build_discriminator,
    build_generator,
    load_checkpoint,
    save_checkpoint,
)
from .phantom import (
    Box,
    PhantomSpec,
    SimulatedCase,
    Sphere,
    make_phantom,
    shape_coverage,
    simulate_case,
)
from .training import (
    TrainConfig,
    UnpairedDataset,
    csv_text,
    infer_stitched,
    optimize_dip,
    train_cycleqsm,
    train_uqsm,
    write_csv,
)
from .volume import Mask, RealVolume, VolumeMeta, read_mask, read_volume, write_volume


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the input-error exit code."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {s!r}")


def _convert(s: str, typ, key: str):
    try:
        if typ is bool:
            return _bool(s)
        return typ(s)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise InputError(f"config key {key!r}: {exc}") from exc


def _numbers(value: str, n: int, key: str, typ=float) -> tuple:
    parts = value.replace(",", " ").split()
    if len(parts) != n:
        raise InputError(f"{key!r} needs {n} numbers, got {value!r}")
    try:
        return tuple(typ(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"{key!r}: {exc}") from exc


# ---------------------------------------------------------------- phantom


PHANTOM_SCALARS = ("dims", "voxel_size", "b0_dir", "background_chi")


def _phantom_spec(path: str) -> PhantomSpec:
    """Build a PhantomSpec from a key=value file.

    Scalar keys: dims, voxel_size, b0_dir, background_chi (last assignment
    wins). Shape keys repeat and keep file order, later shapes
    overwriting earlier ones where they overlap:
      sphere = cx cy cz radius chi      (mm, mm, ppm)
      box    = cx cy cz ex ey ez chi    (corner, extents, ppm)
    """
    scalars: dict[str, str] = {}
    shapes = []
    for key, value in read_config_items(path):
        if key == "sphere":
            v = _numbers(value, 5, "sphere")
            shapes.append(Sphere((v[0], v[1], v[2]), v[3], v[4]))
        elif key == "box":
            v = _numbers(value, 7, "box")
            shapes.append(Box((v[0], v[1], v[2]), (v[3], v[4], v[5]), v[6]))
        elif key in PHANTOM_SCALARS:
            scalars[key] = value
        else:
            raise InputError(
                f"{path}: unknown key {key!r} (known: sphere, box, "
                f"{', '.join(PHANTOM_SCALARS)})")
    if "dims" not in scalars:
        raise InputError(f"{path}: missing required key 'dims'")
    meta = VolumeMeta(
        _numbers(scalars["dims"], 3, "dims", int),
        _numbers(scalars.get("voxel_size", "1 1 1"), 3, "voxel_size"),
        _numbers(scalars.get("b0_dir", "0 0 1"), 3, "b0_dir"))
    return PhantomSpec(
        meta, tuple(shapes),
        background_chi=_convert(scalars.get("background_chi", "0"), float,
                                "background_chi"))


def cmd_phantom(args) -> int:
    spec = _phantom_spec(args.spec)
    chi = make_phantom(spec)
    mask = shape_coverage(spec) if args.mask_out else None  # build both, then write
    write_volume(chi, args.out)
    if mask is not None:
        write_volume(mask, args.mask_out)
    return 0


# ------------------------------------------------- forward and inversions


def cmd_forward(args) -> int:
    chi = read_volume(args.chi)
    kernel = build_dipole(chi.meta)
    if args.mag_out and not args.mask:
        raise InputError("--mag-out needs --mask (magnitude is the mask "
                         "indicator)")
    mask = (read_mask(args.mask) if args.mask
            else Mask(chi.meta, np.ones(chi.meta.dims)))
    case = simulate_case(chi, mask, args.noise_sigma, args.seed, kernel)
    if args.kernel_out:
        write_volume(RealVolume(chi.meta, kernel.spectrum), args.kernel_out)
    if args.mag_out:
        write_volume(case.magnitude, args.mag_out)
    write_volume(case.field, args.out)
    return 0


def cmd_naive(args) -> int:
    field = read_volume(args.field)
    out = naive_inverse(field, build_dipole(field.meta), eps=args.eps)
    write_volume(out, args.out)
    return 0


def cmd_tkd(args) -> int:
    field = read_volume(args.field)
    out = tkd_invert(field, build_dipole(field.meta), TkdParams(a=args.a))
    write_volume(out, args.out)
    return 0


def cmd_medi(args) -> int:
    field = read_volume(args.field)
    weights = build_medi_weights(read_volume(args.magnitude),
                                 edge_fraction=args.edge_fraction)
    params = MediParams(lam=args.lam, iters=args.iters, step=args.step)
    out, trace = medi_invert(field, build_dipole(field.meta), weights, params)
    write_volume(out, args.out)
    if args.trace:
        write_csv(args.trace,
                  ["iteration", "objective", "data_term", "reg_term"], trace)
    return 0


def cmd_cgls(args) -> int:
    field = read_volume(args.field)
    weights = read_volume(args.weights) if args.weights else None
    out, residuals = cg_least_squares(field, build_dipole(field.meta),
                                      weights, iters=args.iters, tol=args.tol)
    write_volume(out, args.out)
    if args.trace:
        # the CGLS objective is the squared weighted residual; it has no
        # regularizer, so the reg column is identically zero
        rows = [(i, r * r, r * r, 0.0) for i, r in enumerate(residuals)]
        write_csv(args.trace,
                  ["iteration", "objective", "data_term", "reg_term"], rows)
    return 0


# ------------------------------------------------------ trained pipelines


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


# the CLI's own choice: the library's 0 would give both networks one seed
OWN_DEFAULTS = {"disc_seed": 1}


def _setting(key: str, owner, param: str) -> tuple:
    """The default and type of a table row: its parameter's default (or the
    CLI's own), typed int where that default is None."""
    default = OWN_DEFAULTS.get(key, _default(owner, param))
    return default, int if default is None else type(default)


def _add_table_flags(p: argparse.ArgumentParser, table) -> None:
    p.add_argument("--config", help="key=value file mirroring the flag "
                                    "names below")
    for key, owner, param, help_ in table:
        default, typ = _setting(key, owner, param)
        p.add_argument(f"--{key.replace('_', '-')}",
                       type=_bool if typ is bool else typ, default=None,
                       metavar="BOOL" if typ is bool else None,
                       help=f"{help_} (default {default})")


def _read_table(args, table) -> dict:
    """Resolve each table key as flag > config file (its last assignment) >
    default, grouped as keyword arguments per owner name."""
    cfg = dict(read_config_items(args.config)) if args.config else {}
    known = {key for key, *_ in table}
    for k in cfg:
        if k not in known:
            raise InputError(
                f"unknown config key {k!r} (known: {', '.join(sorted(known))})")
    kw = {}
    for key, owner, param, _ in table:
        default, typ = _setting(key, owner, param)
        flag = getattr(args, key)
        kw.setdefault(owner.__name__, {})[param] = (
            flag if flag is not None
            else _convert(cfg[key], typ, key) if key in cfg else default)
    return kw


# (key, owner, parameter, help): each key sets ``parameter`` of the library
# function or settings class ``owner`` and takes its type and default
TRAIN_TABLE = [
    ("epochs", TrainConfig, "epochs", "training epochs"),
    ("patches_per_epoch", TrainConfig, "patches_per_epoch",
     "patch groups sampled per epoch"),
    ("patch_size", TrainConfig, "patch_size", "cubic patch side in voxels"),
    ("lr", TrainConfig, "lr", "Adam learning rate for both networks"),
    ("beta1", TrainConfig, "beta1", "Adam first-moment decay"),
    ("beta2", TrainConfig, "beta2", "Adam second-moment decay"),
    ("gamma", LossWeights, "gamma", "cycle-consistency weight"),
    ("eta", LossWeights, "eta", "gradient-difference weight"),
    ("rho", LossWeights, "rho", "total-variation weight"),
    ("gan", LossWeights, "gan",
     "adversarial weight on the generator; 0 trains on the "
     "non-adversarial terms alone"),
    ("seed", TrainConfig, "seed", "seed for sampling and augmentation"),
    ("d_steps_per_g_step", train_cycleqsm, "d_steps_per_g_step",
     "discriminator updates per generator step"),
    ("batch_size", TrainConfig, "batch_size", "patch groups per step"),
    ("norm", train_cycleqsm, "norm", "residual norm, l1 or l2"),
    ("mask_losses", train_cycleqsm, "mask_losses",
     "apply masks inside the cycle/gradient/tv residuals"),
    ("gen_depth", build_generator, "depth", "generator U-Net depth"),
    ("gen_channels", build_generator, "base_channels", "generator base channels"),
    ("gen_seed", build_generator, "seed", "generator init seed"),
    ("disc_layers", build_discriminator, "n_layers", "discriminator strided conv layers"),
    ("disc_channels", build_discriminator, "base_channels", "discriminator base channels"),
    ("disc_seed", build_discriminator, "seed", "discriminator init seed"),
]

UQSM_TABLE = [row for row in TRAIN_TABLE
              if row[0] in ("epochs", "patches_per_epoch", "patch_size",
                            "lr", "beta1", "beta2", "seed", "batch_size",
                            "gen_depth", "gen_channels", "gen_seed")]
UQSM_TABLE.append(("lam", train_uqsm, "lam", "total-variation weight"))

DIP_TABLE = [
    ("lam", optimize_dip, "lam", "total-variation weight"),
    ("iters", optimize_dip, "iters", "optimization iterations"),
    ("lr", optimize_dip, "lr", "Adam learning rate"),
    ("seed", optimize_dip, "seed", "seed for init and the fixed noise input"),
    ("depth", optimize_dip, "depth", "U-Net depth"),
    ("channels", optimize_dip, "base_channels", "U-Net base channels"),
    ("beta1", optimize_dip, "beta1", "Adam first-moment decay"),
    ("beta2", optimize_dip, "beta2", "Adam second-moment decay"),
]

INFER_TABLE = [
    ("patch_size", TrainConfig, "patch_size", "cubic patch side in voxels"),
    ("infer_stride", TrainConfig, "infer_stride",
     "window stride; None means half the patch"),
]


def _field_cases(field_paths, mag_paths, mask_paths) -> tuple:
    """Assemble measurement-side cases from volume files.

    The ground-truth slot is a zero placeholder: training reads only the
    field, magnitude, and mask of each case.
    """
    for name, paths in (("--mags", mag_paths), ("--masks", mask_paths)):
        if paths and len(paths) != len(field_paths):
            raise InputError(
                f"{name} must list one file per --fields entry "
                f"({len(paths)} vs {len(field_paths)})")
    cases = []
    for i, fp in enumerate(field_paths):
        field = read_volume(fp)
        mag = (read_volume(mag_paths[i]) if mag_paths
               else RealVolume(field.meta, np.ones(field.meta.dims)))
        mask = (read_mask(mask_paths[i]) if mask_paths
                else Mask(field.meta, np.ones(field.meta.dims)))
        cases.append(SimulatedCase(
            chi=RealVolume(field.meta, np.zeros(field.meta.dims)),
            field=field, magnitude=mag, mask=mask))
    return tuple(cases)


def cmd_train(args) -> int:
    kw = _read_table(args, TRAIN_TABLE)
    cases = _field_cases(args.fields, args.mags, args.masks)
    chis = tuple(read_volume(p) for p in args.chis)
    ds = UnpairedDataset(cases, chis)
    gen = build_generator(**kw["build_generator"])
    disc = build_discriminator(**kw["build_discriminator"])
    gen, rows = train_cycleqsm(ds, gen, disc, TrainConfig(**kw["TrainConfig"]),
                               checkpoint_dir=args.checkpoint_dir, log_path=args.log,
                               weights=LossWeights(**kw["LossWeights"]),
                               **kw["train_cycleqsm"])
    save_checkpoint(gen, args.out_gen)
    if args.out_disc:
        save_checkpoint(disc, args.out_disc)
    print(f"trained {len(rows)} generator steps; "
          f"final total {rows[-1].total:.6g}")
    return 0


def _load_generator(path: str) -> Generator:
    model = load_checkpoint(path)
    if not isinstance(model, Generator):
        raise InputError(f"checkpoint {path} does not hold a generator")
    return model


def cmd_infer(args) -> int:
    kw = _read_table(args, INFER_TABLE)
    gen = _load_generator(args.gen)
    field = read_volume(args.field)
    magnitude = read_volume(args.magnitude) if args.magnitude else None
    mask = read_mask(args.mask) if args.mask else None
    cfg = TrainConfig(**kw["TrainConfig"])
    write_volume(infer_stitched(gen, field, magnitude, mask, cfg), args.out)
    return 0


def cmd_dip(args) -> int:
    kw = _read_table(args, DIP_TABLE)
    field = read_volume(args.field)
    magnitude = read_volume(args.magnitude) if args.magnitude else None
    mask = read_mask(args.mask) if args.mask else None
    out, _ = optimize_dip(field, magnitude, mask, build_dipole(field.meta),
                          log_path=args.trace, **kw["optimize_dip"])
    write_volume(out, args.out)
    return 0


def cmd_uqsm(args) -> int:
    kw = _read_table(args, UQSM_TABLE)
    cases = _field_cases(args.fields, args.mags, args.masks)
    # the sampler draws from both dataset sides; this objective never reads
    # the chi side, so the zero placeholder of the first case stands in
    ds = UnpairedDataset(cases, (cases[0].chi,))
    gen = build_generator(**kw["build_generator"])
    gen, trace = train_uqsm(ds, gen, TrainConfig(**kw["TrainConfig"]),
                            checkpoint_dir=args.checkpoint_dir,
                            log_path=args.trace, **kw["train_uqsm"])
    save_checkpoint(gen, args.out_gen)
    print(f"trained {len(trace)} steps; final objective {trace[-1]:.6g}")
    return 0


# -------------------------------------------------------------- evaluation


def _parse_rois(pairs) -> RoiSet:
    rois = []
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise InputError(f"--roi expects NAME=PATH, got {pair!r}")
        rois.append((name, read_mask(path)))
    return RoiSet(tuple(rois))


def cmd_eval(args) -> int:
    truth = read_volume(args.truth)
    recon = read_volume(args.recon)
    mask = read_mask(args.mask) if args.mask else None
    header = ["RMSE (%)", "PSNR (dB)", "SSIM"]
    row = [rmse(truth, recon, mask), psnr(truth, recon, mask),
           ssim3(truth, recon, mask, window=args.window)]
    if args.roi:
        rois = _parse_rois(args.roi)
        reg = roi_regression(truth, recon, rois, mode=args.roi_mode)
        header += ["Slope", "Intercept", "R2", "Corr", "MeanAbsErr",
                   "StdAbsErr"]
        row += [reg.slope, reg.intercept, reg.r_squared, reg.corr,
                reg.mean_abs_error, reg.std_abs_error]
        if args.roi_means:
            write_csv(args.roi_means, ["name", "mean", "std"],
                      roi_means(recon, rois))
    elif args.roi_means:
        raise InputError("--roi-means needs at least one --roi")
    sys.stdout.write(csv_text(header, [row]))
    if args.out:
        write_csv(args.out, header, [row])
    return 0


def cmd_gradcheck(args) -> int:
    failures = []
    for dtype, tol, name in ((np.float32, F32_TOL, "float32"),
                             (np.float64, F64_TOL, "float64")):
        results = run_suite(dtype, n_cases=args.cases, samples=args.samples,
                            seed=args.seed)
        for op, err in results.items():
            status = "ok" if err < tol else "FAIL"
            print(f"{name} {op:17s} {err:9.3e} {status}")
            if err >= tol:
                failures.append(f"{name}/{op}: {err:.3e}")
        worst = max(results, key=results.get)
        print(f"{name} worst: {worst} {results[worst]:.3e} (tol {tol:g})")
    if failures:
        raise NumericalError(
            "gradient checks exceeded tolerance: " + "; ".join(failures))
    print("all gradient checks passed")
    return 0


# ------------------------------------------------------------------ parser


def _add_seed(p: argparse.ArgumentParser, help_: str = "random seed") -> None:
    p.add_argument("--seed", type=int, default=0, help=f"{help_} (default 0)")


def _add_number(p: argparse.ArgumentParser, flag: str, fn, name: str, help_: str) -> None:
    default = _default(fn, name)
    p.add_argument(flag, type=type(default), default=default,
                   help=f"{help_} (default {default:g})")


def _add_training_io(p: argparse.ArgumentParser) -> None:
    """The input and output flags of the patch trainers, train and uqsm."""
    p.add_argument("--fields", nargs="+", required=True,
                   help="field volumes (DBV1), the measurement side")
    p.add_argument("--mags", nargs="+",
                   help="magnitude volume per field (default all ones)")
    p.add_argument("--masks", nargs="+",
                   help="mask per field (default all ones)")
    p.add_argument("--out-gen", required=True,
                   help="write the trained generator here (DBC1)")
    p.add_argument("--checkpoint-dir", help="per-epoch checkpoints go here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsmkit",
        description="Desk-scale quantitative susceptibility mapping: "
                    "phantoms, dipole physics, classical and learned "
                    "inversions, and evaluation.")
    parser.add_argument("--version", action="version",
                        version=f"qsmkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND")

    p = sub.add_parser("phantom", help="rasterize a shape-list config file",
                       description="Rasterize the shapes in --spec over a "
                                   "constant background; later shapes "
                                   "overwrite earlier ones.")
    p.add_argument("--spec", required=True,
                   help="key=value file: dims, voxel_size, b0_dir, "
                        "background_chi, and repeated sphere/box lines")
    p.add_argument("--out", required=True, help="output chi volume (DBV1)")
    p.add_argument("--mask-out",
                   help="also write the union of all shapes as a mask")
    _add_seed(p, "unused; rasterization is deterministic")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("forward", help="simulate the field of a chi volume",
                       description="Apply the dipole forward operator, "
                                   "optionally adding white Gaussian noise.")
    p.add_argument("--chi", required=True, help="input chi volume (DBV1)")
    p.add_argument("--out", required=True, help="output field volume (DBV1)")
    _add_number(p, "--noise-sigma", simulate_case, "noise_sigma",
                "white noise standard deviation")
    p.add_argument("--mask", help="mask volume; attaches the indicator "
                                  "magnitude convention")
    p.add_argument("--mag-out", help="write the magnitude (needs --mask)")
    p.add_argument("--kernel-out",
                   help="write the dipole spectrum on this grid (DBV1)")
    _add_seed(p, "noise seed")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("naive", help="direct division inverse",
                       description="Divide by the dipole spectrum with an "
                                   "epsilon floor; the ill-posedness "
                                   "baseline.")
    p.add_argument("--field", required=True, help="input field (DBV1)")
    p.add_argument("--out", required=True, help="output chi (DBV1)")
    _add_number(p, "--eps", naive_inverse, "eps", "division floor")
    _add_seed(p, "unused; this inverse is deterministic")
    p.set_defaults(func=cmd_naive)

    p = sub.add_parser("tkd", help="thresholded k-space division",
                       description="Clamp the dipole spectrum at threshold "
                                   "a before dividing.")
    p.add_argument("--field", required=True, help="input field (DBV1)")
    p.add_argument("--out", required=True, help="output chi (DBV1)")
    _add_number(p, "--a", TkdParams, "a", "spectrum threshold")
    _add_seed(p, "unused; this inverse is deterministic")
    p.set_defaults(func=cmd_tkd)

    p = sub.add_parser(
        "medi", help="weighted data fidelity plus edge-masked TV",
        description="Gradient descent with backtracking on "
                    "||W(b - Hx)||^2 + lam * sum_c ||M_c grad_c x||_1; "
                    "W and M derive from the magnitude image.")
    p.add_argument("--field", required=True, help="input field (DBV1)")
    p.add_argument("--magnitude", required=True,
                   help="magnitude image for the weights (DBV1)")
    p.add_argument("--out", required=True, help="output chi (DBV1)")
    _add_number(p, "--lam", MediParams, "lam", "regularization weight")
    _add_number(p, "--edge-fraction", build_medi_weights, "edge_fraction",
                "fraction of strongest magnitude edges released from the TV penalty")
    _add_number(p, "--iters", MediParams, "iters", "iterations")
    _add_number(p, "--step", MediParams, "step", "initial step size")
    p.add_argument("--trace", help="write the objective trace CSV here")
    _add_seed(p, "unused; this solver is deterministic")
    p.set_defaults(func=cmd_medi)

    p = sub.add_parser("cgls", help="conjugate-gradient least squares",
                       description="Unregularized weighted least squares, "
                                   "the lam -> 0 reference solver.")
    p.add_argument("--field", required=True, help="input field (DBV1)")
    p.add_argument("--out", required=True, help="output chi (DBV1)")
    p.add_argument("--weights", help="data weight volume W (DBV1)")
    _add_number(p, "--iters", cg_least_squares, "iters", "maximum iterations")
    _add_number(p, "--tol", cg_least_squares, "tol", "relative residual stop")
    p.add_argument("--trace", help="write the objective trace CSV here")
    _add_seed(p, "unused; this solver is deterministic")
    p.set_defaults(func=cmd_cgls)

    p = sub.add_parser(
        "train", help="adversarial unpaired training",
        description="Train the dipole-inversion generator on unpaired "
                    "field and chi volumes. Values resolve as flag > "
                    "--config file > default.")
    _add_training_io(p)
    p.add_argument("--chis", nargs="+", required=True,
                   help="chi volumes (DBV1), the unpaired label side")
    p.add_argument("--out-disc", help="also write the discriminator (DBC1)")
    p.add_argument("--log", help="write the per-step loss CSV here")
    _add_table_flags(p, TRAIN_TABLE)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "infer", help="stitched full-volume inference",
        description="Run a trained generator over sliding windows and "
                    "average the overlaps.")
    p.add_argument("--field", required=True, help="input field (DBV1)")
    p.add_argument("--gen", required=True, help="generator checkpoint (DBC1)")
    p.add_argument("--out", required=True, help="output chi (DBV1)")
    p.add_argument("--magnitude", help="magnitude volume (default all ones)")
    p.add_argument("--mask", help="mask applied to the stitched output")
    _add_table_flags(p, INFER_TABLE)
    _add_seed(p, "unused; inference is deterministic")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser(
        "dip", help="per-volume deep-prior inversion",
        description="Fit a freshly initialized network to one field volume "
                    "through the phasor data term plus TV; no training "
                    "data involved.")
    p.add_argument("--field", required=True, help="input field (DBV1)")
    p.add_argument("--out", required=True, help="output chi (DBV1)")
    p.add_argument("--magnitude", help="data weight (default all ones)")
    p.add_argument("--mask", help="restricts the data term and the output")
    p.add_argument("--trace", help="write the objective trace CSV here")
    _add_table_flags(p, DIP_TABLE)
    p.set_defaults(func=cmd_dip)

    p = sub.add_parser(
        "uqsm", help="field-only network training",
        description="Train the generator across field patches on the "
                    "phasor data term plus TV; no chi labels and no "
                    "discriminator.")
    _add_training_io(p)
    p.add_argument("--trace", help="write the objective trace CSV here")
    _add_table_flags(p, UQSM_TABLE)
    p.set_defaults(func=cmd_uqsm)

    p = sub.add_parser(
        "eval", help="reconstruction quality metrics",
        description="Print a one-row CSV of RMSE (%), PSNR (dB), and SSIM, "
                    "plus regression statistics when ROIs are given.")
    p.add_argument("--truth", required=True, help="ground truth chi (DBV1)")
    p.add_argument("--recon", required=True, help="reconstruction (DBV1)")
    p.add_argument("--mask", help="evaluate inside this mask only "
                                  "(default whole volume)")
    _add_number(p, "--window", ssim3, "window", "SSIM window side")
    p.add_argument("--roi", action="append", metavar="NAME=PATH",
                   help="named region mask; repeat per region")
    roi_mode = _default(roi_regression, "mode")
    p.add_argument("--roi-mode", choices=("voxels", "means"), default=roi_mode,
                   help="regress pooled voxels or one point per region "
                        f"(default {roi_mode})")
    p.add_argument("--roi-means", help="write per-region mean/std CSV here")
    p.add_argument("--out", help="also write the metrics row to this CSV")
    _add_seed(p, "unused; metrics are deterministic")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "gradcheck", help="finite-difference gradient audit",
        description="Check every autodiff op and loss against central "
                    "differences in both precisions; nonzero exit on any "
                    "tolerance breach.")
    _add_number(p, "--cases", run_suite, "n_cases", "random cases per family")
    _add_number(p, "--samples", run_suite, "samples", "probed coordinates per tensor")
    _add_seed(p, "shifts every case's data and probes")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"qsmkit: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (QsmError, OSError, MemoryError) as exc:
        print(f"qsmkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
