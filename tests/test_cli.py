"""End-to-end command-line coverage: pipelines, exit codes, precedence,
seeded reproducibility, and every README example."""

import argparse
import ast
import csv
import inspect
import math
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsmkit
from qsmkit import cli
from qsmkit.dipole import build_dipole, forward_field
from qsmkit.network import build_discriminator, build_generator, load_checkpoint
from qsmkit.phantom import simulate_case
from qsmkit.volume import Mask, RealVolume, VolumeMeta, read_mask, read_volume, write_volume

README = Path(__file__).resolve().parents[1] / "README.md"

# the box sits inside the sphere so the mask union stays the sphere while
# the truth keeps two distinct values over it (SSIM needs a nonzero span)
SPHERE_CFG = """\
dims = 12 12 12
voxel_size = 1 1 1
sphere = 6 6 6 3 0.1
box = 5 5 5 2 2 2 0.03
"""

TWO_SHAPE_CFG = """\
dims = 16 16 16
sphere = 8 8 8 4 0.1
box = 3 3 3 4 4 4 -0.06
"""


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture
def sphere_files(tmp_path):
    """Phantom, mask, and clean field for a centered sphere."""
    spec = write(tmp_path / "s.cfg", SPHERE_CFG)
    chi = str(tmp_path / "chi.dbv")
    mask = str(tmp_path / "m.dbv")
    field = str(tmp_path / "b.dbv")
    assert cli.main(["phantom", "--spec", spec, "--out", chi,
                     "--mask-out", mask]) == 0
    assert cli.main(["forward", "--chi", chi, "--out", field]) == 0
    return {"spec": spec, "chi": chi, "mask": mask, "field": field,
            "dir": tmp_path}


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPipeline:
    def test_phantom_forward_tkd_chain(self, sphere_files, tmp_path):
        out = str(tmp_path / "x.dbv")
        assert cli.main(["tkd", "--field", sphere_files["field"],
                         "--a", "0.1", "--out", out]) == 0
        recon = read_volume(out)
        truth = read_volume(sphere_files["chi"])
        assert recon.meta == truth.meta
        assert np.all(np.isfinite(recon.data))

    def test_phantom_writes_shape_union_mask(self, sphere_files):
        mask = read_mask(sphere_files["mask"])
        chi = read_volume(sphere_files["chi"])
        assert np.array_equal(mask.data, (chi.data != 0).astype(float))

    def test_naive_and_tkd_differ(self, sphere_files, tmp_path):
        nv, tk = str(tmp_path / "n.dbv"), str(tmp_path / "t.dbv")
        assert cli.main(["naive", "--field", sphere_files["field"],
                         "--out", nv]) == 0
        assert cli.main(["tkd", "--field", sphere_files["field"],
                         "--out", tk]) == 0
        assert not np.array_equal(read_volume(nv).data, read_volume(tk).data)

    def test_medi_trace_schema(self, sphere_files, tmp_path):
        mag = str(tmp_path / "mag.dbv")
        out = str(tmp_path / "md.dbv")
        trace = tmp_path / "tr.csv"
        assert cli.main(["forward", "--chi", sphere_files["chi"],
                         "--out", str(tmp_path / "b2.dbv"),
                         "--mask", sphere_files["mask"],
                         "--mag-out", mag]) == 0
        assert cli.main(["medi", "--field", sphere_files["field"],
                         "--magnitude", mag, "--out", out,
                         "--lam", "0.001", "--iters", "8",
                         "--trace", str(trace)]) == 0
        rows = read_rows(trace)
        assert list(rows[0]) == ["iteration", "objective", "data_term",
                                 "reg_term"]
        assert [int(r["iteration"]) for r in rows] == list(range(len(rows)))

    def test_cgls_trace_reg_column_is_zero(self, sphere_files, tmp_path):
        out = str(tmp_path / "cg.dbv")
        trace = tmp_path / "tr.csv"
        assert cli.main(["cgls", "--field", sphere_files["field"],
                         "--out", out, "--iters", "10",
                         "--trace", str(trace)]) == 0
        rows = read_rows(trace)
        assert all(float(r["reg_term"]) == 0.0 for r in rows)
        assert all(float(r["objective"]) == float(r["data_term"])
                   for r in rows)

    def test_kernel_export_bounds_and_dc(self, sphere_files, tmp_path):
        spec_out = str(tmp_path / "d.dbv")
        assert cli.main(["forward", "--chi", sphere_files["chi"],
                         "--out", str(tmp_path / "b2.dbv"),
                         "--kernel-out", spec_out]) == 0
        spec = read_volume(spec_out)
        assert spec.data[0, 0, 0] == 0.0
        assert spec.data.min() >= -2 / 3 - 1e-7
        assert spec.data.max() <= 1 / 3 + 1e-7


class TestForwardNoise:
    def test_same_seed_bit_identical(self, sphere_files, tmp_path):
        a, b = tmp_path / "a.dbv", tmp_path / "b.dbv"
        for out in (a, b):
            assert cli.main(["forward", "--chi", sphere_files["chi"],
                             "--out", str(out), "--noise-sigma", "1e-3",
                             "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, sphere_files, tmp_path):
        a, b = tmp_path / "a.dbv", tmp_path / "b.dbv"
        for out, seed in ((a, "5"), (b, "6")):
            assert cli.main(["forward", "--chi", sphere_files["chi"],
                             "--out", str(out), "--noise-sigma", "1e-3",
                             "--seed", seed]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_masked_forward_matches_library_simulation(self, sphere_files,
                                                       tmp_path):
        field = tmp_path / "bm.dbv"
        mag = tmp_path / "mag.dbv"
        assert cli.main(["forward", "--chi", sphere_files["chi"],
                         "--out", str(field), "--mask", sphere_files["mask"],
                         "--mag-out", str(mag), "--noise-sigma", "2e-3",
                         "--seed", "9"]) == 0
        chi = read_volume(sphere_files["chi"])
        case = simulate_case(chi, read_mask(sphere_files["mask"]), 2e-3, 9)
        # DBV1 stores float32, so compare after the same round trip
        assert np.array_equal(read_volume(field).data,
                              case.field.data.astype(np.float32))
        assert np.array_equal(read_mask(mag).data, case.magnitude.data)

    def test_unmasked_forward_bytes(self, sphere_files, tmp_path):
        # the unmasked path adds seeded noise to the clean field exactly as
        # a direct forward_field + default_rng(seed).normal draw does
        out, want = tmp_path / "b.dbv", tmp_path / "want.dbv"
        assert cli.main(["forward", "--chi", sphere_files["chi"],
                         "--out", str(out), "--seed", "3",
                         "--noise-sigma", "0.01"]) == 0
        chi = read_volume(sphere_files["chi"])
        clean = forward_field(chi, build_dipole(chi.meta)).data
        noise = np.random.default_rng(3).normal(0.0, 0.01, size=chi.meta.dims)
        write_volume(RealVolume(chi.meta, clean + noise), want)
        assert out.read_bytes() == want.read_bytes()

    def test_mag_out_requires_mask(self, sphere_files, tmp_path, capsys):
        code = cli.main(["forward", "--chi", sphere_files["chi"],
                         "--out", str(tmp_path / "b.dbv"),
                         "--mag-out", str(tmp_path / "m.dbv")])
        assert code == 1
        assert "--mag-out" in capsys.readouterr().err

    def test_negative_sigma_rejected(self, sphere_files, tmp_path):
        assert cli.main(["forward", "--chi", sphere_files["chi"],
                         "--out", str(tmp_path / "b.dbv"),
                         "--noise-sigma", "-1"]) == 1

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_bad_sigma_writes_nothing(self, sigma, sphere_files, tmp_path, capsys):
        out, kernel = tmp_path / "noisy.dbv", tmp_path / "kernel.dbv"
        assert cli.main(["forward", "--chi", sphere_files["chi"],
                         "--out", str(out), "--noise-sigma", sigma,
                         "--kernel-out", str(kernel)]) == 1
        assert "noise_sigma" in capsys.readouterr().err
        assert not out.exists() and not kernel.exists()


class TestEval:
    def test_identity_row(self, sphere_files, capsys):
        assert cli.main(["eval", "--truth", sphere_files["chi"],
                         "--recon", sphere_files["chi"],
                         "--mask", sphere_files["mask"]]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "RMSE (%),PSNR (dB),SSIM"
        rmse_v, psnr_v, ssim_v = lines[1].split(",")
        assert float(rmse_v) == 0.0
        assert psnr_v == "inf"
        assert float(ssim_v) == 1.0

    def test_roi_columns_and_means_file(self, sphere_files, tmp_path,
                                        capsys):
        roi_a = write(tmp_path / "ra.cfg",
                      "dims = 12 12 12\nbox = 2 2 2 3 3 3 1\n")
        roi_b = write(tmp_path / "rb.cfg",
                      "dims = 12 12 12\nbox = 7 7 7 3 3 3 1\n")
        ma, mb = str(tmp_path / "ra.dbv"), str(tmp_path / "rb.dbv")
        for spec, m in ((roi_a, ma), (roi_b, mb)):
            assert cli.main(["phantom", "--spec", spec,
                             "--out", str(tmp_path / "junk.dbv"),
                             "--mask-out", m]) == 0
        means = tmp_path / "means.csv"
        assert cli.main(["eval", "--truth", sphere_files["chi"],
                         "--recon", sphere_files["chi"],
                         "--roi", f"left={ma}", "--roi", f"right={mb}",
                         "--roi-means", str(means)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ("RMSE (%),PSNR (dB),SSIM,Slope,Intercept,R2,Corr,"
                          "MeanAbsErr,StdAbsErr")
        rows = read_rows(means)
        assert [r["name"] for r in rows] == ["left", "right"]
        assert all(float(r["std"]) >= 0 for r in rows)

    def test_out_file_matches_stdout_row(self, sphere_files, tmp_path,
                                         capsys):
        out = tmp_path / "metrics.csv"
        assert cli.main(["eval", "--truth", sphere_files["chi"],
                         "--recon", sphere_files["chi"],
                         "--out", str(out)]) == 0
        stdout_rows = capsys.readouterr().out.strip().splitlines()
        file_rows = out.read_text().strip().splitlines()
        assert file_rows == stdout_rows

    def test_bad_roi_syntax(self, sphere_files, capsys):
        assert cli.main(["eval", "--truth", sphere_files["chi"],
                         "--recon", sphere_files["chi"],
                         "--roi", "nopath"]) == 1
        assert "NAME=PATH" in capsys.readouterr().err

    def test_roi_means_requires_roi(self, sphere_files, tmp_path):
        assert cli.main(["eval", "--truth", sphere_files["chi"],
                         "--recon", sphere_files["chi"],
                         "--roi-means", str(tmp_path / "m.csv")]) == 1


class TestPhantomSpecErrors:
    @pytest.mark.parametrize("text,needle", [
        ("sphere = 6 6 6 3 0.1\n", "dims"),
        ("dims = 8 8 8\nwhatever = 1\n", "unknown key"),
        ("dims = 8 8 8\nsphere = 1 2 3\n", "5 numbers"),
        ("dims = 8 8 8\nbox = 1 2 3 4 5 6\n", "7 numbers"),
        ("dims = 8 8\nsphere = 1 2 3 4 5\n", "3 numbers"),
        ("dims = eight 8 8\n", "dims"),
    ])
    def test_rejected_with_message(self, tmp_path, capsys, text, needle):
        spec = write(tmp_path / "s.cfg", text)
        code = cli.main(["phantom", "--spec", spec,
                         "--out", str(tmp_path / "c.dbv")])
        assert code == 1
        assert needle in capsys.readouterr().err

    def test_seed_key_rejected(self, tmp_path, capsys):
        # rasterization draws no randomness, so a spec has no seed key
        spec = write(tmp_path / "s.cfg", "dims = 8 8 8\nseed = 4\n")
        assert cli.main(["phantom", "--spec", spec,
                         "--out", str(tmp_path / "c.dbv")]) == 1
        err = capsys.readouterr().err
        assert "unknown key 'seed'" in err
        assert ("(known: sphere, box, dims, voxel_size, b0_dir, "
                "background_chi)") in err

    def test_empty_mask_writes_nothing(self, tmp_path, capsys):
        # a spec whose shapes cover no voxel has a phantom but no mask
        spec = write(tmp_path / "s.cfg", "dims = 8 8 8\n")
        out, mask = tmp_path / "c.dbv", tmp_path / "m.dbv"
        assert cli.main(["phantom", "--spec", spec, "--out", str(out),
                         "--mask-out", str(mask)]) == 1
        assert "covering any voxel" in capsys.readouterr().err
        assert not out.exists() and not mask.exists()

    def test_malformed_line_names_location(self, tmp_path, capsys):
        spec = write(tmp_path / "s.cfg", "dims = 8 8 8\nbroken\n")
        assert cli.main(["phantom", "--spec", spec,
                         "--out", str(tmp_path / "c.dbv")]) == 1
        assert "s.cfg:2" in capsys.readouterr().err


class TestInputsOutsideTheLibrary:
    """Faults NumPy or Python raise on an input end as ``qsmkit: error:``
    with exit 1 and write nothing."""

    @pytest.mark.parametrize("command", ["phantom", "dip"])
    def test_non_utf8_file_names_it(self, command, sphere_files, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfedims = 8 8 8\n")
        out = tmp_path / "out.dbv"
        argv = {"phantom": ["phantom", "--spec", str(bad), "--out", str(out)],
                "dip": ["dip", "--config", str(bad), "--field", sphere_files["field"],
                        "--out", str(out), "--trace", str(tmp_path / "t.csv")]}[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("qsmkit: error: ") and str(bad) in err
        assert not out.exists() and not (tmp_path / "t.csv").exists()

    def test_impossible_grid_is_an_input_error(self, tmp_path, capsys):
        # 8e15 bytes is more than the 128 TiB a Linux process can map, so
        # the allocation is refused at once
        spec = write(tmp_path / "s.cfg", "dims = 100000 100000 100000\nsphere = 1 1 1 1 0.1\n")
        out = tmp_path / "c.dbv"
        assert cli.main(["phantom", "--spec", spec, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qsmkit: error: ") and "allocate" in err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["nosuch"])
        assert e.value.code == 1

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["tkd", "--bogus", "1"])
        assert e.value.code == 1

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--version"])
        assert e.value.code == 0
        assert "qsmkit" in capsys.readouterr().out

    def test_missing_input_file(self, tmp_path, capsys):
        assert cli.main(["tkd", "--field", str(tmp_path / "absent.dbv"),
                         "--out", str(tmp_path / "x.dbv")]) == 1
        assert "absent.dbv" in capsys.readouterr().err

    def test_divergent_training_exits_two(self, sphere_files, tmp_path,
                                          capsys):
        code = cli.main([
            "train", "--fields", sphere_files["field"],
            "--chis", sphere_files["chi"],
            "--out-gen", str(tmp_path / "g.dbc"),
            "--epochs", "1", "--patches-per-epoch", "3",
            "--patch-size", "12", "--lr", "1e18",
            "--gen-depth", "2", "--gen-channels", "4",
            "--disc-layers", "1", "--disc-channels", "4"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "uqsm", "dip"])
    def test_halted_run_keeps_completed_rows(self, command, sphere_files,
                                             tmp_path, capsys):
        field, log = sphere_files["field"], str(tmp_path / "log.csv")
        ckdir = tmp_path / "ck"
        small = ["--lr", "1e18", "--epochs", "1", "--patches-per-epoch", "3",
                 "--patch-size", "12", "--gen-depth", "2", "--gen-channels",
                 "4", "--checkpoint-dir", str(ckdir)]
        argv = {
            "train": ["train", "--fields", field, "--chis", sphere_files["chi"],
                      "--out-gen", str(tmp_path / "g.dbc"), "--log", log,
                      "--disc-layers", "1", "--disc-channels", "4"] + small,
            "uqsm": ["uqsm", "--fields", field, "--out-gen",
                     str(tmp_path / "g.dbc"), "--trace", log] + small,
            "dip": ["dip", "--field", field, "--out", str(tmp_path / "d.dbv"),
                    "--trace", log, "--lr", "1e18", "--iters", "5",
                    "--depth", "2", "--channels", "4"],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "training halted at epoch 0, generator step 1:" in err
        lines = Path(log).read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0"]  # step 0 only
        if command != "dip":
            assert (ckdir / "gen_last_good.dbc1").exists()

    @pytest.mark.parametrize("command", ["train", "uqsm"])
    def test_halt_keeps_initial_parameters(self, command, sphere_files,
                                           tmp_path, capsys):
        # lr 1e18 makes step 0's update diverge, which shows only as the
        # failure of step 1: the last good parameters are the initial ones
        ckdir = tmp_path / "ck"
        argv = [command, "--fields", sphere_files["field"],
                "--out-gen", str(tmp_path / "g.dbc"), "--lr", "1e18",
                "--epochs", "1", "--patches-per-epoch", "3",
                "--patch-size", "12", "--gen-depth", "2",
                "--gen-channels", "4", "--checkpoint-dir", str(ckdir)]
        want = {"gen": build_generator(depth=2, base_channels=4, seed=0)}
        if command == "train":
            argv += ["--chis", sphere_files["chi"], "--disc-layers", "1",
                     "--disc-channels", "4"]
            want["disc"] = build_discriminator(n_layers=1, base_channels=4,
                                               seed=1)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "generator step 1: " in err
        assert "parameters from before generator step 0 saved to" in err
        for name, model in want.items():
            saved = load_checkpoint(ckdir / f"{name}_last_good.dbc1")
            for n, t in model.params.items():
                assert np.array_equal(saved.params[n].data, t.data), (name, n)


class TestFirstStepInputErrors:
    """Settings a run rejects before or during its first step end it with
    exit 1 and leave no log, trace or checkpoint directory behind."""

    SMALL = ["--epochs", "1", "--patches-per-epoch", "2", "--gen-depth", "2",
             "--gen-channels", "4"]

    # each rejected in the first step; 16 is wider than the 12-voxel volumes
    FIRST_STEP = {"uqsm": ["--lam", "nan"], "dip": ["--lam", "-1"],
                  "train": ["--patch-size", "16"]}

    def argv(self, command, files, log, ckdir, extra):
        field = files["field"]
        return {
            "train": ["train", "--fields", field, "--chis", files["chi"],
                      "--out-gen", str(files["dir"] / "g.dbc"), "--log", log,
                      "--checkpoint-dir", ckdir, "--disc-layers", "1",
                      "--disc-channels", "4", "--patch-size", "12"] + self.SMALL,
            "uqsm": ["uqsm", "--fields", field, "--out-gen",
                     str(files["dir"] / "g.dbc"), "--trace", log,
                     "--checkpoint-dir", ckdir, "--patch-size", "12"] + self.SMALL,
            "dip": ["dip", "--field", field, "--out", str(files["dir"] / "d.dbv"),
                    "--trace", log, "--iters", "2", "--depth", "2",
                    "--channels", "4"],
        }[command] + extra

    @pytest.mark.parametrize("command", list(FIRST_STEP))
    def test_nothing_written(self, command, sphere_files, tmp_path, capsys):
        log, ckdir = tmp_path / "log.csv", tmp_path / "ck"
        argv = self.argv(command, sphere_files, str(log), str(ckdir),
                         self.FIRST_STEP[command])
        assert cli.main(argv) == 1
        assert "error" in capsys.readouterr().err
        assert not log.exists()
        assert not ckdir.exists()

    @pytest.mark.parametrize("extra, said", [
        (["--infer-stride", "3"], "unrecognized arguments: --infer-stride"),
        (["--config", "infer_stride = 3\n"], "unknown config key 'infer_stride'")])
    def test_train_takes_no_infer_stride(self, extra, said, sphere_files, tmp_path, capsys):
        # only infer stitches windows; train has no stride to read
        if extra[0] == "--config":
            extra = ["--config", write(tmp_path / "t.cfg", extra[1])]
        log, ckdir = tmp_path / "log.csv", tmp_path / "ck"
        argv = self.argv("train", sphere_files, str(log), str(ckdir), extra)
        assert run_bounded(argv) == 1
        assert said in capsys.readouterr().err
        assert not log.exists()
        assert not ckdir.exists()
        assert not (tmp_path / "g.dbc").exists()

    @pytest.mark.parametrize("command", ["train", "uqsm"])
    @pytest.mark.parametrize("flag, dims, voxel", [("--mags", 14, 1.0), ("--mags", 12, 2.0),
                                                   ("--masks", 14, 1.0), ("--masks", 12, 2.0)])
    def test_off_grid_case_rejected(self, command, flag, dims, voxel, sphere_files,
                                    tmp_path, capsys):
        # a magnitude or mask on another grid than its field's, 12^3 at 1 mm
        meta = VolumeMeta((dims,) * 3, (voxel,) * 3)
        other = str(tmp_path / "other.dbv")
        write_volume(Mask(meta, np.ones(meta.dims)), other)
        log, ckdir = tmp_path / "log.csv", tmp_path / "ck"
        argv = self.argv(command, sphere_files, str(log), str(ckdir), [flag, other])
        assert cli.main(argv) == 1
        assert "grid does not match field" in capsys.readouterr().err
        assert not log.exists()
        assert not ckdir.exists()
        assert not (tmp_path / "g.dbc").exists()

    @pytest.mark.parametrize("command", ["dip", "uqsm"])
    @pytest.mark.parametrize("flag, value", [("beta1", "1.0"), ("beta2", "1.5"),
                                             ("lr", "0")])
    def test_adam_settings_checked(self, command, flag, value, sphere_files,
                                   tmp_path, capsys):
        log, ckdir = tmp_path / "log.csv", tmp_path / "ck"
        argv = self.argv(command, sphere_files, str(log), str(ckdir),
                         [f"--{flag}", value])
        assert cli.main(argv) == 1
        assert f"{flag} must be" in capsys.readouterr().err
        assert not log.exists()
        assert not ckdir.exists()


class TestMediSettings:
    @pytest.mark.parametrize("flag, value", [("--step", "inf"), ("--lam", "nan"),
                                             ("--lam", "inf")])
    def test_non_finite_rejected(self, flag, value, sphere_files, tmp_path):
        # an infinite step would halve forever in the line search
        out = tmp_path / "medi.dbv"
        assert cli.main(["medi", "--field", sphere_files["field"],
                         "--magnitude", sphere_files["mask"], "--out", str(out),
                         "--iters", "3", flag, value]) == 1
        assert not out.exists()


class TestBoolKeys:
    ARGV = ["train", "--fields", "f.dbv", "--chis", "c.dbv", "--out-gen", "g.dbc"]

    @pytest.mark.parametrize("word, want", [("yes", True), ("off", False)])
    def test_flag_words(self, word, want):
        args = cli.build_parser().parse_args(self.ARGV + ["--mask-losses", word])
        assert cli._read_table(args, cli.TRAIN_TABLE)["train_cycleqsm"]["mask_losses"] is want

    def test_bad_flag_word(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(self.ARGV + ["--mask-losses", "maybe"])
        assert e.value.code == 1
        assert "--mask-losses" in capsys.readouterr().err

    def test_bad_config_word(self, tmp_path, capsys):
        cfg = write(tmp_path / "t.cfg", "mask_losses = maybe\n")
        assert cli.main(self.ARGV + ["--config", cfg]) == 1
        assert "'mask_losses'" in capsys.readouterr().err


class TestTrainInfer:
    def test_train_then_infer_smoke(self, sphere_files, tmp_path, capsys):
        cfg = write(tmp_path / "t.cfg", "\n".join([
            "epochs = 1", "patches_per_epoch = 4", "patch_size = 12",
            "lr = 1e-4", "gen_depth = 2", "gen_channels = 4",
            "disc_layers = 1", "disc_channels = 4", ""]))
        gen = str(tmp_path / "g.dbc")
        log = tmp_path / "log.csv"
        assert cli.main(["train", "--fields", sphere_files["field"],
                         "--chis", sphere_files["chi"], "--config", cfg,
                         "--out-gen", gen, "--log", str(log)]) == 0
        assert "trained 4 generator steps" in capsys.readouterr().out
        rows = read_rows(log)
        assert list(rows[0]) == ["step", "epoch", "cycle", "gan_g", "gan_d",
                                 "grad", "tv", "total"]
        out = str(tmp_path / "pred.dbv")
        assert cli.main(["infer", "--field", sphere_files["field"],
                         "--gen", gen, "--out", out,
                         "--patch-size", "12"]) == 0
        assert read_volume(out).meta == read_volume(sphere_files["chi"]).meta

    def test_infer_rejects_discriminator_checkpoint(self, sphere_files,
                                                    tmp_path, capsys):
        cfg = write(tmp_path / "t.cfg", "\n".join([
            "epochs = 1", "patches_per_epoch = 2", "patch_size = 12",
            "gen_depth = 2", "gen_channels = 4",
            "disc_layers = 1", "disc_channels = 4", ""]))
        gen, disc = str(tmp_path / "g.dbc"), str(tmp_path / "d.dbc")
        assert cli.main(["train", "--fields", sphere_files["field"],
                         "--chis", sphere_files["chi"], "--config", cfg,
                         "--out-gen", gen, "--out-disc", disc]) == 0
        assert cli.main(["infer", "--field", sphere_files["field"],
                         "--gen", disc,
                         "--out", str(tmp_path / "p.dbv")]) == 1
        assert "generator" in capsys.readouterr().err

    def test_mags_length_mismatch(self, sphere_files, tmp_path, capsys):
        code = cli.main(["train", "--fields", sphere_files["field"],
                         "--chis", sphere_files["chi"],
                         "--mags", sphere_files["mask"], sphere_files["mask"],
                         "--out-gen", str(tmp_path / "g.dbc")])
        assert code == 1
        assert "--mags" in capsys.readouterr().err

    def test_unknown_config_key_named(self, sphere_files, tmp_path, capsys):
        cfg = write(tmp_path / "t.cfg", "bogus = 1\n")
        assert cli.main(["train", "--fields", sphere_files["field"],
                         "--chis", sphere_files["chi"], "--config", cfg,
                         "--out-gen", str(tmp_path / "g.dbc")]) == 1
        assert "bogus" in capsys.readouterr().err


class TestDipUqsm:
    def test_dip_flag_overrides_config(self, sphere_files, tmp_path):
        cfg = write(tmp_path / "d.cfg",
                    "iters = 3\ndepth = 2\nchannels = 4\n")
        trace = tmp_path / "tr.csv"
        assert cli.main(["dip", "--field", sphere_files["field"],
                         "--out", str(tmp_path / "x.dbv"), "--config", cfg,
                         "--iters", "5", "--trace", str(trace)]) == 0
        assert len(read_rows(trace)) == 5

    def test_dip_config_beats_default(self, sphere_files, tmp_path):
        cfg = write(tmp_path / "d.cfg",
                    "iters = 3\ndepth = 2\nchannels = 4\n")
        trace = tmp_path / "tr.csv"
        assert cli.main(["dip", "--field", sphere_files["field"],
                         "--out", str(tmp_path / "x.dbv"), "--config", cfg,
                         "--trace", str(trace)]) == 0
        assert len(read_rows(trace)) == 3

    def test_dip_seeded_rerun_bit_identical(self, sphere_files, tmp_path):
        outs = []
        for name in ("a.dbv", "b.dbv"):
            out = tmp_path / name
            assert cli.main(["dip", "--field", sphere_files["field"],
                             "--out", str(out), "--iters", "4",
                             "--depth", "2", "--channels", "4",
                             "--seed", "11"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_repeated_config_key_last_assignment_wins(self, sphere_files,
                                                       tmp_path):
        cfg = write(tmp_path / "d.cfg",
                    "iters = 2\ndepth = 2\niters = 4\nchannels = 4\n")
        trace = tmp_path / "tr.csv"
        assert cli.main(["dip", "--field", sphere_files["field"],
                         "--out", str(tmp_path / "x.dbv"), "--config", cfg,
                         "--trace", str(trace)]) == 0
        assert len(read_rows(trace)) == 4

    def test_uqsm_trains_and_writes_trace(self, sphere_files, tmp_path,
                                          capsys):
        trace = tmp_path / "tr.csv"
        assert cli.main(["uqsm", "--fields", sphere_files["field"],
                         "--out-gen", str(tmp_path / "g.dbc"),
                         "--epochs", "1", "--patches-per-epoch", "3",
                         "--patch-size", "12", "--gen-depth", "2",
                         "--gen-channels", "4", "--trace", str(trace)]) == 0
        assert "final objective" in capsys.readouterr().out
        rows = read_rows(trace)
        assert list(rows[0]) == ["iteration", "objective"]
        assert len(rows) == 3


class TestGradcheckCommand:
    def test_tiny_audit_passes(self, capsys):
        assert cli.main(["gradcheck", "--cases", "1", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out
        assert "float32 worst:" in out and "float64 worst:" in out

    @pytest.mark.parametrize("argv", [["--cases", "0"], ["--cases", "-3"],
                                      ["--cases", "1", "--samples", "0"]])
    def test_audit_that_checks_nothing_fails(self, argv, capsys):
        assert cli.main(["gradcheck", *argv]) == 1
        out, err = capsys.readouterr()
        assert "all gradient checks passed" not in out
        assert "must be >= 1" in err


# per subcommand: every option string (help aside), the required options,
# every non-None argparse default, and the options taking a list; values
# from the config-file tables default to None here and resolve later
FLAG_SURFACE = {
    "phantom": ("--mask-out --out --seed --spec",
                {"--out", "--spec"}, {"--seed": 0}, set()),
    "forward": ("--chi --kernel-out --mag-out --mask --noise-sigma --out "
                "--seed",
                {"--chi", "--out"}, {"--noise-sigma": 0.0, "--seed": 0},
                set()),
    "naive": ("--eps --field --out --seed",
              {"--field", "--out"}, {"--eps": 1e-6, "--seed": 0}, set()),
    "tkd": ("--a --field --out --seed",
            {"--field", "--out"}, {"--a": 0.1, "--seed": 0}, set()),
    "medi": ("--edge-fraction --field --iters --lam --magnitude --out "
             "--seed --step --trace",
             {"--field", "--magnitude", "--out"},
             {"--lam": 600.0, "--edge-fraction": 0.3, "--iters": 300,
              "--step": 1.0, "--seed": 0}, set()),
    "cgls": ("--field --iters --out --seed --tol --trace --weights",
             {"--field", "--out"},
             {"--iters": 50, "--tol": 1e-10, "--seed": 0}, set()),
    "train": ("--batch-size --beta1 --beta2 --checkpoint-dir --chis "
              "--config --d-steps-per-g-step --disc-channels --disc-layers "
              "--disc-seed --epochs --eta --fields --gamma --gan "
              "--gen-channels --gen-depth --gen-seed --log "
              "--lr --mags --mask-losses --masks --norm --out-disc "
              "--out-gen --patch-size --patches-per-epoch --rho --seed",
              {"--chis", "--fields", "--out-gen"}, {},
              {"--chis", "--fields", "--mags", "--masks"}),
    "infer": ("--config --field --gen --infer-stride --magnitude --mask "
              "--out --patch-size --seed",
              {"--field", "--gen", "--out"}, {"--seed": 0}, set()),
    "dip": ("--beta1 --beta2 --channels --config --depth --field --iters "
            "--lam --lr --magnitude --mask --out --seed --trace",
            {"--field", "--out"}, {}, set()),
    "uqsm": ("--batch-size --beta1 --beta2 --checkpoint-dir --config "
             "--epochs --fields --gen-channels --gen-depth --gen-seed "
             "--lam --lr --mags --masks --out-gen --patch-size "
             "--patches-per-epoch --seed --trace",
             {"--fields", "--out-gen"}, {}, {"--fields", "--mags", "--masks"}),
    "eval": ("--mask --out --recon --roi --roi-means --roi-mode --seed "
             "--truth --window",
             {"--recon", "--truth"},
             {"--window": 7, "--roi-mode": "voxels", "--seed": 0}, set()),
    "gradcheck": ("--cases --samples --seed", set(),
                  {"--cases": 20, "--samples": 8, "--seed": 0}, set()),
}


class TestFlagSurface:
    def test_options_required_and_defaults_pinned(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(FLAG_SURFACE)
        for name, sp in sub.choices.items():
            acts = [a for a in sp._actions
                    if not isinstance(a, argparse._HelpAction)]
            got = (" ".join(sorted(s for a in acts for s in a.option_strings)),
                   {a.option_strings[0] for a in acts if a.required},
                   {a.option_strings[0]: a.default for a in acts
                    if a.default is not None},
                   {a.option_strings[0] for a in acts if a.nargs is not None})
            assert got == FLAG_SURFACE[name], name


class TestOneDefault:
    """Each CLI default is written once, in the library the option configures:
    no ``default=`` keyword, table row, own-default entry or help text in
    ``cli.py`` states a number, apart from the CLI's own seeds. Finding those
    seeds shows that the keyword, entry and help forms are seen."""

    OWN = [("_add_seed", 0), ("_add_seed", "(default 0"), ("disc_seed", 1)]

    @staticmethod
    def number(node) -> bool:
        try:
            return type(ast.literal_eval(node)) in (int, float)
        except ValueError:
            return False

    def written_defaults(self, source: str) -> list:
        """(enclosing def, or row or entry key, value) for each number stated
        as a default."""
        found = []
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    found += [(getattr(top, "name", "?"), ast.literal_eval(k.value))
                              for k in node.keywords
                              if k.arg == "default" and self.number(k.value)]
                elif (isinstance(node, ast.Tuple) and node.elts
                      and isinstance(node.elts[0], ast.Constant)
                      and isinstance(node.elts[0].value, str)):
                    found += [(node.elts[0].value, ast.literal_eval(e))
                              for e in node.elts[1:] if self.number(e)]
                elif isinstance(node, ast.Dict):
                    found += [(k.value, ast.literal_eval(v))
                              for k, v in zip(node.keys, node.values)
                              if isinstance(k, ast.Constant) and self.number(v)]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found += [(getattr(top, "name", "?"), m) for m in
                              re.findall(r"\(default -?\.?\d", node.value)]
        return sorted(found, key=repr)

    def test_defaults_come_from_the_library(self):
        source = Path(cli.__file__).read_text()
        assert self.written_defaults(source) == sorted(self.OWN, key=repr)


class TestTableRows:
    """Each settings-table row names a parameter its owner takes, each
    (owner, parameter) pair is set by at most one row of a table, and each
    table's owners are exactly those its command passes the values to."""

    OWNERS = {"train": {"TrainConfig", "LossWeights", "train_cycleqsm",
                        "build_generator", "build_discriminator"},
              "uqsm": {"TrainConfig", "build_generator", "train_uqsm"},
              "dip": {"optimize_dip"}, "infer": {"TrainConfig"}}

    @pytest.mark.parametrize("command", ["train", "uqsm", "dip", "infer"])
    def test_rows_name_real_parameters_once(self, command):
        table = TABLES[command]
        for key, owner, param, _ in table:
            assert param in inspect.signature(owner).parameters, (key, owner, param)
        pairs = [(owner, param) for _, owner, param, _ in table]
        assert len(set(pairs)) == len(pairs)
        assert {owner.__name__ for _, owner, *_ in table} == self.OWNERS[command]

    def test_own_defaults_name_table_keys(self):
        keys = {row[0] for table in TABLES.values() for row in table}
        assert set(cli.OWN_DEFAULTS) <= keys


# ------------------------------------------------------ numeric surface audit

AUDIT_VALUES = ("nan", "inf", "-inf", "0", "-1")
AUDIT_SPEC = "dims = 8 8 8\nsphere = 4 4 4 3 0.1\nbox = 3 3 3 2 2 2 0.03\n"


def _ge(lo):
    return lambda v: v >= lo


# the finite values each setting admits (nan and +-inf are never admitted);
# a setting missing here is still audited, with any exit code allowed for
# its finite values
DOMAIN = {
    "seed": _ge(0), "gen_seed": _ge(0), "disc_seed": _ge(0),
    "noise_sigma": _ge(0), "eps": lambda v: v > 0, "a": lambda v: 0 < v < 2 / 3,
    "lam": _ge(0), "edge_fraction": lambda v: 0 <= v < 1, "iters": _ge(1),
    "step": lambda v: v > 0, "tol": _ge(0), "epochs": _ge(1),
    "patches_per_epoch": _ge(1), "patch_size": _ge(2), "infer_stride": _ge(1),
    "lr": lambda v: v > 0, "beta1": lambda v: 0 <= v < 1,
    "beta2": lambda v: 0 <= v < 1, "gamma": _ge(0), "eta": _ge(0), "rho": _ge(0),
    "gan": _ge(0), "d_steps_per_g_step": _ge(1), "batch_size": _ge(1),
    "gen_depth": _ge(1), "gen_channels": _ge(1), "disc_layers": _ge(1),
    "disc_channels": _ge(1), "depth": _ge(1), "channels": _ge(1),
    "window": lambda v: v >= 1 and v % 2 == 1, "cases": _ge(1), "samples": _ge(1),
}
# subcommands that draw no randomness take any integer seed
SEEDLESS = {"phantom", "naive", "tkd", "medi", "cgls", "infer", "eval"}
# the library name an error message uses where it differs from the key
NAMED = {"a": "threshold a", "gen_depth": "depth", "gen_channels": "base_channels",
         "disc_layers": "n_layers", "disc_channels": "base_channels",
         "gen_seed": "seed", "disc_seed": "seed", "cases": "n_cases"}
TABLES = {"train": cli.TRAIN_TABLE, "uqsm": cli.UQSM_TABLE, "dip": cli.DIP_TABLE,
          "infer": cli.INFER_TABLE}


def numeric_flags():
    """(subcommand, option) for every int or float option of the parser.

    A parser that cannot be built, say for a table row naming a parameter its
    owner lacks, gives the one case ("parser", error), which fails on its
    first ``cli.main`` call: the module still collects, so ``TestTableRows``
    can name the row."""
    try:
        parser = cli.build_parser()
    except Exception as exc:  # noqa: BLE001 - reported by the failing case
        return [("parser", repr(exc))]
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, sp in sub.choices.items()
            for a in sp._actions if a.type in (int, float)]


def admits(command: str, key: str, value: str) -> bool | None:
    """Whether the setting's domain holds the value; None when undeclared."""
    v = float(value)
    if not math.isfinite(v):
        return False
    if key == "seed" and command in SEEDLESS:
        return True
    return DOMAIN[key](v) if key in DOMAIN else None


class _Hung(Exception):
    """Raised from the alarm; an OSError would be caught by cli.main."""


def _on_alarm(signum, frame):
    raise _Hung("call did not finish within its alarm")


def run_bounded(argv, seconds: int = 30):
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="module")
def audit_inputs(tmp_path_factory):
    """An 8^3 phantom with its mask, field and a depth-1 generator."""
    d = tmp_path_factory.mktemp("audit")
    files = {"spec": write(d / "s.cfg", AUDIT_SPEC), "chi": str(d / "chi.dbv"),
             "mask": str(d / "m.dbv"), "field": str(d / "b.dbv"),
             "gen": str(d / "g.dbc")}
    assert cli.main(["phantom", "--spec", files["spec"], "--out", files["chi"],
                     "--mask-out", files["mask"]]) == 0
    assert cli.main(["forward", "--chi", files["chi"], "--out", files["field"]]) == 0
    cli.save_checkpoint(build_generator(depth=1, base_channels=2), files["gen"])
    return files


def audit_argv(command: str, f: dict, out: Path) -> list[str]:
    """One-step settings on the 8^3 inputs; every output goes under ``out``."""
    o = lambda name: str(out / name)  # noqa: E731
    patch = ["--epochs", "1", "--patches-per-epoch", "1", "--patch-size", "8",
             "--gen-depth", "1", "--gen-channels", "2"]
    return [command] + {
        "phantom": ["--spec", f["spec"], "--out", o("c.dbv"), "--mask-out", o("m.dbv")],
        "forward": ["--chi", f["chi"], "--out", o("b.dbv"), "--mask", f["mask"],
                    "--mag-out", o("mag.dbv"), "--kernel-out", o("k.dbv"),
                    "--noise-sigma", "0.01"],
        "naive": ["--field", f["field"], "--out", o("x.dbv")],
        "tkd": ["--field", f["field"], "--out", o("x.dbv")],
        "medi": ["--field", f["field"], "--magnitude", f["mask"], "--out", o("x.dbv"),
                 "--trace", o("t.csv"), "--iters", "1"],
        "cgls": ["--field", f["field"], "--weights", f["mask"], "--out", o("x.dbv"),
                 "--trace", o("t.csv"), "--iters", "1"],
        "train": ["--fields", f["field"], "--chis", f["chi"], "--out-gen", o("g.dbc"),
                  "--out-disc", o("d.dbc"), "--log", o("log.csv"),
                  "--checkpoint-dir", o("ck"), "--disc-layers", "1",
                  "--disc-channels", "2"] + patch,
        "infer": ["--field", f["field"], "--gen", f["gen"], "--out", o("x.dbv"),
                  "--patch-size", "8"],
        "dip": ["--field", f["field"], "--out", o("x.dbv"), "--trace", o("t.csv"),
                "--iters", "1", "--depth", "1", "--channels", "2"],
        "uqsm": ["--fields", f["field"], "--out-gen", o("g.dbc"), "--trace", o("t.csv"),
                 "--checkpoint-dir", o("ck")] + patch,
        "eval": ["--truth", f["chi"], "--recon", f["chi"], "--window", "3",
                 "--roi", f"r={f['mask']}", "--roi-means", o("r.csv"), "--out", o("e.csv")],
        "gradcheck": ["--cases", "1", "--samples", "1"],
    }[command]


def check_run(command: str, key: str, value: str, extra: list[str], f: dict,
              out: Path, capsys) -> None:
    out.mkdir()
    argv = audit_argv(command, f, out)
    flag = f"--{key.replace('_', '-')}"
    if extra[0] == "--config" and flag in argv:  # a flag would beat the file
        i = argv.index(flag)
        del argv[i:i + 2]
    code = run_bounded(argv + extra)
    err = capsys.readouterr().err
    ok = admits(command, key, value)
    label = f"{command} {extra} -> {code}: {err.strip()}"
    if ok is False or code == 1:
        assert ok is not True and code == 1, label
        assert key in err or flag in err or NAMED.get(key, key) in err, label
        assert not any(out.iterdir()), label
    else:
        assert code in (0, 2), label


class TestNumericSurface:
    """Every int or float option and every config-table key, run with nan,
    +-inf, 0 and -1: a value outside the setting's domain exits 1, names the
    setting and writes nothing; a value inside it runs (0, or 2 when the
    run diverges); nothing hangs."""

    @pytest.mark.parametrize("command, flag", numeric_flags(),
                             ids=lambda x: x.lstrip("-"))
    def test_flag_values(self, command, flag, audit_inputs, tmp_path, capsys):
        key = flag[2:].replace("-", "_")
        for i, value in enumerate(AUDIT_VALUES):
            check_run(command, key, value, [f"{flag}={value}"], audit_inputs,
                      tmp_path / str(i), capsys)

    @pytest.mark.parametrize("command, key",
                             [(c, row[0]) for c, t in TABLES.items() for row in t])
    def test_config_keys(self, command, key, audit_inputs, tmp_path, capsys):
        typ = next(cli._setting(*row[:3])[1] for row in TABLES[command] if row[0] == key)
        value = "-1" if typ is int else "nan"
        cfg = write(tmp_path / "t.cfg", f"{key} = {value}\n")
        check_run(command, key, value, ["--config", cfg], audit_inputs,
                  tmp_path / "out", capsys)

    def test_domains_name_real_settings(self):
        keys = {flag[2:].replace("-", "_") for _, flag in numeric_flags()}
        assert set(DOMAIN) | set(NAMED) <= keys


class TestClosedGaps:
    """Values that used to run, or escape cli.main as a bare ValueError, now
    exit 1 with the setting named and nothing written."""

    def run(self, argv, out, capsys) -> str:
        assert run_bounded(argv) == 1
        assert not any(out.iterdir())
        return capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("naive", ["--eps=inf"]), ("cgls", ["--tol=nan"]), ("cgls", ["--tol=inf"]),
        ("cgls", ["--tol=-1"]), ("forward", ["--seed=-1"]), ("train", ["--seed=-1"]),
        ("train", ["--gen-seed=-1"]), ("train", ["--disc-seed=-1"]),
        ("uqsm", ["--seed=-1"]), ("dip", ["--seed=-1"]), ("gradcheck", ["--seed=-1"]),
    ])
    def test_flag(self, command, extra, audit_inputs, tmp_path, capsys):
        # the forward argv adds noise, so its seed is drawn from
        name = extra[0][2:].split("=")[0]
        name = "seed" if name.endswith("seed") else name
        err = self.run(audit_argv(command, audit_inputs, tmp_path) + extra,
                       tmp_path, capsys)
        assert f"qsmkit: error: {name} must be" in err

    def test_seed_in_config(self, audit_inputs, tmp_path, capsys):
        cfg = write(tmp_path / "t.cfg", "gen_seed = -1\n")
        out = tmp_path / "out"
        out.mkdir()
        err = self.run(audit_argv("train", audit_inputs, out) + ["--config", cfg],
                       out, capsys)
        assert "qsmkit: error: seed must be" in err

    @pytest.mark.parametrize("line", ["sphere = 4 4 4 nan 0.1",
                                      "sphere = nan 4 4 2 0.1",
                                      "box = 1 1 1 nan 2 2 0.1"])
    def test_nan_phantom_geometry(self, line, tmp_path, capsys):
        spec = write(tmp_path / "s.cfg", f"dims = 8 8 8\n{line}\n")
        out = tmp_path / "out"
        out.mkdir()
        err = self.run(["phantom", "--spec", spec, "--out", str(out / "c.dbv")],
                       out, capsys)
        assert f"qsmkit: error: {line.split()[0]}" in err

    def test_phantom_shape_covering_no_voxel_centre(self, tmp_path, capsys):
        spec = write(tmp_path / "s.cfg", "dims = 8 8 8\nsphere = 4 4 4 3 0.1\n"
                     "sphere = 2.2 2.2 2.2 0.1 0.5\n")
        out = tmp_path / "out"
        out.mkdir()
        err = self.run(["phantom", "--spec", spec, "--out", str(out / "c.dbv"),
                        "--mask-out", str(out / "m.dbv")], out, capsys)
        assert "qsmkit: error: shape Sphere(" in err and "covers no voxel centre" in err


def readme_blocks():
    """Yield (kind, payload) for each fenced block: config files carry a
    `# file: NAME` first line; bash blocks hold qsmkit commands."""
    if not README.exists():
        pytest.fail("README.md is missing")
    blocks = []
    lines = README.read_text().splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("```") and line != "```":
            lang = line[3:].strip()
            body = []
            i += 1
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            blocks.append((lang, body))
        i += 1
    return blocks


class TestReadmeExamples:
    def test_every_example_command_runs(self, tmp_path):
        # the children run in tmp_path, where a relative PYTHONPATH entry such
        # as ``src`` no longer finds the package; the absolute root of the
        # qsmkit this suite imported goes first, so no other copy wins either
        env = os.environ.copy()
        root = str(Path(qsmkit.__file__).resolve().parents[1])
        rest = env.get("PYTHONPATH")
        env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
        ran = 0
        for lang, body in readme_blocks():
            if lang == "text" and body and body[0].startswith("# file:"):
                name = body[0].split(":", 1)[1].strip()
                (tmp_path / name).write_text("\n".join(body[1:]) + "\n")
                continue
            if lang not in ("bash", "sh", "shell"):
                continue
            for raw in body:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                assert line.startswith("qsmkit "), (
                    f"README example must invoke qsmkit, got: {line}")
                argv = [sys.executable, "-m", "qsmkit.cli",
                        *shlex.split(line)[1:]]
                proc = subprocess.run(argv, cwd=tmp_path, env=env,
                                      capture_output=True, text=True,
                                      timeout=600)
                assert proc.returncode == 0, (
                    f"README command failed: {line}\n"
                    f"PYTHONPATH={env['PYTHONPATH']}\n{proc.stderr}")
                ran += 1
        assert ran >= 8, f"README shows only {ran} runnable commands"
