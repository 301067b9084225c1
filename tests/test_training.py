"""Tests for patch sampling, augmentation, the training loops, deep-prior
optimization, and stitched inference: determinism, unpairedness, transform
group identities, counting oracles, and descent smoke checks."""

import ast
import dataclasses
import inspect
import logging
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import qsmkit.training as tr
from qsmkit import autodiff as ad
from qsmkit import losses
from qsmkit.autodiff import Tensor
from qsmkit.classical import MediParams, cg_least_squares
from qsmkit.dipole import build_dipole, forward_field
from qsmkit.errors import InputError, NumericalError, require
from qsmkit.gradcheck import run_suite
from qsmkit.losses import LossWeights, dip_loss
from qsmkit.network import (
    build_discriminator,
    build_generator,
    forward_generator,
    load_checkpoint,
)
from qsmkit.phantom import SimulatedCase, make_random_piecewise, simulate_case
from qsmkit.training import (
    TrainConfig,
    UnpairedDataset,
    augment,
    infer_stitched,
    optimize_dip,
    sample_patches,
    train_cycleqsm,
    train_uqsm,
    window_origins,
    write_log_csv,
)
from qsmkit.volume import Mask, RealVolume, VolumeMeta

META12 = VolumeMeta((12, 12, 12), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))


def full_mask(meta):
    return Mask(meta, np.ones(meta.dims))


def make_dataset(meta=META12, n=2, paired=False, noise=0.0, blobs=4):
    chis = [make_random_piecewise(meta, blobs, seed=s) for s in range(n)]
    cases = [simulate_case(c, full_mask(meta), noise_sigma=noise, seed=i)
             for i, c in enumerate(chis)]
    if not paired:
        chis = [make_random_piecewise(meta, blobs, seed=s)
                for s in range(10, 10 + n)]
    return UnpairedDataset(tuple(cases), tuple(chis))


class StubRng:
    """Deterministic stand-in driving augment: three flip coins, then k."""

    def __init__(self, flips, k):
        self.flips = np.asarray(flips, dtype=np.int64)
        self.k = k

    def integers(self, lo, hi=None, size=None):
        return self.flips if size == 3 else self.k


class TestConfig:
    def test_defaults(self):
        assert TrainConfig().infer_stride is None
        assert inspect.signature(train_cycleqsm).parameters["weights"].default == LossWeights()

    @pytest.mark.parametrize("kw", [
        {"epochs": 0}, {"patches_per_epoch": 0}, {"patch_size": 1},
        {"lr": 0.0}, {"lr": np.nan}, {"beta1": 1.0}, {"beta2": -0.1},
        {"seed": -1}, {"batch_size": 0}, {"beta1": -0.5},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(InputError):
            TrainConfig(**kw)

    def test_holds_what_both_patch_trainers_read(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "epochs", "patches_per_epoch", "patch_size", "infer_stride", "lr",
            "beta1", "beta2", "seed", "batch_size"]

    @pytest.mark.parametrize("name", ["weights", "norm", "mask_losses",
                                      "d_steps_per_g_step"])
    def test_objective_settings_belong_to_train_cycleqsm(self, name):
        param = inspect.signature(train_cycleqsm).parameters[name]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            TrainConfig(**{name: param.default})


class TestDataset:
    def test_requires_both_sides(self):
        ds = make_dataset()
        with pytest.raises(InputError, match="at least one"):
            UnpairedDataset((), ds.chi_volumes)
        with pytest.raises(InputError, match="at least one"):
            UnpairedDataset(ds.field_cases, ())

    def test_rejects_mixed_geometry(self):
        ds = make_dataset()
        other = VolumeMeta((12, 12, 12), (2.0, 2.0, 2.0), (0.0, 0.0, 1.0))
        with pytest.raises(InputError, match="share voxel size"):
            UnpairedDataset(ds.field_cases,
                            (make_random_piecewise(other, 3, seed=0),))

    def test_patch_meta(self):
        meta = make_dataset().patch_meta(8)
        assert meta.dims == (8, 8, 8)
        assert meta.voxel_size == META12.voxel_size
        assert meta.b0_dir == META12.b0_dir


def encoded_dataset(dims=(6, 6, 6)):
    """Field and chi volumes whose voxel values encode the flat index, so a
    patch's corner value reveals its origin."""
    meta = VolumeMeta(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
    enc = np.arange(np.prod(dims), dtype=np.float64).reshape(dims)
    case = SimulatedCase(
        chi=RealVolume(meta, enc), field=RealVolume(meta, enc),
        magnitude=RealVolume(meta, np.ones(dims)), mask=full_mask(meta))
    return UnpairedDataset((case,), (RealVolume(meta, enc),))


class TestSampling:
    def test_patch_equal_to_volume(self):
        ds = make_dataset()
        cfg = TrainConfig(patch_size=12)
        fields, chis, masks = sample_patches(ds, cfg,
                                             np.random.default_rng(0), 2)
        for (phase, mag), chi, mask in zip(fields, chis, masks):
            assert np.array_equal(phase, ds.field_cases[0].field.data) or \
                np.array_equal(phase, ds.field_cases[1].field.data)
            assert mag.shape == (12, 12, 12)
            assert np.array_equal(mask, np.ones((12, 12, 12)))

    def test_same_seed_same_sequence(self):
        ds = make_dataset()
        cfg = TrainConfig(patch_size=8)
        a = sample_patches(ds, cfg, np.random.default_rng(7), 5)
        b = sample_patches(ds, cfg, np.random.default_rng(7), 5)
        for xs, ys in zip(a, b):
            for x, y in zip(xs, ys):
                if isinstance(x, tuple):
                    assert all(np.array_equal(u, v) for u, v in zip(x, y))
                else:
                    assert np.array_equal(x, y)

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_must_be_positive(self, count):
        with pytest.raises(InputError, match=rf"^count must be >= 1 and an integer, got {count}$"):
            sample_patches(encoded_dataset(), TrainConfig(patch_size=4),
                           np.random.default_rng(0), count)

    def test_too_small_volume_rejected(self):
        ds = make_dataset()
        with pytest.raises(InputError, match="smaller than patch"):
            sample_patches(ds, TrainConfig(patch_size=16),
                           np.random.default_rng(0))

    def test_chi_draw_uses_independent_uniform_index(self):
        # permuting the chi list with the same seed swaps which constant is
        # drawn, draw for draw
        meta = META12
        case = make_dataset().field_cases[0]
        one = RealVolume(meta, np.full(meta.dims, 1.0))
        two = RealVolume(meta, np.full(meta.dims, 2.0))
        cfg = TrainConfig(patch_size=8)
        _, chis_a, _ = sample_patches(UnpairedDataset((case,), (one, two)),
                                      cfg, np.random.default_rng(3), 20)
        _, chis_b, _ = sample_patches(UnpairedDataset((case,), (two, one)),
                                      cfg, np.random.default_rng(3), 20)
        vals_a = [c[0, 0, 0] for c in chis_a]
        vals_b = [c[0, 0, 0] for c in chis_b]
        assert vals_a != vals_b
        assert vals_b == [3.0 - v for v in vals_a]

    def test_origin_distribution_uniform(self):
        # 6^3 volume, 4^3 patch: 27 equally likely origins per stream
        ds = encoded_dataset()
        cfg = TrainConfig(patch_size=4)
        fields, chis, _ = sample_patches(ds, cfg, np.random.default_rng(0),
                                         10_000)
        for corner_vals in ([p[0, 0, 0] for p, _ in fields],
                            [c[0, 0, 0] for c in chis]):
            origins = np.unravel_index(np.asarray(corner_vals, dtype=int),
                                       (6, 6, 6))
            cells = np.ravel_multi_index(origins, (3, 3, 3))
            counts = np.bincount(cells, minlength=27)
            assert stats.chisquare(counts).pvalue > 0.01

    def test_mask_rides_with_field_draw(self):
        ds = encoded_dataset()
        cfg = TrainConfig(patch_size=4)
        fields, _, masks = sample_patches(ds, cfg, np.random.default_rng(1), 4)
        for (phase, mag), mask in zip(fields, masks):
            assert np.array_equal(mag, np.ones((4, 4, 4)))
            assert np.array_equal(mask, np.ones((4, 4, 4)))
            assert phase.shape == (4, 4, 4)


def patch_meta(b0=(0.0, 0.0, 1.0), voxel=(1.0, 1.0, 1.0), dims=(4, 4, 4)) -> VolumeMeta:
    return VolumeMeta(dims, voxel, b0)


class TestAugment:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.normal(size=(4, 4, 4))

    def test_identity_draws(self):
        out, = augment([self.x], StubRng((0, 0, 0), 0), patch_meta())
        assert np.array_equal(out, self.x)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_double_flip_is_identity(self, axis):
        flips = [0, 0, 0]
        flips[axis] = 1
        once, = augment([self.x], StubRng(flips, 0), patch_meta())
        twice, = augment([once], StubRng(flips, 0), patch_meta())
        assert not np.array_equal(once, self.x)
        assert np.array_equal(twice, self.x)

    def test_four_quarter_turns_are_identity(self):
        out = self.x
        for _ in range(4):
            out, = augment([out], StubRng((0, 0, 0), 1), patch_meta())
        assert np.array_equal(out, self.x)

    def test_rotation_plane_perpendicular_to_b0(self):
        out, = augment([self.x], StubRng((0, 0, 0), 1), patch_meta())
        assert np.array_equal(out, np.rot90(self.x, 1, axes=(0, 1)))
        out, = augment([self.x], StubRng((0, 0, 0), 1), patch_meta(b0=(1, 0, 0)))
        assert np.array_equal(out, np.rot90(self.x, 1, axes=(1, 2)))

    def test_group_transformed_identically(self):
        rng = np.random.default_rng(9)
        mask = (rng.uniform(size=(4, 4, 4)) > 0.5).astype(np.float64)
        for seed in range(5):
            outs = augment([self.x, self.x, mask],
                           np.random.default_rng(seed), patch_meta())
            assert np.array_equal(outs[0], outs[1])
            assert set(np.unique(outs[2])) <= {0.0, 1.0}

    def test_oblique_b0_skips_rotation(self, caplog):
        with caplog.at_level(logging.INFO, logger="qsmkit.training"):
            out, = augment([self.x], StubRng((0, 0, 0), 1),
                           patch_meta(b0=(0.0, 0.6, 0.8)))
        assert np.array_equal(out, self.x)
        assert any("rotation augmentation skipped" in r.message
                   for r in caplog.records)

    def test_aligned_b0_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="qsmkit.training"):
            augment([self.x], StubRng((0, 0, 0), 1), patch_meta())
        assert not caplog.records

    def test_odd_rotation_needs_square_plane(self):
        rect = np.zeros((2, 3, 4))
        meta = patch_meta(dims=rect.shape)
        with pytest.raises(InputError, match="equal lengths"):
            augment([rect], StubRng((0, 0, 0), 1), meta)
        out, = augment([rect], StubRng((0, 0, 0), 2), meta)
        assert out.shape == rect.shape  # half turns keep any shape

    def test_oblique_b0_axes_flip_together(self):
        # b0 has components on axes 0 and 2: both take axis 0's coin, and
        # axis 1, which b0 has no component on, keeps its own
        meta = patch_meta(b0=(0.3, 0.0, 0.954))
        out, = augment([self.x], StubRng((1, 0, 0), 0), meta)
        assert np.array_equal(out, np.flip(self.x, axis=(0, 2)))
        out, = augment([self.x], StubRng((0, 1, 1), 0), meta)
        assert np.array_equal(out, np.flip(self.x, axis=1))

    def test_quarter_turn_needs_equal_in_plane_voxels(self):
        meta = patch_meta(voxel=(1.0, 1.5, 1.0))
        out, = augment([self.x], StubRng((0, 0, 0), 1), meta)
        assert np.array_equal(out, self.x)
        out, = augment([self.x], StubRng((0, 0, 0), 3), meta)
        assert np.array_equal(out, np.rot90(self.x, 2, axes=(0, 1)))
        # voxels unequal only along b0 keep the quarter turn
        out, = augment([self.x], StubRng((0, 0, 0), 1), patch_meta(voxel=(1.0, 1.0, 2.0)))
        assert np.array_equal(out, np.rot90(self.x, 1, axes=(0, 1)))

    def test_rng_stream_independent_of_geometry(self):
        ends = []
        for meta in (patch_meta(), patch_meta(b0=(0.5, 0.5, 0.707), voxel=(1.0, 1.5, 1.0))):
            rng = np.random.default_rng(3)
            augment([self.x], rng, meta)
            ends.append(rng.bit_generator.state)
        ref = np.random.default_rng(3)
        ref.integers(0, 2, size=3)
        ref.integers(4)
        assert ends == [ref.bit_generator.state] * 2

    @pytest.mark.parametrize("voxel", [(1.0, 1.0, 1.0), (1.0, 1.5, 1.0)])
    @pytest.mark.parametrize("b0", [(0.0, 0.0, 1.0), (0.3, 0.0, 0.954), (0.5, 0.5, 0.707)])
    def test_field_stays_the_dipole_field_of_chi(self, b0, voxel):
        meta = patch_meta(b0=b0, voxel=voxel, dims=(16, 16, 16))
        kernel = build_dipole(meta)
        chi = make_random_piecewise(meta, 5, seed=1)
        field = forward_field(chi, kernel).data
        for seed in range(24):
            b, c = augment([field, chi.data], np.random.default_rng(seed), meta)
            err = np.abs(forward_field(RealVolume(meta, c), kernel).data - b).max()
            assert err <= 1e-12 * np.abs(field).max(), (seed, err)

    def test_validation(self):
        assert augment([], np.random.default_rng(0), patch_meta()) == []
        with pytest.raises(InputError, match=r"patch shape \(2, 2, 2\) does not match "
                                             r"patch dims \(4, 4, 4\)"):
            augment([self.x, np.zeros((2, 2, 2))], np.random.default_rng(0), patch_meta())
        with pytest.raises(InputError, match=r"patch shape \(4, 4\) does not match"):
            augment([np.zeros((4, 4))], np.random.default_rng(0), patch_meta())


def tiny_models():
    gen = build_generator(depth=2, base_channels=4, seed=0)
    disc = build_discriminator(n_layers=1, base_channels=4, seed=1)
    return gen, disc


def fail_after(monkeypatch, name, ok_calls):
    """Make training.<name> raise NumericalError after ok_calls calls."""
    real = getattr(tr, name)
    calls = {"n": 0}

    def flaky(*args, **kw):
        calls["n"] += 1
        if calls["n"] > ok_calls:
            raise NumericalError("synthetic overflow")
        return real(*args, **kw)

    monkeypatch.setattr(tr, name, flaky)


class TestTrainCycle:
    def test_deterministic_rerun(self, tmp_path):
        ds = make_dataset()
        cfg = TrainConfig(epochs=2, patches_per_epoch=3, patch_size=8,
                          lr=1e-4, seed=11)
        logs = []
        finals = []
        for run in range(2):
            gen, disc = tiny_models()
            path = tmp_path / f"log{run}.csv"
            gen, rows = train_cycleqsm(ds, gen, disc, cfg, log_path=path)
            logs.append(path.read_bytes())
            finals.append({n: t.data.copy() for n, t in gen.params.items()})
            assert len(rows) == 6
        assert logs[0] == logs[1]
        assert all(np.array_equal(finals[0][n], finals[1][n])
                   for n in finals[0])

    def test_log_csv_format(self, tmp_path):
        ds = make_dataset()
        cfg = TrainConfig(epochs=2, patches_per_epoch=2, patch_size=8,
                          lr=1e-4, seed=1)
        gen, disc = tiny_models()
        path = tmp_path / "log.csv"
        _, rows = train_cycleqsm(ds, gen, disc, cfg, log_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,epoch,cycle,gan_g,gan_d,grad,tv,total"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == rows[0].cycle
        assert lines[3].split(",")[1] == "1"  # third step starts epoch 1

    def test_checkpoints_per_epoch(self, tmp_path):
        ds = make_dataset()
        cfg = TrainConfig(epochs=2, patches_per_epoch=2, patch_size=8,
                          lr=1e-4, seed=2)
        gen, disc = tiny_models()
        gen, _ = train_cycleqsm(ds, gen, disc, cfg, checkpoint_dir=tmp_path)
        for name in ("gen_epoch000.dbc1", "gen_epoch001.dbc1",
                     "disc_epoch000.dbc1", "disc_epoch001.dbc1"):
            assert (tmp_path / name).exists()
        reloaded = load_checkpoint(tmp_path / "gen_epoch001.dbc1")
        for n, t in gen.params.items():
            assert np.array_equal(reloaded.params[n].data, t.data)

    def test_halt_saves_last_good(self, tmp_path, monkeypatch):
        fail_after(monkeypatch, "total_generator_loss", 1)
        ds = make_dataset()
        cfg = TrainConfig(epochs=1, patches_per_epoch=3, patch_size=8,
                          lr=1e-4, seed=3)
        gen, disc = tiny_models()
        with pytest.raises(NumericalError, match="generator step 1"):
            train_cycleqsm(ds, gen, disc, cfg, checkpoint_dir=tmp_path)
        assert (tmp_path / "gen_last_good.dbc1").exists()
        assert (tmp_path / "disc_last_good.dbc1").exists()
        load_checkpoint(tmp_path / "gen_last_good.dbc1")

    def test_mask_losses_flag_changes_objective(self):
        meta = META12
        chis = [make_random_piecewise(meta, 4, seed=s) for s in range(2)]
        m = np.zeros(meta.dims)
        m[2:10, 2:10, 2:10] = 1.0
        mask = Mask(meta, m)
        cases = [simulate_case(c, mask, seed=i) for i, c in enumerate(chis)]
        ds = UnpairedDataset(tuple(cases), tuple(chis))
        outs = []
        for flag in (False, True):
            gen, disc = tiny_models()
            cfg = TrainConfig(epochs=1, patches_per_epoch=2, patch_size=8,
                              lr=1e-4, seed=4)
            _, rows = train_cycleqsm(ds, gen, disc, cfg, mask_losses=flag)
            outs.append(rows[0].cycle)
        assert outs[0] != outs[1]

    def test_extra_discriminator_steps(self):
        ds = make_dataset()
        cfg = TrainConfig(epochs=1, patches_per_epoch=2, patch_size=8,
                          lr=1e-4, seed=5)
        gen, disc = tiny_models()
        _, rows = train_cycleqsm(ds, gen, disc, cfg, d_steps_per_g_step=2)
        assert len(rows) == 2

    def test_extra_discriminator_step_skips_gan_g(self, monkeypatch):
        """An extra discriminator step runs the discriminator once per real
        and once per fake patch; the gan_g pass that ``lsgan_losses`` would
        add changes no byte of the run."""
        calls = []
        forward = losses.forward_discriminator
        monkeypatch.setattr(losses, "forward_discriminator",
                            lambda *a: calls.append(1) or forward(*a))
        cfg = TrainConfig(epochs=1, patches_per_epoch=4, patch_size=8, lr=1e-4,
                          seed=3, batch_size=2)

        def run():
            calls.clear()
            gen, disc = tiny_models()
            _, rows = train_cycleqsm(make_dataset(), gen, disc, cfg, d_steps_per_g_step=2)
            return len(calls), rows, [t.data for m in (gen, disc)
                                      for t in m.params.values()]

        n, rows, params = run()
        # 2 steps of 2 samples: 3 passes each in the objective, 2 in the extra step
        assert n == 2 * 2 * (3 + 2)
        monkeypatch.setattr(tr, "_lsgan_d",
                            lambda *a: losses.lsgan_losses(*a)[0])
        n_old, rows_old, params_old = run()
        assert n_old == 2 * 2 * (3 + 3)
        assert rows == rows_old
        assert all(np.array_equal(a, b) for a, b in zip(params, params_old))

    def test_patch_not_divisible(self):
        ds = make_dataset()
        gen = build_generator(depth=3, base_channels=4, seed=0)  # divisor 4
        disc = build_discriminator(n_layers=1, base_channels=4, seed=1)
        with pytest.raises(InputError, match="divisible"):
            train_cycleqsm(ds, gen, disc, TrainConfig(
                epochs=1, patches_per_epoch=1, patch_size=10))

    def test_patch_too_small_for_disc(self):
        ds = make_dataset()
        gen = build_generator(depth=2, base_channels=4, seed=0)
        disc = build_discriminator(n_layers=3, base_channels=4, seed=1)
        with pytest.raises(InputError, match="strided layers"):
            train_cycleqsm(ds, gen, disc, TrainConfig(
                epochs=1, patches_per_epoch=1, patch_size=8))

    @pytest.mark.parametrize("setting", [{"norm": "huber"}, {"d_steps_per_g_step": 0}],
                             ids=lambda kw: next(iter(kw)))
    def test_rejects_bad_objective_setting_before_writing(self, setting, tmp_path):
        cfg = TrainConfig(epochs=1, patches_per_epoch=1, patch_size=8)
        ckdir, log = tmp_path / "ck", tmp_path / "log.csv"
        with pytest.raises(InputError, match=f"^{next(iter(setting))} must be"):
            train_cycleqsm(make_dataset(), *tiny_models(), cfg, checkpoint_dir=ckdir,
                           log_path=log, **setting)
        assert not any(tmp_path.iterdir())

    def test_gamma_only_training_descends(self):
        # supervised surrogate: paired volumes, adversarial weight off
        meta = VolumeMeta((20, 20, 20), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        ds = make_dataset(meta, n=3, paired=True, blobs=5)
        gen = build_generator(depth=2, base_channels=8, seed=0)
        disc = build_discriminator(n_layers=2, base_channels=4, seed=1)
        cfg = TrainConfig(epochs=1, patches_per_epoch=120, patch_size=12,
                          lr=3e-4, seed=3)
        _, rows = train_cycleqsm(ds, gen, disc, cfg,
                                 weights=LossWeights(10.0, 0.0, 0.0, 0.0))
        tot = [r.total for r in rows]
        assert np.median(tot[-12:]) < 0.5 * np.median(tot[:12])
        assert all(np.isfinite(tot))


class TestWriteLog:
    def test_rejects_bad_steps(self, tmp_path):
        with pytest.raises(InputError, match="steps_per_epoch"):
            write_log_csv([], tmp_path / "x.csv", 0)


class TestWindowOrigins:
    @pytest.mark.parametrize("n,p,s,want", [
        (10, 4, 3, [0, 3, 6]),
        (11, 4, 3, [0, 3, 6, 7]),
        (8, 4, 4, [0, 4]),
        (4, 4, 4, [0]),
        (3, 8, 4, [0]),
        (9, 4, 2, [0, 2, 4, 5]),
    ])
    def test_positions(self, n, p, s, want):
        assert window_origins(n, p, s) == want

    def test_validation(self):
        with pytest.raises(InputError):
            window_origins(8, 0, 2)
        with pytest.raises(InputError):
            window_origins(8, 4, 0)


def identity_gen(phase, magnitude):
    return phase


class CountingGen:
    """Returns a constant patch equal to the running call count, exposing
    per-voxel averaging weights."""

    def __init__(self):
        self.calls = 0

    def __call__(self, phase, magnitude):
        self.calls += 1
        return Tensor(np.full(phase.shape, float(self.calls),
                              dtype=np.float32))


class TestStitched:
    def setup_method(self):
        rng = np.random.default_rng(61)
        self.meta = VolumeMeta((6, 6, 6), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        self.field = RealVolume(self.meta, rng.normal(size=(6, 6, 6)))
        m = np.zeros((6, 6, 6))
        m[1:5, 1:5, 1:5] = 1.0
        self.mask = Mask(self.meta, m)

    def test_identity_generator_round_trips(self):
        cfg = TrainConfig(patch_size=4, infer_stride=2)
        out = infer_stitched(identity_gen, self.field, None, self.mask, cfg)
        assert np.allclose(out.data, self.field.data * self.mask.data,
                           atol=1e-6)

    def test_no_overlap_equals_per_tile(self):
        cfg = TrainConfig(patch_size=3, infer_stride=3)
        gen = CountingGen()
        out = infer_stitched(gen, self.field, None, None, cfg)
        assert gen.calls == 8
        want = np.zeros((6, 6, 6))
        c = 0
        for ox in (0, 3):
            for oy in (0, 3):
                for oz in (0, 3):
                    c += 1
                    want[ox:ox + 3, oy:oy + 3, oz:oz + 3] = c
        assert np.array_equal(out.data, want)

    def test_coverage_matches_loop_oracle(self):
        cfg = TrainConfig(patch_size=4, infer_stride=2)
        out = infer_stitched(CountingGen(), self.field, None, None, cfg)
        acc = np.zeros((6, 6, 6))
        cnt = np.zeros((6, 6, 6))
        c = 0
        for ox in window_origins(6, 4, 2):
            for oy in window_origins(6, 4, 2):
                for oz in window_origins(6, 4, 2):
                    c += 1
                    sl = (slice(ox, ox + 4), slice(oy, oy + 4),
                          slice(oz, oz + 4))
                    acc[sl] += c
                    cnt[sl] += 1
        assert np.all(cnt >= 1)
        assert np.allclose(out.data, acc / cnt, atol=1e-12)

    def test_small_volume_padded_path(self):
        meta = VolumeMeta((3, 4, 5), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        field = RealVolume(meta, np.random.default_rng(0).normal(size=(3, 4, 5)))
        cfg = TrainConfig(patch_size=8)
        out = infer_stitched(identity_gen, field, None, None, cfg)
        assert out.meta == meta
        assert np.allclose(out.data, field.data, atol=1e-6)

    def test_real_generator_and_geometry_checks(self):
        gen = build_generator(depth=2, base_channels=4, seed=0)
        cfg = TrainConfig(patch_size=4, infer_stride=4)
        out = infer_stitched(gen, self.field, None, self.mask, cfg)
        assert np.isfinite(out.data).all()
        assert np.all(out.data[self.mask.data == 0] == 0)
        other = VolumeMeta((4, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        bad = RealVolume(other, np.ones((4, 4, 4)))
        with pytest.raises(InputError, match="magnitude"):
            infer_stitched(gen, self.field, bad, None, cfg)
        with pytest.raises(InputError, match="divisible"):
            infer_stitched(build_generator(depth=3, base_channels=4, seed=0),
                           self.field, None, None,
                           TrainConfig(patch_size=6, infer_stride=6))


class TestInferStride:
    """The window stride belongs to ``infer_stitched``: it derives the
    default and checks the value, and the trainers never read it."""

    FIELD = RealVolume(META12, np.random.default_rng(5).normal(size=META12.dims))

    def test_default_is_half_the_patch(self):
        gen = CountingGen()
        out = infer_stitched(gen, self.FIELD, None, None, TrainConfig(patch_size=4))
        assert gen.calls == len(window_origins(12, 4, 2)) ** 3
        half = infer_stitched(CountingGen(), self.FIELD, None, None,
                              TrainConfig(patch_size=4, infer_stride=2))
        assert np.array_equal(out.data, half.data)
        gen = CountingGen()
        infer_stitched(gen, self.FIELD, None, None, TrainConfig(patch_size=3))
        assert gen.calls == len(window_origins(12, 3, 1)) ** 3

    def test_explicit_stride(self):
        gen = CountingGen()
        infer_stitched(gen, self.FIELD, None, None,
                       TrainConfig(patch_size=4, infer_stride=4))
        assert gen.calls == 3 ** 3

    @pytest.mark.parametrize("patch, stride", [(16, 0), (8, 9), (8, -1), (8, True)])
    def test_rejects_bad_stride(self, patch, stride):
        gen = CountingGen()
        cfg = TrainConfig(patch_size=patch, infer_stride=stride)
        with pytest.raises(InputError, match="^infer_stride"):
            infer_stitched(gen, self.FIELD, None, None, cfg)
        assert gen.calls == 0

    def test_trainers_take_any_stride(self):
        cfg = TrainConfig(epochs=1, patches_per_epoch=1, patch_size=8, infer_stride=9)
        gen, disc = tiny_models()
        train_cycleqsm(make_dataset(), gen, disc, cfg)
        train_uqsm(make_dataset(), gen, cfg)
        with pytest.raises(InputError, match="infer_stride 9 > patch_size 8"):
            infer_stitched(gen, self.FIELD, None, None, cfg)


class TestDip:
    def setup_method(self):
        self.meta = VolumeMeta((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        self.kernel = build_dipole(self.meta)
        chi = make_random_piecewise(self.meta, 3, seed=7)
        self.case = simulate_case(chi, full_mask(self.meta))

    def run_dip(self, **kw):
        args = dict(lam=1e-3, iters=150, lr=1e-3, seed=0, depth=2,
                    base_channels=4)
        args.update(kw)
        return optimize_dip(self.case.field, self.case.magnitude,
                            self.case.mask, self.kernel, **args)

    def test_objective_trace_descends(self):
        _, trace = self.run_dip()
        assert len(trace) == 150
        assert np.mean(trace[-8:]) < 0.5 * np.mean(trace[:8])

    def test_deterministic(self):
        a, ta = self.run_dip(iters=10)
        b, tb = self.run_dip(iters=10)
        assert np.array_equal(a.data, b.data)
        assert ta == tb

    def test_large_lambda_flattens_output(self):
        flat, _ = self.run_dip(lam=50.0)
        loose, _ = self.run_dip(lam=0.0)
        assert np.isfinite(flat.data).all()

        def tv(x):
            return sum(np.abs(np.diff(x, axis=a)).sum() for a in range(3))

        assert tv(flat.data) < 0.1 * tv(loose.data)

    def test_returns_best_iterate_value(self):
        _, trace = self.run_dip(iters=15)
        assert min(trace) <= trace[-1]

    def test_halt_keeps_trace(self, tmp_path, monkeypatch):
        fail_after(monkeypatch, "dip_loss", 2)
        log = tmp_path / "trace.csv"
        with pytest.raises(NumericalError, match=(
                r"^training halted at epoch 0, generator step 2: "
                r"synthetic overflow$")):
            self.run_dip(iters=5, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "iteration,objective"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1"]

    def test_validation(self):
        other = VolumeMeta((4, 4, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        with pytest.raises(InputError, match="kernel grid"):
            optimize_dip(RealVolume(other, np.zeros((4, 4, 4))), None, None,
                         self.kernel)
        with pytest.raises(InputError, match="iters"):
            self.run_dip(iters=0)
        with pytest.raises(InputError, match="lr"):
            self.run_dip(lr=0.0)
        meta6 = VolumeMeta((6, 6, 6), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        with pytest.raises(InputError, match="divisible"):
            optimize_dip(RealVolume(meta6, np.zeros((6, 6, 6))), None, None,
                         build_dipole(meta6), depth=3)


class TestUqsm:
    def test_deterministic_and_finite_on_held_out(self):
        ds = make_dataset()
        cfg = TrainConfig(epochs=1, patches_per_epoch=6, patch_size=8,
                          lr=1e-4, seed=9)
        traces = []
        gens = []
        for _ in range(2):
            gen = build_generator(depth=2, base_channels=4, seed=2)
            gen, trace = train_uqsm(ds, gen, cfg)
            traces.append(trace)
            gens.append(gen)
        assert traces[0] == traces[1]
        held = simulate_case(make_random_piecewise(META12, 4, seed=99),
                             full_mask(META12), seed=99)
        phase = Tensor(held.field.data[None].astype(np.float32))
        mag = Tensor(held.magnitude.data[None].astype(np.float32))
        chi = forward_generator(gens[0], phase, mag)
        loss = dip_loss(chi, held.field.data, held.magnitude.data,
                        build_dipole(META12), lam=1e-3)
        assert np.isfinite(loss.item())

    def test_zero_field_objective_floor(self):
        # a zero output on a zero field sits at the smoothing floor
        meta = VolumeMeta((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        kernel = build_dipole(meta)
        loss = dip_loss(Tensor(np.zeros((1, 8, 8, 8))), np.zeros(meta.dims),
                        np.ones(meta.dims), kernel, lam=1e-3)
        assert loss.item() < 1e-5

    def test_checkpoints_written(self, tmp_path):
        ds = make_dataset()
        cfg = TrainConfig(epochs=2, patches_per_epoch=2, patch_size=8,
                          lr=1e-4, seed=10)
        gen = build_generator(depth=2, base_channels=4, seed=3)
        train_uqsm(ds, gen, cfg, checkpoint_dir=tmp_path)
        assert (tmp_path / "gen_epoch000.dbc1").exists()
        assert (tmp_path / "gen_epoch001.dbc1").exists()

    def test_patch_divisibility(self):
        ds = make_dataset()
        gen = build_generator(depth=3, base_channels=4, seed=0)
        with pytest.raises(InputError, match="divisible"):
            train_uqsm(ds, gen, TrainConfig(epochs=1, patches_per_epoch=1,
                                            patch_size=10))

    def test_halt_saves_last_good_and_log(self, tmp_path, monkeypatch):
        fail_after(monkeypatch, "dip_loss", 1)
        cfg = TrainConfig(epochs=2, patches_per_epoch=3, patch_size=8,
                          lr=1e-4, seed=11)
        gen = build_generator(depth=2, base_channels=4, seed=3)
        log = tmp_path / "trace.csv"
        initial = {n: t.data.copy() for n, t in gen.params.items()}
        with pytest.raises(NumericalError, match=(
                r"^training halted at epoch 0, generator step 1: synthetic "
                r"overflow; parameters from before generator step 0 saved to "
                r"gen_last_good.dbc1$")):
            train_uqsm(make_dataset(), gen, cfg, checkpoint_dir=tmp_path,
                       log_path=log)
        # step 0 completed and updated gen; the saved copy predates it
        saved = load_checkpoint(tmp_path / "gen_last_good.dbc1")
        for n in initial:
            assert np.array_equal(saved.params[n].data, initial[n])
        assert any(not np.array_equal(t.data, initial[n])
                   for n, t in gen.params.items())
        assert not (tmp_path / "disc_last_good.dbc1").exists()
        assert len(log.read_text().splitlines()) == 2


class TestOneRunDriver:
    """The optimisation loop is written once: only the driver ``_run`` (its
    ``update`` closure and its initial reset) runs backward, Adam and the
    gradient reset, and only it catches NumericalError."""

    def owners(self, match):
        tree = ast.parse(Path(tr.__file__).read_text())
        found = []
        for fn in tree.body:
            for node in ast.walk(fn):
                if match(node):
                    found.append(getattr(fn, "name", "<module>"))
        return sorted(found)

    def test_backward_and_adam_only_in_update(self):
        def call(node):
            return (isinstance(node, ast.Call)
                    and ast.unparse(node.func).rsplit(".", 1)[-1]
                    in ("adam_step", "backward", "zero_grads"))

        assert self.owners(call) == ["_run"] * 4

    def test_numerical_error_caught_only_in_driver(self):
        def handler(node):
            return (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "NumericalError" in ast.unparse(node.type))

        assert self.owners(handler) == ["_run"]


class TestOneWriterPerFormat:
    """Each file format has one write site: every file write in the package
    happens in ``volume.write_file``, which the DBV1/DBC1 framed writer and
    the CSV writer both call, payloads are decoded only in the framed
    reader, and rows are formatted only in ``csv_text``."""

    def owners(self, match):
        found = []
        for path in sorted(Path(tr.__file__).parent.glob("*.py")):
            for fn in ast.parse(path.read_text()).body:
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and match(node):
                        found.append(f"{path.stem}.{getattr(fn, 'name', '?')}")
        return sorted(found)

    @staticmethod
    def callee(node) -> str:
        return ast.unparse(node.func).rsplit(".", 1)[-1]

    def test_file_writes_only_in_the_two_writers(self):
        def raw_write(node):
            if (self.callee(node) in ("write_bytes", "write_text", "tofile")
                    or ast.unparse(node.func) in ("os.replace", "os.rename")
                    or ast.unparse(node.func).startswith("np.save")):
                return True
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            return self.callee(node) == "open" and any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                for m in modes)

        def write_call(node):
            return self.callee(node) == "write_file"

        assert self.owners(raw_write) == ["volume.write_file", "volume.write_file"]
        assert self.owners(write_call) == ["training.write_csv", "volume.write_framed"]

    def test_payload_decoded_only_in_framed_reader(self):
        def decode(node):
            return self.callee(node) in ("frombuffer", "fromfile", "read_bytes")

        assert self.owners(decode) == ["volume.read_framed",
                                       "volume.read_framed"]

    def test_csv_rows_formatted_only_in_csv_text(self):
        def writer(node):
            return ast.unparse(node.func) in ("csv.writer", "csv.DictWriter")

        assert self.owners(writer) == ["training.csv_text"]


class TestOneDrawPath:
    """Patches are drawn and augmented in one place: ``sample_patches`` and
    ``augment`` are called only inside ``_draw_batch``."""

    def test_sample_and_augment_only_in_draw_batch(self):
        found = []
        for path in sorted(Path(tr.__file__).parent.glob("*.py")):
            for fn in ast.parse(path.read_text()).body:
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1]
                            in ("sample_patches", "augment")):
                        found.append(f"{path.stem}.{getattr(fn, 'name', '?')}")
        assert sorted(found) == ["training._draw_batch", "training._draw_batch"]


def _package_scopes():
    """(qualified name, node) for every top-level statement of the package,
    and for every member of a top-level class."""
    for path in sorted(Path(tr.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                for member in top.body:
                    yield f"{path.stem}.{top.name}.{getattr(member, 'name', '?')}", member
            else:
                yield f"{path.stem}.{getattr(top, 'name', '?')}", top


def _owners(match) -> list[str]:
    return sorted(name for name, scope in _package_scopes()
                  for node in ast.walk(scope) if match(node))


class TestOneGridCheck:
    """Grid equality is written once: no ``==`` or ``!=`` takes a ``.meta``
    operand outside ``require_same_grid``, which checks kernels too."""

    def test_meta_compared_only_in_require_same_grid(self):
        def meta_compare(node):
            return (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(isinstance(x, ast.Attribute) and x.attr == "meta"
                            for x in [node.left] + node.comparators))

        assert _owners(meta_compare) == ["volume.require_same_grid"]


class TestOneEvennessCheck:
    """A spectrum's evenness is checked once: no ``np.array_equal`` compares
    it with its ``k_mirror`` outside ``DipoleKernel.__post_init__``, so
    ``spectral_filter`` takes a kernel and ``autodiff`` never imports the
    mirror. Building an even spectrum with it (``build_dipole``, the gradcheck
    draws) is no check."""

    def test_mirror_compared_only_in_kernel(self):
        def mirror_compare(node):
            return (isinstance(node, ast.Call)
                    and ast.unparse(node.func).rsplit(".", 1)[-1] == "array_equal"
                    and any(isinstance(x, ast.Call) and ast.unparse(x.func) == "k_mirror"
                            for arg in node.args for x in ast.walk(arg)))

        assert _owners(mirror_compare) == ["dipole.DipoleKernel.__post_init__"]

    def test_autodiff_does_not_import_mirror(self):
        tree = ast.parse(Path(ad.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "k_mirror" not in imported


class TestOneSizeRule:
    """The generator's size rule is written once: only
    ``Generator.require_divisible`` reads ``divisor``, so no other code takes
    a size modulo it; the trainers, inference and ``forward_generator`` call
    that method."""

    def test_divisor_read_only_in_require_divisible(self):
        def divisor(node):
            return isinstance(node, ast.Attribute) and node.attr == "divisor"

        assert set(_owners(divisor)) == {"network.Generator.require_divisible"}


class TestOneLayout:
    """Each volume's memory layout is decided once: ``RealVolume`` copies its
    data to C order, and no Fortran-order spelling (``order="F"`` or
    ``"A"``, ``asfortranarray``, ``f_contiguous``) appears outside the DBV1
    reader, which views the x-fastest file before that copy."""

    def test_fortran_order_only_in_dbv1_reader(self):
        def fortran(node):
            if isinstance(node, ast.keyword):
                return (node.arg == "order" and isinstance(node.value, ast.Constant)
                        and node.value.value in ("F", "A"))
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            return name in ("asfortranarray", "f_contiguous")

        assert _owners(fortran) == ["volume._read_dbv1"]


class TestOneAdamOwner:
    """Each model's Adam state is built in one place, the run driver."""

    def test_adam_state_built_only_in_run(self):
        def builds(node):
            return (isinstance(node, ast.Call)
                    and ast.unparse(node.func).rsplit(".", 1)[-1] == "AdamState")

        assert _owners(builds) == ["training._run"]


class TestOneDomainCheck:
    """Every numeric setting is checked by ``errors.require``: no ``raise
    InputError`` sits under an ``if`` that compares a name (or a ``self``
    field) with a number, or calls ``isfinite`` outside an array-wide
    ``np.all``/``np.any``. The checks left inline are structural, not
    settings: the autodiff op arguments, the discriminator's derived map
    width, shape containment in the grid and the VolumeMeta geometry (SSIM
    window parity stays inline too, but compares no name with a number)."""

    STRUCTURAL = [
        ("autodiff.conv3d", "pad > min(k1, k2, k3) - 1 and pad > 0"),
        ("autodiff.conv3d", "stride < 1 or pad < 0"),
        ("autodiff.nn_upsample", "factor < 1"),
        ("network.Discriminator.require_patch", "n < 2"),
        ("phantom._check_inside",
         "any((l < 0 or h > f for l, h, f in zip(lo, hi, fov)))"),
        ("volume.VolumeMeta.__post_init__", "len(dims) != 3 or any((d < 1 for d in dims))"
         " or any((isinstance(r, (bool, np.bool_)) or r != d for r, d in zip(raw, dims)))"),
        ("volume.VolumeMeta.__post_init__",
         "len(voxel) != 3 or any((not (np.isfinite(s) and s > 0) for s in voxel))"),
        ("volume.VolumeMeta.__post_init__", "norm == 0.0"),
    ]

    @staticmethod
    def hand_check(test) -> bool:
        def number(n):
            n = n.operand if isinstance(n, ast.UnaryOp) else n
            if isinstance(n, ast.BinOp):
                return number(n.left) and number(n.right)
            return isinstance(n, ast.Constant) and type(n.value) in (int, float)

        def setting(n):
            return isinstance(n, ast.Name) or (
                isinstance(n, ast.Attribute) and ast.unparse(n.value) == "self")

        arrays = {id(m) for n in ast.walk(test) if isinstance(n, ast.Call)
                  and ast.unparse(n.func) in ("np.all", "np.any")
                  for a in n.args for m in ast.walk(a)}
        for n in ast.walk(test):
            if id(n) in arrays:
                continue
            if isinstance(n, ast.Compare):
                ops = [n.left] + n.comparators
                if any(map(setting, ops)) and any(map(number, ops)):
                    return True
            if isinstance(n, ast.Call) and ast.unparse(n.func).endswith("isfinite"):
                return True
        return False

    def test_settings_checked_only_by_require(self):
        found = []
        for name, scope in _package_scopes():
            if name == "errors.require":
                continue
            for node in ast.walk(scope):
                if (isinstance(node, ast.If) and self.hand_check(node.test)
                        and any(isinstance(r, ast.Raise) and r.exc is not None
                                and ast.unparse(r.exc).startswith("InputError(")
                                for r in ast.walk(node))):
                    found.append((name, ast.unparse(node.test)))
        assert sorted(found) == self.STRUCTURAL

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_never_passes(self, value):
        with pytest.raises(InputError, match="x must be finite, got"):
            require("x", value)

    def test_bounds_and_message(self):
        require("seed", 10 ** 400, ge=0)  # a Python int is finite however large
        require("beta1", 0.0, ge=0, lt=1)
        with pytest.raises(InputError, match=r"^k1 and k2 must be > 0 and finite, got 0.0$"):
            require("k1 and k2", 0.01, 0.0, gt=0)
        with pytest.raises(InputError, match=r"^beta2 must be >= 0 and < 1 and finite, got 1$"):
            require("beta2", 1, ge=0, lt=1)


META8 = VolumeMeta((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
FIELD8 = RealVolume(META8, np.zeros(META8.dims))
# every integer setting a library caller can reach, given a fraction or a bool
INTEGER_SETTINGS = {
    "MediParams.iters": lambda: MediParams(iters=2.5),
    "cg_least_squares.iters": lambda: cg_least_squares(FIELD8, build_dipole(META8), iters=2.5),
    "optimize_dip.iters": lambda: optimize_dip(FIELD8, None, None, build_dipole(META8),
                                               iters=1.5),
    "optimize_dip.seed": lambda: optimize_dip(FIELD8, None, None, build_dipole(META8),
                                              iters=1, seed=0.5),
    "run_suite.n_cases": lambda: run_suite(n_cases=1.5),
    "run_suite.seed": lambda: run_suite(n_cases=1, seed=True),
    "check_gradients.samples": lambda: ad.check_gradients(
        lambda t: ad.tsum(t), [Tensor(np.ones(2), requires_grad=True)], samples=2.5),
    "make_random_piecewise.n_blobs": lambda: make_random_piecewise(META8, 1.5),
    "sample_patches.count": lambda: sample_patches(encoded_dataset(), TrainConfig(patch_size=4),
                                                   np.random.default_rng(0), 1.5),
    "simulate_case.seed": lambda: simulate_case(FIELD8, full_mask(META8), seed=0.5),
    "TrainConfig.epochs": lambda: TrainConfig(epochs=1.5),
    "TrainConfig.patches_per_epoch": lambda: TrainConfig(patches_per_epoch=4.0),
    "TrainConfig.patch_size": lambda: TrainConfig(patch_size=8.0),
    "train_cycleqsm.d_steps_per_g_step": lambda: train_cycleqsm(
        encoded_dataset(), *tiny_models(), TrainConfig(patch_size=4), d_steps_per_g_step=True),
    "TrainConfig.batch_size": lambda: TrainConfig(batch_size=1.5),
    "TrainConfig.seed": lambda: TrainConfig(seed=0.5),
    "build_generator.depth": lambda: build_generator(depth=2.0),
    "build_generator.base_channels": lambda: build_generator(base_channels=4.5),
    "build_generator.seed": lambda: build_generator(seed=1.5),
    "build_discriminator.n_layers": lambda: build_discriminator(n_layers=True),
    "window_origins.stride": lambda: window_origins(16, 8, 4.0),
    "infer_stitched.infer_stride": lambda: infer_stitched(
        identity_gen, FIELD8, None, None, TrainConfig(patch_size=8, infer_stride=4.5)),
    "write_log_csv.steps_per_epoch": lambda: write_log_csv([], os.devnull, 1.5),
}


class TestIntegerSettings:
    """Counts and seeds go through ``require(..., integer=True)``: a fraction
    or a bool is an InputError naming the setting, not a TypeError from
    ``range`` or a silently truncated count."""

    def test_require_integer(self):
        require("seed", np.int64(3), 10 ** 400, ge=0, integer=True)
        for bad in (2.5, 3.0, True, np.float64(2.0)):
            with pytest.raises(InputError,
                               match=rf"^iters must be >= 1 and an integer, got {bad}$"):
                require("iters", bad, ge=1, integer=True)

    @pytest.mark.parametrize("call", INTEGER_SETTINGS.values(), ids=INTEGER_SETTINGS.keys())
    def test_library_setting(self, call):
        with pytest.raises(InputError, match="and an integer, got"):
            call()
