"""Ten end-to-end claims this package makes about itself, one test per
claim. Each test prints a single PASS/FAIL line with its measured margins
(visible even under capture), so a full run doubles as a scorecard. Claims
cover exact dipole physics, an analytic magnetostatics oracle, spectral
recovery, finite-difference gradient integrity in both precisions, solver
monotonicity and a conjugate-gradient cross-check, a seeded adversarial
training run with bit-identical rerun logs, reconstruction-quality ordering
against classical baselines on noisy held-out phantoms, metric formulas
against loop oracles, the mask-before-discriminator contract, and bit-exact
file round trips."""

import time

import numpy as np
import pytest

from qsmkit.autodiff import Tensor
from qsmkit.classical import (
    MediParams,
    MediWeights,
    TkdParams,
    cg_least_squares,
    medi_invert,
    tkd_invert,
)
from qsmkit.dipole import build_dipole, forward_field, naive_inverse
from qsmkit.errors import (
    MalformedHeaderError,
    NonFinitePayloadError,
    PayloadSizeError,
)
from qsmkit.gradcheck import F32_TOL, F64_TOL, FAMILIES, run_suite
from qsmkit.losses import lsgan_losses
from qsmkit.metrics import RoiSet, psnr, rmse, roi_regression, ssim3
from qsmkit.network import (
    build_discriminator,
    build_generator,
    forward_discriminator,
    load_checkpoint,
    save_checkpoint,
)
from qsmkit.phantom import (
    PhantomSpec,
    Sphere,
    analytic_sphere_field,
    make_phantom,
    make_random_piecewise,
    simulate_case,
)
from qsmkit.training import (
    TrainConfig,
    UnpairedDataset,
    infer_stitched,
    train_cycleqsm,
    write_log_csv,
)
from qsmkit.volume import Mask, RealVolume, VolumeMeta, read_volume, write_volume


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def iso_meta(n: int) -> VolumeMeta:
    return VolumeMeta((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))


def ones_weights(meta: VolumeMeta) -> MediWeights:
    one = np.ones(meta.dims)
    m = Mask(meta, one)
    return MediWeights(w=RealVolume(meta, one), m=(m, m, m))


def band_limited(meta: VolumeMeta, kernel, seed: int, cut: float = 0.1
                 ) -> RealVolume:
    """A random piecewise volume with its spectrum zeroed where the dipole
    response is weak, so division-based inverses are exact on it."""
    chi = make_random_piecewise(meta, 4, seed=seed)
    spec = np.fft.fftn(chi.data)
    spec[np.abs(kernel.spectrum) <= cut] = 0.0
    return RealVolume(meta, np.real(np.fft.ifftn(spec)))


def rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_01_dipole_physics(capsys):
    t0 = time.perf_counter()
    metas = [iso_meta(32),
             VolumeMeta((32, 32, 32), (1.0, 1.5, 2.0), (0.0, 0.0, 1.0)),
             VolumeMeta((32, 32, 32), (1.0, 1.0, 1.0), (0.0, 0.6, 0.8))]
    bounds_ok = dc_ok = True
    for meta in metas:
        k = build_dipole(meta)
        bounds_ok &= (k.spectrum.min() >= -2 / 3
                      and k.spectrum.max() <= 1 / 3)
        dc_ok &= k.spectrum[0, 0, 0] == 0.0
    # along the grid diagonal kx = ky = kz, so |k|^2 = 3 (k.z)^2 exactly
    k_iso = build_dipole(metas[0])
    cone_ok = all(k_iso.spectrum[j, j, j] == 0.0 for j in (1, 2, 3, 4, 5))

    rng = np.random.default_rng(0)
    meta = metas[0]
    x = RealVolume(meta, rng.standard_normal(meta.dims))
    y = RealVolume(meta, rng.standard_normal(meta.dims))
    hx, hy = forward_field(x, k_iso), forward_field(y, k_iso)
    a = float(np.sum(hx.data * y.data))
    b = float(np.sum(x.data * hy.data))
    adj = abs(a - b) / max(abs(a), abs(b))
    mix = forward_field(RealVolume(meta, 2.5 * x.data - 1.3 * y.data), k_iso)
    lin = rel(mix.data, 2.5 * hx.data - 1.3 * hy.data)
    dt = time.perf_counter() - t0
    ok = (bounds_ok and dc_ok and cone_ok and adj < 1e-10 and lin < 1e-10
          and dt < 5.0)
    report(capsys, 1, ok,
           f"bounds/dc/cone exact={bounds_ok}/{dc_ok}/{cone_ok}, "
           f"self-adjoint {adj:.1e} < 1e-10, linear {lin:.1e} < 1e-10, "
           f"{dt:.1f}s < 5s")


def test_02_sphere_field_oracle(capsys):
    t0 = time.perf_counter()
    errs = {}
    # the comparison shell stops at 3R: farther out the periodic images of
    # the FFT convolution dominate the analytic point-dipole signal
    for n, tol in ((64, 0.05), (128, 0.025)):
        meta = iso_meta(n)
        c = (n / 2.0, n / 2.0, n / 2.0)
        radius = n / 12.0
        chi = make_phantom(PhantomSpec(meta, (Sphere(c, radius, 0.1),)))
        num = forward_field(chi, build_dipole(meta))
        ana = analytic_sphere_field(meta, c, radius, 0.1)
        idx = np.indices(meta.dims) + 0.5
        r = np.sqrt((idx[0] - c[0]) ** 2 + (idx[1] - c[1]) ** 2
                    + (idx[2] - c[2]) ** 2)
        sel = (r > 1.5 * radius) & (r < 3.0 * radius)
        err = num.data[sel] - ana.data[sel]
        errs[n] = float(np.sqrt(np.mean(err ** 2))
                        / np.sqrt(np.mean(ana.data[sel] ** 2)))
    dt = time.perf_counter() - t0
    ok = errs[64] < 0.05 and errs[128] < 0.025 and dt < 60.0
    report(capsys, 2, ok,
           f"exterior RMS error {errs[64]:.4f} < 0.05 at 64^3, "
           f"{errs[128]:.4f} < 0.025 at 128^3, {dt:.1f}s < 60s")


def test_03_band_limited_recovery(capsys):
    t0 = time.perf_counter()
    meta = iso_meta(24)
    kernel = build_dipole(meta)
    chi = band_limited(meta, kernel, seed=5)
    field = forward_field(chi, kernel)
    r_tkd = rel(tkd_invert(field, kernel, TkdParams(0.1)).data, chi.data)
    r_nv = rel(naive_inverse(field, kernel, 1e-6).data, chi.data)
    dt = time.perf_counter() - t0
    ok = r_tkd < 1e-8 and r_nv < 1e-8 and dt < 5.0
    report(capsys, 3, ok,
           f"tkd {r_tkd:.1e} < 1e-8, naive {r_nv:.1e} < 1e-8, "
           f"{dt:.1f}s < 5s")


def test_04_gradient_integrity(capsys):
    t0 = time.perf_counter()
    worst = {}
    fails = []
    for dtype, tol, name in ((np.float32, F32_TOL, "f32"),
                             (np.float64, F64_TOL, "f64")):
        res = run_suite(dtype, n_cases=20, samples=8, seed=0)
        worst[name] = max(res.values())
        fails += [f"{name}/{op}" for op, err in res.items() if err >= tol]
    dt = time.perf_counter() - t0
    ok = not fails and dt < 120.0
    report(capsys, 4, ok,
           f"{len(FAMILIES)} families x 20 cases, worst f32 "
           f"{worst['f32']:.1e} < {F32_TOL:g}, worst f64 "
           f"{worst['f64']:.1e} < {F64_TOL:g}, "
           f"failures {fails or 'none'}, {dt:.1f}s < 120s")


def test_05_descent_monotone_and_cg_agreement(capsys):
    t0 = time.perf_counter()
    meta = iso_meta(16)
    kernel = build_dipole(meta)
    monotone = True
    for seed in range(10):
        chi = make_random_piecewise(meta, 4, seed=seed)
        mask = Mask(meta, (chi.data != 0).astype(float))
        case = simulate_case(chi, mask, 0.0, 0, kernel)
        w = ones_weights(meta)
        _, trace = medi_invert(case.field, kernel, w,
                               MediParams(lam=1e-3, iters=40, step=1.0))
        f = [row[1] for row in trace]
        monotone &= all(f[i + 1] <= f[i] for i in range(len(f) - 1))

    chi_b = band_limited(meta, kernel, seed=3)
    field = forward_field(chi_b, kernel)
    cg, _ = cg_least_squares(field, kernel, None, iters=200, tol=1e-14)
    md, _ = medi_invert(field, kernel, ones_weights(meta),
                        MediParams(lam=0.0, iters=500, step=1.0))
    agree = rel(md.data, cg.data)
    dt = time.perf_counter() - t0
    ok = monotone and agree < 1e-4 and dt < 120.0
    report(capsys, 5, ok,
           f"trace non-increasing on 10 phantoms={monotone}, "
           f"lam=0 vs CG {agree:.1e} < 1e-4, {dt:.1f}s < 120s")


def _smoke_dataset(meta: VolumeMeta, kernel, seed_base: int
                   ) -> UnpairedDataset:
    """Four field cases and four disjoint chi volumes, all clean."""
    ones = Mask(meta, np.ones(meta.dims))
    cases = tuple(
        simulate_case(make_random_piecewise(meta, 6, seed=seed_base + i),
                      ones, 0.0, 0, kernel) for i in range(4))
    chis = tuple(make_random_piecewise(meta, 6, seed=seed_base + 10 + i)
                 for i in range(4))
    return UnpairedDataset(cases, chis)


def _smoke_train(ds: UnpairedDataset, cfg_seed: int):
    gen = build_generator(depth=3, base_channels=16, seed=0)
    disc = build_discriminator(n_layers=3, base_channels=16, seed=1)
    cfg = TrainConfig(epochs=10, patches_per_epoch=20, patch_size=16,
                      lr=1e-3, seed=cfg_seed)
    return train_cycleqsm(ds, gen, disc, cfg)


def test_06_adversarial_smoke_run(capsys, tmp_path):
    t0 = time.perf_counter()
    meta = iso_meta(24)
    kernel = build_dipole(meta)
    ds = _smoke_dataset(meta, kernel, seed_base=0)
    _, rows_a = _smoke_train(ds, cfg_seed=3)
    _, rows_b = _smoke_train(ds, cfg_seed=3)

    finite = all(np.all(np.isfinite(r.row())) for r in rows_a)
    first = float(np.mean([r.cycle for r in rows_a[:20]]))
    final = float(np.mean([r.cycle for r in rows_a[-20:]]))
    ratio = final / first
    identical = rows_a == rows_b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log_csv(rows_a, pa, steps_per_epoch=20)
    write_log_csv(rows_b, pb, steps_per_epoch=20)
    logs_equal = pa.read_bytes() == pb.read_bytes()
    dt = time.perf_counter() - t0
    ok = (len(rows_a) == 200 and finite and ratio < 0.5 and identical
          and logs_equal and dt < 900.0)
    report(capsys, 6, ok,
           f"200 steps, finite={finite}, final/first cycle {ratio:.3f} "
           f"< 0.5, rerun rows identical={identical}, logs "
           f"byte-equal={logs_equal}, {dt:.0f}s < 900s")


def test_07_reconstruction_ordering(capsys):
    t0 = time.perf_counter()
    meta = iso_meta(24)
    kernel = build_dipole(meta)
    cyc_wins = medi_wins = 0
    details = []
    for s in (0, 1, 2):
        ds = _smoke_dataset(meta, kernel, seed_base=100 * s)
        gen, _ = _smoke_train(ds, cfg_seed=s)

        chi = make_random_piecewise(meta, 6, seed=1000 + s)
        clean = forward_field(chi, kernel)
        sigma = 0.05 * float(np.max(np.abs(clean.data)))
        rng = np.random.default_rng(s)
        field = RealVolume(meta, clean.data
                           + rng.normal(0.0, sigma, meta.dims))

        pred = infer_stitched(gen, field, None, None,
                              TrainConfig(patch_size=16, infer_stride=8))
        r_cyc = rmse(chi, pred)
        r_nv = rmse(chi, naive_inverse(field, kernel, 1e-6))
        md, _ = medi_invert(field, kernel, ones_weights(meta),
                            MediParams(lam=1e-3, iters=150, step=1.0))
        r_md = rmse(chi, md)
        r_tkd = rmse(chi, tkd_invert(field, kernel, TkdParams(0.1)))
        cyc_wins += r_cyc < r_nv
        medi_wins += r_md < r_tkd
        details.append(f"s{s}: learned {r_cyc:.2f} vs naive {r_nv:.2f}, "
                       f"tv-reg {r_md:.2f} vs tkd {r_tkd:.2f}")
    dt = time.perf_counter() - t0
    ok = cyc_wins >= 2 and medi_wins >= 2 and dt < 1200.0
    report(capsys, 7, ok,
           f"learned<naive on {cyc_wins}/3 seeds, tv-reg<tkd on "
           f"{medi_wins}/3 seeds ({'; '.join(details)}), {dt:.0f}s < 1200s")


def test_08_metric_oracles(capsys):
    t0 = time.perf_counter()
    meta = iso_meta(10)
    rng = np.random.default_rng(8)
    t = rng.normal(0.0, 0.1, meta.dims)
    r = t + rng.normal(0.0, 0.02, meta.dims)
    truth = RealVolume(meta, t)
    recon = RealVolume(meta, r)

    acc = 0.0
    for i in range(10):
        for j in range(10):
            for k in range(10):
                acc += (t[i, j, k] - r[i, j, k]) ** 2
    rmse_oracle = 100.0 * (acc / 1000.0) ** 0.5
    e_rmse = abs(rmse(truth, recon) - rmse_oracle)

    peak = float(np.max(np.abs(t)))
    psnr_oracle = 10.0 * np.log10(peak ** 2 / (acc / 1000.0))
    e_psnr = abs(psnr(truth, recon) - psnr_oracle)

    half = np.zeros(meta.dims)
    half[:5] = 1.0
    rois = RoiSet((("lo", Mask(meta, half)),
                   ("hi", Mask(meta, 1.0 - half))))
    reg = roi_regression(truth, recon, rois)
    x = t.ravel()
    y = r.ravel()
    a = np.vstack([x, np.ones_like(x)]).T
    slope_o, intercept_o = np.linalg.lstsq(a, y, rcond=None)[0]
    e_slope = abs(reg.slope - slope_o)
    e_icpt = abs(reg.intercept - intercept_o)

    e_ssim = abs(ssim3(truth, truth) - 1.0)
    dt = time.perf_counter() - t0
    ok = (e_rmse < 1e-9 and e_psnr < 1e-9 and e_slope < 1e-9
          and e_icpt < 1e-9 and e_ssim < 1e-12 and dt < 10.0)
    report(capsys, 8, ok,
           f"rmse {e_rmse:.1e}, psnr {e_psnr:.1e}, slope {e_slope:.1e}, "
           f"intercept {e_icpt:.1e} all < 1e-9; ssim(self)-1 "
           f"{e_ssim:.1e} < 1e-12; {dt:.1f}s < 10s")


def test_09_mask_gates_discriminator(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    disc = build_discriminator(n_layers=3, base_channels=16, seed=1)
    x = rng.normal(0.0, 1.0, (1, 16, 16, 16))
    m = (rng.random((1, 16, 16, 16)) < 0.5).astype(np.float64)
    poisoned = x + 1e6 * (1.0 - m)

    out_clean = forward_discriminator(disc, Tensor(x), Tensor(m))
    out_poison = forward_discriminator(disc, Tensor(poisoned), Tensor(m))
    outputs_equal = np.array_equal(out_clean.data, out_poison.data)

    g_a, d_a = lsgan_losses(disc, [Tensor(x)], [Tensor(x)],
                            mask_batch=[Tensor(m)])
    g_b, d_b = lsgan_losses(disc, [Tensor(poisoned)], [Tensor(poisoned)],
                            mask_batch=[Tensor(m)])
    losses_equal = (float(g_a.data) == float(g_b.data)
                    and float(d_a.data) == float(d_b.data))
    dt = time.perf_counter() - t0
    ok = outputs_equal and losses_equal and dt < 10.0
    report(capsys, 9, ok,
           f"discriminator outputs bit-identical={outputs_equal}, "
           f"adversarial losses identical={losses_equal}, {dt:.1f}s < 10s")


def test_10_file_round_trips(capsys, tmp_path):
    t0 = time.perf_counter()
    meta = VolumeMeta((6, 5, 4), (1.0, 1.2, 0.8), (0.0, 0.6, 0.8))
    rng = np.random.default_rng(10)
    # draw in float32 so the stored payload represents the data exactly
    data = rng.normal(0.0, 0.1, meta.dims).astype(np.float32)
    vol = RealVolume(meta, data.astype(np.float64))
    p1, p2 = tmp_path / "v1.dbv", tmp_path / "v2.dbv"
    write_volume(vol, p1)
    back = read_volume(p1)
    write_volume(back, p2)
    vol_exact = (np.array_equal(back.data, data.astype(np.float64))
                 and p1.read_bytes() == p2.read_bytes())

    gen = build_generator(depth=2, base_channels=4, seed=0)
    cp1, cp2 = tmp_path / "g1.dbc", tmp_path / "g2.dbc"
    save_checkpoint(gen, cp1)
    loaded = load_checkpoint(cp1)
    save_checkpoint(loaded, cp2)
    ckpt_exact = (cp1.read_bytes() == cp2.read_bytes()
                  and all(np.array_equal(gen.params[k].data,
                                         loaded.params[k].data)
                          for k in gen.params))

    bad_header = tmp_path / "bad.dbv"
    bad_header.write_bytes(b"not a header\n\x00\x00")
    with pytest.raises(MalformedHeaderError):
        read_volume(bad_header)
    short = tmp_path / "short.dbv"
    short.write_bytes(p1.read_bytes()[:-8])
    with pytest.raises(PayloadSizeError):
        read_volume(short)
    blob = bytearray(p1.read_bytes())
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    nonfinite = tmp_path / "nan.dbv"
    nonfinite.write_bytes(bytes(blob))
    with pytest.raises(NonFinitePayloadError):
        read_volume(nonfinite)

    dt = time.perf_counter() - t0
    ok = vol_exact and ckpt_exact and dt < 5.0
    report(capsys, 10, ok,
           f"volume round trip bit-exact={vol_exact}, checkpoint round "
           f"trip bit-exact={ckpt_exact}, malformed/short/non-finite "
           f"inputs raise their documented errors, {dt:.1f}s < 5s")
