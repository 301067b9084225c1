"""Seeded outputs hashed against a committed table: a change that moves the
bits of an adversarial or field-only training step, a MEDI or CGLS solve, stitched inference, a few
deep-prior iterations or the gradient audit's report fails here, even when
it moves them the same way on every run.

The bits depend on the environment (NumPy, the BLAS build, the CPU features
NumPy found and the BLAS thread count), so the table is keyed by an
environment fingerprint. On a fingerprint the table holds, every digest must
match. On any other the tests skip, and the skip message gives the
fingerprint and the digests computed, so the table can gain a row. A change
that moves bits on purpose updates its row and says so in CHANGES.md.
"""

import hashlib
import os

import numpy as np
import pytest

from qsmkit.classical import MediParams, build_medi_weights, cg_least_squares, medi_invert
from qsmkit.cli import main
from qsmkit.dipole import build_dipole
from qsmkit.network import build_discriminator, build_generator
from qsmkit.phantom import SimulatedCase, make_random_piecewise, simulate_case
from qsmkit.training import (
    TrainConfig,
    UnpairedDataset,
    infer_stitched,
    optimize_dip,
    train_cycleqsm,
    train_uqsm,
)
from qsmkit.volume import Mask, RealVolume, VolumeMeta

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fingerprint() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return " | ".join([
        f"numpy {np.__version__}",
        f"blas {blas.get('name')} {blas.get('version')}",
        "simd " + ",".join(config["SIMD Extensions"]["found"]),
        " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS),
    ])


# fingerprint -> output name -> sha256 prefix of its bytes
TABLE = {
    "numpy 2.4.6 | blas scipy-openblas 0.3.31.188.0 | simd X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"
    " | OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1": {
        "train_rows": "dda51de23af8493f", "train_gen": "c5bd660558d77c56",
        "train_disc": "3fc3010aa2455ad6", "medi": "d13eed23bd83cf06",
        "cgls": "5ede9682e693ebe4", "infer": "8bf17667d4fe3123",
        "dip": "7881ad14686421fc", "gradcheck": "3987ee4189a5e38c",
        "uqsm": "1c9d5f279867f38c",
    },
}


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def iso(n: int) -> VolumeMeta:
    return VolumeMeta((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))


def check(digests: dict[str, str]) -> None:
    fp = fingerprint()
    want = TABLE.get(fp)
    if want is None:
        pytest.skip(f"no digest row for fingerprint {fp!r}; got {digests!r}")
    assert {k: want[k] for k in digests} == digests


def test_train_steps():
    """Four adversarial steps at patch 8: the loss rows and every parameter."""
    meta = iso(12)
    kernel = build_dipole(meta)
    ones = Mask(meta, np.ones(meta.dims))
    cases = tuple(simulate_case(make_random_piecewise(meta, 4, seed=i), ones, 0.0, 0, kernel)
                  for i in range(2))
    chis = tuple(make_random_piecewise(meta, 4, seed=10 + i) for i in range(2))
    gen = build_generator(depth=3, base_channels=8, seed=0)
    disc = build_discriminator(n_layers=2, base_channels=8, seed=1)
    cfg = TrainConfig(epochs=1, patches_per_epoch=4, patch_size=8, lr=1e-3, seed=3)
    _, rows = train_cycleqsm(UnpairedDataset(cases, chis), gen, disc, cfg)
    check({"train_rows": sha(np.array([r.row() for r in rows])),
           "train_gen": sha(*(p.data for p in gen.params.values())),
           "train_disc": sha(*(p.data for p in disc.params.values()))})


def test_uqsm_steps():
    """Four field-only steps at patch 8, batch 2: the objective trace and
    every parameter. Each magnitude varies and each mask holds zeros, so the
    data term's weight is exercised."""
    meta = iso(12)
    kernel = build_dipole(meta)
    cases = []
    for i in range(2):
        chi = make_random_piecewise(meta, 4, seed=20 + i)
        mask = Mask(meta, (np.indices(meta.dims).sum(0) < 18 + i).astype(float))
        field = simulate_case(chi, mask, 0.002, i, kernel).field
        magnitude = RealVolume(meta, 1.0 + np.abs(make_random_piecewise(meta, 3, seed=30 + i).data))
        cases.append(SimulatedCase(chi, field, magnitude, mask))
    chis = tuple(make_random_piecewise(meta, 4, seed=40 + i) for i in range(2))
    gen = build_generator(depth=3, base_channels=8, seed=0)
    cfg = TrainConfig(epochs=1, patches_per_epoch=8, patch_size=8, batch_size=2, lr=1e-3,
                      seed=5)
    _, trace = train_uqsm(UnpairedDataset(tuple(cases), chis), gen, cfg)
    check({"uqsm": sha(np.array(trace), *(p.data for p in gen.params.values()))})


def test_medi_and_cgls():
    """20 magnitude-weighted MEDI iterations at lambda 1e-3 and an unweighted
    CGLS solve, both at 32^3. The magnitude varies, so no weight is 1."""
    meta = iso(32)
    kernel = build_dipole(meta)
    chi = make_random_piecewise(meta, 6, seed=5)
    case = simulate_case(chi, Mask(meta, (chi.data != 0).astype(float)), 0.002, 5, kernel)
    magnitude = RealVolume(meta, 1.0 + np.abs(make_random_piecewise(meta, 3, seed=6).data))
    medi, trace = medi_invert(case.field, kernel, build_medi_weights(magnitude),
                              MediParams(lam=1e-3, iters=20))
    cgls, residuals = cg_least_squares(case.field, kernel, iters=20)
    check({"medi": sha(medi.data, np.array(trace)),
           "cgls": sha(cgls.data, np.array(residuals))})


def test_infer_stitched():
    """Stitched inference on 16^3 with 8^3 windows at stride 4."""
    meta = iso(16)
    kernel = build_dipole(meta)
    chi = make_random_piecewise(meta, 4, seed=7)
    mask = Mask(meta, (chi.data != 0).astype(float))
    case = simulate_case(chi, mask, 0.002, 7, kernel)
    gen = build_generator(depth=3, base_channels=8, seed=2)
    out = infer_stitched(gen, case.field, case.magnitude, mask, TrainConfig(patch_size=8))
    check({"infer": sha(out.data)})


def test_dip_iterations():
    """Four deep-prior iterations on 16^3: the best iterate and the trace."""
    meta = iso(16)
    kernel = build_dipole(meta)
    chi = make_random_piecewise(meta, 4, seed=8)
    mask = Mask(meta, (chi.data != 0).astype(float))
    case = simulate_case(chi, mask, 0.002, 8, kernel)
    out, trace = optimize_dip(case.field, case.magnitude, mask, kernel, iters=4, seed=4)
    check({"dip": sha(out.data, np.array(trace))})


def test_gradcheck_stdout(capsys):
    """The report of ``qsmkit gradcheck --cases 1 --seed 7``."""
    assert main(["gradcheck", "--cases", "1", "--seed", "7"]) == 0
    check({"gradcheck": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]})
