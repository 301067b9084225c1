"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The end-to-end cases start run.py as a child process with --seconds 1, so
each run does the fewest whole units it can (about a minute in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import tail  # noqa: E402

SEED = 3
EXACT_COUNTS = {
    "train": ("autodiff.conv3d.calls", "autodiff.tape_nodes_per_step", "dipole.fft.calls"),
    "recon": ("dipole.apply_spectrum.calls", "classical.medi.applies_per_iter",
              "dipole.fft.calls"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if "quality digest" in line).split()[-1]
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, again=False):
        key = (workload, trace, again)
        if key not in cache:
            cache[key] = parse(run_bench(workload, trace))
        return cache[key]
    return get


def snapshot():
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "qsmkit" or n.startswith("qsmkit.")]
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    state.update({("numpy.fft", k): getattr(np.fft, k) for k in tracing.FFT_FUNCS})
    return state


def test_trace_restores_every_wrapped_attribute():
    for layer in tracing.LAYERS:
        __import__(f"qsmkit.{layer}")
    from qsmkit import classical, dipole, training
    before = snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert classical.apply_spectrum is not before[("qsmkit.classical", "apply_spectrum")]
        assert np.fft.fftn is not before[("numpy.fft", "fftn")]
        assert training.forward_generator is not before[("qsmkit.training",
                                                         "forward_generator")]
        dipole.apply_spectrum(np.ones((4, 4, 4)), np.ones((4, 4, 4)))
    after = snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert [s[0] for s in tracer.spans] == ["dipole.apply_spectrum", "dipole.fft", "dipole.fft"]


@pytest.mark.parametrize("workload", ["train", "infer", "recon"])
def test_traced_and_untraced_runs_give_identical_digests(runs, workload):
    plain, plain_digest = runs(workload, 0)
    traced, traced_digest = runs(workload, 1)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert plain_digest == traced_digest


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_counts_repeat_across_traced_runs(runs, workload):
    first, _ = runs(workload, 1)
    second, _ = runs(workload, 1, again=True)
    for name in EXACT_COUNTS[workload]:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 65)]
    value, note = tail(samples)
    assert value == 52.0 and "p80 of 64, 12 beyond" in note
    assert tail([3.0, 1.0, 2.0]) == (3.0, "s (max of 3)")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("recon", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
