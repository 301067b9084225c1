"""qsmkit benchmark: closed-loop train, infer and recon workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src, never from
an installed copy. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced units of the workload and prints the
per-layer metrics (see tracing.py). The last line of standard output is one JSON object.
"""

import os

# The determinism contract is "bit for bit on one thread": pin BLAS and
# OpenMP before NumPy is imported anywhere in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
# set-up repeats until both limits are reached; setup_s is the median
SETUP_MIN_COUNT, SETUP_MIN_S = 5, 1.0
OPERATION = {"train": "generator step", "infer": "stitched 48^3 volume",
             "recon": "TKD + MEDI + CGLS at 64^3 with DBV1 I/O and scoring"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "infer", "recon"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def blas_threads() -> str:
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return str(getattr(lib, sym)())
    except OSError:
        pass
    return "unknown"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_block(args) -> list[str]:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    files = sorted((SRC / "qsmkit").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + data)
        lines += data.count(b"\n")
    env = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return [
        f"machine  nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__}",
        f"blas     {blas.get('name')} {blas.get('version')} threads={blas_threads()} {env}",
        f"code     git={git_sha()} src_sha256={h.hexdigest()[:16]} src_lines={lines}",
        f"run      workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
    ]


def tally(wl, units):
    """Every unit repeats the same seeded computation, so a digest that
    differs from the first finished unit's fails the unit."""
    first = next((u.digest for u in units if u.op_s), None)
    for u in units:
        if u.op_s and u.digest != first:
            u.checks[f"{wl.name}.digest_repeats"] = False
    attempted = sum(wl.ops_per_unit for u in units)
    failed = sum(wl.ops_per_unit for u in units if not all(u.checks.values()))
    return attempted, failed


def run_measure(wl, args, out):
    from workloads import run_units, tail

    setup_s = []
    while len(setup_s) < SETUP_MIN_COUNT or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - t0)
    warm, units = run_units(wl, state, args.seconds)
    op_s = [s for u in units for s in u.op_s]
    if not op_s:
        raise SystemExit("every operation failed before it could be timed")
    busy = sum(u.busy_s for u in units)
    attempted, failed = tally(wl, [warm] + units)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "ops_per_s": (len(op_s) / busy, "1/s"),
    }
    out.append(f"end-to-end ({wl.name}: one operation is {OPERATION[wl.name]}; "
               f"set-up ran {len(setup_s)} times; one warm-up unit, then "
               f"{len(op_s)} timed operations)")
    for name, (value, unit) in metrics.items():
        out.append(f"  {name:<28} {value:.6g} {unit}")
    tail_s, tail_note = tail(op_s)
    out.append(f"  {'op_tail_s':<28} {tail_s:.6g} {tail_note}")
    out.append(f"  {'fail_frac':<28} {failed / attempted:.6g} ({failed} of {attempted})")
    for name, value, unit in wl.named_metrics([u for u in units if u.op_s]):
        out.append(f"  {name:<28} {value:.6g} {unit}")
    return [warm] + units, metrics, attempted, failed


def run_trace(wl, args, out):
    from tracing import Tracer, layer_metrics
    from workloads import run_unit

    state = wl.setup()
    tracer = Tracer()
    with tracer:
        traced_state = wl.setup()
    # alternate untraced and traced units, so that drift in machine speed
    # falls on both sides of trace.overhead_frac
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_unit(wl, state))
        with tracer:
            traced.append(run_unit(wl, traced_state, tracer))
    metrics, summary = layer_metrics(
        tracer, tracer.ops, [s for u in untraced for s in u.op_s],
        [s for u in traced for s in u.op_s])
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                "metrics": metrics, **summary}, indent=1))
    out.append(f"per-layer ({tracer.ops} traced operations; spans summarised in "
               f"{path.relative_to(ROOT)})")
    for name, (value, unit) in metrics.items():
        out.append(f"  {name:<40} {value:.6g} {unit}")
    units = untraced + traced
    attempted, failed = tally(wl, units)
    return units, metrics, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsmkit" / "__init__.py").is_file():
        print(f"error: no qsmkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qsmkit
    if Path(qsmkit.__file__).resolve().parent != SRC / "qsmkit":
        print(f"error: imported qsmkit from {qsmkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out = machine_block(args)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        runner = run_trace if args.trace else run_measure
        units, metrics, attempted, failed = runner(wl, args, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = {}
    for u in units:
        for name, ok in u.checks.items():
            checks[name] = checks.get(name, True) and ok
    digests = sorted({u.digest for u in units})
    out.append(f"checks   quality digest {', '.join(digests)}")
    out.extend(f"  {'PASS' if ok else 'FAIL'} {name}" for name, ok in checks.items())
    print("\n".join(out))
    correct = failed == 0 and all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
