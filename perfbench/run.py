"""Benchmark entry point.

    python3 perfbench/run.py --workload ptq --seed 1 --seconds 8 --trace 0

Prints a human-readable table, then as its last stdout line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with --trace 1
they are the per-layer ones from a traced run. Exits with 1 after the result
line when a correctness check failed, and without a result line when an
operation raised. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("ptq", "detect_dense")


def cap_blas_threads() -> int:
    """Cap the BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        want = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(want)
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")  # negative seeds would reuse the fixture's frames
    return args


def import_program() -> None:
    """Put the checkout's src/ first on the path and refuse any other copy."""
    pkg = ROOT / "src" / "pillarptq"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import pillarptq

    if Path(pillarptq.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported pillarptq from {pillarptq.__file__}, not {pkg}")


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    import_program()

    import metrics
    import workloads

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={nproc} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}",
        flush=True,
    )
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # Turn a termination request into an exception so the scratch data goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            trace_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            out = workloads.run_traced(args.workload, args.seed, args.seconds, work, trace_path)
        else:
            out = workloads.run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(metrics.table(out.metrics))
    for note in out.notes:
        print(note)
    print(metrics.result_line(out.correct, out.tally, out.metrics), flush=True)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
