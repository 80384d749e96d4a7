"""Run the benchmark over several seeds and summarize each end-to-end metric
by median, quartiles and spread (IQR as a share of the median).

    python3 perfbench/spread.py --workload ptq --seeds 1-10
    python3 perfbench/spread.py --workload detect_dense --seeds 1-10 --root ../parent --root .

With two --root checkouts the runs alternate (A then B on odd seeds, B then
A on even seeds) and the table adds B's median relative to A's, how many
seeds B won, and on how many seeds the value changed at all (a quality
metric that repeats exactly for a seed should change on none). Runs are sequential so they never compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from metrics import spread
from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root} seed {seed}: incorrect run {result}")
    return result, wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--root", action="append", type=Path, help="checkout to run (repeatable)")
    args = p.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [HERE.parent])]
    bench = json.loads((roots[0] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {r: {} for r in roots}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = roots if i % 2 == 0 else roots[::-1]
        for root in order:
            res, wall = run_once(root, args.workload, seed, seconds)
            for name, m in res["metrics"].items():
                values[root].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {root.name} ({wall:.1f} s): " + json.dumps(res["metrics"]), flush=True)

    base = values[roots[0]]
    print(f"\n{'metric':<18}{'root':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name in base:
        bound = bounds.get(name, {}).get("bound", float("nan"))
        for root in roots:
            vals = values[root][name]
            med, q1, q3, rel = spread(vals)
            extra = ""
            if root != roots[0]:
                ref = base[name]
                lower = bounds.get(name, {}).get("better") == "lower"
                wins = sum((b < a) if lower else (b > a) for a, b in zip(ref, vals))
                # A metric that repeats exactly for a seed must not move on any seed.
                moves = [b / a - 1 for a, b in zip(ref, vals) if b != a]
                worst = max(moves, key=abs, default=0.0)
                extra = (
                    f"  vs A {med / spread(ref)[0] - 1:+.3%}, won {wins}/{len(vals)}, "
                    f"changed on {len(moves)}/{len(vals)} seeds (largest {worst:+.3%})"
                )
            print(
                f"{name:<18}{root.name[:13]:<14}{med:14.6g}{q1:14.6g}{q3:14.6g}"
                f"{rel:9.4f}{bound:7.3g}{extra}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
