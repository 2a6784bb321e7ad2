"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload witness-search --seeds 1-10

Each run is an untraced run of ``run_seconds`` from BENCHMARK.json.  For
every end-to-end metric it prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of that median, next to the metric's bound from
BENCHMARK.json, and the share of failed operations.  Each run's full output, with its
environment line, is kept under ``.perfbench-results/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range, as 1-10")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    outdir = ROOT / ".perfbench-results" / time.strftime("%Y%m%dT%H%M%S")
    outdir.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
        name = f"{args.workload}-seed{seed}.txt"
        (outdir / name).write_text(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} run wall {wall:.1f} s", flush=True)
    print(f"failed/attempted: {sorted({f / a for f, a in shares})}")
    print(f"{'metric':40s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(key)
        print(f"{key:40s} {med:12.4f} {spread:10.4f} {bound if bound is not None else '':>6}")
    print(f"outputs: {outdir.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
