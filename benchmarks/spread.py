#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py hop1-nqc --seeds 1 2 3 4 5

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartiles as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
in BENCHMARK.json. Runs are sequential, one child benchmark at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        series = values.get(metric["name"], [])
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        print(f"{metric['name']:>12}: median {statistics.median(series):.4f} {metric['unit']}, "
              f"spread {(q3 - q1) / statistics.median(series):.3f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
