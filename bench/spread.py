"""Run the benchmark once per seed and report how much each metric spreads.

    python3 bench/spread.py --workload lens --seeds 1 2 3 4 5

Runs ``bench/run.py`` one seed after another, in this checkout, and prints
for every end-to-end metric the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json.  A run
that fails or reports a wrong answer stops the script with exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    print(f"{'metric':14s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        print(f"{metric['name']:14s} {med:12.6g} {(q3 - q1) / med:10.4f} {metric['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
