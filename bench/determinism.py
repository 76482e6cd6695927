"""Check that a traced run's counts and answers repeat exactly.

    python3 bench/determinism.py --workload lens --seed 1

Runs ``bench/run.py --trace 1`` twice with the same seed and once with the
next seed, one after another, each with ``--seconds 1`` (the untraced loop
still makes one pass).  It then checks that

- every per-layer count (unit ``count``) and every op's Z/K or verdict is
  identical in the two same-seed runs, and
- the other seed gives a different op list (``op_list_sha256``).

Exits 0 if all of this holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def traced_run(workload, seed):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"traced run of seed {seed} failed (exit {proc.returncode})")
    report = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {k: m["value"] for k, m in report["metrics"].items() if m["unit"] == "count"}
    answers = [(op["label"], op["answer"]) for op in report["ops"]]
    return counts, answers, report["env"]["op_list_sha256"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    first = traced_run(args.workload, args.seed)
    second = traced_run(args.workload, args.seed)
    other = traced_run(args.workload, args.seed + 1)
    ok = True
    for name in sorted(first[0]):
        same = first[0][name] == second[0][name]
        ok &= same
        print(f"{name:28s} {first[0][name]:>12} {second[0][name]:>12} {'same' if same else 'DIFFERENT'}")
    same_answers = first[1] == second[1]
    ok &= same_answers
    print(f"Z/K and verdicts of {len(first[1])} ops: {'same' if same_answers else 'DIFFERENT'}")
    differs = first[2] != other[2]
    ok &= differs
    print(f"seed {args.seed + 1} op list differs from seed {args.seed}: {'yes' if differs else 'NO'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
