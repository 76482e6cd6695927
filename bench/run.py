"""hopfk benchmark: one seeded workload, timed end to end, answers checked.

    python3 bench/run.py --workload lens --seed 1 --seconds 30 --trace 0

Runs the workload's fixed op list in passes, as a closed loop in this one
process (each op starts when the previous one returns), until ``--seconds``
have passed, but at least two whole passes.  Every answer of every pass
is checked.  Times are in reference seconds (see bench/speed.py): each
measured interval is scaled by the speed of a fixed kernel timed next to
it, so that the shared host's drifting speed cancels out; the report also
keeps the raw wall-clock pass and set-up times.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the untraced loop runs for a third of ``--seconds`` (at
least one pass) and is followed by one traced set-up, one pass with spans
and one with Scalar call counters, and the JSON carries the per-layer
metrics instead.  A full report (the
environment, every op with its Z/K or verdict, and in traced runs the layer
table) is written to ``bench/out/``; traced runs also write their spans
there.  Exits 1 if any answer is wrong.  See bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 2
SETUPS_PER_PASS = 2
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lens", "walk", "validate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fresh_import(workload):
    """Import hopfk and the workload code anew, as a new process would, and
    return the workload's (setup, expect) pair.  Where this checkout has no
    hopfk sources under src/, the run stops here and prints no result."""
    for name in list(sys.modules):
        if name in ("hopfk", "workloads") or name.startswith("hopfk."):
            del sys.modules[name]
    import workloads

    source = Path(sys.modules["hopfk"].__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"hopfk was imported from {source}, not from this checkout's src/")
    return workloads.WORKLOADS[workload]


def run_pass(ops, answers, call=None, deadline=None):
    """Run every op once, in order, and return the (start, end) clock
    readings of each op and whether the pass ran to its end; with a
    deadline, the pass stops before the first op that would start after it."""
    intervals = []
    for i, op in enumerate(ops):
        if deadline is not None and time.perf_counter() > deadline:
            return intervals, False
        t0 = time.perf_counter()
        try:
            answer = op.run() if call is None else call(i, op.run)
        except Exception as exc:  # a failed op is counted, not fatal
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        intervals.append((t0, time.perf_counter()))
        answers[i].append(answer)
    return intervals, True


def is_wrong(answer, expected):
    """An op that raised is wrong whatever was expected of it."""
    return "error" in answer or any(answer.get(k) != v for k, v in expected.items())


def check(answers, expected):
    """Per op, the number of passes whose answer differs from the expected one."""
    return [sum(is_wrong(a, exp) for a in runs) for runs, exp in zip(answers, expected)]


def op_stats(latencies):
    """Median per-op latency and the tail, the highest percentile with
    TAIL_BEYOND ops beyond it.  Each op's latency is the mean of its runs."""
    per_op = sorted(statistics.mean(ts) for ts in latencies)
    n = len(per_op)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return statistics.median(per_op), per_op[rank], 100.0 * (rank + 1) / n, n


def main(argv=None):
    args = parse_args(argv)
    loadavg = os.getloadavg()
    os.environ.pop("HOPFK_ENTRY_CAP", None)  # always run at the default entry cap
    sys.dont_write_bytecode = True  # every run compiles the package alike
    sys.path.insert(0, str(ROOT / "src"))
    from speed import Speedometer

    # Set-up (a fresh import of hopfk, then building the algebras and the
    # seeded inputs) is repeated before every pass, so that its median, like
    # the passes', is taken over the whole run.
    setup_intervals = []

    def set_up():
        t0 = time.perf_counter()
        setup, expect = fresh_import(args.workload)
        ops = setup(args.seed)
        setup_intervals.append((t0, time.perf_counter()))
        return setup, expect, ops

    # Passes run until the deadline, but at least min_passes of them
    # complete; a pass cut at the deadline still adds its ops' latencies.
    # A traced run spends two thirds of --seconds on its traced passes.
    min_passes = 1 if args.trace else MIN_PASSES
    passes = []  # (op intervals, ran to its end) per pass
    with Speedometer() as speed:
        setup, expect, ops = set_up()
        answers = [[] for _ in ops]
        loop_start = time.perf_counter()
        deadline = loop_start + (args.seconds / 3 if args.trace else args.seconds)
        while time.perf_counter() < deadline or sum(done for _, done in passes) < min_passes:
            for _ in range(SETUPS_PER_PASS):
                setup, expect, ops = set_up()
            # The replaced imports are cyclic garbage; collect it here rather
            # than in whichever op would next trigger a full collection.
            gc.collect()
            cut = deadline if sum(done for _, done in passes) >= min_passes else None
            passes.append(run_pass(ops, answers, None, cut))
            if not passes[-1][1]:
                break
        measured_s = time.perf_counter() - loop_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if args.trace:
            from spans import Tracer

            # One pass with spans, then one with Scalar counters only, so that
            # counting millions of Scalar calls does not inflate the layer times.
            tracer = Tracer(speed.busy)
            traced_answers = [[] for _ in ops]
            tracer.install()
            try:
                traced_ops = setup(args.seed)
                traced_intervals, _ = run_pass(traced_ops, traced_answers, tracer.run_op)
                expected = expect(traced_ops, [a[0] for a in traced_answers])
            finally:
                tracer.uninstall()
            tracer.count_scalars()
            try:
                run_pass(traced_ops, traced_answers)
            finally:
                tracer.uninstall()
            for runs, extra in zip(answers, traced_answers):
                runs.extend(extra)
        else:
            expected = expect(ops, [a[0] for a in answers])

    # The timer has stopped and every speed sample is in.
    latencies = [[] for _ in ops]
    pass_times = []  # (reference seconds, wall seconds) of each whole pass
    for intervals, whole in passes:
        for i, interval in enumerate(intervals):
            latencies[i].append(speed.reference_s(*interval))
        if whole:
            pass_times.append(
                (sum(latencies[i][-1] for i in range(len(ops))), sum(speed.busy(*iv) for iv in intervals))
            )
    setup_times = [(speed.reference_s(*iv), speed.busy(*iv)) for iv in setup_intervals]
    wall_s = statistics.median(t for t, _ in pass_times)
    p50, tail, tail_pct, n_ops = op_stats(latencies)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    layers = None
    if args.trace:
        traced_ref_s = sum(speed.reference_s(*iv) for iv in traced_intervals)
        traced_wall_s = sum(speed.busy(*iv) for iv in traced_intervals)
        layers = tracer.layer_times()
        # Span times are wall seconds; the traced pass's own ratio of
        # reference to wall seconds brings them to reference seconds.
        metrics = tracer.metrics(
            layers, [a[0] for a in traced_answers], traced_ref_s - wall_s, traced_ref_s / traced_wall_s
        )

    from hopfk.tensors import entry_cap

    wrong = check(answers, expected)
    attempted = sum(len(runs) for runs in answers)
    failed = sum(wrong)
    correct = failed == 0

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "entry_cap": entry_cap(),
        "ops_per_pass": len(ops),
        "passes": len(pass_times),
        "measured_s": measured_s,
        "op_list_sha256": hashlib.sha256("\n\n".join(op.key for op in ops).encode()).hexdigest(),
    }
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "env": env,
        "metrics": metrics_json,
        "setup_times_s": [t for t, _ in setup_times],
        "pass_times_s": [t for t, _ in pass_times],
        "setup_wall_times_s": [w for _, w in setup_times],
        "pass_wall_times_s": [w for _, w in pass_times],
        "kernel_s": {"median": statistics.median(speed.kernel_s), "runs": len(speed.kernel_s)},
        "op_tail": {"percentile": tail_pct, "ops": n_ops},
        "fail_frac": failed / attempted,
        "ops": [
            {
                "label": op.label,
                "latency_ms": [t * 1e3 for t in ts],
                "answer": runs[0],
                "expected": exp,
                "wrong_passes": w,
            }
            for op, ts, runs, exp, w in zip(ops, latencies, answers, expected, wrong)
        ],
    }
    if layers is not None:
        report["layers"] = layers
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump_spans()) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    if layers is not None:
        print(f"{'layer (span), wall-clock s':32s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}")
        for name, row in sorted(layers.items()):
            print(f"{name:32s} {row['calls']:9d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
    else:
        runs = sorted({len(ts) for ts in latencies})
        print(
            f"op_tail_ms is p{tail_pct:.1f} of {n_ops} ops; each op's latency is the "
            f"mean of its {'-'.join(map(str, runs))} runs"
        )
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}; report in {OUT / stem}.json")
    for op, w, runs, exp in zip(ops, wrong, answers, expected):
        if w:
            got = next(a for a in runs if is_wrong(a, exp))
            print(f"WRONG {op.label}: got {got}, expected {exp}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_json}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
