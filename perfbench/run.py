"""Benchmark of the newsrec pipeline: one workload per process.

    python3 perfbench/run.py --workload plm_pipeline --seed 1 --seconds 20 --trace 0

runs one workload and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``round_s`` and ``peak_rss_mb``.  With ``--trace 1`` the run makes one
untraced and one traced round and reports the per-layer metrics of the
traced round, the phase rates of the untraced one and the tracing
overhead.  Without
``--workload`` every workload runs, one process after another, and a table
of the end-to-end metrics is printed.

The package is imported from ``src/`` of the checkout this file sits in.
Span traces and temporary checkpoints go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0  # set-up time drifts from one set-up to the next


def _import_package():
    if not (ROOT / "src" / "newsrec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no newsrec sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _rounds(inp, seconds, meters):
    """Whole rounds until the next one would end after ``seconds``."""
    import workloads
    results = []
    start = time.perf_counter()
    while True:
        results.append(workloads.run_round(inp, meters, OUT))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _timed_setups(name, seed):
    """Set up at least 3 times and for 2 s; the median time is ``setup_s``."""
    import workloads
    w = workloads.WORKLOADS[name]
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        inp = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        inp = workloads.setup(w, seed)
        times.append(time.perf_counter() - t0)
    return inp, statistics.median(times)


def run_workload(name, seed, seconds, trace):
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    inp, setup_s = _timed_setups(name, seed)
    meters = workloads.new_meters()
    rounds = _rounds(inp, 0 if trace else seconds, meters)
    check_results = [c for r in rounds for c in r.checks]
    attempted_meters = [meters]

    if trace:
        tracer = spans.Tracer()
        traced_meters = workloads.new_meters()
        with tracer.patch():
            traced_inp = workloads.setup(workloads.WORKLOADS[name], seed)
            traced = workloads.run_round(traced_inp, traced_meters, OUT)
        check_results += traced.checks
        same = workloads.fingerprint(traced) == workloads.fingerprint(rounds[0])
        check_results.append(("traced_outputs_bitwise_equal", same, ""))
        attempted_meters.append(traced_meters)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        metrics = spans.per_layer_metrics(tracer)
        for phase, metric in workloads.RATE_METRICS.items():
            metrics[metric] = (meters[phase].rate, "1/s")
            metrics[f"trace.overhead.{metric}"] = (
                traced_meters[phase].rate - meters[phase].rate, "1/s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (statistics.median(r.seconds for r in rounds), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    failed = [c for c in check_results if not c[1]]
    ops = {"mlm_steps": sum(m["mlm"].steps for m in attempted_meters),
           "train_steps": sum(m["train"].steps for m in attempted_meters),
           "impressions_evaluated": sum(m["eval"].work for m in attempted_meters),
           "checks": len(check_results)}
    for check, ok, detail in check_results:
        print(f"check {check}: {'ok' if ok else 'FAILED'} {detail}")
    for key, val in ops.items():
        print(f"attempted {key}: {val}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    result = {"correct": not failed, "attempted": sum(ops.values()),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process, one at a time; print a table."""
    import workloads
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="one workload; all of them, one at a time, if omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_package()
    import workloads
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
