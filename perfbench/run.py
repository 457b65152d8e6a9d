"""Benchmark of the KIFMM engine and its serving plane.

Run from the repository root::

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics (tracing off); ``--trace 1``
makes the separate traced run that yields the per-layer metrics and
writes the spans to ``perfbench/out/``.  Every run also writes a report
with the host, the configuration and each timing's sample count and tail
to ``perfbench/out/``.  The last line of standard output is the result
as one JSON object.  ``--workload all`` runs each workload in its own
process and prints them together.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _metrics(values: dict, table) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in table}


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from common import host_info
    from workloads import END_TO_END, OP_MEANING, PARAMS, PER_LAYER, run_workload

    from repro.util.blas import limit_blas_threads

    t0 = time.perf_counter()
    # One BLAS thread per compute thread: the workloads bring their own
    # parallelism (tile pool, serve workers, ranks), and a second BLAS
    # layer on a small host only adds run-to-run noise.
    with limit_blas_threads(1):
        host = host_info(ROOT)
        run, verdict = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace == 1, args.size)
    table = PER_LAYER if args.trace else END_TO_END
    values = run.layer if args.trace else run.e2e
    result = dict(verdict, metrics=_metrics(values, table))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "op_s_means": OP_MEANING[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": {"setup_reps": PARAMS[args.size]["setup_reps"],
                   "check_sample": PARAMS[args.size]["sample"],
                   **PARAMS[args.size][args.workload]},
        "host": host,
        "wall_s": time.perf_counter() - t0,
        "timings": run.dists,
        "problems": run.problems,
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if args.trace:
        lines = run.recorder.iter_jsonl() if run.recorder is not None else ()
        run.spans.write_jsonl(os.path.join(OUT, f"trace-{tag}.jsonl"), lines)

    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    for key, dist in run.dists.items():
        print(f"timing {key}: {json.dumps(dist)}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process (separate peak RSS); the combined
    result prefixes every metric with its workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
