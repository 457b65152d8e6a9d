"""Intra-rank parallel plan apply: tile-pool speedup over serial.

The tile executor (:mod:`repro.core.parallel`) runs a compiled plan's
phase work as tasks over disjoint output tiles on a shared thread pool,
with every combine in compiled tile order — the result is bit-identical
to the serial apply at any thread count.  This bench measures what that
buys on the paper-scale warm-apply loop: one plan, many applies, thread
counts swept against a BLAS-pinned serial baseline.

Reported wall times (real seconds, not the modelled machine):

* ``serial_apply_s``    — median warm apply, no pool, BLAS at 1 thread
* ``apply_s[t]``        — median warm apply with a t-thread tile pool
* ``speedup[t]``        — serial_apply_s / apply_s[t]
* ``vli_s[t]`` / ``vli_speedup[t]`` — the same for the V-list phase
  alone (``serial_vli_s`` is its serial median)
* ``host``              — cores, BLAS and its thread count, numpy, git sha
* ``report``            — ``parallel_report`` of a traced 4-thread run
                          (achieved vs modelled per-phase speedup)

Bit-identity against the serial baseline is asserted for every thread
count, always.  Results go to ``BENCH_parallel.json`` at the repo root.
Run standalone for the paper-scale numbers (N=20k, order 6)::

    PYTHONPATH=src python benchmarks/bench_parallel.py

``--gate`` enforces the CI bars: >= 3x at 4 threads (only on hosts with
>= 4 cores) and achieved parallel speedup within 1.5x of modelled.  Via
pytest at smoke scale (CI's parallel-smoke step)::

    pytest benchmarks/bench_parallel.py --benchmark-only -s
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_parallel.json"

THREAD_SWEEP = (1, 2, 4)


def host_info() -> dict:
    """The host facts a parallel speedup only means something with."""
    from repro.util.blas import blas_thread_count

    blas = None
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": (len(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
        "blas": blas,
        "blas_threads": blas_thread_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_sha": sha,
    }


def run_bench(
    n: int = 20_000,
    order: int = 6,
    q: int = 50,
    kernel: str = "laplace",
    repeats: int = 5,
    seed: int = 1234,
    threads: tuple = THREAD_SWEEP,
) -> dict:
    from repro.core import Fmm
    from repro.datasets import uniform_cube
    from repro.perf.model import parallel_report
    from repro.perf.trace import TraceRecorder
    from repro.util.blas import limit_blas_threads
    from repro.util.timer import PhaseProfile

    points = uniform_cube(n, seed=seed)
    rng = np.random.default_rng(seed)
    fmm = Fmm(kernel, order=order, max_points_per_box=q)
    dens = rng.standard_normal(n * fmm.kernel.source_dim)
    plan = fmm.plan(points)
    ep = fmm.compile_eval_plan(plan)

    vli_times = []

    def apply_once():
        prof = PhaseProfile()
        out = fmm.evaluate(points, dens, plan=plan, eval_plan=ep,
                           profile=prof)
        vli_times.append(prof.events["VLI"].wall_seconds)
        return out

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out

    # Serial baseline with BLAS pinned to one thread — the same GEMM
    # configuration the pool runs — so the sweep isolates the tile
    # scheduler, not the BLAS threadpool.
    with limit_blas_threads(1):
        apply_once()  # warm operator caches
        vli_times.clear()
        serial_times = [timed(apply_once)[0] for _ in range(repeats)]
        serial_vli = statistics.median(vli_times)
        ref = apply_once()
    serial_s = statistics.median(serial_times)

    apply_s, speedup, vli_s = {}, {}, {}
    for t in threads:
        fmm.evaluator.configure_threads(t)
        apply_once()  # warm the pool
        vli_times.clear()
        times = []
        for _ in range(repeats):
            dt, out = timed(apply_once)
            times.append(dt)
            assert np.array_equal(out, ref), (
                f"{t}-thread apply diverged from serial: bit-identity broken"
            )
        apply_s[t] = statistics.median(times)
        speedup[t] = serial_s / apply_s[t]
        vli_s[t] = statistics.median(vli_times)

    # One traced 4-thread (or widest) run for the achieved-vs-modelled
    # parallel report.
    widest = max(threads)
    fmm.evaluator.configure_threads(widest)
    rec = TraceRecorder()
    prof = PhaseProfile()
    prof.bind_trace(rec, 0)
    fmm.evaluate(points, dens, plan=plan, profile=prof, eval_plan=ep)
    report = parallel_report(rec)
    fmm.evaluator.configure_threads(None)

    return {
        "n": n,
        "order": order,
        "q": q,
        "kernel": kernel,
        "repeats": repeats,
        "host_cpus": os.cpu_count() or 1,
        "host": host_info(),
        "serial_apply_s": serial_s,
        "apply_s": {str(t): apply_s[t] for t in threads},
        "speedup": {str(t): speedup[t] for t in threads},
        "serial_vli_s": serial_vli,
        "vli_s": {str(t): vli_s[t] for t in threads},
        "vli_speedup": {str(t): serial_vli / vli_s[t] for t in threads},
        "report": report,
        "report_threads": widest,
        "bit_identical": True,
    }


def gate(result: dict, target: float = 3.0, model_slack: float = 1.5) -> list:
    """CI bars; returns a list of failure strings (empty = pass).

    Each bar applies only when ``os.cpu_count()`` covers the thread
    count it measures: the 4-thread speedup bar on >= 4 cores, the
    achieved-vs-modelled bar (read from the traced widest run) on as
    many cores as that run had threads.  A host with fewer cores cannot
    show the speedup, so a bar there would test the host, not the code.
    """
    failures = []
    cpus = result["host_cpus"]
    if cpus >= 4 and "4" in result["speedup"]:
        got = result["speedup"]["4"]
        if got < target:
            failures.append(
                f"4-thread warm-apply speedup {got:.2f}x < {target:.1f}x"
            )
    overall = result["report"].get("overall")
    if overall is not None and cpus >= result["report_threads"]:
        modelled, achieved = overall["modelled"], overall["achieved"]
        # modelled assumes ideal tile balance; achieved must land within
        # model_slack of it (modelled/achieved <= slack)
        if achieved > 0 and modelled / achieved > model_slack:
            failures.append(
                f"achieved parallel speedup {achieved:.2f}x more than "
                f"{model_slack:.1f}x below modelled {modelled:.2f}x"
            )
    return failures


def write_result(result: dict, path: Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(result, indent=2) + "\n")


def _print(result: dict) -> None:
    print(
        f"N={result['n']} order={result['order']} q={result['q']} "
        f"{result['kernel']} on {result['host_cpus']} cores:"
    )
    print(f"  serial apply   {result['serial_apply_s'] * 1e3:9.1f} ms "
          f"(BLAS pinned to 1 thread)   VLI "
          f"{result['serial_vli_s'] * 1e3:7.1f} ms")
    for t, s in result["apply_s"].items():
        print(f"  {t:>2s}-thread      {s * 1e3:9.1f} ms "
              f"({result['speedup'][t]:5.2f}x)   VLI "
              f"{result['vli_s'][t] * 1e3:7.1f} ms "
              f"({result['vli_speedup'][t]:5.2f}x)")
    overall = result["report"].get("overall")
    if overall:
        print(f"  parallel-report overall: achieved {overall['achieved']:.2f}x"
              f" vs modelled {overall['modelled']:.2f}x")
    print("  bit-identical at every thread count: yes")


def test_parallel_smoke(benchmark):
    """Smoke-scale tile-pool check (CI's parallel-smoke gate).

    Asserts bit-identity at every swept thread count and — on
    multi-core hosts — that the 2-thread apply is no slower than 1.1x
    serial (pool overhead bound; real speedup is gated at paper scale
    by ``--gate``).
    """
    result = benchmark.pedantic(
        lambda: run_bench(n=4_000, order=4, q=40, repeats=3,
                          threads=(1, 2)),
        rounds=1,
        iterations=1,
    )
    _print(result)
    assert result["bit_identical"]
    if result["host_cpus"] >= 2:
        assert result["apply_s"]["2"] <= 1.1 * result["serial_apply_s"], (
            f"2-thread apply {result['apply_s']['2']:.4f}s slower than "
            f"1.1x serial {result['serial_apply_s']:.4f}s"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--q", type=int, default=50, help="max points per box")
    ap.add_argument("--kernel", default="laplace")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--threads", default="1,2,4",
                    help="comma-separated thread counts to sweep")
    ap.add_argument("--gate", action="store_true",
                    help="enforce CI bars (3x at 4 threads on >=4-core "
                         "hosts; achieved within 1.5x of modelled)")
    args = ap.parse_args()
    threads = tuple(int(x) for x in args.threads.split(","))
    result = run_bench(
        n=args.n, order=args.order, q=args.q, kernel=args.kernel,
        repeats=args.repeats, seed=args.seed, threads=threads,
    )
    _print(result)
    write_result(result)
    print(f"wrote {RESULT_PATH}")
    if args.gate:
        failures = gate(result)
        if failures:
            for f in failures:
                print(f"FAIL: {f}")
            return 1
        print("gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
