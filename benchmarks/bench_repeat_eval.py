"""Repeated evaluation on a fixed tree: setup/apply amortisation.

The paper's driving applications (vortex-flow time stepping, iterative
boundary-integral solvers) apply the FMM many times per tree.  This bench
measures what a cached plan (:mod:`repro.core.plan`) buys in that regime
over the one-shot path every first evaluate takes: a throwaway plan
without cached kernel matrices, compiled and applied once.  The cached
plan pays a larger compile once; every later call runs the precompiled
pure-array schedules with cached leaf kernel matrices.

Reported wall times (real seconds, not the modelled machine):

* ``oneshot_s``        — median time of a one-shot call: compile a
  non-caching plan, then apply it
* ``plan_compile_s``   — one-time cached-plan compilation
* ``plan_first_s``     — compile + first apply (what call #1 costs)
* ``plan_apply_s``     — median steady-state apply with the plan
* ``speedup``          — oneshot_s / plan_apply_s

Results are written to ``BENCH_repeat_eval.json`` at the repo root.  Run
standalone for the paper-scale numbers (N=20k, order 6)::

    PYTHONPATH=src python benchmarks/bench_repeat_eval.py

or via pytest at smoke scale (used by CI's perf-smoke step)::

    pytest benchmarks/bench_repeat_eval.py --benchmark-only -s
"""

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_repeat_eval.json"


def run_bench(
    n: int = 20_000,
    order: int = 6,
    q: int = 50,
    kernel: str = "laplace",
    repeats: int = 5,
    seed: int = 1234,
) -> dict:
    from repro.core import Fmm
    from repro.datasets import uniform_cube

    points = uniform_cube(n, seed=seed)
    rng = np.random.default_rng(seed)
    fmm = Fmm(kernel, order=order, max_points_per_box=q)
    ks = fmm.kernel.source_dim
    dens = rng.standard_normal(n * ks)
    plan = fmm.plan(points)

    def oneshot():
        ep = fmm.compile_eval_plan(plan, cache_matrices=False)
        return fmm.evaluate(points, dens, plan=plan, eval_plan=ep)

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out

    # One-shot path (warm operator caches first so both sides measure
    # steady-state numerics, not one-time operator setup).
    oneshot()
    oneshot_times = [timed(oneshot)[0] for _ in range(max(3, repeats // 2))]
    ref = oneshot()

    t_compile, ep = timed(lambda: fmm.compile_eval_plan(plan))
    t_first, out = timed(lambda: fmm.evaluate(points, dens, plan=plan, eval_plan=ep))
    assert np.array_equal(ref, out), "plan apply must be bit-identical"
    plan_times = [
        timed(lambda: fmm.evaluate(points, dens, plan=plan, eval_plan=ep))[0]
        for _ in range(repeats)
    ]

    oneshot_s = statistics.median(oneshot_times)
    plan_s = statistics.median(plan_times)
    return {
        "n": n,
        "order": order,
        "q": q,
        "kernel": kernel,
        "repeats": repeats,
        "oneshot_s": oneshot_s,
        "plan_compile_s": t_compile,
        "plan_first_s": t_compile + t_first,
        "plan_apply_s": plan_s,
        "speedup": oneshot_s / plan_s,
        "plan_matrix_mb": ep.matrix_bytes() / 2**20,
        "bit_identical": True,
    }


def write_result(result: dict, path: Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(result, indent=2) + "\n")


def _print(result: dict) -> None:
    print(
        f"N={result['n']} order={result['order']} q={result['q']} "
        f"{result['kernel']}:"
    )
    print(f"  one-shot call     {result['oneshot_s'] * 1e3:9.1f} ms")
    print(f"  plan compile      {result['plan_compile_s'] * 1e3:9.1f} ms (once)")
    print(f"  plan first call   {result['plan_first_s'] * 1e3:9.1f} ms")
    print(f"  plan apply        {result['plan_apply_s'] * 1e3:9.1f} ms (steady)")
    print(f"  amortised speedup {result['speedup']:9.2f}x")
    print(f"  cached matrices   {result['plan_matrix_mb']:9.1f} MB")


def test_repeat_eval(benchmark):
    """Smoke-scale amortisation check (CI's perf-smoke gate).

    Asserts the amortised plan apply is no slower than a one-shot call
    (1.1x tolerance against timer noise at tiny N) and that the result
    stayed bit-identical.
    """
    result = benchmark.pedantic(
        lambda: run_bench(n=4_000, order=4, q=40, repeats=3),
        rounds=1,
        iterations=1,
    )
    _print(result)
    write_result(result)
    assert result["bit_identical"]
    assert result["plan_apply_s"] <= 1.1 * result["oneshot_s"], (
        f"amortised plan apply {result['plan_apply_s']:.4f}s slower than "
        f"one-shot call {result['oneshot_s']:.4f}s"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--q", type=int, default=50, help="max points per box")
    ap.add_argument("--kernel", default="laplace")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--assert-speedup", type=float, default=None,
                    metavar="X", help="fail unless speedup >= X")
    args = ap.parse_args()
    result = run_bench(
        n=args.n, order=args.order, q=args.q, kernel=args.kernel,
        repeats=args.repeats, seed=args.seed,
    )
    _print(result)
    write_result(result)
    print(f"wrote {RESULT_PATH}")
    if args.assert_speedup is not None and result["speedup"] < args.assert_speedup:
        print(f"FAIL: speedup {result['speedup']:.2f}x < {args.assert_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
