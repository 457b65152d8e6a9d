"""Multi-RHS evaluation: bit-identity, the GEMM contract, concurrency.

The serving engine's micro-batcher stacks densities as columns and runs
them through all eight phases in one apply.  That is only sound because
of the fixed-shape GEMM contract (:mod:`repro.core.contract`): output
column ``c`` of every batched GEMM depends on input column ``c`` alone,
so a batched result must equal the solo result *bitwise*, not just to
rounding.  These tests pin that promise across kernels, one-shot and
compiled plans, and concurrent callers sharing one evaluator.
"""

import threading

import numpy as np
import pytest

from repro.core import Fmm
from repro.core.contract import Q_PAD, gemm_cols
from repro.datasets import plummer_cluster, uniform_cube
from repro.kernels import get_kernel
from repro.perf.trace import TraceRecorder
from repro.util.timer import PhaseProfile


class TestGemmColsContract:
    """The column-independence contract every batched phase relies on."""

    @pytest.mark.parametrize("q", [1, 3, Q_PAD, Q_PAD + 1, 2 * Q_PAD])
    def test_column_independent_bits(self, rng, q):
        k = rng.standard_normal((4, 9, 13))
        den = rng.standard_normal((4, 13, q))
        out = gemm_cols(k, den)
        for c in range(q):
            solo = gemm_cols(k, den[:, :, c : c + 1])[:, :, 0]
            assert np.array_equal(out[:, :, c], solo), f"column {c}"

    def test_position_and_neighbour_independent(self, rng):
        """A column's bits survive any placement and any neighbours."""
        k = rng.standard_normal((3, 7, 11))
        col = rng.standard_normal((3, 11, 1))
        ref = gemm_cols(k, col)[:, :, 0]
        for q, pos in [(2, 1), (5, 0), (5, 4), (8, 3), (11, 9)]:
            den = rng.standard_normal((3, 11, q))
            den[:, :, pos] = col[:, :, 0]
            out = gemm_cols(k, den)
            assert np.array_equal(out[:, :, pos], ref), f"q={q} pos={pos}"

    def test_matches_matmul_numerically(self, rng):
        k = rng.standard_normal((5, 6, 8))
        den = rng.standard_normal((5, 8, 10))
        np.testing.assert_allclose(
            gemm_cols(k, den), np.matmul(k, den), rtol=1e-13, atol=1e-15
        )


DENS_COLUMNS = 5


def _density_block(kernel_name, n, q, seed):
    ks = get_kernel(kernel_name).source_dim
    return np.random.default_rng(seed).standard_normal((n * ks, q))


class TestMultiRhsBitIdentity:
    """Batched evaluate vs per-column solo evaluate, bit for bit."""

    @pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
    def test_plan_path(self, kernel):
        n = 900
        pts = uniform_cube(n, seed=31)
        fmm = Fmm(kernel, order=4, max_points_per_box=40)
        block = _density_block(kernel, n, DENS_COLUMNS, seed=5)
        plan = fmm.plan(pts)
        ep = fmm.compile_eval_plan(plan)
        multi = fmm.evaluate(pts, block, plan=plan, eval_plan=ep)
        assert multi.shape == (n * fmm.kernel.target_dim, DENS_COLUMNS)
        for j in range(DENS_COLUMNS):
            solo = fmm.evaluate(pts, block[:, j], plan=plan, eval_plan=ep)
            assert np.array_equal(multi[:, j], solo), f"{kernel} col {j}"

    @pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_plan_path_adaptive(self, kernel, precision):
        """An adaptive tree, so the batched W- and X-list blocks run too
        (the uniform cube above has no W/X pairs)."""
        n = 900
        pts = plummer_cluster(n, seed=21)
        fmm = Fmm(kernel, order=4, max_points_per_box=40,
                  precision=precision)
        block = _density_block(kernel, n, DENS_COLUMNS, seed=9)
        plan = fmm.plan(pts)
        assert plan.lists.w.indices.size and plan.lists.x.indices.size
        ep = fmm.compile_eval_plan(plan)
        multi = fmm.evaluate(pts, block, plan=plan, eval_plan=ep)
        one = fmm.evaluate(pts, block[:, :1], plan=plan, eval_plan=ep)
        for j in range(DENS_COLUMNS):
            solo = fmm.evaluate(pts, block[:, j], plan=plan, eval_plan=ep)
            assert np.array_equal(multi[:, j], solo), f"{kernel} col {j}"
            if j == 0:
                assert np.array_equal(one[:, 0], solo)

    @pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
    def test_oneshot_path(self, kernel):
        """Block and columns each on a fresh evaluator's one-shot plan."""
        n = 700
        pts = uniform_cube(n, seed=32)
        block = _density_block(kernel, n, 3, seed=6)

        def first_call(dens):
            fmm = Fmm(kernel, order=4, max_points_per_box=40)
            prof = PhaseProfile()
            out = fmm.evaluate(pts, dens, profile=prof)
            assert "setup:oneshot" in prof.events
            return out

        multi = first_call(block)
        for j in range(3):
            solo = first_call(block[:, j])
            assert np.array_equal(multi[:, j], solo), f"{kernel} col {j}"

    def test_plan_path_equals_oneshot_path(self):
        """A compiled plan and the one-shot plan agree bitwise on a block,
        so neither batching nor plan caching changes answers."""
        n = 800
        pts = uniform_cube(n, seed=33)
        fmm = Fmm("laplace", order=4, max_points_per_box=35)
        block = _density_block("laplace", n, 4, seed=7)
        plan = fmm.plan(pts)
        b = fmm.evaluate(pts, block, plan=plan)  # first call: one-shot
        assert fmm.evaluator._plan_obj is None
        ep = fmm.compile_eval_plan(plan)
        a = fmm.evaluate(pts, block, plan=plan, eval_plan=ep)
        assert np.array_equal(a, b)

    def test_single_column_2d_equals_1d(self):
        n = 600
        pts = uniform_cube(n, seed=34)
        fmm = Fmm("laplace", order=4, max_points_per_box=30)
        dens = np.random.default_rng(8).standard_normal(n)
        plan = fmm.plan(pts)
        ep = fmm.compile_eval_plan(plan)
        flat = fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
        col = fmm.evaluate(pts, dens[:, None], plan=plan, eval_plan=ep)
        assert col.shape == (n, 1)
        assert np.array_equal(col[:, 0], flat)


class TestDensityValidation:
    def test_1d_wrong_size_reports_shape(self):
        pts = uniform_cube(100, seed=1)
        with pytest.raises(ValueError, match=r"densities shape \(100,\)"):
            Fmm("stokes", order=4).evaluate(pts, np.zeros(100))

    def test_2d_wrong_rows_reports_shape(self):
        pts = uniform_cube(100, seed=1)
        with pytest.raises(ValueError, match=r"densities shape \(50, 3\)"):
            Fmm("laplace", order=4).evaluate(pts, np.zeros((50, 3)))

    def test_wrong_size_any_rank_reports_shape(self):
        pts = uniform_cube(100, seed=1)
        with pytest.raises(ValueError, match=r"densities shape \(50, 2, 2\)"):
            Fmm("laplace", order=4).evaluate(pts, np.zeros((50, 2, 2)))

    def test_rejected_call_neither_compiles_nor_counts(self):
        """A wrong-size density fails before the lazy plan cache sees it,
        so the next good call is still the pair's first (one-shot)."""
        n = 300
        pts = uniform_cube(n, seed=2)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        plan = fmm.plan(pts)
        ev = fmm.evaluator
        for bad in (np.zeros(n + 1), np.zeros((n - 1, 2))):
            prof = PhaseProfile()
            with pytest.raises(ValueError, match="densities shape"):
                ev.evaluate(plan.tree, plan.lists, bad, prof)
            assert ev._plan_calls == 0
            assert not any(k.startswith("setup:") for k in prof.events)
        prof = PhaseProfile()
        ev.evaluate(plan.tree, plan.lists, np.ones(n), prof)
        assert ev._plan_calls == 1 and ev._plan_obj is None
        assert "setup:oneshot" in prof.events


class TestConcurrentEvaluate:
    def test_shared_fmm_bit_identical_one_compile(self):
        """Threads hammering one Fmm/plan agree bitwise with serial runs
        and trigger exactly one lazy plan compile (``setup:plan`` span)."""
        n = 700
        n_threads, calls_each = 4, 3
        pts = uniform_cube(n, seed=41)
        fmm = Fmm("laplace", order=4, max_points_per_box=40)
        plan = fmm.plan(pts)
        blocks = [
            np.random.default_rng(100 + i).standard_normal(n)
            for i in range(n_threads)
        ]

        trace = TraceRecorder()
        profiles = []
        for i in range(n_threads):
            prof = PhaseProfile()
            prof.bind_trace(trace, rank=i)
            profiles.append(prof)

        results = [[None] * calls_each for _ in range(n_threads)]
        errors = []
        start = threading.Barrier(n_threads)

        def run(i):
            try:
                start.wait(timeout=10)
                for c in range(calls_each):
                    results[i][c] = fmm.evaluate(
                        pts, blocks[i], plan=plan, profile=profiles[i]
                    )
            except Exception as err:  # pragma: no cover - failure detail
                errors.append(err)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors, errors

        # serial references on a fresh evaluator (same tree, same numerics)
        fmm2 = Fmm("laplace", order=4, max_points_per_box=40)
        ep = fmm2.compile_eval_plan(plan)
        for i in range(n_threads):
            ref = fmm2.evaluate(pts, blocks[i], plan=plan, eval_plan=ep)
            for c in range(calls_each):
                assert np.array_equal(results[i][c], ref), f"thread {i} call {c}"

        compiles = trace.span_events(phase="setup:plan")
        assert len(compiles) == 1, (
            f"expected exactly one plan compile, saw {len(compiles)}"
        )
