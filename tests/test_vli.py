"""The sibling-blocked, frequency-major FFT V-list against independent oracles.

``EvalPlan.apply_vli_fft`` runs every V-list translation as small GEMMs
over gathered sibling blocks.  These tests hold the downward check
potentials it produces to

* the dense M2L ablation (``m2l_mode="dense"``: one dense surface-to-
  surface matrix per pair, no FFT, no blocking) at ``rtol = 1e-12``,
  on an adaptive Plummer cluster whose boundary and sparse parents
  leave many of the 26 neighbour slots and 8 child slots empty, for a
  homogeneous scalar kernel (Laplace), a tensor kernel (Stokes,
  kt = ks = 3) and a kernel with per-level transforms (Yukawa), for an
  ownership-masked plan, and for fp32 plans at :data:`FP32_RTOL`;
* itself: serial and 2- and 4-thread applies, one column and the
  matching column of 3- and 8-column blocks, and a patched plan and a
  fresh compile must all agree bit for bit.

Only ``up`` feeds the V-list, so each case computes the upward pass once
and runs the V-list phase alone on copies of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Fmm
from repro.core.evaluator import FmmEvaluator
from repro.core.lists import build_lists
from repro.core.plan import PlanScopes
from repro.core.tree import build_tree
from repro.datasets import plummer_cluster
from repro.kernels import get_kernel
from repro.util.timer import PhaseProfile

ORDER = 4
N = 1500
FP64_RTOL = 1e-12
#: fp32 plans translate complex64 spectra by complex64 kernel transforms
#: (accumulating in complex64 inside each GEMM): a few float32 ulps
#: (eps 6e-8) over the few hundred terms of a check potential.
FP32_RTOL = 1e-5


@pytest.fixture(scope="module")
def geometry():
    pts = plummer_cluster(N, seed=7)
    tree = build_tree(pts, 30)
    return pts, tree, build_lists(tree)


def _up(ev, tree, lists, plan, dens):
    """``up`` after S2U + U2U for ``dens`` (one column or a block)."""
    state = (ev.allocate(tree) if dens.ndim == 1
             else ev.allocate_multi(tree, dens.shape[1]))
    prof = PhaseProfile()
    ev.s2u(tree, dens, state, prof, plan)
    ev.u2u(tree, state, prof, plan)
    return state["up"]


def _vli(ev, tree, lists, plan, up):
    """``dcheck`` after the V-list phase alone."""
    state = {"up": up.copy(), "dcheck": np.zeros(up.shape[:-1] + (
        ev.ns * ev.kernel.target_dim,))}
    ev.vli(tree, lists, state, PhaseProfile(), plan)
    return state["dcheck"]


def _close(got, ref, rtol):
    err = np.max(np.abs(got - ref))
    assert err <= rtol * np.max(np.abs(ref)), err


def _density(kernel, n, seed, q=None):
    rng = np.random.default_rng(seed)
    shape = (n * kernel.source_dim,) if q is None else (n * kernel.source_dim, q)
    return rng.standard_normal(shape)


def _case(kernel_name, geometry, precision="fp64", scopes=None):
    """(FFT dcheck, dense dcheck) from one shared ``up``."""
    _, tree, lists = geometry
    kern = get_kernel(kernel_name)
    ev = FmmEvaluator(kern, ORDER, precision=precision)
    dense = FmmEvaluator(kern, ORDER, m2l_mode="dense")
    plan = ev.compile_plan(tree, lists, scopes=scopes)
    up = _up(ev, tree, lists, plan, _density(kern, tree.n_points, 3))
    ref = _vli(dense, tree, lists, dense.compile_plan(tree, lists, scopes=scopes), up)
    return _vli(ev, tree, lists, plan, up), ref


class TestDenseOracle:
    @pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
    def test_fft_matches_dense_fp64(self, geometry, kernel):
        got, ref = _case(kernel, geometry)
        assert np.any(ref != 0.0)
        _close(got, ref, FP64_RTOL)

    @pytest.mark.parametrize("kernel", ["laplace", "stokes"])
    def test_fft_matches_dense_fp32(self, geometry, kernel):
        got, ref = _case(kernel, geometry, precision="fp32")
        _close(got, ref, FP32_RTOL)

    def test_scoped_plan(self, geometry):
        """An ownership-masked plan writes exactly its in-scope targets,
        each bit-identical to the unscoped plan and dense-accurate."""
        _, tree, lists = geometry
        own = tree.centers[:, 0] < 0.5
        got, ref = _case("laplace", geometry, scopes=PlanScopes(vli=own))
        _close(got, ref, FP64_RTOL)
        full, _ = _case("laplace", geometry)
        assert np.all(got[~own] == 0.0)
        assert np.array_equal(got[own], full[own])


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def setup(self, geometry):
        _, tree, lists = geometry
        kern = get_kernel("laplace")
        ev = FmmEvaluator(kern, ORDER)
        plan = ev.compile_plan(tree, lists)
        block = _density(kern, tree.n_points, 11, q=8)
        up8 = _up(ev, tree, lists, plan, block)
        return tree, lists, ev, plan, up8

    def test_thread_counts(self, setup):
        tree, lists, ev, plan, up8 = setup
        up = up8[:, 0]
        ref = _vli(ev, tree, lists, plan, up)
        ref8 = _vli(ev, tree, lists, plan, up8)
        for threads in (1, 2, 4):
            ev.configure_threads(threads)
            try:
                assert np.array_equal(_vli(ev, tree, lists, plan, up), ref)
                assert np.array_equal(_vli(ev, tree, lists, plan, up8), ref8)
            finally:
                ev.configure_threads(None)

    def test_one_column_equals_block_column(self, setup):
        tree, lists, ev, plan, up8 = setup
        cols = _vli(ev, tree, lists, plan, up8)
        for j in (0, 5):
            solo = _vli(ev, tree, lists, plan, up8[:, j])
            assert np.array_equal(cols[:, j], solo)
        # and inside a 3-column block at another position
        three = _vli(ev, tree, lists, plan, up8[:, [3, 6, 0]])
        assert np.array_equal(three[:, 2], cols[:, 0])
        assert np.array_equal(three[:, 1], cols[:, 6])

    def test_patched_plan_equals_fresh_compile(self, geometry):
        pts, _, _ = geometry
        rng = np.random.default_rng(5)
        fmm = Fmm("laplace", order=ORDER, max_points_per_box=30)
        plan = fmm.plan(pts)
        eplan = fmm.compile_eval_plan(plan)
        moved = rng.choice(N, N // 20, replace=False)
        new = pts.copy()
        new[moved] = np.clip(
            new[moved] + 0.02 * rng.standard_normal((moved.size, 3)), 0.0, 1.0
        )
        new_plan, delta = fmm.update_plan(plan, new, moved=moved)
        patched = fmm.patch_eval_plan(eplan, plan, new_plan, delta=delta)
        fresh = fmm.compile_eval_plan(new_plan)
        ev, tree, lists = fmm.evaluator, new_plan.tree, new_plan.lists
        up = _up(ev, tree, lists, fresh, _density(fmm.kernel, N, 8))
        assert np.array_equal(
            _vli(ev, tree, lists, patched, up), _vli(ev, tree, lists, fresh, up)
        )

