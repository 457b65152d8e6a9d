"""Tests for the plan-compiled evaluation engine (:mod:`repro.core.plan`).

The load-bearing invariant: every way of running a plan is
**bit-identical** — the one-shot plan a first evaluate compiles (no cached
kernel matrices), a cached or explicitly compiled plan, and a patched one
all apply the same batches in the same operation order.  That is what lets
`DistributedFmm` swap plans in under resilient retries and what keeps the
chaos-matrix replay checks meaningful.  Accuracy itself is pinned by
``tests/test_reference.py`` (golden outputs and the direct-sum ladder).
"""

import numpy as np
import pytest

from repro.core import Fmm, PlanMismatchError, PlanScopes, tree_fingerprint
from repro.datasets import uniform_cube
from repro.dist.driver import DistributedFmm
from repro.kernels import LaplaceGradientKernel
from repro.mpi import run_spmd
from repro.util.timer import PhaseProfile

N = 2000
SEED = 7


def _points(n=N, seed=SEED):
    return uniform_cube(n, seed=seed)


def _setup(kernel="laplace", order=4, q=40, n=N, **kw):
    fmm = Fmm(kernel, order=order, max_points_per_box=q, **kw)
    pts = _points(n)
    plan = fmm.plan(pts)
    rng = np.random.default_rng(SEED)
    dens = rng.standard_normal(n * fmm.kernel.source_dim)
    srt = dens.reshape(-1, fmm.kernel.source_dim)[plan.tree.order].reshape(-1)
    return fmm, plan, srt


def _oneshot(ev, tree, lists, dens):
    """A first evaluate on ``(tree, lists)``: applies a throwaway plan."""
    prof = PhaseProfile()
    out = ev.evaluate(tree, lists, dens, prof).copy()
    assert "setup:oneshot" in prof.events and "setup:plan" not in prof.events
    assert ev._plan_obj is None
    return out


def _oneshot_equals_compiled(fmm, plan, dens):
    ev = fmm.evaluator
    ref = _oneshot(ev, plan.tree, plan.lists, dens)
    ep = ev.compile_plan(plan.tree, plan.lists)
    assert ep.matrix_bytes() > 0
    out = ev.evaluate(plan.tree, plan.lists, dens, plan=ep)
    assert np.array_equal(ref, out)


@pytest.mark.parametrize("kernel", ["laplace", "stokes", "yukawa"])
def test_plan_bit_identical(kernel):
    _oneshot_equals_compiled(*_setup(kernel))


def test_plan_bit_identical_gradient_eval_kernel():
    _oneshot_equals_compiled(*_setup(eval_kernel=LaplaceGradientKernel()))


def test_plan_bit_identical_dense_m2l():
    _oneshot_equals_compiled(*_setup(m2l_mode="dense"))


def test_plan_bit_identical_without_matrix_cache():
    """Budget misses fall back to per-apply kernel evaluation, same floats:
    no cache, a budget that fits only part of the blocks, and the full
    cache all agree."""
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    full = ev.compile_plan(tree, lists)
    ref = ev.evaluate(tree, lists, dens, plan=full).copy()
    none = ev.compile_plan(tree, lists, cache_matrices=False)
    part = ev.compile_plan(
        tree, lists, matrix_budget=full.matrix_bytes() // 3
    )
    assert none.matrix_bytes() == 0
    assert 0 < part.matrix_bytes() < full.matrix_bytes()
    for ep in (none, part):
        assert np.array_equal(ref, ev.evaluate(tree, lists, dens, plan=ep))


def test_plan_scoped_ownership_masks():
    """A plan compiled with node masks keeps them and confines each phase
    to its masked rows; an all-true mask changes no bit."""
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    rng = np.random.default_rng(3)
    scope = rng.random(tree.n_nodes) < 0.7
    scopes = PlanScopes(s2u=scope, u2u=scope, vli=scope, xli=scope,
                        d2d=scope, wli=scope, d2t=scope, uli=scope)
    ep = ev.compile_plan(tree, lists, scopes=scopes)
    assert ep.scopes is scopes and ep.scopes.any_set()
    full = ev.compile_plan(tree, lists)
    assert not full.scopes.any_set()

    # S2U writes exactly the in-scope non-empty leaves, with the values
    # an unrestricted plan computes for them
    state_s, state_f = ev.allocate(tree), ev.allocate(tree)
    ev.s2u(tree, dens, state_s, PhaseProfile(), ep)
    ev.s2u(tree, dens, state_f, PhaseProfile(), full)
    leaves = tree.is_leaf & (tree.point_counts() > 0)
    assert not state_s["up"][leaves & ~scope].any()
    np.testing.assert_allclose(
        state_s["up"][leaves & scope], state_f["up"][leaves & scope],
        rtol=1e-12, atol=1e-12 * np.abs(state_f["up"]).max(),
    )

    everything = np.ones(tree.n_nodes, dtype=bool)
    ep_all = ev.compile_plan(
        tree, lists,
        scopes=PlanScopes(**{f: everything for f in
                             ("s2u", "u2u", "vli", "xli", "d2d",
                              "wli", "d2t", "uli")}),
    )
    ref = ev.evaluate(tree, lists, dens, plan=full).copy()
    assert np.array_equal(ref, ev.evaluate(tree, lists, dens, plan=ep_all))


def test_wli_pattern_change_recompiles_bit_identically():
    """Zeroing densities changes the W-list up-gating; the lazy W-list
    schedule recompiles and results stay bit-identical."""
    fmm, plan, dens = _setup(n=2500, q=25)
    ev = fmm.evaluator
    tree, lists = plan.tree, plan.lists
    ep = ev.compile_plan(tree, lists)
    out1 = ev.evaluate(tree, lists, dens, plan=ep).copy()
    ref1 = _oneshot(ev, tree, lists, dens)
    assert np.array_equal(ref1, out1)
    assert ep._wli is not None
    sig1 = ep._wli.sig.copy()
    # Zero the points of one W-list *leaf* source box: its up density
    # becomes exactly 0.0, flipping the keep mask for its pairs.
    counts = tree.point_counts()
    cols = ep.wli_cols
    src_leaves = cols[tree.is_leaf[cols] & (counts[cols] > 0)]
    assert src_leaves.size, "test tree has no leaf W-list sources"
    box = int(src_leaves[0])
    dens2 = dens.copy()
    dens2[tree.pt_begin[box] : tree.pt_end[box]] = 0.0
    out2 = ev.evaluate(tree, lists, dens2, plan=ep).copy()
    # a fresh plan compiles its W-list straight from dens2's pattern
    fresh = ev.compile_plan(tree, lists)
    ref2 = ev.evaluate(tree, lists, dens2, plan=fresh).copy()
    assert np.array_equal(ref2, out2)
    assert not np.array_equal(sig1, ep._wli.sig)


def test_lazy_compile_on_second_call():
    fmm, plan, dens = _setup()
    ev = fmm.evaluator
    r1 = _oneshot(ev, plan.tree, plan.lists, dens)  # nothing cached
    prof = PhaseProfile()
    r2 = ev.evaluate(plan.tree, plan.lists, dens, prof).copy()
    assert ev._plan_obj is not None and "setup:plan" in prof.events
    r3 = ev.evaluate(plan.tree, plan.lists, dens).copy()
    assert np.array_equal(r1, r2) and np.array_equal(r1, r3)


def test_fmm_facade_plan_roundtrip():
    """Fmm.evaluate with an eagerly compiled eval_plan matches the
    one-shot first call."""
    fmm = Fmm("laplace", order=4, max_points_per_box=40)
    pts = _points()
    plan = fmm.plan(pts)
    dens = np.random.default_rng(SEED).standard_normal(N)
    ref = fmm.evaluate(pts, dens, plan=plan)
    ep = fmm.compile_eval_plan(plan)
    out = fmm.evaluate(pts, dens, plan=plan, eval_plan=ep)
    assert np.array_equal(ref, out)


def test_plan_invalidation_fingerprint():
    """A plan compiled for tree A is rejected on a different tree B."""
    fmm, plan, dens = _setup()
    ep = fmm.evaluator.compile_plan(plan.tree, plan.lists)
    other = Fmm("laplace", order=4, max_points_per_box=70).plan(_points())
    assert tree_fingerprint(other.tree) != ep.fingerprint
    with pytest.raises(PlanMismatchError):
        fmm.evaluator.evaluate(
            other.tree, other.lists,
            dens[: other.tree.n_points], plan=ep,
        )
    # same tree object passes the identity fast-path
    ep.check(plan.tree)


@pytest.mark.parametrize("p", [1, 4])
def test_distributed_plan_bit_identical(p):
    """Per-rank plans with and without cached kernel matrices agree
    bitwise, and the compiled plan is reused across evaluates."""
    points = _points(1600, seed=11)

    def body(comm, cache):
        fmm = DistributedFmm(order=4, max_points_per_box=40)
        fmm.evaluator.PLAN_CACHE_MATRICES = cache
        fmm.setup(comm, points[comm.rank :: comm.size])
        pts = fmm.owned_points
        dens = np.sin(17.0 * pts[:, 0]) + pts[:, 2] * np.cos(11.0 * pts[:, 1])
        p1 = fmm.evaluate(dens)
        plan = fmm._plan
        p2 = fmm.evaluate(dens)
        assert np.array_equal(p1, p2) and fmm._plan is plan
        assert (plan.matrix_bytes() > 0) == cache
        return p1

    ref = run_spmd(p, body, False)
    new = run_spmd(p, body, True)
    for r in range(p):
        assert np.array_equal(ref.values[r], new.values[r])


def test_distributed_plan_compiles_once():
    """Trace setup:plan spans: exactly one compile per rank across
    consecutive evaluates (the cached plan is reused)."""
    points = _points(1600, seed=13)

    def body(comm):
        fmm = DistributedFmm(order=4, max_points_per_box=40)
        fmm.setup(comm, points[comm.rank :: comm.size])
        pts = fmm.owned_points
        dens = np.cos(5.0 * pts[:, 1])
        fmm.evaluate(dens)
        fmm.evaluate(dens)
        fmm.evaluate(2.0 * dens)  # new density, same plan
        return None

    res = run_spmd(4, body, trace=True)
    for r in range(4):
        spans = res.trace.span_events(rank=r, phase="setup:plan")
        assert len(spans) == 1, f"rank {r}: {len(spans)} setup:plan spans"
