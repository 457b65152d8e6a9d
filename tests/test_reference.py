"""Path-independent references for the FMM: golden outputs and an accuracy ladder.

Two oracles that outlive any code path:

* **Golden outputs** (``tests/data/golden_small.npz``): the inputs and
  potentials of ~600-point cases covering every evaluation entry point —
  serial ``Fmm.evaluate`` over distribution x kernel, dense M2L, a
  multi-RHS block, ``evaluate_targets``, the GPU evaluator (with and
  without the device W/X-lists) and the distributed driver.  Outputs are
  compared at ``1e-9 * max|pot|``: far below the FMM's own truncation
  error, loose enough for another host's BLAS summation order.
* **Direct-sum ladder**: uniform / plummer / ellipsoid x laplace / stokes
  / yukawa / laplace-gradient x order 4 and 6, each held to a fixed
  relative-error bound against exact summation at sampled targets.

Regenerate the golden file (only when the numerics change on purpose)
with ``PYTHONPATH=src python tests/test_reference.py --regen``.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core import Fmm
from repro.datasets import make_distribution
from repro.kernels import LaplaceGradientKernel, direct_sum, get_kernel

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_small.npz")
GOLDEN_N = 600
GOLDEN_RTOL = 1e-9
DISTS = ("uniform", "plummer", "ellipsoid")
KERNELS = ("laplace", "stokes", "yukawa", "laplace-gradient")


def _fmm(kernel: str, **kw) -> Fmm:
    if kernel == "laplace-gradient":
        return Fmm("laplace", eval_kernel=LaplaceGradientKernel(), **kw)
    return Fmm(kernel, **kw)


def _inputs() -> dict:
    """Fresh golden inputs (only used when regenerating the file)."""
    rng = np.random.default_rng(20261017)
    out = {"targets": rng.random((150, 3))}
    for i, dist in enumerate(DISTS):
        out[f"pts/{dist}"] = make_distribution(dist, GOLDEN_N, seed=100 + i)
        for ks in (1, 3):
            out[f"dens/{dist}/{ks}"] = rng.standard_normal(GOLDEN_N * ks)
    out["block/plummer"] = rng.standard_normal((GOLDEN_N, 3))
    return out


def _dist_run(p: int, pts, dens, **kw) -> np.ndarray:
    """Distributed potentials reassembled into the global point order."""
    from repro.dist.driver import distributed_fmm_rank, match_owned_rows
    from repro.mpi import run_spmd

    res = run_spmd(p, distributed_fmm_rank, pts, dens, timeout=300, **kw)
    kt = res.values[0][2].evaluator.eval_kernel.target_dim
    out = np.empty((len(pts), kt))
    for own_pts, pot, _ in res.values:
        out[match_owned_rows(pts, own_pts)] = pot.reshape(-1, kt)
    return out.reshape(-1)


def _gpu_run(inp, dist: str, **kw) -> np.ndarray:
    from repro.core import build_lists, build_tree
    from repro.gpu import GpuFmmEvaluator

    pts, dens = inp[f"pts/{dist}"], inp[f"dens/{dist}/1"]
    tree = build_tree(pts, 40)
    lists = build_lists(tree)
    ev = GpuFmmEvaluator(get_kernel("laplace"), 4, **kw)
    pot_sorted = ev.evaluate(tree, lists, dens[tree.order])
    pot = np.empty_like(pot_sorted)
    pot[tree.order] = pot_sorted
    return pot


def _cases() -> dict:
    """Golden case name -> ``fn(inputs) -> output`` (each on a fresh Fmm)."""
    cases = {}
    for dist in DISTS:
        for kern in KERNELS:
            def serial(inp, dist=dist, kern=kern):
                fmm = _fmm(kern, order=4, max_points_per_box=40)
                ks = fmm.kernel.source_dim
                return fmm.evaluate(inp[f"pts/{dist}"], inp[f"dens/{dist}/{ks}"])

            cases[f"serial/{dist}/{kern}"] = serial

    cases["dense_m2l/uniform/laplace"] = lambda inp: Fmm(
        "laplace", order=4, max_points_per_box=40, m2l_mode="dense"
    ).evaluate(inp["pts/uniform"], inp["dens/uniform/1"])
    cases["multi_rhs/plummer/laplace"] = lambda inp: Fmm(
        "laplace", order=4, max_points_per_box=40
    ).evaluate(inp["pts/plummer"], inp["block/plummer"])
    cases["targets/uniform/laplace"] = lambda inp: Fmm(
        "laplace", order=4, max_points_per_box=40
    ).evaluate_targets(inp["pts/uniform"], inp["dens/uniform/1"], inp["targets"])
    cases["targets/plummer/laplace-gradient"] = lambda inp: _fmm(
        "laplace-gradient", order=4, max_points_per_box=40
    ).evaluate_targets(inp["pts/plummer"], inp["dens/plummer/1"], inp["targets"])
    cases["gpu/uniform/laplace"] = lambda inp: _gpu_run(inp, "uniform")
    cases["gpu_wx/plummer/laplace"] = lambda inp: _gpu_run(
        inp, "plummer", accelerate_wx=True
    )
    cases["dist_p4/plummer/laplace"] = lambda inp: _dist_run(
        4, inp["pts/plummer"], inp["dens/plummer/1"],
        order=4, max_points_per_box=40,
    )
    cases["dist_p4/uniform/stokes"] = lambda inp: _dist_run(
        4, inp["pts/uniform"], inp["dens/uniform/3"],
        kernel="stokes", order=4, max_points_per_box=40,
    )
    cases["dist_gpu_wx_p2/ellipsoid/laplace"] = lambda inp: _dist_run(
        2, inp["pts/ellipsoid"], inp["dens/ellipsoid/1"],
        order=4, max_points_per_box=40, use_gpu=True, gpu_wx=True,
    )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as f:
        return {k: f[k] for k in f.files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(golden, name):
    """Every entry point still reproduces its frozen output."""
    ref = golden[f"out/{name}"]
    out = np.asarray(CASES[name](golden))
    assert out.shape == ref.shape
    err = np.max(np.abs(out - ref))
    assert err <= GOLDEN_RTOL * np.max(np.abs(ref)), (name, err)


def test_golden_covers_every_case(golden):
    stored = {k[len("out/"):] for k in golden if k.startswith("out/")}
    assert stored == set(CASES)


# -- direct-sum accuracy ladder ------------------------------------------------

LADDER_N = 1500
LADDER_SAMPLES = 300

#: Relative L2 error bound per (distribution, kernel, order): twice the
#: error measured when the ladder was introduced.  A change that loses
#: accuracy on any rung fails here no matter which code path it touches.
#: Stokes needs order >= 6 to be useful; its order-4 rungs still pin the
#: (large) error so a change cannot make it worse unnoticed.
LADDER_BOUND = {
    ("uniform", "laplace", 4): 7.7e-4,
    ("uniform", "laplace", 6): 4.9e-6,
    ("uniform", "stokes", 4): 2.9e0,
    ("uniform", "stokes", 6): 3.7e-4,
    ("uniform", "yukawa", 4): 9.9e-4,
    ("uniform", "yukawa", 6): 6.4e-6,
    ("uniform", "laplace-gradient", 4): 8.8e-4,
    ("uniform", "laplace-gradient", 6): 1.2e-5,
    ("plummer", "laplace", 4): 7.4e-4,
    ("plummer", "laplace", 6): 4.7e-6,
    ("plummer", "stokes", 4): 3.6e0,
    ("plummer", "stokes", 6): 4.6e-4,
    ("plummer", "yukawa", 4): 7.6e-4,
    ("plummer", "yukawa", 6): 4.8e-6,
    ("plummer", "laplace-gradient", 4): 6.1e-4,
    ("plummer", "laplace-gradient", 6): 7.1e-6,
    ("ellipsoid", "laplace", 4): 1.1e-4,
    ("ellipsoid", "laplace", 6): 8.0e-7,
    ("ellipsoid", "stokes", 4): 4.8e-1,
    ("ellipsoid", "stokes", 6): 1.2e-4,
    ("ellipsoid", "yukawa", 4): 1.1e-4,
    ("ellipsoid", "yukawa", 6): 8.0e-7,
    ("ellipsoid", "laplace-gradient", 4): 1.6e-6,
    ("ellipsoid", "laplace-gradient", 6): 2.5e-8,
}


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("kern", KERNELS)
@pytest.mark.parametrize("dist", DISTS)
def test_direct_sum_ladder(dist, kern, order):
    pts = make_distribution(dist, LADDER_N, seed=11)
    fmm = _fmm(kern, order=order, max_points_per_box=40)
    ks = fmm.kernel.source_dim
    kt = fmm.evaluator.eval_kernel.target_dim
    rng = np.random.default_rng(5)
    dens = rng.standard_normal(LADDER_N * ks)
    pot = fmm.evaluate(pts, dens).reshape(-1, kt)
    sample = rng.choice(LADDER_N, LADDER_SAMPLES, replace=False)
    ref = direct_sum(fmm.evaluator.eval_kernel, pts[sample], pts, dens)
    err = np.linalg.norm(pot[sample].reshape(-1) - ref) / np.linalg.norm(ref)
    assert err < LADDER_BOUND[(dist, kern, order)], err


def _regen() -> None:
    inp = _inputs()
    out = dict(inp)
    for name, fn in CASES.items():
        out[f"out/{name}"] = np.asarray(fn(inp))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    np.savez_compressed(GOLDEN, **out)
    print(f"wrote {len(CASES)} golden cases -> {GOLDEN}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
