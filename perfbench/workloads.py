"""The four workloads.  Each builds its inputs from the seed, sets up
several times (reporting the median), measures for the given seconds,
checks its outputs outside the timed code, and fills the end-to-end and
per-layer metric tables.

Every workload emits every metric name: a layer that a workload does
not run reads 0 there (no work, no time).  The end-to-end metrics are
never 0.

With ``traced`` set, timed units alternate untraced and traced; the
per-layer numbers come from the traced units, and ``trace.overhead_frac``
compares the two halves.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import (
    REL_ERR_MAX,
    CpuWall,
    NoSpans,
    Spans,
    ellipsoid_surface,
    local_move,
    median,
    peak_rss_mb,
    plummer_cluster,
    rel_err,
    summarize,
    uniform_cube,
)
from loadgen import OpenLoop, counts

PHASES = ("S2U", "U2U", "VLI", "XLI", "D2D", "WLI", "D2T", "ULI")

#: End-to-end metrics: (name, unit).  ``op_s`` is the median of the
#: workload's unit of work (see ``OP_MEANING``).
END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MB"),
)

OP_MEANING = {
    "cold_solve": "one Fmm.evaluate on fresh geometry, tree and lists included",
    "timestep": "one warm plan apply",
    "serve_open": "one request at the lo rate, timed from its due time",
    "dist_solve": "one run_spmd(distributed_fmm_rank) solve on fresh geometry",
}

#: Per-layer metrics: (name, unit).
PER_LAYER = (
    # the issue's workload-specific end-to-end quantities, 0 where absent
    ("solve_s", "s"),
    ("apply_s", "s"),
    ("update_s", "s"),
    ("lat_lo.p50_s", "s"),
    ("lat_lo.tail_s", "s"),
    ("lat_hi.p50_s", "s"),
    ("lat_hi.tail_s", "s"),
    ("rel_err", "ratio"),
    ("fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    # core.tree / core.lists
    ("core.tree.build_s", "s"),
    ("core.lists.build_s", "s"),
    ("core.lists.u_pairs", "count"),
    ("core.lists.v_pairs", "count"),
    ("core.lists.w_pairs", "count"),
    ("core.lists.x_pairs", "count"),
    ("core.tree.update_s", "s"),
    # core.evaluator (per-call path)
    *((f"core.evaluator.{p}_s", "s") for p in PHASES),
    ("core.evaluator.gflop", "GFLOP"),
    # core.plan
    ("core.plan.compile_s", "s"),
    ("core.plan.setup_wli_s", "s"),
    ("core.plan.patch_s", "s"),
    ("core.plan.patch_reuse_frac", "ratio"),
    *((f"core.plan.{p}_s", "s") for p in PHASES),
    ("core.plan.gflop", "GFLOP"),
    ("core.plan.matrix_mb", "MB"),
    # core.parallel
    ("core.parallel.cpu_per_wall", "ratio"),
    ("core.parallel.tiles_run", "count"),
    # serve
    *(
        (f"serve.{r}.{m}", u)
        for r in ("lo", "hi")
        for m, u in (
            ("queue_wait_s.p50", "s"),
            ("queue_wait_s.tail", "s"),
            ("service_s.p50", "s"),
            ("batch_size.mean", "count"),
            ("cpu_per_wall", "ratio"),
            ("queue_depth.peak", "count"),
        )
    ),
    ("serve.submit_s.p50", "s"),
    ("serve.plan_cache.hit_rate", "ratio"),
    ("serve.gen_late_s.max", "s"),
    ("serve.apply.VLI_frac", "ratio"),
    # dist / octree / mpi
    ("octree.build_s", "s"),
    ("dist.let_s", "s"),
    ("dist.lists_s", "s"),
    ("dist.balance_s", "s"),
    ("dist.eval_s", "s"),
    ("dist.comm_wait_s", "s"),
    ("dist.rank_imbalance", "ratio"),
    ("mpi.messages", "count"),
    ("mpi.bytes", "count"),
)

#: Workload parameters.  "full" is what BENCHMARK.json measures; "smoke"
#: is a seconds-long variant for the benchmark's own tests.
PARAMS = {
    "full": {
        "setup_reps": 3,
        "sample": 64,  # direct-sum check targets per output
        "cold_solve": {"n": 5000, "q": 64, "order": 6},
        "timestep": {
            "n": 12000, "q": 50, "order": 6, "threads": 2,
            "move_frac": 0.05, "sigma": 0.01, "reads_per_step": 2,
        },
        "serve_open": {
            "n": 8000, "q": 400, "order": 6, "workers": 2,
            # lo is service-bound; hi sits below the knee (about 17 req/s
            # on a 2-core host), where queueing and batching start to show
            "rates": {"lo": 4.0, "hi": 12.0},
            "window_share": {"lo": 0.7, "hi": 0.3},
            # tenant -> model; six tenants on the uniform model, two on
            # the Plummer one, so each rate's median sits inside one
            # model's service-time cluster
            "tenants": {f"t{i}": ("m_uniform" if i < 6 else "m_plummer")
                        for i in range(8)},
            "timeout_s": 5.0,
            "checks_per_model": 3,
            "probe_applies": 8,
        },
        "dist_solve": {"n": 6000, "q": 64, "order": 6, "nranks": 2},
    },
    "smoke": {
        "setup_reps": 2,
        "sample": 16,
        "cold_solve": {"n": 1500, "q": 64, "order": 6},
        "timestep": {
            "n": 2000, "q": 50, "order": 6, "threads": 2,
            "move_frac": 0.05, "sigma": 0.01, "reads_per_step": 2,
        },
        "serve_open": {
            "n": 1500, "q": 200, "order": 6, "workers": 2,
            "rates": {"lo": 20.0, "hi": 40.0},
            "window_share": {"lo": 0.6, "hi": 0.4},
            "tenants": {f"t{i}": ("m_uniform" if i < 6 else "m_plummer")
                        for i in range(8)},
            "timeout_s": 5.0,
            "checks_per_model": 1,
            "probe_applies": 2,
        },
        "dist_solve": {"n": 1500, "q": 64, "order": 6, "nranks": 2},
    },
}

WORKLOADS = ("cold_solve", "timestep", "serve_open", "dist_solve")


class Run:
    """State shared by one workload run: seed stream, spans, tallies."""

    def __init__(self, name, seed, seconds, traced, size="full"):
        from repro.perf.trace import TraceRecorder

        self.name = name
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.traced = bool(traced)
        self.common = PARAMS[size]
        self.p = PARAMS[size][name]
        self.rng = np.random.default_rng([self.seed, WORKLOADS.index(name)])
        self.spans = Spans() if traced else NoSpans()
        self.recorder = TraceRecorder() if traced else None
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.problems: list[str] = []
        self.rel_errs: list[float] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {n: 0.0 for n, _ in PER_LAYER}
        self.dists: dict[str, dict] = {}
        self.setup_samples: list[float] = []
        #: per-unit wall seconds, split by whether the unit was traced
        self.unit_s = {False: [], True: []}

    # -- bookkeeping -------------------------------------------------------

    def unit_traced(self, i: int) -> bool:
        return self.traced and i % 2 == 1

    def profile(self, traced: bool):
        from repro.util.timer import PhaseProfile

        prof = PhaseProfile()
        if traced:
            prof.bind_trace(self.recorder)
        return prof

    def op_failed(self, what: str, err: BaseException) -> None:
        self.failed += 1
        self.problems.append(f"{what}: {type(err).__name__}: {err}")

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            self.problems.append(f"check failed: {what}")

    def check_rel_err(self, kernel, points, dens, pot, what) -> None:
        sample = self.rng.choice(len(points), self.common["sample"], replace=False)
        err = rel_err(kernel, points, dens, pot, sample)
        self.rel_errs.append(err)
        self.check(err <= REL_ERR_MAX, f"{what}: rel_err {err:.3g} > {REL_ERR_MAX}")

    def time_left(self, t_start: float) -> bool:
        return time.perf_counter() - t_start < self.seconds

    def finish(self, op_samples) -> dict:
        self.dists["setup_s"] = summarize(self.setup_samples)
        self.dists["op_s"] = summarize(op_samples)
        self.e2e["setup_s"] = median(self.setup_samples)
        self.e2e["op_s"] = median(op_samples)
        self.e2e["peak_rss_mb"] = peak_rss_mb()
        attempted = self.attempted + self.checks
        failed = self.failed + self.checks_failed
        self.layer["fail_frac"] = failed / attempted if attempted else 0.0
        self.layer["rel_err"] = max(self.rel_errs) if self.rel_errs else 0.0
        if self.traced and self.unit_s[False] and self.unit_s[True]:
            self.layer["trace.overhead_frac"] = (
                median(self.unit_s[True]) / median(self.unit_s[False]) - 1.0
            )
        return {
            "correct": self.checks_failed == 0 and self.checks > 0,
            "attempted": attempted,
            "failed": failed,
        }


def _fresh():
    """Collect garbage outside the timed code, so a cyclic-GC pass left
    over from earlier work does not land inside a timed call."""
    gc.collect()


# -- cold_solve ----------------------------------------------------------------------


def cold_solve(run: Run) -> list:
    from repro.core import Fmm, FmmPlan, build_lists, build_tree

    p = run.p
    sp = run.spans

    def problem():
        pts = ellipsoid_surface(p["n"], run.rng)
        return pts, run.rng.standard_normal(p["n"])

    def solve(fmm, pts, dens, prof, **ids):
        with sp.span("solve", **ids):
            t0 = time.perf_counter()
            with sp.span("core.tree.build_tree", **ids):
                tree = build_tree(pts, p["q"])
            t1 = time.perf_counter()
            with sp.span("core.lists.build_lists", **ids):
                lists = build_lists(tree)
            t2 = time.perf_counter()
            with sp.span("Fmm.evaluate", **ids):
                pot = fmm.evaluate(pts, dens, plan=FmmPlan(tree, lists),
                                   profile=prof)
            t3 = time.perf_counter()
        return pot, lists, (t3 - t0, t1 - t0, t2 - t1)

    for rep in range(run.common["setup_reps"]):
        fmm = None
        _fresh()
        pts, dens = problem()
        with sp.span("setup", rep=rep):
            t0 = time.perf_counter()
            with sp.span("Fmm.__init__", rep=rep):
                fmm = Fmm("laplace", order=p["order"], max_points_per_box=p["q"])
            solve(fmm, pts, dens, run.profile(False), rep=rep, warmup=True)
            run.setup_samples.append(time.perf_counter() - t0)

    solves, trees, lists_s = [], [], []
    phase = {ph: [] for ph in PHASES}
    gflop = []
    t_start = time.perf_counter()
    i = 0
    while run.time_left(t_start):
        _fresh()  # start every unit from a collected heap
        pts, dens = problem()
        traced = run.unit_traced(i)
        prof = run.profile(traced)
        run.attempted += 1
        try:
            pot, lists, (dt, dtree, dlists) = solve(fmm, pts, dens, prof, step=i)
        except Exception as err:  # noqa: BLE001 - a failed solve is counted
            run.op_failed(f"solve {i}", err)
            i += 1
            continue
        run.unit_s[traced].append(dt)
        solves.append(dt)
        if i == 0:
            for key, val in lists.work_summary().items():
                run.layer[f"core.lists.{key}"] = float(val)
        if traced or not run.traced:
            trees.append(dtree)
            lists_s.append(dlists)
            for ph in PHASES:
                phase[ph].append(prof.events[ph].wall_seconds)
            gflop.append(prof.total_flops() / 1e9)
        run.check_rel_err(fmm.kernel, pts, dens, pot, f"solve {i}")
        i += 1

    run.layer["solve_s"] = median(solves)
    run.layer["core.tree.build_s"] = median(trees)
    run.layer["core.lists.build_s"] = median(lists_s)
    for ph in PHASES:
        run.layer[f"core.evaluator.{ph}_s"] = median(phase[ph])
    run.layer["core.evaluator.gflop"] = median(gflop)
    run.dists["solve_s"] = summarize(solves)
    return solves


# -- timestep ------------------------------------------------------------------------


def timestep(run: Run) -> list:
    from repro.core import Fmm

    p = run.p
    sp = run.spans
    n = p["n"]

    compiles = []
    wli_setup = []
    for rep in range(run.common["setup_reps"]):
        state = None
        _fresh()
        pts = uniform_cube(n, run.rng)
        dens = run.rng.standard_normal(n)
        prof = run.profile(run.traced)
        with sp.span("setup", rep=rep):
            t0 = time.perf_counter()
            with sp.span("Fmm.__init__", rep=rep):
                fmm = Fmm("laplace", order=p["order"], max_points_per_box=p["q"],
                          threads=p["threads"])
            with sp.span("Fmm.plan", rep=rep):
                plan = fmm.plan(pts, profile=prof)
            t1 = time.perf_counter()
            with sp.span("Fmm.compile_eval_plan", rep=rep):
                ep = fmm.compile_eval_plan(plan)
            compiles.append(time.perf_counter() - t1)
            with sp.span("Fmm.evaluate", rep=rep, warmup=True):
                fmm.evaluate(pts, dens, plan=plan, eval_plan=ep, profile=prof)
            run.setup_samples.append(time.perf_counter() - t0)
        ev = prof.events.get("setup:wli")
        wli_setup.append(ev.wall_seconds if ev is not None else 0.0)
        state = (fmm, pts, plan, ep)
        del fmm, plan, ep  # the next rep must not hold two plans
    fmm, pts, plan, ep = state
    del state
    pool = fmm.evaluator.task_pool

    applies, updates, tree_updates, patches, reuse, tiles = [], [], [], [], [], []
    phase = {ph: [] for ph in PHASES}
    gflop, matrix_mb = [], []
    cpu = CpuWall()
    first_step = None
    t_start = time.perf_counter()
    step = 0
    while run.time_left(t_start):
        _fresh()  # start every unit from a collected heap
        new_pts, moved = local_move(pts, p["move_frac"], p["sigma"], run.rng)
        traced = run.unit_traced(step)
        prof = run.profile(traced)
        run.attempted += 1
        try:
            with sp.span("step", step=step):
                t0 = time.perf_counter()
                with sp.span("Fmm.update_plan", step=step):
                    new_plan, delta = fmm.update_plan(plan, new_pts, moved=moved,
                                                      profile=prof)
                t1 = time.perf_counter()
                with sp.span("Fmm.patch_eval_plan", step=step):
                    new_ep = fmm.patch_eval_plan(ep, plan, new_plan, delta,
                                                 profile=prof)
                t2 = time.perf_counter()
        except Exception as err:  # noqa: BLE001 - a failed update is counted
            run.op_failed(f"update {step}", err)
            step += 1
            continue
        updates.append(t2 - t0)
        if traced or not run.traced:
            tree_updates.append(t1 - t0)
            patches.append(t2 - t1)
            st = new_ep.patch_stats
            total = st["bytes_reused"] + st["bytes_fresh"]
            reuse.append(st["bytes_reused"] / total if total else 0.0)
        pts, plan, ep = new_pts, new_plan, new_ep
        for r in range(p["reads_per_step"]):
            dens = run.rng.standard_normal(n)
            aprof = run.profile(traced)
            tiles0 = pool.stats()["tiles_run"]
            run.attempted += 1
            try:
                with sp.span("Fmm.evaluate", step=step, read=r), cpu.window():
                    a0 = time.perf_counter()
                    pot = fmm.evaluate(pts, dens, plan=plan, eval_plan=ep,
                                       profile=aprof)
                    dt = time.perf_counter() - a0
            except Exception as err:  # noqa: BLE001 - a failed apply is counted
                run.op_failed(f"apply {step}.{r}", err)
                continue
            applies.append(dt)
            run.unit_s[traced].append(dt)
            if traced or not run.traced:
                tiles.append(pool.stats()["tiles_run"] - tiles0)
                for ph in PHASES:
                    phase[ph].append(aprof.events[ph].wall_seconds)
                gflop.append(aprof.total_flops() / 1e9)
            if r == 0:
                run.check_rel_err(fmm.kernel, pts, dens, pot, f"step {step}")
                if first_step is None:
                    first_step = (pts, plan, dens, pot)
        matrix_mb.append(ep.matrix_bytes() / 2**20)
        step += 1

    if first_step is not None:
        # a patched plan must answer exactly as a fresh compile does
        f_pts, f_plan, f_dens, f_pot = first_step
        with sp.span("check.fresh_compile"):
            fresh = fmm.compile_eval_plan(f_plan)
            ref = fmm.evaluate(f_pts, f_dens, plan=f_plan, eval_plan=fresh)
        run.check(np.array_equal(ref, f_pot),
                  "patched plan output differs from a fresh compile")

    run.layer["apply_s"] = median(applies)
    run.layer["update_s"] = median(updates)
    run.layer["core.tree.update_s"] = median(tree_updates)
    run.layer["core.plan.patch_s"] = median(patches)
    run.layer["core.plan.patch_reuse_frac"] = median(reuse)
    run.layer["core.plan.compile_s"] = median(compiles)
    run.layer["core.plan.setup_wli_s"] = median(wli_setup)
    for ph in PHASES:
        run.layer[f"core.plan.{ph}_s"] = median(phase[ph])
    run.layer["core.plan.gflop"] = median(gflop)
    run.layer["core.plan.matrix_mb"] = median(matrix_mb)
    run.layer["core.parallel.cpu_per_wall"] = cpu.ratio
    run.layer["core.parallel.tiles_run"] = median(tiles)
    run.dists["apply_s"] = summarize(applies)
    run.dists["update_s"] = summarize(updates)
    pool.shutdown()
    return applies


# -- serve_open ----------------------------------------------------------------------


def _schedule(rate, seconds, tenants, n, rng):
    """Evenly spaced sends at ``rate``; tenants in seeded round-robin
    order, each request a fresh density for its tenant's model."""
    names = list(tenants)
    count = max(1, int(round(rate * seconds)))
    sched = []
    for k in range(count):
        if k % len(names) == 0:
            order = rng.permutation(len(names))
        tenant = names[order[k % len(names)]]
        model = tenants[tenant]
        sched.append((k / rate, (tenant, model),
                      (model, tenant, rng.standard_normal(n))))
    return sched


def _request_spans(sp, outs, parent, rate_name) -> None:
    """One span per request from its due time to its completion, with
    its submit call, queue wait and batch apply as children."""
    # the generator's clock is time.monotonic; spans use perf_counter
    off = time.perf_counter() - time.monotonic()
    for o in outs:
        end = o.done if o.done is not None else o.sent + o.submit_s
        rid = sp.add("request", o.due + off, end + off, parent=parent,
                     request=o.index, tenant=o.tag[0], model=o.tag[1],
                     status=o.status, rate=rate_name)
        sp.add("ServeEngine.submit", o.sent + off, o.sent + o.submit_s + off,
               parent=rid, request=o.index)
        req = o.request
        if req is None or o.done is None or req.batch_size == 0:
            continue
        taken = req.enqueued + req.wait_s
        sp.add("serve.queue", req.enqueued + off, taken + off, parent=rid,
               request=o.index)
        sp.add("serve.batch_apply", taken + off, o.done + off, parent=rid,
               request=o.index, batch_size=req.batch_size)


def serve_open(run: Run) -> list:
    from repro.core import Fmm
    from repro.serve import ServeEngine

    p = run.p
    sp = run.spans
    n = p["n"]

    def build(rep):
        pts_u = uniform_cube(n, run.rng)
        pts_p = plummer_cluster(n, run.rng)
        with sp.span("ServeEngine.__init__", rep=rep):
            eng = ServeEngine(n_workers=p["workers"], trace=run.recorder).start()
        with sp.span("ServeEngine.register", rep=rep, model="m_uniform"):
            mu = eng.register(
                "m_uniform", Fmm("laplace", order=p["order"],
                                 max_points_per_box=p["q"]),
                pts_u, precision="fp64",
            )
        with sp.span("ServeEngine.register", rep=rep, model="m_plummer"):
            mp = eng.register(
                "m_plummer", Fmm("laplace", order=p["order"],
                                 max_points_per_box=p["q"], precision="fp32"),
                pts_p, precision="fp32", allowed={"fp32"},
            )
        for name in ("m_uniform", "m_plummer"):
            # the first apply compiles the W-list section lazily: pay it here
            with sp.span("ServeEngine.evaluate", rep=rep, model=name, warmup=True):
                eng.evaluate(name, run.rng.standard_normal(n))
        return eng, {"m_uniform": mu, "m_plummer": mp}

    eng = models = None
    compiles = []
    for rep in range(run.common["setup_reps"]):
        if eng is not None:
            eng.stop()
        eng = models = None
        _fresh()
        with sp.span("setup", rep=rep):
            t0 = time.perf_counter()
            eng, models = build(rep)
            run.setup_samples.append(time.perf_counter() - t0)
        compiles.append(sum(m.compile_s for m in models.values()))
    try:
        return _drive_serve(run, eng, models, compiles)
    finally:
        eng.stop()


def _drive_serve(run: Run, eng, models, compiles) -> list:
    """The open-loop segments, their metrics and the answer checks."""
    from repro.serve import DeadlineExceeded, Overloaded

    p = run.p
    sp = run.spans
    n = p["n"]
    wli_spans = (
        [s.wall_s for s in run.recorder.span_events() if s.phase == "setup:wli"]
        if run.recorder is not None else []
    )

    depth_peak = {"v": 0}

    def submit(item):
        model, tenant, dens = item
        req = eng.submit(model, dens, tenant=tenant, timeout_s=p["timeout_s"])
        depth_peak["v"] = max(depth_peak["v"], eng.queue.depth)
        return req

    rates = p["rates"]
    share = p["window_share"]
    snap0 = eng.metrics.snapshot()["plan_cache"]
    all_out = []
    per_rate = {}
    for rate_name, rate in rates.items():
        sched = _schedule(rate, run.seconds * share[rate_name], p["tenants"],
                          n, run.rng)
        depth_peak["v"] = 0
        _fresh()
        cpu = CpuWall()
        gen = OpenLoop(submit, sched, rejected_types=(Overloaded,),
                       expired_types=(DeadlineExceeded,), clock=time.monotonic)
        with sp.span("open_loop", rate=rate_name, rps=rate) as parent, cpu.window():
            outs = gen.run()
        if sp.enabled:
            _request_spans(sp, outs, parent, rate_name)
        per_rate[rate_name] = (outs, cpu.ratio, depth_peak["v"])
        all_out.extend(outs)
    snap1 = eng.metrics.snapshot()["plan_cache"]

    tally = counts(all_out)
    run.attempted += tally["attempted"]
    run.failed += tally["failed"]
    for o in all_out:
        if o.status != "ok":
            run.problems.append(f"request {o.index}: {o.status} {o.error}")

    for rate_name, (outs, cpu_ratio, peak) in per_rate.items():
        ok = [o for o in outs if o.status == "ok"]
        lat = summarize([o.latency_s for o in ok])
        wait = summarize([o.request.wait_s for o in ok])
        service = [o.done - (o.request.enqueued + o.request.wait_s) for o in ok]
        run.dists[f"lat_{rate_name}"] = lat
        run.dists[f"queue_wait_{rate_name}"] = wait
        run.layer[f"lat_{rate_name}.p50_s"] = lat["p50"] or 0.0
        run.layer[f"lat_{rate_name}.tail_s"] = lat["tail"] or 0.0
        run.layer[f"serve.{rate_name}.queue_wait_s.p50"] = wait["p50"] or 0.0
        run.layer[f"serve.{rate_name}.queue_wait_s.tail"] = wait["tail"] or 0.0
        run.layer[f"serve.{rate_name}.service_s.p50"] = median(service)
        run.layer[f"serve.{rate_name}.batch_size.mean"] = (
            float(np.mean([o.request.batch_size for o in ok])) if ok else 0.0
        )
        run.layer[f"serve.{rate_name}.cpu_per_wall"] = cpu_ratio
        run.layer[f"serve.{rate_name}.queue_depth.peak"] = float(peak)
    lookups = (snap1["hits"] - snap0["hits"]) + (snap1["misses"] - snap0["misses"])
    run.layer["serve.plan_cache.hit_rate"] = (
        (snap1["hits"] - snap0["hits"]) / lookups if lookups else 0.0
    )
    run.layer["serve.submit_s.p50"] = median(o.submit_s for o in all_out)
    run.layer["serve.gen_late_s.max"] = max(o.late_s for o in all_out)
    run.layer["core.plan.compile_s"] = median(compiles)
    run.layer["core.plan.setup_wli_s"] = sum(wli_spans) / max(1, len(compiles))
    if run.recorder is not None:
        spans = run.recorder.span_events()
        applied = sum(s.wall_s for s in spans if s.phase.startswith("SERVE:apply:"))
        vli = sum(s.wall_s for s in spans if s.phase == "VLI")
        run.layer["serve.apply.VLI_frac"] = vli / applied if applied else 0.0

    # served answers: bit-identical to Fmm.evaluate on the same model,
    # plan and precision, and accurate against direct summation
    for name, model in models.items():
        ok = [o for o in all_out if o.status == "ok" and o.tag[1] == name]
        picks = run.rng.permutation(len(ok))[: p["checks_per_model"]]
        geom = model.geometry
        plan = eng.plans.peek(f"{name}@{model.precision}")
        if plan is None:  # evicted: recompile with the same knobs
            plan = geom.fmm.compile_eval_plan(geom.plan, precision=model.precision)
        for j in picks:
            o = ok[j]
            dens = o.request.density
            with sp.span("check.served_answer", model=name, request=o.index):
                ref = geom.fmm.evaluate(geom.points, dens, plan=geom.plan,
                                        eval_plan=plan)
            run.check(np.array_equal(ref, o.request.result()),
                      f"served answer {o.index} ({name}) differs from Fmm.evaluate")
            run.check_rel_err(geom.fmm.kernel, geom.points, dens, ref,
                              f"served answer {o.index} ({name})")

    if run.traced:
        # Tracing overhead on the apply path: the engine's recorder is bound
        # at construction, so alternate direct applies of one warm model
        # with and without a recorder bound to the profile.
        model = models["m_uniform"]
        geom = model.geometry
        plan = eng.plans.peek(f"m_uniform@{model.precision}")
        for k in range(2 * p["probe_applies"]):
            traced = k % 2 == 1
            prof = run.profile(traced)
            dens = run.rng.standard_normal(n)
            with sp.span("probe.Fmm.evaluate", traced=traced):
                t0 = time.perf_counter()
                geom.fmm.evaluate(geom.points, dens, plan=geom.plan,
                                  eval_plan=plan, profile=prof)
                run.unit_s[traced].append(time.perf_counter() - t0)
    return [o.latency_s for o in per_rate["lo"][0] if o.status == "ok"]


# -- dist_solve ----------------------------------------------------------------------

EVAL_PHASES = PHASES + ("COMM_exchange", "COMM_reduce", "COMM_ckpt")


def dist_solve(run: Run) -> list:
    from repro.dist import distributed_fmm_rank
    from repro.dist.driver import match_owned_rows
    from repro.kernels import get_kernel
    from repro.mpi import run_spmd

    p = run.p
    sp = run.spans
    n = p["n"]
    kernel = get_kernel("laplace")
    kwargs = dict(kernel="laplace", order=p["order"], max_points_per_box=p["q"],
                  load_balance=True)

    def problem():
        return ellipsoid_surface(n, run.rng), run.rng.standard_normal(n)

    def solve(pts, dens, traced, **ids):
        with sp.span("run_spmd(distributed_fmm_rank)", **ids):
            t0 = time.perf_counter()
            res = run_spmd(p["nranks"], distributed_fmm_rank, pts, dens,
                           trace=run.recorder if traced else None, **kwargs)
            dt = time.perf_counter() - t0
        return res, dt

    for rep in range(run.common["setup_reps"]):
        _fresh()
        pts, dens = problem()
        with sp.span("setup", rep=rep):
            t0 = time.perf_counter()
            solve(pts, dens, False, rep=rep, warmup=True)
            run.setup_samples.append(time.perf_counter() - t0)

    def rank_wall(prof, names):
        return sum(prof.events[k].wall_seconds for k in names if k in prof.events)

    solves = []
    layer = {k: [] for k in ("octree.build_s", "dist.let_s", "dist.lists_s",
                             "dist.balance_s", "dist.eval_s", "dist.comm_wait_s",
                             "dist.rank_imbalance", "core.plan.compile_s",
                             "core.plan.setup_wli_s")}
    t_start = time.perf_counter()
    i = 0
    while run.time_left(t_start):
        _fresh()  # start every unit from a collected heap
        pts, dens = problem()
        traced = run.unit_traced(i)
        run.attempted += 1
        try:
            res, dt = solve(pts, dens, traced, step=i)
        except Exception as err:  # noqa: BLE001 - a failed solve is counted
            run.op_failed(f"solve {i}", err)
            i += 1
            continue
        solves.append(dt)
        run.unit_s[traced].append(dt)
        pot = np.empty(n)
        for own_pts, own_pot, _fmm in res.values:
            pot[match_owned_rows(pts, own_pts)] = own_pot
        run.check_rel_err(kernel, pts, dens, pot, f"solve {i}")
        sent = sum(c.messages_sent for c in res.comms)
        sent_b = sum(c.bytes_sent for c in res.comms)
        charged = sum(ev.comm_messages for pr in res.profiles
                      for ev in pr.events.values())
        charged_b = sum(ev.comm_bytes for pr in res.profiles
                        for ev in pr.events.values())
        # every message is charged once at each endpoint's profile
        run.check(charged == 2 * sent and charged_b == 2 * sent_b,
                  f"solve {i}: profile comm counters disagree with SimComm ledgers")
        if i == 0:
            run.layer["mpi.messages"] = float(sent)
            run.layer["mpi.bytes"] = float(sent_b)
        if traced or not run.traced:
            profs = res.profiles
            evals = [rank_wall(pr, EVAL_PHASES) for pr in profs]
            layer["octree.build_s"].append(max(rank_wall(pr, ["tree"]) for pr in profs))
            layer["dist.let_s"].append(max(rank_wall(pr, ["let"]) for pr in profs))
            layer["dist.lists_s"].append(max(rank_wall(pr, ["lists"]) for pr in profs))
            layer["dist.balance_s"].append(max(rank_wall(pr, ["balance"]) for pr in profs))
            layer["dist.eval_s"].append(max(evals))
            layer["dist.comm_wait_s"].append(
                max(rank_wall(pr, ["COMM_exchange", "COMM_reduce"]) for pr in profs))
            layer["dist.rank_imbalance"].append(max(evals) / (sum(evals) / len(evals)))
            layer["core.plan.compile_s"].append(
                max(rank_wall(pr, ["setup:plan"]) for pr in profs))
            layer["core.plan.setup_wli_s"].append(
                max(rank_wall(pr, ["setup:wli"]) for pr in profs))
        i += 1

    run.layer["solve_s"] = median(solves)
    for k, v in layer.items():
        run.layer[k] = median(v)
    run.dists["solve_s"] = summarize(solves)
    return solves


RUNNERS = {
    "cold_solve": cold_solve,
    "timestep": timestep,
    "serve_open": serve_open,
    "dist_solve": dist_solve,
}


def run_workload(name, seed, seconds, traced, size="full"):
    """Run one workload; returns ``(run, verdict)``."""
    run = Run(name, seed, seconds, traced, size)
    op_samples = RUNNERS[name](run)
    verdict = run.finish(op_samples)
    return run, verdict
