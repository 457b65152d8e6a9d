"""Shared helpers of the benchmark: statistics, spans, host facts, inputs.

Nothing here imports the program under test at module level, so the
helpers (and their tests) load even where ``src/`` is absent.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so one outlier cannot set it.
TAIL_BEYOND = 10


# -- statistics ----------------------------------------------------------------


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> int | None:
    """0-based rank of the highest order statistic with ``beyond`` samples
    above it, or ``None`` when ``n`` samples cannot support one above the
    median (fewer than ``2 * beyond + 1``)."""
    k = n - 1 - beyond
    return k if k >= 0 and 2 * (k + 1) > n else None


def summarize(samples) -> dict:
    """Median, tail and sample count of a timing sample.

    ``tail`` is the highest order statistic that still has
    :data:`TAIL_BEYOND` samples beyond it, and ``tail_pct`` the percentile
    it stands for; both are ``None`` when that statistic would not lie
    above the median (twenty samples or fewer).
    """
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n == 0:
        return {"n": 0, "p50": None, "tail": None, "tail_pct": None}
    k = tail_rank(n)
    return {
        "n": n,
        "p50": statistics.median(xs),
        "tail": xs[k] if k is not None else None,
        "tail_pct": round(100.0 * (k + 1) / n, 1) if k is not None else None,
    }


def median(samples, default: float = 0.0) -> float:
    xs = [float(x) for x in samples]
    return statistics.median(xs) if xs else default


# -- spans -------------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the benchmark's own calls.

    Each span holds a name, start and end (``perf_counter`` seconds from
    the recorder's creation), the id of the enclosing span on the same
    thread, and free-form attributes such as a step or request id.
    Spans stay in memory until :meth:`write_jsonl`.
    """

    enabled = True

    def __init__(self):
        self.t0 = time.perf_counter()
        self.records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self._new_id()
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, parent=parent, sid=sid, **attrs)

    def add(self, name, start, end, parent=None, sid=None, **attrs) -> int:
        """Record a span timed elsewhere (``perf_counter`` start and end);
        returns its id."""
        sid = sid if sid is not None else self._new_id()
        rec = {
            "kind": "bench_span",
            "id": sid,
            "name": name,
            "start_s": start - self.t0,
            "end_s": end - self.t0,
            "parent": parent,
        }
        rec.update(attrs)
        with self._lock:
            self.records.append(rec)
        return sid

    def write_jsonl(self, path: str, extra_lines=()) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            for line in extra_lines:
                fh.write(line + "\n")


class NoSpans(Spans):
    """The untraced run's recorder: every span is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

    def add(self, name, start, end, parent=None, sid=None, **attrs) -> None:
        return None


# -- process measurements ----------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CpuWall:
    """Process CPU seconds over wall seconds, accumulated over windows."""

    def __init__(self):
        self.cpu = 0.0
        self.wall = 0.0

    @contextmanager
    def window(self):
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.cpu += time.process_time() - c0
            self.wall += time.perf_counter() - w0

    @property
    def ratio(self) -> float:
        return self.cpu / self.wall if self.wall > 0 else 0.0


# -- host and configuration ------------------------------------------------------


def _git_sha(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # an exported tree: ``source_sha256`` names the code
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src_dir: str) -> str:
    """SHA-256 over the program's ``.py`` sources (path and content), so a
    result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def host_info(root: str) -> dict:
    """Host and toolchain facts every result records."""
    from repro.util.blas import blas_controller, blas_thread_count

    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError):  # older numpy: no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "blas": blas,
        "blas_controllable": blas_controller() is not None,
        "blas_threads": blas_thread_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
    }


# -- inputs ------------------------------------------------------------------------
# The benchmark draws its own inputs rather than calling repro.datasets, so
# a change to the program's generators cannot change what is measured.


def ellipsoid_surface(n: int, rng: np.random.Generator) -> np.ndarray:
    """Points on a 1:1:4 ellipsoid surface, uniform in spherical angles
    (the paper's nonuniform distribution), inside the unit cube."""
    theta = rng.uniform(0.0, np.pi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.stack(
        [
            0.1 * np.sin(theta) * np.cos(phi),
            0.1 * np.sin(theta) * np.sin(phi),
            0.4 * np.cos(theta),
        ],
        axis=1,
    )
    return pts + 0.5


def uniform_cube(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random((n, 3))


def plummer_cluster(n: int, rng: np.random.Generator, scale: float = 0.06):
    """Plummer-model cluster clipped into the unit cube."""
    u = rng.uniform(1e-8, 1.0, n)
    r = np.minimum(scale / np.sqrt(u ** (-2.0 / 3.0) - 1.0), 0.45)
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.clip(v * r[:, None] + 0.5, 1e-9, 1.0 - 1e-9)


def local_move(points, frac, sigma, rng):
    """Move the ``frac`` of points nearest a random centre by N(0, sigma).

    Returns ``(new_points, moved_rows)``; coordinates stay in the open
    unit cube.
    """
    n = len(points)
    centre = points[rng.integers(n)]
    moved = np.argsort(np.linalg.norm(points - centre, axis=1))[: int(frac * n)]
    moved = np.sort(moved)
    new = points.copy()
    new[moved] = np.clip(
        new[moved] + sigma * rng.standard_normal((moved.size, 3)),
        1e-9, 1.0 - 1e-9,
    )
    return new, moved


# -- correctness -------------------------------------------------------------------


#: Largest accepted max relative error against direct summation.
REL_ERR_MAX = 1e-4


def rel_err(kernel, points, dens, pot, sample) -> float:
    """Relative l2 error of ``pot`` against direct summation over the
    target rows ``sample``: ``|pot - exact| / |exact|``.  A run reports
    the maximum over its checks."""
    from repro.kernels.direct import direct_sum

    kt = kernel.target_dim
    exact = direct_sum(kernel, points[sample], points, dens).reshape(-1)
    got = np.asarray(pot).reshape(-1, kt)[sample].reshape(-1)
    return float(np.linalg.norm(got - exact) / np.linalg.norm(exact))
