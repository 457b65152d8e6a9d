"""FFT-diagonalised V-list (M2L) translation.

Because the UE and DC surfaces use the lattice-compatible scale
``(p-1)/(p-2)`` (see :mod:`repro.core.surfaces`), the displacement between
any target DC point and source UE point of a V-list pair is a vector of the
lattice with spacing ``h = 2 r / (p - 2)``:

    x_t - y_s = h * ((p-2) * offset + (g_t - g_s)),   g in {0..p-1}^3.

The check-potential accumulation is therefore a 3-D *circular convolution*
on a ``(2p)^3`` grid: per box one forward FFT of its (surface-embedded)
upward density, a multiply with the precomputed kernel transform of the
pair's offset at every frequency, an accumulation in frequency space over
all V-list sources, and one inverse FFT per target box.  This is exactly
the paper's "diagonal translation (in the frequency space)" that the GPU
accelerates.

The CPU plan runs that translation **sibling-blocked and
frequency-major** (PVFMM, Malhotra & Biros 2015; Kailasa, Betcke & El
Kazdadi, arXiv 2408.07436).  The 8 children of a target parent meet the
children of at most 26 parent-neighbours, and which child pairs are
V-list pairs (and at which of the 316 offsets) depends only on the
parent offset and the two child positions.  So at each frequency the
whole parent's translation is one dense ``(8 kt) x (26 * 8 ks)`` block
applied to the gathered spectra of the neighbours' children — a small
GEMM instead of 316 gather/multiply/scatter sweeps.
:meth:`FftM2L.sibling_table` holds the transforms frequency-major (one
row per frequency, one column per offset and tensor entry, plus a zero
column for adjacent child pairs) and :attr:`FftM2L.sibling_index` maps
each block entry to its column, so a frequency slice of the blocks is
one ``take``.

Tensor kernels (Stokes) carry a small ``(target_dim, source_dim)`` matrix
per frequency; it becomes the innermost block of the sibling block, and
a tiny matvec in :meth:`FftM2L.translate` (the per-pair form the device
path uses).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import surfaces
from repro.core.operators import level_half_width
from repro.kernels.base import Kernel

__all__ = ["FftM2L", "CHILD_OFFSETS", "PARENT_OFFSETS"]

_REF_LEVEL = 2

#: Geometric offset of Morton child position ``k`` inside its parent
#: (bit 2 = x, bit 1 = y, bit 0 = z; see :mod:`repro.util.morton`).
CHILD_OFFSETS = np.array(
    [((k >> 2) & 1, (k >> 1) & 1, k & 1) for k in range(8)], dtype=np.int64
)

#: The 26 parent-neighbour offsets, in sibling-block column order.
PARENT_OFFSETS = np.array(
    [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
     if (a, b, c) != (0, 0, 0)],
    dtype=np.int64,
)


def _sibling_offsets():
    """``(far_offsets, codes)``: the 316 V-list offsets and, per sibling
    block entry ``(target child, parent offset, source child)``, the index
    of its offset in ``far_offsets`` (``316`` = adjacent, zero block)."""
    off = (
        2 * PARENT_OFFSETS[None, :, None, :]
        + CHILD_OFFSETS[:, None, None, :]
        - CHILD_OFFSETS[None, None, :, :]
    )  # (8 target child, 26 parent offset, 8 source child, 3)
    far = np.abs(off).max(axis=-1) >= 2
    flat = ((off[..., 0] + 3) * 7 + off[..., 1] + 3) * 7 + off[..., 2] + 3
    uniq = np.unique(flat[far])
    codes = np.where(far, np.searchsorted(uniq, flat), uniq.size)
    offs = np.stack([uniq // 49 - 3, (uniq // 7) % 7 - 3, uniq % 7 - 3], axis=1)
    return offs, codes


class FftM2L:
    """Precomputed frequency-domain M2L translators plus grid embeddings."""

    def __init__(self, kernel: Kernel, order: int):
        self.kernel = kernel
        self.order = int(order)
        self.n = 2 * order  # convolution grid size per axis (>= 2p-1)
        self.nf = self.n // 2 + 1  # rfft last-axis length
        self.nfreq = self.n * self.n * self.nf  # frequencies per grid
        self.ns = surfaces.n_surface_points(order)
        # Surface flat indices in the p^3 corner of the n^3 grid.
        ijk = surfaces.surface_lattice(order)
        self._surf_p = (ijk[:, 0] * order + ijk[:, 1]) * order + ijk[:, 2]
        # Signed wrap of grid indices: m -> m or m - n (circular support).
        m = np.arange(self.n)
        self._wrap = np.where(m < order, m, m - self.n)
        self._that: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
        #: Per-(requested level, offset) transforms with the homogeneity
        #: scale folded in (the device path's per-pair hats).  Bounded by
        #: (distinct levels) x 316 offsets; for non-homogeneous kernels
        #: entries alias ``_that`` (scale is 1).
        self._that_scaled: dict[
            tuple[int, tuple[int, int, int]], np.ndarray
        ] = {}
        #: Frequency-major sibling tables per (canonical level, dtype).
        self._tables: dict[tuple[int, str], np.ndarray] = {}
        self._lock = threading.Lock()
        kt, ks = kernel.target_dim, kernel.source_dim
        self._far, codes = _sibling_offsets()
        # (8 kt) x (26 * 8 ks) sibling block -> sibling_table column:
        # entry ((ct, t), (d, cs, s)) reads column (code * kt + t) * ks + s.
        idx = (
            (codes[:, None, :, :, None] * kt + np.arange(kt)[None, :, None, None, None])
            * ks
            + np.arange(ks)
        )  # (ct, t, d, cs, s)
        self.sibling_index = idx.reshape(8 * kt, 26 * 8 * ks)
        self.sibling_index.setflags(write=False)

    # -- kernel transforms ----------------------------------------------------

    def _canonical(self, level: int) -> tuple[int, float]:
        h = self.kernel.homogeneity
        if h is None:
            return level, 1.0
        lam = 2.0 ** (_REF_LEVEL - level)
        return _REF_LEVEL, lam**h

    def _canonical_hat(self, lvl: int, offset: tuple[int, int, int]) -> np.ndarray:
        """rfft of the kernel tensor at a canonical level (cached)."""
        key = (lvl, offset)
        that = self._that.get(key)
        if that is None:
            p = self.order
            h = 2.0 * level_half_width(lvl) / (p - 2)
            d = self._wrap
            disp = np.stack(
                np.meshgrid(d, d, d, indexing="ij"), axis=-1
            ).reshape(-1, 3).astype(np.float64)
            disp = h * ((p - 2) * np.asarray(offset, dtype=np.float64) + disp)
            vals = self.kernel.matrix(disp, np.zeros((1, 3)))
            kt, ks = self.kernel.target_dim, self.kernel.source_dim
            t = vals.reshape(self.n, self.n, self.n, kt, ks)
            t = np.moveaxis(t, (3, 4), (0, 1))
            that = self._that[key] = np.fft.rfftn(t, axes=(-3, -2, -1))
            that.setflags(write=False)
        return that

    def kernel_hat(self, level: int, offset: tuple[int, int, int]) -> np.ndarray:
        """rfft of the kernel tensor for one V-list offset at one level.

        Shape ``(target_dim, source_dim, n, n, nf)`` complex.  The returned
        array is cached (including the homogeneity rescale to ``level``, so
        repeated calls never re-multiply the full grid) and must not be
        mutated by callers.
        """
        skey = (int(level), tuple(int(o) for o in offset))
        scaled = self._that_scaled.get(skey)
        if scaled is not None:
            return scaled
        lvl, fac = self._canonical(level)
        that = self._canonical_hat(lvl, skey[1])
        scaled = that if fac == 1.0 else that * fac
        scaled.setflags(write=False)
        self._that_scaled[skey] = scaled
        return scaled

    def sibling_table(self, level: int, dtype=np.complex128) -> tuple[np.ndarray, float]:
        """Frequency-major kernel transforms for the sibling blocks at ``level``.

        Returns ``(table, scale)``: ``table`` is ``(nfreq, 317 * kt * ks)``
        — per frequency, the canonical level's transform of each of the
        316 V-list offsets (tensor entries innermost) and a final all-zero
        offset for adjacent child pairs — in ``dtype`` (complex64 for the
        fp32 plans, rounded once).  ``scale`` is the homogeneity factor
        from the canonical level to ``level`` (1 for non-homogeneous
        kernels, a power of two for the built-in homogeneous ones, so
        applying it to a result is exact).  Tables are cached per
        canonical level and dtype, independent of any tree, and must not
        be mutated.  ``table[f0:f1].take(sibling_index, axis=1)`` is the
        ``(f1 - f0, 8 kt, 26 * 8 ks)`` stack of sibling blocks.
        """
        lvl, fac = self._canonical(int(level))
        key = (lvl, np.dtype(dtype).str)
        table = self._tables.get(key)
        if table is None:
            with self._lock:
                table = self._tables.get(key)
                if table is None:
                    table = self._tables[key] = self._build_table(lvl, dtype)
        return table, fac

    def _build_table(self, lvl: int, dtype) -> np.ndarray:
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        nfar = len(self._far)
        table = np.zeros((self.nfreq, nfar + 1, kt, ks), dtype=dtype)
        for i, off in enumerate(self._far):
            that = self._canonical_hat(lvl, tuple(int(o) for o in off))
            table[:, i] = that.reshape(kt, ks, self.nfreq).transpose(2, 0, 1)
        table = table.reshape(self.nfreq, -1)
        table.setflags(write=False)
        return table

    # -- grid embeddings --------------------------------------------------------

    def forward(self, u: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Surface densities -> frequency grids.

        ``u`` has shape ``(..., ns * source_dim)`` with dof interleaved per
        point (any leading batch dims: boxes, or boxes x columns); output
        is ``(..., source_dim, n, n, nf)`` complex.  ``dtype`` sets the
        grid precision: float32 grids yield complex64 transforms (the
        fp32 plans), float64 complex128.

        The surface lives in the ``p^3`` corner of the ``n^3`` grid, so
        the transform is pruned: the real transform runs along z only on
        the ``p^2`` lines that carry data, then y on ``p`` planes, each
        zero-padded to ``n`` by pocketfft — the same 1-D transforms, in
        the same axis order, as ``rfftn`` of the full grid, minus the
        all-zero lines.  pocketfft transforms every line independently,
        so each batch slot's bits do not depend on the batch shape.
        """
        lead = u.shape[:-1]
        p, n, ks = self.order, self.n, self.kernel.source_dim
        cube = np.zeros(lead + (ks, p**3), dtype=dtype)
        cube[..., self._surf_p] = np.swapaxes(
            u.reshape(lead + (self.ns, ks)), -1, -2
        )
        cube = cube.reshape(lead + (ks, p, p, p))
        a = np.fft.rfft(cube, n=n, axis=-1)
        a = np.fft.fft(a, n=n, axis=-2)
        return np.fft.fft(a, n=n, axis=-3)

    def translate(self, that: np.ndarray, uhat: np.ndarray) -> np.ndarray:
        """Pointwise (diagonal) frequency-space translation of one offset.

        ``that``: ``(kt, ks, n, n, nf)``; ``uhat``: ``(..., ks, n, n, nf)``
        with any leading batch dims; returns ``(..., kt, n, n, nf)``.  The
        per-pair form of the sibling-block GEMM, used by the device
        V-list: an explicit sum of elementwise products, so each output
        element is a fixed-order chain of complex multiply-adds for any
        leading batch shape.
        """
        kt, ks = that.shape[0], that.shape[1]
        out = np.empty(
            uhat.shape[:-4] + (kt,) + uhat.shape[-3:],
            dtype=np.result_type(that, uhat),
        )
        for t in range(kt):
            acc = that[t, 0] * uhat[..., 0, :, :, :]
            for s in range(1, ks):
                acc += that[t, s] * uhat[..., s, :, :, :]
            out[..., t, :, :, :] = acc
        return out

    def inverse(self, acc: np.ndarray) -> np.ndarray:
        """Frequency accumulators -> check potentials on the surface points.

        ``acc``: ``(..., target_dim, n, n, nf)``; returns
        ``(..., ns * target_dim)`` with dof interleaved per point.  Pruned
        like :meth:`forward`: after the x transform only the ``p`` planes,
        after the y transform only the ``p^2`` lines holding surface
        points are transformed further (the axis order of ``irfftn``).
        """
        lead = acc.shape[:-4]
        p, n, kt = self.order, self.n, self.kernel.target_dim
        a = np.fft.ifft(acc, axis=-3)[..., :p, :, :]
        a = np.fft.ifft(a, axis=-2)[..., :p, :]
        a = np.fft.irfft(a, n=n, axis=-1)[..., :p]
        vals = a.reshape(lead + (kt, p**3))[..., self._surf_p]
        return np.swapaxes(vals, -1, -2).reshape(lead + (self.ns * kt,))

    # -- flop model ---------------------------------------------------------------

    def fft_flops_per_box(self) -> float:
        """Charge of one forward or inverse grid FFT (per dof component)."""
        n3 = self.n**3
        return 5.0 * n3 * np.log2(max(n3, 2))

    def translate_flops_per_pair(self) -> float:
        """Charge of one frequency-space pointwise translation."""
        kt, ks = self.kernel.target_dim, self.kernel.source_dim
        # complex multiply-add ~ 8 flops
        return 8.0 * kt * ks * self.n * self.n * self.nf
