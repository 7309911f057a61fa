"""Packing of A and B blocks into micro-panel buffers (Ã, B̃).

GotoBLAS-style GEMM never feeds the micro kernel from the original matrices:
an ``M_C x K_C`` block of ``A`` is repacked into ``ceil(M_C/M_R)`` panels,
each storing its ``M_R`` rows column-interleaved, so the kernel streams
through ``Ã`` with unit stride; likewise ``B`` into ``K_C x N_R`` panels.
The paper fuses checksum encoding into these packing passes — the fused
variants live in :mod:`repro.core.ftgemm`, built on the same primitives.

Packed layout: a 3-D array ``(n_panels, k, r)`` where ``r`` is ``M_R`` (for
Ã) or ``N_R`` (for B̃). Ragged edges are zero-padded: padding contributes
zeros to micro-kernel products, so edge handling needs no special cases, at
the cost of a few wasted FMAs — exactly what real kernels do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ShapeError


@dataclass(frozen=True)
class PackedPanels:
    """A packed operand buffer plus its logical geometry.

    ``data`` has shape ``(n_panels, depth, r)``; ``valid`` is the number of
    logical rows (Ã) / columns (B̃) covered, i.e. the unpadded extent.
    """

    data: np.ndarray
    valid: int

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ShapeError(f"packed buffer must be 3-D, got {self.data.shape}")
        if not 0 < self.valid <= self.data.shape[0] * self.data.shape[2]:
            raise ShapeError(
                f"valid extent {self.valid} outside packed capacity "
                f"{self.data.shape[0] * self.data.shape[2]}"
            )

    @property
    def n_panels(self) -> int:
        return self.data.shape[0]

    @property
    def depth(self) -> int:
        return self.data.shape[1]

    @property
    def r(self) -> int:
        return self.data.shape[2]

    def panel(self, idx: int) -> np.ndarray:
        """The ``(depth, r)`` view of one micro panel."""
        return self.data[idx]

    def panel_extent(self, idx: int) -> int:
        """Logical (unpadded) width of panel ``idx``."""
        if not 0 <= idx < self.n_panels:
            raise IndexError(f"panel {idx} out of range [0, {self.n_panels})")
        return min(self.r, self.valid - idx * self.r)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    # ------------------------------------------------- flat 2-D projections
    # The macro kernel contracts whole blocks with one BLAS call and
    # needs the panels laid out as an ordinary matrix. Both projections are
    # cached on the instance: a PackedPanels is created per packing pass, so
    # the cache lives exactly as long as the packed values do (reusing a
    # workspace buffer creates a fresh PackedPanels and a fresh cache).

    def rows(self) -> np.ndarray:
        """Ã as a ``(n_panels * r, depth)`` matrix: panel rows stacked, so
        row ``g`` is logical row ``g`` of the (padded) packed block."""
        cached = self.__dict__.get("_rows")
        if cached is None:
            cached = np.ascontiguousarray(
                self.data.transpose(0, 2, 1).reshape(self.n_panels * self.r, self.depth)
            )
            object.__setattr__(self, "_rows", cached)
        return cached

    def cols(self) -> np.ndarray:
        """B̃ as a ``(depth, n_panels * r)`` matrix: panel columns side by
        side, so column ``g`` is logical column ``g`` of the packed block."""
        cached = self.__dict__.get("_cols")
        if cached is None:
            cached = np.ascontiguousarray(
                self.data.transpose(1, 0, 2).reshape(self.depth, self.n_panels * self.r)
            )
            object.__setattr__(self, "_cols", cached)
        return cached


def pack_a(a_block: np.ndarray, mr: int, *, out: np.ndarray | None = None) -> PackedPanels:
    """Pack an ``(mlen, klen)`` block of A into ``M_R``-row micro panels.

    Panel ``i`` holds rows ``i*mr : i*mr+mr`` transposed to ``(klen, mr)`` so
    that for each depth step the ``mr`` A values the kernel broadcasts are
    contiguous. Rows past ``mlen`` are zero.
    """
    if a_block.ndim != 2:
        raise ShapeError(f"A block must be 2-D, got shape {a_block.shape}")
    mlen, klen = a_block.shape
    n_panels = -(-mlen // mr)
    if out is None:
        out = np.zeros((n_panels, klen, mr), dtype=np.float64)
    else:
        if out.shape != (n_panels, klen, mr):
            raise ShapeError(
                f"out buffer shape {out.shape} != required {(n_panels, klen, mr)}"
            )
        out[:] = 0.0
    full = mlen // mr
    if full:
        # bulk transpose of the full panels in one vectorized move
        out[:full] = (
            a_block[: full * mr].reshape(full, mr, klen).transpose(0, 2, 1)
        )
    if full != n_panels:
        tail = a_block[full * mr :]
        out[full, :, : tail.shape[0]] = tail.T
    return PackedPanels(data=out, valid=mlen)


def pack_b(b_block: np.ndarray, nr: int, *, out: np.ndarray | None = None) -> PackedPanels:
    """Pack a ``(klen, nlen)`` block of B into ``N_R``-column micro panels.

    Panel ``j`` holds columns ``j*nr : j*nr+nr`` as ``(klen, nr)``; for each
    depth step the ``nr`` B values the kernel multiplies are contiguous.
    """
    if b_block.ndim != 2:
        raise ShapeError(f"B block must be 2-D, got shape {b_block.shape}")
    klen, nlen = b_block.shape
    n_panels = -(-nlen // nr)
    if out is None:
        out = np.zeros((n_panels, klen, nr), dtype=np.float64)
    else:
        if out.shape != (n_panels, klen, nr):
            raise ShapeError(
                f"out buffer shape {out.shape} != required {(n_panels, klen, nr)}"
            )
        out[:] = 0.0
    full = nlen // nr
    if full:
        out[:full] = b_block[:, : full * nr].reshape(klen, full, nr).transpose(1, 0, 2)
    if full != n_panels:
        tail = b_block[:, full * nr :]
        out[full, :, : tail.shape[1]] = tail
    return PackedPanels(data=out, valid=nlen)


def panels_from_cols(cols: np.ndarray, nr: int, valid: int) -> PackedPanels:
    """Reinterpret a flat ``(klen, n_panels*nr)`` column projection as B̃
    micro panels **without copying**.

    The panel cache stores each K-block's B̃ as one contiguous column
    matrix (so admission re-verification is a single reduction); the macro
    kernels want the ``(n_panels, klen, nr)`` panel layout. Both are views
    of the same bytes — panel ``j`` is columns ``j*nr : j*nr+nr`` — so an
    ``as_strided`` reinterpretation recovers the panel axes for free. The
    flat matrix is additionally pre-seeded as the ``cols()`` projection, so
    the macro kernel's one-BLAS-call path also skips its materialisation
    copy.
    """
    if cols.ndim != 2:
        raise ShapeError(f"cols must be 2-D, got shape {cols.shape}")
    klen, width = cols.shape
    if width % nr:
        raise ShapeError(
            f"cols width {width} is not a multiple of the panel width {nr}"
        )
    n_panels = width // nr
    s0, s1 = cols.strides
    data = np.lib.stride_tricks.as_strided(
        cols, shape=(n_panels, klen, nr), strides=(nr * s1, s0, s1)
    )
    packed = PackedPanels(data=data, valid=valid)
    object.__setattr__(packed, "_cols", cols)
    return packed


def unpack_a(packed: PackedPanels) -> np.ndarray:
    """Inverse of :func:`pack_a` (tests only): recover the ``(mlen, klen)`` block."""
    n_panels, klen, mr = packed.data.shape
    rows = packed.data.transpose(0, 2, 1).reshape(n_panels * mr, klen)
    return rows[: packed.valid].copy()


def unpack_b(packed: PackedPanels) -> np.ndarray:
    """Inverse of :func:`pack_b` (tests only): recover the ``(klen, nlen)`` block."""
    n_panels, klen, nr = packed.data.shape
    cols = packed.data.transpose(1, 0, 2).reshape(klen, n_panels * nr)
    return cols[:, : packed.valid].copy()
