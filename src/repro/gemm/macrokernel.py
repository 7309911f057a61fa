"""The macro kernel: one ``M_C x N_C`` block of C updated from packed panels.

:func:`macro_kernel` computes every ``M_R x N_R`` tile of the block in
**one** contraction over the packed panels — the NumPy stand-in for the
paper's register-tile sweep — and then, in order:

- hands the fresh block to the fault injector, which strikes its planned
  micro-kernel tiles (the paper injects errors "into each of our computing
  kernels"). This happens *before* the reference checksums are read: a soft
  error in an FMA result is held in the same register the fused checksum
  code then consumes, which is exactly why the error becomes visible as a
  reference-vs-predicted mismatch;
- when ``row_ref``/``col_ref`` are given, accumulates the reference
  checksums of the block (Section 2.2's register-level reuse, as block
  reductions). The caller passes them only on the final K-block iteration,
  when C holds its final value.

Counters are booked per logical tile (``microkernel_calls``), so the
accounting matches the paper's tile loop although no Python tile loop runs.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import NULL_INJECTOR
from repro.gemm.packing import PackedPanels
from repro.obs.tracer import NULL_SPAN
from repro.simcpu.counters import Counters
from repro.util.errors import ShapeError


def tile_flops(mr: int, nr: int, k: int) -> int:
    """FMA flops of one micro-kernel tile update (2 per multiply-add)."""
    return 2 * mr * nr * k


def macro_kernel(
    packed_a: PackedPanels,
    packed_b: PackedPanels,
    c_block: np.ndarray,
    *,
    row_ref: np.ndarray | None = None,
    col_ref: np.ndarray | None = None,
    row_ref_w: np.ndarray | None = None,
    col_ref_w: np.ndarray | None = None,
    row_weights: np.ndarray | None = None,
    col_weights: np.ndarray | None = None,
    injector=NULL_INJECTOR,
    tid: int | None = None,
    counters: Counters | None = None,
    tracer=None,
    trace_args: dict | None = None,
) -> None:
    """Compute ``c_block += Ã · B̃`` as one block-level contraction.

    ``c_block`` is an ``(mlen, nlen)`` writable view of C with
    ``mlen == packed_a.valid`` and ``nlen == packed_b.valid``. ``row_ref``
    (length ``nlen``) and ``col_ref`` (length ``mlen``) — both optional,
    together — receive ``+= eᵀC_block`` / ``+= C_block·e``.

    The weighted-checksum scheme additionally passes ``row_ref_w`` /
    ``col_ref_w`` with ``row_weights`` (the *global* row weights of this
    block's rows, length ``mlen``) and ``col_weights`` (length ``nlen``):
    they receive ``+= w_rowsᵀ C_block`` / ``+= C_block · w_cols``.

    ``injector`` visits the block's micro-kernel tiles between the
    contraction and the reference checksums. ``tid`` is the calling team
    thread: it numbers the strikes canonically and is the span's thread row.
    """
    mlen, nlen = c_block.shape
    if packed_a.valid != mlen or packed_b.valid != nlen:
        raise ShapeError(
            f"C block {c_block.shape} does not match packed extents "
            f"({packed_a.valid}, {packed_b.valid})"
        )
    if packed_a.depth != packed_b.depth:
        raise ShapeError(
            f"packed depths differ: {packed_a.depth} vs {packed_b.depth}"
        )
    collect = row_ref is not None or col_ref is not None
    if collect and (row_ref is None or col_ref is None):
        raise ShapeError("row_ref and col_ref must be given together")
    if collect and (row_ref.shape != (nlen,) or col_ref.shape != (mlen,)):
        raise ShapeError(
            f"checksum refs must be ({nlen},) and ({mlen},), got "
            f"{row_ref.shape} and {col_ref.shape}"
        )
    weighted = row_ref_w is not None or col_ref_w is not None
    if weighted:
        if any(v is None for v in (row_ref_w, col_ref_w, row_weights, col_weights)):
            raise ShapeError(
                "weighted refs need row_ref_w, col_ref_w, row_weights and "
                "col_weights together"
            )
        if not collect:
            raise ShapeError("weighted refs require the plain refs as well")
        if row_weights.shape != (mlen,) or col_weights.shape != (nlen,):
            raise ShapeError(
                f"weights must be ({mlen},) and ({nlen},), got "
                f"{row_weights.shape} and {col_weights.shape}"
            )
        if row_ref_w.shape != (nlen,) or col_ref_w.shape != (mlen,):
            raise ShapeError(
                f"weighted refs must be ({nlen},) and ({mlen},), got "
                f"{row_ref_w.shape} and {col_ref_w.shape}"
            )
    # fail-continue semantics: corrupted operands (inf/NaN from injected
    # faults) must flow through the kernel silently, as they would through
    # hardware FMAs — detection is the checksum layer's job
    span = NULL_SPAN if tracer is None else tracer.span(
        "macro_kernel", cat="compute", tid=tid or 0, args=trace_args or None
    )
    with span, np.errstate(invalid="ignore", over="ignore"):
        # (padded_m, depth) @ (depth, padded_n): one BLAS call for the block;
        # the padded rows/columns fall away in the slice-accumulate
        update = packed_a.rows() @ packed_b.cols()
        c_block += update[:mlen, :nlen]
        injector.visit_tiles(c_block, packed_a.r, packed_b.r, tid=tid)
        if collect:
            row_ref += c_block.sum(axis=0)
            col_ref += c_block.sum(axis=1)
        if weighted:
            row_ref_w += row_weights @ c_block
            col_ref_w += c_block @ col_weights
    if counters is not None:
        tiles = packed_a.n_panels * packed_b.n_panels
        counters.microkernel_calls += tiles
        counters.fma_flops += tiles * tile_flops(packed_a.r, packed_b.r,
                                                 packed_a.depth)
        if collect:
            counters.checksum_flops += 2 * mlen * nlen
        if weighted:
            counters.checksum_flops += 4 * mlen * nlen
