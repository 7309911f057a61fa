"""Dual modular redundancy for the memory-bound prologue.

ABFT protects the O(n³) product, but the ``C = βC`` scaling pass runs
*before* any checksum exists — an error there corrupts both C and the
checksums derived from it, consistently, and would sail through
verification. FT-BLAS protects such memory-bound operations with DMR:
compute each result twice while the operand is still in registers and
compare before writeback. The duplicated arithmetic is essentially free in
a memory-bound pass (the paper's Section 3.1 runs "with fault tolerant DMR
and ABFT operating").

:func:`dmr_scale` models exactly that: the scaled values are produced, the
injector may corrupt the first copy (a compute fault between the multiply
and the writeback), the duplicate recomputation from the still-held operand
catches and repairs the mismatch, and only then is C overwritten.
"""

from __future__ import annotations

import numpy as np

from repro.simcpu.counters import Counters


def dmr_scale(
    c: np.ndarray,
    beta: float,
    *,
    counters: Counters,
    visit=None,
) -> int:
    """In-place DMR-protected ``C = beta * C``; returns mismatches repaired.

    ``visit`` is the injector hook (``visit(site, array) -> bool``) called
    with the first computed copy — the window where a soft error would
    normally escape into C.
    """
    if beta == 1.0:
        # nothing is computed, nothing can be corrupted
        return 0
    counters.stores_bytes += c.nbytes
    counters.checksum_flops += c.size  # the duplicated multiplies
    if beta == 0.0:
        # every duplicate is zero, so the compare is a scan for nonzeros
        # and the window can be C itself: no full-size temporaries
        c[:] = 0.0
        if visit is not None:
            visit("scale", c)
        wrong = np.flatnonzero(c)
        repaired = int(wrong.size)
        if repaired:
            c.flat[wrong] = 0.0
    else:
        counters.loads_bytes += c.nbytes
        scaled = beta * c
        if visit is not None:
            visit("scale", scaled)
        # the duplicate computation from the register-held operand
        duplicate = beta * c
        mismatch = scaled != duplicate
        repaired = int(np.count_nonzero(mismatch))
        if repaired:
            scaled[mismatch] = duplicate[mismatch]
        c[:] = scaled
    counters.errors_detected += repaired
    counters.errors_corrected += repaired
    return repaired
