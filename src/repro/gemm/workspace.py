"""Preallocated packing workspace (the Ã/B̃ buffer arena).

Real GotoBLAS-family kernels allocate their packing buffers once (or from a
pool) and reuse them for every block of every call; the original driver here
instead paid one ``np.zeros`` per packed block — tens of allocator round
trips per call. :class:`Workspace` owns the two buffers at the geometry a
``(m, n, k)`` problem implies under a :class:`~repro.gemm.blocking.BlockingConfig`
and hands out exact-shape views for :func:`~repro.gemm.packing.pack_a` /
:func:`~repro.gemm.packing.pack_b` ``out=`` parameters:

- the **Ã arena** covers *all* of M at once — ``ceil(m / M_R)`` micro
  panels of depth ``min(K_C, k)`` — so a packed A block can stay resident
  and be reused across every j-block of a K-block instead of being repacked
  per ``(p, j, i)``;
- the **B̃ arena** covers one ``K_C x N_C`` block, the paper's shared
  buffer.

A workspace is reusable across calls with the same implied geometry;
:meth:`Workspace.obtain` recycles a compatible instance and replaces an
incompatible one.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.blocking import BlockingConfig
from repro.util.errors import ShapeError


class Workspace:
    """The Ã/B̃ packing arena for one problem geometry."""

    def __init__(self, config: BlockingConfig, m: int, n: int, k: int):
        if min(m, n, k) <= 0:
            raise ShapeError(f"invalid workspace geometry {m}x{n}x{k}")
        self.config = config
        self.depth = min(config.kc, k)
        self.a_panels = config.micro_panels_m(m)
        self.b_panels = config.micro_panels_n(min(config.nc, n))
        self.a_buf = np.zeros((self.a_panels, self.depth, config.mr))
        self.b_buf = np.zeros((self.b_panels, self.depth, config.nr))

    def fits(self, config: BlockingConfig, m: int, n: int, k: int) -> bool:
        """Whether this arena already covers the given problem geometry.

        Coverage, not equality: panel shapes (``mr``/``nr``) must match, but
        a larger arena serves any smaller problem — the block views slice
        exactly what a pass needs."""
        return (
            self.config.mr == config.mr
            and self.config.nr == config.nr
            and self.depth >= min(config.kc, k)
            and self.a_panels >= config.micro_panels_m(m)
            and self.b_panels >= config.micro_panels_n(min(config.nc, n))
        )

    @classmethod
    def obtain(
        cls,
        current: "Workspace | None",
        config: BlockingConfig,
        m: int,
        n: int,
        k: int,
    ) -> "Workspace":
        """Reuse ``current`` when compatible, else allocate a fresh arena."""
        if current is not None and current.fits(config, m, n, k):
            return current
        return cls(config, m, n, k)

    # ------------------------------------------------------------ block views
    def a_view(self, i0: int, n_panels: int, plen: int) -> np.ndarray:
        """The ``out=`` buffer for packing the A block whose first row is
        ``i0`` (``i0`` is a multiple of ``M_C``, hence of ``M_R``)."""
        if i0 % self.config.mr:
            # a misaligned block start would silently land on the panels
            # of the *previous* block — fail loud here instead of
            # computing garbage three layers down
            raise ShapeError(
                f"A block start {i0} is not aligned to the {self.config.mr}-row "
                f"panel grid (mc must be a multiple of mr)"
            )
        first = i0 // self.config.mr
        if first + n_panels > self.a_panels or plen > self.depth:
            raise ShapeError(
                f"A view (panels {first}:{first + n_panels}, depth {plen}) "
                f"outside arena ({self.a_panels} panels, depth {self.depth})"
            )
        return self.a_buf[first : first + n_panels, :plen, :]

    def b_view(self, n_panels: int, plen: int) -> np.ndarray:
        """The ``out=`` buffer for packing one ``(p, j)`` B block."""
        if n_panels > self.b_panels or plen > self.depth:
            raise ShapeError(
                f"B view ({n_panels} panels, depth {plen}) outside arena "
                f"({self.b_panels} panels, depth {self.depth})"
            )
        return self.b_buf[:n_panels, :plen, :]

    @property
    def nbytes(self) -> int:
        return self.a_buf.nbytes + self.b_buf.nbytes
