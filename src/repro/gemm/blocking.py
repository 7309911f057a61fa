"""Cache-blocking configuration and loop partitioning.

The paper's AVX-512 DGEMM uses ``M_C = 192``, ``K_C = 384``, ``N_C = 9216``
with an AVX-512 micro tile; we default to the BLIS Skylake-X ``16 x 14``
double-precision tile (28 accumulator registers + 4 operand registers = all
32 zmm registers). :func:`iter_blocks` yields the partition of one dimension,
exactly the ``(offset, length)`` pairs of the paper's Figure 1 loop headers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class BlockingConfig:
    """Blocking parameters of the packed GEMM.

    ``mc``/``kc``/``nc`` are the cache-block step sizes of the three outer
    loops; ``mr``/``nr`` is the register-tile (micro kernel) shape. The
    defaults are the paper's tuned values for Cascade Lake.
    """

    mc: int = 192
    kc: int = 384
    nc: int = 9216
    mr: int = 16
    nr: int = 14

    def __post_init__(self) -> None:
        for name in ("mc", "kc", "nc", "mr", "nr"):
            value = getattr(self, name)
            # bool is an int subclass but never a meaningful block size;
            # numpy integers (tuning sweeps enumerate grids with numpy)
            # are coerced so a frozen config always holds plain ints and
            # hashes/serialises identically however it was built
            if isinstance(value, bool):
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
            if not isinstance(value, int):
                index = getattr(value, "__index__", None)
                if index is None:
                    raise ConfigError(
                        f"{name} must be a positive int, got {value!r}"
                    )
                value = index()
                object.__setattr__(self, name, value)
            if value <= 0:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        if self.mr > self.mc:
            raise ConfigError(f"mr ({self.mr}) cannot exceed mc ({self.mc})")
        if self.nr > self.nc:
            raise ConfigError(f"nr ({self.nr}) cannot exceed nc ({self.nc})")
        if self.mc % self.mr != 0:
            raise ConfigError(
                f"mc ({self.mc}) must be a multiple of mr ({self.mr}) so "
                f"A-panels tile the L2 block exactly"
            )

    def with_(self, **kwargs) -> "BlockingConfig":
        """Return a modified copy (used by tuning sweeps and ablations)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------ footprints
    @property
    def a_block_doubles(self) -> int:
        """Elements of one packed Ã block (the L2-resident operand)."""
        return self.mc * self.kc

    @property
    def b_panel_doubles(self) -> int:
        """Elements of one packed B̃ panel (the L3-resident operand)."""
        return self.kc * self.nc

    @property
    def c_tile_doubles(self) -> int:
        return self.mr * self.nr

    def micro_panels_m(self, mlen: int) -> int:
        """Number of mr-row micro panels covering ``mlen`` rows."""
        return -(-mlen // self.mr)

    def micro_panels_n(self, nlen: int) -> int:
        return -(-nlen // self.nr)

    @staticmethod
    def small(mr: int = 4, nr: int = 4) -> "BlockingConfig":
        """A small configuration for tests: exercises every edge case
        (partial blocks, partial panels) with matrices of a few dozen rows."""
        return BlockingConfig(mc=8, kc=8, nc=12, mr=mr, nr=nr)


def iter_blocks(total: int, step: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, length)`` pairs partitioning ``range(total)``.

    Matches the paper's loop header ``for p = 0; p < K; p += K_C`` with
    ``p_inc = (K - p > K_C) ? K_C : K - p``.
    """
    if total < 0:
        raise ConfigError(f"total must be non-negative, got {total}")
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    for start in range(0, total, step):
        yield start, min(step, total - start)


def block_starts(total: int, step: int) -> list[int]:
    """The start offsets of :func:`iter_blocks` (used by verification code)."""
    return [start for start, _ in iter_blocks(total, step)]


def n_blocks(total: int, step: int) -> int:
    """Number of blocks covering ``total``; 0 for an empty range."""
    if total < 0:
        raise ConfigError(f"total must be non-negative, got {total}")
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    return -(-total // step)
