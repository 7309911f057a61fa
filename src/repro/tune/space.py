"""Search-space definition for the blocking-parameter DSE.

A :class:`SearchSpace` is a named cross-product of candidate values for
every knob the serving path can act on: the three cache-block sizes, the
register-tile shape, and the worker thread count. ``coalesce_limits`` is carried alongside but *not* enumerated — the
scheduler cap is picked analytically from the winning config's footprint
(see :func:`repro.tune.search.choose_coalesce_limit`) because a single-call
measurement cannot rank it.

Enumeration applies only machine-independent legality (``mc % mr``, tile
within block); machine-dependent feasibility (register file, cache
footprints, DRAM traffic) is the prune stage's job, so the funnel report
can say *why* each candidate died.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.tune.db import TunedConfig
from repro.util.errors import ConfigError

__all__ = ["SearchSpace"]


@dataclass(frozen=True)
class SearchSpace:
    """A named grid of candidate execution configurations."""

    name: str
    mc: tuple[int, ...]
    kc: tuple[int, ...]
    nc: tuple[int, ...]
    tiles: tuple[tuple[int, int], ...]
    threads: tuple[int, ...] = (1,)
    coalesce_limits: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for field_name in ("mc", "kc", "nc", "tiles", "threads"):
            if not getattr(self, field_name):
                raise ConfigError(f"search space {self.name!r}: {field_name} is empty")

    # ------------------------------------------------------------ enumeration
    def candidates(self) -> list[TunedConfig]:
        """Every legal point of the grid, in deterministic order.

        Illegal combinations (``mc`` not a multiple of ``mr``, tile larger
        than its block) are skipped silently — they are grid artifacts, not
        interesting rejections.
        """
        out: list[TunedConfig] = []
        for (mr, nr), mc, kc, nc, threads in product(
            self.tiles, self.mc, self.kc, self.nc, self.threads
        ):
            if mc % mr != 0 or mr > mc or nr > nc:
                continue
            out.append(
                TunedConfig(
                    mc=mc, kc=kc, nc=nc, mr=mr, nr=nr,
                    threads=threads, source="search",
                )
            )
        return out

    def size(self) -> int:
        return len(self.candidates())

    # ------------------------------------------------------- canned instances
    @staticmethod
    def small() -> "SearchSpace":
        """A seconds-scale space around :meth:`BlockingConfig.small` — the
        grid the CI smoke and the doc walkthrough search."""
        return SearchSpace(
            name="small",
            mc=(4, 8, 16),
            kc=(4, 8, 16),
            nc=(12, 16, 32),
            tiles=((4, 4),),
            threads=(1,),
            coalesce_limits=(0, 4),
        )

    @staticmethod
    def default() -> "SearchSpace":
        """The production grid: brackets the paper's Cascade Lake point
        (192, 384, 9216, 16x14) with alternatives that win on shapes the
        paper never tuned for (tall-skinny, small-K)."""
        return SearchSpace(
            name="default",
            mc=(64, 128, 192, 256, 512, 1024, 2048),
            kc=(32, 64, 128, 256, 384),
            nc=(64, 256, 1024, 4096, 9216),
            tiles=((16, 14), (8, 8), (8, 6)),
            threads=(1, 2),
            coalesce_limits=(0, 4, 16),
        )

    @staticmethod
    def named(name: str) -> "SearchSpace":
        """Look up a canned space by name (the CLI's ``--space`` flag)."""
        spaces = {"small": SearchSpace.small, "default": SearchSpace.default}
        if name not in spaces:
            raise ConfigError(
                f"unknown search space {name!r}; choose from {sorted(spaces)}"
            )
        return spaces[name]()
