"""Workload generators for tests, campaigns and benchmarks.

The paper's sweeps use dense random DGEMM operands. We add distributions
that stress the parts a dense Gaussian cannot: ill-scaled matrices probe
the round-off tolerance theory (false-positive hunting), adjacency
matrices (via networkx) carry the graph-analytics example workload, and
near-rank-deficient inputs produce checksums with heavy cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.errors import ConfigError
from repro.util.rng import make_rng


@dataclass(frozen=True)
class Workload:
    """A named generator of GEMM operand pairs."""

    name: str
    description: str
    make_fn: Callable[[int, int, np.random.Generator], np.ndarray]

    def operands(
        self, m: int, n: int, k: int, *, seed: int | None = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        if min(m, n, k) <= 0:
            raise ConfigError(f"invalid workload dims {m}x{n}x{k}")
        rng = make_rng(seed)
        return self.make_fn(m, k, rng), self.make_fn(k, n, rng)

    def square(self, n: int, *, seed: int | None = 0) -> tuple[np.ndarray, np.ndarray]:
        return self.operands(n, n, n, seed=seed)


def _gaussian(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols))


def _uniform(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(rows, cols))


def _ill_scaled(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Rows scaled over ~12 orders of magnitude: checksum residual bounds
    must track the envelope, not a global norm, to avoid false positives."""
    base = rng.standard_normal((rows, cols))
    scales = np.logspace(-6, 6, rows)
    rng.shuffle(scales)
    return base * scales[:, None]


def _cancelling(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Large entries of alternating sign: row/column sums cancel almost
    completely, the worst case for checksum round-off."""
    mags = rng.uniform(1e3, 1e6, size=(rows, cols))
    signs = np.where(np.arange(cols) % 2 == 0, 1.0, -1.0)
    return mags * signs[None, :]


def adjacency(n: int, *, p: float = 0.05, seed: int | None = 0) -> np.ndarray:
    """Dense adjacency matrix of a random (Erdős–Rényi) digraph.

    Used by the graph-analytics example: powers of the adjacency matrix
    count walks, a classic integer-valued GEMM workload where any silent
    corruption is immediately visible as a non-integer count.
    """
    import networkx as nx

    if n <= 0:
        raise ConfigError(f"graph size must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability must be in [0,1], got {p}")
    graph = nx.gnp_random_graph(n, p, seed=seed, directed=True)
    return nx.to_numpy_array(graph, dtype=np.float64)


gaussian = Workload("gaussian", "i.i.d. standard normal entries", _gaussian)
uniform = Workload("uniform", "i.i.d. uniform [-1, 1] entries", _uniform)
ill_scaled = Workload(
    "ill_scaled", "rows spanning 12 orders of magnitude", _ill_scaled
)
cancelling = Workload(
    "cancelling", "large alternating-sign entries (checksum cancellation)",
    _cancelling,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (gaussian, uniform, ill_scaled, cancelling)
}
