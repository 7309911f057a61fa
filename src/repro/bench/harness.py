"""The experiment runner behind ``python -m repro.bench``."""

from __future__ import annotations

import time
from pathlib import Path

from repro.bench.figures import ALL_FIGURES, build
from repro.bench.reporting import FigureSeries
from repro.util.errors import ConfigError


class ExperimentRunner:
    """Builds figures, prints them, and persists the evidence files."""

    def __init__(self, out_dir: str | Path = "results"):
        self.out_dir = Path(out_dir)
        self.built: dict[str, FigureSeries] = {}
        self.timings: dict[str, float] = {}

    def run(self, figure_id: str, **kwargs) -> FigureSeries:
        start = time.perf_counter()
        fig = build(figure_id, **kwargs)
        self.timings[figure_id] = time.perf_counter() - start
        self.built[figure_id] = fig
        fig.save(self.out_dir)
        return fig

    def run_all(self) -> dict[str, FigureSeries]:
        for figure_id in ALL_FIGURES:
            self.run(figure_id)
        return self.built

    def report(self) -> str:
        if not self.built:
            raise ConfigError("no figures built yet; call run()/run_all() first")
        chunks = []
        for figure_id, fig in self.built.items():
            chunks.append(fig.to_table())
            chunks.append(f"  [built in {self.timings[figure_id]:.2f}s]")
            chunks.append("")
        return "\n".join(chunks)
