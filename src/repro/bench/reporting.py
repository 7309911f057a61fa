"""Rendering and persisting figure series."""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.util.formatting import format_gflops, format_percent, format_table


@dataclass
class FigureSeries:
    """One regenerated table/figure: x values against named series.

    ``paper_claims`` records the published numbers; ``observations`` is
    filled by the builder with this repository's counterparts (measured,
    or labelled as model output), so the rendered report is
    self-contained.
    """

    figure_id: str
    title: str
    x_label: str
    x: list
    series: dict[str, list[float]] = field(default_factory=dict)
    paper_claims: dict[str, str] = field(default_factory=dict)
    observations: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, values: list[float]) -> None:
        if len(values) != len(self.x):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(self.x)} x points"
            )
        self.series[name] = values

    def to_table(self) -> str:
        headers = [self.x_label] + list(self.series)
        rows = []
        for i, xv in enumerate(self.x):
            rows.append(
                [str(xv)] + [format_gflops(self.series[s][i]) for s in self.series]
            )
        parts = [format_table(headers, rows, title=f"{self.figure_id}: {self.title}")]
        if self.paper_claims or self.observations:
            parts.append("")
            for key in sorted(set(self.paper_claims) | set(self.observations)):
                paper = self.paper_claims.get(key, "-")
                ours = self.observations.get(key, "-")
                parts.append(f"  {key}: paper {paper} | here {ours}")
        return "\n".join(parts)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.figure_id}.txt"
        path.write_text(self.to_table() + "\n")
        (directory / f"{self.figure_id}.json").write_text(self.to_json() + "\n")
        return path


def observed_percent(value: float) -> str:
    """Shared formatting for observation entries."""
    return format_percent(value)


def host_summary() -> str:
    """One line naming where a measurement ran: OS, architecture and CPU
    count, NumPy and its BLAS, and the BLAS thread setting the process
    started with (the BLAS reads it once, at load)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # older NumPy: no dict mode
        blas_name = "unknown BLAS"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (
        f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}, NumPy {np.__version__} "
        f"({blas_name}), OPENBLAS_NUM_THREADS={threads}"
    )
