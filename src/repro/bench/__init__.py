"""Benchmark harness: regenerates every figure of the paper's evaluation.

- :mod:`repro.bench.workloads` — matrix/workload generators (the paper uses
  dense square DGEMM sweeps; extra distributions exercise the tolerance
  theory);
- :mod:`repro.bench.figures` — the measured Fig. 2(a) sweep (which also
  carries the in-text fused-vs-classic overhead claim), the reliability
  table and the supporting scaling/serving tables;
- :mod:`repro.bench.reporting` — text-table rendering and result files;
- :mod:`repro.bench.harness` — the experiment runner and the
  ``python -m repro.bench`` CLI.
"""

from repro.bench.workloads import (
    Workload,
    gaussian,
    uniform,
    ill_scaled,
    adjacency,
    WORKLOADS,
)
from repro.bench.figures import (
    FigureSeries,
    fig2a_serial,
    reliability_table,
    ALL_FIGURES,
)
from repro.bench.harness import ExperimentRunner

__all__ = [
    "Workload",
    "gaussian",
    "uniform",
    "ill_scaled",
    "adjacency",
    "WORKLOADS",
    "FigureSeries",
    "fig2a_serial",
    "reliability_table",
    "ALL_FIGURES",
    "ExperimentRunner",
]
