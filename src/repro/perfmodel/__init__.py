"""Analytic performance model of the (FT-)GEMM on the paper's testbed.

Every performance number this package publishes is measured
(:func:`repro.bench.figures.fig2a_serial`, ``perfbench``). The model
stays for what a measurement here cannot show: how the same algorithm
would spend its time on the paper's Xeon W-2255, printed *next to* a
measurement and labelled as model output.

- :mod:`repro.perfmodel.traffic` — DRAM byte legs of the blocked algorithm
  (packing passes, B̃ spill, C update streams) computed from the *actual*
  block partition; the fused scheme adds no bytes;
- :mod:`repro.perfmodel.timing` — converts compute cycles and memory bytes
  into seconds with a bounded-overlap roofline;
- :mod:`repro.perfmodel.gemm_model` — :class:`GemmPerfModel`, the per-mode
  (ori / ft), per-thread-count end-to-end model producing
  :class:`PerfBreakdown` records (the predicted column of the trace phase
  table, the blocking tuner's score, the strong-scaling table);
- :mod:`repro.perfmodel.roofline` — textbook roofline helpers used by docs
  and tests;
- :mod:`repro.perfmodel.validate` — exact expected counters diffed
  against real runs.

Machine peaks and cache geometry are hardware facts; a single
``kernel_sustained_eff`` constant captures how close a hand-tuned kernel
gets to peak, and ``ft_kernel_penalty`` the fused kernels' instruction-mix
cost (DESIGN.md §5).
"""

from repro.perfmodel.constants import ModelConstants
from repro.perfmodel.traffic import TrafficReport, gemm_dram_traffic
from repro.perfmodel.timing import TimingModel
from repro.perfmodel.gemm_model import GemmPerfModel, PerfBreakdown, MODES
from repro.perfmodel.roofline import (
    arithmetic_intensity,
    attainable_gflops,
    ridge_point,
)
from repro.perfmodel.validate import (
    ValidationReport,
    expected_counters,
    expected_counters_parallel,
    validate_parallel_run,
    validate_run,
)

__all__ = [
    "ModelConstants",
    "TrafficReport",
    "gemm_dram_traffic",
    "TimingModel",
    "GemmPerfModel",
    "PerfBreakdown",
    "MODES",
    "arithmetic_intensity",
    "attainable_gflops",
    "ridge_point",
    "ValidationReport",
    "expected_counters",
    "expected_counters_parallel",
    "validate_parallel_run",
    "validate_run",
]
