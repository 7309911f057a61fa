"""CLI: regenerate the paper's figures.

Examples::

    python -m repro.bench                     # all figures
    OPENBLAS_NUM_THREADS=1 python -m repro.bench --figure fig2a
    python -m repro.bench --out results/
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import ExperimentRunner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the FT-GEMM paper's evaluation figures.",
    )
    parser.add_argument(
        "--figure",
        choices=sorted(ALL_FIGURES),
        action="append",
        help="figure id to build (repeatable; default: all)",
    )
    parser.add_argument(
        "--out", default="results", help="output directory for evidence files"
    )
    args = parser.parse_args(argv)

    runner = ExperimentRunner(args.out)
    for figure_id in args.figure or sorted(ALL_FIGURES):
        runner.run(figure_id)
    print(runner.report())
    print(f"evidence files written to {runner.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
