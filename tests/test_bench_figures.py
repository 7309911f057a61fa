"""Figure builders and the harness."""

import pytest

from repro.baselines.traditional_abft import TraditionalABFT
from repro.bench.figures import (
    ALL_FIGURES,
    build,
    fig2a_serial,
    reliability_table,
)
from repro.bench.harness import ExperimentRunner
from repro.core.ftgemm import FTGemm
from repro.gemm.driver import BlockedGemm
from repro.util.errors import ConfigError, FaultToleranceError

SWEEP_SERIES = {
    "OpenBLAS", "FT-GEMM Ori", "FT-GEMM w/ FT", "classic ABFT",
    "Ori/BLAS %", "FT/BLAS %", "fused ov %", "classic ov %",
}


def test_registry_covers_every_panel_and_claim():
    assert set(ALL_FIGURES) == {
        "fig2a", "reliability", "scaling", "serve", "panel_cache",
        "kernel_mix",
    }


def test_scaling_table_monotone():
    from repro.bench.figures import scaling_table

    fig = scaling_table(thread_counts=(1, 2, 4, 8), n=4096)
    ft = fig.series["FT GFLOPS"]
    assert all(b > a for a, b in zip(ft, ft[1:]))  # more threads, more rate
    eff = fig.series["FT efficiency %"]
    assert eff[0] == pytest.approx(100.0)
    assert all(e > 60.0 for e in eff)  # decent strong scaling at 4096


def test_fig2a_structure():
    """The measured sweep: one value per size in every series, positive
    rates, and the paper's claims next to the measured spans."""
    fig = fig2a_serial(sizes=(64, 96))
    assert fig.x == [64, 96]
    assert set(fig.series) == SWEEP_SERIES
    for name, values in fig.series.items():
        assert len(values) == 2, name
    for name in ("OpenBLAS", "FT-GEMM Ori", "FT-GEMM w/ FT", "classic ABFT"):
        assert all(v > 0 for v in fig.series[name]), name
    for key in ("Ori vs OpenBLAS", "FT overhead vs Ori",
                "classic overhead vs Ori"):
        assert key in fig.paper_claims and key in fig.observations
    assert "not reproduced here" in fig.observations["MKL, BLIS columns"]
    assert "OPENBLAS_NUM_THREADS" in fig.observations["testbed"]


@pytest.mark.parametrize("owner", [BlockedGemm, FTGemm], ids=["ori", "ft"])
def test_fig2a_refuses_a_wrong_product(monkeypatch, owner):
    """A driver whose C is wrong makes the sweep raise instead of
    publishing its time."""
    honest = owner.gemm

    def off_by_one(self, a, b, *args, **kwargs):
        out = honest(self, a, b, *args, **kwargs)
        c = getattr(out, "c", out)
        c[0, 0] += 1.0
        return out

    monkeypatch.setattr(owner, "gemm", off_by_one)
    with pytest.raises(FaultToleranceError, match="max"):
        fig2a_serial(sizes=(64,))


def test_fig2a_refuses_an_unverified_result(monkeypatch):
    honest = TraditionalABFT.gemm

    def unverified(self, a, b, *args, **kwargs):
        out = honest(self, a, b, *args, **kwargs)
        out.verified = False
        return out

    monkeypatch.setattr(TraditionalABFT, "gemm", unverified)
    with pytest.raises(FaultToleranceError, match="did not verify"):
        fig2a_serial(sizes=(64,))


def test_reliability_small():
    fig = reliability_table(rates_per_minute=(0, 120), n=64, runs=2)
    assert fig.series["correct %"] == [100.0, 100.0]


def test_build_dispatch():
    fig = build("fig2a", sizes=(64,))
    assert fig.figure_id == "fig2a"
    with pytest.raises(ConfigError):
        build("fig9z")


def test_harness_runs_and_persists(tmp_path):
    runner = ExperimentRunner(tmp_path)
    runner.run("fig2a", sizes=(64, 96))
    runner.run("scaling", thread_counts=(1, 2), n=1024)
    assert (tmp_path / "fig2a.txt").exists()
    report = runner.report()
    assert "fig2a" in report and "scaling" in report


def test_harness_report_requires_runs(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentRunner(tmp_path).report()


def test_harness_run_all_builds_every_figure(tmp_path):
    """The full pipeline: every registered figure builds, persists, and
    carries both the paper claims and our observations."""
    runner = ExperimentRunner(tmp_path)
    built = runner.run_all()
    assert set(built) == set(ALL_FIGURES)
    for figure_id, fig in built.items():
        assert (tmp_path / f"{figure_id}.txt").exists()
        assert (tmp_path / f"{figure_id}.json").exists()
        assert fig.observations, figure_id
        assert fig.series, figure_id
