"""The measured-vs-predicted phase report: category totals, share math,
and the checksum-overhead row joined against the perfmodel."""

import pytest

from repro.obs import TraceEvent, PhaseReport, phase_report, phase_totals
from repro.perfmodel import GemmPerfModel


def _span(name, cat, ts, dur, tid=0):
    return TraceEvent(name=name, cat=cat, ph="X", ts_us=ts, tid=tid,
                      dur_us=dur)


def test_phase_totals_sums_categories_and_other():
    events = [
        _span("gemm", "driver", 0.0, 100.0),
        _span("pack_b", "pack", 1.0, 10.0),
        _span("pack_a", "pack", 12.0, 5.0),
        _span("macro_kernel", "compute", 20.0, 40.0),
        _span("checksum_update", "checksum", 61.0, 8.0),
        TraceEvent(name="fault.injected", cat="fault", ph="i", ts_us=5.0),
    ]
    totals = phase_totals(events)
    assert totals["pack"] == pytest.approx(15e-6)
    assert totals["compute"] == pytest.approx(40e-6)
    assert totals["checksum"] == pytest.approx(8e-6)
    assert totals["total"] == pytest.approx(100e-6)  # root span wins
    assert totals["other"] == pytest.approx(37e-6)   # untraced remainder


def test_phase_totals_without_root_uses_phase_sum():
    events = [_span("pack_b", "pack", 0.0, 10.0),
              _span("macro_kernel", "compute", 10.0, 30.0)]
    totals = phase_totals(events)
    assert totals["total"] == pytest.approx(40e-6)
    assert totals["other"] == 0.0


def test_phase_totals_takes_longest_root():
    """Nested re-entrant drivers would emit shorter gemm roots; the
    longest one is the run."""
    events = [
        _span("gemm", "driver", 0.0, 100.0),
        _span("gemm", "driver", 10.0, 20.0),
        _span("pack_b", "pack", 1.0, 10.0),
    ]
    assert phase_totals(events)["total"] == pytest.approx(100e-6)


def test_phase_totals_four_lanes_take_per_thread_time():
    """Four lanes under one 100 us root: lane 0 works 90 us, lanes 1-3
    wait at barriers for most of theirs. Every lane is charged the wall
    time, so the categories plus ``other`` make up 400 us and the shares
    sum to one (over the root span they summed to 2.8)."""
    events = [_span("gemm", "driver", 0.0, 100.0, tid=0),
              _span("macro_kernel", "compute", 0.0, 90.0, tid=0)]
    for tid in (1, 2, 3):
        events += [_span("pack_b", "pack", 0.0, 10.0, tid=tid),
                   _span("barrier_wait", "sync", 10.0, 50.0, tid=tid)]
    totals = phase_totals(events)
    assert totals["lanes"] == 4
    assert totals["wall"] == pytest.approx(100e-6)
    assert totals["total"] == pytest.approx(400e-6)
    assert totals["sync"] == pytest.approx(150e-6)
    assert totals["other"] == pytest.approx(10e-6 + 3 * 40e-6)
    report = phase_report(events)
    shares = {row.phase: row.measured_share for row in report.rows}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sync"] == pytest.approx(150.0 / 400.0)
    assert "per-thread time summed over 4 lanes" in report.to_table()


def test_phase_totals_lane_longer_than_root_is_not_clipped():
    events = [_span("gemm", "driver", 0.0, 50.0, tid=0),
              _span("macro_kernel", "compute", 0.0, 40.0, tid=0),
              _span("pack_b", "pack", 0.0, 70.0, tid=1)]
    totals = phase_totals(events)
    assert totals["total"] == pytest.approx(120e-6)
    assert totals["other"] == pytest.approx(10e-6)


def test_phase_report_shares_and_overhead():
    events = [
        _span("gemm", "driver", 0.0, 100.0),
        _span("macro_kernel", "compute", 0.0, 50.0),
        _span("checksum_update", "checksum", 50.0, 20.0),
        _span("verify_round", "verify", 70.0, 10.0),
        _span("recover.repack_recompute", "recover", 80.0, 10.0),
    ]
    report = phase_report(events)
    assert isinstance(report, PhaseReport)
    by_phase = {row.phase: row for row in report.rows}
    assert by_phase["compute"].measured_share == pytest.approx(0.5)
    assert by_phase["checksum"].predicted_s is None  # no breakdown given
    # overhead = (checksum + verify) / (total - ft work - recover)
    assert report.checksum_overhead_measured == pytest.approx(
        (20.0 + 10.0) / (100.0 - 30.0 - 10.0)
    )
    assert report.checksum_overhead_predicted is None
    table = report.to_table()
    assert "checksum overhead" in table
    assert "compute" in table


def test_phase_report_joins_perfmodel_breakdown():
    events = [
        _span("gemm", "driver", 0.0, 1000.0),
        _span("macro_kernel", "compute", 0.0, 600.0),
        _span("checksum_update", "checksum", 600.0, 100.0),
    ]
    breakdown = GemmPerfModel(mode="ft").breakdown(256, beta_nonzero=False)
    report = phase_report(events, breakdown=breakdown)
    by_phase = {row.phase: row for row in report.rows}
    assert by_phase["compute"].predicted_s == pytest.approx(
        breakdown.compute_seconds
    )
    assert by_phase["compute"].predicted_share == pytest.approx(
        breakdown.compute_seconds / breakdown.seconds
    )
    # scale/verify/recover have no modeled counterpart
    assert by_phase["scale"].predicted_s is None
    assert report.predicted_total_s == pytest.approx(breakdown.seconds)
    assert report.checksum_overhead_predicted == pytest.approx(
        breakdown.checksum_seconds
        / (breakdown.seconds - breakdown.checksum_seconds)
    )
    assert report.mode == "ft"
    assert "model:" in report.to_table()


def test_phase_report_ori_mode_has_no_predicted_overhead():
    events = [_span("gemm", "driver", 0.0, 10.0),
              _span("macro_kernel", "compute", 0.0, 10.0)]
    breakdown = GemmPerfModel(mode="ori").breakdown(128)
    report = phase_report(events, breakdown=breakdown)
    assert report.checksum_overhead_predicted is None
