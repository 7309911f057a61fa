"""The benchmark's own arithmetic: percentiles, interleaved ratios, span
self time and the audit tally behind ``ok_frac``."""

import math
import random

import numpy as np
import pytest

from stats import Audit, Span, interleaved_ratio, median, percentile, self_times


def test_percentile_matches_numpy_linear_rule():
    rng = random.Random(3)
    for size in (1, 2, 5, 10, 101):
        data = [rng.expovariate(1.0) for _ in range(size)]
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(data, q) == pytest.approx(np.percentile(data, q))


def test_percentile_rejects_empty_sample_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_interleaved_ratio_cancels_drift_between_rounds():
    # the host slows by up to 2x between rounds; both calls of a round see
    # the same speed, so every per-round ratio is the true 0.5
    speed = [1.0 + (i % 7) / 6.0 for i in range(40)]
    fast = [0.040 * s for s in speed]
    slow = [0.080 * s for s in speed]
    assert interleaved_ratio(fast, slow) == pytest.approx(0.5)
    # whereas the ratio of medians is not protected from a drift that hits
    # the two series differently
    slow_late = slow[20:] + slow[:20]
    assert interleaved_ratio(fast, slow_late) != pytest.approx(0.5)


def test_interleaved_ratio_median_ignores_a_burst_on_one_side():
    fast = [1.0] * 9 + [5.0]
    slow = [2.0] * 10
    assert interleaved_ratio(fast, slow) == pytest.approx(0.5)


def test_interleaved_ratio_needs_paired_series():
    with pytest.raises(ValueError):
        interleaved_ratio([1.0, 2.0], [1.0])


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("gemm", 0.0, 100.0),
        Span("pack_b", 0.0, 10.0),
        Span("checksum_update", 2.0, 3.0),  # nested in pack_b
        Span("macro_kernel_batched", 10.0, 60.0),
        Span("verify_round", 90.0, 5.0),
        Span("other_thread", 5.0, 50.0, tid=1),
    ]
    own = {s.name: t for s, t in self_times(spans)}
    assert own["gemm"] == pytest.approx(100.0 - 10.0 - 60.0 - 5.0)
    assert own["pack_b"] == pytest.approx(7.0)
    assert own["checksum_update"] == pytest.approx(3.0)
    assert own["macro_kernel_batched"] == pytest.approx(60.0)
    assert own["other_thread"] == pytest.approx(50.0)
    # self times of one tree add up to its root's duration
    assert sum(t for s, t in self_times(spans) if s.tid == 0) == pytest.approx(100.0)


def test_self_time_treats_back_to_back_spans_as_siblings():
    spans = [Span("root", 0.0, 30.0), Span("a", 0.0, 10.0), Span("b", 10.0, 10.0)]
    own = {s.name: t for s, t in self_times(spans)}
    assert own == {"root": 10.0, "a": 10.0, "b": 10.0}


def test_verified_but_wrong_answer_is_a_miss():
    audit = Audit()
    assert audit.record("ok", True, error=0.0, tolerance=1e-8)
    assert not audit.record("ok", True, error=0.5, tolerance=1e-8, label="r1")
    assert audit.wrong == 1 and audit.hits == 1
    assert audit.ok_frac == pytest.approx(0.5)
    assert not audit.correct
    assert "r1" in audit.examples[0]


def test_every_kind_of_miss_counts_against_ok_frac():
    audit = Audit()
    audit.record("ok", True, error=0.0, tolerance=1.0)
    audit.record("failed")
    audit.record("rejected")
    audit.record(None)  # lost
    audit.record("ok", False, error=0.0, tolerance=1.0)  # ok but unverified
    audit.record("ok", True, error=math.nan, tolerance=1.0)  # NaN is wrong
    audit.duplicated = 1
    assert (audit.failed, audit.refused, audit.lost, audit.wrong) == (2, 1, 1, 1)
    assert audit.attempted == 6 and audit.hits == 1
    assert audit.misses == 6
    assert audit.ok_frac == 0.0
    assert not audit.correct


def test_explicit_failures_are_misses_but_not_wrong_outputs():
    audit = Audit()
    audit.record("ok", True, error=0.0, tolerance=1.0)
    audit.record("failed")
    assert audit.correct
    assert audit.ok_frac == pytest.approx(0.5)


def test_median_of_even_sample_interpolates():
    assert median([1.0, 2.0, 3.0, 10.0]) == pytest.approx(2.5)
