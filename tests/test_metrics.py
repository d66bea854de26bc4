"""Metric summarization arithmetic."""

from types import SimpleNamespace

import pytest

from tokendcf import Metrics, summarize


def test_throughput_from_delivered_bits():
    m = Metrics()
    m.access_delays = [100.0] * 600
    # 600 packets of 1500 B from two senders and none from a sink; drops add up too
    stations = [SimpleNamespace(delivered=d, payload_bytes=b, dropped_full=f, dropped_retry=r)
                for d, b, f, r in ((400, 1500, 3, 0), (0, 0, 0, 0), (200, 1500, 1, 2))]
    rep = summarize(m, stations, 30_000_000, 9)
    assert rep.throughput_bps == pytest.approx(240_000)
    assert rep.delivered_packets == 600
    assert rep.drops == 6


def test_average_access_delay():
    m = Metrics()
    m.access_delays = [500, 1500]
    rep = summarize(m, [], 1_000_000, 9)
    assert rep.access_delay_us == pytest.approx(1000)


def test_idle_slots_normalized_by_slot_time():
    m = Metrics()
    m.idle_gaps = [10, 10, 10]   # pure privileged chain: SIFS-wide gaps
    rep = summarize(m, [], 1_000_000, 9)
    assert rep.idle_slots == pytest.approx(10 / 9)


def test_collision_frequency_ratio():
    m = Metrics()
    m.tx_attempts = 200
    m.tx_failures = 30
    rep = summarize(m, [], 1_000_000, 9)
    assert rep.collision_freq == pytest.approx(0.15)


def test_zero_failures_give_zero_frequency():
    m = Metrics()
    m.tx_attempts = 10
    rep = summarize(m, [], 1_000_000, 9)
    assert rep.collision_freq == 0.0


def test_empty_multisets_reported_absent_not_zero():
    rep = summarize(Metrics(), [], 1_000_000, 9)
    assert rep.access_delay_us is None
    assert rep.idle_slots is None
    assert rep.collision_freq is None
    assert rep.throughput_bps == 0.0


def test_summarize_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        summarize(Metrics(), [], 0, 9)

