"""Metric summarization arithmetic."""

from types import SimpleNamespace

import pytest

from tokendcf import PhyParams, summarize


def station(delivered=0, payload_bytes=0, dropped_full=0, dropped_retry=0,
            attempts=0, failures=0, delay_sum=0):
    return SimpleNamespace(delivered=delivered, payload_bytes=payload_bytes,
                           dropped_full=dropped_full, dropped_retry=dropped_retry,
                           attempts=attempts, failures=failures, delay_sum=delay_sum)


def medium(busy_us=0, idle_us=0, idle_count=0):
    return SimpleNamespace(busy_us=busy_us, idle_us=idle_us, idle_count=idle_count,
                           phy=PhyParams(slot_time=9))


def test_throughput_from_delivered_bits():
    # 600 packets of 1500 B from two senders and none from a sink; drops add up too
    stations = [station(400, 1500, 3, 0), station(), station(200, 1500, 1, 2)]
    rep = summarize(stations, medium(busy_us=1234), 30_000_000)
    assert rep.throughput_bps == pytest.approx(240_000)
    assert rep.delivered_packets == 600
    assert rep.drops == 6
    assert rep.busy_time_us == 1234


def test_average_access_delay():
    # summed over the stations, then divided by the packets they delivered
    rep = summarize([station(delivered=1, delay_sum=500), station(delivered=3, delay_sum=3500)],
                    medium(), 1_000_000)
    assert rep.access_delay_us == pytest.approx(1000)


def test_idle_slots_normalized_by_slot_time():
    # pure privileged chain: SIFS-wide gaps
    rep = summarize([], medium(idle_us=30, idle_count=3), 1_000_000)
    assert rep.idle_slots == pytest.approx(10 / 9)


def test_collision_frequency_ratio():
    rep = summarize([station(attempts=150, failures=20), station(attempts=50, failures=10)],
                    medium(), 1_000_000)
    assert rep.collision_freq == pytest.approx(0.15)


def test_zero_failures_give_zero_frequency():
    rep = summarize([station(attempts=10)], medium(), 1_000_000)
    assert rep.collision_freq == 0.0


def test_empty_multisets_reported_absent_not_zero():
    rep = summarize([station(), station()], medium(), 1_000_000)
    assert rep.access_delay_us is None
    assert rep.idle_slots is None
    assert rep.collision_freq is None
    assert rep.throughput_bps == 0.0


def test_summarize_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        summarize([], medium(), 0)
