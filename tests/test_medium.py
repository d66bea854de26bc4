"""Neighbour tables, carrier sensing, delivery and collision outcomes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendcf import (ACK, DATA, ConfigError, MacFrame, MacParams, Medium,
                      Metrics, PhyParams, Simulator, Station)
from tokendcf.medium import MediumError, neighbor_tables

from conftest import Recorder


def make_medium(positions, metrics=None):
    sim = Simulator()
    medium = Medium(sim, positions, metrics)
    recorders = [Recorder(i, sim) for i in range(len(positions))]
    medium.bind(recorders)
    return sim, medium, recorders


def data(src, dst, payload=500):
    return MacFrame(DATA, src, dst, payload_bytes=payload)


def frames_at(recorder):
    """Frames the medium delivered (decoded) at a recorder station."""
    return [f for _, kind, f in recorder.events if kind == "frame"]


# -- geometry ---------------------------------------------------------------

def test_link_geometry_boundary_inclusive_at_250():
    tx_nb, cs_set = neighbor_tables([(0.0, 0.0), (250.0, 0.0)], 250.0, 550.0)
    assert tx_nb == [[1], [0]]
    assert cs_set == [{0, 1}, {0, 1}]


def test_link_geometry_between_ranges():
    tx_nb, cs_set = neighbor_tables([(0.0, 0.0), (400.0, 0.0)], 250.0, 550.0)
    assert tx_nb == [[], []]
    assert cs_set == [{0, 1}, {0, 1}]


def test_link_geometry_beyond_both_ranges():
    tx_nb, cs_set = neighbor_tables([(0.0, 0.0), (600.0, 0.0)], 250.0, 550.0)
    assert tx_nb == [[], []]
    assert cs_set == [{0}, {1}]


def test_topology_rejects_tx_range_above_cs_range():
    # a topology's radii come from PhyParams, which checks them once
    with pytest.raises(ConfigError):
        PhyParams(tx_range=600.0, cs_range=550.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 1000)),
                min_size=2, max_size=6))
def test_link_geometry_symmetric(positions):
    tx_nb, cs_set = neighbor_tables(positions, 250.0, 550.0)
    for a, (xa, ya) in enumerate(positions):
        assert tx_nb[a] == sorted(tx_nb[a])
        assert a in cs_set[a] and a not in tx_nb[a]
        for b, (xb, yb) in enumerate(positions):
            if a == b:
                continue
            d = math.hypot(xa - xb, ya - yb)
            assert (b in tx_nb[a]) == (a in tx_nb[b]) == (d <= 250.0)
            assert (b in cs_set[a]) == (a in cs_set[b]) == (d <= 550.0)


def test_bind_rejects_station_with_other_phy_timing():
    sim = Simulator()
    medium = Medium(sim, [(0.0, 0.0), (100.0, 0.0)])
    st = Station(0, sim, medium, PhyParams(slot_time=20), MacParams(), Metrics())
    with pytest.raises(MediumError):
        medium.bind([st])


# -- carrier sensing --------------------------------------------------------

def test_carrier_idle_with_no_transmissions():
    _, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)])
    assert medium.join(1)   # an idle channel: the station plans its access now


def test_carrier_busy_at_540m_not_at_560m():
    sim, medium, _ = make_medium([(0.0, 0.0), (540.0, 0.0), (560.0, 0.0)])
    medium.begin_transmission(0, data(0, 1), 96)
    assert not medium.join(1)
    assert medium.join(2)


def test_subscriber_gets_busy_and_idle_edges():
    # 1 counts a SIFS wait from t=45 on its own fire time: it is frozen by
    # the busy edge and called back at the idle edge; 2 joins while the
    # channel is busy and hears only the idle edge
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    sim.schedule(45, lambda: medium.join(1) and medium.register_access(1, None))
    sim.schedule(50, lambda: medium.begin_transmission(0, data(0, 1), 96))
    sim.schedule(60, lambda: medium.join(2))
    sim.run_until(500)

    def edges(sid):
        return [(t, kind) for t, kind, _ in recorders[sid].events if kind in ("busy", "idle")]

    assert edges(1) == [(50, "busy"), (146, "idle")]
    assert edges(2) == [(146, "idle")]
    assert not any(kind == "fire" for _, kind, _ in recorders[1].events)


# -- delivery and corruption ------------------------------------------------

def test_clean_frame_delivered_to_all_in_range():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    medium.register_listener(2)
    frame = data(0, 1)
    tx = medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert tx.corrupted == set()
    assert frames_at(recorders[1]) == [frame]
    assert frames_at(recorders[2]) == [frame]


def test_receiver_beyond_tx_range_not_decodable():
    sim, medium, recorders = make_medium([(0.0, 0.0), (300.0, 0.0)])
    medium.register_listener(1)
    tx = medium.begin_transmission(0, data(0, 1), 96)
    sim.run_until(96)
    assert tx.corrupted == set()   # not corrupted: out of decoding range
    assert frames_at(recorders[1]) == []


def test_overlapping_frames_corrupt_common_receiver():
    sim, medium, recorders = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    tx_a = medium.begin_transmission(0, data(0, 2), 96)
    tx_b = medium.begin_transmission(1, data(1, 2), 96)
    sim.run_until(200)
    assert 2 in tx_a.corrupted
    assert 2 in tx_b.corrupted
    assert frames_at(recorders[2]) == []


def test_one_microsecond_overlap_still_corrupts():
    sim, medium, recorders = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    tx_a = medium.begin_transmission(0, data(0, 2), 96)
    holder = {}
    sim.schedule(95, lambda: holder.update(
        tx_b=medium.begin_transmission(1, data(1, 2), 96)))
    sim.run_until(300)
    assert 2 in tx_a.corrupted
    assert 2 in holder["tx_b"].corrupted
    assert frames_at(recorders[2]) == []


def test_back_to_back_frames_do_not_corrupt():
    sim, medium, recorders = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    frame_a, frame_b = data(0, 2), data(1, 2)
    tx_a = medium.begin_transmission(0, frame_a, 96)
    holder = {}
    sim.schedule(96, lambda: holder.update(
        tx_b=medium.begin_transmission(1, frame_b, 96)))
    sim.run_until(300)
    assert 2 not in tx_a.corrupted
    assert 2 not in holder["tx_b"].corrupted
    assert frames_at(recorders[2]) == [frame_a, frame_b]


def test_half_duplex_receiver_transmitting_is_corrupted():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    tx_a = medium.begin_transmission(0, data(0, 1), 96)
    medium.begin_transmission(1, MacFrame(ACK, 1, 0), 19)
    sim.run_until(200)
    assert 1 in tx_a.corrupted
    assert frames_at(recorders[1]) == []


def test_hidden_transmitter_does_not_corrupt_far_receiver():
    # 0 -> 1 at 100 m; station 2 is 600 m from receiver 1: no interference
    sim, medium, recorders = make_medium(
        [(0.0, 0.0), (100.0, 0.0), (700.0, 0.0), (800.0, 0.0)])
    frame = data(0, 1)
    tx_a = medium.begin_transmission(0, frame, 96)
    medium.begin_transmission(2, data(2, 3), 96)
    sim.run_until(200)
    assert 1 not in tx_a.corrupted
    assert frames_at(recorders[1]) == [frame]


def test_source_does_not_receive_own_frame():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    medium.register_listener(0)
    medium.begin_transmission(0, data(0, 1), 96)
    sim.run_until(100)
    medium.begin_transmission(0, data(0, 0), 96)   # addressed to itself
    sim.run_until(200)
    assert frames_at(recorders[0]) == []
    assert [t for t, kind, _ in recorders[0].events if kind == "tx_complete"] == [96, 196]


def test_duplicate_transmission_rejected():
    _, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)])
    medium.begin_transmission(0, data(0, 1), 96)
    with pytest.raises(MediumError):
        medium.begin_transmission(0, data(0, 1), 96)


def test_addressed_frame_dispatched_to_receiver_mac():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    delivered = [f for _, kind, f in recorders[1].events if kind == "frame"]
    assert delivered == [frame]
    # non-listeners do not get overheard frames
    assert not any(kind == "frame" for _, kind, _ in recorders[2].events)


def test_listener_overhears_data_frames():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    medium.register_listener(2)
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert [f for _, kind, f in recorders[2].events if kind == "frame"] == [frame]


# -- idle gap metric --------------------------------------------------------

def test_idle_gap_measured_from_last_busy_end():
    metrics = Metrics()
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)], metrics)
    sim.schedule(1900, lambda: medium.begin_transmission(0, MacFrame(ACK, 0, 1), 10))
    sim.schedule(2000, lambda: medium.begin_transmission(0, MacFrame(ACK, 0, 1), 10))
    sim.run_until(3000)
    assert metrics.idle_gaps == [1900, 90]


def test_busy_time_accumulates_union_of_intervals():
    metrics = Metrics()
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)], metrics)
    # overlapping 0..96 and 50..146: one busy interval of 146 us
    medium.begin_transmission(0, data(0, 2), 96)
    sim.schedule(50, lambda: medium.begin_transmission(1, data(1, 2), 96))
    sim.run_until(1000)
    assert metrics.busy_time == 146
