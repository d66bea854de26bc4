"""Geometry predicates, carrier sensing, delivery and collision outcomes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendcf import (ACK, DATA, MacFrame, MacParams, Medium, Metrics, PhyParams,
                      Simulator, Station, Topology)
from tokendcf.medium import CORRUPTED, DELIVERED, NOT_DECODABLE, MediumError

from conftest import Recorder


def make_medium(positions, metrics=None):
    sim = Simulator()
    topo = Topology(positions)
    medium = Medium(sim, topo, metrics)
    recorders = [Recorder(i, sim) for i in range(len(positions))]
    medium.bind(recorders)
    return sim, medium, recorders


def data(src, dst, payload=500):
    return MacFrame(DATA, src, dst, payload_bytes=payload)


# -- geometry ---------------------------------------------------------------

def test_link_geometry_boundary_inclusive_at_250():
    topo = Topology([(0.0, 0.0), (250.0, 0.0)])
    assert topo.link_geometry(0, 1) == (250.0, True, True)


def test_link_geometry_between_ranges():
    topo = Topology([(0.0, 0.0), (400.0, 0.0)])
    d, in_tx, in_cs = topo.link_geometry(0, 1)
    assert (d, in_tx, in_cs) == (400.0, False, True)


def test_link_geometry_beyond_both_ranges():
    topo = Topology([(0.0, 0.0), (600.0, 0.0)])
    assert topo.link_geometry(0, 1) == (600.0, False, False)


def test_topology_rejects_tx_range_above_cs_range():
    with pytest.raises(MediumError):
        Topology([(0.0, 0.0)], tx_range=600.0, cs_range=550.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 1000)),
                min_size=2, max_size=6))
def test_link_geometry_symmetric(positions):
    topo = Topology(positions)
    for a in range(len(positions)):
        for b in range(len(positions)):
            assert topo.link_geometry(a, b) == topo.link_geometry(b, a)


def test_bind_rejects_station_with_other_phy_timing():
    sim = Simulator()
    medium = Medium(sim, Topology([(0.0, 0.0), (100.0, 0.0)]))
    st = Station(0, sim, medium, PhyParams(slot_time=20), MacParams(), Metrics())
    with pytest.raises(MediumError):
        medium.bind([st])


# -- carrier sensing --------------------------------------------------------

def test_carrier_idle_with_no_transmissions():
    _, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)])
    assert not medium.carrier_busy(1)


def test_carrier_busy_at_540m_not_at_560m():
    sim, medium, _ = make_medium([(0.0, 0.0), (540.0, 0.0), (560.0, 0.0)])
    medium.begin_transmission(0, data(0, 1), 96)
    assert medium.carrier_busy(1)
    assert not medium.carrier_busy(2)


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
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    tx = medium.begin_transmission(0, data(0, 1), 96)
    sim.run_until(96)
    assert medium.reception_outcome(tx, 1) == DELIVERED
    assert medium.reception_outcome(tx, 2) == DELIVERED


def test_receiver_beyond_tx_range_not_decodable():
    sim, medium, _ = make_medium([(0.0, 0.0), (300.0, 0.0)])
    tx = medium.begin_transmission(0, data(0, 1), 96)
    sim.run_until(96)
    assert medium.reception_outcome(tx, 1) == NOT_DECODABLE


def test_overlapping_frames_corrupt_common_receiver():
    sim, medium, _ = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    tx_a = medium.begin_transmission(0, data(0, 2), 96)
    tx_b = medium.begin_transmission(1, data(1, 2), 96)
    sim.run_until(200)
    assert medium.reception_outcome(tx_a, 2) == CORRUPTED
    assert medium.reception_outcome(tx_b, 2) == CORRUPTED


def test_one_microsecond_overlap_still_corrupts():
    sim, medium, _ = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    tx_a = medium.begin_transmission(0, data(0, 2), 96)
    holder = {}
    sim.schedule(95, lambda: holder.update(
        tx_b=medium.begin_transmission(1, data(1, 2), 96)))
    sim.run_until(300)
    assert medium.reception_outcome(tx_a, 2) == CORRUPTED
    assert medium.reception_outcome(holder["tx_b"], 2) == CORRUPTED


def test_back_to_back_frames_do_not_corrupt():
    sim, medium, _ = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    tx_a = medium.begin_transmission(0, data(0, 2), 96)
    holder = {}
    sim.schedule(96, lambda: holder.update(
        tx_b=medium.begin_transmission(1, data(1, 2), 96)))
    sim.run_until(300)
    assert medium.reception_outcome(tx_a, 2) == DELIVERED
    assert medium.reception_outcome(holder["tx_b"], 2) == DELIVERED


def test_half_duplex_receiver_transmitting_is_corrupted():
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)])
    tx_a = medium.begin_transmission(0, data(0, 1), 96)
    medium.begin_transmission(1, MacFrame(ACK, 1, 0), 19)
    sim.run_until(200)
    assert medium.reception_outcome(tx_a, 1) == CORRUPTED


def test_hidden_transmitter_does_not_corrupt_far_receiver():
    # 0 -> 1 at 100 m; station 2 is 600 m from receiver 1: no interference
    sim, medium, _ = make_medium(
        [(0.0, 0.0), (100.0, 0.0), (700.0, 0.0), (800.0, 0.0)])
    tx_a = medium.begin_transmission(0, data(0, 1), 96)
    medium.begin_transmission(2, data(2, 3), 96)
    sim.run_until(200)
    assert medium.reception_outcome(tx_a, 1) == DELIVERED


def test_source_does_not_receive_own_frame():
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)])
    tx = medium.begin_transmission(0, data(0, 1), 96)
    with pytest.raises(MediumError):
        medium.reception_outcome(tx, 0)


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
