"""Neighbour tables, carrier sensing, delivery and collision outcomes."""

import inspect
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendcf import (ACK, DATA, ConfigError, MacFrame, Medium, Metrics,
                      PhyParams, ScenarioConfig, Simulator, Station, derive_seed,
                      generate_topology)
from tokendcf.medium import MediumError, neighbor_tables

from conftest import Recorder, finished_frames


def make_medium(positions, metrics=None):
    sim = Simulator()
    medium = Medium(sim, positions, metrics or Metrics(), trace=[])
    recorders = [Recorder(i, sim) for i in range(len(positions))]
    medium.bind(recorders)
    return sim, medium, recorders


def data(src, dst, payload=500):
    return MacFrame(DATA, src, dst, payload_bytes=payload)


def frames_at(recorder):
    """Frames the medium delivered (decoded) at a recorder station."""
    return [f for _, kind, f in recorder.events if kind == "frame"]


def ends(medium):
    """src -> (delivered, corrupted) of the trace's "end" records, one frame per source."""
    return {src: (delivered, corrupted)
            for src, _start, _end, _kind, corrupted, delivered in finished_frames(medium.trace)}


def corrupted(medium):
    """src -> the receivers the trace's "end" record lists as corrupted."""
    return {src: spoiled for src, (_delivered, spoiled) in ends(medium).items()}


# -- geometry ---------------------------------------------------------------

def test_link_geometry_boundary_inclusive_at_250():
    tx_nb, cs_mask = neighbor_tables([(0.0, 0.0), (250.0, 0.0)], 250.0, 550.0)
    assert tx_nb == [[1], [0]]
    assert cs_mask == [0b11, 0b11]


def test_link_geometry_between_ranges():
    tx_nb, cs_mask = neighbor_tables([(0.0, 0.0), (400.0, 0.0)], 250.0, 550.0)
    assert tx_nb == [[], []]
    assert cs_mask == [0b11, 0b11]


def test_link_geometry_beyond_both_ranges():
    tx_nb, cs_mask = neighbor_tables([(0.0, 0.0), (600.0, 0.0)], 250.0, 550.0)
    assert tx_nb == [[], []]
    assert cs_mask == [0b01, 0b10]


def test_topology_rejects_tx_range_above_cs_range():
    # a topology's radii come from PhyParams, which checks them once
    with pytest.raises(ConfigError):
        PhyParams(tx_range=600.0, cs_range=550.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 1000)),
                min_size=2, max_size=6))
def test_link_geometry_symmetric(positions):
    tx_nb, cs_mask = neighbor_tables(positions, 250.0, 550.0)
    n = len(positions)
    for a, (xa, ya) in enumerate(positions):
        assert tx_nb[a] == sorted(tx_nb[a])
        assert cs_mask[a] >> a & 1 and a not in tx_nb[a]
        assert 0 <= cs_mask[a] < 1 << n      # no bit beyond the last station
        for b, (xb, yb) in enumerate(positions):
            if a == b:
                continue
            d = math.hypot(xa - xb, ya - yb)
            assert (b in tx_nb[a]) == (a in tx_nb[b]) == (d <= 250.0)
            assert (cs_mask[a] >> b & 1) == (cs_mask[b] >> a & 1) == (d <= 550.0)


def all_pairs_tables(positions, tx_range, cs_range):
    """The reference: every unordered pair's distance, computed once."""
    n = len(positions)
    bits = [1 << a for a in range(n)]
    tx_nb = [[] for _ in range(n)]
    cs_mask = bits[:]
    for a, (xa, ya) in enumerate(positions):
        nb_a = tx_nb[a]
        bit_a = bits[a]
        cs_a = cs_mask[a]     # already holds the ids below a
        for b in range(a + 1, n):
            xb, yb = positions[b]
            d = math.hypot(xa - xb, ya - yb)
            if d <= cs_range:
                cs_a |= bits[b]
                cs_mask[b] |= bit_a
                if d <= tx_range:
                    nb_a.append(b)
                    tx_nb[b].append(a)
        cs_mask[a] = cs_a
    return tx_nb, cs_mask


@st.composite
def layouts(draw):
    side = draw(st.floats(100.0, 3000.0))
    coordinate = st.floats(0.0, side)
    return draw(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=60))


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_neighbor_tables_equal_all_pairs(positions):
    assert neighbor_tables(positions, 250.0, 550.0) == all_pairs_tables(positions, 250.0, 550.0)


# 10 m lattice points: 3-4-5 and 33-44-55 triangles and straight runs put
# station pairs at exactly 250 and 550 m, and repeated points put several
# stations at one spot
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                min_size=2, max_size=60))
def test_neighbor_tables_equal_all_pairs_on_a_lattice(points):
    positions = [(10.0 * i, 10.0 * j) for i, j in points]
    assert neighbor_tables(positions, 250.0, 550.0) == all_pairs_tables(positions, 250.0, 550.0)


def test_neighbor_tables_equal_all_pairs_at_the_ranges():
    # each station sits at exactly 250 or 550 m from others, or on another
    positions = [(0.0, 0.0), (250.0, 0.0), (150.0, 200.0), (550.0, 0.0), (330.0, 440.0),
                 (0.0, 550.0), (0.0, 0.0), (250.0, 0.0), (-250.0, 0.0), (-330.0, -440.0)]
    tables = neighbor_tables(positions, 250.0, 550.0)
    assert tables == all_pairs_tables(positions, 250.0, 550.0)
    assert tables[0][0] == [1, 2, 6, 7, 8]


# the transmitter count and area of each benchmark workload, over its runs
@pytest.mark.parametrize("n_tx, area_side, runs", [(20, 150.0, 2), (100, 150.0, 2),
                                                   (100, 1500.0, 8)])
@pytest.mark.parametrize("seed", [1, 7919])
def test_neighbor_tables_equal_all_pairs_on_workload_layouts(n_tx, area_side, runs, seed):
    config = ScenarioConfig(n_transmitters=n_tx, area_side=area_side)
    for run in range(runs):
        positions, _flows = generate_topology(config, derive_seed(seed, run))
        assert (neighbor_tables(positions, 250.0, 550.0)
                == all_pairs_tables(positions, 250.0, 550.0))


# the corners of a box whose diagonal is 250 m, scaled: a clique just inside
# tx range, one on the boundary, one just outside, one in cs range only
@pytest.mark.parametrize("scale", [1 - 1e-6, 1.0, 1 + 1e-6, 2.0])
def test_neighbor_tables_equal_all_pairs_near_the_box_boundary(scale):
    positions = [(0.0, 0.0), (150.0 * scale, 200.0 * scale), (150.0 * scale, 0.0),
                 (0.0, 200.0 * scale), (75.0 * scale, 100.0 * scale)]
    tables = neighbor_tables(positions, 250.0, 550.0)
    assert tables == all_pairs_tables(positions, 250.0, 550.0)
    assert tables[1] == [0b11111] * 5
    assert (tables[0][0] == [1, 2, 3, 4]) == (scale <= 1.0)


def test_neighbor_tables_of_one_station_and_none():
    assert neighbor_tables([(5.0, 5.0)], 250.0, 550.0) == ([[]], [0b1])
    assert neighbor_tables([], 250.0, 550.0) == ([], [])


@pytest.mark.parametrize("area_side, limit", [(150.0, 0), (1500.0, 19_900)])
def test_neighbor_tables_compute_few_distances(monkeypatch, area_side, limit):
    # 200 stations have 19 900 pairs.  A clique within tx range is settled
    # from its bounding box; a sparse field computes each pair's distance once.
    config = ScenarioConfig(n_transmitters=100, area_side=area_side)
    positions, _flows = generate_topology(config, derive_seed(1, 0))
    calls = 0
    hypot = math.hypot

    def counting_hypot(*coordinates):
        nonlocal calls
        calls += 1
        return hypot(*coordinates)

    monkeypatch.setattr(math, "hypot", counting_hypot)
    tx_nb, _cs_mask = neighbor_tables(positions, 250.0, 550.0)
    monkeypatch.undo()
    assert len(tx_nb) == 200
    assert calls <= limit


@pytest.mark.parametrize("area_side, limit_kb", [(150.0, 1000), (1500.0, 400)])
def test_medium_geometry_allocates_little(area_side, limit_kb):
    # 200 stations: a clique, where every carrier-sense set holds all of
    # them, and a sparse field.  The bounds hold carrier sensing to bit
    # masks: per-station sets of ids take about 1990 and 790 KB here.
    config = ScenarioConfig(n_transmitters=100, area_side=area_side)
    positions, _flows = generate_topology(config, derive_seed(1, 0))
    sim, metrics = Simulator(), Metrics()
    tracemalloc.start()
    try:
        medium = Medium(sim, positions, metrics)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(medium.tx_nb) == 200
    assert allocated < limit_kb * 1024


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
    # the busy edge at t=50 freezes every count in the group, silently; the
    # idle edge at t=146 hands back the slots left.  3 counts 40 slots in
    # the heap from t=0 and resumes there without a call.  4 starts 10
    # slots mid-idle at t=5 on its own fire time and has counted
    # (50 - 5 - 28) // 9 = 1.  1 counts a SIFS wait from t=45 and 2 joins
    # while the channel is busy: both keep their plan (None).
    positions = [(0.0, 0.0), (100.0, 0.0), (50.0, 50.0), (0.0, 50.0), (100.0, 50.0)]
    sim, medium, recorders = make_medium(positions)
    sim.schedule(0, lambda: medium.join(3) and medium.register_access(3, 40))
    sim.schedule(5, lambda: medium.join(4) and medium.register_access(4, 10))
    sim.schedule(45, lambda: medium.join(1) and medium.register_access(1, None))
    sim.schedule(50, lambda: medium.begin_transmission(0, data(0, 1), 96))
    sim.schedule(60, lambda: medium.join(2))
    sim.run_until(500)

    def idle_edges(sid):
        return [(t, slots) for t, kind, slots in recorders[sid].events if kind == "idle"]

    assert idle_edges(4) == [(146, 9)]
    assert idle_edges(1) == [(146, None)]
    assert idle_edges(2) == [(146, None)]
    assert idle_edges(3) == []
    # 3 fires at 146 + 28 + (40 - 2) * 9 = 516, after the horizon
    assert not any(kind == "fire" for rec in recorders for _, kind, _ in rec.events)


def test_withdrawal_needs_a_frozen_access():
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    medium.begin_transmission(0, data(0, 1), 96)
    medium.subscribe(1)
    with pytest.raises(MediumError):
        medium.withdraw_access(1)


MEDIUM_CALLBACKS = ("fire_access", "on_channel_idle", "on_frame", "on_tx_complete")


def test_recorder_stub_has_the_station_callbacks():
    # the stub stands in for Station wherever the medium calls back, so it
    # has exactly Station's callbacks, with the same parameters
    assert {name for name in vars(Recorder) if not name.startswith("_")} == set(MEDIUM_CALLBACKS)
    for name in MEDIUM_CALLBACKS:
        assert inspect.signature(getattr(Recorder, name)) == \
            inspect.signature(getattr(Station, name)), name


# -- delivery and corruption ------------------------------------------------

def test_clean_frame_delivered_to_all_in_range():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    medium.register_listener(2, recorders[2].on_frame)
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert corrupted(medium)[0] == ()
    assert frames_at(recorders[1]) == [frame]
    assert frames_at(recorders[2]) == [frame]


def test_receiver_beyond_tx_range_not_decodable():
    sim, medium, recorders = make_medium([(0.0, 0.0), (300.0, 0.0)])
    medium.register_listener(1, recorders[1].on_frame)
    medium.begin_transmission(0, data(0, 1), 96)
    sim.run_until(96)
    assert corrupted(medium)[0] == ()   # not corrupted: out of decoding range
    assert frames_at(recorders[1]) == []


def test_overlapping_frames_corrupt_common_receiver():
    sim, medium, recorders = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    medium.begin_transmission(0, data(0, 2), 96)
    medium.begin_transmission(1, data(1, 2), 96)
    sim.run_until(200)
    assert 2 in corrupted(medium)[0]
    assert 2 in corrupted(medium)[1]
    assert frames_at(recorders[2]) == []


def test_one_microsecond_overlap_still_corrupts():
    sim, medium, recorders = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    medium.begin_transmission(0, data(0, 2), 96)
    sim.schedule(95, lambda: medium.begin_transmission(1, data(1, 2), 96))
    sim.run_until(300)
    assert 2 in corrupted(medium)[0]
    assert 2 in corrupted(medium)[1]
    assert frames_at(recorders[2]) == []


def test_back_to_back_frames_do_not_corrupt():
    sim, medium, recorders = make_medium([(0.0, 0.0), (200.0, 0.0), (100.0, 10.0)])
    frame_a, frame_b = data(0, 2), data(1, 2)
    medium.begin_transmission(0, frame_a, 96)
    sim.schedule(96, lambda: medium.begin_transmission(1, frame_b, 96))
    sim.run_until(300)
    assert 2 not in corrupted(medium)[0]
    assert 2 not in corrupted(medium)[1]
    assert frames_at(recorders[2]) == [frame_a, frame_b]


def test_half_duplex_receiver_transmitting_is_corrupted():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    medium.begin_transmission(0, data(0, 1), 96)
    medium.begin_transmission(1, MacFrame(ACK, 1, 0), 19)
    sim.run_until(200)
    assert 1 in corrupted(medium)[0]
    assert frames_at(recorders[1]) == []


def test_hidden_transmitter_does_not_corrupt_far_receiver():
    # 0 -> 1 at 100 m; station 2 is 600 m from receiver 1: no interference
    sim, medium, recorders = make_medium(
        [(0.0, 0.0), (100.0, 0.0), (700.0, 0.0), (800.0, 0.0)])
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    medium.begin_transmission(2, data(2, 3), 96)
    sim.run_until(200)
    assert 1 not in corrupted(medium)[0]
    assert frames_at(recorders[1]) == [frame]


def test_third_overlap_spoils_receiver_that_senses_only_it():
    # 0 -> 1 overlaps 2 and then 3.  2 reaches listener 4 (500 m) but not
    # receiver 1 (800 m); 3 reaches 1 (400 m) but not 4 (700 m): both
    # overlaps spoil a receiver of 0, each a different one
    sim, medium, recorders = make_medium(
        [(0.0, 0.0), (100.0, 0.0), (-700.0, 0.0), (500.0, 0.0), (-200.0, 0.0)])
    medium.register_listener(4, recorders[4].on_frame)
    medium.begin_transmission(0, data(0, 1), 96)
    sim.schedule(10, lambda: medium.begin_transmission(2, data(2, 2), 96))
    sim.schedule(20, lambda: medium.begin_transmission(3, data(3, 3), 96))
    sim.run_until(200)
    assert ends(medium)[0] == ((), (1, 4))
    assert frames_at(recorders[1]) == []
    assert frames_at(recorders[4]) == []


def test_overlap_splits_overhearers_by_its_carrier_sense_range():
    # 0 -> 1 with listeners 2 and 3 in range; 4 senses 2 (500 m) but
    # neither 3 (900 m) nor 1 (707 m)
    sim, medium, recorders = make_medium(
        [(0.0, 0.0), (0.0, 100.0), (200.0, 0.0), (-200.0, 0.0), (700.0, 0.0)])
    medium.register_listener(2, recorders[2].on_frame)
    medium.register_listener(3, recorders[3].on_frame)
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.schedule(50, lambda: medium.begin_transmission(4, data(4, 4), 96))
    sim.run_until(200)
    assert ends(medium)[0] == ((1, 3), (2,))
    assert frames_at(recorders[1]) == [frame]
    assert frames_at(recorders[2]) == []
    assert frames_at(recorders[3]) == [frame]


def test_source_does_not_receive_own_frame():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    medium.register_listener(0, recorders[0].on_frame)
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
    medium.register_listener(2, recorders[2].on_frame)
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert [f for _, kind, f in recorders[2].events if kind == "frame"] == [frame]


def test_listener_registers_once():
    _, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    medium.register_listener(1, recorders[1].on_frame)
    with pytest.raises(MediumError):
        medium.register_listener(1, recorders[1].on_frame)


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
