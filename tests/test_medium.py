"""Neighbour tables, carrier sensing, delivery and collision outcomes."""

import inspect
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokendcf import (ACK, DATA, ConfigError, MacFrame, Medium, PhyParams,
                      ScenarioConfig, Simulation, Simulator, Station,
                      derive_seed, generate_topology)
from tokendcf.medium import MediumError, members, neighbor_tables

from conftest import Recorder, busy_periods, read_frames


def make_medium(positions):
    sim = Simulator()
    medium = Medium(sim, positions, trace=[])
    recorders = [Recorder(i, sim) for i in range(len(positions))]
    medium.bind(recorders)
    return sim, medium, recorders


def data(src, dst):
    return MacFrame(DATA, src, dst)


def frames_at(recorder):
    """Frames the medium delivered (decoded) at a recorder station."""
    return [f for _, kind, f in recorder.events if kind == "frame"]


def contend(medium, sid, *plans):
    """Script recorder ``sid``'s next ``plans``, then have it contend."""
    medium.stations[sid].plans.extend(plans)
    medium.contend(sid)


def overheard(medium, *listeners):
    """Have ``listeners`` listen and record each DATA hook call: (frame, listener ids)."""
    calls = []
    medium.listen(sum(1 << sid for sid in listeners),
                  lambda frame, listened: calls.append((frame, tuple(members(listened)))))
    return calls


def ends(medium):
    """src -> (delivered, corrupted) ids of each source's last finished frame."""
    return {f.src: (tuple(members(f.delivered)), tuple(members(f.corrupted)))
            for f in read_frames(medium.trace) if f.delivered is not None}


def corrupted(medium):
    """src -> the receivers its last finished frame lists as corrupted."""
    return {src: spoiled for src, (_delivered, spoiled) in ends(medium).items()}


# -- bit masks ---------------------------------------------------------------

@given(st.one_of(st.sets(st.integers(0, 1599)),
                 st.sets(st.integers(1500, 1599), max_size=4)))
@example(set())
@example({1599})
@example(set(range(200)))
@example({0, 1599})
@example({1024, 1599})
def test_members_are_the_set_bits_ascending(bits):
    mask = sum(1 << b for b in bits)
    assert list(members(mask)) == sorted(bits)


# -- geometry ---------------------------------------------------------------

def test_link_geometry_boundary_inclusive_at_250():
    tx_mask, cs_mask = neighbor_tables([(0.0, 0.0), (250.0, 0.0)], 250.0, 550.0)
    assert tx_mask == [0b10, 0b01]
    assert cs_mask == [0b11, 0b11]


def test_link_geometry_between_ranges():
    tx_mask, cs_mask = neighbor_tables([(0.0, 0.0), (400.0, 0.0)], 250.0, 550.0)
    assert tx_mask == [0, 0]
    assert cs_mask == [0b11, 0b11]


def test_link_geometry_beyond_both_ranges():
    tx_mask, cs_mask = neighbor_tables([(0.0, 0.0), (600.0, 0.0)], 250.0, 550.0)
    assert tx_mask == [0, 0]
    assert cs_mask == [0b01, 0b10]


def test_topology_rejects_tx_range_above_cs_range():
    # a topology's radii come from PhyParams, which checks them once
    with pytest.raises(ConfigError):
        PhyParams(tx_range=600.0, cs_range=550.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 1000)),
                min_size=2, max_size=6))
def test_link_geometry_symmetric(positions):
    tx_mask, cs_mask = neighbor_tables(positions, 250.0, 550.0)
    n = len(positions)
    for a, (xa, ya) in enumerate(positions):
        assert cs_mask[a] >> a & 1 and not tx_mask[a] >> a & 1
        # no bit beyond the last station
        assert 0 <= tx_mask[a] < 1 << n and 0 <= cs_mask[a] < 1 << n
        for b, (xb, yb) in enumerate(positions):
            if a == b:
                continue
            d = math.hypot(xa - xb, ya - yb)
            assert (tx_mask[a] >> b & 1) == (tx_mask[b] >> a & 1) == (d <= 250.0)
            assert (cs_mask[a] >> b & 1) == (cs_mask[b] >> a & 1) == (d <= 550.0)


def all_pairs_tables(positions, tx_range, cs_range):
    """The reference: every unordered pair's distance, computed once."""
    n = len(positions)
    tx_mask = [0] * n
    cs_mask = [1 << a for a in range(n)]
    for a, (xa, ya) in enumerate(positions):
        for b in range(a + 1, n):
            xb, yb = positions[b]
            d = math.hypot(xa - xb, ya - yb)
            if d <= cs_range:
                cs_mask[a] |= 1 << b
                cs_mask[b] |= 1 << a
                if d <= tx_range:
                    tx_mask[a] |= 1 << b
                    tx_mask[b] |= 1 << a
    return tx_mask, cs_mask


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
    assert tables[0][0] == 0b111000110


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
    assert (tables[0][0] == 0b11110) == (scale <= 1.0)


def test_neighbor_tables_of_one_station_and_none():
    assert neighbor_tables([(5.0, 5.0)], 250.0, 550.0) == ([0], [0b1])
    assert neighbor_tables([], 250.0, 550.0) == ([], [])


# cases of the x-ordered sweep, each against the all-pairs reference
def test_neighbor_tables_equal_all_pairs_on_one_x():
    # stations that share an x, with the sweep's ties among them, in and out of range
    positions = [(300.0, y) for y in (0.0, 250.0, 250.0, 550.0, 1100.0, 1100.0 + 1e-9)]
    positions += [(0.0, 0.0), (300.0, 0.0), (850.0, 0.0)]
    tables = neighbor_tables(positions, 250.0, 550.0)
    assert tables == all_pairs_tables(positions, 250.0, 550.0)
    assert tables[0][0] == 0b010000110


# (xa, whether each of xa + 550, one ulp above it, two ulps above and one
# below has a computed dx within 550).  For 169.81 and -178.41895486531212
# the rounded xa + 550 falls one ulp below an xb whose computed xb - xa is
# still 550, so a bisect on that bound alone would drop an in-range pair.
@pytest.mark.parametrize("xa, in_cs", [(0.0, 0b1001), (169.81, 0b1011),
                                       (-178.41895486531212, 0b1011)])
def test_neighbor_tables_equal_all_pairs_at_dx_of_cs_range(xa, in_cs):
    above = math.nextafter(xa + 550.0, math.inf)
    xbs = [xa + 550.0, above, math.nextafter(above, math.inf),
           math.nextafter(xa + 550.0, -math.inf)]
    positions = [(xa, 0.0)] + [(xb, 0.0) for xb in xbs] + [(xb, 1e-6) for xb in xbs]
    tables = neighbor_tables(positions, 250.0, 550.0)
    assert tables == all_pairs_tables(positions, 250.0, 550.0)
    assert tables[1][0] & 0b11110 == in_cs << 1


# station pairs a few ulps from a range r, where dx * dx + dy * dy and
# hypot fall on opposite sides of r's square: the band must leave them to hypot
@pytest.mark.parametrize("r, pair", [
    (250.0, [(84.62, 799.94), (276.56172598127756, 960.12231434003)]),     # square in
    (250.0, [(397.42, 73.04), (405.1318022125081, 322.92102790455135)]),   # square out
    (550.0, [(420.02, 145.21), (585.018368395457, 669.8770738924229)]),    # square out
])
def test_neighbor_tables_equal_all_pairs_where_the_square_misleads(r, pair):
    (xa, ya), (xb, yb) = pair
    dx, dy = xb - xa, yb - ya
    assert (dx * dx + dy * dy <= r * r) != (math.hypot(dx, dy) <= r)
    assert neighbor_tables(pair, 250.0, 550.0) == all_pairs_tables(pair, 250.0, 550.0)


# ranges of 2e-162 m, whose squares underflow: the stations 1.549e-162 m
# apart on each axis are 2.19e-162 m apart, although every square in the
# sum rounds to 0.  Alone they fill the bounding box; with a far third
# station the sweep meets them.
@pytest.mark.parametrize("others", [[], [(1.0, 0.0)]])
def test_neighbor_tables_equal_all_pairs_at_underflowing_ranges(others):
    positions = [(0.0, 0.0), (1.549e-162, 1.549e-162)] + others
    tables = neighbor_tables(positions, 2e-162, 2e-162)
    assert tables == all_pairs_tables(positions, 2e-162, 2e-162)
    assert tables[1][:2] == [0b01, 0b10]


def test_neighbor_tables_equal_all_pairs_on_a_large_sparse_field():
    # 1 600 stations in a 4 km square: the sweep scans about a quarter of the pairs
    config = ScenarioConfig(n_transmitters=800, area_side=4000.0)
    positions, _flows = generate_topology(config, derive_seed(1, 0))
    assert neighbor_tables(positions, 250.0, 550.0) == all_pairs_tables(positions, 250.0, 550.0)


@pytest.mark.parametrize("area_side, limit", [(150.0, 0), (1500.0, 0)])
def test_neighbor_tables_compute_few_distances(monkeypatch, area_side, limit):
    # 200 stations have 19 900 pairs.  A clique within tx range is settled
    # from its bounding box.  A sparse field calls hypot only for a pair
    # whose squared distance lies within 1e-9 of a range's square, and no
    # pair of this layout does.
    config = ScenarioConfig(n_transmitters=100, area_side=area_side)
    positions, _flows = generate_topology(config, derive_seed(1, 0))
    calls = 0
    hypot = math.hypot

    def counting_hypot(*coordinates):
        nonlocal calls
        calls += 1
        return hypot(*coordinates)

    monkeypatch.setattr(math, "hypot", counting_hypot)
    tx_mask, _cs_mask = neighbor_tables(positions, 250.0, 550.0)
    monkeypatch.undo()
    assert len(tx_mask) == 200
    assert calls <= limit


@pytest.mark.parametrize("area_side, limit_kb", [(150.0, 100), (1500.0, 400)])
def test_medium_geometry_allocates_little(area_side, limit_kb):
    # 200 stations: a clique, where every neighbour set holds all of them,
    # and a sparse field.  The bounds hold both tables to bit masks (about
    # 37 and 51 KB): per-station sets of ids take about 1990 and 790 KB
    # here, and sorted id lists for the tx neighbours alone 310 KB in the
    # clique.
    config = ScenarioConfig(n_transmitters=100, area_side=area_side)
    positions, _flows = generate_topology(config, derive_seed(1, 0))
    sim = Simulator()
    tracemalloc.start()
    try:
        medium = Medium(sim, positions)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(medium.tx_mask) == 200
    assert allocated < limit_kb * 1024


def _held_after_setup(protocol, n_transmitters):
    """Bytes a built, unstarted 150 m clique ``Simulation`` holds, by tracemalloc."""
    config = ScenarioConfig(protocol=protocol, n_transmitters=n_transmitters, area_side=150.0)
    tracemalloc.start()
    try:
        sim = Simulation(config, derive_seed(1, 0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    sim.close()
    return held


def test_token_setup_holds_the_same_per_sender_at_any_clique_size():
    # the token layer's extra over DCF (a scheduler, its substream and one
    # listener slot per sender) is about 3.6 KB per sender at n = 20 and
    # n = 200; per-source lists of overhearers held 4.2 KB and 6.7 KB
    per_sender = {n: (_held_after_setup("token_dcf", n) - _held_after_setup("dcf", n)) / n
                  for n in (20, 200)}
    assert abs(per_sender[200] - per_sender[20]) <= 0.2 * per_sender[20], per_sender


def test_trace_of_a_dense_clique_stays_small():
    # the golden clique100 case: 100 DCF senders, mostly colliding.  Each
    # "end" record holds its receivers as two ints (about 105 KB of text in
    # all); tuples of the corrupted ids take about 640 KB.
    config = ScenarioConfig(n_transmitters=100, area_side=150.0, duration_s=0.05, seed=1)
    trace = []
    Simulation(config, derive_seed(1, 0), trace=trace).run()
    assert any(rec[1] == "end" and rec[5] for rec in trace)
    assert len(repr(trace)) < 200 * 1024


@pytest.mark.parametrize("records, error", [
    ([(0, "grant", 0)], "unknown trace record kind"),
    ([(0, "tx", 0, DATA, 96, 1), (9, "tx", 0, DATA, 105, 1)], "two frames on the air"),
    ([(0, "tx", 0, DATA, 96, 1), (95, "end", 0, DATA, 2, 0)], "closes no frame"),
    ([(0, "tx", 0, DATA, 96, 1), (96, "end", 0, ACK, 2, 0)], "closes no frame"),
    ([(0, "tx", 0, DATA, 96, 1), (96, "end", 0, DATA, 2, 2)], "masks overlap"),
    ([(0, "tx", 0, DATA, 96, 1), (0, "tx", 1, DATA, 96, 0), (96, "end", 1, DATA, 1, 0),
      (96, "end", 0, DATA, 2, 0)], "out of order"),   # ends follow start order at an instant
])
def test_trace_reader_rejects_a_malformed_trace(records, error):
    with pytest.raises((AssertionError, ValueError), match=error):
        read_frames(records)


# -- carrier sensing --------------------------------------------------------

def test_carrier_idle_with_no_transmissions():
    _, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    contend(medium, 1, 5)   # an idle channel: the station plans its access now
    assert recorders[1].events == [(0, "plan", None)]


def test_carrier_busy_at_540m_not_at_560m():
    sim, medium, recorders = make_medium([(0.0, 0.0), (540.0, 0.0), (560.0, 0.0)])
    medium.begin_transmission(0, data(0, 1), 96)
    contend(medium, 1, 5)   # busy: it plans at the idle edge
    contend(medium, 2, 5)
    assert recorders[1].events == []
    assert recorders[2].events == [(0, "plan", None)]


def test_subscriber_gets_busy_and_idle_edges():
    # the busy edge at t=50 freezes every count in the group, silently; the
    # idle edge at t=146 asks for plans again, with the slots left.  3
    # counts 40 slots in the heap from t=0 and resumes there without a
    # call.  4 starts 10 slots mid-idle at t=5 on its own fire time and has
    # counted (50 - 5 - 28) // 9 = 1.  1 counts a SIFS wait from t=45 and 2
    # contends while the channel is busy: both keep their plan (None) and
    # re-plan from their scripts, 1 a SIFS wait, 2 three slots.
    positions = [(0.0, 0.0), (100.0, 0.0), (50.0, 50.0), (0.0, 50.0), (100.0, 50.0)]
    sim, medium, recorders = make_medium(positions)
    sim.schedule(0, lambda: contend(medium, 3, 40))
    sim.schedule(5, lambda: contend(medium, 4, 10))
    sim.schedule(45, lambda: contend(medium, 1, None, None))
    sim.schedule(50, lambda: medium.begin_transmission(0, data(0, 1), 96))
    sim.schedule(60, lambda: contend(medium, 2, 3))
    sim.run_until(500)

    def plans(sid):
        return [(t, slots) for t, kind, slots in recorders[sid].events if kind == "plan"]

    assert plans(4) == [(5, None), (146, 9)]
    assert plans(1) == [(45, None), (146, None)]
    assert plans(2) == [(146, None)]
    assert plans(3) == [(0, None)]
    # 1 fires a SIFS after the edge, 2 and 4 after DIFS and their slots; 3
    # fires at 146 + 28 + (40 - 2) * 9 = 516, after the horizon
    fired = sorted((t, rec.sid) for rec in recorders for t, kind, _ in rec.events if kind == "fire")
    assert fired == [(146 + 10, 1), (146 + 28 + 3 * 9, 2), (146 + 28 + 9 * 9, 4)]


def fires_in_order(sim, recorders):
    """(time, sid) per ``fire_access`` call on any of ``recorders``, in call order."""
    fired = []
    for rec in recorders:
        rec.fire_access = lambda sid=rec.sid: fired.append((sim.now, sid))
    return fired


def test_due_stations_of_two_groups_fire_in_ascending_id():
    # 1 counts 2 slots in its group's heap from t=0; 0, in another group,
    # starts a solo SIFS wait that ends at the same instant.  1's group is
    # indexed first, yet 0 fires first.
    sim, medium, recorders = make_medium([(0.0, 0.0), (2000.0, 0.0)])
    phy = medium.phy
    due = phy.difs + 2 * phy.slot_time
    fired = fires_in_order(sim, recorders)
    sim.schedule(0, lambda: contend(medium, 1, 2))
    sim.schedule(due - phy.sifs, lambda: contend(medium, 0, None))
    sim.run_until(1000)
    assert fired == [(due, 0), (due, 1)]


def test_lone_due_station_fires():
    sim, medium, recorders = make_medium([(0.0, 0.0)])
    fired = fires_in_order(sim, recorders)
    sim.schedule(3, lambda: contend(medium, 0, 5))
    sim.run_until(1000)
    assert fired == [(3 + medium.phy.difs + 5 * medium.phy.slot_time, 0)]


def test_stale_wake_fires_nobody_and_rearms_at_the_next_fire_time():
    # 0 counts 2 slots from t=0, due at 46; 2, out of everyone's range,
    # counts 10, due at 118.  1's frame from t=30 to 230 freezes 0's group:
    # the wake stays at 46, finds nobody due there and moves to 118.  0
    # resumes at 230 with its 2 slots and fires at 230 + 28 + 18 = 276.
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (2000.0, 0.0)])
    assert (medium.phy.difs, medium.phy.slot_time) == (28, 9)
    fired = fires_in_order(sim, recorders)
    wakes = []
    wake = medium._wake
    medium._wake = lambda: (wakes.append(sim.now), wake())
    sim.schedule(0, lambda: contend(medium, 0, 2))
    sim.schedule(0, lambda: contend(medium, 2, 10))
    sim.schedule(30, lambda: medium.begin_transmission(1, data(1, 0), 200))
    sim.run_until(46)
    assert (wakes, fired, medium._wake_at) == ([46], [], 118)
    sim.run_until(1000)
    assert wakes == [46, 118, 276]
    assert fired == [(118, 2), (276, 0)]


def test_withdrawal_without_a_heap_entry_is_a_no_op():
    # 0's frame from t=50 freezes the group.  4 counts 40 slots in the heap
    # from t=0; 3 starts 10 slots mid-idle at t=5, a solo count frozen with
    # 9 left; 1 contends while the channel is busy; 2 never contends.
    positions = [(0.0, 0.0), (100.0, 0.0), (50.0, 50.0), (0.0, 50.0), (100.0, 50.0)]
    sim, medium, _ = make_medium(positions)
    sim.schedule(0, lambda: contend(medium, 4, 40))
    sim.schedule(5, lambda: contend(medium, 3, 10))
    sim.schedule(50, lambda: medium.begin_transmission(0, data(0, 1), 96))
    sim.schedule(60, lambda: contend(medium, 1))
    sim.run_until(70)
    group = medium._group_of[1]
    assert medium._group_of[2] is None
    heap, frozen = list(group.heap), list(group.frozen)
    assert frozen == [(3, 9), (1, None)]
    for sid in (2, 1, 3):
        medium.withdraw_access(sid)
        assert (group.heap, group.frozen) == (heap, frozen), sid
    # the heap member's backoff moves to the idle edge with its slots left,
    # 40 - (50 - 28) // 9 = 38
    medium.withdraw_access(4)
    assert (group.heap, group.frozen) == ([], frozen + [(4, 38)])


def test_withdrawal_while_the_backoff_counts_is_refused():
    sim, medium, _ = make_medium([(0.0, 0.0)])
    sim.schedule(0, lambda: contend(medium, 0, 5))
    sim.run_until(10)
    with pytest.raises(MediumError, match="while its backoff counts"):
        medium.withdraw_access(0)


def test_zero_airtime_refused():
    _sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)])
    with pytest.raises(MediumError, match="airtime"):
        medium.begin_transmission(0, data(0, 1), 0)
    assert 0 not in medium._active


# what the medium calls on a station: ``on_tx_complete`` for its own DATA
# frames, ``ack_lost`` when the ACK it awaits will not arrive
STATION_CALLBACKS = ("ack_lost", "fire_access", "on_frame", "on_tx_complete", "plan")


def test_recorder_stub_has_the_station_callbacks():
    # the stub stands in for Station wherever the medium calls back, so it
    # has exactly Station's callbacks, with the same parameters
    assert {name for name in vars(Recorder) if not name.startswith("_")} == set(STATION_CALLBACKS)
    for name in STATION_CALLBACKS:
        assert inspect.signature(getattr(Recorder, name)) == \
            inspect.signature(getattr(Station, name)), name


# -- delivery and corruption ------------------------------------------------

def test_clean_frame_delivered_to_all_in_range():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    calls = overheard(medium, 2)
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert corrupted(medium)[0] == ()
    assert frames_at(recorders[1]) == [frame]
    assert calls == [(frame, (2,))]
    assert frames_at(recorders[2]) == []   # overheard: not handed to on_frame


def test_receiver_beyond_tx_range_not_decodable():
    sim, medium, recorders = make_medium([(0.0, 0.0), (300.0, 0.0)])
    calls = overheard(medium, 1)
    medium.begin_transmission(0, data(0, 1), 96)
    sim.run_until(96)
    assert corrupted(medium)[0] == ()   # not corrupted: out of decoding range
    assert frames_at(recorders[1]) == []
    assert calls == []


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
    calls = overheard(medium, 4)
    medium.begin_transmission(0, data(0, 1), 96)
    sim.schedule(10, lambda: medium.begin_transmission(2, data(2, 2), 96))
    sim.schedule(20, lambda: medium.begin_transmission(3, data(3, 3), 96))
    sim.run_until(200)
    assert ends(medium)[0] == ((), (1, 4))
    assert frames_at(recorders[1]) == []
    assert calls == []


def test_overlap_splits_overhearers_by_its_carrier_sense_range():
    # 0 -> 1 with listeners 2 and 3 in range; 4 senses 2 (500 m) but
    # neither 3 (900 m) nor 1 (707 m)
    sim, medium, recorders = make_medium(
        [(0.0, 0.0), (0.0, 100.0), (200.0, 0.0), (-200.0, 0.0), (700.0, 0.0)])
    calls = overheard(medium, 2, 3)
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.schedule(50, lambda: medium.begin_transmission(4, data(4, 4), 96))
    sim.run_until(200)
    assert ends(medium)[0] == ((1, 3), (2,))
    assert frames_at(recorders[1]) == [frame]
    assert calls == [(frame, (3,))]


def test_source_does_not_receive_own_frame():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    calls = overheard(medium, 0)
    medium.begin_transmission(0, data(0, 1), 96)
    sim.run_until(100)
    medium.begin_transmission(0, data(0, 0), 96)   # addressed to itself
    sim.run_until(200)
    assert frames_at(recorders[0]) == []
    assert calls == []
    assert [t for t, kind, _ in recorders[0].events if kind == "tx_complete"] == [96, 196]


def test_reused_record_starts_each_frame_clean():
    # 0 -> 1 overlaps 2's frame and is corrupted at 1; 0's next frame goes
    # out alone on the same on-air record and must not inherit that spoil
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
    first, second = data(0, 1), data(0, 1)
    medium.begin_transmission(0, first, 96)
    record = medium._records[0]
    sim.schedule(10, lambda: medium.begin_transmission(2, data(2, 2), 96))
    sim.schedule(200, lambda: medium.begin_transmission(0, second, 96))
    sim.run_until(400)
    assert medium._records[0] is record
    assert frames_at(recorders[1]) == [second]
    sent = [(f.start, tuple(members(f.corrupted)), tuple(members(f.delivered)))
            for f in read_frames(medium.trace) if f.src == 0]
    assert sent == [(0, (1, 2), ()), (200, (), (1,))]


def outcomes(recorder):
    """(time, kind, info) of each ``on_tx_complete`` and ``ack_lost`` a recorder got."""
    return [event for event in recorder.events if event[1] in ("tx_complete", "ack_lost")]


def test_tx_complete_says_whether_the_addressee_decoded_the_frame():
    # 0 -> 1 clean; 0 -> 2 beyond tx range; then 0 -> 1 and 3 -> 1 collide;
    # then 1 ACKs 0 cleanly, and 3's ACK to 0 is spoiled there by 2's frame
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (300.0, 0.0),
                                          (150.0, 0.0)])
    clean, far, spoiled, other = data(0, 1), data(0, 2), data(0, 1), data(3, 1)
    medium.begin_transmission(0, clean, 96)
    sim.schedule(100, lambda: medium.begin_transmission(0, far, 96))
    sim.schedule(300, lambda: medium.begin_transmission(0, spoiled, 96))
    sim.schedule(350, lambda: medium.begin_transmission(3, other, 96))
    ack, lost = MacFrame(ACK, 1, 0), MacFrame(ACK, 3, 0)
    sim.schedule(600, lambda: medium.begin_transmission(1, ack, 19))
    sim.schedule(700, lambda: medium.begin_transmission(3, lost, 19))
    sim.schedule(705, lambda: medium.begin_transmission(2, data(2, 2), 96))
    sim.run_until(900)
    # only DATA sources learn whether their frame was delivered
    assert outcomes(recorders[0]) == [(96, "tx_complete", True), (196, "tx_complete", False),
                                      (396, "tx_complete", False), (719, "ack_lost", None)]
    assert outcomes(recorders[3]) == [(446, "tx_complete", False)]
    assert outcomes(recorders[2]) == [(801, "tx_complete", False)]
    assert outcomes(recorders[1]) == []
    # a delivered ACK reaches only its addressee's on_frame; a spoiled one
    # makes the medium call the addressee's ack_lost as it ends
    assert frames_at(recorders[0]) == [ack]
    assert ack not in frames_at(recorders[2]) + frames_at(recorders[3])


def test_duplicate_transmission_rejected():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0)])
    medium.begin_transmission(0, data(0, 1), 96)
    with pytest.raises(MediumError):
        medium.begin_transmission(0, data(0, 1), 96)
    # an ACK from a source on the air is lost (half-duplex): it does not
    # air, and the medium tells its addressee at once
    pending, records = len(sim._heap), len(medium.trace)
    medium.begin_transmission(0, MacFrame(ACK, 0, 1), 19)
    assert (len(sim._heap), len(medium.trace)) == (pending, records)
    assert recorders[1].events == [(0, "ack_lost", None)]
    assert recorders[0].events == []


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
    calls = overheard(medium, 2)
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert calls == [(frame, (2,))]
    assert frames_at(recorders[2]) == []   # listening adds no on_frame call


def test_listeners_get_one_hook_call_with_their_mask():
    # 0 -> 1 is heard by listeners 2, 3 and 4
    sim, medium, recorders = make_medium(
        [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (-100.0, 0.0), (0.0, -100.0)])
    calls = []
    recorders[1].on_frame = lambda frame: calls.append(("on_frame", frame))
    medium.listen(0b11100, lambda frame, listened: calls.append(
        ("on_data", frame, tuple(members(listened)))))
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert calls == [("on_frame", frame), ("on_data", frame, (2, 3, 4))]


def test_addressed_listener_gets_on_frame_then_one_hook_call():
    # 0 -> 1, where the addressed 1 listens too, beside listener 2
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    calls = []
    recorders[1].on_frame = lambda frame: calls.append(("on_frame", 1, frame))
    medium.listen(0b110, lambda frame, listened: calls.append(
        ("on_data", tuple(members(listened)), frame)))
    frame = data(0, 1)
    medium.begin_transmission(0, frame, 96)
    sim.run_until(96)
    assert calls == [("on_frame", 1, frame), ("on_data", (1, 2), frame)]
    assert ends(medium)[0] == ((1, 2), ())


def test_ack_reaches_no_listener():
    sim, medium, recorders = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    calls = overheard(medium, 0, 2)
    ack = MacFrame(ACK, 1, 0)
    medium.begin_transmission(1, ack, 19)
    sim.run_until(19)
    assert calls == []
    assert frames_at(recorders[0]) == [ack]
    assert ends(medium)[1] == ((0,), ())


# -- idle gap metric --------------------------------------------------------

def test_idle_gap_measured_from_last_busy_end():
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0)])
    sim.schedule(1900, lambda: medium.begin_transmission(0, MacFrame(ACK, 0, 1), 10))
    sim.schedule(2000, lambda: medium.begin_transmission(0, MacFrame(ACK, 0, 1), 10))
    sim.run_until(3000)
    assert (medium.idle_us, medium.idle_count) == (1990, 2)
    assert [p.idle_before for p in busy_periods(read_frames(medium.trace))] == [1900, 90]


def test_busy_time_accumulates_union_of_intervals():
    sim, medium, _ = make_medium([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)])
    # overlapping 0..96 and 50..146: one busy interval of 146 us
    medium.begin_transmission(0, data(0, 2), 96)
    sim.schedule(50, lambda: medium.begin_transmission(1, data(1, 2), 96))
    sim.run_until(1000)
    assert medium.busy_us == 146
    assert [(p.start, p.end, p.last.src) for p in busy_periods(read_frames(medium.trace))] == \
        [(0, 146, 1)]
