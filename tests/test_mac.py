"""DCF station behavior: queueing, backoff bookkeeping, retries, ACK timing."""

import bisect
import collections
import contextlib
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokendcf import (DATA, ACK, MacFrame, MacParams, ScenarioConfig, Simulation,
                      Station, TrafficSpec, derive_seed, frame_airtime)
from tokendcf.traffic import FullBufferSource, make_source
from tokendcf.mac import ACCEPTED, AWAIT_ACK, DROPPED, IDLE, WAITING

from conftest import Network, Recorder, read_frames


def single_flow(**kwargs):
    return Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1)], **kwargs)


def failures(net):
    """ACK timeouts over all the network's stations."""
    return sum(st.failures for st in net.stations)


# -- stations with a known backoff ------------------------------------------
#
# The tests below drive the real bookkeeping: a station draws a known
# backoff, a noise burst from station 4 freezes it, and the instant of its
# first transmission shows the slots it had left.

class Draws:
    """Backoff stream stub: hands out the given slot counts in order and
    records the upper bound (the contention window) of each draw."""

    def __init__(self, *slots):
        self.slots = list(slots)
        self.bounds = []

    def randint(self, lo, hi):
        self.bounds.append(hi)
        return self.slots.pop(0)


def contenders(protocol="dcf"):
    """0 -> 1 and 2 -> 3 in one clique; station 4 only makes noise."""
    positions = [(0.0, 0.0), (100.0, 0.0), (0.0, 50.0), (100.0, 50.0), (50.0, 25.0)]
    net = Network(positions, [(0, 1), (2, 3)], protocol=protocol, trace=True)
    net.medium.bind([Recorder(4, net.sim)])
    return net


def join_at(net, sid, t, *slots):
    st = net.stations[sid]
    st.rng = Draws(*slots)
    net.sim.schedule(t, st.enqueue_packet)
    return st


def noise_at(net, t, airtime, privileged=None):
    """A data frame from station 4 to itself: busy channel, no ACK."""
    frame = MacFrame(DATA, 4, 4, payload_bytes=1, privileged=privileged, q_len=1)
    net.sim.schedule(t, lambda: net.medium.begin_transmission(4, frame, airtime))


def always_grant(net, sid, to):
    """Seed ``sid``'s scheduler to grant ``to``: p = 1, and ``to`` heard with a 50-frame queue."""
    sched = net.stations[sid].scheduler
    sched.p = 1.0
    sched.heard[to] = 50


def first_tx(net, sid):
    return next(f.start for f in read_frames(net.trace) if f.src == sid)


# -- queueing ---------------------------------------------------------------

def test_queue_accepts_up_to_capacity_then_drops():
    net = single_flow()
    st = net.stations[0]
    for _ in range(50):
        assert st.enqueue_packet() == ACCEPTED
    assert st.enqueue_packet() == DROPPED
    assert len(st.queue) == 50
    assert st.dropped_full == 1


@pytest.mark.parametrize("before, count, queued, dropped", [
    (0, 30, 30, 0),     # empty queue, room for all
    (0, 60, 50, 10),    # empty queue, more than it holds
    (45, 10, 5, 5),     # part-full queue
    (50, 3, 0, 3),      # full queue
    (0, 0, 0, 0),       # nothing arrives
    (0, -3, 0, 0),      # a negative count: rejected before any counter moves
    (45, -3, 0, 0),
])
def test_enqueue_of_many_queues_the_room_and_drops_the_rest(monkeypatch, before, count,
                                                            queued, dropped):
    net = single_flow()
    st = net.stations[0]
    st.rng = Draws(3)
    planned = []
    plan = Station.plan
    monkeypatch.setattr(Station, "plan",
                        lambda st, slots: (planned.append(st.sid), plan(st, slots))[1])
    if before:
        assert st.enqueue_packet(before) == ACCEPTED
    if count < 0:
        with pytest.raises(ValueError):
            st.enqueue_packet(count)
        count = 0
    else:
        assert st.enqueue_packet(count) == (ACCEPTED if queued else DROPPED)
    assert st.enqueued == before + count
    assert len(st.queue) == before + queued
    assert st.dropped_full == dropped
    # contention starts once, on the first packet queued
    started = before + queued > 0
    assert st.rng.bounds == ([MacParams().cw_min] if started else [])
    assert planned == ([0] if started else [])
    assert st.phase == (WAITING if started else IDLE)


def test_full_buffer_start_equals_single_enqueues():
    filled, single = single_flow(trace=True), single_flow(trace=True)
    FullBufferSource(filled.stations[0]).start()
    FullBufferSource(single.stations[0])   # refills as ``filled`` does, once running
    for _ in range(50):
        single.stations[0].enqueue_packet()
    a, b = filled.stations[0], single.stations[0]
    assert list(a.queue) == list(b.queue)
    for name in ("enqueued", "dropped_full", "phase", "pending_slots"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.rng.getstate() == b.rng.getstate()
    assert a.dropped_full == 0
    filled.run(5000)
    single.run(5000)
    assert filled.trace == single.trace


def test_first_enqueue_on_idle_medium_starts_contention():
    net = single_flow(trace=True)
    st = net.stations[0]
    st.rng = Draws(3)
    assert st.phase == IDLE
    st.enqueue_packet()
    assert st.phase == WAITING
    assert st.pending_slots == 3   # the medium asked for its plan at once
    net.run(1000)
    assert first_tx(net, 0) == 28 + 3 * 9


# -- backoff freeze/resume arithmetic ---------------------------------------
#
# "heap" runs count in the carrier-sense group's heap (station 0 joins an
# empty one); "solo" runs count on their own fire time (station 2 has
# waited in the same group since t=0).

def both_modes():
    """A fresh network per mode; in "solo" station 2 waits from t=0."""
    for mode in ("heap", "solo"):
        net = contenders()
        if mode == "solo":
            join_at(net, 2, 0, 1000)
        yield net


def test_freeze_preserves_remaining_slots():
    for net in both_modes():
        st = join_at(net, 0, 1000, 5, 99)
        # busy edge arrives mid-count: DIFS + 2 full slots + 3 us elapsed
        busy_at = 1000 + 28 + 2 * 9 + 3
        noise_at(net, busy_at, 100)
        net.run(3000)
        assert first_tx(net, 0) == busy_at + 100 + 28 + 3 * 9
        assert st.rng.slots == [99]


def test_busy_before_difs_elapses_consumes_nothing():
    for net in both_modes():
        join_at(net, 0, 1000, 5)
        noise_at(net, 1010, 100)   # only 10 us of idle, less than DIFS
        net.run(3000)
        assert first_tx(net, 0) == 1010 + 100 + 28 + 5 * 9


def test_slots_never_go_negative():
    for net in both_modes():
        # the burst starts at the very instant the count runs out, ahead of
        # the access: the station resumes with zero slots, a bare DIFS
        # after the idle edge
        busy_at = 1000 + 28 + 2 * 9
        noise_at(net, busy_at, 100)
        join_at(net, 0, 1000, 2)
        net.run(3000)
        assert first_tx(net, 0) == busy_at + 100 + 28


def test_resume_uses_remaining_slots_not_fresh_draw():
    for net in both_modes():
        st = join_at(net, 0, 5000, 4, 30)
        noise_at(net, 5010, 100)
        net.run(8000)
        assert first_tx(net, 0) == 5010 + 100 + 28 + 4 * 9
        assert st.rng.slots == [30]


def test_mid_idle_joiner_counts_its_own_idle_time():
    net = contenders()
    join_at(net, 2, 0, 30)       # counts from t=0: fires at 298 if undisturbed
    join_at(net, 0, 100, 10)     # counts from t=100: fires at 218 if undisturbed
    noise_at(net, 150, 50)
    net.run(3000)
    # 0 counted (150 - 100 - 28) // 9 = 2 slots before the burst, not the
    # group's (150 - 28) // 9 = 13, and resumes with 8 at the idle edge
    assert first_tx(net, 0) == 200 + 28 + 8 * 9


def test_heap_head_and_solo_backoff_due_together_collide():
    # one wake serves both kinds of waiter in a group: 2 heads the heap
    # (t=0, 10 slots: 28 + 10 * 9 = 118) and 0 joins mid-idle on its own
    # fire time (t=9, 9 slots: 9 + 28 + 9 * 9 = 118)
    net = contenders()
    join_at(net, 2, 0, 10)
    join_at(net, 0, 9, 9)
    net.run(200)   # before the ACK timeout, which would draw again
    assert first_tx(net, 2) == 118
    assert first_tx(net, 0) == 118


@pytest.mark.parametrize("cleared", [False, True])
def test_grant_to_frozen_heap_backoff(cleared):
    # an overheard frame naming 0 arrives while its 20-slot backoff is
    # frozen.  heap: 0 counted from t=0, (100 - 28) // 9 = 8 slots, 12 left.
    # solo: 2 waits from t=0, so 0 counts from t=50 on its own fire time,
    # (100 - 50 - 28) // 9 = 2 slots, 18 left; the grant finds no heap entry
    for mode, joined, left in (("heap", 0, 12), ("solo", 50, 18)):
        net = contenders(protocol="token_dcf")
        if mode == "solo":
            join_at(net, 2, 0, 1000)
        st = join_at(net, 0, joined, 20, 99)
        noise_at(net, 100, 50, privileged=0)
        if cleared:
            # the SIFS wait is cut short, and the next frame names nobody
            noise_at(net, 155, 50)
            net.run(3000)
            assert first_tx(net, 0) == 205 + 28 + left * 9, mode
            assert st.rng.slots == [99]
        else:
            net.run(3000)
            assert first_tx(net, 0) == 150 + 10, mode
            assert st.sifs_plan


def test_addressed_grant_to_frozen_backoff():
    # 0 <-> 1: 0's frame to 1 names 1 while 1's 20-slot backoff, joined at
    # t=0, is frozen.  1 ACKs it a SIFS after it ends, and its next access
    # is a bare SIFS wait after that ACK, not the 20 slots
    net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1), (1, 0)],
                  protocol="token_dcf", trace=True)
    always_grant(net, 0, 1)
    st0 = join_at(net, 0, 0, 0)
    st1 = join_at(net, 1, 0, 20, 99)
    net.run(2000)
    data_end = 28 + st0.data_airtime
    ack_end = data_end + 10 + st1.ack_airtime
    sent = [(f.start, f.src, f.kind) for f in read_frames(net.trace)]
    assert sent[:3] == [(28, 0, DATA), (data_end + 10, 1, ACK), (ack_end + 10, 1, DATA)]
    assert st1.sifs_plan
    assert st1.rng.slots == [99]


# -- contention window ladder -----------------------------------------------

def unanswered():
    """One packet from 0 to 1, out of 0's tx range: every attempt times out."""
    net = Network([(0.0, 0.0), (300.0, 0.0)], [(0, 1)])
    st = join_at(net, 0, 0, *[0] * 8)
    net.run(100_000)
    return net, st


def test_cw_doubles_on_timeout_up_to_max():
    _net, st = unanswered()
    assert st.rng.bounds == [16, 32, 64, 128, 256, 512, 1024, 1024]


def test_retry_limit_drops_frame_and_resets_cw():
    net, st = unanswered()   # the 8th consecutive failure exceeds retry limit 7
    assert failures(net) == 8
    assert sum(s.attempts for s in net.stations) == 8
    assert st.dropped_retry == 1
    assert len(st.queue) == 0
    assert st.cw == 16
    assert st.retries == 0
    assert st.phase == IDLE


def test_ack_resets_cw_to_min():
    # noise from 4 spoils 0's first frame at 1; the retry, drawn from a
    # doubled window, is ACKed
    net = contenders()
    st = join_at(net, 0, 0, 0, 0)
    noise_at(net, 30, 50)
    net.run(3000)
    assert st.rng.bounds == [16, 32]
    assert failures(net) == 1
    assert st.delivered == 1
    assert st.cw == 16
    assert st.retries == 0


def test_delivered_ack_queues_no_timeout_for_any_guard():
    # every ACK of a lone flow arrives, so no timeout is ever scheduled and the
    # guard, which only sets when a scheduled one would fire, changes nothing
    def trace(guard):
        net = single_flow(mac=MacParams(ack_timeout_guard=guard), trace=True)
        net.saturate().run(20_000)
        assert failures(net) == 0
        return net.trace

    reference = trace(20)
    for guard in range(1, 394, 7):
        assert trace(guard) == reference, f"guard {guard}"


# -- every lost ACK times out, and only a lost one ---------------------------
#
# A timeout is scheduled on three paths: the DATA frame missed its
# addressee, the addressee was transmitting when its ACK was due, or the ACK
# missed the station awaiting it.  Each path leaves the sender waiting
# forever if it is missed, so per station every DATA attempt ends in an ACK
# or a timeout, bar one exchange still open at the horizon.  The path is
# known at the DATA frame's end, SIFS later or when the ACK ends, and on
# each the timeout fires ``ack_timeout_us`` after the DATA frame's end.

@contextlib.contextmanager
def counted_timeouts():
    """sid -> the instants of its ACK timeouts fired, while the block runs."""
    fired = collections.defaultdict(list)
    original = Station._ack_timeout

    def counted(self):
        fired[self.sid].append(self.sim.now)
        original(self)

    Station._ack_timeout = counted
    try:
        yield fired
    finally:
        Station._ack_timeout = original


def check_ack_accounting(net, horizon, fired):
    """Each ACK timeout of a traced network run to ``horizon`` acts, and at its due instant."""
    assert sum(map(len, fired.values())) == failures(net)
    frames = read_frames(net.medium.trace)
    for st in net.stations:
        # the ends of its DATA frames, the last perhaps still on the air
        ends = [f.end for f in frames if f.src == st.sid and f.kind == DATA]
        for at in fired[st.sid]:
            # due ack_timeout_us after the end of its latest DATA frame
            assert at == ends[bisect.bisect_left(ends, at) - 1] + st.ack_timeout_us, (st.sid, at)
        still_open = len(ends) - st.delivered - len(fired[st.sid])
        assert still_open in (0, 1), st.sid
        if still_open:
            # neither its ACK nor its timeout was due by the horizon
            assert ends[-1] + st.ack_timeout_us > horizon, st.sid


def half_duplex_loss(guard):
    """0 <-> 1 (token); 0's DATA grants 1, and 1's SIFS access beats its own ACK.

    Station 2, far off, has a backoff due the instant 1's ACK is, so the
    wake-up alarm is already set for that instant, ahead of the ACK's event:
    1 transmits its DATA first, and the half-duplex guard stops the ACK.
    """
    net = Network([(0.0, 0.0), (100.0, 0.0), (2000.0, 0.0), (2100.0, 0.0)],
                  [(0, 1), (1, 0), (2, 3)], protocol="token_dcf",
                  mac=MacParams(ack_timeout_guard=guard), trace=True)
    always_grant(net, 0, 1)
    st0 = join_at(net, 0, 0, 0, 0)
    join_at(net, 1, 0, 20, 99)
    data_end = 28 + st0.data_airtime
    join_at(net, 2, data_end + 10 - 28, 0, 0)
    return net


@settings(max_examples=30, deadline=None)
@given(layout=st.sampled_from(["clique", "spatial", "wide", "half_duplex"]),
       protocol=st.sampled_from(["dcf", "token_dcf"]),
       kind=st.sampled_from(["full_buffer", "pareto_on_off"]),
       guard=st.sampled_from([1, 20, 57, 393]),
       seed=st.integers(0, 2**32 - 1))
@example(layout="half_duplex", protocol="token_dcf", kind="full_buffer", guard=20, seed=0)
# hidden terminals that spoil an ACK at its addressee
@example(layout="spatial", protocol="token_dcf", kind="pareto_on_off", guard=20, seed=2)
@example(layout="spatial", protocol="dcf", kind="pareto_on_off", guard=20, seed=0)
@example(layout="wide", protocol="dcf", kind="full_buffer", guard=1, seed=1)
def test_every_lost_ack_times_out_and_no_other(layout, protocol, kind, guard, seed):
    # clique: 150 m; spatial: 800 m, hidden terminals; wide: 1500 m, where
    # the flows of transmitters near the east edge never deliver
    with counted_timeouts() as fired:
        if layout == "half_duplex":
            horizon = 3_000
            net = half_duplex_loss(guard)
            net.run(horizon)
        else:
            traffic = TrafficSpec(kind=kind, packet_size=1500, rate_bps=2e6)
            config = ScenarioConfig(
                protocol=protocol, n_transmitters=30, duration_s=0.03,
                area_side={"clique": 150.0, "spatial": 800.0, "wide": 1500.0}[layout],
                mac=MacParams(ack_timeout_guard=guard), traffic=traffic)
            horizon = config.horizon_us
            net = Simulation(config, derive_seed(seed, 0), trace=[])
            net.run()
    check_ack_accounting(net, horizon, fired)


@pytest.mark.parametrize("guard", [1, 20, 393])
def test_half_duplex_guard_queues_the_senders_timeout(guard):
    # 1's ACK for 0's first frame never airs; 0 times out and sends again
    net = half_duplex_loss(guard)
    net.run(3_000)
    st0 = net.stations[0]
    data_end = 28 + st0.data_airtime
    sent = [(f.start, f.src, f.kind) for f in read_frames(net.trace)]
    assert sent[:3] == [(28, 0, DATA), (data_end + 10, 1, DATA), (data_end + 10, 2, DATA)]
    assert (data_end + 10, 1, ACK) not in sent
    assert failures(net) == 1
    assert st0.rng.bounds == [16, 32]     # the retry draws from a doubled window
    assert st0.delivered == 1


# -- end-to-end exchange timing ---------------------------------------------

def test_ack_starts_exactly_sifs_after_data_end():
    net = single_flow(trace=True)
    net.saturate().run(20_000)
    frames = read_frames(net.trace)
    data_ends = [f.end for f in frames if f.kind == DATA and f.delivered is not None]
    acks = [f for f in frames if f.kind == ACK]
    assert data_ends and len(acks) == len(data_ends)
    for t_end, ack in zip(data_ends, acks):
        assert ack.start == t_end + 10
        assert ack.src == 1


def test_saturated_single_sender_delivers_and_conserves():
    net = single_flow()
    report = net.saturate().run(100_000)
    st = net.stations[0]
    assert st.delivered > 0
    assert st.enqueued == st.delivered + st.dropped_full + st.dropped_retry + len(st.queue)
    assert report.throughput_bps == st.delivered * 8 * 500 / 100_000 * 1e6
    assert failures(net) == 0   # no contender, no losses


def test_access_delay_recorded_per_delivered_packet():
    net = single_flow()
    net.saturate().run(50_000)
    st = net.stations[0]
    # each ACKed packet waited at least its own exchange: DATA, SIFS, ACK
    assert st.delivered > 0
    assert st.delay_sum >= st.delivered * (st.data_airtime + st.phy.sifs + st.ack_airtime)


def test_sink_sends_no_ack_for_foreign_destination():
    # 0 -> 1; station 2 also decodes the frame but must stay silent
    net = Network([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)], [(0, 1)], trace=True)
    net.saturate().run(5_000)
    frames = read_frames(net.trace)
    # 2 is in range of 0 and nothing overlaps: it decodes every 0 -> 1 frame
    assert net.medium.tx_mask[0] >> 2 & 1
    assert not any(f.corrupted for f in frames)
    assert {f.src for f in frames if f.kind == ACK} == {1}


# -- what the medium and the MAC's own transitions guarantee a station -------
#
# ``on_frame`` compares no frame's destination with the station: the medium
# hands it addressed frames only.  Nor does it check that an ACK is awaited:
# an ACK is sent only for a decoded DATA frame, and the timeout is scheduled
# only once the ACK is known lost.  ``fire_access`` checks no queue: a station
# starts contending only with a packet queued, and its queue shrinks only at
# its ACK or its ACK timeout, both of which come while it awaits an ACK.  Nor
# does it clear the token flag: the sender's own DATA header sets the flag to
# whether it names the sender, and nothing else in the access writes it.

PARETO = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e6)
TWO_WAY = [(0.0, 0.0), (100.0, 0.0), (0.0, 150.0), (100.0, 150.0)]


def generated(protocol, seed, **kw):
    """Run the first run of a generated scenario of ``kw`` under ``protocol``."""
    config = ScenarioConfig(protocol=protocol, seed=seed, **kw)
    return Simulation(config, derive_seed(seed, 0)).run()


CONTRACT_RUNS = {
    f"clique20-{protocol}-s{seed}": partial(
        generated, protocol, seed, n_transmitters=20, area_side=150.0, duration_s=0.05)
    for protocol in ("dcf", "token_dcf") for seed in (1, 7919)
} | {
    # retry-limit drops empty some queues here
    f"pareto800-{protocol}-s{seed}": partial(
        generated, protocol, seed, n_transmitters=30, area_side=800.0, duration_s=0.2,
        traffic=PARETO)
    for protocol in ("dcf", "token_dcf") for seed in (1, 2)
} | {
    "two-way-token": lambda: Network(TWO_WAY, [(0, 1), (1, 0), (2, 3), (3, 2)],
                                     protocol="token_dcf").saturate().run(50_000),
}


@pytest.mark.parametrize("name", CONTRACT_RUNS)
def test_on_frame_takes_addressed_frames_and_access_fires_with_a_packet(monkeypatch, name):
    on_frame, fire_access, ack_timeout, plan = (Station.on_frame, Station.fire_access,
                                                Station._ack_timeout, Station.plan)
    calls = collections.Counter()

    def addressed(st, frame):
        assert frame.dst == st.sid, (st.sid, frame)
        if frame.kind == ACK:
            assert st.phase == AWAIT_ACK, st.sid
            calls["ack"] += 1
        on_frame(st, frame)

    def with_a_packet(st):
        assert st.queue, st.sid
        calls["fire_access"] += 1
        fire_access(st)
        # checked once the DATA frame is on the air: a flag reset anywhere
        # after the sender's own header shows here
        if st.scheduler is not None:
            granted = st._data.privileged == st.sid
            assert st.scheduler.flag == granted, st.sid
            calls["self_grant"] += granted

    def planned(st, slots):
        # asked only while the station waits with a packet, off the air;
        # a SIFS wait exactly while its scheduler's flag is set
        assert st.phase == WAITING and st.queue, st.sid
        assert not st.medium.is_transmitting(st.sid), st.sid
        result = plan(st, slots)
        sifs = st.scheduler is not None and st.scheduler.flag
        assert (result is None) == sifs, st.sid
        calls["sifs plan" if sifs else "backoff plan"] += 1
        return result

    def timed_out(st):
        dropped = st.dropped_retry
        ack_timeout(st)
        if st.dropped_retry > dropped and not st.queue:
            calls["drop_emptied_queue"] += 1

    monkeypatch.setattr(Station, "on_frame", addressed)
    monkeypatch.setattr(Station, "fire_access", with_a_packet)
    monkeypatch.setattr(Station, "_ack_timeout", timed_out)
    monkeypatch.setattr(Station, "plan", planned)
    CONTRACT_RUNS[name]()
    assert calls["ack"] > 0 and calls["fire_access"] > 0 and calls["backoff plan"] > 0
    if "token" in name:
        assert calls["self_grant"] > 0 and calls["sifs plan"] > 0
    else:
        assert calls["sifs plan"] == 0
    if name.startswith("pareto800"):
        assert calls["drop_emptied_queue"] > 0


# -- stations that both send and receive ------------------------------------

def check_bidirectional(net):
    """Each station's packets are conserved, an idle station has none queued, its
    ACKs count as none of its DATA attempts, and each ACKed packet adds at least
    its own exchange to its delay sum."""
    for st in net.stations:
        assert st.enqueued == st.delivered + st.dropped_full + st.dropped_retry + len(st.queue)
        assert st.phase != IDLE or not st.queue, (st.sid, len(st.queue))
        assert 0 <= st.attempts - st.delivered - st.failures <= 1, st.sid
        exchange = st.data_airtime + st.phy.sifs + st.ack_airtime
        assert st.delay_sum >= st.delivered * exchange, st.sid


@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
def test_bidirectional_flows_keep_their_dcf_state(protocol):
    # 0 -> 1 and 1 -> 0: each station's ACKs interleave with its own data
    traffic = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=2e7)
    for seed in range(5):
        net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1), (1, 0)],
                      protocol=protocol, seed=seed)
        for st in net.stations:
            make_source(st, traffic, seed).start()
        net.run(1_000_000)
        check_bidirectional(net)
        assert all(st.delivered > 0 for st in net.stations)
    net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1), (1, 0)], protocol=protocol)
    net.saturate().run(200_000)
    check_bidirectional(net)


def test_token_data_header_four_bytes_larger():
    plain = single_flow()
    token = single_flow(protocol="token_dcf")
    assert token.stations[0].data_header_bytes == plain.stations[0].data_header_bytes + 4


def test_ack_timeout_covers_legitimate_ack():
    phy = single_flow().config.phy
    mac = MacParams()
    timeout = phy.sifs + frame_airtime(mac.ack_header_bytes, 0, phy) + mac.ack_timeout_guard
    # SIFS + ack airtime fits inside the timeout window with guard to spare
    assert timeout > phy.sifs + 19
    assert timeout == 49
