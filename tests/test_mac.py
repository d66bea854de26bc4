"""DCF station behavior: queueing, backoff bookkeeping, retries, ACK timing."""

import pytest

from tokendcf import (DATA, ACK, MacFrame, MacParams, TrafficSpec, frame_airtime,
                      substream)
from tokendcf.traffic import make_source
from tokendcf.mac import ACCEPTED, DROPPED, IDLE, WAITING, AWAIT_ACK

from conftest import Network, Recorder


def single_flow(**kwargs):
    return Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1)], **kwargs)


# -- stations with a known backoff ------------------------------------------
#
# The tests below drive the real bookkeeping: a station draws a known
# backoff, a noise burst from station 4 freezes it, and the instant of its
# first transmission shows the slots it had left.

class Draws:
    """Backoff stream stub: hands out the given slot counts in order."""

    def __init__(self, *slots):
        self.slots = list(slots)

    def randint(self, lo, hi):
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


def first_tx(net, sid):
    return next(t for t, kind, src, *_ in net.trace if kind == "tx" and src == sid)


# -- queueing ---------------------------------------------------------------

def test_queue_accepts_up_to_capacity_then_drops():
    net = single_flow()
    st = net.stations[0]
    for _ in range(50):
        assert st.enqueue_packet() == ACCEPTED
    assert st.enqueue_packet() == DROPPED
    assert len(st.queue) == 50
    assert st.dropped_full == 1
    assert net.metrics.drops == 1


def test_first_enqueue_on_idle_medium_starts_contention():
    net = single_flow(trace=True)
    st = net.stations[0]
    st.rng = Draws(3)
    assert st.phase == IDLE
    st.enqueue_packet()
    assert st.phase == WAITING
    assert st.registered
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
    sched = net.stations[0].scheduler
    sched.p = 1.0                  # always grant, to 1's advertised queue
    sched.active.add(1)
    sched.q_len_map[1] = 50
    st0 = join_at(net, 0, 0, 0)
    st1 = join_at(net, 1, 0, 20, 99)
    net.run(2000)
    data_end = 28 + st0.data_airtime
    ack_end = data_end + 10 + st1.ack_airtime
    sent = [(t, src, fkind) for t, kind, src, fkind, *_ in net.trace if kind == "tx"]
    assert sent[:3] == [(28, 0, DATA), (data_end + 10, 1, ACK), (ack_end + 10, 1, DATA)]
    assert st1.sifs_plan
    assert st1.rng.slots == [99]


# -- contention window ladder -----------------------------------------------

def test_cw_doubles_on_timeout_up_to_max():
    net = single_flow()
    st = net.stations[0]
    st.queue.append(0)
    expected = [32, 64, 128, 256, 512, 1024, 1024]
    seen = []
    for _ in expected:
        st.phase = AWAIT_ACK
        st.retries = 0   # stay under the drop limit; ladder only
        st._ack_timeout()
        seen.append(st.cw)
    assert seen == expected


def test_retry_limit_drops_frame_and_resets_cw():
    net = single_flow()
    st = net.stations[0]
    st.queue.append(0)
    for _ in range(8):   # 8th consecutive failure exceeds retry limit 7
        st.phase = AWAIT_ACK
        st._ack_timeout()
    assert st.dropped_retry == 1
    assert len(st.queue) == 0
    assert st.cw == 16
    assert st.retries == 0
    assert net.metrics.tx_failures == 8


def test_ack_resets_cw_to_min(clique_pair):
    st = clique_pair.stations[0]
    st.cw = 1024
    st.retries = 3
    st.queue.append(0)
    st.phase = AWAIT_ACK
    st._ack_timer = clique_pair.sim.schedule(100, lambda: None)
    st._ack_received()
    assert st.cw == 16
    assert st.retries == 0
    assert st.delivered == 1


# -- end-to-end exchange timing ---------------------------------------------

def test_ack_starts_exactly_sifs_after_data_end():
    net = single_flow(trace=True)
    net.saturate().run(20_000)
    trace = net.trace
    data_ends = [(t, src) for t, kind, src, fkind, *_ in trace
                 if kind == "end" and fkind == DATA]
    ack_starts = [(t, src) for t, kind, src, fkind, *_ in trace
                  if kind == "tx" and fkind == ACK]
    assert data_ends and len(ack_starts) == len(data_ends)
    for (t_end, _), (t_ack, ack_src) in zip(data_ends, ack_starts):
        assert t_ack == t_end + 10
        assert ack_src == 1


def test_saturated_single_sender_delivers_and_conserves():
    net = single_flow()
    net.saturate().run(100_000)
    st = net.stations[0]
    assert st.delivered > 0
    assert st.enqueued == st.delivered + st.dropped_full + st.dropped_retry + len(st.queue)
    assert net.metrics.delivered_bits == st.delivered * 8 * 500
    assert net.metrics.tx_failures == 0   # no contender, no losses


def test_access_delay_recorded_per_delivered_packet():
    net = single_flow()
    net.saturate().run(50_000)
    assert len(net.metrics.access_delays) == net.stations[0].delivered
    assert all(d > 0 for d in net.metrics.access_delays)


def test_sink_sends_no_ack_for_foreign_destination():
    # 0 -> 1; station 2 also decodes the frame but must stay silent
    net = Network([(0.0, 0.0), (100.0, 0.0), (50.0, 50.0)], [(0, 1)], trace=True)
    net.medium.register_listener(2, net.stations[2].on_frame)
    net.saturate().run(5_000)
    ack_srcs = {src for _, kind, src, fkind, *_ in net.trace
                if kind == "tx" and fkind == ACK}
    assert ack_srcs == {1}


# -- stations that both send and receive ------------------------------------

def check_bidirectional(net):
    """Each station's packets are conserved, and an idle station has none queued."""
    for st in net.stations:
        assert st.enqueued == st.delivered + st.dropped_full + st.dropped_retry + len(st.queue)
        assert st.phase != IDLE or not st.queue, (st.sid, len(st.queue))
    assert sum(st.delivered for st in net.stations) == len(net.metrics.access_delays)


@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
def test_bidirectional_flows_keep_their_dcf_state(protocol):
    # 0 -> 1 and 1 -> 0: each station's ACKs interleave with its own data
    traffic = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=2e7)
    for seed in range(5):
        net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1), (1, 0)],
                      protocol=protocol, seed=seed)
        for st in net.stations:
            make_source(st, traffic, substream(seed, st.sid, "traffic")).start()
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
    net = single_flow()
    mac = MacParams()
    timeout = net.phy.sifs + frame_airtime(mac.ack_header_bytes, 0, net.phy) + mac.ack_timeout_guard
    # SIFS + ack airtime fits inside the timeout window with guard to spare
    assert timeout > net.phy.sifs + 19
    assert timeout == 49
