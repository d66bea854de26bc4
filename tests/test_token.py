"""Privilege scheduling: grant selection, overhearing, one-shot flag, Adapt."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendcf import (DATA, ConfigError, MacFrame, Network, ScenarioConfig, Simulation,
                      Simulator, Station, TokenParams, TokenScheduler, derive_seed, experiments,
                      substream)
from tokendcf.token import apply_header, overhear, start_period_clock

from conftest import SchedulerOracle


def make_sched(sid=0, params=None, seed=1):
    """A simulator and a scheduler that the network's period clock resets on it."""
    sim = Simulator()
    params = params or TokenParams()
    sched = TokenScheduler(sid, params, substream(seed, sid, "sched"))
    start_period_clock(sim, [sched], params.period_us)
    return sim, sched


def data(src, dst=99, privileged=None, q_len=0):
    return MacFrame(DATA, src, dst, privileged=privileged, q_len=q_len)


def receive(sched, frame, withdraw=lambda sid: None):
    """Hand ``frame`` to ``sched`` through the DATA hook, as its only listener."""
    overhear([None] * sched.sid + [sched], withdraw, {}, frame, 1 << sched.sid)


def adapt(sched, src):
    """The Adapt step on one frame from ``src`` that names no station."""
    apply_header((sched,), src, None, 0)


# -- grant selection --------------------------------------------------------

def test_no_grant_when_p_zero():
    _, sched = make_sched()
    assert sched.p == 0.0
    assert all(sched.select_privileged(10) is None for _ in range(50))


def test_singleton_table_grants_self():
    _, sched = make_sched(sid=4)
    sched.p = 1.0
    assert sched.select_privileged(7) == 4


def test_lqf_argmax_with_lowest_id_tie_break():
    _, sched = make_sched(sid=1)
    sched.p = 1.0
    sched.heard = {1: 0, 2: 9, 3: 9}
    assert sched.select_privileged(5) == 2   # 9 ties at 2 and 3; lowest id wins


def test_sources_heard_before_a_reset_are_not_granted():
    sim, sched = make_sched(sid=1)
    receive(sched, data(5, q_len=100))
    receive(sched, data(3, q_len=2))
    sched.p = 1.0
    assert sched.select_privileged(0) == 5
    sim.run_until(TokenParams().period_us)   # the period clock resets the table
    receive(sched, data(3, q_len=2))
    sched.p = 1.0
    assert sched.heard == {1: 0, 3: 2}
    assert sched.select_privileged(0) == 3   # 5's longer queue is a period old


def test_tied_queues_grant_the_lowest_id_whatever_the_table_order():
    _, sched = make_sched(sid=6)
    for src in (8, 7, 5, 3):
        receive(sched, data(src, q_len=4))
    sched.p = 1.0
    assert list(sched.heard) == [6, 8, 7, 5, 3]
    assert sched.select_privileged(4) == 3   # 4 ties at 6 (own), 8, 7, 5 and 3


def test_unknown_policy_rejected():
    # the grant policy is a scenario setting with one value, lqf
    for policy in ("fifo", "backpressure"):
        with pytest.raises(ConfigError):
            ScenarioConfig(policy=policy)


# -- transmit / receive hooks -----------------------------------------------

def test_transmit_with_p_zero_sets_no_privilege():
    _, sched = make_sched()
    frame = data(0)
    sched.on_transmit_data(frame, 12)
    assert frame.privileged is None
    assert frame.q_len == 12
    assert sched.flag == 0


def test_self_grant_sets_flag():
    _, sched = make_sched(sid=0)
    sched.p = 1.0
    frame = data(0)
    sched.on_transmit_data(frame, 12)
    assert frame.privileged == 0
    assert sched.flag == 1


def test_overheard_grant_to_me_sets_flag():
    _, sched = make_sched(sid=3)
    grants = []
    receive(sched, data(7, privileged=3, q_len=20), grants.append)
    assert sched.flag == 1
    assert grants == [3]
    assert sched.heard == {3: 0, 7: 20}


def test_overheard_grant_to_other_clears_my_flag():
    _, sched = make_sched(sid=3)
    sched.flag = 1
    receive(sched, data(7, privileged=5))
    assert sched.flag == 0


def test_privilege_is_one_shot():
    # the holder's own next DATA header ends the privilege: at p = 0 it names
    # no station, and applying it to the sender clears the flag
    _, sched = make_sched(sid=3)
    sched.flag = 1
    frame = data(3)
    sched.on_transmit_data(frame, 5)
    assert frame.privileged is None
    assert sched.flag == 0


# -- Adapt controller -------------------------------------------------------

def test_adapt_all_known_raises_p_and_resets_counters():
    _, sched = make_sched(sid=0)
    for _ in range(20):
        adapt(sched, 0)   # 0 is always in heard
    assert sched.p == pytest.approx(0.1)
    assert (sched.success, sched.fail) == (0, 0)


def test_adapt_mostly_new_sources_keeps_p_at_zero_but_resets():
    _, sched = make_sched(sid=0)
    for src in range(1, 18):   # 17 unknown stations
        adapt(sched, src)
    for _ in range(3):
        adapt(sched, 0)
    # ratio 3/20 = 0.15 <= 0.2; p already 0 (< delta) stays; counters reset
    assert sched.p == 0.0
    assert (sched.success, sched.fail) == (0, 0)


def test_adapt_middle_band_retains_counters():
    _, sched = make_sched(sid=0)
    for src in range(1, 11):   # 10 unknown
        adapt(sched, src)
    for _ in range(10):        # 10 known
        adapt(sched, 0)
    # ratio 0.5: no p change, counters keep accumulating past maxNum
    assert sched.p == 0.0
    assert sched.success + sched.fail == 20


def test_p_clamped_at_max_p():
    _, sched = make_sched(sid=0)
    for _ in range(20 * 12):   # far more raises than needed to hit the cap
        adapt(sched, 0)
    assert sched.p == pytest.approx(0.9)


def test_p_decreases_and_floors_at_zero():
    _, sched = make_sched(sid=0)
    sched.p = 0.1
    for src in range(1, 21):
        adapt(sched, src)
    assert sched.p == pytest.approx(0.0)
    # further all-new batches keep p at 0
    for src in range(21, 41):
        adapt(sched, src)
    assert sched.p == pytest.approx(0.0)


def test_heard_grows_only_with_decoded_sources():
    _, sched = make_sched(sid=0)
    receive(sched, data(4, q_len=3))
    receive(sched, data(9, q_len=1))
    assert sched.heard == {0: 0, 4: 3, 9: 1}


# -- periodic reset ---------------------------------------------------------

def test_period_reset_restores_initial_state():
    sim, sched = make_sched(sid=2)
    sched.p = 0.7
    sched.heard = {2: 3, 5: 1, 6: 8}
    sched.success = 9
    sched.fail = 4
    sim.run_until(100_000)
    assert sched.p == 0.0
    assert sched.heard == {2: 0}
    assert (sched.success, sched.fail) == (0, 0)


def test_reset_reschedules_every_period():
    sim, sched = make_sched(sid=2)
    sim.run_until(100_000)
    sched.p = 0.5
    sim.run_until(199_999)
    assert sched.p == 0.5       # untouched between resets
    sim.run_until(200_000)
    assert sched.p == 0.0       # second reset at exactly 2 * period


def _own_reset(sim, sched, period_us):
    def reset():
        sched._period_reset()
        sim.schedule(period_us, reset)
    sim.schedule(period_us, reset)


def per_scheduler_resets(sim, schedulers, period_us):
    """The rule the period clock replaced: each scheduler's own self-rescheduling reset."""
    for sched in schedulers:
        _own_reset(sim, sched, period_us)


def token_trace(n, area_side, period_us):
    config = ScenarioConfig(protocol="token_dcf", n_transmitters=n, area_side=area_side,
                            duration_s=0.25, runs=1, token=TokenParams(period_us=period_us))
    trace = []
    Simulation(config, derive_seed(1, 0), trace=trace).run()
    return trace


@pytest.mark.parametrize("period_us", [1_000, 20_000, 100_000])
@pytest.mark.parametrize("n, area_side", [(5, 150.0), (20, 150.0), (60, 150.0), (20, 800.0)])
def test_period_clock_traces_equal_per_scheduler_resets(monkeypatch, n, area_side, period_us):
    # the resets held one contiguous run of seqs at each period instant, so
    # one event in that run's place keeps the order of every other event
    clocked = token_trace(n, area_side, period_us)
    monkeypatch.setattr(experiments, "start_period_clock", per_scheduler_resets)
    assert token_trace(n, area_side, period_us) == clocked
    assert len(clocked) > 500


@pytest.mark.parametrize("protocol, n, clocks", [("token_dcf", 20, 1), ("token_dcf", 200, 1),
                                                 ("dcf", 20, 0)])
def test_network_schedules_one_reset_event(monkeypatch, protocol, n, clocks):
    scheduled = []
    schedule = Simulator.schedule
    monkeypatch.setattr(Simulator, "schedule",
                        lambda sim, delay, cb: (scheduled.append(delay), schedule(sim, delay, cb)))
    positions = [(float(i % 15), float(i // 15)) for i in range(2 * n)]
    net = Network(positions, [(i, n + i) for i in range(n)],
                  ScenarioConfig(protocol=protocol), run_seed=1)
    assert scheduled == [TokenParams().period_us] * clocks
    net.close()


@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
def test_reused_data_frame_carries_its_own_header(monkeypatch, protocol):
    # each source sends every DATA frame on one reused object, so the header
    # a frame ends with must be the one written at its own transmission
    written, ended, read = {}, {}, []
    on_transmit_data = TokenScheduler.on_transmit_data

    def write(sched, frame, own_queue_len):
        on_transmit_data(sched, frame, own_queue_len)
        written.setdefault(frame.src, []).append((frame, frame.privileged, frame.q_len))

    def end(st, delivered):
        frame = st._data
        ended.setdefault(frame.src, []).append((frame, frame.privileged, frame.q_len))
        on_tx_complete(st, delivered)

    on_tx_complete = Station.on_tx_complete
    monkeypatch.setattr(TokenScheduler, "on_transmit_data", write)
    monkeypatch.setattr(Station, "on_tx_complete", end)
    n = 5
    net = Network([(float(10 * i), 0.0) for i in range(2 * n)],
                  [(i, n + i) for i in range(n)], ScenarioConfig(protocol=protocol), run_seed=1)
    if protocol == "token_dcf":
        hook = net.medium.on_data
        assert hook is not None

        def on_data(frame, listened):
            assert listened >> n == 0   # only the flow sources 0..n-1 listen
            read.append((frame.privileged, frame.q_len))
            assert written[frame.src][-1] == (frame, frame.privileged, frame.q_len)
            hook(frame, listened)

        net.medium.on_data = on_data
    else:
        assert net.medium.on_data is None   # a DCF network has no DATA hook
    for st in net.stations[:n]:
        st.enqueue_packet(50)   # no refill, so q_len falls frame by frame
    net.run(100_000)
    if protocol == "dcf":
        assert net.medium.on_data is None   # nor did its run install one
    net.close()
    assert sorted(ended) == list(range(n))
    for frames in ended.values():
        assert len(frames) >= 50
        assert len({id(frame) for frame, _privileged, _q_len in frames}) == 1
    if protocol == "dcf":
        assert written == {} and read == []
        assert all(privileged is None for frames in ended.values() for _, privileged, _ in frames)
    else:
        assert ended == written   # every frame ended by the horizon
        assert len(read) >= n * 50 and len(set(read)) > 20
        assert any(privileged is not None for privileged, _q_len in read)


# -- the one-pass step against a per-station oracle -------------------------

IDS = st.integers(min_value=0, max_value=7)   # schedulers and other senders, often known
STEPS = st.one_of(
    st.tuples(st.just("header"), IDS, st.none() | IDS, st.integers(0, 50),
              st.integers(min_value=0, max_value=(1 << 12) - 1)),
    st.tuples(st.just("transmit"), IDS, st.integers(0, 50)),
    st.tuples(st.just("reset"), IDS),
)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=12), max_num=st.sampled_from([1, 2, 4, 5, 10, 20]),
       steps=st.lists(STEPS, max_size=120))
def test_one_pass_step_matches_per_station_oracle(n, max_num, steps):
    params = TokenParams(max_num=max_num)
    scheds = [TokenScheduler(sid, params, substream(1, sid, "sched")) for sid in range(n)]
    oracles = [SchedulerOracle(sid, params) for sid in range(n)]
    grants, expected = [], []
    hook_cache = {}
    for step in steps:
        kind, sid = step[0], step[1] % n
        if kind == "header":
            _, src, privileged, q_len, mask = step
            listened = mask & ((1 << n) - 1) & ~(1 << src)   # a sender never hears itself
            if listened:
                overhear(scheds, grants.append, hook_cache,
                         data(src, privileged=privileged, q_len=q_len), listened)
            for oracle in oracles:
                if listened >> oracle.sid & 1:
                    oracle.receive(src, privileged, q_len, expected)
        elif kind == "transmit":
            frame = data(sid)
            scheds[sid].on_transmit_data(frame, step[2])
            oracles[sid].transmit(frame.privileged, step[2])
        else:
            scheds[sid]._period_reset()
            oracles[sid].reset()
        assert grants == expected
        for sched, oracle in zip(scheds, oracles):
            assert (sched.p, sched.heard, sched.success, sched.fail, sched.flag) == \
                (oracle.p, oracle.heard, oracle.success, oracle.fail, oracle.flag)
