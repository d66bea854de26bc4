"""Privilege scheduling: grant selection, overhearing, one-shot flag, Adapt."""

import pytest

from tokendcf import (DATA, ConfigError, MacFrame, ScenarioConfig, Simulator,
                      TokenParams, TokenScheduler, substream)


def make_sched(sid=0, params=None, seed=1):
    sim = Simulator()
    sched = TokenScheduler(sid, sim, params or TokenParams(),
                           substream(seed, sid, "sched"))
    return sim, sched


def data(src, dst=99, privileged=None, q_len=0):
    return MacFrame(DATA, src, dst, payload_bytes=500,
                    privileged=privileged, q_len=q_len)


# -- grant selection --------------------------------------------------------

def test_no_grant_when_p_zero():
    _, sched = make_sched()
    assert sched.p == 0.0
    assert all(sched.select_privileged(10) is None for _ in range(50))


def test_singleton_active_grants_self():
    _, sched = make_sched(sid=4)
    sched.p = 1.0
    assert sched.select_privileged(7) == 4


def test_lqf_argmax_with_lowest_id_tie_break():
    _, sched = make_sched(sid=1)
    sched.p = 1.0
    sched.active = {1, 2, 3}
    sched.q_len_map = {2: 9, 3: 9}
    assert sched.select_privileged(5) == 2   # 9 ties at 2 and 3; lowest id wins


def test_unknown_policy_rejected():
    # the grant policy is a scenario setting: lqf, or backpressure, which
    # picks as lqf does while every link runs at one bit rate
    with pytest.raises(ConfigError):
        ScenarioConfig(policy="fifo")


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
    sched.on_receive_data(data(7, privileged=3, q_len=20))
    assert sched.flag == 1
    assert sched.q_len_map[7] == 20
    assert 7 in sched.active


def test_overheard_grant_to_other_clears_my_flag():
    _, sched = make_sched(sid=3)
    sched.flag = 1
    sched.on_receive_data(data(7, privileged=5))
    assert sched.flag == 0


def test_privilege_is_one_shot():
    _, sched = make_sched(sid=3)
    sched.flag = 1
    sched.on_timer_expired()
    assert sched.flag == 0


# -- Adapt controller -------------------------------------------------------

def test_adapt_all_known_raises_p_and_resets_counters():
    _, sched = make_sched(sid=0)
    for _ in range(20):
        sched.adapt(0)   # 0 is always in active
    assert sched.p == pytest.approx(0.1)
    assert (sched.success, sched.fail) == (0, 0)


def test_adapt_mostly_new_sources_keeps_p_at_zero_but_resets():
    _, sched = make_sched(sid=0)
    for src in range(1, 18):   # 17 unknown stations
        sched.adapt(src)
    for _ in range(3):
        sched.adapt(0)
    # ratio 3/20 = 0.15 <= 0.2; p already 0 (< delta) stays; counters reset
    assert sched.p == 0.0
    assert (sched.success, sched.fail) == (0, 0)


def test_adapt_middle_band_retains_counters():
    _, sched = make_sched(sid=0)
    for src in range(1, 11):   # 10 unknown
        sched.adapt(src)
    for _ in range(10):        # 10 known
        sched.adapt(0)
    # ratio 0.5: no p change, counters keep accumulating past maxNum
    assert sched.p == 0.0
    assert sched.success + sched.fail == 20


def test_p_clamped_at_max_p():
    _, sched = make_sched(sid=0)
    for _ in range(20 * 12):   # far more raises than needed to hit the cap
        sched.adapt(0)
    assert sched.p == pytest.approx(0.9)


def test_p_decreases_and_floors_at_zero():
    _, sched = make_sched(sid=0)
    sched.p = 0.1
    for src in range(1, 21):
        sched.adapt(src)
    assert sched.p == pytest.approx(0.0)
    # further all-new batches keep p at 0
    for src in range(21, 41):
        sched.adapt(src)
    assert sched.p == pytest.approx(0.0)


def test_active_grows_only_with_decoded_sources():
    _, sched = make_sched(sid=0)
    sched.on_receive_data(data(4, q_len=3))
    sched.on_receive_data(data(9, q_len=1))
    assert sched.active == {0, 4, 9}


# -- periodic reset ---------------------------------------------------------

def test_period_reset_restores_initial_state():
    sim, sched = make_sched(sid=2)
    sched.p = 0.7
    sched.active = {2, 5, 6}
    sched.success = 9
    sched.fail = 4
    sim.run_until(100_000)
    assert sched.p == 0.0
    assert sched.active == {2}
    assert (sched.success, sched.fail) == (0, 0)


def test_reset_reschedules_every_period():
    sim, sched = make_sched(sid=2)
    sim.run_until(100_000)
    sched.p = 0.5
    sim.run_until(199_999)
    assert sched.p == 0.5       # untouched between resets
    sim.run_until(200_000)
    assert sched.p == 0.0       # second reset at exactly 2 * period
