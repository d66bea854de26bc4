"""Event engine ordering, the alarm, closing and the seeded random streams."""

import copy
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendcf import (MacParams, Simulator, derive_seed, draw_pareto, pareto_scale,
                      substream)
from tokendcf.core import SimError, Substream


def test_zero_delay_fires_before_later_events():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: order.append("late"))
    sim.schedule(0, lambda: order.append("now"))
    sim.run_until(10)
    assert order == ["now", "late"]


def test_same_fire_time_resolved_by_schedule_order():
    sim = Simulator()
    order = []
    sim.schedule(7, lambda: order.append("first"))
    sim.schedule(7, lambda: order.append("second"))
    sim.run_until(7)
    assert order == ["first", "second"]


def test_difs_delay_fires_at_28():
    sim = Simulator()
    seen = []
    sim.schedule(28, lambda: seen.append(sim.now))
    sim.run_until(100)
    assert seen == [28]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-1, lambda: None)


def test_run_until_empty_queue_advances_now():
    sim = Simulator()
    assert sim.run_until(1234) == 0
    assert sim.now == 1234


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SimError):
        sim.run_until(50)


def test_events_scheduled_during_run_are_delivered():
    sim = Simulator()
    seen = []

    def chain():
        seen.append(sim.now)
        if sim.now < 30:
            sim.schedule(10, chain)

    sim.schedule(10, chain)
    fired = sim.run_until(100)
    assert seen == [10, 20, 30]
    assert fired == 3


# -- the alarm ----------------------------------------------------------------

def test_alarm_takes_its_place_in_seq_order_at_the_same_instant():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("before"))
    sim.set_alarm(10, lambda: order.append("alarm"))
    sim.schedule(10, lambda: order.append("after"))
    sim.run_until(10)
    assert order == ["before", "alarm", "after"]


@pytest.mark.parametrize("first, second", [(30, 15), (15, 30)])
def test_setting_the_alarm_again_replaces_it(first, second):
    sim = Simulator()
    seen = []
    sim.set_alarm(first, lambda: seen.append(("first", sim.now)))
    sim.set_alarm(second, lambda: seen.append(("second", sim.now)))
    assert sim.run_until(100) == 1
    assert seen == [("second", second)]


def test_alarm_fires_with_an_empty_heap():
    sim = Simulator()
    seen = []
    sim.set_alarm(5, lambda: seen.append(sim.now))
    assert sim.run_until(10) == 1
    assert seen == [5]
    assert sim.now == 10


def test_alarm_past_t_end_stays_pending():
    sim = Simulator()
    seen = []
    sim.set_alarm(50, lambda: seen.append(sim.now))
    assert sim.run_until(49) == 0
    assert seen == [] and sim.now == 49
    assert sim.run_until(50) == 1
    assert seen == [50]


def test_run_until_counts_alarms_among_fired_events():
    sim = Simulator()
    seen = []

    def rearm():
        seen.append(sim.now)
        if sim.now < 30:
            sim.set_alarm(sim.now + 10, rearm)

    sim.set_alarm(10, rearm)
    sim.schedule(15, lambda: seen.append(sim.now))
    assert sim.run_until(100) == 4
    assert seen == [10, 15, 20, 30]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=50)),
                min_size=1, max_size=30))
def test_alarm_fires_where_a_rescheduled_event_would(ops):
    # each (is_alarm, delay): moving the alarm orders events exactly as
    # scheduling a heap event per move does, when every move but the last
    # fires and does nothing
    def trace(use_alarm):
        sim = Simulator()
        log = []
        latest = None
        for i, (is_alarm, delay) in enumerate(ops):
            fire = lambda i=i: log.append((sim.now, i))
            if not is_alarm:
                sim.schedule(delay, fire)
            elif use_alarm:
                sim.set_alarm(delay, fire)
            else:
                latest = i
                sim.schedule(delay, lambda i=i, fire=fire: i == latest and fire())
        sim.run_until(100)
        return log

    assert trace(True) == trace(False)


def test_alarm_in_the_past_rejected():
    sim = Simulator()
    sim.run_until(20)
    with pytest.raises(SimError):
        sim.set_alarm(19, lambda: None)


# -- closing ----------------------------------------------------------------

class _Owner:
    def tick(self):
        pass


def test_close_drops_pending_events_and_the_alarm():
    sim = Simulator()
    by_event, by_alarm = _Owner(), _Owner()
    sim.schedule(5, by_event.tick)
    sim.set_alarm(7, by_alarm.tick)
    refs = [weakref.ref(by_event), weakref.ref(by_alarm)]
    del by_event, by_alarm
    assert all(ref() is not None for ref in refs)   # held by their callbacks
    sim.close()
    assert [ref() for ref in refs] == [None, None]
    sim.close()
    with pytest.raises(SimError, match="closed"):
        sim.run_until(10)
    assert sim.now == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30))
def test_delivery_respects_fire_at_seq_total_order(delays):
    sim = Simulator()
    log = []
    for i, d in enumerate(delays):
        sim.schedule(d, lambda i=i, d=d: log.append((d, i)))
    sim.run_until(200)
    assert log == sorted(log)


def test_substream_identical_key_identical_sequence():
    a = substream(42, 3, "backoff")
    b = substream(42, 3, "backoff")
    assert [a.randint(0, 16) for _ in range(100)] == [b.randint(0, 16) for _ in range(100)]


def test_substream_distinct_tags_diverge():
    a = substream(42, 3, "backoff")
    b = substream(42, 3, "sched")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_substream_keeps_no_instance_dict():
    # a network builds thousands of streams: random.Random's one attribute is a slot
    rng = substream(1, 0, "backoff")
    assert vars(rng) == {}
    rng.random()
    rng.randint(0, 1023)
    rng.gauss(0.0, 1.0)   # sets gauss_next
    assert rng.gauss_next is not None
    assert vars(rng) == {}


def test_substream_draws_copies_and_pickles_as_the_stdlib():
    ours = substream(1, 0, "backoff")
    ref = random.Random(derive_seed(1, 0, "backoff"))
    assert ours.getstate() == ref.getstate()
    assert [ours.random() for _ in range(100)] == [ref.random() for _ in range(100)]
    assert [ours.randint(0, 1023) for _ in range(100)] == \
        [ref.randint(0, 1023) for _ in range(100)]
    ours.gauss(0.0, 1.0)
    ref.gauss(0.0, 1.0)
    assert ours.getstate() == ref.getstate()
    twins = [copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))]
    expected = [ref.randint(0, 1023) for _ in range(10)]
    for twin in twins:
        assert type(twin) is Substream
        assert twin.getstate() == ours.getstate()
        assert [twin.randint(0, 1023) for _ in range(10)] == expected


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 0) == derive_seed(1, 0)
    assert derive_seed(1, 0) != derive_seed(1, 1)


def test_uniform_backoff_draw_frequencies():
    # [0, 16] inclusive: every value near 1/17 over a large pinned stream
    rng = substream(123, "uniform-check")
    n = 200_000
    counts = [0] * 17
    for _ in range(n):
        counts[rng.randint(0, 16)] += 1
    for c in counts:
        assert abs(c / n - 1 / 17) < 0.01 * (1 / 17) + 0.002


def test_uniform_degenerate_range():
    rng = substream(1, "z")
    assert rng.randint(0, 0) == 0


def reachable_windows(mac):
    """Every contention window a station reaches: cw_min doubled up to cw_max."""
    windows = [mac.cw_min]
    while windows[-1] < mac.cw_max:
        windows.append(min(2 * windows[-1], mac.cw_max))
    return windows


@pytest.mark.parametrize("mac", [MacParams(), MacParams(cw_min=31, cw_max=1023),
                                 MacParams(cw_min=1, cw_max=6), MacParams(cw_min=8, cw_max=8)])
@pytest.mark.parametrize("seed", [0, 1, 7919, 2**64 - 1])
def test_substream_randint_draws_as_the_stdlib(mac, seed):
    # the one-call randint must give the stdlib's ints draw for draw and
    # leave the same state, for every backoff draw randint(0, cw) the MAC
    # makes and for the edges: a == b, negative bounds, ranges past 2**64
    # and bool bounds, which take the stdlib's own path
    bounds = [(0, cw) for cw in reachable_windows(mac)]
    bounds += [(3, 3), (-5, 2), (-2**70, -2**70 + 9), (2**64, 2**66), (0, 2**65 + 3),
               (False, True)]
    ours = substream(seed, "backoff")
    ref = random.Random(derive_seed(seed, "backoff"))
    assert type(ours).randint is not random.Random.randint
    for a, b in bounds:
        assert [ours.randint(a, b) for _ in range(40)] == [ref.randint(a, b) for _ in range(40)]
        assert ours.getstate() == ref.getstate()
    # interleaved, as stations whose windows differ draw in turn
    for _ in range(40):
        for a, b in bounds:
            assert ours.randint(a, b) == ref.randint(a, b)
    assert ours.getstate() == ref.getstate()


def test_substream_randint_rejects_an_empty_range_as_the_stdlib():
    with pytest.raises(ValueError):
        random.Random(1).randint(5, 4)
    with pytest.raises(ValueError):
        substream(1, "backoff").randint(5, 4)


def test_pareto_scale_formula():
    assert pareto_scale(50_000.0, 1.5) == pytest.approx(16_666.666, rel=1e-6)


def test_pareto_samples_bounded_below_by_scale():
    rng = substream(7, "pareto")
    xm = pareto_scale(50_000.0, 1.5)
    for _ in range(10_000):
        assert draw_pareto(rng, 50_000.0, 1.5) >= xm


def test_pareto_sample_mean_matches_target():
    rng = substream(42, "pareto")
    n = 1_000_000
    total = sum(draw_pareto(rng, 50_000.0, 1.5) for _ in range(n))
    assert total / n == pytest.approx(50_000.0, rel=0.05)


def test_pareto_shape_at_most_one_rejected():
    rng = substream(1, "p")
    with pytest.raises(ValueError):
        draw_pareto(rng, 50_000.0, 1.0)
