"""System-level properties: determinism, conservation, privilege exclusivity,
SIFS-gap exactness, disabled-grant equivalence, and collision replay."""

import math
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokendcf import (ACK, DATA, ScenarioConfig, TokenParams, TrafficSpec,
                      derive_seed)
from tokendcf.experiments import Simulation
from tokendcf.mac import AWAIT_ACK
from tokendcf.medium import members
from tokendcf.traffic import FULL_BUFFER, PARETO_ON_OFF

from conftest import busy_periods, read_frames

CLIQUE = dict(n_transmitters=6, area_side=150.0, duration_s=1.0, runs=1)


def build(protocol, seed=3, trace=True, run_index=0, **overrides):
    params = dict(CLIQUE, protocol=protocol, seed=seed)
    params.update(overrides)
    cfg = ScenarioConfig(**params)
    return Simulation(cfg, derive_seed(cfg.seed, run_index), trace=[] if trace else None)


# -- reusable property checks (also exercised by the acceptance gate) -------

def check_determinism(protocol="token_dcf", seed=3):
    traces = []
    for _ in range(2):
        sim = build(protocol, seed=seed)
        sim.run()
        traces.append(repr(sim.medium.trace).encode())
    assert traces[0] == traces[1]
    return len(traces[0])


def check_conservation(protocol="token_dcf", seed=3, **overrides):
    sim = build(protocol, seed=seed, trace=False, **overrides)
    sim.run()
    return assert_conserved(sim)


def assert_conserved(sim):
    """Every enqueued packet is delivered, dropped or still queued; every DATA
    attempt is ACKed, timed out or, for at most one, still open."""
    total_delivered = 0
    for stn in sim.stations:
        if stn.dst is None:
            continue
        assert stn.enqueued == (stn.delivered + stn.dropped_full +
                                stn.dropped_retry + len(stn.queue))
        assert 0 <= stn.attempts - stn.delivered - stn.failures <= 1, stn.sid
        total_delivered += stn.delivered
    return total_delivered


def senders_mid_exchange(sim):
    """Senders of a finished traced run whose DATA exchange is open at the horizon:
    awaiting the ACK, or with the DATA frame still on the air."""
    on_air = {f.src for f in read_frames(sim.medium.trace)
              if f.kind == DATA and f.delivered is None}
    return {stn.sid for stn in sim.stations
            if stn.dst is not None and (stn.phase == AWAIT_ACK or stn.sid in on_air)}


def check_single_privilege(seed=3):
    sim = build("token_dcf", seed=seed, trace=False)
    medium = sim.medium
    schedulers = [stn.scheduler for stn in sim.stations if stn.scheduler]
    violations = []
    scans = [0]
    orig_finish = medium._finish

    def scanning_finish(tx):
        orig_finish(tx)
        if tx.frame.kind == DATA:
            scans[0] += 1
            holders = [s.sid for s in schedulers if s.flag]
            if len(holders) > 1:
                violations.append((sim.sim.now, holders))

    medium._finish = scanning_finish
    sim.run()
    assert scans[0] > 0
    assert violations == []
    return scans[0]


def check_sifs_gap(seed=3):
    sim = build("token_dcf", seed=seed)
    sim.run()
    sifs_gaps, backoff_gaps = _classify_post_ack_gaps(sim.medium.trace)
    assert sifs_gaps, "no privileged accesses occurred"
    return len(sifs_gaps), len(backoff_gaps)


def _classify_post_ack_gaps(trace):
    """Gaps between an ACK end and the next transmission on an idle channel.

    Privileged accesses use exactly SIFS (10 us); everything else waits at
    least DIFS (28 us).  Nothing may start in between.
    """
    periods = busy_periods(read_frames(trace))
    sifs_gaps, backoff_gaps = [], []
    for before, after in zip(periods, periods[1:]):
        if before.last.kind == ACK:
            gap = after.idle_before
            assert gap == 10 or gap >= 28, f"illegal post-ack gap {gap}"
            (sifs_gaps if gap == 10 else backoff_gaps).append(gap)
    return sifs_gaps, backoff_gaps


def check_disabled_grants_match_plain_dcf(seed=3):
    """With the grant probability pinned to zero the token MAC must produce
    the same channel activity as plain DCF: identical transmission starts,
    sources, frame kinds, and durations.  (Delivery lists differ trivially
    because token stations overhear data frames.)"""
    def channel_view(trace):
        return [(f.start, f.src, f.kind, f.end, f.dst, f.delivered is None)
                for f in read_frames(trace)]

    sim_dcf = build("dcf", seed=seed)
    sim_dcf.run()
    inert = TokenParams(max_p=0.0)
    sim_tok = build("token_dcf", seed=seed, token=inert)
    sim_tok.run()
    assert channel_view(sim_tok.medium.trace) == channel_view(sim_dcf.medium.trace)
    return len(sim_dcf.medium.trace)


def check_collision_replay(protocol="dcf", seed=3, **overrides):
    """Recompute every frame's corruption and delivery sets from geometry and
    the raw transmission intervals, independently of the medium's live
    bookkeeping, and compare with what was dispatched."""
    sim = build(protocol, seed=seed, **overrides)
    sim.run()
    return assert_replayed(sim)


def assert_replayed(sim):
    """Replay of a finished traced run; returns the number of transmissions."""
    positions = sim.positions

    def distance(a, b):
        (xa, ya), (xb, yb) = positions[a], positions[b]
        return math.hypot(xa - xb, ya - yb)

    tx_range, cs_range = sim.config.phy.tx_range, sim.config.phy.cs_range
    listeners = {stn.sid for stn in sim.stations if stn.scheduler}
    # every frame in start order, including those still on the air at the
    # horizon, which have no "end" record
    aired = read_frames(sim.medium.trace)
    log = [f for f in aired if f.delivered is not None]
    assert log, "no transmissions recorded"
    starts = [f.start for f in aired]
    max_airtime = max(f.end - f.start for f in aired)
    for i, f in enumerate(log):
        src, start, end, kind, dst = f.src, f.start, f.end, f.kind, f.dst
        corrupted, delivered = tuple(members(f.corrupted)), tuple(members(f.delivered))
        in_range = [r for r in range(len(positions)) if r != src
                    and distance(src, r) <= tx_range]
        # overlap candidates: those starting in (start - max_airtime, end)
        lo = bisect_right(starts, start - max_airtime)
        hi = bisect_left(starts, end)
        overlapping = [o for o in aired[lo:hi] if o.src != src and start < o.end]
        expect_corrupt = {
            r for r in in_range
            if any(distance(o.src, r) <= cs_range for o in overlapping)}
        assert set(corrupted) == expect_corrupt, (i, corrupted, expect_corrupt)
        expect_delivered = []
        if dst != src and dst in in_range and dst not in expect_corrupt:
            expect_delivered.append(dst)
        if kind == DATA:
            expect_delivered.extend(
                r for r in sorted(listeners)
                if r != dst and r != src and r in in_range
                and r not in expect_corrupt)
        assert sorted(delivered) == sorted(expect_delivered), \
            (i, delivered, expect_delivered)
    return len(log)


# -- tests -------------------------------------------------------------------

def test_reruns_are_byte_identical():
    assert check_determinism("dcf") > 0
    assert check_determinism("token_dcf") > 0


def test_packet_conservation_both_protocols():
    assert check_conservation("dcf") > 0
    assert check_conservation("token_dcf") > 0


def test_packet_conservation_under_pareto_overload():
    traffic = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e8)
    assert check_conservation("dcf", traffic=traffic) > 0


def test_at_most_one_privilege_holder_in_clique():
    assert check_single_privilege() > 0


def test_privileged_access_follows_ack_by_exactly_sifs():
    sifs_count, _ = check_sifs_gap()
    assert sifs_count > 0


def test_plain_dcf_trace_has_no_sifs_accesses():
    sim = build("dcf")
    sim.run()
    sifs_gaps, backoff_gaps = _classify_post_ack_gaps(sim.medium.trace)
    assert sifs_gaps == []
    assert backoff_gaps


def test_token_with_grants_disabled_equals_dcf():
    assert check_disabled_grants_match_plain_dcf() > 0


def test_collision_replay_matches_log():
    assert check_collision_replay("dcf") > 0
    assert check_collision_replay("token_dcf") > 0


def test_collision_replay_multihop():
    assert check_collision_replay("dcf", area_side=800.0,
                                  duration_s=0.3) > 0


def test_idle_and_busy_time_partition_horizon():
    # single sender: every busy period is opened by exactly one access, so
    # busy time plus the recorded gaps tiles the horizon (minus the tail)
    sim = build("dcf", trace=False, n_transmitters=1)
    horizon = sim.run().horizon_us
    medium = sim.medium
    assert medium.idle_us >= 0
    covered = medium.busy_us + medium.idle_us
    assert covered <= horizon
    # the uncovered residual is smaller than one contention cycle
    assert horizon - covered < 300


def test_busy_time_bounded_with_contention():
    sim = build("dcf", trace=False)
    horizon = sim.run().horizon_us
    medium = sim.medium
    assert 0 < medium.busy_us <= horizon
    assert medium.idle_us >= 0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=1, max_value=4),
       protocol=st.sampled_from(["dcf", "token_dcf"]))
def test_conservation_over_random_small_scenarios(seed, n, protocol):
    check_conservation(protocol, seed=seed, n_transmitters=n, duration_s=0.2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=2, max_value=30),
       side=st.floats(min_value=100.0, max_value=1500.0),
       protocol=st.sampled_from(["dcf", "token_dcf"]),
       kind=st.sampled_from([FULL_BUFFER, PARETO_ON_OFF]))
def test_random_multihop_fields_conserve_and_replay(seed, n, side, protocol, kind):
    # from a clique (100 m) to sparse fields of hidden and exposed stations
    traffic = TrafficSpec(kind=kind, packet_size=1500, rate_bps=1e7)
    sim = build(protocol, seed=seed, n_transmitters=n, area_side=side,
                     duration_s=0.1, traffic=traffic)
    sim.run()
    assert_conserved(sim)
    assert_replayed(sim)


def test_each_data_attempt_is_acked_timed_out_or_open():
    # per sender, from a clique to sparse Pareto fields: an attempt not yet
    # ACKed nor timed out is the one exchange still open at the horizon
    open_total = 0
    for protocol in ("dcf", "token_dcf"):
        for side, kind in ((150.0, FULL_BUFFER), (800.0, PARETO_ON_OFF), (1500.0, PARETO_ON_OFF)):
            traffic = TrafficSpec(kind=kind, packet_size=1500, rate_bps=1e7)
            sim = build(protocol, seed=11, n_transmitters=10, area_side=side,
                        duration_s=0.1, traffic=traffic)
            sim.run()
            mid_exchange = senders_mid_exchange(sim)
            for stn in sim.stations:
                if stn.dst is not None:
                    left = stn.attempts - stn.delivered - stn.failures
                    assert left == (stn.sid in mid_exchange), (protocol, side, stn.sid)
            open_total += len(mid_exchange)
    assert open_total > 0


@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
@pytest.mark.parametrize("n", [5, 20])
def test_idle_gap_counted_once_per_access_that_starts_a_busy_period(protocol, n):
    # idle_slots averages a busy period's idle gap over the accesses that open
    # it or co-start it, so a collision of k frames weighs its gap k times.
    # Counting each gap once (ROADMAP item 5(b)) would flip this test.
    sim = build(protocol, n_transmitters=n, duration_s=0.3)
    sim.run()
    periods = busy_periods(read_frames(sim.medium.trace))
    gaps = [p.idle_before for p in periods for f in p.frames if f.start == p.start]
    assert sim.medium.idle_count == len(gaps)
    assert sim.medium.idle_us == sum(gaps)
    assert len(gaps) > len(periods)   # some accesses co-started
