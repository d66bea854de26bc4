"""Acceptance gate: end-to-end protocol comparisons and analytic oracles.

Each test evaluates one criterion and prints a single PASS/FAIL line with the
measured numbers (visible with ``pytest -s`` or on failure).  Scenario results
are cached across criteria so shared setups run once.
"""

import random
import time

from tokendcf import ScenarioConfig, TokenParams, TrafficSpec, run_scenario

from conftest import SchedulerOracle
from test_properties import (check_collision_replay, check_conservation,
                             check_determinism,
                             check_disabled_grants_match_plain_dcf,
                             check_sifs_gap, check_single_privilege)

PROTOCOLS = ("dcf", "token_dcf")

_CACHE = {}


def _pair(**kw):
    """Averaged metrics for both protocols on one scenario, with wall time."""
    key = tuple(sorted(kw.items()))
    if key not in _CACHE:
        traffic = TrafficSpec(kind=kw.pop("kind", "full_buffer"),
                              packet_size=kw.pop("packet_size", 500),
                              rate_bps=kw.pop("rate_bps", 1e6))
        t0 = time.perf_counter()
        result = {}
        for proto in PROTOCOLS:
            cfg = ScenarioConfig(protocol=proto, traffic=traffic, **kw)
            result[proto] = run_scenario(cfg).averages
        result["wall_s"] = time.perf_counter() - t0
        _CACHE[key] = result
    return _CACHE[key]


def _sweep_point(n):
    return _pair(n_transmitters=n, area_side=150.0, duration_s=5.0,
                 runs=2, seed=1, packet_size=500)


def _saturated_500():
    return _pair(n_transmitters=20, area_side=150.0, duration_s=30.0,
                 runs=5, seed=1, packet_size=500)


def _saturated_1500():
    return _pair(n_transmitters=20, area_side=150.0, duration_s=30.0,
                 runs=5, seed=1, packet_size=1500)


def _ratio(result, field="throughput_bps"):
    return result["token_dcf"][field] / result["dcf"][field]


def _report(num, ok, detail):
    print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_saturated_gain_500B():
    res = _saturated_500()
    ratio = _ratio(res)
    wall = res["wall_s"]
    ok = ratio >= 2.0 and wall < 120.0
    _report(1, ok, f"500B throughput ratio {ratio:.3f} (need >= 2.0), "
                   f"runtime {wall:.0f}s (need < 120s)")


def test_criterion_02_saturated_gain_1500B():
    r1500 = _ratio(_saturated_1500())
    r500 = _ratio(_saturated_500())
    ok = 1.4 <= r1500 <= 2.3 and r1500 < r500
    _report(2, ok, f"1500B throughput ratio {r1500:.3f} "
                   f"(need in [1.4, 2.3] and < 500B ratio {r500:.3f})")


def test_criterion_03_access_delay_reduction():
    res = _saturated_500()
    ratio = _ratio(res, "access_delay_us")
    ok = ratio <= 0.6
    _report(3, ok, f"access-delay ratio {ratio:.3f} (need <= 0.6)")


def test_criterion_04_idle_slot_collapse():
    details = []
    ok = True
    for n in (10, 15, 20, 25, 30):
        res = _sweep_point(n)
        tok = res["token_dcf"]["idle_slots"]
        dcf = res["dcf"]["idle_slots"]
        point_ok = tok <= 3.0 and tok <= 0.3 * dcf
        ok = ok and point_ok
        details.append(f"n={n}: {tok:.2f} vs 0.3*{dcf:.2f}")
    _report(4, ok, "token idle slots <= 3 and <= 0.3x DCF; " + "; ".join(details))


def test_criterion_05_collision_ordering():
    ns = (5, 10, 15, 20, 25, 30)
    tok = []
    dcf = []
    for n in ns:
        res = _sweep_point(n)
        tok.append(res["token_dcf"]["collision_freq"])
        dcf.append(res["dcf"]["collision_freq"])
    ordered = all(t < d for t, d in zip(tok, dcf))

    def slope(ys):
        n = len(ns)
        mx = sum(ns) / n
        my = sum(ys) / n
        return sum((x - mx) * (y - my) for x, y in zip(ns, ys)) / \
            sum((x - mx) ** 2 for x in ns)

    trending = slope(tok) >= 0 and slope(dcf) >= 0
    ok = ordered and trending
    _report(5, ok, f"token < dcf at every n: {ordered}; "
                   f"slopes token {slope(tok):.2e}, dcf {slope(dcf):.2e} (need >= 0)")


def test_criterion_06_multihop_gain():
    res = _pair(n_transmitters=20, area_side=800.0, duration_s=10.0, runs=3,
                seed=1, packet_size=1500)
    thr = _ratio(res)
    delay = _ratio(res, "access_delay_us")
    ok = thr >= 1.5 and delay <= 0.7
    _report(6, ok, f"800x800 throughput ratio {thr:.3f} (need >= 1.5), "
                   f"delay ratio {delay:.3f} (need <= 0.7)")


def test_criterion_07_unsaturated_convergence():
    low = _pair(n_transmitters=20, area_side=150.0, duration_s=30.0, runs=3,
                seed=1, kind="pareto_on_off", packet_size=1500, rate_bps=1e3)
    rel_gap = abs(low["token_dcf"]["throughput_bps"] -
                  low["dcf"]["throughput_bps"]) / low["dcf"]["throughput_bps"]
    high = _pair(n_transmitters=20, area_side=150.0, duration_s=10.0, runs=3,
                 seed=1, kind="pareto_on_off", packet_size=1500, rate_bps=1e8)
    high_ratio = _ratio(high)
    ok = rel_gap <= 0.05 and high_ratio >= 1.6
    _report(7, ok, f"low-rate relative gap {rel_gap:.3f} (need <= 0.05), "
                   f"high-rate ratio {high_ratio:.3f} (need >= 1.6)")


def test_criterion_08_dcf_analytic_sanity():
    traffic = TrafficSpec(packet_size=500)
    cfg = ScenarioConfig(protocol="dcf", n_transmitters=1, area_side=150.0,
                         duration_s=10.0, runs=1, seed=1, traffic=traffic)
    measured = run_scenario(cfg).averages["throughput_bps"]
    # one contender: cycle = DIFS + E[b]*slot + T_data + SIFS + T_ack
    cycle_us = 28 + 8 * 9 + 96 + 10 + 19
    predicted = 500 * 8 / (cycle_us * 1e-6)
    err = abs(measured - predicted) / predicted
    ok = err <= 0.02
    _report(8, ok, f"single-sender throughput {measured/1e6:.3f} Mbps vs "
                   f"closed form {predicted/1e6:.3f} Mbps (err {err:.4f}, need <= 0.02)")


def test_criterion_09_adapt_controller_oracle():
    from tokendcf import TokenScheduler, substream
    from tokendcf.token import apply_header

    params = TokenParams()
    rng = random.Random(20240811)
    events = 0
    mismatches = 0
    p_bound_ok = True
    grants = []   # no header names a station, so none is granted
    while events < 1_000_000:
        sid = rng.randrange(8)
        sched = TokenScheduler(sid, params, substream(events, sid, "sched"))
        oracle = SchedulerOracle(sid, params)
        pool = rng.randrange(2, 40)
        for _ in range(1000):
            if rng.random() < 0.002:
                sched._period_reset()
                oracle.reset()
            src = rng.randrange(pool)
            apply_header((sched,), src, None, 0)   # the step every decoded header takes
            oracle.receive(src, None, 0, grants)
            events += 1
            if (sched.p != oracle.p or sched.heard.keys() != oracle.heard.keys() or
                    sched.success != oracle.success or sched.fail != oracle.fail):
                mismatches += 1
            if not 0.0 <= sched.p <= params.max_p:
                p_bound_ok = False
    ok = mismatches == 0 and p_bound_ok
    _report(9, ok, f"{events} adapt events, {mismatches} state mismatches, "
                   f"p within [0, {params.max_p}]: {p_bound_ok}")


def test_criterion_10_property_suite():
    check_determinism("dcf")
    check_determinism("token_dcf")
    check_conservation("dcf")
    check_conservation("token_dcf")
    check_single_privilege()
    sifs_count, _ = check_sifs_gap()
    check_disabled_grants_match_plain_dcf()
    check_collision_replay("dcf")
    check_collision_replay("token_dcf")
    _report(10, True, f"determinism, conservation, single-privilege, "
                      f"SIFS-gap ({sifs_count} privileged accesses), "
                      f"disabled-grant equivalence, collision replay all hold")
