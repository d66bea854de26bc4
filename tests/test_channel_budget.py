"""The channel-time budget of a clique at n = 5-30, read from the medium's trace.

In a clique every station senses every frame, so each µs of the horizon
falls in exactly one of five parts: a busy period that holds one DATA frame
its addressee decoded, a collided busy period (more than one frame with a
DATA among them, or a DATA frame that missed its addressee), an ACK, a gap
of at most SIFS, and a longer gap (DIFS + backoff).  The paper's abstract
says Token-DCF spends less channel time than DCF idle and colliding.
"""

import pytest

from tokendcf import ACK, DATA, ScenarioConfig, Simulation, TrafficSpec, derive_seed

PAYLOAD = 500


def channel_budget(trace, horizon, sifs):
    """Integer µs per part of the horizon; frames still on air are cut at the horizon."""
    frames = []
    on_air = {}
    for rec in trace:
        if rec[1] == "tx":
            start, _tx, src, kind, end, dst = rec
            on_air[src] = [start, min(end, horizon), kind, dst, False]
            frames.append(on_air[src])
        else:
            _t, _end, src, _kind, delivered, _corrupted = rec
            frame = on_air.pop(src)
            frame[4] = bool(delivered >> frame[3] & 1)
    periods = []     # [start, end, frames] of each busy period
    for frame in sorted(frames, key=lambda f: f[0]):
        if periods and frame[0] < periods[-1][1]:
            periods[-1][1] = max(periods[-1][1], frame[1])
            periods[-1][2].append(frame)
        else:
            periods.append([frame[0], frame[1], [frame]])
    parts = dict.fromkeys(("delivered", "collided", "ack", "sifs_gap", "backoff_gap"), 0)
    idle_from = 0
    for start, end, members in periods + [[horizon, horizon, []]]:
        gap = start - idle_from
        parts["sifs_gap" if gap <= sifs else "backoff_gap"] += gap
        kinds = [kind for _s, _e, kind, _dst, _ok in members]
        if kinds == [ACK]:
            parts["ack"] += end - start
        elif kinds == [DATA] and members[0][4]:
            parts["delivered"] += end - start
        elif members:
            parts["collided"] += end - start
        idle_from = end
    return parts


def open_exchanges(trace, sifs):
    """End instants of DATA frames their addressee decoded whose ACK never ended.

    The ACK of such a frame is still on air at the horizon, or not yet sent,
    so no station counts the frame among its deliveries.
    """
    on_air = {}
    acked = set()     # (start, src) of every ACK that ended
    decoded = []      # (end, addressee) of every DATA frame its addressee decoded
    for rec in trace:
        if rec[1] == "tx":
            on_air[rec[2]] = rec
        else:
            t, _end, src, kind, delivered, _corrupted = rec
            start, _tx, _src, _kind, _end_at, dst = on_air.pop(src)
            if kind == ACK:
                acked.add((start, src))
            elif delivered >> dst & 1:
                decoded.append((t, dst))
    return [t for t, dst in decoded if (t + sifs, dst) not in acked]


def clique_budget(protocol, n):
    config = ScenarioConfig(protocol=protocol, n_transmitters=n, area_side=150.0,
                            duration_s=2.0, runs=1, seed=1,
                            traffic=TrafficSpec(kind="full_buffer", packet_size=PAYLOAD))
    trace = []
    sim = Simulation(config, derive_seed(config.seed, 0), trace=trace)
    report = sim.run()
    horizon = config.horizon_us
    parts = channel_budget(trace, horizon, config.phy.sifs)
    station = sim.stations[0]
    still_open = open_exchanges(trace, config.phy.sifs)
    # each one's ACK could not end by the horizon
    assert all(t + config.phy.sifs + station.ack_airtime > horizon for t in still_open)
    return parts, report, horizon, station.data_airtime, len(still_open)


STATION_COUNTS = (5, 10, 20, 30)


@pytest.fixture(scope="module")
def budgets():
    """(n, protocol) -> the budget of one 2 s run; each test checks every n."""
    return {(n, protocol): clique_budget(protocol, n)
            for n in STATION_COUNTS for protocol in ("dcf", "token_dcf")}


@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
def test_budget_parts_partition_the_horizon(budgets, protocol):
    for n in STATION_COUNTS:
        parts, report, horizon, _airtime, _open = budgets[n, protocol]
        assert all(type(us) is int and us >= 0 for us in parts.values()), n
        assert sum(parts.values()) == horizon, n
        # the busy parts cover the medium's busy time, up to a period cut at the horizon
        busy = parts["delivered"] + parts["collided"] + parts["ack"]
        assert report.busy_time_us <= busy <= report.busy_time_us + 1_000, n


@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
def test_throughput_is_the_delivered_share_at_the_payload_rate(budgets, protocol):
    # every delivered DATA frame is one 96 µs busy period of 500 B; a frame
    # decoded just before the horizon, whose ACK could not end, is in the
    # delivered part but in no station's deliveries (measured: one at n = 5
    # under DCF and one at n = 30 under Token-DCF)
    for n in STATION_COUNTS:
        parts, report, horizon, airtime, still_open = budgets[n, protocol]
        assert airtime == 96
        assert parts["delivered"] == (report.delivered_packets + still_open) * airtime, n
        share = (parts["delivered"] - still_open * airtime) / horizon
        assert report.throughput_bps == pytest.approx(share * PAYLOAD * 8 / (airtime * 1e-6),
                                                      rel=1e-12), n


def test_token_dcf_collides_and_idles_less_than_dcf(budgets):
    # the abstract's two overheads; measured shares of the horizon, token vs
    # DCF, at n = 5 / 10 / 20 / 30: collided DATA 0.024 vs 0.074, 0.040 vs
    # 0.119, 0.068 vs 0.168, 0.087 vs 0.196; DIFS + backoff gaps 0.094 vs
    # 0.312, 0.096 vs 0.290, 0.107 vs 0.277, 0.116 vs 0.271
    for n in STATION_COUNTS:
        dcf, token = budgets[n, "dcf"][0], budgets[n, "token_dcf"][0]
        assert token["collided"] < dcf["collided"], n
        assert token["backoff_gap"] < dcf["backoff_gap"], n
