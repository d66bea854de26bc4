"""Throughput ceilings: a perfect Token-DCF chain on the default PHY and two others.

A chain is one sender granting itself every time: DATA + SIFS + ACK + SIFS,
back to back.  No MAC on a PHY delivers more, so the default PHY's ceiling
bounds what criteria 1, 2, 3 and 7 can ask of Token-DCF.  The forced chain
also runs on ROADMAP item 13's OFDM and DSSS timings, whose DIFS of 34 and
50 us follow from SIFS + 2 slots.  The other oracle is Bianchi's fixed point:
a saturated DCF clique's collision frequency lies within the benchmark's
tolerance of it.
"""

import importlib.util
from pathlib import Path

import pytest

import tokendcf.experiments
from tokendcf import (DATA, MacParams, PhyParams, ScenarioConfig, TokenScheduler,
                      TrafficSpec, frame_airtime, run_scenario)

from conftest import Network, read_frames

PHY = PhyParams()
MAC = MacParams()
# ROADMAP item 13's timing rows (IEEE 802.11-2012 clauses 16-18)
OFDM = PhyParams(slot_time=9, sifs=16, preamble=20)
DSSS = PhyParams(slot_time=20, sifs=10, preamble=192, bit_rate=11_000_000)


def chain_period(payload, phy=PHY):
    """Microseconds per packet of a self-granting chain: DATA + SIFS + ACK + SIFS."""
    data = frame_airtime(MAC.data_header_bytes + MAC.sched_header_bytes, payload, phy)
    ack = frame_airtime(MAC.ack_header_bytes, 0, phy)
    return data + phy.sifs + ack + phy.sifs


@pytest.mark.parametrize("payload, period, mbps", [(500, 135, 29.63), (1500, 283, 42.40)])
def test_chain_ceiling_from_the_defaults(payload, period, mbps):
    assert chain_period(payload) == period
    assert 8 * payload / period == pytest.approx(mbps, abs=0.005)


class SelfGranting(TokenScheduler):
    """A scheduler that names its own station on every frame it sends."""

    __slots__ = ()

    def select_privileged(self, own_queue_len):
        return self.sid


@pytest.mark.parametrize("payload, phy", [
    pytest.param(payload, phy, id=f"{payload}{name}")
    for payload in (500, 1500)
    for name, phy in (("", PHY), ("-ofdm", OFDM), ("-dsss", DSSS))
])
def test_forced_chain_runs_at_the_ceiling(monkeypatch, payload, phy):
    monkeypatch.setattr(tokendcf.experiments, "TokenScheduler", SelfGranting)
    horizon = 100_000
    net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1)], protocol="token_dcf",
                  payload=payload, phy=phy, trace=True).saturate()
    report = net.run(horizon)
    period = chain_period(payload, phy)
    starts = [f.start for f in read_frames(net.trace) if f.src == 0 and f.kind == DATA]
    # after the first access every DATA frame follows the last by one period
    assert {b - a for a, b in zip(starts, starts[1:])} == {period}
    assert report.collision_freq == 0.0
    # the first access waits DIFS and an initial backoff of 0..cw_min
    # slots; packet i's ACK then ends at first + (i + 1) * period - SIFS
    def delivered(first):
        return (horizon - first + phy.sifs) // period

    latest = phy.difs + MAC.cw_min * phy.slot_time
    assert delivered(latest) <= report.delivered_packets <= delivered(phy.difs)
    ceiling = 8 * payload / period * 1e6
    assert ceiling * (horizon - latest - period) / horizon <= report.throughput_bps <= ceiling


# -- Bianchi's fixed point ----------------------------------------------------

BIANCHI_TOLERANCE = 0.06    # perfbench/run.py's bound on |collision_freq - p|


def _bianchi():
    """perfbench/bianchi.py, loaded from its file, so the test uses the benchmark's model."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bianchi.py"
    spec = importlib.util.spec_from_file_location("perfbench_bianchi", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [5, 10, 20, 30])
def test_dcf_collisions_match_bianchi(n):
    config = ScenarioConfig(protocol="dcf", n_transmitters=n, area_side=150.0,
                            duration_s=2.0, runs=2, seed=1,
                            traffic=TrafficSpec(packet_size=500))
    simulated = run_scenario(config).averages["collision_freq"]
    p = _bianchi().dcf_collision_probability(n, MAC.cw_min, MAC.cw_max)
    assert simulated == pytest.approx(p, abs=BIANCHI_TOLERANCE)
