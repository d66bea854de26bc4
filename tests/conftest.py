"""Shared helpers: hand-wired networks and tiny station stubs."""

import pytest

from tokendcf import (MacParams, Medium, Metrics, PhyParams, Simulator,
                      Station, TokenParams, TokenScheduler, substream)
from tokendcf.traffic import FullBufferSource


class Network:
    """A fully wired simulation over hand-placed stations."""

    def __init__(self, positions, flows, protocol="dcf", payload=500,
                 phy=None, mac=None, token=None, seed=1, trace=False):
        self.sim = Simulator()
        self.metrics = Metrics()
        self.phy = phy or PhyParams()
        self.mac = mac or MacParams()
        self.token = token or TokenParams()
        self.trace = [] if trace else None
        self.medium = Medium(self.sim, positions, self.metrics,
                             trace=self.trace, phy=self.phy)
        dsts = dict(flows)
        self.stations = []
        for sid in range(len(positions)):
            if sid in dsts:
                scheduler = None
                if protocol == "token_dcf":
                    scheduler = TokenScheduler(sid, self.sim, self.token,
                                               substream(seed, sid, "sched"))
                st = Station(sid, self.sim, self.medium, self.phy, self.mac,
                             self.metrics, rng=substream(seed, sid, "backoff"),
                             dst=dsts[sid], payload_bytes=payload,
                             scheduler=scheduler)
            else:
                st = Station(sid, self.sim, self.medium, self.phy, self.mac,
                             self.metrics)
            self.stations.append(st)
        self.medium.bind(self.stations)
        self.sources = []

    def saturate(self):
        for st in self.stations:
            if st.dst is not None:
                src = FullBufferSource(st)
                src.start()
                self.sources.append(src)
        return self

    def run(self, horizon_us):
        self.sim.run_until(horizon_us)
        return self


class Recorder:
    """Stand-in station that just records the callbacks it receives."""

    def __init__(self, sid, sim):
        self.sid = sid
        self.sim = sim
        self.events = []

    def on_frame(self, frame):
        self.events.append((self.sim.now, "frame", frame))

    def on_tx_complete(self, frame):
        self.events.append((self.sim.now, "tx_complete", frame))

    def on_channel_busy(self):
        self.events.append((self.sim.now, "busy", None))

    def on_channel_idle(self):
        self.events.append((self.sim.now, "idle", None))

    def fire_access(self):
        self.events.append((self.sim.now, "fire", None))


@pytest.fixture
def clique_pair():
    """One saturated sender (0 -> 1) plus a second flow (2 -> 3), all in range."""
    positions = [(0.0, 0.0), (100.0, 0.0), (0.0, 50.0), (100.0, 50.0)]
    return Network(positions, [(0, 1), (2, 3)])
