"""Shared helpers: hand-placed networks, tiny station stubs and a token scheduler oracle."""

from tokendcf import (MacParams, Network as _Network, PhyParams, ScenarioConfig,
                      TokenParams, TrafficSpec)
from tokendcf.medium import members
from tokendcf.traffic import FullBufferSource


class Network(_Network):
    """Hand-placed stations wired as the package wires them, set by keywords.

    ``seed`` is the run seed; ``trace=True`` records the medium's trace in
    ``self.trace``.
    """

    def __init__(self, positions, flows, protocol="dcf", payload=500,
                 phy=None, mac=None, token=None, seed=1, trace=False):
        config = ScenarioConfig(protocol=protocol, phy=phy or PhyParams(),
                                mac=mac or MacParams(), token=token or TokenParams(),
                                traffic=TrafficSpec(packet_size=payload))
        self.trace = [] if trace else None
        super().__init__(positions, flows, config, seed, trace=self.trace)

    def saturate(self):
        for src, _dst in self.flows:
            FullBufferSource(self.stations[src]).start()
        return self


class Recorder:
    """Stand-in station that just records the callbacks it receives."""

    def __init__(self, sid, sim):
        self.sid = sid
        self.sim = sim
        self.events = []

    def on_frame(self, frame):
        self.events.append((self.sim.now, "frame", frame))

    def on_tx_complete(self, frame, delivered):
        self.events.append((self.sim.now, "tx_complete", (frame, bool(delivered))))

    def ack_lost(self):
        self.events.append((self.sim.now, "ack_lost", None))

    def on_channel_idle(self, slots):
        self.events.append((self.sim.now, "idle", slots))

    def fire_access(self):
        self.events.append((self.sim.now, "fire", None))


class SchedulerOracle:
    """Independent transliteration of one token scheduler's rule, one frame at a time.

    ``heard`` maps each source decoded this period to the queue length it
    last advertised; a reset leaves the station alone in it, at 0.  A
    decoded header sets the flag when it names the station, runs Adapt on
    its source, records the source's queue length and grants the station it
    names; an own transmission sets the flag by its own grant, runs Adapt on
    the station itself and records its own queue length.
    """

    def __init__(self, sid, params):
        self.sid = sid
        self.params = params
        self.flag = 0
        self.reset()

    def reset(self):
        self.p = 0.0
        self.heard = {self.sid: 0}
        self.success = 0
        self.fail = 0

    def receive(self, src, privileged, q_len, grants):
        granted = privileged == self.sid
        self.flag = 1 if granted else 0
        self.adapt(src)
        self.heard[src] = q_len
        if granted:
            grants.append(self.sid)

    def transmit(self, privileged, q_len):
        self.flag = 1 if privileged == self.sid else 0
        self.adapt(self.sid)
        self.heard[self.sid] = q_len

    def adapt(self, src):
        if src in self.heard:
            self.success += 1
        else:
            self.fail += 1
        total = self.success + self.fail
        if total < self.params.max_num:
            return
        ratio = self.success / total
        if ratio >= self.params.max_ratio:
            self.p = min(self.p + self.params.delta, self.params.max_p)
            self.success = 0
            self.fail = 0
        if ratio <= self.params.min_ratio:
            if self.p >= self.params.delta:
                self.p = max(self.p - self.params.delta, 0.0)
            self.success = 0
            self.fail = 0


def listen(medium, callbacks):
    """Register the stations of ``callbacks``, sid -> ``callback(frame)``, as listeners.

    Installs the medium's DATA hook: for each DATA frame, it calls the
    callback of every listener in the frame's mask, in ascending id.
    """
    for sid in callbacks:
        medium.register_listener(sid)

    def on_data(frame, listened):
        for sid in sorted(callbacks):
            if listened >> sid & 1:
                callbacks[sid](frame)

    medium.on_data = on_data


def finished_frames(trace):
    """(src, start, end, kind, corrupted, delivered) per "end" record of a trace.

    In the order the frames ended, with both receiver masks decoded to
    ascending id tuples; the start and end instants come from the source's
    last "tx" record (a station sends one frame at a time).
    """
    aired = {}
    frames = []
    for rec in trace:
        if rec[1] == "tx":
            aired[rec[2]] = rec
        else:
            _t, _end, src, kind, delivered, corrupted = rec
            start, _tx, _src, _kind, end, _dst = aired[src]
            frames.append((src, start, end, kind, tuple(members(corrupted)),
                           tuple(members(delivered))))
    return frames

