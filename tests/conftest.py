"""Shared helpers: hand-placed networks, tiny station stubs, a token scheduler oracle
and the one reader of the medium's trace."""

from dataclasses import dataclass

from tokendcf import (MacParams, Network as _Network, PhyParams, ScenarioConfig,
                      TokenParams, TrafficSpec)
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
    """Stand-in station that just records the callbacks it receives.

    ``plan`` hands back the slots it is given, or else pops the next of
    ``plans``, which a test scripts: backoff slots, or None for a SIFS wait.
    """

    def __init__(self, sid, sim):
        self.sid = sid
        self.sim = sim
        self.events = []
        self.plans = []

    def on_frame(self, frame):
        self.events.append((self.sim.now, "frame", frame))

    def on_tx_complete(self, frame, delivered):
        self.events.append((self.sim.now, "tx_complete", (frame, bool(delivered))))

    def ack_lost(self):
        self.events.append((self.sim.now, "ack_lost", None))

    def plan(self, slots):
        self.events.append((self.sim.now, "plan", slots))
        return slots if slots is not None else self.plans.pop(0)

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


@dataclass(slots=True)
class AiredFrame:
    """One frame of the medium's trace.  ``delivered`` and ``corrupted`` are its
    "end" record's receiver masks (bit i for station i), None while on the air."""

    src: int
    dst: int
    kind: int
    start: int
    end: int
    delivered: int | None = None
    corrupted: int | None = None


def read_frames(trace):
    """The frames of a medium trace, in the order they went on the air.

    The medium appends ``(t, "tx", src, kind, end, dst)`` as a frame goes on
    the air and ``(t, "end", src, kind, delivered, corrupted)`` as it ends;
    any other record kind raises ValueError.  Each "end" record must close
    its source's one frame on the air, of its kind, at the end its "tx"
    record gave, with disjoint masks, and come in (end, start order) order:
    a stable sort of the finished frames by ``end`` is their end order.
    """
    frames, on_air = [], {}   # src -> (start order, frame) of its frame on the air
    last_end = (-1, -1)       # (end, start order) of the latest "end" record
    for rec in trace:
        if rec[1] == "tx":
            start, _tx, src, kind, end, dst = rec
            assert src not in on_air, f"source {src} has two frames on the air: {rec}"
            on_air[src] = (len(frames), AiredFrame(src, dst, kind, start, end))
            frames.append(on_air[src][1])
        elif rec[1] == "end":
            t, _end, src, kind, delivered, corrupted = rec
            order, frame = on_air.pop(src, (None, None))
            assert frame and (frame.kind, frame.end) == (kind, t), f"{rec} closes no frame"
            assert not delivered & corrupted, f"masks overlap: {rec}"
            assert (t, order) > last_end, f"{rec} ends out of order"
            last_end = (t, order)
            frame.delivered, frame.corrupted = delivered, corrupted
        else:
            raise ValueError(f"unknown trace record kind: {rec}")
    return frames


@dataclass(slots=True)
class BusyPeriod:
    """A run of overlapping frames, in start order, and the idle time before it."""

    idle_before: int   # us since the previous period ended, or since 0
    start: int
    end: int           # the latest end of its frames
    frames: list
    last: AiredFrame   # the frame whose end closed it: latest end, ties to the later start


def busy_periods(frames):
    """Split ``frames`` (in start order) into busy periods, as a clique senses the channel.

    A frame joins the current period when it starts before the period ends;
    one that starts the instant the period ends opens the next, after an
    idle gap of 0.  A frame on the air at the horizon counts to its end.
    """
    periods = []
    for frame in frames:
        if periods and frame.start < periods[-1].end:
            period = periods[-1]
            period.frames.append(frame)
            if frame.end >= period.end:
                period.end, period.last = frame.end, frame
        else:
            idle_before = frame.start - (periods[-1].end if periods else 0)
            periods.append(BusyPeriod(idle_before, frame.start, frame.end, [frame], frame))
    return periods
