"""A fixed pure-Python workload that measures how fast the host runs now.

On a shared host the same Python work can take up to twice as long from one
minute to the next.  The probe is a miniature of the simulator's hot path (a
saturated carrier-sense clique: an event heap of [time, seq, callback]
entries, busy/idle fan-out to every neighbour, a contention table with one
wake-up event, seeded backoff draws), so its time rises and falls with the
simulator's; a smaller, simpler loop was found to overreact to slow phases.
It does not use ``tokendcf``, so no change to the program moves it.
"""

import random
import time
from heapq import heappop, heappush

# probe seconds at the reference host speed (its usual time on an idle
# 2.0 GHz Intel Xeon core with CPython 3.11)
REFERENCE_S = 0.025
STATIONS = 100
EVENTS = 1200
_DIFS, _SLOT, _CW = 28, 9, 31
_INF = float("inf")


class _Station:
    __slots__ = ("sid", "net", "rng", "peers", "busy", "pending", "since", "waiting")

    def __init__(self, sid, net, rng):
        self.sid = sid
        self.net = net
        self.rng = rng
        self.peers = []
        self.busy = 0
        self.pending = None
        self.since = 0
        self.waiting = True

    def resume(self):
        net = self.net
        self.since = net.now
        if self.pending is None:
            self.pending = self.rng.randint(0, _CW)
        fire_at = net.now + _DIFS + _SLOT * self.pending
        net.contention[self.sid] = fire_at
        if fire_at < net.wake_at:
            net.set_wake(fire_at)

    def on_busy(self):
        if self.waiting and self.net.contention.pop(self.sid, None) is not None:
            elapsed = self.net.now - self.since
            if elapsed > _DIFS:
                self.pending = max(self.pending - (elapsed - _DIFS) // _SLOT, 0)

    def on_idle(self):
        if self.waiting and self.sid not in self.net.contention:
            self.resume()

    def fire(self):
        self.waiting = False
        self.pending = None
        self.net.transmit(self, 100 + self.rng.randint(0, 20))


class _Clique:
    __slots__ = ("now", "heap", "seq", "contention", "wake_at", "wake_entry", "stations")

    def __init__(self):
        self.now = 0
        self.heap = []
        self.seq = 0
        self.contention = {}
        self.wake_at = _INF
        self.wake_entry = None
        self.stations = []

    def schedule(self, delay, callback):
        entry = [self.now + delay, self.seq, callback]
        self.seq += 1
        heappush(self.heap, entry)
        return entry

    def set_wake(self, at):
        if self.wake_entry is not None:
            self.wake_entry[2] = None
        self.wake_at = at
        self.wake_entry = self.schedule(at - self.now, self.wake)

    def wake(self):
        self.wake_entry = None
        self.wake_at = _INF
        due = sorted(s for s, at in self.contention.items() if at <= self.now)
        for sid in due:
            self.contention.pop(sid, None)
            self.stations[sid].fire()
        if self.contention:
            nxt = min(self.contention.values())
            if nxt < self.wake_at:
                self.set_wake(nxt)

    def transmit(self, station, airtime):
        newly_busy = []
        for peer in station.peers:
            peer.busy += 1
            if peer.busy == 1:
                newly_busy.append(peer)
        for peer in newly_busy:
            peer.on_busy()
        self.schedule(airtime, lambda: self.finish(station))

    def finish(self, station):
        newly_idle = []
        for peer in station.peers:
            peer.busy -= 1
            if peer.busy == 0:
                newly_idle.append(peer)
        station.waiting = True
        if station.busy == 0:
            station.resume()
        for peer in newly_idle:
            peer.on_idle()

    def run(self, events):
        heap = self.heap
        for _ in range(events):
            entry = heappop(heap)
            callback = entry[2]
            if callback is None:
                continue
            entry[2] = None
            self.now = entry[0]
            callback()


def probe_seconds():
    """Wall seconds of one fixed run of the probe."""
    t0 = time.perf_counter()
    net = _Clique()
    rng = random.Random(1)
    net.stations = [_Station(sid, net, rng) for sid in range(STATIONS)]
    for station in net.stations:
        station.peers = [p for p in net.stations if p is not station]
    for station in net.stations:
        station.resume()
    net.run(EVENTS)
    return time.perf_counter() - t0
