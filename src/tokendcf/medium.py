"""Shared wireless medium: fixed-radius geometry, carrier sensing, collisions.

The interference rule is the protocol model: a receiver decodes a frame only
if it sits within tx_range of the source and no other transmission from
within the receiver's cs_range overlapped the frame (any overlap corrupts,
no capture effect).  A station that transmits itself during the overlap is
corrupted too (half-duplex).  Propagation delay is zero.

The medium also runs the contention clock for the MAC layers, kept per
carrier-sense group: the contending stations that share one cs_set.  They
see the same busy/idle edges (a waiting station never transmits, so its own
frames do not matter), so a group keeps one busy count instead of one per
station.  Backoffs that start counting together sit in the group's heap,
keyed by slots left plus the group's consumed-slot offset.  The epoch is the
instant the heap's members started counting idle time: the idle edge, or the
join of the first member of an empty heap.  A busy edge adds the slots
counted since the epoch, ``(t - epoch - DIFS) // slot``, to the offset, so
freezing or resuming the whole heap costs O(1); a group with nobody waiting
costs a count update per edge.  Two kinds of station count on their own
absolute fire time instead ("solo"): a backoff that starts in the middle of
the heap's idle period, and a SIFS-privileged access.  They are called back
at each edge (``on_channel_busy``/``on_channel_idle``) and do their own slot
arithmetic.  A station that joins while its channel is busy, or is granted
privilege while frozen in the heap, is called back at the idle edge to plan
its access.  One wake-up event sits at the earliest fire time over all group
heads and solo stations, which is far cheaper than one timer per station.
"""

import math
from bisect import insort
from heapq import heapify, heappop, heappush

from .params import PhyParams

_INF = float("inf")


class MediumError(Exception):
    pass


def neighbor_tables(positions, tx_range, cs_range):
    """(tx_nb, cs_set) for stations at ``positions``, a list of (x, y) in m.

    tx_nb[a] lists the ids within tx_range of a in ascending order, a
    excluded; cs_set[a] is the set of ids within cs_range, a included.  Range
    tests are inclusive, and each unordered pair's distance is computed once.
    """
    n = len(positions)
    hypot = math.hypot
    tx_nb = [[] for _ in range(n)]
    cs_set = [{a} for a in range(n)]
    for a, (xa, ya) in enumerate(positions):
        nb_a = tx_nb[a]
        cs_a = cs_set[a]
        for b in range(a + 1, n):
            xb, yb = positions[b]
            d = hypot(xa - xb, ya - yb)
            if d <= cs_range:
                cs_a.add(b)
                cs_set[b].add(a)
                if d <= tx_range:
                    nb_a.append(b)
                    tx_nb[b].append(a)
    return tx_nb, cs_set


class ActiveTransmission:
    __slots__ = ("src", "frame", "start", "end", "corrupted")

    def __init__(self, src, frame, start, end):
        self.src = src
        self.frame = frame
        self.start = start
        self.end = end
        self.corrupted = set()   # receiver ids with a latched overlap


class _Group:
    """Contending stations with one cs_set and the backoffs they count together."""

    __slots__ = ("busy", "epoch", "offset", "heap", "solo", "frozen")

    def __init__(self, busy):
        self.busy = busy      # active transmissions the members sense
        self.epoch = 0        # when the heap's members started counting idle time
        self.offset = 0       # slots consumed since the group was formed
        self.heap = []        # (slots left + offset, sid): backoffs counting from epoch
        self.solo = []        # sids counting on their own fire time (in Medium._solo)
        self.frozen = []      # sids to call on_channel_idle() at the next idle edge


class Medium:
    def __init__(self, sim, positions, metrics=None, trace=None, phy=None):
        self.sim = sim
        self.metrics = metrics
        self.trace = trace       # list to append channel records to, or None
        n = len(positions)
        phy = phy or PhyParams()   # radii and timing; bind() checks the stations use it
        self.phy = phy
        self._sifs = phy.sifs
        self._difs = phy.difs
        self._slot = phy.slot_time
        # precomputed geometry: per-source sorted neighbor lists and cs sets
        self.tx_nb, self.cs_set = neighbor_tables(positions, phy.tx_range, phy.cs_range)

        self.stations = {}       # sid -> station object, bound via bind()
        self._active = {}        # src -> ActiveTransmission
        # stations that want delivered data frames they are not addressed by
        self._listeners = set()
        self._overhear = [[] for _ in range(n)]  # per-src sorted listener lists
        # channel-wide busy bookkeeping for the idle-gap metric
        self._global_active = 0
        self._busy_start = 0
        self._last_busy_end = 0
        self._last_gap = 0
        # contention clock: carrier-sense groups of contending stations
        self._groups = {}                # frozenset(cs_set) -> _Group
        self._group_of = [None] * n      # sid -> _Group once subscribed
        self._hit = [[] for _ in range(n)]   # src -> groups that sense it
        self._heads = {}         # idle group with a non-empty heap -> head fire time
        self._solo = {}          # solo sid -> absolute fire time
        self._wake_entry = None
        self._wake_at = _INF
        self.tx_log = [] if trace is not None else None

    # -- wiring -----------------------------------------------------------

    def bind(self, stations):
        for st in stations:
            if getattr(st, "phy", self.phy) != self.phy:
                raise MediumError(f"station {st.sid} uses other PHY timing than the medium")
            self.stations[st.sid] = st

    def subscribe(self, sid):
        """Put a contending station into the carrier-sense group of its cs_set.

        Returns the group.
        """
        if self._group_of[sid] is not None:
            return self._group_of[sid]
        cs = self.cs_set[sid]
        key = frozenset(cs)
        group = self._groups.get(key)
        if group is None:
            group = _Group(sum(1 for src in self._active if src in cs))
            self._groups[key] = group
            for src in cs:
                self._hit[src].append(group)
        self._group_of[sid] = group
        return group

    def register_listener(self, sid):
        """Request delivery of every decodable data frame (overhearing)."""
        if sid in self._listeners:
            return
        self._listeners.add(sid)
        for src in self.tx_nb[sid]:   # tx range is symmetric
            insort(self._overhear[src], sid)

    # -- sensing ----------------------------------------------------------

    def is_transmitting(self, sid):
        return sid in self._active

    # -- contention clock --------------------------------------------------

    def join(self, sid):
        """A station starts contending for the channel.

        Returns True when its channel is idle: the station plans its access
        now and calls ``register_access``.  Otherwise the station's
        ``on_channel_idle()`` is called at the next idle edge.
        """
        group = self._group_of[sid] or self.subscribe(sid)
        if group.busy:
            group.frozen.append(sid)
            return False
        return True

    def register_access(self, sid, slots):
        """Start counting a waiting station's access on its idle channel.

        ``slots`` is the backoff after DIFS, or None for a bare SIFS wait.
        The station's ``fire_access()`` is called when the wait elapses with
        the channel idle; a busy edge before that freezes the count.
        """
        group = self._group_of[sid]
        now = self.sim.now
        if slots is None:
            fire_at = now + self._sifs
            aligned = False
        else:
            fire_at = now + self._difs + slots * self._slot
            aligned = group.epoch == now or not group.heap
        if aligned:
            group.epoch = now
            heappush(group.heap, (slots + group.offset, sid))
            self._heads[group] = self._head_time(group)
        else:
            self._solo[sid] = fire_at
            group.solo.append(sid)
        if fire_at < self._wake_at:
            self._set_wake(fire_at)

    def withdraw_access(self, sid):
        """Take a backoff out of its group's heap; returns the slots it had left.

        Only while the group is busy, or while it hands out the frame that
        ends its busy period, before its counts restart.  The station's
        ``on_channel_idle()`` is called at the (next) idle edge.
        """
        group = self._group_of[sid]
        if not group.busy and group.epoch != self.sim.now:
            raise MediumError(f"station {sid}: withdrawal while its backoff counts")
        heap = group.heap
        for i, (key, member) in enumerate(heap):
            if member == sid:
                break
        else:
            raise MediumError(f"station {sid} has no backoff in its group heap")
        heap[i] = heap[-1]
        heap.pop()
        heapify(heap)
        if not heap:
            self._heads.pop(group, None)
        group.frozen.append(sid)
        return max(key - group.offset, 0)

    def _freeze(self, group, now):
        """Busy edge of a group with waiters: stop every count in it."""
        if group.heap:
            counted = now - group.epoch - self._difs
            if counted > 0:
                group.offset += counted // self._slot
            self._heads.pop(group, None)
        if group.solo:
            solo = self._solo
            stations = self.stations
            for sid in group.solo:
                del solo[sid]
                stations[sid].on_channel_busy()
            group.frozen.extend(group.solo)
            group.solo = []

    def _resume(self, group):
        """Idle edge of a group with waiters: restart every count in it."""
        if group.frozen:
            frozen = group.frozen
            group.frozen = []
            stations = self.stations
            for sid in frozen:
                stations[sid].on_channel_idle()
        if group.heap:
            head_at = self._head_time(group)
            self._heads[group] = head_at
            if head_at < self._wake_at:
                self._set_wake(head_at)

    def _head_time(self, group):
        """Fire time of the first backoff in a group's heap, counted from its epoch."""
        return group.epoch + self._difs + (group.heap[0][0] - group.offset) * self._slot

    def _set_wake(self, at):
        if self._wake_entry is not None:
            self.sim.cancel(self._wake_entry)
        self._wake_at = at
        self._wake_entry = self.sim.schedule(at - self.sim.now, self._wake)

    def _wake(self):
        self._wake_entry = None
        self._wake_at = _INF
        now = self.sim.now
        solo = self._solo
        due = [sid for sid, at in solo.items() if at <= now] if solo else []
        for sid in due:
            del solo[sid]
            self._group_of[sid].solo.remove(sid)
        heads = self._heads
        for group in [g for g, at in heads.items() if at <= now]:
            heap = group.heap
            counted = (now - group.epoch - self._difs) // self._slot
            while heap and heap[0][0] - group.offset <= counted:
                due.append(heappop(heap)[1])
            if heap:
                heads[group] = self._head_time(group)
            else:
                del heads[group]
        # all stations due at the same instant transmit together
        # (slot-synchronized collision), even though the first handoff
        # flips the channel busy for the rest
        due.sort()
        stations = self.stations
        for sid in due:
            stations[sid].fire_access()
        if heads or solo:
            nxt = min(min(heads.values(), default=_INF), min(solo.values(), default=_INF))
            if nxt < self._wake_at:
                self._set_wake(nxt)

    # -- transmissions -----------------------------------------------------

    def begin_transmission(self, src, frame, airtime):
        if src in self._active:
            raise MediumError(f"station {src} is already transmitting")
        if airtime <= 0:
            raise MediumError("airtime must be positive")
        now = self.sim.now
        tx = ActiveTransmission(src, frame, now, now + airtime)
        cs_set = self.cs_set
        if self._active:
            my_cs = cs_set[src]
            my_nb = self.tx_nb[src]
            for other in self._active.values():
                if other.end <= now:
                    continue
                tx.corrupted.update(cs_set[other.src].intersection(my_nb))
                other.corrupted.update(my_cs.intersection(self.tx_nb[other.src]))
        self._active[src] = tx

        # channel-wide idle gap: logged per access that begins a busy period
        if self._global_active == 0:
            self._last_gap = now - self._last_busy_end
            self._busy_start = now
            if self.metrics is not None:
                self.metrics.idle_gaps.append(self._last_gap)
        elif self._busy_start == now and self.metrics is not None:
            # same-instant co-starter saw the same idle gap
            self.metrics.idle_gaps.append(self._last_gap)
        self._global_active += 1

        for group in self._hit[src]:
            if group.busy:
                group.busy += 1
            else:
                group.busy = 1
                if group.heap or group.solo:
                    self._freeze(group, now)

        self.sim.schedule(airtime, lambda: self._finish(tx))
        if self.trace is not None:
            self.trace.append((now, "tx", src, frame.kind, tx.end, frame.dst))
        return tx

    def _finish(self, tx):
        src = tx.src
        del self._active[src]
        now = self.sim.now

        self._global_active -= 1
        if self._global_active == 0:
            if self.metrics is not None:
                self.metrics.busy_time += now - self._busy_start
            self._last_busy_end = now

        # groups that go idle restart their counts once the frame is handed
        # out, so a station that starts contending on it sees an idle channel
        newly_idle = []
        for group in self._hit[src]:
            c = group.busy - 1
            group.busy = c
            if not c:
                group.epoch = now
                if group.heap or group.frozen:
                    newly_idle.append(group)

        frame = tx.frame
        stations = self.stations
        corrupted = tx.corrupted
        dst = frame.dst
        delivered_to = None
        if self.tx_log is not None:
            delivered_to = []
        # addressed receiver first so its response wins same-instant ties
        if dst != src and dst not in corrupted and dst in self.tx_nb[src]:
            # tx_nb lists are short; membership scan is fine off the hot path
            stations[dst].on_frame(frame)
            if delivered_to is not None:
                delivered_to.append(dst)
        if frame.kind == 0:   # DATA: overhearers want the scheduling header
            for r in self._overhear[src]:
                if r != dst and r not in corrupted:
                    stations[r].on_frame(frame)
                    if delivered_to is not None:
                        delivered_to.append(r)
        if self.tx_log is not None:
            self.tx_log.append((src, tx.start, tx.end, frame.kind, tuple(sorted(corrupted)), tuple(sorted(delivered_to))))
        if self.trace is not None:
            self.trace.append((now, "end", src, frame.kind, tuple(sorted(delivered_to or ()))))

        stations[src].on_tx_complete(frame)
        for group in newly_idle:
            self._resume(group)
