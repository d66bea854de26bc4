"""Shared wireless medium: fixed-radius geometry, carrier sensing, collisions.

The interference rule is the protocol model: a receiver decodes a frame only
if it sits within tx_range of the source and no other transmission from
within the receiver's cs_range overlapped the frame (any overlap corrupts,
no capture effect).  A station that transmits itself during the overlap is
corrupted too (half-duplex).  Propagation delay is zero.  A decoded frame goes
to the addressed station's ``on_frame``; a decoded DATA frame also goes to the
``on_data`` callback of every other station that registered as a listener.

Carrier-sense sets are int bit masks: bit b of cs_mask[a] is set exactly
when b lies within cs_range of a (a itself included).  Collisions are
recorded as overlaps, not as receivers.  When a frame starts, it and each
frame still on the air OR each other's source cs_mask into their ``spoil``
mask: O(1) per overlapping pair, with no set built.  A receiver in tx range
is spoiled exactly when its bit is set in ``spoil``, so the spoiled receivers
are worked out once when the frame ends, and only for the receivers it is
handed to: the addressed one and, for DATA, the overhearers.  Bits outside
the source's tx neighbours change no verdict, since every receiver is one.

The medium also runs the contention clock for the MAC layers, kept per
carrier-sense group: the contending stations that share one cs_mask.  They
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
the heap's idle period, and a SIFS-privileged access; a busy edge freezes
them by the same rule, counted from their own start.  Stations draw their
backoffs but never count them: a frozen solo station, a busy-channel joiner
and a heap member granted privilege while frozen get ``on_channel_idle(slots)``
at the idle edge, with the slots left (None keeps the plan).  One index maps
each idle group with a waiter to its earliest fire time, over its heap head
and its solo stations; a busy edge drops the group from it.  One wake-up
sits at the index's minimum, which is far cheaper than one timer per
station.  It is the simulator's alarm, not a heap event: moving it (a new
minimum, or the next one after a wake) replaces it and leaves no event
behind in the heap.
"""

import math
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from itertools import compress, count

from .params import PhyParams

_INF = float("inf")


class MediumError(Exception):
    pass


def neighbor_tables(positions, tx_range, cs_range):
    """(tx_nb, cs_mask) for stations at ``positions``, a list of (x, y) in m.

    tx_nb[a] lists the ids within tx_range of a in ascending order, a
    excluded; cs_mask[a] is an int with bit b set for each id b within
    cs_range, a included.  Range tests are inclusive.

    When the bounding box of all the positions has a diagonal within both
    ranges, every station hears every other and the tables are written
    out without a distance.  The box test keeps a 1e-9 relative margin, so
    a layout near the boundary takes the general path instead: each
    unordered pair's distance computed once.
    """
    n = len(positions)
    if n:
        xs = [x for x, _ in positions]
        ys = [y for _, y in positions]
        width = max(xs) - min(xs)
        height = max(ys) - min(ys)
        reach = min(tx_range, cs_range) * (1 - 1e-9)
        if width * width + height * height <= reach * reach:
            ids = list(range(n))
            return [ids[:a] + ids[a + 1:] for a in range(n)], [(1 << n) - 1] * n
    hypot = math.hypot
    bits = [1 << a for a in range(n)]
    tx_nb = [[] for _ in range(n)]
    cs_mask = bits[:]
    for a, (xa, ya) in enumerate(positions):
        nb_a = tx_nb[a]
        bit_a = bits[a]
        cs_a = cs_mask[a]     # already holds the ids below a
        for b in range(a + 1, n):
            xb, yb = positions[b]
            d = hypot(xa - xb, ya - yb)
            if d <= cs_range:
                cs_a |= bits[b]
                cs_mask[b] |= bit_a
                if d <= tx_range:
                    nb_a.append(b)
                    tx_nb[b].append(a)
        cs_mask[a] = cs_a
    return tx_nb, cs_mask


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask):
    """The ids whose bits are set in ``mask``, ascending."""
    # binary digits, lowest first, as 0/1 bytes that select from 0, 1, 2, ...
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


class ActiveTransmission:
    __slots__ = ("src", "frame", "end", "spoil")

    def __init__(self, src, frame, end):
        self.src = src
        self.frame = frame
        self.end = end
        # OR of the cs_masks of overlapping sources: the receivers in it are spoiled
        self.spoil = 0


class _Group:
    """Contending stations with one cs_mask and the backoffs they count together."""

    __slots__ = ("busy", "epoch", "offset", "heap", "solo", "frozen")

    def __init__(self, busy):
        self.busy = busy      # active transmissions the members sense
        self.epoch = 0        # when the heap's members started counting idle time
        self.offset = 0       # slots consumed since the group was formed
        self.heap = []        # (slots left + offset, sid): backoffs counting from epoch
        self.solo = {}        # sid -> (fire time, start, slots or None), counting on its own
        self.frozen = []      # (sid, slots left or None) to call back at the next idle edge


class Medium:
    def __init__(self, sim, positions, metrics, trace=None, phy=None):
        self.sim = sim
        self.metrics = metrics
        # list for (t, "tx", src, kind, end, dst) and (t, "end", src, kind,
        # delivered, corrupted) records, receiver ids sorted; or None
        self.trace = trace
        self._spoiled = {}       # corrupted set (sorted tuple) -> the copy the trace holds
        n = len(positions)
        phy = phy or PhyParams()   # radii and timing, for the medium and every station on it
        self.phy = phy
        self._sifs = phy.sifs
        self._difs = phy.difs
        self._slot = phy.slot_time
        # precomputed geometry: per-source sorted neighbor lists and cs masks
        self.tx_nb, self.cs_mask = neighbor_tables(positions, phy.tx_range, phy.cs_range)

        self.stations = {}       # sid -> station object, bound via bind()
        self._active = {}        # src -> ActiveTransmission
        # stations that take decoded data frames addressed to others
        self._listeners = set()
        # src -> (listener sid, on_data) of its tx neighbours, by sid
        self._overhear = [[] for _ in range(n)]
        # channel-wide busy bookkeeping for the idle-gap metric
        self._busy_start = 0
        self._last_busy_end = 0
        self._last_gap = 0
        # contention clock: carrier-sense groups of contending stations
        self._groups = {}                # cs_mask -> _Group
        self._group_of = [None] * n      # sid -> _Group once subscribed
        self._hit = [[] for _ in range(n)]   # src -> groups that sense it
        self._fire = {}          # idle group with a waiter -> its earliest fire time
        self._wake_at = _INF     # when the wake-up alarm is set for; _INF once it fired

    # -- wiring -----------------------------------------------------------

    def bind(self, stations):
        for st in stations:
            self.stations[st.sid] = st

    def subscribe(self, sid):
        """Put a contending station into the carrier-sense group of its cs_mask.

        Returns the group.
        """
        if self._group_of[sid] is not None:
            return self._group_of[sid]
        cs = self.cs_mask[sid]
        group = self._groups.get(cs)
        if group is None:
            group = _Group(sum(1 for src in self._active if cs >> src & 1))
            self._groups[cs] = group
            for src in _members(cs):
                self._hit[src].append(group)
        self._group_of[sid] = group
        return group

    def register_listener(self, sid, on_data):
        """Hand ``on_data(frame)`` every data frame ``sid`` decodes but is not addressed by.

        Overhearing: the callback is called once per such frame, in
        ascending listener id, right after the addressed receiver's
        ``on_frame``.  A station registers once.
        """
        if sid in self._listeners:
            raise MediumError(f"station {sid} already listens")
        self._listeners.add(sid)
        entry = (sid, on_data)
        for src in self.tx_nb[sid]:   # tx range is symmetric
            insort(self._overhear[src], entry)

    # -- sensing ----------------------------------------------------------

    def is_transmitting(self, sid):
        return sid in self._active

    # -- contention clock --------------------------------------------------

    def join(self, sid):
        """A station starts contending for the channel.

        Returns True when its channel is idle: the station plans its access
        now and calls ``register_access``.  Otherwise the station's
        ``on_channel_idle(None)`` is called at the next idle edge.
        """
        group = self._group_of[sid] or self.subscribe(sid)
        if group.busy:
            group.frozen.append((sid, None))
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
        else:
            group.solo[sid] = (fire_at, now, slots)
        # an idle edge indexes afresh in _resume, after its stations register
        if fire_at < self._fire.get(group, _INF):
            self._fire[group] = fire_at
        if fire_at < self._wake_at:
            self._set_wake(fire_at)

    def withdraw_access(self, sid):
        """Hold a frozen access for the idle edge, taking it out of the heap.

        Only while the group is busy or, before ``_resume``, at its idle edge:
        the fire-time index never holds the group then.  The station's
        ``on_channel_idle(slots)`` is called at the (next) idle edge.
        """
        group = self._group_of[sid]
        if not group.busy and group.epoch != self.sim.now:
            raise MediumError(f"station {sid}: withdrawal while its backoff counts")
        entry = next((entry for entry in group.heap if entry[1] == sid), None)
        if entry is None:
            if not any(member == sid for member, _slots in group.frozen):
                raise MediumError(f"station {sid} has no frozen access in its group")
            return
        group.heap.remove(entry)
        heapify(group.heap)
        group.frozen.append((sid, max(entry[0] - group.offset, 0)))

    def _freeze(self, group, now):
        """Busy edge of a group with waiters: stop every count in it."""
        # the alarm stays at its stale time and may fire with nothing due:
        # re-arming it here reorders same-instant events and changes traces
        self._fire.pop(group, None)
        if group.heap:
            group.offset += self._counted(group.epoch, now)
        if group.solo:
            for sid, (_fire_at, start, slots) in group.solo.items():
                if slots is not None:
                    slots = max(slots - self._counted(start, now), 0)
                group.frozen.append((sid, slots))
            group.solo = {}

    def _counted(self, since, now):
        """Whole slots counted from ``since`` to a busy edge: none before DIFS."""
        idle = now - since - self._difs
        return idle // self._slot if idle > 0 else 0

    def _resume(self, group):
        """Idle edge of a group with waiters: restart every count in it."""
        if group.frozen:
            frozen, group.frozen = group.frozen, []
            for sid, slots in frozen:
                self.stations[sid].on_channel_idle(slots)
        # its solo waits all started at this edge and armed the wake already
        fire_at = self._index(group)
        if fire_at < self._wake_at:
            self._set_wake(fire_at)

    def _index(self, group):
        """Index an idle group under its earliest fire time, or drop it if nobody waits."""
        heap = group.heap
        at = group.epoch + self._difs + (heap[0][0] - group.offset) * self._slot if heap else _INF
        for fire_at, _start, _slots in group.solo.values():
            if fire_at < at:
                at = fire_at
        if at < _INF:
            self._fire[group] = at
        else:
            self._fire.pop(group, None)
        return at

    def _set_wake(self, at):
        self._wake_at = at
        self.sim.set_alarm(at, self._wake)

    def _wake(self):
        self._wake_at = _INF
        now = self.sim.now
        fire = self._fire
        due = []
        for group in [g for g, at in fire.items() if at <= now]:
            solo = group.solo
            if solo:
                for sid in [sid for sid, entry in solo.items() if entry[0] <= now]:
                    del solo[sid]
                    due.append(sid)
            heap = group.heap
            counted = (now - group.epoch - self._difs) // self._slot
            while heap and heap[0][0] - group.offset <= counted:
                due.append(heappop(heap)[1])
            self._index(group)
        # all stations due at the same instant transmit together
        # (slot-synchronized collision), even though the first handoff
        # flips the channel busy for the rest
        due.sort()
        stations = self.stations
        for sid in due:
            stations[sid].fire_access()
        if fire:
            nxt = min(fire.values())
            if nxt < self._wake_at:
                self._set_wake(nxt)

    # -- transmissions -----------------------------------------------------

    def begin_transmission(self, src, frame, airtime):
        if src in self._active:
            raise MediumError(f"station {src} is already transmitting")
        if airtime <= 0:
            raise MediumError("airtime must be positive")
        now = self.sim.now
        tx = ActiveTransmission(src, frame, now + airtime)
        if self._active:
            cs_mask = self.cs_mask
            my_cs = cs_mask[src]
            spoil = 0
            for other in self._active.values():
                if other.end > now:
                    spoil |= cs_mask[other.src]
                    other.spoil |= my_cs
            tx.spoil = spoil

        # channel-wide idle gap: logged per access that begins a busy period
        if not self._active:
            self._last_gap = now - self._last_busy_end
            self._busy_start = now
            self.metrics.idle_gaps.append(self._last_gap)
        elif self._busy_start == now:
            # same-instant co-starter saw the same idle gap
            self.metrics.idle_gaps.append(self._last_gap)
        self._active[src] = tx

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

        if not self._active:
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
        spoil = tx.spoil
        nb = self.tx_nb[src]
        dst = frame.dst
        # DATA: overhearers want the scheduling header
        overhear = self._overhear[src] if frame.kind == 0 else ()
        trace = self.trace
        delivered_to = [] if trace is not None else None
        # addressed receiver first so its response wins same-instant ties
        i = bisect_left(nb, dst)
        if i < len(nb) and nb[i] == dst and not (spoil and spoil >> dst & 1):
            stations[dst].on_frame(frame)
            if delivered_to is not None:
                delivered_to.append(dst)
        for r, on_data in overhear:
            if r != dst and not (spoil and spoil >> r & 1):
                on_data(frame)
                if delivered_to is not None:
                    delivered_to.append(r)
        if trace is not None:
            corrupted = tuple(r for r in nb if spoil >> r & 1)
            # collisions spoil the same receivers again and again: keep one copy
            corrupted = self._spoiled.setdefault(corrupted, corrupted)
            trace.append((now, "end", src, frame.kind, tuple(sorted(delivered_to)), corrupted))

        stations[src].on_tx_complete(frame)
        for group in newly_idle:
            self._resume(group)
