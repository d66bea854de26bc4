"""Shared wireless medium: fixed-radius geometry, carrier sensing, collisions.

The interference rule is the protocol model: a receiver decodes a frame only
if it sits within tx_range of the source and no other transmission from
within the receiver's cs_range overlapped the frame (any overlap corrupts,
no capture effect).  A station that transmits itself during the overlap is
corrupted too (half-duplex).  Propagation delay is zero.  A decoded frame
reaches stations by two routes only: the addressed station's ``on_frame``,
which takes no other station's frames, then, for DATA, the ``on_data`` hook
that ``listen(listeners, hook)`` installs with its listener mask, called once
with the mask of every listener that decoded the frame, addressed or not.
Last, a DATA frame's source learns from ``on_tx_complete(delivered)``
whether the addressee decoded it.  The medium alone decides that an ACK is
lost and calls ``ack_lost()`` on the station awaiting it: when the ACK
ends undecoded there, or when its source is on the air (half-duplex).

Neighbour sets are int bit masks.  Bit b of tx_mask[a] is set exactly
when b lies within tx_range of a (a itself excluded), and bit b of
cs_mask[a] when b lies within cs_range of a (a itself included).  Collisions
are recorded as overlaps, not as receivers.  When a frame starts, it and
each frame still on the air OR each other's source cs_mask into their
``spoil`` mask: O(1) per overlapping pair, with no set built.  A receiver in
tx range is spoiled exactly when its bit is set in ``spoil``, so the spoiled
receivers are worked out once when the frame ends: the decoders are
``tx_mask[src] & ~spoil``.  The frame goes to the addressed one among them
and, for DATA, to the hook with the listeners among them (an AND with the
listener mask).  The trace's ``end`` record holds the delivered and the
corrupted receivers as masks too, so a frame that collides in a clique costs
one AND there instead of a tuple of every station it spoiled.  A station has
at most one frame on the air, so the medium keeps one on-air record per
station, built at its first frame, and reuses it for each frame after: a
frame costs neither a record nor a frame-end event object.

The medium also runs the contention clock for the MAC layers, kept per
carrier-sense group: the contending stations that share one cs_mask.  They
see the same busy/idle edges (a waiting station never transmits, so its own
frames do not matter), so a group keeps one busy count instead of one per
station.  Backoffs that start counting together sit in the group's heap,
keyed by slots left plus the group's consumed-slot offset.  The epoch is the
instant the heap's members started counting idle time: the idle edge, or the
``contend`` of the first member of an empty heap.  A busy edge adds the slots
counted since the epoch, ``(t - epoch - DIFS) // slot``, to the offset, so
freezing or resuming the whole heap costs O(1); a group with nobody waiting
costs a count update per edge.  Two kinds of station count on their own
absolute fire time instead ("solo"): a backoff that starts in the middle of
the heap's idle period, and a SIFS-privileged access; a busy edge freezes
them by the same rule, counted from their own start.  Stations draw their
backoffs but never count them: the medium asks a station for its plan,
``plan(slots)``, when it contends on an idle channel, and at the idle edge
for a frozen solo station, a busy-channel contender and a heap member whose
backoff a grant withdrew, with the slots left (None keeps the plan).  The
medium alone knows where an access stands.  One index maps
each idle group with a waiter to its earliest fire time, over its heap head
and its solo stations; a busy edge drops the group from it.  One wake-up
sits at the index's minimum, which is far cheaper than one timer per
station.  It is the simulator's alarm, not a heap event: moving it (a new
minimum, or the next one after a wake) replaces it and leaves no event
behind in the heap.
"""

import math
from bisect import bisect_right
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress, count

from .params import PhyParams

_INF = float("inf")


class MediumError(Exception):
    pass


def _band(r):
    """(lo, hi): a computed squared distance below lo is within r, above hi beyond it.

    The computed ``dx * dx + dy * dy`` and ``math.hypot`` are each within a
    few ulps of the true value, so a squared distance more than 1e-9 away
    from r * r settles the pair as the hypot test would.  Where r * r
    comes near underflow or overflow, squares lose that precision and no
    band is trusted: (-1, inf).
    """
    r2 = r * r
    if not 1e-290 < r2 < 1e290:
        return -1.0, _INF
    return r2 * (1 - 1e-9), r2 * (1 + 1e-9)


def neighbor_tables(positions, tx_range, cs_range):
    """(tx_mask, cs_mask) for stations at ``positions``, a list of finite (x, y) in m.

    tx_range is at most cs_range.  Both tables are lists of ints, one per
    station.  tx_mask[a] has bit b set for each id b within tx_range of a,
    a excluded; cs_mask[a] has bit b set for each id b within cs_range, a
    included.  Range tests are inclusive, on ``math.hypot`` of the
    coordinate differences.

    When the bounding box of all the positions has a squared diagonal
    below both ranges' bands (``_band``), every station hears every other
    and the tables are written out without a distance.  A layout near the
    boundary takes the general path instead.

    The general path sweeps the stations in x order.  Each station scans
    only the later stations whose computed ``dx = xb - xa`` is at most
    cs_range: hypot is never below either leg, so every pair skipped is
    beyond both ranges.  A scanned pair is settled from its squared
    distance when that lies outside the 1e-9 band around a range's square
    (``_band``), and from hypot inside it, so the tables equal those of
    computing every pair's distance.
    """
    n = len(positions)
    xs = [x for x, _ in positions]
    ys = [y for _, y in positions]
    tx_lo, tx_hi = _band(tx_range)
    cs_lo, cs_hi = _band(cs_range)
    if n:
        width = max(xs) - min(xs)
        height = max(ys) - min(ys)
        if width * width + height * height < min(tx_lo, cs_lo):
            everyone = (1 << n) - 1
            return [everyone ^ 1 << a for a in range(n)], [everyone] * n
    hypot = math.hypot
    # the sweep works in x order: index i is station order[i]
    order = sorted(range(n), key=xs.__getitem__)
    sx = [xs[a] for a in order]
    sy = [ys[a] for a in order]
    bits = [1 << a for a in order]
    tx_mask = [0] * n
    cs_mask = bits[:]
    for i, (xa, ya) in enumerate(zip(sx, sy)):
        bit_a = bits[i]
        tx_a = tx_mask[i]     # both already hold the stations earlier in x order
        cs_a = cs_mask[i]
        # past the last station whose computed dx is within cs_range; the
        # bisect bound is rounded, so the dx test has the last word
        end = bisect_right(sx, xa + cs_range, i + 1)
        while end < n and sx[end] - xa <= cs_range:
            end += 1
        for j in range(i + 1, end):
            dx = sx[j] - xa
            dy = sy[j] - ya
            d2 = dx * dx + dy * dy
            if d2 > cs_hi:            # beyond both ranges
                continue
            if d2 < tx_lo:            # within both
                tx_a |= bits[j]
                tx_mask[j] |= bit_a
            elif not tx_hi < d2 < cs_lo:      # in a band: hypot settles it
                d = hypot(dx, dy)
                if d > cs_range:
                    continue
                if d <= tx_range:
                    tx_a |= bits[j]
                    tx_mask[j] |= bit_a
            cs_a |= bits[j]
            cs_mask[j] |= bit_a
        tx_mask[i] = tx_a
        cs_mask[i] = cs_a
    tx_by_id = [0] * n
    cs_by_id = [0] * n
    for a, tx_a, cs_a in zip(order, tx_mask, cs_mask):
        tx_by_id[a] = tx_a
        cs_by_id[a] = cs_a
    return tx_by_id, cs_by_id


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _digits(mask):
    """Bit b of ``mask`` as byte b, 0 or 1: a ``compress`` selector of the ids in it."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def members(mask):
    """The ids whose bits are set in ``mask``, ascending."""
    return compress(count(), _digits(mask))


class ActiveTransmission:
    """A station's on-air record, reused for each of its frames.

    ``begin_transmission`` resets ``frame``, ``end`` and ``spoil`` (the OR
    of the cs_masks of overlapping sources: the receivers in it are
    spoiled) and schedules ``finish``, the frame-end event bound to it.
    """

    __slots__ = ("src", "frame", "end", "spoil", "finish")

    def __init__(self, src, finish):
        self.src = src
        self.finish = partial(finish, self)


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
    def __init__(self, sim, positions, trace=None, phy=None):
        self.sim = sim
        # list for (t, "tx", src, kind, end, dst) and (t, "end", src, kind,
        # delivered, corrupted) records, receivers as bit masks; or None
        self.trace = trace
        n = len(positions)
        phy = phy or PhyParams()   # radii and timing, for the medium and every station on it
        self.phy = phy
        self._sifs = phy.sifs
        self._difs = phy.difs
        self._slot = phy.slot_time
        # precomputed geometry: per-station tx and cs neighbour masks
        self.tx_mask, self.cs_mask = neighbor_tables(positions, phy.tx_range, phy.cs_range)

        self.stations = {}       # sid -> station object, bound via bind()
        self._active = {}        # src -> ActiveTransmission
        self._records = [None] * n   # src -> its ActiveTransmission, built at its first frame
        # stations that take every decoded DATA frame, as bit sid, set by listen()
        self._listen = 0
        self.on_data = None      # their hook, on_data(frame, listened)
        # channel-wide busy bookkeeping: airtime union, idle gaps before accesses
        self._busy_start = 0
        self._last_busy_end = 0
        self.busy_us = self.idle_us = self.idle_count = 0
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

    def close(self):
        """Break the cycles: unbind the stations and the DATA hook, drop the frame-end events.

        The stations and the hook hold the medium; a record's ``finish`` holds the record.
        """
        self.stations = {}
        self.on_data = None
        for tx in filter(None, self._records):
            tx.finish = None

    def subscribe(self, sid):
        """Put a contending station into the carrier-sense group of its cs_mask.

        Returns the group.  A station subscribes once, at its first ``contend``.
        """
        cs = self.cs_mask[sid]
        group = self._groups.get(cs)
        if group is None:
            group = _Group(sum(1 for src in self._active if cs >> src & 1))
            self._groups[cs] = group
            for src in members(cs):
                self._hit[src].append(group)
        self._group_of[sid] = group
        return group

    def listen(self, listeners, hook):
        """Have the stations of mask ``listeners`` take every DATA frame they decode.

        A DATA frame that listeners decode is handed once to
        ``hook(frame, listened)``, after the addressed station's
        ``on_frame``; bit b of ``listened`` is set for each listener b that
        decoded it.  Listening adds no ``on_frame`` call: that route takes
        addressed frames only.
        """
        self._listen = listeners
        self.on_data = hook

    # -- contention clock --------------------------------------------------

    def contend(self, sid):
        """A station starts contending for the channel.

        On an idle channel the medium asks the station for its plan now;
        on a busy one it queues the station for the next idle edge.
        """
        group = self._group_of[sid] or self.subscribe(sid)
        if group.busy:
            group.frozen.append((sid, None))
        else:
            self._count(group, sid, self.stations[sid].plan(None))

    def _count(self, group, sid, slots):
        """Start counting a station's access on its idle channel.

        ``slots`` is the backoff after DIFS, or None for a bare SIFS wait.
        The station's ``fire_access()`` is called when the wait elapses with
        the channel idle; a busy edge before that freezes the count.
        """
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
        # an idle edge indexes afresh in _resume, after it counts its stations
        if fire_at < self._fire.get(group, _INF):
            self._fire[group] = fire_at
        if fire_at < self._wake_at:
            self._set_wake(fire_at)

    def withdraw_access(self, sid):
        """Hold a station's frozen heap backoff for the idle edge, which re-plans it.

        A no-op for a station with no heap entry.  Only while the group is
        busy or, before ``_resume``, at its idle edge: the fire-time index
        never holds the group then.
        """
        group = self._group_of[sid]
        if group is None:
            return
        if not group.busy and group.epoch != self.sim.now:
            raise MediumError(f"station {sid}: withdrawal while its backoff counts")
        entry = next((entry for entry in group.heap if entry[1] == sid), None)
        if entry is not None:
            group.heap.remove(entry)
            heapify(group.heap)
            group.frozen.append((sid, max(entry[0] - group.offset, 0)))

    def _freeze(self, group, now):
        """Busy edge of a group with waiters: stop every count in it."""
        # the alarm stays at its stale time and may fire with nothing due:
        # re-arming it here reorders same-instant events and changes traces
        self._fire.pop(group, None)
        if group.heap and now - group.epoch > self._difs:
            group.offset += (now - group.epoch - self._difs) // self._slot
        if group.solo:
            for sid, (_fire_at, start, slots) in group.solo.items():
                if slots is not None and now - start > self._difs:
                    slots = max(slots - (now - start - self._difs) // self._slot, 0)
                group.frozen.append((sid, slots))
            group.solo = {}

    def _resume(self, group):
        """Idle edge of a group with waiters: restart every count in it."""
        if group.frozen:
            frozen, group.frozen = group.frozen, []
            for sid, slots in frozen:
                self._count(group, sid, self.stations[sid].plan(slots))
        # its solo waits all started at this edge and armed the wake already
        fire_at = self._index(group)
        if fire_at < self._wake_at:
            self._set_wake(fire_at)

    def _index(self, group):
        """Index an idle group under its earliest fire time, or drop it if nobody waits."""
        heap = group.heap
        at = group.epoch + self._difs + (heap[0][0] - group.offset) * self._slot if heap else _INF
        if group.solo:
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
        # snapshots, not comprehensions: CPython < 3.12 calls each comprehension
        for group, at in tuple(fire.items()):
            if at <= now:
                solo = group.solo
                if solo:
                    for sid, entry in tuple(solo.items()):
                        if entry[0] <= now:
                            del solo[sid]
                            due.append(sid)
                heap = group.heap
                limit = (now - group.epoch - self._difs) // self._slot + group.offset
                while heap and heap[0][0] <= limit:
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
        """Put ``frame`` on the air from ``src`` for ``airtime`` µs.

        An ACK from a source on the air is lost (half-duplex): it does not
        air, and the medium calls its addressee's ``ack_lost()`` instead.
        """
        if src in self._active:
            if frame.kind == 0:
                raise MediumError(f"station {src} is already transmitting")
            self.stations[frame.dst].ack_lost()
            return
        if airtime <= 0:
            raise MediumError("airtime must be positive")
        now = self.sim.now
        tx = self._records[src]
        if tx is None:
            tx = self._records[src] = ActiveTransmission(src, self._finish)
        tx.frame = frame
        tx.end = now + airtime
        spoil = 0
        if self._active:
            cs_mask = self.cs_mask
            my_cs = cs_mask[src]
            for other in self._active.values():
                if other.end > now:
                    spoil |= cs_mask[other.src]
                    other.spoil |= my_cs
        else:
            self._busy_start = now   # this access opens a busy period
        tx.spoil = spoil

        # channel-wide idle gap, counted per access that opens a busy period or co-starts it
        if self._busy_start == now:
            self.idle_us += now - self._last_busy_end
            self.idle_count += 1
        self._active[src] = tx

        for group in self._hit[src]:
            if group.busy:
                group.busy += 1
            else:
                group.busy = 1
                if group.heap or group.solo:
                    self._freeze(group, now)

        self.sim.schedule(airtime, tx.finish)
        if self.trace is not None:
            self.trace.append((now, "tx", src, frame.kind, tx.end, frame.dst))

    def _finish(self, tx):
        src = tx.src
        del self._active[src]
        now = self.sim.now

        if not self._active:
            self.busy_us += now - self._busy_start
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
        heard = self.tx_mask[src]
        decoded = heard & ~tx.spoil
        dst = frame.dst
        delivered = decoded >> dst & 1
        # addressed receiver first so its response wins same-instant ties
        if delivered:
            stations[dst].on_frame(frame)
        # DATA: listeners want the scheduling header
        listened = decoded & self._listen if frame.kind == 0 else 0
        if listened:
            self.on_data(frame, listened)
        if self.trace is not None:
            self.trace.append((now, "end", src, frame.kind,
                               decoded & (listened | 1 << dst), heard & tx.spoil))

        if frame.kind == 0:
            stations[src].on_tx_complete(delivered)
        elif not delivered:   # the station awaiting this ACK will not get it
            stations[dst].ack_lost()
        for group in newly_idle:
            self._resume(group)
