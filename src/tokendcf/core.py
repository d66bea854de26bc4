"""Virtual-time event engine and seeded random streams.

All simulation time is kept in integer microseconds so that slot/SIFS/DIFS
arithmetic stays exact.  Event delivery order is the strict total order
(fire_at, seq), which makes every run reproducible for a fixed seed.

Every scheduled event fires exactly once, unless the simulator is closed
first: there is no cancel, and ``close()`` drops the events still pending,
which then never fire.  So an event that may turn out not to be needed (an
ACK timeout, which acts only when its ACK is lost) is scheduled only once it
is known to be needed, and no event fires only to find its work superseded.

Beside the event heap the simulator keeps one alarm: a single callback at a
single time that its owner moves again and again (the medium's contention
wake-up).  Setting it takes the next ``seq``, exactly as ``schedule`` would,
and setting it again replaces it, so moving it leaves no entry in the heap.
The loop fires whichever of the heap's first entry and the alarm comes first
by (fire_at, seq), so the delivery order is the one the alarm would have as
a heap entry.

Each station draws from its own ``substream``, a ``random.Random`` keyed by
SHA-256 of (seed, *tags).  Its ``randint`` over int bounds, the backoff
draw, is the standard library's draw in one call instead of three: the same
ints and the same state.
"""

import hashlib
import random
from heapq import heappop, heappush


class SimError(Exception):
    pass


class Simulator:
    """Single-threaded event loop over integer-microsecond virtual time.

    ``schedule`` queues a callback that fires once; ``set_alarm`` (re)sets
    the one alarm; ``close`` drops the pending events and the alarm, and the
    loop runs no more.
    """

    __slots__ = ("now", "_heap", "_seq", "_alarm", "_closed")

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._alarm = None   # (fire_at, seq, callback) while pending, else None
        self._closed = False

    def schedule(self, delay, callback):
        if delay < 0:
            raise SimError(f"negative delay: {delay}")
        heappush(self._heap, (self.now + int(delay), self._seq, callback))
        self._seq += 1

    def set_alarm(self, at, callback):
        """Call ``callback`` at virtual time ``at``, replacing any pending alarm."""
        if at < self.now:
            raise SimError(f"alarm in the past: {at} < {self.now}")
        self._alarm = (at, self._seq, callback)
        self._seq += 1

    def run_until(self, t_end):
        """Fire every event and alarm due by ``t_end``; returns how many fired.

        Virtual time then stands at ``t_end``; later ones stay pending.
        """
        if self._closed:
            raise SimError("the simulator is closed")
        if t_end < self.now:
            raise SimError("t_end precedes current virtual time")
        heap = self._heap
        fired = 0
        while True:
            alarm = self._alarm
            # entries compare by (fire_at, seq), and no two seqs are equal
            if heap and (alarm is None or heap[0] < alarm):
                if heap[0][0] > t_end:
                    break
                self.now, _, cb = heappop(heap)
            elif alarm is not None and alarm[0] <= t_end:
                self._alarm = None
                self.now, _, cb = alarm
            else:
                break
            cb()
            fired += 1
        self.now = t_end
        return fired

    def close(self):
        """Drop the pending events and the alarm; ``run_until`` raises from now on.

        Their callbacks are bound to the objects that scheduled them, which
        hold the simulator in turn: dropping them breaks those cycles.
        """
        self._heap.clear()
        self._alarm = None
        self._closed = True


def derive_seed(seed, *tags):
    """Stable 64-bit sub-seed keyed by (seed, *tags).

    The derivation goes through SHA-256 so the same key gives the same seed
    on every platform, and adding a station does not perturb the seeds of
    other stations.
    """
    key = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class Substream(random.Random):
    """A ``random.Random`` whose ``randint`` over int bounds is one call.

    ``randint(a, b)`` with int ``a <= b`` is the standard library's own draw
    (``randint`` -> ``randrange`` -> ``_randbelow``) written out in one
    frame: rejection sampling over ``getrandbits(n.bit_length())`` with
    ``n = b - a + 1``.  It returns the same ints and leaves the same state;
    any other input goes to ``random.Random.randint``, errors included.
    """

    def randint(self, a, b):
        if type(a) is int and type(b) is int and a <= b:
            n = b - a + 1
            k = n.bit_length()
            getrandbits = self.getrandbits
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return a + r
        return super().randint(a, b)


def substream(seed, *tags):
    """Independent ``Substream`` seeded by ``derive_seed(seed, *tags)``."""
    return Substream(derive_seed(seed, *tags))


def pareto_scale(mean, shape):
    if shape <= 1.0:
        raise ValueError(f"pareto shape must exceed 1 for a finite mean, got {shape}")
    return mean * (shape - 1.0) / shape


def draw_pareto(rng, mean, shape):
    """One Pareto sample (same units as ``mean``) with the given mean.

    Inverse-CDF sampling: x = scale / U^(1/shape), U in (0, 1].
    """
    xm = pareto_scale(mean, shape)
    u = 1.0 - rng.random()
    return xm / u ** (1.0 / shape)
