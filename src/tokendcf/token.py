"""Privilege scheduling layered on DCF: grant selection, overhearing, Adapt.

Each scheduler keeps one table, ``heard``: every source whose DATA header it
decoded this period (its own transmissions included), to the queue length
that source last advertised.  Every data frame a station sends names at most
one privileged station (drawn with probability p from ``heard``, picking
the longest queue).  The DATA hook ``overhear`` applies each header the
medium decodes to all the schedulers that decoded it, addressed or
overheard, in one pass.  A frame that names you sets your flag, and the hook
then calls your station's grant callback, which the network hands it beside
the schedulers, so that the grant reaches an access already planned; a set
flag turns the next channel access into a bare SIFS wait.  The Adapt step
moves p up or down by delta by how many transmissions came from sources
already in ``heard``.  One event per network, ``start_period_clock``,
resets every scheduler in ascending id each ``period_us`` (p and the counts
to 0, ``heard`` to the station alone), then reschedules itself.
"""

from .medium import members


class TokenScheduler:
    """One station's flag, Adapt state and ``heard`` table, reset only by the network's period clock."""

    __slots__ = ("sid", "params", "rng", "flag", "p", "heard", "success", "fail")

    def __init__(self, sid, params, rng):
        self.sid = sid
        self.params = params
        self.rng = rng
        self.flag = 0
        self._period_reset()

    def _period_reset(self):
        self.p = 0.0
        self.heard = {self.sid: 0}
        self.success = 0
        self.fail = 0

    # -- grant selection ---------------------------------------------------

    def select_privileged(self, own_queue_len):
        """Privileged station for the next transmission, or None.

        With probability p: the argmax over ``heard`` of queue length, the
        station's own counted as ``own_queue_len``, ties to the lowest station
        id.  With probability 1-p: no grant.
        """
        if self.rng.random() >= self.p:
            return None
        sid = self.sid
        best, best_w = None, -1.0
        for s, w in self.heard.items():
            if s == sid:
                w = own_queue_len
            if w > best_w or (w == best_w and s < best):
                best, best_w = s, w
        return best

    # -- MAC hooks ---------------------------------------------------------

    def on_transmit_data(self, frame, own_queue_len):
        """Runs right before a data frame is handed to the medium."""
        priv = self.select_privileged(own_queue_len)
        frame.privileged = priv
        frame.q_len = own_queue_len
        apply_header((self,), self.sid, priv, own_queue_len)

    def on_timer_expired(self):
        self.flag = 0


def start_period_clock(sim, schedulers, period_us):
    """Reset ``schedulers``, in list order, every ``period_us`` from now: one event at a time."""
    def reset_all():
        for s in schedulers:
            s._period_reset()
        start_period_clock(sim, schedulers, period_us)
    sim.schedule(period_us, reset_all)


def overhear(schedulers, grants, by_mask, frame, listened):
    """The medium's DATA hook: ``schedulers`` and grant callbacks by id, listeners cached per mask."""
    listeners = by_mask.get(listened)
    if listeners is None:   # a run meets few distinct masks
        listeners = by_mask[listened] = tuple(map(schedulers.__getitem__, members(listened)))
    privileged = frame.privileged
    apply_header(listeners, frame.src, privileged, frame.q_len)
    if privileged is not None and listened >> privileged & 1:
        grants[privileged]()


def apply_header(schedulers, src, privileged, q_len):
    """Apply one DATA header to each scheduler: its flag, the Adapt step on ``src``, ``heard[src]``."""
    for s in schedulers:
        s.flag = 1 if s.sid == privileged else 0
        heard = s.heard
        if src in heard:
            s.success += 1
        else:
            s.fail += 1
        total = s.success + s.fail
        params = s.params
        if total >= params.max_num:
            ratio = s.success / total
            if ratio >= params.max_ratio:
                s.p = min(s.p + params.delta, params.max_p)
                s.success = s.fail = 0
            if ratio <= params.min_ratio:
                if s.p >= params.delta:
                    s.p = max(s.p - params.delta, 0.0)
                s.success = s.fail = 0
        heard[src] = q_len
