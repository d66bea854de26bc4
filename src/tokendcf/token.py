"""Privilege scheduling layered on DCF: grant selection, overhearing, Adapt.

Every data frame a station sends names at most one privileged station (drawn
with probability p from the stations whose frames it decoded this period,
picking the longest queue).  Every link runs at one bit rate, so single-hop
backpressure, which weighs queue length by link rate, picks the same
station.  The medium hands ``on_receive_data`` every data frame the station
decodes, addressed or overheard.  Decoding a frame that names you sets your
flag and calls ``on_grant``, which the station installs so that the grant
reaches an access it has already planned; a set flag turns the next channel
access into a bare SIFS wait.  The Adapt controller moves p up or down by
delta depending on how many transmissions came from already-known stations.
"""


def _no_station():
    """``on_grant`` of a scheduler no station has installed itself on."""


class TokenScheduler:
    __slots__ = (
        "sid", "sim", "params", "rng",
        "p", "active", "success", "fail", "flag", "q_len_map", "on_grant",
    )

    def __init__(self, sid, sim, params, rng):
        self.sid = sid
        self.sim = sim
        self.params = params
        self.rng = rng
        self.flag = 0
        self.q_len_map = {}
        self.p = 0.0
        self.active = {sid}
        self.success = 0
        self.fail = 0
        self.on_grant = _no_station   # called when a decoded data frame names sid
        sim.schedule(params.period_us, self._period_reset)

    def _period_reset(self):
        self.p = 0.0
        self.active = {self.sid}
        self.success = 0
        self.fail = 0
        self.sim.schedule(self.params.period_us, self._period_reset)

    # -- grant selection ---------------------------------------------------

    def select_privileged(self, own_queue_len):
        """Privileged station for the next transmission, or None.

        With probability p: the argmax over ``active`` of queue length, ties
        to the lowest station id.  With probability 1-p: no grant.
        """
        if self.rng.random() >= self.p:
            return None
        best = None
        best_w = -1.0
        for s in self.active:
            w = own_queue_len if s == self.sid else self.q_len_map.get(s, 0)
            if w > best_w or (w == best_w and s < best):
                best, best_w = s, w
        return best

    # -- MAC hooks ---------------------------------------------------------

    def on_transmit_data(self, frame, own_queue_len):
        """Runs right before a data frame is handed to the medium."""
        priv = self.select_privileged(own_queue_len)
        frame.privileged = priv
        frame.q_len = own_queue_len
        self.flag = 1 if priv == self.sid else 0
        self.adapt(self.sid)

    def on_receive_data(self, frame):
        """Runs for every decoded data frame, addressed or overheard."""
        granted = frame.privileged == self.sid
        self.flag = 1 if granted else 0
        self.adapt(frame.src)
        self.q_len_map[frame.src] = frame.q_len
        if granted:
            self.on_grant()

    def on_timer_expired(self):
        self.flag = 0

    def close(self):
        """Forget the installed ``on_grant``, the link back to the station."""
        self.on_grant = _no_station

    # -- Adapt controller --------------------------------------------------

    def adapt(self, src):
        if src not in self.active:
            self.fail += 1
            self.active.add(src)
        else:
            self.success += 1
        total = self.success + self.fail
        if total >= self.params.max_num:
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
