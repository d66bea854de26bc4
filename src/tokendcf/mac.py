"""IEEE 802.11 DCF station state machine, with a hook slot for the token MAC.

A station with a traffic source contends for the channel with DIFS + uniform
backoff in [0, CW], freezes the countdown while the channel is busy, and runs
the DATA/ACK exchange with binary exponential backoff on ACK timeout.  When a
token scheduler is attached, the access plan may collapse to a bare SIFS wait
(privileged access) and every transmitted/decoded data frame feeds the
scheduler state: the station registers the scheduler's ``on_receive_data``
with the medium for overheard frames, and the scheduler calls the station's
``on_grant`` when a decoded frame names it.
"""

import logging
from collections import deque

from .frames import ACK, DATA, MacFrame, frame_airtime

log = logging.getLogger(__name__)

IDLE = 0
WAITING = 1
TRANSMITTING = 2
AWAIT_ACK = 3

ACCEPTED = "accepted"
DROPPED = "dropped"


class Station:
    __slots__ = (
        "sid", "sim", "medium", "phy", "mac", "metrics", "rng",
        "dst", "payload_bytes", "scheduler", "source",
        "queue", "cw", "retries", "phase",
        "pending_slots", "sifs_plan", "registered",
        "_ack_timer", "_seq",
        "enqueued", "delivered", "dropped_full", "dropped_retry",
        "data_header_bytes", "data_airtime", "ack_airtime",
    )

    def __init__(self, sid, sim, medium, mac, metrics,
                 rng=None, dst=None, payload_bytes=0, scheduler=None):
        self.sid = sid
        self.sim = sim
        self.medium = medium
        self.phy = medium.phy
        self.mac = mac
        self.metrics = metrics
        self.rng = rng
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.scheduler = scheduler
        self.source = None
        self.queue = deque()        # arrival timestamps, FIFO
        self.cw = mac.cw_min
        self.retries = 0
        self.phase = IDLE
        self.pending_slots = None   # None = fresh draw on next resume
        self.sifs_plan = False
        self.registered = False     # the medium holds its access, counting or frozen
        self._ack_timer = None
        self._seq = 0
        self.enqueued = 0
        self.delivered = 0
        self.dropped_full = 0
        self.dropped_retry = 0
        self.data_header_bytes = mac.data_header_bytes + (
            mac.sched_header_bytes if scheduler is not None else 0
        )
        self.data_airtime = frame_airtime(self.data_header_bytes, payload_bytes, self.phy)
        self.ack_airtime = frame_airtime(mac.ack_header_bytes, 0, self.phy)
        if scheduler is not None:
            scheduler.on_grant = self.on_grant
            medium.register_listener(sid, scheduler.on_receive_data)

    # -- queueing ----------------------------------------------------------

    def enqueue_packet(self):
        """New packet arrival at the MAC queue; returns accepted/dropped."""
        self.enqueued += 1
        if len(self.queue) >= self.mac.queue_capacity:
            self.dropped_full += 1
            self.metrics.drops += 1
            return DROPPED
        self.queue.append(self.sim.now)
        if self.phase == IDLE:
            self._start_contention()
        return ACCEPTED

    # -- channel access ----------------------------------------------------

    def _start_contention(self):
        self.phase = WAITING
        self.pending_slots = None
        if self.medium.join(self.sid):
            self._resume_wait()
        # else: stay frozen until the idle edge arrives

    def _resume_wait(self):
        """The channel is idle: plan the access and hand it to the medium."""
        self.registered = True
        sched = self.scheduler
        if sched is not None and sched.flag:
            # privileged access: bare SIFS after the channel went idle
            self.sifs_plan = True
            slots = None
        else:
            self.sifs_plan = False
            if self.pending_slots is None:
                self.pending_slots = self.rng.randint(0, self.cw)
            slots = self.pending_slots
        self.medium.register_access(self.sid, slots)

    def on_channel_idle(self, slots):
        """Idle edge: resume with the backoff ``slots`` the medium left (None keeps the plan)."""
        if slots is not None:
            self.pending_slots = slots
        self._resume_wait()

    def fire_access(self):
        """Backoff/SIFS wait elapsed with the channel idle: transmit."""
        self.registered = False
        if self.scheduler is not None:
            self.scheduler.on_timer_expired()   # privilege is one-shot
        if not self.queue:
            self.phase = IDLE
            return
        self._transmit_data()

    def _transmit_data(self):
        frame = MacFrame(DATA, self.sid, self.dst, self.payload_bytes, self._seq)
        self._seq += 1
        if self.scheduler is not None:
            self.scheduler.on_transmit_data(frame, len(self.queue))
        self.metrics.tx_attempts += 1
        self.phase = TRANSMITTING
        self.medium.begin_transmission(self.sid, frame, self.data_airtime)

    def on_tx_complete(self, frame):
        if frame.kind == DATA:
            self.phase = AWAIT_ACK
            timeout = self.phy.sifs + self.ack_airtime + self.mac.ack_timeout_guard
            self._ack_timer = self.sim.schedule(timeout, self._ack_timeout)

    # -- reception ---------------------------------------------------------

    def on_frame(self, frame):
        """A frame was delivered (decoded) at this station.

        The medium calls it for frames addressed here; a token station's
        overheard data frames go from the medium to its scheduler directly.
        """
        if frame.kind == ACK:
            if frame.dst == self.sid and self.phase == AWAIT_ACK:
                self._ack_received()
            else:
                log.debug("station %d: unexpected ack from %d ignored", self.sid, frame.src)
            return
        if self.scheduler is not None:
            self.scheduler.on_receive_data(frame)
        if frame.dst == self.sid:
            src = frame.src
            self.sim.schedule(self.phy.sifs, lambda: self._send_ack(src))

    def on_grant(self):
        """A decoded data frame, addressed or overheard, named this station privileged."""
        if self.registered:
            # granted while its access is frozen: plan a SIFS access at the
            # idle edge, which hands back the slots left
            self.medium.withdraw_access(self.sid)
            self.registered = False

    def _send_ack(self, dst):
        # ``phase`` tracks the station's own data and is left alone here: a
        # station that sends and receives may be waiting or awaiting its ACK
        if self.medium.is_transmitting(self.sid):   # half-duplex guard
            return
        frame = MacFrame(ACK, self.sid, dst)
        self.medium.begin_transmission(self.sid, frame, self.ack_airtime)

    def _ack_received(self):
        self.sim.cancel(self._ack_timer)
        self._ack_timer = None
        arrival = self.queue.popleft()
        now = self.sim.now
        self.metrics.delivered_bits += 8 * self.payload_bytes
        self.metrics.access_delays.append(now - arrival)
        self.delivered += 1
        self.cw = self.mac.cw_min
        self.retries = 0
        if self.source is not None:
            self.source.on_dequeue()
        if self.queue:
            self._start_contention()
        else:
            self.phase = IDLE

    def _ack_timeout(self):
        self._ack_timer = None
        self.metrics.tx_failures += 1
        self.retries += 1
        self.cw = min(2 * self.cw, self.mac.cw_max)
        if self.retries > self.mac.retry_limit:
            self.queue.popleft()
            self.dropped_retry += 1
            self.metrics.drops += 1
            self.cw = self.mac.cw_min
            self.retries = 0
            if self.source is not None:
                self.source.on_dequeue()
        if self.queue:
            self._start_contention()
        else:
            self.phase = IDLE
