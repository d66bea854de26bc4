"""IEEE 802.11 DCF station state machine, with a hook slot for the token MAC.

A station with a traffic source contends for the channel with DIFS + uniform
backoff in [0, CW], freezes the countdown while the channel is busy, and runs
the DATA/ACK exchange with binary exponential backoff on ACK timeout.  The
timeout is scheduled, ``ack_timeout_us`` after the DATA frame's end, only
once the ACK is known to be lost (``ack_lost``): the DATA frame missed its
addressee, the addressee was transmitting when its ACK was due
(half-duplex), or the ACK missed the station.  So every timeout acts.  A
decoded frame reaches a station by two routes: the medium hands ``on_frame``
only the frames addressed to it, and a token scheduler takes, besides its
station's own DATA headers, every decoded one, addressed or overheard, from
the network's DATA hook on the medium, which withdraws the station's
frozen backoff from the medium when a header names it.  The medium asks the
station for its access plan, ``plan(slots)``, whenever it starts counting
one: when the station contends on an idle channel, and at each idle edge
while its access is frozen.  The plan collapses to a bare SIFS wait while
the scheduler's flag is set (privileged access).  The privilege ends with
the holder's next DATA header, or with any decoded header that names
another station.

A station has at most one frame on the air, so it reuses its frames, built at
first use: one DATA frame, whose scheduling fields the token layer rewrites at
each transmission, and per peer one ACK frame in a pre-bound ``_send_ack`` event.
"""

from collections import deque
from functools import partial

from .frames import ACK, DATA, MacFrame, frame_airtime

IDLE = 0
WAITING = 1     # contending, and transmitting the DATA frame once the access fires
AWAIT_ACK = 2

ACCEPTED = "accepted"
DROPPED = "dropped"


class Station:
    __slots__ = (
        "sid", "sim", "medium", "phy", "mac", "rng",
        "dst", "payload_bytes", "scheduler", "source",
        "queue", "cw", "retries", "phase",
        "pending_slots", "sifs_plan",
        "ack_timeout_us", "_ack_due", "_data", "_acks",
        "enqueued", "delivered", "dropped_full", "dropped_retry",
        "attempts", "failures", "delay_sum",
        "data_header_bytes", "data_airtime", "ack_airtime",
    )

    def __init__(self, sid, sim, medium, mac,
                 rng=None, dst=None, payload_bytes=0, scheduler=None):
        self.sid = sid
        self.sim = sim
        self.medium = medium
        self.phy = medium.phy
        self.mac = mac
        self.rng = rng
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.scheduler = scheduler
        self.source = None
        self.queue = deque()        # arrival timestamps, FIFO
        self.cw = mac.cw_min
        self.retries = 0
        self.phase = IDLE
        self.pending_slots = None   # None = fresh draw at the next plan
        self.sifs_plan = False
        self._ack_due = None        # when the pending ACK timeout is due, while unscheduled
        self._data = None           # the DATA frame, reused for every transmission
        self._acks = None           # peer -> its ACK event, partial(_send_ack, ACK frame)
        self.enqueued = 0
        self.delivered = 0
        self.dropped_full = 0
        self.dropped_retry = 0
        self.attempts = 0           # DATA transmissions
        self.failures = 0           # ACK timeouts
        self.delay_sum = 0          # us from queue arrival to ACK, over delivered packets
        self.data_header_bytes = mac.data_header_bytes + (
            mac.sched_header_bytes if scheduler is not None else 0
        )
        self.data_airtime = frame_airtime(self.data_header_bytes, payload_bytes, self.phy)
        self.ack_airtime = frame_airtime(mac.ack_header_bytes, 0, self.phy)
        self.ack_timeout_us = self.phy.sifs + self.ack_airtime + mac.ack_timeout_guard

    def close(self):
        """Break the cycles through this station's source and its ACK events, which hold it."""
        self.source = None
        self._acks = None

    # -- queueing ----------------------------------------------------------

    def enqueue_packet(self, count=1):
        """``count`` packet arrivals at the MAC queue now; returns accepted/dropped.

        Queues as many as the queue has room for and counts the rest as
        full-queue drops.  ACCEPTED when at least one packet was queued.
        Contention starts once, after the packets are queued: starting it
        reads no queue length, so one call of ``count`` equals ``count``
        calls of one.  A negative ``count`` raises ValueError.
        """
        if count < 0:
            raise ValueError(f"station {self.sid}: cannot enqueue {count} packets")
        self.enqueued += count
        queue = self.queue
        room = self.mac.queue_capacity - len(queue)
        if count > room:
            lost = count - room
            self.dropped_full += lost
            count = room
        if count <= 0:
            return DROPPED
        # one packet, the refill after every dequeue, skips building a list
        if count == 1:
            queue.append(self.sim.now)
        else:
            queue.extend([self.sim.now] * count)
        if self.phase == IDLE:
            self._start_contention()
        return ACCEPTED

    # -- channel access ----------------------------------------------------

    def _start_contention(self):
        self.phase = WAITING
        self.pending_slots = None
        self.medium.contend(self.sid)

    def plan(self, slots):
        """The channel is idle: the backoff slots to count, or None for a bare SIFS wait.

        The medium asks when it starts counting the access, with the
        ``slots`` left of a frozen backoff, or None to keep the plan.
        """
        if slots is not None:
            self.pending_slots = slots
        sched = self.scheduler
        if sched is not None and sched.flag:
            # privileged access: bare SIFS after the channel went idle
            self.sifs_plan = True
            return None
        self.sifs_plan = False
        if self.pending_slots is None:
            self.pending_slots = self.rng.randint(0, self.cw)
        return self.pending_slots

    def fire_access(self):
        """Backoff/SIFS wait elapsed with the channel idle: transmit.

        A packet is queued: a station starts contending only with one, and
        its queue shrinks only while it awaits an ACK.
        """
        self._transmit_data()

    def _transmit_data(self):
        frame = self._data
        if frame is None:
            frame = self._data = MacFrame(DATA, self.sid, self.dst, self.payload_bytes)
        if self.scheduler is not None:
            self.scheduler.on_transmit_data(frame, len(self.queue))
        self.attempts += 1
        self.medium.begin_transmission(self.sid, frame, self.data_airtime)

    def on_tx_complete(self, frame, delivered):
        """This station's frame left the air; ``delivered``: its addressee decoded it."""
        if frame.kind == DATA:
            self.phase = AWAIT_ACK
            self._ack_due = self.sim.now + self.ack_timeout_us
            if not delivered:
                self.ack_lost()
        elif not delivered:
            # the station awaiting this ACK will not get it
            self.medium.stations[frame.dst].ack_lost()

    def ack_lost(self):
        """The pending exchange's ACK will not arrive: schedule its timeout, once per exchange."""
        due = self._ack_due
        if due is not None:
            self._ack_due = None
            self.sim.schedule(due - self.sim.now, self._ack_timeout)

    # -- reception ---------------------------------------------------------

    def on_frame(self, frame):
        """A frame addressed to this station was decoded here.

        The medium calls it only for this station's own frames; overheard
        DATA headers reach a token station's scheduler through the medium's
        DATA hook instead.  An ACK finds the station awaiting it: one is sent
        only for a decoded DATA frame, and the timeout is scheduled only once
        the ACK is known lost.
        """
        if frame.kind == ACK:
            self._ack_received()
            return
        acks = self._acks or {}
        send = acks.get(frame.src)
        if send is None:
            send = acks[frame.src] = partial(
                self._send_ack, MacFrame(ACK, self.sid, frame.src))
            self._acks = acks
        self.sim.schedule(self.phy.sifs, send)

    def _send_ack(self, ack):
        # ``phase`` tracks the station's own data and is left alone here: a
        # station that sends and receives may be waiting or awaiting its ACK
        if self.medium.is_transmitting(self.sid):   # half-duplex guard
            self.medium.stations[ack.dst].ack_lost()
            return
        self.medium.begin_transmission(self.sid, ack, self.ack_airtime)

    def _ack_received(self):
        self._ack_due = None
        self.delay_sum += self.sim.now - self.queue.popleft()
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
        self.failures += 1
        self.retries += 1
        self.cw = min(2 * self.cw, self.mac.cw_max)
        if self.retries > self.mac.retry_limit:
            self.queue.popleft()
            self.dropped_retry += 1
            self.cw = self.mac.cw_min
            self.retries = 0
            if self.source is not None:
                self.source.on_dequeue()
        if self.queue:
            self._start_contention()
        else:
            self.phase = IDLE
