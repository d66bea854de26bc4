"""Packet arrival processes: saturated full-buffer and Pareto on/off."""

import math
from dataclasses import dataclass

from .core import draw_pareto, substream
from .params import ConfigError, require_finite, require_ints

FULL_BUFFER = "full_buffer"
PARETO_ON_OFF = "pareto_on_off"


@dataclass(frozen=True)
class TrafficSpec:
    kind: str = FULL_BUFFER
    packet_size: int = 500          # bytes
    rate_bps: float = 1_000_000.0   # sending rate during on phases
    on_mean_us: float = 50_000.0
    off_mean_us: float = 50_000.0
    shape: float = 1.5

    def __post_init__(self):
        require_ints(self)
        if self.kind not in (FULL_BUFFER, PARETO_ON_OFF):
            raise ConfigError(f"unknown traffic kind: {self.kind}")
        if self.packet_size <= 0:
            raise ConfigError("packet_size must be positive")
        require_finite(self, "rate_bps", "on_mean_us", "off_mean_us", "shape")
        if self.kind == PARETO_ON_OFF:
            if self.rate_bps <= 0:
                raise ConfigError("rate_bps must be positive")
            if self.shape <= 1.0:
                raise ConfigError("pareto shape must exceed 1")
            if self.on_mean_us <= 0 or self.off_mean_us <= 0:
                raise ConfigError("on/off means must be positive")


class FullBufferSource:
    """Keeps the MAC queue topped up to capacity: refills after each dequeue."""

    def __init__(self, station):
        self.station = station
        station.source = self

    def start(self):
        st = self.station
        st.enqueue_packet(st.mac.queue_capacity - len(st.queue))

    def on_dequeue(self):
        self.station.enqueue_packet()


class ParetoOnOffSource:
    """Alternating on/off phases with Pareto-distributed durations.

    During on phases packets arrive every packet_size*8/rate microseconds of
    accumulated on time; unconsumed inter-arrival time carries over across
    off phases so the long-run offered load is rate * on/(on+off).
    """

    def __init__(self, station, spec, rng):
        self.station = station
        self.spec = spec
        self.rng = rng
        self.sim = station.sim
        self.delta_us = spec.packet_size * 8 / spec.rate_bps * 1e6
        self.owed = self.delta_us       # on-time still needed before next packet
        self.anchor = 0                 # when `owed` was last measured (on phase)
        self.phase_end = 0
        station.source = self

    def start(self):
        self._start_on()

    def on_dequeue(self):
        pass

    def _start_on(self):
        now = self.sim.now
        dur = max(1, math.ceil(draw_pareto(self.rng, self.spec.on_mean_us, self.spec.shape)))
        self.phase_end = now + dur
        self.anchor = now
        self.sim.schedule(dur, self._start_off)
        self._arm()

    def _start_off(self):
        now = self.sim.now
        self.owed -= now - self.anchor
        dur = max(1, math.ceil(draw_pareto(self.rng, self.spec.off_mean_us, self.spec.shape)))
        self.sim.schedule(dur, self._start_on)

    def _arm(self):
        delay = max(0, math.ceil(self.owed))   # ceil slack can leave owed < 0
        if self.sim.now + delay < self.phase_end:
            self.sim.schedule(delay, self._arrival)

    def _arrival(self):
        self.station.enqueue_packet()
        self.owed = self.delta_us
        self.anchor = self.sim.now
        self._arm()


def make_source(station, spec, run_seed):
    """The source ``spec`` names for ``station``.

    Only a Pareto source draws, from the station's own "traffic" substream
    of ``run_seed``; a full buffer derives none.
    """
    if spec.kind == FULL_BUFFER:
        return FullBufferSource(station)
    return ParetoOnOffSource(station, spec, substream(run_seed, station.sid, "traffic"))
