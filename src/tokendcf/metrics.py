"""Per-run metric accumulation and the derived headline numbers."""

from dataclasses import dataclass


class Metrics:
    """Raw counters filled in by the MAC layer and the medium during a run.

    Deliveries and drops are counted once, by each station.
    """

    __slots__ = ("access_delays", "tx_attempts", "tx_failures", "idle_gaps", "busy_time")

    def __init__(self):
        self.access_delays = []   # us, one per ACKed packet
        self.tx_attempts = 0
        self.tx_failures = 0
        self.idle_gaps = []       # us of channel idle before each access
        self.busy_time = 0


@dataclass(frozen=True)
class MetricsReport:
    horizon_us: int
    throughput_bps: float
    access_delay_us: float | None
    idle_slots: float | None
    collision_freq: float | None
    delivered_packets: int
    drops: int
    busy_time_us: int


def summarize(metrics, stations, horizon_us, slot_time):
    """The report of a run: ``metrics``, plus the deliveries and drops ``stations`` counted."""
    if horizon_us <= 0:
        raise ValueError("horizon must be positive")
    delays = metrics.access_delays
    gaps = metrics.idle_gaps
    delivered_bits = sum(8 * st.payload_bytes * st.delivered for st in stations)
    return MetricsReport(
        horizon_us=horizon_us,
        throughput_bps=delivered_bits / horizon_us * 1e6,
        access_delay_us=sum(delays) / len(delays) if delays else None,
        idle_slots=sum(gaps) / len(gaps) / slot_time if gaps else None,
        collision_freq=metrics.tx_failures / metrics.tx_attempts if metrics.tx_attempts else None,
        delivered_packets=len(delays),
        drops=sum(st.dropped_full + st.dropped_retry for st in stations),
        busy_time_us=metrics.busy_time,
    )

