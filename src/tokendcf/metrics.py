"""Per-run metric accumulation and the derived headline numbers."""

from dataclasses import dataclass


class Metrics:
    """Raw counters filled in by the MAC layer and the medium during a run."""

    __slots__ = (
        "delivered_bits", "access_delays", "tx_attempts", "tx_failures",
        "idle_gaps", "busy_time", "drops",
    )

    def __init__(self):
        self.delivered_bits = 0
        self.access_delays = []   # us, one per ACKed packet
        self.tx_attempts = 0
        self.tx_failures = 0
        self.idle_gaps = []       # us of channel idle before each access
        self.busy_time = 0
        self.drops = 0


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


def summarize(metrics, horizon_us, slot_time=9):
    if horizon_us <= 0:
        raise ValueError("horizon must be positive")
    delays = metrics.access_delays
    gaps = metrics.idle_gaps
    return MetricsReport(
        horizon_us=horizon_us,
        throughput_bps=metrics.delivered_bits / horizon_us * 1e6,
        access_delay_us=sum(delays) / len(delays) if delays else None,
        idle_slots=sum(gaps) / len(gaps) / slot_time if gaps else None,
        collision_freq=metrics.tx_failures / metrics.tx_attempts if metrics.tx_attempts else None,
        delivered_packets=len(delays),
        drops=metrics.drops,
        busy_time_us=metrics.busy_time,
    )

