"""The headline numbers of a run, from the counters each layer keeps."""

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricsReport:
    """The headline numbers of one run over ``horizon_us`` µs.

    - ``throughput_bps``: payload bits delivered over the horizon.
    - ``access_delay_us``: the mean, over ACKed packets, of the time from
      queue arrival to the ACK, queueing included; None without one.
    - ``idle_slots``: the mean idle gap, in slots, per access that opens or
      co-starts a busy period; None without one.
    - ``collision_freq``: ACK timeouts over DATA attempts, so lost ACKs
      count too; None without an attempt.
    - ``delivered_packets``, ``drops``: packets ACKed, and lost to a full queue or retries.
    - ``busy_time_us``: the union of airtime.
    """

    horizon_us: int
    throughput_bps: float
    access_delay_us: float | None
    idle_slots: float | None
    collision_freq: float | None
    delivered_packets: int
    drops: int
    busy_time_us: int


def summarize(stations, medium, horizon_us):
    """The report of a run: the counters of ``stations`` and of their ``medium``."""
    if horizon_us <= 0:
        raise ValueError("horizon must be positive")
    delivered = sum(st.delivered for st in stations)
    attempts = sum(st.attempts for st in stations)
    delivered_bits = sum(8 * st.payload_bytes * st.delivered for st in stations)
    idle_count = medium.idle_count
    return MetricsReport(
        horizon_us=horizon_us,
        throughput_bps=delivered_bits / horizon_us * 1e6,
        access_delay_us=sum(st.delay_sum for st in stations) / delivered if delivered else None,
        idle_slots=medium.idle_us / idle_count / medium.phy.slot_time if idle_count else None,
        collision_freq=sum(st.failures for st in stations) / attempts if attempts else None,
        delivered_packets=delivered,
        drops=sum(st.dropped_full + st.dropped_retry for st in stations),
        busy_time_us=medium.busy_us,
    )
