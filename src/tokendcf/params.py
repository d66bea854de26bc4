"""Protocol parameter sets with the 802.11g-style defaults used throughout."""

import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    pass


def require_finite(params, *names):
    """Raise ConfigError naming the first of ``params``' fields that is nan or infinite."""
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ConfigError(f"{name} must be finite, not {getattr(params, name)!r}")


def require_ints(params):
    """Raise ConfigError naming the first int field of ``params`` that holds no int.

    A float there, whole or not, would carry float microseconds, bytes or
    counts into integer virtual time and the trace.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type is int and not isinstance(value, int):
            raise ConfigError(f"{f.name} must be an int, not {value!r}")


@dataclass(frozen=True)
class PhyParams:
    """Channel timing and radio geometry.  Durations in microseconds.

    ``difs`` is derived, SIFS + 2 slot times (IEEE 802.11-2012, 9.3.2.3), so a SIFS
    access starts before any backoff; passing ``difs`` or a ``[phy] difs`` key fails.
    """

    slot_time: int = 9
    sifs: int = 10
    preamble: int = 16
    bit_rate: int = 54_000_000
    tx_range: float = 250.0
    cs_range: float = 550.0

    @property
    def difs(self):
        return self.sifs + 2 * self.slot_time

    def __post_init__(self):
        require_ints(self)
        if min(self.slot_time, self.sifs, self.preamble) <= 0:
            raise ConfigError("phy intervals must be positive")
        if self.bit_rate <= 0:
            raise ConfigError("bit_rate must be positive")
        require_finite(self, "tx_range", "cs_range")
        if self.tx_range <= 0 or self.cs_range <= 0:
            raise ConfigError("ranges must be positive")
        if self.tx_range > self.cs_range:
            raise ConfigError("tx_range must not exceed cs_range")


@dataclass(frozen=True)
class MacParams:
    cw_min: int = 16
    cw_max: int = 1024
    queue_capacity: int = 50
    retry_limit: int = 7
    data_header_bytes: int = 34
    ack_header_bytes: int = 14
    # queue-length + privileged-id fields added to data headers by the token MAC
    sched_header_bytes: int = 4
    ack_timeout_guard: int = 20

    def __post_init__(self):
        require_ints(self)
        if self.cw_min < 1:
            raise ConfigError("cw_min must be >= 1")
        if self.cw_max < self.cw_min:
            raise ConfigError("cw_max must be >= cw_min")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.retry_limit < 0:
            raise ConfigError("retry_limit must be >= 0")
        if min(self.data_header_bytes, self.ack_header_bytes) <= 0:
            raise ConfigError("header sizes must be positive")
        if self.sched_header_bytes < 0:
            raise ConfigError("sched_header_bytes must be >= 0")
        # a zero guard fires the timeout at the instant the ACK ends, ahead of it
        if self.ack_timeout_guard < 1:
            raise ConfigError("ack_timeout_guard must be >= 1")


@dataclass(frozen=True)
class TokenParams:
    """The Adapt controller of Token-DCF and its periodic reset.

    Provenance of each default: the paper's abstract (the only part of the
    paper at hand) states no value, and no source for any of them is known.
    Each has been the default since the simulator's first version.

    - ``period_us`` = 100 ms, between resets of ``p`` and the known
      sources: no source known.  Results depend strongly on it (ROADMAP
      item 9).
    - ``max_num`` = 20, the events in one Adapt window: no source known.
    - ``min_ratio`` = 0.2 and ``max_ratio`` = 0.8, the shares of events from
      known sources that lower or raise ``p``: no source known.
    - ``delta`` = 0.1, the step of ``p``: no source known.
    - ``max_p`` = 0.9, the cap on ``p``: no source known; it must stay
      below 1.

    A changed default changes every Token-DCF trace and needs a cited source.
    """

    min_ratio: float = 0.2
    max_ratio: float = 0.8
    max_num: int = 20
    delta: float = 0.1
    max_p: float = 0.9
    period_us: int = 100_000

    def __post_init__(self):
        require_ints(self)
        if not 0.0 <= self.min_ratio < self.max_ratio <= 1.0:
            raise ConfigError("need 0 <= min_ratio < max_ratio <= 1")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("delta must be in (0, 1]")
        if not 0.0 <= self.max_p < 1.0:
            raise ConfigError("max_p must be in [0, 1)")
        if self.delta > self.max_p and self.max_p > 0.0:
            raise ConfigError("delta must not exceed max_p")
        if self.max_num < 1:
            raise ConfigError("max_num must be >= 1")
        if self.period_us <= 0:
            raise ConfigError("period must be positive")
