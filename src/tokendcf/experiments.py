"""Scenario configuration, topology generation, run orchestration, CSV output."""

import configparser
import csv
import dataclasses
import io
import os
from dataclasses import dataclass, field

from .core import Simulator, derive_seed, substream
from .mac import Station
from .medium import Medium
from .metrics import Metrics, summarize
from .params import ConfigError, MacParams, PhyParams, TokenParams
from .token import TokenScheduler
from .traffic import FULL_BUFFER, PARETO_ON_OFF, TrafficSpec, make_source

PROTOCOLS = ("dcf", "token_dcf")
# Grant policies.  Every link runs at phy.bit_rate, so the backpressure weight
# queue x rate is a positive multiple of the queue and picks what LQF picks:
# both names run the same longest-queue-first scheduler.
POLICIES = ("lqf", "backpressure")

SINGLE_HOP_OFFSET = 100.0   # receiver sits 100 m east of its transmitter, wrapped


@dataclass(frozen=True)
class ScenarioConfig:
    protocol: str = "dcf"
    policy: str = "lqf"
    n_transmitters: int = 20
    area_side: float = 150.0
    duration_s: float = 30.0
    runs: int = 5
    seed: int = 1
    phy: PhyParams = field(default_factory=PhyParams)
    mac: MacParams = field(default_factory=MacParams)
    token: TokenParams = field(default_factory=TokenParams)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}")
        if self.n_transmitters < 1:
            raise ConfigError("n_transmitters must be >= 1")
        if self.area_side <= 0:
            raise ConfigError("area_side must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")

    @property
    def packet_size(self):
        return self.traffic.packet_size


# -- config files ----------------------------------------------------------

def _as_int(text):
    return int(float(text)) if ("e" in text or "." in text) else int(text)


_SCHEMA = {
    "phy": {
        "slot_time": _as_int, "sifs": _as_int, "difs": _as_int, "preamble": _as_int,
        "bit_rate": _as_int, "tx_range": float, "cs_range": float,
    },
    "mac": {
        "cw_min": _as_int, "cw_max": _as_int, "queue_capacity": _as_int,
        "retry_limit": _as_int, "data_header_bytes": _as_int,
        "ack_header_bytes": _as_int, "sched_header_bytes": _as_int,
        "ack_timeout_guard": _as_int,
    },
    "token": {
        "min_ratio": float, "max_ratio": float, "max_num": _as_int,
        "delta": float, "max_p": float, "period": float,   # period in seconds
    },
    "traffic": {
        "kind": str, "packet_size": _as_int, "rate": float,
        "on_mean_us": float, "off_mean_us": float, "shape": float,
    },
    "experiment": {
        "protocol": str, "policy": str, "n_transmitters": _as_int,
        "area_side": float, "duration": float, "runs": _as_int, "seed": _as_int,
    },
}

_KEY_RENAME = {
    ("token", "period"): "period_us",
    ("traffic", "rate"): "rate_bps",
    ("experiment", "duration"): "duration_s",
}


def parse_config(source):
    """Build a ScenarioConfig from INI-style text or a file path.

    Unspecified keys take the protocol defaults; unknown sections or keys are
    rejected with the offending name.
    """
    cp = configparser.ConfigParser()
    try:
        cp.read_file(io.StringIO(source))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    values = {sec: {} for sec in _SCHEMA}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in cp.items(sec):
            conv = _SCHEMA[sec].get(key)
            if conv is None:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            try:
                val = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"malformed value for [{sec}] {key}: {raw!r}") from exc
            if (sec, key) == ("token", "period"):
                val = int(round(val * 1e6))
            values[sec][_KEY_RENAME.get((sec, key), key)] = val

    try:
        phy = PhyParams(**values["phy"])
        mac = MacParams(**values["mac"])
        token = TokenParams(**values["token"])
        traffic = TrafficSpec(**values["traffic"])
        return ScenarioConfig(phy=phy, mac=mac, token=token, traffic=traffic,
                              **values["experiment"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


# -- topology --------------------------------------------------------------

def generate_topology(config, run_seed):
    """(positions, flows) for one run.

    Transmitters (ids 0..n-1) go uniformly at random in the square;
    receiver i (id n+i) sits at ((x + 100) mod d, y).  Flows are single hop:
    transmitter i sends to receiver n+i.
    """
    rng = substream(run_seed, "topology")
    d = config.area_side
    n = config.n_transmitters
    positions = []
    for _ in range(n):
        positions.append((rng.uniform(0.0, d), rng.uniform(0.0, d)))
    for x, y in list(positions):
        positions.append(((x + SINGLE_HOP_OFFSET) % d, y))
    flows = [(i, n + i) for i in range(n)]
    return positions, flows


# -- running ---------------------------------------------------------------

class Simulation:
    """One fully-wired run: event loop, medium, stations, traffic, metrics."""

    def __init__(self, config, run_seed, trace=None):
        self.config = config
        self.run_seed = run_seed
        self.sim = Simulator()
        self.metrics = Metrics()
        self.positions, self.flows = generate_topology(config, run_seed)
        self.medium = Medium(self.sim, self.positions, self.metrics, trace=trace,
                             phy=config.phy)
        self.stations = []
        self.sources = []
        use_token = config.protocol == "token_dcf"
        n = config.n_transmitters
        for tx_id, rx_id in self.flows:
            scheduler = None
            if use_token:
                scheduler = TokenScheduler(tx_id, self.sim, config.token,
                                           substream(run_seed, tx_id, "sched"))
            st = Station(
                tx_id, self.sim, self.medium, config.phy, config.mac, self.metrics,
                rng=substream(run_seed, tx_id, "backoff"),
                dst=rx_id, payload_bytes=config.traffic.packet_size,
                scheduler=scheduler,
            )
            self.stations.append(st)
        for i in range(n):
            sink = Station(n + i, self.sim, self.medium, config.phy, config.mac,
                           self.metrics)
            self.stations.append(sink)
        self.medium.bind(self.stations)
        for st in self.stations[:n]:
            src = make_source(st, config.traffic,
                              substream(run_seed, st.sid, "traffic"))
            self.sources.append(src)

    def run(self):
        for src in self.sources:
            src.start()
        horizon = int(round(self.config.duration_s * 1e6))
        self.sim.run_until(horizon)
        return summarize(self.metrics, horizon, self.config.phy.slot_time)


def simulate_run(config, run_index, trace=None):
    run_seed = derive_seed(config.seed, run_index)
    sim = Simulation(config, run_seed, trace=trace)
    return sim.run()


# -- result rows and sweeps ------------------------------------------------

_METRIC_FIELDS = ("throughput_bps", "access_delay_us", "idle_slots",
                  "collision_freq", "drops")


@dataclass
class ResultRow:
    scenario_id: str
    protocol: str
    n_tx: int
    area: float
    pkt_size: int
    reports: list
    averages: dict


def _average(reports):
    avg = {}
    for name in _METRIC_FIELDS:
        vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        avg[name] = sum(vals) / len(vals) if vals else None
    return avg


def run_scenario(config, scenario_id=None):
    """Execute ``config.runs`` independent seeded runs and average them."""
    reports = [simulate_run(config, i) for i in range(config.runs)]
    return ResultRow(
        scenario_id=scenario_id or f"n={config.n_transmitters}",
        protocol=config.protocol,
        n_tx=config.n_transmitters,
        area=config.area_side,
        pkt_size=config.traffic.packet_size,
        reports=reports,
        averages=_average(reports),
    )


def apply_sweep_value(config, param, value):
    if param == "packet_size":
        traffic = dataclasses.replace(config.traffic, packet_size=int(value))
        return dataclasses.replace(config, traffic=traffic)
    if param == "rate":
        traffic = dataclasses.replace(config.traffic, rate_bps=float(value))
        return dataclasses.replace(config, traffic=traffic)
    if param in ("n_transmitters", "runs", "seed"):
        return dataclasses.replace(config, **{param: int(value)})
    if param in ("area_side", "duration_s"):
        return dataclasses.replace(config, **{param: float(value)})
    raise ConfigError(f"cannot sweep over parameter '{param}'")


def run_sweep(base_config, param, values, out_dir=None):
    """Cartesian product of sweep values and both protocols, in fixed order."""
    if not values:
        raise ConfigError("sweep value list is empty")
    rows = []
    for value in values:
        for protocol in PROTOCOLS:
            cfg = dataclasses.replace(
                apply_sweep_value(base_config, param, value), protocol=protocol)
            rows.append((value, run_scenario(cfg, scenario_id=f"{param}={value}")))
    if out_dir is not None:
        write_csv(os.path.join(out_dir, "results.csv"), [row for _, row in rows])
        write_plot_data(out_dir, param, rows)
    return [row for _, row in rows]


CSV_COLUMNS = ("scenario_id", "protocol", "n_tx", "area", "pkt_size", "run",
               "throughput_bps", "access_delay_us", "idle_slots",
               "collision_freq", "drops")


def write_csv(path, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            base = (row.scenario_id, row.protocol, row.n_tx, row.area, row.pkt_size)
            for i, rep in enumerate(row.reports):
                writer.writerow(base + (i,) + tuple(
                    _fmt(getattr(rep, name)) for name in _METRIC_FIELDS))
            writer.writerow(base + ("avg",) + tuple(
                _fmt(row.averages[name]) for name in _METRIC_FIELDS))


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def write_plot_data(out_dir, param, value_rows):
    """One two-column file per (metric, protocol): sweep value vs average."""
    os.makedirs(out_dir, exist_ok=True)
    for metric in _METRIC_FIELDS:
        for protocol in PROTOCOLS:
            path = os.path.join(out_dir, f"{metric}_{protocol}.dat")
            with open(path, "w") as fh:
                for value, row in value_rows:
                    if row.protocol != protocol:
                        continue
                    avg = row.averages[metric]
                    fh.write(f"{value} {'nan' if avg is None else avg}\n")
