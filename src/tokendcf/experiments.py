"""Scenario configuration, topology generation, run orchestration, CSV output."""

import configparser
import csv
import dataclasses
import errno
import io
import math
import os
from dataclasses import dataclass, field
from functools import partial

from . import metrics
from .core import Simulator, derive_seed, substream
from .mac import Station
from .medium import Medium
from .params import (ConfigError, MacParams, PhyParams, TokenParams, require_finite,
                     require_ints)
from .token import TokenScheduler, overhear, start_period_clock
from .traffic import TrafficSpec, make_source

PROTOCOLS = ("dcf", "token_dcf")
# Grant policies: the one longest-queue-first scheduler.  The ``policy`` field
# stays only because the benchmark's workloads pass policy="lqf".
POLICIES = ("lqf",)

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
        require_ints(self)
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}")
        if self.n_transmitters < 1:
            raise ConfigError("n_transmitters must be >= 1")
        require_finite(self, "area_side", "duration_s")
        if self.area_side <= 0:
            raise ConfigError("area_side must be positive")
        if not self.duration_s > 0 or self.horizon_us < 1:
            raise ConfigError(f"duration must round to at least 1 us, not {self.duration_s!r} s")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")

    @property
    def horizon_us(self):
        """The run length in whole microseconds of virtual time."""
        return round(self.duration_s * 1e6)

    @property
    def packet_size(self):
        return self.traffic.packet_size


# -- config files and sweeps -----------------------------------------------

def _as_int(value):
    """An int from a whole, finite number or its text; ValueError otherwise."""
    if isinstance(value, int) or (isinstance(value, str) and not any(c in value for c in ".eE")):
        return int(value)
    num = float(value)
    if not num.is_integer():   # also False for inf and nan
        raise ValueError(f"not a whole number: {value!r}")
    return int(num)


def _convert(name, conv, value):
    try:
        return conv(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed value for {name}: {value!r}") from exc


# INI section -> the parameter set it fills; [experiment] fills ScenarioConfig's
# own scalar fields.  Each key is the field name, converted by the field's type,
# except for the renamed keys below.
_SECTIONS = {"phy": PhyParams, "mac": MacParams, "token": TokenParams,
             "traffic": TrafficSpec, "experiment": ScenarioConfig}
# finiteness and ranges are checked by the parameter sets themselves
_CONVERTERS = {int: _as_int, float: float, str: str}
_RENAMED = {   # (section, field) -> (key, converter)
    ("token", "period_us"): ("period", lambda v: round(float(v) * 1e6)),   # seconds
    ("traffic", "rate_bps"): ("rate", float),
    ("experiment", "duration_s"): ("duration", float),
}


def _key_table(sec, cls):
    """key -> (field, converter) for one section."""
    table = {}
    for f in dataclasses.fields(cls):
        if f.type in _CONVERTERS:
            key, conv = _RENAMED.get((sec, f.name), (f.name, _CONVERTERS[f.type]))
            table[key] = (f.name, conv)
    return table


_KEYS = {sec: _key_table(sec, cls) for sec, cls in _SECTIONS.items()}

# sweep parameter -> the (section, key) of the config file it overrides
_SWEEPS = {
    "packet_size": ("traffic", "packet_size"), "rate": ("traffic", "rate"),
    "n_transmitters": ("experiment", "n_transmitters"), "runs": ("experiment", "runs"),
    "seed": ("experiment", "seed"), "area_side": ("experiment", "area_side"),
    "duration_s": ("experiment", "duration"),
}


def _build(base, values):
    """``base`` with ``{section: {field: value}}`` applied; each new set validates itself."""
    nested = {sec: dataclasses.replace(getattr(base, sec), **fields)
              for sec, fields in values.items() if sec != "experiment"}
    return dataclasses.replace(base, **nested, **values.get("experiment", {}))


def parse_config(source):
    """Build a ScenarioConfig from INI-style text.

    Unspecified keys take the protocol defaults; unknown sections or keys,
    and keys in a [DEFAULT] section, are rejected with the offending name.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        cp.read_file(io.StringIO(source))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    if cp.defaults():
        # its keys would reach every other section, or no setting at all
        raise ConfigError(f"section [{cp.default_section}] is not supported "
                          f"(keys: {', '.join(cp.defaults())})")
    values = {}
    for sec in cp.sections():
        if sec not in _KEYS:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in _KEYS[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            field_name, conv = _KEYS[sec][key]
            values.setdefault(sec, {})[field_name] = _convert(f"[{sec}] {key}", conv, raw)
    return _build(ScenarioConfig(), values)


def load_config(path):
    """Build a ScenarioConfig from the UTF-8 config file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    return parse_config(text)


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

def _check_positions(positions):
    """Reject a position that is not a pair of finite numbers.

    The neighbour tables sweep the stations in x order, and a nan leaves
    that order undefined.
    """
    for sid, position in enumerate(positions):
        try:
            x, y = position
            finite = math.isfinite(x) and math.isfinite(y)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ConfigError(f"station {sid} is at {position!r}, not at a pair of finite numbers")


def _check_flows(positions, flows):
    """Reject a malformed flow.

    A flow is a pair of two distinct int station ids, and a station is the
    source of at most one flow, since a sender has one destination.
    """
    ids = range(len(positions))
    sources = set()
    for flow in flows:
        if not (isinstance(flow, (tuple, list)) and len(flow) == 2
                and all(isinstance(sid, int) for sid in flow)):
            raise ConfigError(f"flow {flow!r} is not a pair of int station ids")
        src, dst = flow
        if src not in ids or dst not in ids:
            raise ConfigError(f"flow {flow!r} names a station outside ids 0..{len(ids) - 1}")
        if src == dst:
            raise ConfigError(f"flow {flow!r} sends from a station to itself")
        if src in sources:
            raise ConfigError(f"flow {flow!r} repeats source {src}: a station sends on one flow")
        sources.add(src)


class Network:
    """Stations at hand-placed ``positions`` wired for one run.

    Owns the event loop, the medium and the stations, indexed by id.  The
    source of each ``(src, dst)`` flow is a sender to ``dst``, with a token
    scheduler under ``token_dcf``; every other id is a plain station.  Each
    station draws from its own substreams of ``run_seed``.
    """

    def __init__(self, positions, flows, config, run_seed, trace=None):
        _check_positions(positions)
        _check_flows(positions, flows)
        self.config = config
        self.positions = positions
        self.flows = flows
        self.sim = Simulator()
        self.medium = Medium(self.sim, positions, trace=trace, phy=config.phy)
        dsts = dict(flows)
        use_token = config.protocol == "token_dcf"
        self.stations = []
        for sid in range(len(positions)):
            if sid not in dsts:
                st = Station(sid, self.sim, self.medium, config.mac)
            else:
                scheduler = None
                if use_token:
                    scheduler = TokenScheduler(sid, config.token, substream(run_seed, sid, "sched"))
                st = Station(
                    sid, self.sim, self.medium, config.mac,
                    rng=substream(run_seed, sid, "backoff"),
                    dst=dsts[sid], payload_bytes=config.traffic.packet_size,
                    scheduler=scheduler,
                )
            self.stations.append(st)
        schedulers = [st.scheduler for st in self.stations if st.scheduler is not None]
        if schedulers:   # one event resets them all, in ascending sid
            start_period_clock(self.sim, schedulers, config.token.period_us)
        self.medium.bind(self.stations)
        if use_token:   # the flow sources, each with a scheduler, take every decoded header
            self.medium.listen(sum(1 << src for src in dsts),
                               partial(overhear, [st.scheduler for st in self.stations],
                                       self.medium.withdraw_access, {}))

    def run(self, horizon_us):
        """Run the event loop to ``horizon_us`` and report the run so far."""
        self.sim.run_until(horizon_us)
        # via metrics: a summarize bound here would get perfbench/layers.py's hook, which raises
        return metrics.summarize(self.stations, self.medium, horizon_us)

    def close(self):
        """Break the run's reference cycles, so that dropping the network frees it.

        The pending events, the medium's station table, DATA hook (holding the
        medium's ``withdraw_access``) and frame-end events, and each station's source
        and ACK events tie the run's objects into cycles only a ``gc`` pass frees.
        The station and medium counters, the queues and the trace stay
        readable.  The pending events are dropped, so a closed network must
        not be run again: ``run`` raises.  Closing twice is harmless.
        """
        self.sim.close()
        self.medium.close()
        for st in self.stations:
            st.close()


class Simulation(Network):
    """One generated run: the config's topology, its traffic sources, its horizon."""

    def __init__(self, config, run_seed, trace=None):
        positions, flows = generate_topology(config, run_seed)
        super().__init__(positions, flows, config, run_seed, trace=trace)
        self.sources = [make_source(self.stations[src], config.traffic, run_seed)
                        for src, _dst in flows]

    def run(self):
        for src in self.sources:
            src.start()
        return super().run(self.config.horizon_us)


def simulate_run(config, run_index, trace=None):
    run_seed = derive_seed(config.seed, run_index)
    sim = Simulation(config, run_seed, trace=trace)
    try:
        return sim.run()
    finally:
        sim.close()   # the run is freed as soon as it is dropped


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
    if param not in _SWEEPS:
        raise ConfigError(f"cannot sweep over parameter '{param}'")
    sec, key = _SWEEPS[param]
    field_name, conv = _KEYS[sec][key]
    return _build(config, {sec: {field_name: _convert(param, conv, value)}})


def run_sweep(base_config, param, values, out_dir=None):
    """Cartesian product of sweep values and both protocols, in fixed order."""
    if not values:
        raise ConfigError("sweep value list is empty")
    # every value, and the output directory, is checked before the first run
    configs = [apply_sweep_value(base_config, param, value) for value in values]
    if out_dir is not None:
        prepare_out_dir(out_dir, sweep=True)
    rows = []
    for value, config in zip(values, configs):
        for protocol in PROTOCOLS:
            cfg = dataclasses.replace(config, protocol=protocol)
            rows.append((value, run_scenario(cfg, scenario_id=f"{param}={value}")))
    if out_dir is not None:
        write_csv(os.path.join(out_dir, "results.csv"), [row for _, row in rows])
        write_plot_data(out_dir, param, rows)
    return [row for _, row in rows]


def prepare_out_dir(out_dir, sweep=False):
    """Make ``out_dir``, or raise OSError where a directory there has an output file's name.

    Callers check it before the first run, so that an unusable output costs no run.
    """
    os.makedirs(out_dir, exist_ok=True)
    plots = [_plot_file(m, p) for m in _METRIC_FIELDS for p in PROTOCOLS] if sweep else []
    for path in (os.path.join(out_dir, name) for name in ["results.csv"] + plots):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _plot_file(metric, protocol):
    return f"{metric}_{protocol}.dat"


CSV_COLUMNS = ("scenario_id", "protocol", "n_tx", "area", "pkt_size", "run") + _METRIC_FIELDS


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
            path = os.path.join(out_dir, _plot_file(metric, protocol))
            with open(path, "w") as fh:
                for value, row in value_rows:
                    if row.protocol != protocol:
                        continue
                    avg = row.averages[metric]
                    fh.write(f"{value} {'nan' if avg is None else avg}\n")
