"""Scenario configs, topology generation, run orchestration, CSV emission."""

import contextlib
import copy
import csv
import dataclasses
import gc
import re
import tracemalloc
import weakref

import pytest

from tokendcf import (DATA, ConfigError, FullBufferSource, MacParams, Metrics, Network,
                      PhyParams, ScenarioConfig, Simulation, TokenParams, TrafficSpec,
                      derive_seed, experiments, generate_topology, parse_config, run_scenario,
                      run_sweep, simulate_run)
from tokendcf.core import SimError
from tokendcf.experiments import apply_sweep_value, write_csv

from conftest import Network as PlacedNetwork


def short_config(**kwargs):
    defaults = dict(n_transmitters=3, duration_s=0.2, runs=2, seed=5)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# -- topology ---------------------------------------------------------------

def test_receiver_placed_100m_east_modulo_area():
    cfg = short_config(n_transmitters=1, area_side=150.0)
    positions, flows = generate_topology(cfg, run_seed=1)
    (tx_x, tx_y), (rx_x, rx_y) = positions
    assert rx_x == pytest.approx((tx_x + 100.0) % 150.0)
    assert rx_y == tx_y
    assert flows == [(0, 1)]


def test_receiver_wrap_examples():
    # fixed transmitter coordinates run through the same placement rule
    for (x, y), expected in [((120.0, 40.0), (70.0, 40.0)),
                             ((30.0, 90.0), (130.0, 90.0))]:
        assert ((x + 100.0) % 150.0, y) == expected


def test_transmitters_inside_area_and_flows_single_hop():
    cfg = short_config(n_transmitters=8, area_side=300.0)
    positions, flows = generate_topology(cfg, run_seed=9)
    assert len(positions) == 16
    for x, y in positions:
        assert 0.0 <= x <= 300.0 and 0.0 <= y <= 300.0
    assert flows == [(i, 8 + i) for i in range(8)]


def test_same_run_seed_same_topology():
    cfg = short_config(n_transmitters=5)
    t1, _ = generate_topology(cfg, run_seed=3)
    t2, _ = generate_topology(cfg, run_seed=3)
    assert t1 == t2
    t3, _ = generate_topology(cfg, run_seed=4)
    assert t1 != t3


def test_topology_independent_of_protocol():
    base = short_config(n_transmitters=5)
    token = dataclasses.replace(base, protocol="token_dcf")
    seed = derive_seed(base.seed, 0)
    assert generate_topology(base, seed)[0] == generate_topology(token, seed)[0]


# -- config parsing ---------------------------------------------------------

def test_empty_config_gives_all_defaults():
    cfg = parse_config("")
    assert cfg.protocol == "dcf"
    assert cfg.phy.slot_time == 9
    assert cfg.mac.cw_min == 16
    assert cfg.token.max_num == 20
    assert cfg.token.delta == 0.1
    assert cfg.token.max_p == 0.9
    assert cfg.token.period_us == 100_000
    assert cfg.duration_s == 30.0
    assert cfg.runs == 5


def test_config_overrides_and_period_seconds():
    cfg = parse_config(
        "[experiment]\nprotocol = token_dcf\nn_transmitters = 12\n"
        "duration = 5\nseed = 99\n"
        "[token]\nperiod = 0.05\nmax_p = 0.8\n"
        "[traffic]\nkind = pareto_on_off\nrate = 1e6\npacket_size = 1500\n")
    assert cfg.protocol == "token_dcf"
    assert cfg.n_transmitters == 12
    assert cfg.token.period_us == 50_000
    assert cfg.token.max_p == 0.8
    assert cfg.traffic.kind == "pareto_on_off"
    assert cfg.traffic.rate_bps == 1e6


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="routing"):
        parse_config("[routing]\nhops = 3\n")


def test_default_section_rejected():
    # configparser keeps [DEFAULT] out of sections(): its keys set nothing
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        parse_config("[DEFAULT]\nseed = 3\nruns = 2\n")


def test_key_before_any_section_rejected():
    with pytest.raises(ConfigError, match="no section headers"):
        parse_config("seed = 3\n[experiment]\nruns = 2\n")


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="jitter"):
        parse_config("[phy]\njitter = 5\n")


@pytest.mark.parametrize("text", ["1e1", "1E1", "10.0"])
def test_integer_setting_accepts_whole_number_spellings(text):
    assert parse_config(f"[experiment]\nn_transmitters = {text}\n").n_transmitters == 10


@pytest.mark.parametrize("key, malformed", [
    ("cw_min", lambda: parse_config("[mac]\ncw_min = lots\n")),
    # integer settings must be whole and finite, in a file and in a sweep
    ("cw_min", lambda: parse_config("[mac]\ncw_min = 16.9\n")),
    ("queue_capacity", lambda: parse_config("[mac]\nqueue_capacity = 2.5\n")),
    ("queue_capacity", lambda: parse_config("[mac]\nqueue_capacity = 2.5E0\n")),
    ("bit_rate", lambda: parse_config("[phy]\nbit_rate = 1e400\n")),
    ("n_transmitters", lambda: apply_sweep_value(short_config(), "n_transmitters", 2.5)),
    ("n_transmitters",
     lambda: apply_sweep_value(short_config(), "n_transmitters", float("inf"))),
    # float settings must be finite
    ("duration", lambda: parse_config("[experiment]\nduration = nan\n")),
    ("period", lambda: parse_config("[token]\nperiod = nan\n")),
    ("rate", lambda: parse_config("[traffic]\nkind = pareto_on_off\nrate = inf\n")),
    ("cs_range", lambda: parse_config("[phy]\ncs_range = nan\n")),
    ("area_side", lambda: apply_sweep_value(short_config(), "area_side", float("inf"))),
    # a sweep value the parameter set rejects is a config error too
    ("packet_size", lambda: apply_sweep_value(short_config(), "packet_size", 0)),
    # virtual time runs in whole microseconds: 0.4 us rounds to an empty run
    ("duration", lambda: parse_config("[experiment]\nduration = 4e-7\n")),
    ("duration", lambda: apply_sweep_value(short_config(), "duration_s", 4e-7)),
], ids=["cw_min-lots", "cw_min-16.9", "queue_capacity-2.5", "queue_capacity-2.5E0",
        "bit_rate-1e400",
        "sweep-n_transmitters-2.5", "sweep-n_transmitters-inf",
        "duration-nan", "period-nan", "rate-inf", "cs_range-nan",
        "sweep-area_side-inf", "sweep-packet_size-0",
        "duration-4e-7", "sweep-duration_s-4e-7"])
def test_malformed_value_rejected(key, malformed):
    with pytest.raises(ConfigError, match=key):
        malformed()


SECTIONS = {"phy": PhyParams, "mac": MacParams, "token": TokenParams,
            "traffic": TrafficSpec, "experiment": ScenarioConfig}
# field -> its config-file key where the two differ; period is set in seconds
RENAMED = {"period_us": "period", "rate_bps": "rate", "duration_s": "duration"}
OTHER_STRINGS = {"kind": "pareto_on_off", "protocol": "token_dcf",
                 "policy": "backpressure"}


def _scalar_fields():
    for sec, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            if f.type in (int, float, str):
                yield sec, f


@pytest.mark.parametrize("sec, f", list(_scalar_fields()),
                         ids=lambda x: x if isinstance(x, str) else x.name)
def test_every_field_round_trips_through_its_key(sec, f):
    default = ScenarioConfig()
    params = default if sec == "experiment" else getattr(default, sec)
    if f.type is str:
        value = OTHER_STRINGS[f.name]
    elif f.type is int:
        value = getattr(params, f.name) * 2   # period_us: 200000, set as period = 0.2
    else:
        value = getattr(params, f.name) / 2   # halved, a float stays in its range
    text = value / 1e6 if f.name == "period_us" else value
    cfg = parse_config(f"[{sec}]\n{RENAMED.get(f.name, f.name)} = {text}\n")
    changed = dataclasses.replace(params, **{f.name: value})
    if sec == "experiment":
        assert cfg == changed
    else:
        assert cfg == dataclasses.replace(default, **{sec: changed})


def test_invariant_violation_rejected():
    with pytest.raises(ConfigError):
        parse_config("[mac]\ncw_min = 0\n")


# -- runs and determinism ---------------------------------------------------

def test_run_scenario_averages_over_runs():
    row = run_scenario(short_config())
    assert len(row.reports) == 2
    avg = row.averages["throughput_bps"]
    assert avg == pytest.approx(
        sum(r.throughput_bps for r in row.reports) / 2)
    assert avg > 0


def test_identical_config_identical_results():
    cfg = short_config()
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert [dataclasses.asdict(rep) for rep in r1.reports] == \
        [dataclasses.asdict(rep) for rep in r2.reports]


def test_distinct_run_indices_distinct_topologies():
    cfg = short_config()
    assert simulate_run(cfg, 0) != simulate_run(cfg, 1)


def test_smoke_run_token_protocol():
    rep = simulate_run(short_config(protocol="token_dcf"), 0)
    assert rep.throughput_bps > 0


@pytest.mark.parametrize("n", [10, 60])
def test_token_clique_hands_each_decoded_data_frame_to_the_hook_once(n):
    # the listeners of a frame are one mask in one call, however many there are
    config = short_config(protocol="token_dcf", n_transmitters=n, area_side=150.0,
                          duration_s=0.05, runs=1)
    trace = []
    sim = Simulation(config, derive_seed(config.seed, 0), trace=trace)
    hook = sim.medium.on_data
    calls = []
    sim.medium.on_data = lambda frame, listened: (calls.append(listened), hook(frame, listened))
    sim.run()
    listeners = sum(1 << st.sid for st in sim.stations if st.scheduler is not None)
    heard = [rec[4] & listeners for rec in trace
             if rec[1] == "end" and rec[3] == DATA and rec[4] & listeners]
    assert len(heard) > 0
    assert calls == heard
    assert max(mask.bit_count() for mask in calls) == n - 1


# -- freeing finished runs --------------------------------------------------

@contextlib.contextmanager
def gc_off():
    """Only refcounting frees objects inside; earlier garbage is collected first."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["full_buffer", "pareto_on_off"])
@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
def test_finished_run_leaves_no_cyclic_garbage(protocol, kind):
    cfg = short_config(protocol=protocol, n_transmitters=10, duration_s=0.1,
                       traffic=TrafficSpec(kind=kind))
    with gc_off():
        report = simulate_run(cfg, 0)
        assert gc.collect() == 0
    assert report.delivered_packets > 0


def _traced_peak(config):
    with gc_off():
        tracemalloc.start()
        try:
            run_scenario(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_runs_of_a_scenario_do_not_pile_up():
    # each run is freed as it ends, so four runs peak about where one does
    cfg = short_config(protocol="token_dcf", n_transmitters=10, duration_s=0.1, runs=1)
    one = _traced_peak(cfg)
    four = _traced_peak(dataclasses.replace(cfg, runs=4))
    assert four < 1.5 * one


def _station_state(net):
    return [(st.enqueued, st.delivered, st.dropped_full, st.dropped_retry,
             list(st.queue), st.cw, st.retries, st.phase) for st in net.stations]


def _metrics_state(metrics):
    return {name: copy.copy(getattr(metrics, name)) for name in Metrics.__slots__}


def test_close_keeps_the_results_and_frees_the_network():
    trace = []
    net = Network(THREE, [(0, 1), (2, 1)], ScenarioConfig(protocol="token_dcf"),
                  run_seed=1, trace=trace)
    for src, _dst in net.flows:
        FullBufferSource(net.stations[src]).start()
    report = net.run(200_000)
    stations, metrics, records = _station_state(net), _metrics_state(net.metrics), list(trace)
    assert report.delivered_packets > 0 and len(records) > 0

    with gc_off():
        net.close()
        assert net.medium.on_data is None   # the DATA hook's link back to the schedulers
        assert _station_state(net) == stations
        assert _metrics_state(net.metrics) == metrics
        assert trace == records
        for enqueued, delivered, dropped_full, dropped_retry, queue, *_ in stations:
            assert enqueued == delivered + dropped_full + dropped_retry + len(queue)
        net.close()   # a second close is harmless
        assert _station_state(net) == stations
        with pytest.raises(SimError, match="closed"):
            net.run(400_000)   # its pending events are gone
        alive = weakref.ref(net), weakref.ref(net.medium)
        del net
        assert [ref() for ref in alive] == [None, None]
    assert trace == records


@pytest.mark.parametrize("protocol", ["dcf", "token_dcf"])
@pytest.mark.parametrize("pending", ["data_on_air", "ack_owed"])
def test_close_with_work_in_flight_leaves_no_cyclic_garbage(protocol, pending):
    # the horizon falls while a DATA frame is on the air, or inside the SIFS
    # before an owed ACK: its on-air record and the ACK event are still live
    reference = PlacedNetwork(THREE, [(0, 1), (2, 1)], protocol=protocol, trace=True).saturate()
    reference.run(100_000)
    reference.close()
    trace = reference.trace
    sifs = PhyParams().sifs
    acks = {(t, src) for t, what, src, kind, *_ in trace if what == "tx" and kind != DATA}
    start, src, end = next((t, src, end) for t, what, src, kind, end, dst in trace[20:]
                           if what == "tx" and kind == DATA and (end + sifs, dst) in acks)
    horizon = start + 1 if pending == "data_on_air" else end + 1
    with gc_off():
        net = PlacedNetwork(THREE, [(0, 1), (2, 1)], protocol=protocol).saturate()
        net.run(horizon)
        assert net.medium.is_transmitting(src) == (pending == "data_on_air")
        net.close()
        alive = weakref.ref(net), weakref.ref(net.medium)
        del net
        assert [ref() for ref in alive] == [None, None]
        assert gc.collect() == 0


# -- hand-placed networks ---------------------------------------------------

THREE = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]


@pytest.mark.parametrize("flows, bad", [
    ([(0, 1), (0, 2)], "(0, 2)"),    # a second destination for station 0
    ([(1, 1)], "(1, 1)"),            # a station sending to itself
    ([(0, 3)], "(0, 3)"),            # ids run 0..2
    ([(-1, 0)], "(-1, 0)"),
    ([(0, 1.0)], "(0, 1.0)"),        # ids are ints
    ([(0.0, 1)], "(0.0, 1)"),
    ([(0,)], "(0,)"),                # a flow is a pair
    ([(0, 1, 2)], "(0, 1, 2)"),
    ([5], "5"),
])
def test_network_rejects_malformed_flows(flows, bad):
    with pytest.raises(ConfigError, match=re.escape(bad)):
        Network(THREE, flows, ScenarioConfig(), run_seed=1)


@pytest.mark.parametrize("bad", [
    (float("nan"), 0.0), (0.0, float("inf")), (-float("inf"), 0.0),
    (0.0,), (0.0, 0.0, 0.0), ("0", 0.0), None,
])
def test_network_rejects_a_position_that_is_no_finite_pair(bad):
    # a nan x would leave the neighbour tables' x order undefined
    positions = THREE + [bad]
    with pytest.raises(ConfigError, match=re.escape(f"station 3 is at {bad!r}")):
        Network(positions, [(0, 1)], ScenarioConfig(), run_seed=1)


def test_network_takes_shared_destinations_and_two_way_flows():
    net = Network(THREE, [(0, 1), (2, 1), (1, 0)], ScenarioConfig(), run_seed=1)
    assert [st.dst for st in net.stations] == [1, 0, 1]


# -- sweeps and CSV ---------------------------------------------------------

def test_apply_sweep_value_known_params():
    cfg = short_config()
    assert apply_sweep_value(cfg, "n_transmitters", 7).n_transmitters == 7
    assert apply_sweep_value(cfg, "packet_size", 1500).traffic.packet_size == 1500
    assert apply_sweep_value(cfg, "rate", 1e6).traffic.rate_bps == 1e6
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, "protocol", "dcf")


def test_sweep_rows_cover_values_times_protocols(tmp_path):
    cfg = short_config(runs=1, duration_s=0.1)
    rows = run_sweep(cfg, "n_transmitters", [2, 3], out_dir=str(tmp_path))
    assert [(r.n_tx, r.protocol) for r in rows] == [
        (2, "dcf"), (2, "token_dcf"), (3, "dcf"), (3, "token_dcf")]
    assert (tmp_path / "results.csv").exists()
    for metric in ("throughput_bps", "idle_slots"):
        for proto in ("dcf", "token_dcf"):
            path = tmp_path / f"{metric}_{proto}.dat"
            lines = path.read_text().strip().splitlines()
            assert len(lines) == 2
            assert all(len(line.split()) == 2 for line in lines)


@pytest.mark.parametrize("blocked", ["afile/x", "results.csv", "drops_token_dcf.dat"])
def test_sweep_checks_its_outputs_before_the_first_run(tmp_path, monkeypatch, blocked):
    # a file above out_dir used to raise NotADirectoryError only after every run
    (tmp_path / "afile").write_text("")
    if blocked == "afile/x":
        out_dir = tmp_path / "afile" / "x"
    else:
        out_dir = tmp_path / "out"
        (out_dir / blocked).mkdir(parents=True)   # a directory where a file goes
    runs = []
    monkeypatch.setattr(experiments, "simulate_run",
                        lambda *args: (runs.append(args), simulate_run(*args))[1])
    with pytest.raises(OSError):
        run_sweep(short_config(runs=1, duration_s=0.05), "n_transmitters", [2, 3],
                  out_dir=str(out_dir))
    assert runs == []


def test_empty_sweep_rejected():
    with pytest.raises(ConfigError):
        run_sweep(short_config(), "n_transmitters", [])


def test_csv_round_trip(tmp_path):
    cfg = short_config(runs=2, duration_s=0.1)
    row = run_scenario(cfg, scenario_id="demo")
    path = tmp_path / "results.csv"
    write_csv(str(path), [row])
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 3   # two runs plus the average row
    assert records[-1]["run"] == "avg"
    assert float(records[-1]["throughput_bps"]) == row.averages["throughput_bps"]
    per_run = [float(r["throughput_bps"]) for r in records[:2]]
    assert per_run == [rep.throughput_bps for rep in row.reports]


def test_csv_writes_a_missing_metric_as_an_empty_cell(tmp_path):
    # 1 us of virtual time: nothing is delivered, so the delay is None
    row = run_scenario(short_config(runs=1, duration_s=1e-6))
    assert row.reports[0].access_delay_us is None
    path = tmp_path / "results.csv"
    write_csv(str(path), [row])
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert [r["access_delay_us"] for r in records] == ["", ""]


@pytest.mark.parametrize("name", ["area_side", "duration_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_scenario_config_floats_must_be_finite(name, value):
    # an infinite duration used to escape as OverflowError from the rounding
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: value})


def test_infinite_pareto_rate_rejected_before_the_run():
    # it used to pass, and the run then never advanced virtual time
    with pytest.raises(ConfigError, match="rate_bps"):
        run_scenario(short_config(traffic=TrafficSpec(kind="pareto_on_off",
                                                      rate_bps=float("inf"))))


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(protocol="csma")
    with pytest.raises(ConfigError):
        ScenarioConfig(n_transmitters=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(runs=0)
    with pytest.raises(ConfigError, match="area_side"):
        ScenarioConfig(area_side=0.0)
