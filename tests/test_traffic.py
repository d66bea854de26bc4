"""Arrival processes: saturated refill and Pareto on/off load shaping."""

import pytest

from tokendcf import ConfigError, Simulator, TrafficSpec, substream
from tokendcf.traffic import FullBufferSource, ParetoOnOffSource, make_source

from conftest import Network


class CountingStation:
    """Minimal station stand-in for driving a source without a MAC."""

    def __init__(self, sim):
        self.sim = sim
        self.count = 0
        self.arrival_times = []
        self.source = None

    def enqueue_packet(self):
        self.count += 1
        self.arrival_times.append(self.sim.now)


def test_traffic_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(kind="poisson")
    with pytest.raises(ValueError):
        TrafficSpec(packet_size=0)
    with pytest.raises(ValueError):
        TrafficSpec(kind="pareto_on_off", shape=1.0)
    with pytest.raises(ValueError):
        TrafficSpec(kind="pareto_on_off", rate_bps=0)
    with pytest.raises(ValueError):
        TrafficSpec(kind="pareto_on_off", on_mean_us=0.0)


@pytest.mark.parametrize("kind", ["full_buffer", "pareto_on_off"])
@pytest.mark.parametrize("name", ["rate_bps", "on_mean_us", "off_mean_us", "shape"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_traffic_spec_floats_must_be_finite(kind, name, value):
    with pytest.raises(ConfigError, match=name):
        TrafficSpec(kind=kind, **{name: value})


def test_sources_keep_no_instance_dict():
    # a network builds one source per flow: their fields are slots
    sim = Simulator()
    pareto = ParetoOnOffSource(CountingStation(sim), TrafficSpec(kind="pareto_on_off"),
                               substream(1, 0, "traffic"))
    for source in (FullBufferSource(CountingStation(sim)), pareto):
        with pytest.raises(TypeError):
            vars(source)


def test_full_buffer_fills_queue_to_capacity_at_start():
    net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1)])
    FullBufferSource(net.stations[0]).start()
    assert len(net.stations[0].queue) == 50


def test_full_buffer_refills_after_dequeue():
    net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1)])
    st = net.stations[0]
    src = FullBufferSource(st)
    src.start()
    st.queue.popleft()
    src.on_dequeue()
    assert len(st.queue) == 50


def test_full_buffer_queue_stays_at_capacity_during_run():
    net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1)])
    net.saturate()
    st = net.stations[0]
    for horizon in (10_000, 20_000, 50_000):
        net.run(horizon)
        assert len(st.queue) == 50


def test_pareto_interarrival_spacing():
    spec = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e6)
    sim = Simulator()
    st = CountingStation(sim)
    src = ParetoOnOffSource(st, spec, substream(1, "traffic"))
    assert src.delta_us == 12_000.0   # 1500 * 8 bits at 1 Mbps


def test_pareto_arrivals_only_during_on_phases():
    spec = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e7,
                       on_mean_us=5_000, off_mean_us=5_000)
    sim = Simulator()
    st = CountingStation(sim)
    src = ParetoOnOffSource(st, spec, substream(5, "traffic"))
    src.start()
    sim.run_until(2_000_000)
    assert st.count > 0
    # reconstruct on-phases by regenerating the same duration draws
    rng = substream(5, "traffic")
    from tokendcf import draw_pareto
    import math
    phases = []
    t = 0
    on = True
    while t < 2_000_000:
        mean = spec.on_mean_us if on else spec.off_mean_us
        dur = max(1, math.ceil(draw_pareto(rng, mean, spec.shape)))
        if on:
            phases.append((t, t + dur))
        t += dur
        on = not on
    for at in st.arrival_times:
        assert any(lo <= at < hi for lo, hi in phases)


def test_pareto_long_run_offered_load():
    # long-run load converges to rate * on/(on+off) = 0.5 Mbps
    spec = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e6)
    sim = Simulator()
    st = CountingStation(sim)
    ParetoOnOffSource(st, spec, substream(3, "traffic")).start()
    horizon = 100_000_000   # 100 s
    sim.run_until(horizon)
    load_bps = st.count * 1500 * 8 / (horizon / 1e6)
    assert load_bps == pytest.approx(500_000, rel=0.05)


def test_pareto_credit_carries_across_off_phases():
    # with on phases much shorter than the inter-arrival time, arrivals
    # still happen once enough on-time accumulates
    spec = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e6,
                       on_mean_us=2_000, off_mean_us=2_000)
    sim = Simulator()
    st = CountingStation(sim)
    ParetoOnOffSource(st, spec, substream(11, "traffic")).start()
    sim.run_until(10_000_000)
    # ~5 s of on time at one packet per 12 ms of on time
    assert st.count > 100


def test_make_source_dispatch():
    net = Network([(0.0, 0.0), (100.0, 0.0)], [(0, 1)])
    st = net.stations[0]
    full = make_source(st, TrafficSpec(), 1)
    assert isinstance(full, FullBufferSource)
    pareto = make_source(st, TrafficSpec(kind="pareto_on_off"), 1)
    assert isinstance(pareto, ParetoOnOffSource)
    # the Pareto source draws from the station's own traffic substream
    expected = substream(1, 0, "traffic")
    assert [pareto.rng.random() for _ in range(5)] == [expected.random() for _ in range(5)]
