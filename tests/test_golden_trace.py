"""Golden-trace gate: fixed (config, seed) runs must reproduce pinned digests.

Each case runs one seeded simulation with the medium's trace on and hashes
the channel records and the run's ``MetricsReport``.  The records are hashed
in the layout they had when the table was pinned, both rebuilt from the one
stream: the trace with five-field ``end`` records (the delivered ids as a
sorted tuple, no corrupted set), then the log of finished frames.  A
refactor must leave every digest unchanged.  A change that alters behaviour
on purpose replaces the table below with the one printed on failure, re-pins
the benchmark workloads' ``sim.trace_digest`` values in CI's "Benchmark
smoke" step, and says so in CHANGES.md.
"""

import hashlib

from tokendcf import ScenarioConfig, Simulation, TrafficSpec, derive_seed

from conftest import Network, finished_frames, ids

PARETO = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e6)

# scenario name -> ScenarioConfig keywords (seed added per case)
SCENARIOS = {
    "clique20": dict(n_transmitters=20, area_side=150.0, duration_s=0.1),
    "clique100": dict(n_transmitters=100, area_side=150.0, duration_s=0.05),
    "multihop800": dict(n_transmitters=30, area_side=800.0, duration_s=0.1),
    "pareto1500": dict(n_transmitters=60, area_side=1500.0, duration_s=0.2,
                       traffic=PARETO),
}
PROTOCOLS = ("dcf", "token_dcf")
SEEDS = (1, 7919)
RUNS = (0, 1)


def _cases():
    cases = {}
    for name, kw in SCENARIOS.items():
        for protocol in PROTOCOLS:
            for seed in SEEDS:
                config = ScenarioConfig(protocol=protocol, seed=seed, **kw)
                for run in RUNS:
                    cases[f"{name}-{protocol}-s{seed}-r{run}"] = (config, run)
    config = ScenarioConfig(protocol="token_dcf", policy="backpressure", seed=1,
                            **SCENARIOS["multihop800"])
    cases["multihop800-backpressure-s1-r0"] = (config, 0)
    return cases


def run_digest(config, run_index):
    """sha256 (first 16 hex digits) of one run's trace, frame log and report."""
    trace = []
    sim = Simulation(config, derive_seed(config.seed, run_index), trace=trace)
    return trace_digest(trace, sim.run())


def trace_digest(trace, report):
    """sha256 (first 16 hex digits) of a trace, its frame log and a report."""
    digest = hashlib.sha256()
    # the pinned layout: "end" records with the delivered ids, without the corrupted set
    digest.update(repr([rec[:4] + (ids(rec[4]),) if rec[1] == "end" else rec
                        for rec in trace]).encode())
    digest.update(repr(finished_frames(trace)).encode())
    digest.update(repr(report).encode())
    return digest.hexdigest()[:16]


GOLDEN = {
    'clique20-dcf-s1-r0': '71ca83dde28c5df4',
    'clique20-dcf-s1-r1': 'c9d3164133b91f09',
    'clique20-dcf-s7919-r0': '7bbab07d5f02efae',
    'clique20-dcf-s7919-r1': 'bd426d17cdfb5998',
    'clique20-token_dcf-s1-r0': 'eec351d805981047',
    'clique20-token_dcf-s1-r1': '9906f3ea41bca6ee',
    'clique20-token_dcf-s7919-r0': '68ae9c6a812afcab',
    'clique20-token_dcf-s7919-r1': '7a2b501104b4730e',
    'clique100-dcf-s1-r0': '7c83905da38bc8b4',
    'clique100-dcf-s1-r1': 'b8344f81e6829d3a',
    'clique100-dcf-s7919-r0': '25ebc413d818b848',
    'clique100-dcf-s7919-r1': 'e164784ff1e82be5',
    'clique100-token_dcf-s1-r0': '0cf785e266d95721',
    'clique100-token_dcf-s1-r1': 'c2aeabfaf11fa40c',
    'clique100-token_dcf-s7919-r0': '92f169ee8f014e3f',
    'clique100-token_dcf-s7919-r1': '113e340b9a9d6812',
    'multihop800-dcf-s1-r0': '82e1445223f611d0',
    'multihop800-dcf-s1-r1': '577455bfcd4d5a4e',
    'multihop800-dcf-s7919-r0': 'aa51c09220387181',
    'multihop800-dcf-s7919-r1': 'aed22932e74649e6',
    'multihop800-token_dcf-s1-r0': '811844b830c1c9ad',
    'multihop800-token_dcf-s1-r1': '7b2272be9394cee6',
    'multihop800-token_dcf-s7919-r0': '417cc8923ed3e60a',
    'multihop800-token_dcf-s7919-r1': '196207a558ae4a9e',
    'pareto1500-dcf-s1-r0': 'ebb02a73e397762c',
    'pareto1500-dcf-s1-r1': 'ada5a18221d5d9bb',
    'pareto1500-dcf-s7919-r0': '1b418ec8cbb78756',
    'pareto1500-dcf-s7919-r1': 'cf691ed054ac7468',
    'pareto1500-token_dcf-s1-r0': '59bd196797f190ea',
    'pareto1500-token_dcf-s1-r1': 'e3598df57d3d41e5',
    'pareto1500-token_dcf-s7919-r0': '540838ce28e164fd',
    'pareto1500-token_dcf-s7919-r1': 'cf4fcddb51e7518c',
    # every link runs at one bit rate, so backpressure picks as LQF does
    # and this digest equals multihop800-token_dcf-s1-r0
    'multihop800-backpressure-s1-r0': '811844b830c1c9ad',
}


def test_golden_traces_unchanged():
    got = {case: run_digest(*args) for case, args in _cases().items()}
    if got != GOLDEN:
        changed = sorted(c for c in got if got[c] != GOLDEN.get(c))
        table = "".join(f"    {c!r}: {d!r},\n" for c, d in got.items())
        raise AssertionError(
            f"{len(changed)} of {len(got)} golden traces differ: {changed}\n"
            f"new digests:\nGOLDEN = {{\n{table}}}")


# Saturated two-way token flows, 0 <-> 1 and 2 <-> 3 in a 150 m square: the
# one case where addressed DATA frames reach token schedulers (every
# scenario above sends to sinks, which have none).
TWO_WAY = [(0.0, 0.0), (100.0, 0.0), (0.0, 150.0), (100.0, 150.0)]
TWO_WAY_FLOWS = [(0, 1), (1, 0), (2, 3), (3, 2)]
TWO_WAY_HORIZON_US = 50_000
TWO_WAY_GOLDEN = '94a08e89f4325f98'


def test_two_way_token_trace_unchanged():
    net = Network(TWO_WAY, TWO_WAY_FLOWS, protocol="token_dcf", trace=True)
    report = net.saturate().run(TWO_WAY_HORIZON_US)
    assert all(st.delivered > 0 for st in net.stations)
    assert trace_digest(net.trace, report) == TWO_WAY_GOLDEN
