"""The benchmark's workloads: seeded scenarios run through the public API.

Each workload is a ``ScenarioConfig`` whose ``seed`` is the benchmark's
``--seed``; one repetition is one ``run_scenario(config)`` call over its
``runs`` seeded runs.  Every workload has at least two runs, so that running
runs in parallel could show in ``wall_s`` on a 2-core host.  Why each one is
in the benchmark is recorded in BENCHMARK.json and README.md.
"""

from tokendcf import ScenarioConfig, TrafficSpec

WORKLOADS = {
    "clique-sat-token": dict(
        protocol="token_dcf", policy="lqf", n_transmitters=20, area_side=150.0,
        duration_s=0.5, runs=2, traffic=TrafficSpec(packet_size=500)),
    # 0.5 s runs keep the start-up transient's pull on collision_freq (and so
    # on the Bianchi error) small next to the steady state
    "clique-sat-dcf-n100": dict(
        protocol="dcf", n_transmitters=100, area_side=150.0,
        duration_s=0.5, runs=2, traffic=TrafficSpec(packet_size=500)),
    # eight short runs: averaging over topologies keeps the work per
    # repetition within a few percent from one seed to the next
    "multihop-pareto-token": dict(
        protocol="token_dcf", policy="lqf", n_transmitters=100, area_side=1500.0,
        duration_s=0.25, runs=8,
        traffic=TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e6)),
}


def workload_config(name, seed):
    """The workload's ScenarioConfig for the given workload seed."""
    return ScenarioConfig(seed=seed, **WORKLOADS[name])
