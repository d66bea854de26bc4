"""The tokendcf benchmark: host cost of three MAC scenarios.

Run from the repository root:

    python3 perfbench/run.py --workload clique-sat-token --seed 1 --seconds 30 --trace 0

The load is a closed batch in one process: repetition after repetition of one
``tokendcf.run_scenario(config)`` call, no threads.  ``--trace 0`` times the
repetitions for ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
adds one traced repetition with per-layer spans and counts (see layers.py)
and reports the per-layer metrics.  Every simulation run is checked (packet
conservation per station, finite headline metrics), and every repetition must
reproduce the same simulated fingerprint.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Host times are reported at the reference host speed: each repetition's wall
time is scaled by hostprobe.REFERENCE_S over the host probe's time around it
(see hostprobe.py).  The raw medians are printed beside them.
"""

import argparse
import functools
import gc
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostprobe
from bianchi import dcf_collision_probability

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919        # claims made on DEFAULT_SEED must also hold here
MIN_REPS = 3
BIANCHI_TOLERANCE = 0.06    # |collision_freq - Bianchi p| allowed on the DCF clique


def import_program():
    """Import tokendcf from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "tokendcf"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no tokendcf sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import tokendcf
    if Path(tokendcf.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported tokendcf from {tokendcf.__file__}, not {package}")
    return tokendcf


def check_run(sim, report):
    """Problems with one finished simulation run; empty when it is sound."""
    problems = []
    for st in sim.stations:
        held = st.delivered + st.dropped_full + st.dropped_retry + len(st.queue)
        if st.enqueued != held:
            problems.append(f"station {st.sid}: enqueued {st.enqueued} != {held} "
                            "delivered + dropped + queued")
    if sum(st.delivered for st in sim.stations) != report.delivered_packets:
        problems.append("station deliveries do not sum to delivered_packets")
    if sum(st.dropped_full + st.dropped_retry for st in sim.stations) != report.drops:
        problems.append("station drops do not sum to drops")
    for name in ("throughput_bps", "access_delay_us", "idle_slots", "collision_freq"):
        value = getattr(report, name)
        if value is None or not math.isfinite(value):
            problems.append(f"{name} is {value!r}")
    return problems


class RunChecks:
    """Counts simulation runs and checks each one as it finishes.

    Installed around ``Simulation.run`` for the whole benchmark, so the runs
    inside every timed ``run_scenario`` call are checked too; the check is
    O(stations) per run, against runs of 10^4 or more events.
    """

    def __init__(self, simulation_cls):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        run = simulation_cls.run

        @functools.wraps(run)
        def checked_run(sim):
            self.attempted += 1
            try:
                report = run(sim)
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"run raised {exc!r}")
                raise
            problems = check_run(sim, report)
            if problems:
                self.failed += 1
                self.errors.extend(problems)
            return report

        simulation_cls.run = checked_run


def _mean(values):
    return None if None in values else sum(values) / len(values)


def fingerprint(reports):
    """Simulated results of one repetition; identical on every repetition."""
    return {
        "sim.throughput_mbps": _mean([r.throughput_bps for r in reports]) / 1e6,
        "sim.access_delay_us": _mean([r.access_delay_us for r in reports]),
        "sim.idle_slots": _mean([r.idle_slots for r in reports]),
        "sim.collision_freq": _mean([r.collision_freq for r in reports]),
        "sim.delivered_pkts": sum(r.delivered_packets for r in reports),
        "sim.drops": sum(r.drops for r in reports),
    }


def trace_pass(tokendcf, config):
    """Re-run every run with the medium's trace on: (digest, reports)."""
    digest = hashlib.sha256()
    reports = []
    for i in range(config.runs):
        trace = []
        reports.append(tokendcf.simulate_run(config, i, trace=trace))
        digest.update(repr(trace).encode())
    return digest.hexdigest()[:16], reports


def setup_once(tokendcf, config, run_seeds):
    """Seconds to build and wire one repetition's Simulation objects.

    Constructs every run's Simulation and starts its traffic sources, which
    subscribes contenders to the medium: all the work a run does before its
    first event.  The objects are dropped after the clock stops.
    """
    t0 = time.perf_counter()
    sims = [tokendcf.Simulation(config, seed) for seed in run_seeds]
    for sim in sims:
        for src in sim.sources:
            src.start()
    return time.perf_counter() - t0


class Timings:
    """Raw seconds per repetition and the host-speed scale around each."""

    def __init__(self):
        self.walls = []       # wall seconds of each run_scenario call
        self.setups = []      # set-up seconds, sampled just before each call
        self.scales = []      # REFERENCE_S / mean probe time around each call
        self.mismatches = 0   # repetitions whose fingerprint differed

    def scaled(self, values):
        return [v * s for v, s in zip(values, self.scales)]


def speed_scale(probe_before, probe_after):
    return hostprobe.REFERENCE_S / ((probe_before + probe_after) / 2)


def timed_reps(tokendcf, config, seconds, expected, checks):
    """Back-to-back ``run_scenario`` calls for ``seconds``.

    Before each call one set-up sample is taken, so both cover the same
    stretch of host time, and the host probe runs between calls.  The loop
    stops at the first repetition that raises.
    """
    run_seeds = [tokendcf.derive_seed(config.seed, i) for i in range(config.runs)]
    timings = Timings()
    probe = hostprobe.probe_seconds()
    deadline = time.perf_counter() + seconds
    while len(timings.walls) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        setup = setup_once(tokendcf, config, run_seeds)
        gc.collect()
        t0 = time.perf_counter()
        try:
            row = tokendcf.run_scenario(config)
        except Exception:   # counted and recorded by RunChecks
            break
        wall = time.perf_counter() - t0
        next_probe = hostprobe.probe_seconds()
        timings.walls.append(wall)
        timings.setups.append(setup)
        timings.scales.append(speed_scale(probe, next_probe))
        probe = next_probe
        if fingerprint(row.reports) != expected:
            timings.mismatches += 1
            checks.errors.append(f"repetition {len(timings.walls)}: fingerprint differs")
    return timings


def peak_rss_mb(workload, seed):
    """Peak resident MB of a fresh process that runs one repetition."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "rss_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return int(proc.stdout.split()[-1]) / 1024


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit:<12} {note}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        description="tokendcf benchmark: host cost of three MAC scenarios")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the untraced repetitions are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced repetition")
    return parser.parse_args(argv)


def end_to_end(args, timings, expected, bianchi_p):
    """(metrics, ok) for --trace 0; ok is False if DCF drifted from Bianchi."""
    walls = timings.scaled(timings.walls)
    wall = statistics.median(walls)
    setup = statistics.median(timings.scaled(timings.setups))
    delivered = expected["sim.delivered_pkts"]
    n = len(walls)
    q1, q3 = quartiles(walls)
    rss = peak_rss_mb(args.workload, args.seed)
    metrics = {
        "wall_s": (wall, "s"),
        "host_us_per_pkt": (wall / delivered * 1e6, "us/pkt"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"end-to-end (host time at reference speed; raw medians in brackets; "
          f"host speed {statistics.median(timings.scales):.3f} of reference):")
    describe("wall_s", wall, "s", f"median of {n} repetitions, quartiles "
             f"{q1:.4f} .. {q3:.4f} [raw {statistics.median(timings.walls):.4f}]")
    describe("host_us_per_pkt", wall / delivered * 1e6, "us/pkt",
             f"median of {n} repetitions, {delivered} packets each")
    describe("setup_s", setup, "s", f"median of {n} samples "
             f"[raw {statistics.median(timings.setups):.6f}]")
    describe("peak_rss_mb", rss, "MB", "1 sample, fresh process")
    if bianchi_p is None:
        return metrics, True
    err = abs(expected["sim.collision_freq"] - bianchi_p)
    describe("dcf_bianchi_err", err, "", f"simulated, deterministic; Bianchi p "
             f"{bianchi_p:.4f}, tolerance {BIANCHI_TOLERANCE}")
    return metrics, err <= BIANCHI_TOLERANCE


def per_layer(tokendcf, layers, args, config, timings, expected, digest):
    """(metrics, ok) for --trace 1, from one traced repetition.

    ok requires the traced repetition and a traced trace pass to reproduce
    the untraced fingerprint and digest, and the layers' self times to add
    up to the traced run_until time.
    """
    wall = statistics.median(timings.scaled(timings.walls))
    tracer = layers.Tracer()
    probe = hostprobe.probe_seconds()
    with layers.tracing(tracer):
        gc.collect()
        t0 = time.perf_counter()
        row = tokendcf.run_scenario(config)
        traced_wall = time.perf_counter() - t0
    traced_wall *= speed_scale(probe, hostprobe.probe_seconds())
    with layers.tracing(layers.Tracer(span_cap=0)):
        traced_digest, traced_reports = trace_pass(tokendcf, config)
    identical = (fingerprint(row.reports) == expected == fingerprint(traced_reports)
                 and traced_digest == digest)
    accounted = sum(tracer.loop_self_ns.values())
    metrics = layers.layer_metrics(tracer, expected["sim.delivered_pkts"], wall, traced_wall)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    print(f"per-layer (one traced repetition, {traced_wall:.3f} s; untraced "
          f"median {wall:.4f} s of {len(timings.walls)}; both at reference speed):")
    for name, (value, unit) in metrics.items():
        describe(name, value, unit)
    print(f"  layer self times sum to {accounted / max(tracer.loop_ns, 1):.6f} "
          f"of traced run_until ({tracer.loop_ns / 1e9:.3f} s raw)")
    print(f"  traced fingerprint and digest identical to untraced: {identical}")
    if tracer.missing:
        print(f"  entry points not found, not traced: {', '.join(tracer.missing)}")
    print(f"  first {len(tracer.spans)} of {tracer.span_count} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    return metrics, identical and accounted == tracer.loop_ns


def main(argv=None):
    tokendcf = import_program()
    import layers
    from workloads import WORKLOADS, workload_config

    args = parse_args(argv, WORKLOADS)
    config = workload_config(args.workload, args.seed)
    checks = RunChecks(tokendcf.Simulation)
    print(f"workload {args.workload} seed {args.seed}: {config.protocol}, "
          f"n={config.n_transmitters}, {config.area_side:g} m, "
          f"{config.traffic.kind} {config.packet_size} B, "
          f"{config.runs} runs x {config.duration_s:g} s per repetition")

    # the trace pass doubles as warm-up and sets the reference fingerprint
    digest, digest_reports = trace_pass(tokendcf, config)
    expected = fingerprint(digest_reports)
    timings = timed_reps(tokendcf, config, args.seconds, expected, checks)
    if not timings.walls:
        print("\n".join(checks.errors), file=sys.stderr)
        sys.exit("perfbench: no repetition completed")

    print(f"simulated fingerprint (identical on all {len(timings.walls)} "
          f"repetitions and the trace pass: {timings.mismatches == 0}):")
    for name, value in expected.items():
        print(f"  {name:<32} {value!r}")
    print(f"  {'sim.trace_digest':<32} {digest}")

    if args.trace == 0:
        bianchi_p = None
        if config.protocol == "dcf":
            bianchi_p = dcf_collision_probability(
                config.n_transmitters, config.mac.cw_min, config.mac.cw_max)
        metrics, ok = end_to_end(args, timings, expected, bianchi_p)
    else:
        metrics, ok = per_layer(tokendcf, layers, args, config, timings, expected, digest)

    print(f"operations (simulation runs): attempted {checks.attempted}, "
          f"failed {checks.failed}")
    for error in checks.errors[:20]:
        print(f"  error: {error}")
    result = {
        "correct": ok and timings.mismatches == 0 and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
