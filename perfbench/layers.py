"""Per-layer spans and counts, installed from outside the simulator.

``tracing(tracer)`` replaces the entry points of each module of ``tokendcf``
(and the callbacks its event loop invokes) with wrappers that record a span
per call and a few counts, and puts the originals back on exit.  Nothing in
``src/`` knows about it.  Layers are the package's modules: ``core`` (event
loop), ``medium``, ``mac``, ``token``, ``traffic``, ``metrics``, plus
``experiments`` for the run orchestration around them.

Self time of a span is its duration minus the time its child spans cover.
Inside ``Simulator.run_until`` every nanosecond belongs to exactly one span's
self time, so the layers' self times sum to the traced ``run_until`` time.
"""

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

import tokendcf.core
import tokendcf.experiments
import tokendcf.mac
import tokendcf.medium
import tokendcf.token
import tokendcf.traffic


class Tracer:
    """In-memory spans (the first ``span_cap`` of them) and exact totals."""

    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.spans = []            # (id, name, start_ns, end_ns, parent id)
        self.origin = time.perf_counter_ns()
        self.calls = Counter()     # span name -> calls
        self.inclusive_ns = Counter()   # span name -> total duration
        self.loop_self_ns = Counter()   # layer -> self time inside run_until
        self.loop_ns = 0           # total traced run_until time
        self.counts = Counter()    # layer counters recorded by the hooks
        self.samples_held = 0
        self.missing = []          # entry points the package no longer has
        self._stack = []           # open spans: [id, start_ns, child_ns]
        self._next_id = 0
        self._loop_depth = 0

    def wrap(self, layer, name, fn, before=None, after=None, loop_root=False):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        calls = self.calls
        inclusive = self.inclusive_ns
        loop_self = self.loop_self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._next_id
            self._next_id = sid + 1
            if loop_root:
                self._loop_depth += 1
            frame = [sid, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                calls[name] += 1
                inclusive[name] += dur
                if self._loop_depth:
                    loop_self[layer] += dur - frame[2]
                if loop_root:
                    self._loop_depth -= 1
                    self.loop_ns += dur
                if stack:
                    stack[-1][2] += dur
                if sid < self.span_cap:
                    spans.append((sid, name, frame[1] - self.origin,
                                  end - self.origin,
                                  stack[-1][0] if stack else None))
            if after is not None:
                after(args, result)
            return result

        return traced

    @property
    def span_count(self):
        """Spans recorded in total, including those past ``span_cap``."""
        return self._next_id

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_us": start / 1e3,
                                     "end_us": end / 1e3, "parent": parent}) + "\n")


def _hooks(tracer):
    """(owner, attribute, layer, before, after, loop_root) for every wrapper."""
    count = tracer.counts
    waiting = tokendcf.mac.WAITING
    dropped = tokendcf.mac.DROPPED

    def fired(args, result):
        count["events_fired"] += result
        heap = getattr(args[0], "_heap", ())
        count["live_pending"] += sum(1 for entry in heap if entry[2] is not None)

    def busy_edge(args):
        st = args[0]
        if st.phase == waiting and st.registered:
            count["edge_useful"] += 1

    def idle_edge(args):
        st = args[0]
        if st.phase == waiting and not st.registered:
            count["edge_useful"] += 1

    def tx_start(args):
        count["concurrent_tx"] += len(getattr(args[0], "_active", ()))

    def access(args):
        st = args[0]
        if st.scheduler is not None and st.sifs_plan:
            count["sifs_access"] += 1

    def granted(args, result):
        if args[1].privileged is not None:
            count["grants"] += 1

    def enqueued(args, result):
        if result == dropped:
            count["drop_full"] += 1

    def summarized(args):
        m = args[0]
        tracer.samples_held = max(tracer.samples_held,
                                  len(m.access_delays) + len(m.idle_gaps))

    Simulator = tokendcf.core.Simulator
    Medium = tokendcf.medium.Medium
    Station = tokendcf.mac.Station
    Scheduler = tokendcf.token.TokenScheduler
    FullBuffer = tokendcf.traffic.FullBufferSource
    Pareto = tokendcf.traffic.ParetoOnOffSource
    Simulation = tokendcf.experiments.Simulation
    hooks = [
        (Simulator, "run_until", "core", None, fired, True),
        (Simulator, "schedule", "core", None, None, False),
        (Simulator, "cancel", "core", None, None, False),
        (Medium, "__init__", "medium", None, None, False),
        (Medium, "begin_transmission", "medium", tx_start, None, False),
        (Station, "on_channel_busy", "mac", busy_edge, None, False),
        (Station, "on_channel_idle", "mac", idle_edge, None, False),
        (Station, "fire_access", "mac", access, None, False),
        (Station, "enqueue_packet", "mac", None, enqueued, False),
        (Scheduler, "on_transmit_data", "token", None, granted, False),
        (tokendcf.experiments, "summarize", "metrics", summarized, None, False),
        (Simulation, "__init__", "experiments", None, None, False),
        (Simulation, "run", "experiments", None, None, False),
    ]
    plain = {
        Medium: ("bind", "subscribe", "register_listener", "carrier_busy",
                 "is_transmitting", "sensed_busy", "register_access",
                 "unregister_access", "_set_wake", "_wake", "_finish"),
        Station: ("_start_contention", "_resume_wait", "_transmit_data",
                  "on_tx_complete", "on_frame", "_send_ack", "_ack_received",
                  "_ack_timeout"),
        Scheduler: ("_period_reset", "select_privileged", "on_receive_data",
                    "on_timer_expired", "adapt"),
        FullBuffer: ("start", "on_dequeue"),
        Pareto: ("start", "on_dequeue", "_start_on", "_start_off", "_arm",
                 "_arrival"),
    }
    layer_of = {Medium: "medium", Station: "mac", Scheduler: "token",
                FullBuffer: "traffic", Pareto: "traffic"}
    for owner, names in plain.items():
        hooks.extend((owner, name, layer_of[owner], None, None, False) for name in names)
    return hooks


@contextmanager
def tracing(tracer):
    """Install the span wrappers for the duration of the ``with`` block.

    Entry points that the package no longer has are skipped and listed in
    ``tracer.missing``, so a refactor that renames one does not stop the
    benchmark; the counts that depend on it then read zero.
    """
    installed = []
    try:
        for owner, attr, layer, before, after, loop_root in _hooks(tracer):
            original = owner.__dict__.get(attr)
            if original is None:
                tracer.missing.append(f"{owner.__name__}.{attr}")
                continue
            name = f"{layer}:{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, attr, tracer.wrap(layer, name, original, before, after, loop_root))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, delivered_pkts, untraced_wall_s, traced_wall_s):
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    calls = tracer.calls
    counts = tracer.counts

    def n(layer, cls, method):
        return calls[f"{layer}:{cls}.{method}"]

    loop = tracer.loop_ns
    fired = counts["events_fired"]
    scheduled = n("core", "Simulator", "schedule")
    tx = n("medium", "Medium", "begin_transmission")
    edges = n("mac", "Station", "on_channel_busy") + n("mac", "Station", "on_channel_idle")
    accesses = n("mac", "Station", "fire_access")
    data_tx = n("mac", "Station", "_transmit_data")
    enqueues = n("mac", "Station", "enqueue_packet")

    def self_share(layer):
        return _share(tracer.loop_self_ns[layer], loop)

    return {
        "core.events_fired": (fired, "count"),
        "core.events_per_pkt": (_share(fired, delivered_pkts), "events/pkt"),
        "core.cancelled_share": (_share(scheduled - fired - counts["live_pending"], scheduled), "ratio"),
        "core.host_us_per_event": (_share(untraced_wall_s * 1e6, fired), "us"),
        "core.self_share": (self_share("core"), "ratio"),
        "medium.tx_started": (tx, "count"),
        "medium.edge_callbacks_per_tx": (_share(edges, tx), "calls/tx"),
        "medium.edge_useful_ratio": (_share(counts["edge_useful"], edges), "ratio"),
        "medium.concurrent_tx_mean": (_share(counts["concurrent_tx"], tx), "count"),
        "medium.self_share": (self_share("medium"), "ratio"),
        "medium.geometry_s": (tracer.inclusive_ns["medium:Medium.__init__"] / 1e9, "s"),
        "mac.accesses": (accesses, "count"),
        "mac.resumes_per_access": (_share(n("mac", "Station", "_resume_wait"), accesses), "calls/access"),
        "mac.ack_timeout_share": (_share(n("mac", "Station", "_ack_timeout"), data_tx), "ratio"),
        "mac.self_share": (self_share("mac"), "ratio"),
        "token.receive_calls_per_data": (_share(n("token", "TokenScheduler", "on_receive_data"), data_tx), "calls/tx"),
        "token.grant_share": (_share(counts["grants"], n("token", "TokenScheduler", "on_transmit_data")), "ratio"),
        "token.sifs_access_share": (_share(counts["sifs_access"], accesses), "ratio"),
        "token.self_share": (self_share("token"), "ratio"),
        "traffic.enqueues": (enqueues, "count"),
        "traffic.drop_full_share": (_share(counts["drop_full"], enqueues), "ratio"),
        "traffic.self_share": (self_share("traffic"), "ratio"),
        "metrics.samples_held": (tracer.samples_held, "count"),
        "metrics.summarize_s": (tracer.inclusive_ns["metrics:experiments.summarize"] / 1e9, "s"),
        "trace.overhead": (_share(traced_wall_s, untraced_wall_s), "ratio"),
    }
