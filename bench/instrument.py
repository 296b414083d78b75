"""Hooks the benchmark sets on nebcast's public entry points.

Two kinds, both installed by replacing module or class attributes and
both removed again by ``Patches.restore``:

- ``Probe`` runs in every run, traced or not. It fires once per
  simulation run: it times the overlay bootstrap and the event loop,
  and reads the engine's counters and the tracker's records afterwards.
  Its tracker subclass adds a dict store and a list append per first
  receipt, so that the time of every first receipt is known even for a
  broadcast that never reaches all N nodes.
- ``Tracer`` runs only in the traced run. It wraps each layer's
  functions in spans and derives each layer's self time as the span
  minus the spans of the calls it made into other layers.
"""

from __future__ import annotations

import json
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from checks import SimRun, check_overlay
from nebcast.experiments import runner, scenarios
from nebcast.metrics import BroadcastTracker
from nebcast import netsim, protocol
from nebcast.netsim import Engine
from nebcast.routing import RoutingTable


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class RecordingTracker(BroadcastTracker):
    """A BroadcastTracker that also keeps the time of every first receipt."""

    def __init__(self, n_nodes: int):
        BroadcastTracker.__init__(self, n_nodes)
        self.hashes: list[int] = []
        self.start_us: dict[int, int] = {}
        self.last_us: dict[int, int] = {}
        # time from the start to each first receipt, the initiators' own included
        self.delays_us: list[int] = []
        self.skipped = 0

    def initiate(self, msg_hash, initiator, t, honest=True, online=None):
        self.hashes.append(msg_hash)
        self.start_us[msg_hash] = t
        BroadcastTracker.initiate(self, msg_hash, initiator, t, honest, online)

    def initiate_skipped(self, msg_hash, initiator, t):
        self.hashes.append(msg_hash)
        self.skipped += 1
        BroadcastTracker.initiate_skipped(self, msg_hash, initiator, t)

    def receive(self, msg_hash, t, honest, node):
        BroadcastTracker.receive(self, msg_hash, t, honest, node)
        self.last_us[msg_hash] = t
        self.delays_us.append(t - self.start_us[msg_hash])


def sim_run_of(engine: Engine) -> SimRun:
    tracker = engine.tracker
    recs = tracker.recs
    return SimRun(
        variant="ne" if engine.ne_enabled else "baseline",
        beta=engine.beta,
        n_nodes=len(engine.nodes),
        data_bytes=engine.config.data_msg_bytes,
        confirm_bytes=engine.config.confirm_msg_bytes,
        data_sends=engine.data_sends,
        confirm_sends=engine.confirm_sends,
        dropped_offline=engine.dropped_offline,
        accepted=engine.accepted,
        duplicates=engine.duplicates,
        initiations=engine.next_hash,
        skipped=tracker.skipped,
        disturbances=engine.disturbances,
        truncated=engine.truncated,
        received=[rec.received_count for rec in recs],
        online_received=[rec.online_received for rec in recs],
        online_count=[rec.online_count for rec in recs],
        start_us=[rec.start_us for rec in recs],
        last_us=[tracker.last_us.get(h) for h in tracker.hashes],
        delays_us=tracker.delays_us,
    )


class Probe:
    """Per-simulation-run timing and counters for one workload round."""

    def __init__(self):
        self.check_overlays = False
        self.reset()

    def reset(self) -> None:
        self.runs: list[SimRun] = []
        self.setup_s: list[float] = []
        self.loop_s: dict[str, float] = defaultdict(float)
        # host time spent on checks inside the timed region, to subtract
        self.excluded_s = 0.0
        self.problems: list[str] = []

    def install(self, patches: Patches) -> None:
        bootstrap = runner.bootstrap_topology
        loop = Engine.run

        def timed_bootstrap(config, *args, **kwargs):
            t0 = perf_counter()
            out = bootstrap(config, *args, **kwargs)
            t1 = perf_counter()
            self.setup_s.append(t1 - t0)
            if self.check_overlays:
                tables = [
                    (node.id, [[e.peer for e in b.entries] for b in node.table.buckets])
                    for node in out[0]
                ]
                self.problems += check_overlay(
                    tables, config.address_bits, config.bucket_capacity
                )
                self.excluded_s += perf_counter() - t1
            return out

        def timed_run(engine, *args, **kwargs):
            t0 = perf_counter()
            loop(engine, *args, **kwargs)
            t1 = perf_counter()
            run = sim_run_of(engine)
            self.loop_s[run.variant] += t1 - t0
            self.runs.append(run)

        patches.set(runner, "BroadcastTracker", RecordingTracker)
        patches.set(runner, "bootstrap_topology", timed_bootstrap)
        patches.set(Engine, "run", timed_run)


# (owner, attribute, layer name, keep every span) for each traced entry
# point. Coarse layers keep one span per call; the per-event layers are
# summed per (layer, parent span) so that memory stays flat.
TRACED = (
    (scenarios, "run_scenario", "experiments.scenarios", True),
    (scenarios, "emit_results", "experiments.scenarios", True),
    (scenarios, "execute_run", "experiments.runner", True),
    (runner, "execute_run", "experiments.runner", True),
    (runner, "bootstrap_topology", "netsim.bootstrap", True),
    (Engine, "run", "netsim.engine", True),
    (netsim, "apply_disturbance", "netsim.disturbance", True),
    (Engine, "_commit", "netsim.commit", False),
    (netsim, "handle_message", "protocol.handle_message", False),
    (netsim, "initiate_broadcast", "protocol.initiate_broadcast", False),
    (protocol, "select_relays", "routing.select_relays", False),
    (protocol, "select_uniform", "routing.select_uniform", False),
    (RoutingTable, "add_score", "routing.add_score", False),
    (RoutingTable, "insert_peer", "routing.insert_peer", False),
    (RecordingTracker, "initiate", "metrics.tracker", False),
    (RecordingTracker, "initiate_skipped", "metrics.tracker", False),
    (RecordingTracker, "receive", "metrics.tracker", False),
)


class Tracer:
    """Spans at layer boundaries, kept in memory until ``write``."""

    def __init__(self):
        # (name, start, end, parent index or -1), one per coarse call
        self.spans: list[tuple | None] = []
        # (name, parent index) -> [calls, total s, self s] for per-event layers
        self.leaves: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # one frame per open span: [span index, time in child spans]
        self._stack: list[list] = [[-1, 0.0]]
        self.reset_round()

    def reset_round(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inserts_accepted = 0
        self.in_flight_high_water = 0
        self.wait_us = 0
        self.commits = 0
        # initiations pushed onto the engine that is about to run
        self._engine = None
        self._initiates = 0

    def _wrap(self, fn, name: str, keep: bool):
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        clock = perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0]
            if keep:
                frame = [len(spans), 0.0]
                spans.append(None)
            else:
                frame = [parent, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = t1 - t0
                stack[-1][1] += span
                own = span - frame[1]
                self.self_s[name] += own
                self.calls[name] += 1
                if keep:
                    spans[frame[0]] = (name, t0, t1, parent)
                else:
                    leaf = leaves[name, parent]
                    leaf[0] += 1
                    leaf[1] += span
                    leaf[2] += own

        return traced

    def install(self, patches: Patches) -> None:
        for owner, attr, name, keep in TRACED:
            fn = getattr(owner, attr)
            if attr == "insert_peer":
                fn = self._counting_insert(fn)
            elif attr == "_commit":
                fn = self._measuring_commit(fn)
            patches.set(owner, attr, self._wrap(fn, name, keep))
        push_initiate = Engine.push_initiate

        def counted_push_initiate(engine, *args, **kwargs):
            if self._engine is None or self._engine() is not engine:
                self._engine = weakref.ref(engine)
                self._initiates = 0
            self._initiates += 1
            push_initiate(engine, *args, **kwargs)

        patches.set(Engine, "push_initiate", counted_push_initiate)

    def _counting_insert(self, insert_peer):
        def insert(table, *args, **kwargs):
            accepted = insert_peer(table, *args, **kwargs)
            if accepted:
                self.inserts_accepted += 1
            return accepted

        return insert

    def _measuring_commit(self, commit):
        """Track messages in flight and the wait of each send in its queue.

        Right after a commit the heap holds every delivery in flight plus
        the initiations and disturbances not yet fired, whose numbers the
        engine's counters give.
        """

        def measured(engine, sender, ti, sm, t, start, arrival, seq):
            commit(engine, sender, ti, sm, t, start, arrival, seq)
            pending = self._initiates - engine.next_hash + len(engine.disturb_times)
            in_flight = len(engine.heap) - pending
            if in_flight > self.in_flight_high_water:
                self.in_flight_high_water = in_flight
            self.wait_us += start - t
            self.commits += 1

        return measured

    def write(self, path: Path) -> None:
        """Write the kept spans and the per-parent sums of the per-event layers as JSONL."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"span": index, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
            for (name, parent), (calls, total, own) in sorted(self.leaves.items()):
                fh.write(
                    json.dumps(
                        {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
                    )
                    + "\n"
                )
