"""Execution of one simulation run from a frozen spec.

Seed derivation is the whole story here. Topology, disturbance, and
initiation order depend only on (seed, repeat), so the baseline and NE
variants of the same repeat face literally the same network, the same
offline pattern, and the same broadcast schedule; only the protocol
stream differs per (variant, redundancy). That is what makes paired
comparisons between variants meaningful at small scale.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..metrics import BroadcastTracker, latency
from ..netsim import Engine, NetworkConfig, apply_disturbance, bootstrap_topology
from ..seeding import stream


@dataclass(frozen=True)
class RunSpec:
    """Everything one engine run depends on."""

    n_nodes: int
    variant: str  # baseline | ne | gossip
    redundancy: int  # beta, or fanout for gossip
    rounds_per_node: int
    interval_us: int
    seed: int
    repeat: int = 0
    address_bits: int = 16
    bucket_capacity: int = 15
    data_msg_bytes: int = 128
    confirm_msg_bytes: int = 20
    disturbance: str = "none"  # none | churn_once | churn_periodic | refuse_half
    disturbance_period_us: int = 60_000_000
    refuse_withholds_confirms: bool = False
    horizon_us: int | None = None
    total_broadcasts: int | None = None  # override rounds_per_node * n_nodes
    require_full_reach: bool = True
    collect_log: bool = False
    count_per_hash: bool = False


@dataclass
class RunResult:
    """Per-broadcast rows plus run-level tallies."""

    spec: RunSpec
    rows: list[tuple]  # (seq, initiator, latency_us | None, complete, received)
    received_total: int
    honest_received_total: int
    honest_nodes: int
    online_received_total: int
    online_population: int
    data_sends: int
    confirm_sends: int
    dropped_offline: int
    accepted: int
    duplicates: int
    truncated: bool
    log: list[tuple] | None = None
    per_hash_sends: dict[int, int] | None = None


def broadcast_count(spec: RunSpec) -> int:
    if spec.total_broadcasts is not None:
        return spec.total_broadcasts
    return spec.rounds_per_node * spec.n_nodes


def execute_run(spec: RunSpec) -> RunResult:
    """Build the network, schedule the run, drain it, and collect rows."""
    if spec.variant not in ("baseline", "ne", "gossip"):
        raise ConfigurationError(f"variant must be baseline, ne, or gossip, got {spec.variant!r}")
    net = NetworkConfig(
        n_nodes=spec.n_nodes,
        address_bits=spec.address_bits,
        bucket_capacity=spec.bucket_capacity,
        data_msg_bytes=spec.data_msg_bytes,
        confirm_msg_bytes=spec.confirm_msg_bytes,
    )
    topo_rng = stream(spec.seed, "topology", spec.repeat)
    nodes, profiles = bootstrap_topology(net, topo_rng, require_full_reach=spec.require_full_reach)

    gossip = spec.variant == "gossip"
    if gossip:
        for node in nodes:
            node.neighbors = [
                entry.peer for bucket in node.table.buckets for entry in bucket.entries
            ]

    disturb_rng = stream(spec.seed, "disturb", spec.repeat)
    proto_rng = stream(spec.seed, "protocol", spec.repeat, spec.variant, spec.redundancy)
    sched_rng = stream(spec.seed, "schedule", spec.repeat)

    honest_nodes = spec.n_nodes
    if spec.disturbance == "refuse_half":
        apply_disturbance(nodes, disturb_rng, "refuse_half")
        honest_nodes = spec.n_nodes - spec.n_nodes // 2

    order = list(range(spec.n_nodes))
    sched_rng.shuffle(order)
    tracker = BroadcastTracker(spec.n_nodes)
    engine = Engine(
        nodes,
        profiles,
        net,
        proto_rng,
        beta=spec.redundancy,
        ne_enabled=spec.variant == "ne",
        gossip_fanout=spec.redundancy if gossip else None,
        refuse_withholds_confirms=spec.refuse_withholds_confirms,
        disturb_rng=disturb_rng,
        tracker=tracker,
        initiate_order=order,
        collect_log=spec.collect_log,
        count_per_hash=spec.count_per_hash,
    )

    total = broadcast_count(spec)
    last_initiate_us = (total - 1) * spec.interval_us
    if spec.disturbance in ("churn_once", "churn_periodic"):
        engine.push_disturbance(0)
        if spec.disturbance == "churn_periodic":
            t = spec.disturbance_period_us
            while t <= last_initiate_us:
                engine.push_disturbance(t)
                t += spec.disturbance_period_us

    for j in range(total):
        engine.push_initiate(j * spec.interval_us, j % spec.n_nodes)

    # the run allocates heavily and frees nothing mid-flight; collection
    # pauses would only add noise
    gc.disable()
    try:
        engine.run(spec.horizon_us)
    finally:
        gc.enable()

    rows = []
    for rec in tracker.recs:
        rows.append((rec.seq, rec.initiator, latency(rec), rec.complete, rec.received_count))
    return RunResult(
        spec=spec,
        rows=rows,
        received_total=tracker.received_total(),
        honest_received_total=tracker.honest_received_total(),
        honest_nodes=honest_nodes,
        online_received_total=tracker.online_received_total(),
        online_population=tracker.online_population_total(),
        data_sends=engine.data_sends,
        confirm_sends=engine.confirm_sends,
        dropped_offline=engine.dropped_offline,
        accepted=engine.accepted,
        duplicates=engine.duplicates,
        truncated=engine.truncated,
        log=engine.log,
        per_hash_sends=engine.per_hash_sends,
    )
