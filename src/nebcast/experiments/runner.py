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
from ..metrics import BroadcastTracker, MessageRec, latency
from ..netsim import LAUNCH_LIMIT_US, Engine, NetworkConfig, assign_refusers, bootstrap_topology
from ..seeding import stream
from .config import SCENARIO_DISTURBANCES

# every disturbance some scenario runs under, in order of first appearance
DISTURBANCES = tuple(dict.fromkeys(d for ds in SCENARIO_DISTURBANCES.values() for d in ds))


@dataclass(frozen=True, kw_only=True)
class RunSpec(NetworkConfig):
    """Everything one engine run depends on; the network sizes are NetworkConfig's."""

    variant: str  # baseline | ne | gossip
    redundancy: int  # beta, or fanout for gossip
    rounds_per_node: int
    interval_us: int
    seed: int
    repeat: int = 0
    disturbance: str = "none"  # one of DISTURBANCES
    disturbance_period_us: int = 60_000_000
    refuse_withholds_confirms: bool = False
    horizon_us: int | None = None
    total_broadcasts: int | None = None  # override rounds_per_node * n_nodes
    require_full_reach: bool = True
    collect_log: bool = False
    count_per_hash: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.variant not in ("baseline", "ne", "gossip"):
            raise ConfigurationError(f"variant must be baseline, ne, or gossip, got {self.variant!r}")
        if self.redundancy < 1:
            raise ConfigurationError(f"redundancy must be at least 1, got {self.redundancy}")
        for name in ("rounds_per_node", "interval_us"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.total_broadcasts is not None and self.total_broadcasts < 1:
            raise ConfigurationError(
                f"total_broadcasts must be at least 1 when set, got {self.total_broadcasts}"
            )
        if (broadcast_count(self) - 1) * self.interval_us >= LAUNCH_LIMIT_US:
            raise ConfigurationError(
                f"interval_us={self.interval_us} launches the last broadcast at or past 2**62 us"
            )
        if self.horizon_us is not None and self.horizon_us < 0:
            raise ConfigurationError(
                f"horizon_us must be nonnegative when set, got {self.horizon_us}"
            )
        if self.disturbance not in DISTURBANCES:
            raise ConfigurationError(
                f"disturbance must be one of {DISTURBANCES}, got {self.disturbance!r}"
            )
        if self.disturbance == "churn_periodic" and self.disturbance_period_us < 1:
            raise ConfigurationError(
                f"churn_periodic needs a positive disturbance_period_us,"
                f" got {self.disturbance_period_us}"
            )


@dataclass
class RunResult:
    """The tracker's per-broadcast records plus the engine's tallies."""

    spec: RunSpec
    recs: list[MessageRec]
    honest_nodes: int
    data_sends: int
    confirm_sends: int
    dropped_offline: int
    duplicates: int
    truncated: bool
    log: list[tuple] | None = None
    per_hash_sends: dict[int, int] | None = None

    @property
    def rows(self) -> list[tuple]:
        """(seq, initiator, latency_us | None, complete, received) per broadcast."""
        return [
            (rec.seq, rec.initiator, latency(rec), rec.complete, rec.received_count)
            for rec in self.recs
        ]


def broadcast_count(spec: RunSpec) -> int:
    if spec.total_broadcasts is not None:
        return spec.total_broadcasts
    return spec.rounds_per_node * spec.n_nodes


def execute_run(spec: RunSpec) -> RunResult:
    """Build the network, schedule the run, drain it, and collect its records."""
    # The overlay (about 240 k filed ids at N=2000) and the run allocate far
    # past the collector's thresholds and form no reference cycles, so its
    # passes would scan live objects and free nothing. One pause covers
    # the bootstrap through the end of the run; the caller's collector
    # state is restored after.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_and_run(spec)
    finally:
        if enabled:
            gc.enable()


def _build_and_run(spec: RunSpec) -> RunResult:
    topo_rng = stream(spec.seed, "topology", spec.repeat)
    nodes, profiles = bootstrap_topology(spec, topo_rng, require_full_reach=spec.require_full_reach)
    disturb_rng = stream(spec.seed, "disturb", spec.repeat)
    proto_rng = stream(spec.seed, "protocol", spec.repeat, spec.variant, spec.redundancy)
    sched_rng = stream(spec.seed, "schedule", spec.repeat)

    honest_nodes = spec.n_nodes
    if spec.disturbance == "refuse_half":
        honest_nodes -= len(assign_refusers(nodes, disturb_rng))

    order = list(range(spec.n_nodes))
    sched_rng.shuffle(order)
    tracker = BroadcastTracker(spec.n_nodes)
    engine = Engine(
        nodes,
        profiles,
        spec,
        proto_rng,
        variant=spec.variant,
        beta=spec.redundancy,
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

    engine.run(spec.horizon_us)

    return RunResult(
        spec=spec,
        recs=tracker.recs,
        honest_nodes=honest_nodes,
        data_sends=engine.data_sends,
        confirm_sends=engine.confirm_sends,
        dropped_offline=engine.dropped_offline,
        duplicates=engine.duplicates,
        truncated=engine.truncated,
        log=engine.log,
        per_hash_sends=engine.per_hash_sends,
    )
