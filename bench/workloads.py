"""The benchmark's workloads and one round of each.

Every setting of every workload is pinned here, so that a later change
to a scenario default or a profile cannot silently change a workload;
only the seed comes from the command line. A round runs the workload's
whole grid once through the entry points a user reaches:
``build_config``, ``run_scenario`` and ``emit_results``, or
``execute_run`` where no scenario setting fits.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import SimRun, check_cell, check_rows, check_run, nearest_rank, read_broadcasts_csv
from instrument import Probe
from nebcast.experiments import build_config, runner, scenarios

VARIANTS = ("baseline", "ne")

# ScenarioConfig fields shared by the two grid workloads
_GRID_BASE = {
    "n_nodes": 200,
    "address_bits": 16,
    "bucket_capacity": 15,
    "data_msg_bytes": 128,
    "confirm_msg_bytes": 20,
    "fanouts": (1,),
    "repeats": 1,
    "variants": VARIANTS,
    "disturbance_period_s": 60,
    "refuse_withholds_confirmations": False,
    "flood_check_broadcasts": 0,
    "horizon_s": None,
}


@dataclass(frozen=True)
class Workload:
    name: str
    fault_free: bool
    # a scenario and every ScenarioConfig field but the seed, or None
    scenario: str | None = None
    pins: dict = field(default_factory=dict)
    # RunSpec fields but the variant and the seed, for execute_run
    spec: dict = field(default_factory=dict)
    check_overlays: bool = False

    @property
    def sims_per_round(self) -> int:
        """Simulation runs in one round: one per variant, beta and repeat."""
        if self.scenario is None:
            return len(VARIANTS)
        return len(self.pins["variants"]) * len(self.pins["betas"]) * self.pins["repeats"]


WORKLOADS = {
    w.name: w
    for w in (
        # The latency scenario's 2 ms launch interval, about 2.2 times what
        # the network can carry: a deep event heap and long uplink queues.
        Workload(
            name="latency_overload",
            fault_free=True,
            scenario="latency",
            pins={
                **_GRID_BASE,
                "betas": (1, 2, 3),
                "interval_ms": 2,
                "rounds_per_node": 1,
                "disturbance": "none",
            },
        ),
        # A stable load under churn: half of all deliveries are drops at
        # offline nodes, and 2600 launches over 130 s span the disturbances
        # at 0, 60 and 120 s. How much work a run does depends on its churn
        # pattern, so a round averages two.
        Workload(
            name="churn_periodic",
            fault_free=False,
            scenario="coverage_offline",
            pins={
                **_GRID_BASE,
                "repeats": 2,
                "betas": (2,),
                "interval_ms": 50,
                "rounds_per_node": 13,
                "disturbance": "churn_periodic",
            },
        ),
        # The bootstrap offers every node every other id; at a few thousand
        # nodes that quadratic cost is nearly all of the host time.
        Workload(
            name="wide_bootstrap",
            fault_free=True,
            spec={
                "n_nodes": 2000,
                "redundancy": 1,
                "rounds_per_node": 1,
                "interval_us": 50_000,
                "repeat": 0,
                "address_bits": 16,
                "bucket_capacity": 15,
                "data_msg_bytes": 128,
                "confirm_msg_bytes": 20,
                "disturbance": "none",
                "disturbance_period_us": 60_000_000,
                "refuse_withholds_confirms": False,
                "horizon_us": None,
                "total_broadcasts": 40,
                "require_full_reach": True,
                "collect_log": False,
                "count_per_hash": False,
            },
            check_overlays=True,
        ),
    )
}


@dataclass
class Round:
    """Host timings, simulated outcomes and check problems of one round.

    It keeps totals rather than the simulation runs themselves, so that
    memory does not grow with the number of rounds.
    """

    wall_s: float
    # host time of each overlay bootstrap, in call order
    setup_s: list[float]
    loop_s: dict[str, float]
    events: dict[str, int]
    n_runs: int
    deliveries: int
    accepted: int
    sim: dict[str, float]
    # (index of the simulation run at fault, or None for all, message)
    problems: list[tuple[int | None, str]]


def _pinned_config(workload: Workload, seed: int):
    cfg = build_config(scenario=workload.scenario, overrides={**workload.pins, "seed": seed})
    for key, value in {**workload.pins, "seed": seed}.items():
        if getattr(cfg, key) != value:
            raise RuntimeError(f"config field {key} resolved to {getattr(cfg, key)!r}, pinned {value!r}")
    return cfg


def run_round(workload: Workload, seed: int, out_dir: Path, probe: Probe) -> Round:
    """Run the workload's grid once, time it, and check what it produced."""
    probe.reset()
    gc.collect()
    t0 = perf_counter()
    if workload.scenario is not None:
        cfg = _pinned_config(workload, seed)
        bundle = scenarios.run_scenario(cfg)
        csv_path, _ = scenarios.emit_results(bundle, out_dir)
    else:
        results = [
            runner.execute_run(runner.RunSpec(variant=variant, seed=seed, **workload.spec))
            for variant in VARIANTS
        ]
    wall = perf_counter() - t0 - probe.excluded_s
    runs = probe.runs
    problems: list[tuple[int | None, str]] = [(None, p) for p in probe.problems]
    if len(runs) != workload.sims_per_round:
        problems.append((None, f"{len(runs)} simulation runs, expected {workload.sims_per_round}"))
    for i, run in enumerate(runs):
        problems += [(i, p) for p in check_run(run, workload.fault_free)]
    if workload.scenario is not None:
        rows = read_broadcasts_csv(csv_path)
        for cell in bundle["cells"]:
            key = (cell["variant"], cell["beta"])
            members = [i for i, r in enumerate(runs) if (r.variant, r.beta) == key]
            cell_rows = [row for row in rows if (row["variant"], row["beta"]) == key]
            found = check_rows(cell_rows, [runs[i] for i in members])
            found += check_cell(cell, cell_rows, [runs[i] for i in members], cfg.n_nodes)
            problems += [(i, p) for p in found for i in members]
    else:
        for i, (run, result) in enumerate(zip(runs, results)):
            rows = [
                {
                    "seq": seq,
                    "variant": run.variant,
                    "beta": run.beta,
                    "latency_us": latency_us,
                    "complete": complete,
                    "received": received,
                }
                for seq, _initiator, latency_us, complete, received in result.rows
            ]
            problems += [(i, p) for p in check_rows(rows, [run])]
    return Round(
        wall_s=wall,
        setup_s=list(probe.setup_s),
        loop_s=dict(probe.loop_s),
        events={v: sum(r.events for r in runs if r.variant == v) for v in VARIANTS},
        n_runs=len(runs),
        deliveries=sum(r.deliveries for r in runs),
        accepted=sum(r.accepted for r in runs),
        sim=sim_metrics(runs, workload.fault_free),
        problems=problems,
    )


def sim_metrics(runs: list[SimRun], fault_free: bool) -> dict[str, float]:
    """The simulated outcomes per variant; deterministic for a seed.

    Fault-free, latency is the nearest-rank median over broadcasts of
    the time from the start to the last receipt; every broadcast is
    complete there, so this is the median the summary reports. Under
    churn no broadcast reaches all N nodes, and the time to the last
    receipt swings with a few congested relays, so latency there is the
    nearest-rank median over first receipts, initiators excluded, of
    the time since the broadcast's start.
    """
    out = {}
    for variant in VARIANTS:
        mine = [r for r in runs if r.variant == variant]
        if fault_free:
            delays = [last - start for r in mine for start, last in zip(r.start_us, r.last_us)]
        else:
            # an initiator's own receipt is the only one at delay 0
            delays = [d for r in mine for d in r.delays_us if d > 0]
        sent = sum(r.data_sends * r.data_bytes + r.confirm_sends * r.confirm_bytes for r in mine)
        out[f"sim_latency_p50_ms.{variant}"] = nearest_rank(sorted(delays), 50) / 1000
        out[f"sim_bytes_per_receipt.{variant}"] = sent / sum(r.accepted for r in mine)
        out[f"sim_reached_per_broadcast.{variant}"] = sum(
            sum(r.online_received) for r in mine
        ) / sum(len(r.online_received) for r in mine)
    return out
