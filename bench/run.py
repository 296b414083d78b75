"""Run one nebcast benchmark workload and print its metrics.

    python3 bench/run.py --workload latency_overload --seed 1 --seconds 40 --trace 0

Run from the repository root. The workload runs in whole rounds for
about ``--seconds``: after the first round, another starts only while the
median round time says it will end in time. The outputs of every round
are checked. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, where
``attempted`` and ``failed`` count simulation runs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced round for reference, then traced rounds, and reports the
per-layer metrics; it also writes the spans to
``bench/runs/<workload>/trace.jsonl``. ``--workload all`` runs every
workload in turn, each in a child process of its own.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("latency_overload", "churn_periodic", "wide_bootstrap")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s.baseline", "1/s"),
    ("events_per_s.ne", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_ms.baseline", "ms"),
    ("sim_latency_p50_ms.ne", "ms"),
    ("sim_bytes_per_receipt.baseline", "B"),
    ("sim_bytes_per_receipt.ne", "B"),
    ("sim_reached_per_broadcast.baseline", "nodes"),
    ("sim_reached_per_broadcast.ne", "nodes"),
)

# self time and call count are reported for each of these layers
LAYERS = (
    "experiments.scenarios",
    "experiments.runner",
    "netsim.bootstrap",
    "netsim.engine",
    "netsim.commit",
    "netsim.disturbance",
    "protocol.handle_message",
    "protocol.initiate_broadcast",
    "routing.select_relays",
    "routing.select_uniform",
    "routing.add_score",
    "routing.insert_peer",
    "metrics.tracker",
)

PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.calls", "count") for layer in LAYERS if layer != "netsim.engine"),
    ("netsim.engine.events", "count"),
    ("routing.insert_peer.accept_ratio", "ratio"),
    ("netsim.in_flight_high_water", "count"),
    ("netsim.upstream_wait_ms", "ms"),
    ("netsim.useful_delivery_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(summary))
    return 0


def _rounds_until(seconds: float, start: float, run_one) -> list:
    """One round, then more while the next is expected to end within ``seconds``.

    A round that raises is kept as None, so that its simulation runs count as failed.
    """
    rounds = []
    durations = []
    while not rounds or perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = perf_counter()
        try:
            rounds.append(run_one(len(rounds)))
        except Exception:
            traceback.print_exc()
            rounds.append(None)
        durations.append(perf_counter() - t0)
    return rounds


def _failures(rounds, reference, sims_per_round: int) -> tuple[int, list[str]]:
    """Failed simulation runs and their problems; a run whose outcome differs from the reference fails too."""
    failed = 0
    messages = []
    for k, rnd in enumerate(rounds):
        if rnd is None:
            failed += sims_per_round
            messages.append(f"round {k}: raised")
            continue
        problems = list(rnd.problems)
        if (rnd.sim, rnd.events) != (reference.sim, reference.events):
            problems.append((None, "simulated outcomes differ from the reference round"))
        bad = {i for i, _ in problems}
        failed += rnd.n_runs if None in bad else len(bad)
        messages += [f"round {k}: {message}" for _, message in problems]
    return failed, messages


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "nebcast").is_dir():
        print(f"error: no nebcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from instrument import Patches, Probe, Tracer
    from workloads import WORKLOADS, run_round

    workload = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "runs" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = Probe()

    def one_round(index: int):
        probe.check_overlays = workload.check_overlays and index == 0
        return run_round(workload, args.seed, out_dir, probe)

    start = perf_counter()
    patches = Patches()
    probe.install(patches)
    try:
        if not args.trace:
            rounds = _rounds_until(args.seconds, start, one_round)
            reference = next((r for r in rounds if r is not None), None)
        else:
            reference = one_round(0)
            probe.check_overlays = False
            # the tracer goes in underneath the probe, so that the probe's
            # own work stays outside the layers' spans
            patches.restore()
            tracer = Tracer()
            tracer.install(patches)
            probe.install(patches)
            layer_rounds = []

            def traced_round(index: int):
                tracer.reset_round()
                rnd = run_round(workload, args.seed, out_dir, probe)
                layer_rounds.append(
                    (
                        dict(tracer.self_s),
                        dict(tracer.calls),
                        tracer.inserts_accepted,
                        tracer.in_flight_high_water,
                        tracer.wait_us / max(tracer.commits, 1) / 1000,
                    )
                )
                return rnd

            rounds = _rounds_until(args.seconds, start, traced_round)
            tracer.write(out_dir / "trace.jsonl")
    finally:
        patches.restore()

    if reference is None or not any(rounds):
        print("error: every round raised", file=sys.stderr)
        return 1
    failed, messages = _failures([reference, *rounds] if args.trace else rounds, reference, workload.sims_per_round)
    attempted = workload.sims_per_round * (len(rounds) + args.trace)
    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    rounds = [r for r in rounds if r is not None]

    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["wall_s"] = statistics.median(r.wall_s for r in rounds)
        # every bootstrap of a round builds an overlay of the same size, so
        # the median over all of them, times their number, estimates the
        # round's set-up time with less noise than a median of round sums
        metrics["setup_s"] = statistics.median(t for r in rounds for t in r.setup_s) * len(
            reference.setup_s
        )
        for variant in ("baseline", "ne"):
            metrics[f"events_per_s.{variant}"] = statistics.median(
                r.events[variant] / r.loop_s[variant] for r in rounds
            )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics.update(reference.sim)
        units = dict(END_TO_END)
    else:
        _, first_calls, accepted, high_water, wait_ms = layer_rounds[0]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = statistics.median(
                self_s.get(layer, 0.0) for self_s, *_ in layer_rounds
            )
            if layer != "netsim.engine":
                metrics[f"{layer}.calls"] = first_calls.get(layer, 0)
        offered = first_calls.get("routing.insert_peer", 0)
        metrics["netsim.engine.events"] = sum(reference.events.values())
        metrics["routing.insert_peer.accept_ratio"] = accepted / offered if offered else 0.0
        metrics["netsim.in_flight_high_water"] = high_water
        metrics["netsim.upstream_wait_ms"] = wait_ms
        metrics["netsim.useful_delivery_ratio"] = reference.accepted / reference.deliveries
        metrics["trace.overhead_ratio"] = (
            statistics.median(r.wall_s for r in rounds) / reference.wall_s
        )
        units = dict(PER_LAYER)

    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: {len(rounds)} rounds,"
        f" {attempted} simulation runs, {failed} failed"
    )
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
