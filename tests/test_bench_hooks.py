"""The benchmark's traced mode still hooks into the engine.

``bench/run.py --trace 1`` replaces engine methods and reads engine
attributes by name (``Engine._commit``, ``engine.heap``,
``engine.next_hash``, ``engine.disturb_times``, the tracker's methods).
This runs one small churn round with the tracer and the probe installed
in the order ``bench/run.py`` installs them, so that a change to those
names fails here rather than only in the benchmark.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from instrument import Patches, Probe, Tracer  # noqa: E402
from workloads import WORKLOADS, run_round  # noqa: E402


def test_traced_churn_round_passes_its_checks(tmp_path):
    base = WORKLOADS["churn_periodic"]
    # 192 launches over 9.6 s with a disturbance every 2 s: held sends,
    # queue losses and rejoins all occur
    workload = replace(
        base,
        pins={
            **base.pins,
            "n_nodes": 48,
            "rounds_per_node": 4,
            "repeats": 1,
            "disturbance_period_s": 2,
        },
    )
    probe = Probe()
    tracer = Tracer()
    patches = Patches()
    tracer.install(patches)
    probe.install(patches)
    try:
        rnd = run_round(workload, 1, tmp_path, probe)
    finally:
        patches.restore()
    assert rnd.problems == []
    assert rnd.n_runs == workload.sims_per_round == 2
    assert tracer.calls["netsim.commit"] > 0
    assert tracer.in_flight_high_water > 0


def test_wide_bootstrap_round_passes_its_overlay_checks(tmp_path):
    # the execute_run path: RunSpecs built from the workload's keywords,
    # whose overlays the probe checks against their address_bits and
    # bucket_capacity
    base = WORKLOADS["wide_bootstrap"]
    workload = replace(base, spec={**base.spec, "n_nodes": 64, "total_broadcasts": 4})
    probe = Probe()
    probe.check_overlays = True
    patches = Patches()
    probe.install(patches)
    try:
        rnd = run_round(workload, 1, tmp_path, probe)
    finally:
        patches.restore()
    assert rnd.problems == []
    assert rnd.n_runs == workload.sims_per_round == 2
