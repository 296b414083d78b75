"""Release gates for the simulator, one verdict line per gate.

Each gate prints `[acceptance NN] PASS/FAIL ...` straight to the terminal
(bypassing capture) so a plain pytest run shows all ten verdicts with
their measured numbers and runtime against budget. The expensive
scenario grids are module-scoped fixtures shared across gates.

Gate 05 reads the unreceived fraction among the nodes that were online
when each broadcast started (``online_unreceived_pct``). Under serial
churn about half of all (broadcast, node) pairs are offline at every
scale, so the whole-population ``unreceived_pct`` has a floor near 52%
and a scoring/baseline ratio of 0.6 would need a baseline above 87%
unreceived; the online count measures dissemination alone. Senders
cannot see liveness, so baseline tables keep dead entries that only
neighbor evaluation learns to route around.

One gate measures a claim that the pinned latency load does not show
and is expected to fail. It fails with its measured values printed;
nothing is skipped or marked expected-fail:

- gate 07, redundancy-1 leg: scoring is expected to slow broadcasts down
  at beta=1 through its 20-byte confirmations. The latency scenario
  launches a broadcast every 2 ms, but with a mean upstream of
  236.8 kbit/s the network needs about 4.3 ms per broadcast per unit of
  beta, so it runs at about 2.2 times its capacity and queues grow with
  run length (baseline p50 3.6 s at 1 round per node, 28.6 s at 10).
  Scoring credits senders by delivered messages, which moves data off
  the slow uplinks (128k+64k share of data sends 35.1% -> 28.9%), and
  that saves more (about 9.8 s) than the confirmations cost (+1.6 s).
  At a stable load (N=200, launches every 50, 100 or 200 ms) the beta=1
  difference is -2, -1 and -5 ms, within noise. Whether the claim or the
  pinned load is wrong is left open.
- gate 07, redundancy-3 leg: its sign depends on the overlay draw (at
  seeds 1-4 the scoring-baseline difference is +197, -1223, +1237 and
  +178 ms), so at the fixture's seed 1 it misses as well.
"""

from __future__ import annotations

import random
import time

import pytest

from nebcast.experiments.config import build_config
from nebcast.experiments.scenarios import (
    emit_results,
    run_faultfree_audit,
    run_scenario,
)
from nebcast.protocol import (
    CONFIRM_BYTES,
    DATA_BYTES,
    Message,
    NodeState,
    Ticket,
    handle_message,
    initiate_broadcast,
)
from nebcast.routing import RoutingTable, rank_weights, select_relays


class _RankZeroRng:
    """Always draws 0.0, so weighted selection picks the top rank."""

    def random(self) -> float:
        return 0.0


def _verdict(capsys, tag: str, passed: bool, detail: str) -> None:
    line = f"[acceptance {tag}] {'PASS' if passed else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def _cell_map(bundle: dict) -> dict:
    return {(cell["variant"], cell["beta"]): cell for cell in bundle["cells"]}


@pytest.fixture(scope="module")
def churn_grid():
    """Coverage grid under both churn modes: 2 x 2 variants x 4 betas x 3 repeats."""
    start = time.perf_counter()
    bundles = {}
    for disturbance in ("churn_once", "churn_periodic"):
        cfg = build_config(
            scenario="coverage_offline",
            overrides={"disturbance": disturbance, "seed": "1"},
        )
        bundles[disturbance] = run_scenario(cfg)
    return bundles, time.perf_counter() - start


@pytest.fixture(scope="module")
def refuse_grid():
    start = time.perf_counter()
    cfg = build_config(scenario="coverage_refuse", overrides={"seed": "1"})
    return run_scenario(cfg), time.perf_counter() - start


@pytest.fixture(scope="module")
def latency_bundle():
    start = time.perf_counter()
    cfg = build_config(scenario="latency", overrides={"seed": "1"})
    return run_scenario(cfg), time.perf_counter() - start


@pytest.fixture(scope="module")
def gossip_bundle():
    start = time.perf_counter()
    cfg = build_config(scenario="gossip_sweep", overrides={"seed": "1"})
    return run_scenario(cfg), time.perf_counter() - start


def test_01_exactly_once_fault_free_delivery(capsys):
    start = time.perf_counter()
    parts = []
    ok = True
    for n in (8, 16, 64, 200):
        cfg = build_config(
            scenario="faultfree_audit",
            overrides={"n_nodes": str(n), "variants": "baseline", "seed": "1"},
        )
        bundle = run_faultfree_audit(cfg)
        failed = [check["name"] for check in bundle["checks"] if not check["passed"]]
        exact = all(cell["coverage_pct"] == 100.0 for cell in bundle["cells"])
        good = not failed and exact
        ok = ok and good
        parts.append(f"N={n} {'ok' if good else 'FAILED ' + '; '.join(failed)}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(
        capsys,
        "01",
        ok,
        "exactly-once fault-free delivery, N-1 transmissions, 100% coverage: "
        f"{', '.join(parts)} ({elapsed:.1f}s, budget 10s)",
    )


def test_02_relay_selection_matches_rank_weights(capsys):
    start = time.perf_counter()
    table = RoutingTable(0, 8, 7)
    peers = list(range(128, 135))
    for inserted_at, peer in enumerate(peers):
        assert table.insert_peer(peer, now=inserted_at)
    bucket = table.buckets[0]
    rank = {peer: i for i, peer in enumerate(peers)}
    weights = rank_weights(7)
    total = sum(weights)
    trials = 100_000
    rng = random.Random(1)

    first = [0] * 7
    for _ in range(trials):
        picked = select_relays(bucket, 1, rng)
        first[rank[picked[0].peer]] += 1
    first_err = max(abs(first[r] / trials - weights[r] / total) for r in range(7))

    pairs: dict[tuple[int, int], int] = {}
    for _ in range(trials):
        picked = select_relays(bucket, 2, rng)
        key = (rank[picked[0].peer], rank[picked[1].peer])
        pairs[key] = pairs.get(key, 0) + 1
    pair_err = 0.0
    for i in range(7):
        for j in range(7):
            if i == j:
                continue
            expected = (weights[i] / total) * (weights[j] / (total - weights[i]))
            seen = pairs.get((i, j), 0) / trials
            pair_err = max(pair_err, abs(seen - expected))

    elapsed = time.perf_counter() - start
    ok = first_err <= 0.01 and pair_err <= 0.01 and elapsed < 5.0
    _verdict(
        capsys,
        "02",
        ok,
        f"rank-weighted selection over {trials} trials: first-draw max deviation "
        f"{first_err * 100:.2f}pp, two-draw order max deviation {pair_err * 100:.2f}pp "
        f"(limit 1pp each) ({elapsed:.1f}s, budget 5s)",
    )


def test_03_confirmation_voting_exact_outcome(capsys):
    # Source 1 in a 3-bit space holds {4, 5} and {2, 3} in its two
    # populated buckets. Insertion order makes 4 and 3 the top ranks,
    # so a rank-0 draw relays to them and tickets the probes 5 and 2.
    source_table = RoutingTable(1, 3, 7)
    for inserted_at, peer in enumerate((4, 3, 5, 2)):
        assert source_table.insert_peer(peer, now=inserted_at)
    source = NodeState(1, source_table)
    h = 77
    sends = initiate_broadcast(source, DATA_BYTES, 1, True, _RankZeroRng(), 0, h)
    relays_ok = sorted(dest for dest, _ in sends) == [3, 4]
    tickets_ok = source.tickets == {Ticket(h, 5), Ticket(h, 2)}

    # Both probes hear node 3's forwarded copy first and echo a
    # confirmation that names 3 in the relay field.
    confirmations = []
    for probe_id in (2, 5):
        probe_table = RoutingTable(probe_id, 3, 7)
        assert probe_table.insert_peer(1, now=0)
        probe = NodeState(probe_id, probe_table)
        copy = Message(h, DATA_BYTES, 1, 3, 3)
        out = handle_message(probe, copy, 1, True, random.Random(0), 5)
        confirmations.extend(out)
    shapes_ok = all(
        dest == 1 and m.is_confirmation and m.size == CONFIRM_BYTES and m.relay == 3
        for dest, m in confirmations
    ) and len(confirmations) == 2

    for _, confirmation in confirmations:
        handle_message(source, confirmation, 1, True, random.Random(0), 9)
    scores = source.table.scores()
    votes_ok = scores == {3: 2, 2: 1, 5: 1, 4: 0}

    repeat = handle_message(source, confirmations[0][1], 1, True, random.Random(0), 11)
    inert_ok = (
        not repeat and source.table.scores() == scores and source.tickets == set()
    )

    ok = relays_ok and tickets_ok and shapes_ok and votes_ok and inert_ok
    _verdict(
        capsys,
        "03",
        ok,
        "confirmation voting: first-heard relay credited by both probes (+2), "
        f"each probe +1, losing relay 0, repeat vote inert -> scores {scores}",
    )


def test_04_churn_unreceived_vs_redundancy(churn_grid, capsys):
    bundles, elapsed = churn_grid
    once = _cell_map(bundles["churn_once"])
    base_curve = [once[("baseline", beta)]["unreceived_pct"] for beta in (1, 2, 3, 4)]
    decreasing = all(a > b for a, b in zip(base_curve, base_curve[1:]))

    better = 0
    within_half_point = True
    for disturbance in ("churn_once", "churn_periodic"):
        cells = _cell_map(bundles[disturbance])
        for beta in (1, 2, 3, 4):
            base = cells[("baseline", beta)]["unreceived_pct"]
            ne = cells[("ne", beta)]["unreceived_pct"]
            if ne < base:
                better += 1
            if ne > base + 0.5:
                within_half_point = False

    ok = decreasing and within_half_point and better >= 6 and elapsed < 300
    curve = " > ".join(f"{value:.2f}" for value in base_curve)
    _verdict(
        capsys,
        "04",
        ok,
        f"churn coverage vs redundancy: baseline unreceived {curve}% "
        f"({'strictly decreasing' if decreasing else 'NOT decreasing'}), scoring "
        f"better in {better}/8 cells (need 6), within +0.5pp everywhere: "
        f"{within_half_point} ({elapsed:.0f}s, budget 300s)",
    )


def test_05_unreceived_halving_at_desk_scale(churn_grid, capsys):
    bundles, _ = churn_grid
    ratios = []
    halved = 0
    for disturbance in ("churn_once", "churn_periodic"):
        cells = _cell_map(bundles[disturbance])
        for beta in (1, 2, 3, 4):
            base = cells[("baseline", beta)]["online_unreceived_pct"]
            ne = cells[("ne", beta)]["online_unreceived_pct"]
            ratio = ne / base
            if ratio <= 0.6:
                halved += 1
            ratios.append(f"{disturbance.removeprefix('churn_')}/b{beta}={ratio:.3f}")
    _verdict(
        capsys,
        "05",
        halved >= 4,
        f"unreceived among online nodes, ratio scoring/baseline <= 0.6 in "
        f"{halved}/8 cells (need 4): {', '.join(ratios)}",
    )


def test_06_refuse_relay_gap_exceeds_churn_gap(refuse_grid, churn_grid, capsys):
    bundle, elapsed = refuse_grid
    cells = _cell_map(bundle)
    gaps = []
    all_at_least_baseline = True
    for beta in (1, 2, 3, 4):
        base = cells[("baseline", beta)]["honest_coverage_pct"]
        ne = cells[("ne", beta)]["honest_coverage_pct"]
        gaps.append(ne - base)
        if ne < base:
            all_at_least_baseline = False
    churn_cells = _cell_map(churn_grid[0]["churn_once"])
    churn_gaps = [
        churn_cells[("ne", beta)]["coverage_pct"]
        - churn_cells[("baseline", beta)]["coverage_pct"]
        for beta in (1, 2, 3, 4)
    ]
    mean_refuse = sum(gaps) / len(gaps)
    mean_churn = sum(churn_gaps) / len(churn_gaps)
    ok = all_at_least_baseline and mean_refuse > mean_churn and elapsed < 300
    shown = ", ".join(f"b{beta}=+{gap:.2f}" for beta, gap in zip((1, 2, 3, 4), gaps))
    _verdict(
        capsys,
        "06",
        ok,
        f"half refusing to relay: scoring >= baseline in all 4 cells ({shown}pp), "
        f"mean gap {mean_refuse:.2f}pp vs churn gap {mean_churn:.2f}pp "
        f"({elapsed:.0f}s, budget 300s)",
    )


def test_07_latency_direction_by_redundancy(latency_bundle, capsys):
    bundle, elapsed = latency_bundle
    cells = _cell_map(bundle)

    initiators: dict[tuple[str, int], list[int]] = {}
    for _, initiator, variant, beta, _, _, _ in bundle["rows"]:
        initiators.setdefault((variant, beta), []).append(initiator)
    paired = all(
        initiators[("baseline", beta)] == initiators[("ne", beta)]
        for beta in (1, 2, 3)
    )

    p50 = {
        (variant, beta): cells[(variant, beta)]["latency"]["p50_us"]
        for variant in ("baseline", "ne")
        for beta in (1, 2, 3)
    }
    complete = all(
        cells[(variant, beta)]["latency"]["incomplete"] == 0
        for variant in ("baseline", "ne")
        for beta in (1, 2, 3)
    )
    deltas = {beta: (p50[("ne", beta)] - p50[("baseline", beta)]) / 1000 for beta in (1, 2, 3)}
    faster_at_2 = p50[("ne", 2)] <= p50[("baseline", 2)]
    faster_at_3 = p50[("ne", 3)] <= p50[("baseline", 3)]
    slower_at_1 = p50[("ne", 1)] >= p50[("baseline", 1)]

    ok = paired and complete and faster_at_2 and faster_at_3 and slower_at_1 and elapsed < 300
    _verdict(
        capsys,
        "07",
        ok,
        "median latency scoring-baseline: "
        f"beta=2 {deltas[2]:+.0f}ms (need <=0: {faster_at_2}), "
        f"beta=3 {deltas[3]:+.0f}ms (need <=0: {faster_at_3}), "
        f"beta=1 {deltas[1]:+.0f}ms (need >=0: {slower_at_1}), "
        f"paired initiators: {paired}, all complete: {complete} "
        f"({elapsed:.0f}s, budget 300s)",
    )


def test_08_gossip_fanout_sweep(gossip_bundle, capsys):
    bundle, elapsed = gossip_bundle
    sweep = [cell for cell in bundle["cells"] if not cell.get("flooding")]
    flood = [cell for cell in bundle["cells"] if cell.get("flooding")]
    fanouts = [cell["beta"] for cell in sweep]
    coverages = [cell["coverage_pct"] for cell in sweep]
    nondecreasing = all(a <= b for a, b in zip(coverages, coverages[1:]))
    partial_at_one = coverages[0] < 100.0
    flood_full = len(flood) == 1 and flood[0]["coverage_pct"] == 100.0
    ok = (
        fanouts == [1, 2, 3, 4, 6, 8]
        and nondecreasing
        and partial_at_one
        and flood_full
        and elapsed < 120
    )
    shown = ", ".join(f"{cov:.2f}" for cov in coverages)
    _verdict(
        capsys,
        "08",
        ok,
        f"gossip coverage over fanouts {fanouts}: {shown}% "
        f"(non-decreasing: {nondecreasing}, fanout 1 below 100%: {partial_at_one}), "
        f"flooding {flood[0]['coverage_pct']:.1f}% ({elapsed:.0f}s, budget 120s)",
    )


def test_09_rerun_byte_identical(tmp_path, capsys):
    overrides = {
        "n_nodes": "64",
        "rounds_per_node": "1",
        "repeats": "2",
        "betas": "1,2",
        "seed": "7",
    }
    outputs = []
    for tag in ("first", "second"):
        cfg = build_config(scenario="coverage_offline", overrides=dict(overrides))
        bundle = run_scenario(cfg)
        outputs.append(emit_results(bundle, tmp_path / tag))
    same_csv = outputs[0][0].read_bytes() == outputs[1][0].read_bytes()
    same_json = outputs[0][1].read_bytes() == outputs[1][1].read_bytes()
    ok = same_csv and same_json
    _verdict(
        capsys,
        "09",
        ok,
        f"identical config+seed rerun: csv byte-identical {same_csv}, "
        f"json byte-identical {same_json} (zero tolerance)",
    )


def test_10_thousand_node_smoke(capsys):
    start = time.perf_counter()
    cfg = build_config(
        scenario="coverage_offline", profile="large_smoke", overrides={"seed": "1"}
    )
    bundle = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    cells = _cell_map(bundle)
    base = cells[("baseline", 2)]
    ne = cells[("ne", 2)]
    untruncated = not base["truncated"] and not ne["truncated"]
    direction = ne["coverage_pct"] >= base["coverage_pct"]
    ok = untruncated and direction and elapsed < 1800
    _verdict(
        capsys,
        "10",
        ok,
        f"1000 nodes, 1000 broadcasts at 50ms: coverage scoring "
        f"{ne['coverage_pct']:.2f}% vs baseline {base['coverage_pct']:.2f}% "
        f"(need >=), truncated: {not untruncated} ({elapsed:.0f}s, budget 1800s)",
    )
