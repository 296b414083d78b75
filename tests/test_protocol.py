"""Broadcast protocol tests: initiation, reception order, voting, gossip.

The scripted scenarios pin down exact relay sets by seeding scores and
using a stub rng that always lands on rank 0, so every expectation here
is hand-derivable from the bucket layout alone.
"""

from __future__ import annotations

import random
from heapq import heappush

import pytest

from nebcast.netsim import DELIVER, Engine, NetworkConfig, NodeNetProfile
from nebcast.protocol import (
    CONFIRM_BYTES,
    DATA_BYTES,
    Message,
    NodeState,
    gossip_handle,
    handle_message,
    initiate_broadcast,
    record_vote,
)
from nebcast.routing import RoutingTable


class _RankZeroRng:
    """Always draws 0.0, so weighted selection picks the top rank."""

    def random(self) -> float:
        return 0.0


def _node(owner: int, width: int = 3, capacity: int = 7, peers=(), refuses=False) -> NodeState:
    table = RoutingTable(owner, width, capacity)
    node = NodeState(owner, table, refuses_relay=refuses)
    for peer in peers:
        assert table.insert_peer(peer)
    return node


def _data(h: int, source: int, relay: int, sender: int) -> Message:
    return Message(h, DATA_BYTES, source, relay, sender)


def test_initiate_one_relay_per_bucket_and_tickets_for_the_rest():
    # source 0 in a 3-bit space with peers 1, 2, 3, 4, 6:
    # bucket 0 holds {4, 6}, bucket 1 holds {2, 3}, bucket 2 holds {1}.
    # Scoring 3 promotes it over 2, so a rank-0 draw selects 4, 3, 1
    # and leaves 6 and 2 as probes.
    node = _node(0, peers=(1, 2, 3, 4, 6))
    node.table.add_score(3)
    sends = initiate_broadcast(node, DATA_BYTES, 1, True, _RankZeroRng(), 900)
    assert [dest for dest, _ in sends] == [4, 3, 1]
    for dest, m in sends:
        assert m.relay == dest
        assert m.source == 0 and m.sender == 0
        assert m.size == DATA_BYTES and not m.is_confirmation
    assert node.tickets == {900: {6, 2}}


def test_initiate_with_empty_table_sends_nothing():
    node = _node(0, peers=())
    sends = initiate_broadcast(node, DATA_BYTES, 2, True, random.Random(1), 7)
    assert sends == []
    assert node.tickets == {}


def test_initiate_without_ne_never_creates_tickets():
    rng = random.Random(4)
    for trial in range(50):
        node = _node(0, peers=(1, 2, 3, 4, 5, 6, 7))
        sends = initiate_broadcast(node, DATA_BYTES, 2, False, rng, trial)
        assert node.tickets == {}
        assert len(sends) == 5  # two per populated multi-entry bucket, one for bucket 2


def test_initiate_beta_covers_everything():
    node = _node(0, peers=(1, 2, 3, 4, 6))
    sends = initiate_broadcast(node, DATA_BYTES, 7, True, _RankZeroRng(), 1)
    assert sorted(dest for dest, _ in sends) == [1, 2, 3, 4, 6]
    assert node.tickets == {}


def test_message_kind_is_keyword_only():
    # a sixth positional argument must not silently turn data into a confirmation
    with pytest.raises(TypeError):
        Message(7, DATA_BYTES, 1, 3, 3, True)
    assert not Message(7, DATA_BYTES, 1, 3, 3).is_confirmation
    assert Message(7, CONFIRM_BYTES, 1, 3, 3, is_confirmation=True).is_confirmation


def test_handle_new_message_scores_sender_and_relays_subtree_only():
    # receiver 0 heard from sender 4 (bucket 0), so it may relay only
    # into buckets 1 and 2, never back into bucket 0
    node = _node(0, peers=(1, 2, 3, 6))
    m = _data(7, source=4, relay=4, sender=4)
    sends = handle_message(node, m, 2, False, random.Random(3))
    assert node.table.scores()[6] == 0  # only the sender is credited
    dests = [dest for dest, _ in sends]
    assert set(dests) <= {1, 2, 3}
    assert {2, 3} <= set(dests)  # beta 2 takes all of bucket 1
    for _, fm in sends:
        assert fm.sender == 0
        assert fm.relay == 4  # relay field rides along unchanged
        assert fm.source == 4
        assert fm.size == DATA_BYTES


def test_handle_scores_sender_even_when_sender_unknown():
    node = _node(0, peers=(1,))
    m = _data(7, source=6, relay=6, sender=6)
    handle_message(node, m, 1, False, random.Random(3))
    # sender is not in the table; scoring is a no-op
    assert node.table.scores() == {1: 0}


def test_handle_emits_confirmation_when_source_is_reachable_neighbor():
    # node 4 hears (source 1, relay 2) from node 2; since 1 sits in
    # node 4's table the reception is echoed back to 1 as a small
    # confirmation carrying the original relay choice
    node = _node(4, peers=(1, 2, 6))
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng())
    confirms = [(dest, fm) for dest, fm in sends if fm.is_confirmation]
    assert len(confirms) == 1
    dest, confirm = confirms[0]
    assert dest == 1
    assert confirm.size == CONFIRM_BYTES
    assert confirm.relay == 2 and confirm.sender == 4 and confirm.source == 1


def test_source_settles_vote_from_confirmation():
    # continuation of the scenario above, seen from node 1
    source = _node(1, peers=(2, 4, 5))
    source.tickets[7] = {4}
    confirm = Message(7, CONFIRM_BYTES, 1, 2, 4, is_confirmation=True)
    assert record_vote(source, confirm)
    assert source.table.scores()[4] == 1  # probe credit
    assert source.table.scores()[2] == 1  # relay credit
    assert source.tickets == {7: set()}


def test_source_ignores_confirmation_without_ticket():
    source = _node(1, peers=(2, 4, 5))
    confirm = Message(7, CONFIRM_BYTES, 1, 2, 4, is_confirmation=True)
    assert not record_vote(source, confirm)
    assert all(score == 0 for score in source.table.scores().values())


def test_no_confirmation_when_sender_is_source():
    node = _node(4, peers=(1, 2))
    m = _data(7, source=1, relay=4, sender=1)
    sends = handle_message(node, m, 1, True, _RankZeroRng())
    assert all(not fm.is_confirmation for _, fm in sends)


def test_no_confirmation_when_source_not_in_table():
    node = _node(4, peers=(2, 6))
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng())
    assert all(not fm.is_confirmation for _, fm in sends)


def test_no_confirmation_when_ne_disabled():
    node = _node(4, peers=(1, 2))
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, False, random.Random(1))
    assert all(not fm.is_confirmation for _, fm in sends)


def test_refusing_node_confirms_but_does_not_relay():
    node = _node(4, peers=(1, 2, 6), refuses=True)
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng())
    assert len(sends) == 1
    assert sends[0][1].is_confirmation


def test_refusing_node_can_withhold_confirmations_too():
    node = _node(4, peers=(1, 2, 6), refuses=True)
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng(), refuse_withholds_confirms=True)
    assert sends == []


def test_vote_settlement_first_confirmation_per_probe_wins():
    # source 1 in a 3-bit space: bucket 0 holds {4, 5}, bucket 1 holds
    # {2, 3}. Scoring 3 makes the rank-0 draws pick relays 4 and 3,
    # leaving 5 and 2 as probes. Both probes then report that node 3's
    # branch reached them first, so 3 banks both relay votes.
    source = _node(1, peers=(2, 3, 4, 5))
    source.table.add_score(3)
    sends = initiate_broadcast(source, DATA_BYTES, 1, True, _RankZeroRng(), 7)
    assert sorted(dest for dest, _ in sends) == [3, 4]
    assert source.tickets == {7: {5, 2}}

    base = source.table.scores()
    confirmations = [
        Message(7, CONFIRM_BYTES, 1, 3, 2, is_confirmation=True),
        Message(7, CONFIRM_BYTES, 1, 3, 5, is_confirmation=True),
        Message(7, CONFIRM_BYTES, 1, 3, 2, is_confirmation=True),  # repeat vote, must not count
    ]
    assert [record_vote(source, m) for m in confirmations] == [True, True, False]
    after = source.table.scores()
    deltas = {peer: after[peer] - base[peer] for peer in after if after[peer] != base[peer]}
    assert deltas == {3: 2, 2: 1, 5: 1}
    assert source.table.scores()[4] == base[4]  # losing relay gains nothing
    assert source.tickets == {7: set()}


def test_vote_outcome_empty_batch():
    # issuing tickets credits nobody: without a confirmation no score moves
    source = _node(1, peers=(2, 3, 4, 5))
    initiate_broadcast(source, DATA_BYTES, 1, True, _RankZeroRng(), 7)
    assert source.tickets == {7: {5, 3}}
    assert source.table.scores() == {2: 0, 3: 0, 4: 0, 5: 0}


def test_gossip_initiator_pushes_its_own_copy_up_to_the_fanout():
    # an initiator hands gossip_handle the copy it sent itself
    own = _data(9, source=0, relay=0, sender=0)
    node = _node(0, peers=(1, 2, 3, 4))
    sends = gossip_handle(node, own, 2, random.Random(5))
    assert len(sends) == 2
    assert {dest for dest, _ in sends} <= {1, 2, 3, 4}
    for _, m in sends:
        fields = (m.hash, m.size, m.source, m.relay, m.sender, m.is_confirmation)
        assert fields == (9, DATA_BYTES, 0, 0, 0, False)
    # leaving out the sender removes no one from the initiator's own table
    full = _node(0, peers=(1, 2))
    assert len(gossip_handle(full, own, 10, random.Random(5))) == 2


def test_gossip_handle_excludes_sender():
    node = _node(5, peers=(1, 2, 3))
    m = _data(9, source=1, relay=1, sender=1)
    sends = gossip_handle(node, m, 10, random.Random(2))
    assert {dest for dest, _ in sends} == {2, 3}  # flooding limit skips the sender
    for _, fm in sends:
        assert fm.sender == 5


def test_gossip_handle_respects_fanout():
    rng = random.Random(6)
    for trial in range(30):
        node = _node(5, width=4, capacity=15, peers=range(6, 16))
        m = _data(trial, source=6, relay=6, sender=6)
        sends = gossip_handle(node, m, 3, rng)
        dests = [dest for dest, _ in sends]
        assert len(dests) == len(set(dests)) == 3
        assert 6 not in dests


def _engine(nodes: list[NodeState], variant: str) -> Engine:
    """A logging engine over hand-built nodes of the 3-bit space, β = 1."""
    profiles = [NodeNetProfile(0, 512_000) for _ in nodes]
    config = NetworkConfig(len(nodes), address_bits=3, bucket_capacity=7)
    return Engine(nodes, profiles, config, random.Random(3), variant=variant, collect_log=True)


def _deliver(engine: Engine, index: int, m: Message, times: list[int]) -> None:
    """Deliver a copy of ``m`` to node ``index`` at each of ``times``, then drain the engine.

    The hash is opened as at its initiation, at the first time: held by
    its source, with its tracker record. Each copy is counted as on the
    heap, so the hash stays live until the last of them, and whatever it
    causes, has landed.
    """
    source = engine.idx_of[m.source]
    engine.holders[m.hash] = {source}
    engine.tracker.initiate(m.hash, source, times[0], True, (1 << len(engine.nodes)) - 1)
    for t in times:
        heappush(engine.heap, (t, engine.seq, DELIVER, index, m))
        engine.seq += 1
        engine.copies[m.hash] = engine.copies.get(m.hash, 0) + 1
    engine.run()


def _engine_state(engine: Engine) -> tuple:
    """Every trace a delivery can leave except the duplicate count and the deliver entries."""
    return (
        engine.accepted, engine.data_sends, engine.confirm_sends, engine.dropped_offline,
        engine.tickets_orphaned, engine.tickets_lost, engine.holders,
        [(node.online, node.table.scores(), node.tickets) for node in engine.nodes],
        [entry for entry in engine.log if entry[0] != "deliver"],
    )


def test_engine_counts_a_repeated_copy_as_an_inert_duplicate():
    # node 0 hears hash 7 from its source, node 4 (bucket 0), and passes
    # it on to node 1 (bucket 2), which is offline; the same copy then
    # arrives again and must change nothing but the duplicate count
    for variant in ("ne", "gossip"):
        runs = []
        for times in ([0], [0, 100_000]):
            nodes = [_node(0, peers=(1, 4)), _node(1, peers=(0, 4)), _node(4, peers=(0, 1))]
            nodes[1].online = False
            engine = _engine(nodes, variant)
            _deliver(engine, 0, _data(7, source=4, relay=4, sender=4), times)
            runs.append(engine)
        once, twice = runs
        assert once.data_sends == once.dropped_offline == 1
        assert _engine_state(twice) == _engine_state(once)
        assert (once.accepted, once.duplicates) == (1, 0), variant
        assert (twice.accepted, twice.duplicates) == (1, 1), variant
        delivers = [entry for entry in twice.log if entry[0] == "deliver"]
        assert [entry[5] for entry in delivers] == [True, False]
        if variant == "ne":
            assert twice.nodes[0].table.scores() == {1: 0, 4: 1}
        # the last copy has landed: the broadcast's state is gone
        assert not twice.holders and not twice.copies


def test_engine_settles_a_repeated_confirmation_once_at_the_source():
    # the source always holds its hash, so every copy that reaches it is
    # a duplicate; a confirmation still passes through record_vote to
    # settle its ticket's vote, and its repeat finds the ticket gone
    nodes = [_node(1, peers=(2, 4, 5)), _node(2), _node(4), _node(5)]
    source = nodes[0]
    source.tickets[7] = {4, 5}
    engine = _engine(nodes, "ne")
    confirm = Message(7, CONFIRM_BYTES, 1, 2, 4, is_confirmation=True)
    _deliver(engine, 0, confirm, [0, 100_000])
    assert source.table.scores() == {2: 1, 4: 1, 5: 0}
    # probe 5 never confirmed; its ticket is orphaned when the hash retires
    assert source.tickets == {} and engine.tickets_orphaned == 1
    assert (engine.accepted, engine.duplicates) == (0, 2)
    # the vote's score entries precede the deliver entry of its copy
    assert [(entry[0], entry[1]) for entry in engine.log] == [
        ("score", 0), ("score", 0), ("deliver", 0), ("deliver", 100_000)
    ]


class _ScriptedRng:
    """Draws the given values in order; ``sample`` keeps the population's order."""

    def __init__(self, draws: list[float]):
        self.draws = iter(draws)

    def random(self) -> float:
        return next(self.draws)

    def sample(self, population, k: int) -> list:
        return list(population)[:k]


def test_engine_counts_a_copy_to_a_returner_as_a_duplicate():
    # node 1 takes hash 7 from its source, node 4, at 0 and passes it on
    # to node 0. It falls at the disturbance at 10 ms (draw 0.0 < 2/3)
    # and returns at the one at 20 ms (0.9 >= 2/3); node 0 stays up
    # (0.9 >= 1/3) and node 4, the last serial, falls. A disturbance
    # leaves what a node holds alone, so a copy of the hash still in
    # flight that reaches node 1 at 30 ms is a duplicate, not a receipt.
    for variant in ("baseline", "ne"):
        runs = []
        for times in ([0], [0, 30_000]):
            nodes = [_node(0, peers=(1, 4)), _node(1, peers=(0, 4)), _node(4, peers=(0, 1))]
            engine = _engine(nodes, variant)
            engine.disturb_rng = _ScriptedRng([0.9, 0.0, 0.0, 0.9, 0.9, 0.0])
            engine.push_disturbance(10_000)
            engine.push_disturbance(20_000)
            _deliver(engine, 1, _data(7, source=4, relay=1, sender=4), times)
            runs.append(engine)
        once, twice = runs
        assert ("node_offline", 10_000, 1) in once.log and ("node_online", 20_000, 1) in once.log
        assert [node.online for node in once.nodes] == [True, True, False]
        assert _engine_state(twice) == _engine_state(once)
        assert (once.accepted, once.duplicates) == (2, 0), variant
        assert (twice.accepted, twice.duplicates) == (2, 1), variant
        assert [entry[1:3] + entry[5:6] for entry in twice.log if entry[0] == "deliver"][-1] == (
            30_000, 1, False
        )


def test_ticket_votes_conserved_per_broadcast():
    # end-to-end audit of the one-vote-per-ticket rule: run full
    # evaluation-enabled simulations and group the logged score events
    # by broadcast. Every ticket issued is settled by one vote, cleared
    # with its source at a disturbance, or orphaned when its broadcast
    # retires.
    for disturbance, withholds in (
        ("churn_once", False),
        ("churn_mid", False),
        ("none", False),
        ("refuse_half", False),
        ("refuse_half", True),
    ):
        _check_ticket_votes(disturbance, withholds)


def _check_ticket_votes(disturbance: str, withholds: bool) -> None:
    from nebcast.netsim import assign_refusers, bootstrap_topology
    from nebcast.netsim import SCORE_PROBE_VOTE, SCORE_RELAY_VOTE
    from nebcast.seeding import stream

    config = NetworkConfig(40)
    nodes, profiles = bootstrap_topology(config, stream(61, "topology", 0))
    if disturbance == "refuse_half":
        assign_refusers(nodes, stream(61, "disturb", 0))
    engine = Engine(
        nodes,
        profiles,
        config,
        stream(61, "protocol", 0),
        variant="ne",
        beta=2,
        refuse_withholds_confirms=withholds,
        disturb_rng=stream(61, "disturb", 0),
        collect_log=True,
    )
    if disturbance == "churn_once":
        engine.push_disturbance(0)
    elif disturbance == "churn_mid":
        # the broadcasts launch from 0 to 238 ms; sources fall among them
        for t in (60_000, 120_000, 180_000):
            engine.push_disturbance(t)
    for j in range(120):
        engine.push_initiate(j * 2_000, j % 40)
    engine.run()

    issued: dict[tuple[int, int], set[int]] = {}
    probe_votes: dict[tuple[int, int], list[int]] = {}
    relay_votes: dict[tuple[int, int], int] = {}
    for entry in engine.log:
        if entry[0] == "ticket":
            issued.setdefault((entry[2], entry[4]), set()).add(entry[3])
        elif entry[0] == "score" and entry[4] == SCORE_PROBE_VOTE:
            probe_votes.setdefault((entry[2], entry[5]), []).append(entry[3])
        elif entry[0] == "score" and entry[4] == SCORE_RELAY_VOTE:
            key = (entry[2], entry[5])
            relay_votes[key] = relay_votes.get(key, 0) + 1

    assert probe_votes, "an evaluation run must settle some votes"
    for key, voters in probe_votes.items():
        assert len(voters) == len(set(voters))  # one vote per probe
        assert set(voters) <= issued[key]  # only ticketed probes count
        assert len(voters) <= len(issued[key])
        assert relay_votes[key] == len(voters)  # votes land in pairs
    issued_total = sum(len(probes) for probes in issued.values())
    assert issued_total == sum(1 for entry in engine.log if entry[0] == "ticket")
    assert engine.tickets_orphaned > 0
    assert (engine.tickets_lost > 0) == (disturbance == "churn_mid")
    assert issued_total == (
        sum(map(len, probe_votes.values())) + engine.tickets_orphaned + engine.tickets_lost
    )
    assert not any(node.tickets for node in engine.nodes)
