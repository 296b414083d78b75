"""Broadcast protocol tests: initiation, reception order, voting, gossip.

The scripted scenarios pin down exact relay sets by seeding scores and
using a stub rng that always lands on rank 0, so every expectation here
is hand-derivable from the bucket layout alone.
"""

from __future__ import annotations

import random

import pytest

from nebcast.errors import ConfigurationError
from nebcast.protocol import (
    CONFIRM_BYTES,
    DATA_BYTES,
    Message,
    NodeState,
    Ticket,
    gossip_handle,
    gossip_initiate,
    handle_message,
    initiate_broadcast,
)
from nebcast.routing import RoutingTable


class _RankZeroRng:
    """Always draws 0.0, so weighted selection picks the top rank."""

    def random(self) -> float:
        return 0.0


def _node(owner: int, width: int = 3, capacity: int = 7, peers=(), refuses=False) -> NodeState:
    table = RoutingTable(owner, width, capacity)
    node = NodeState(owner, table, refuses_relay=refuses)
    for i, peer in enumerate(peers):
        assert table.insert_peer(peer, now=i)
    return node


def _data(h: int, source: int, relay: int, sender: int) -> Message:
    return Message(h, DATA_BYTES, source, relay, sender)


def test_initiate_one_relay_per_bucket_and_tickets_for_the_rest():
    # source 0 in a 3-bit space with neighbors 1, 2, 3, 4, 6:
    # bucket 0 holds {4, 6}, bucket 1 holds {2, 3}, bucket 2 holds {1}.
    # Scoring 3 promotes it over 2, so a rank-0 draw selects 4, 3, 1
    # and leaves 6 and 2 as probes.
    node = _node(0, peers=(1, 2, 3, 4, 6))
    node.table.add_score(3, 1)
    events: list = []
    sends = initiate_broadcast(node, DATA_BYTES, 1, True, _RankZeroRng(), 0, 900, events)
    assert [dest for dest, _ in sends] == [4, 3, 1]
    for dest, m in sends:
        assert m.relay == dest
        assert m.source == 0 and m.sender == 0
        assert m.size == DATA_BYTES and not m.is_confirmation
    assert node.tickets == {Ticket(900, 6), Ticket(900, 2)}
    assert {e[3] for e in events if e[0] == "ticket"} == {6, 2}
    assert 900 in node.known


def test_initiate_with_empty_table_records_hash():
    node = _node(0, peers=())
    sends = initiate_broadcast(node, DATA_BYTES, 2, True, random.Random(1), 0, 7)
    assert sends == []
    assert node.known == {7}
    assert node.tickets == set()


def test_initiate_rejects_known_hash():
    node = _node(0, peers=(1,))
    initiate_broadcast(node, DATA_BYTES, 1, False, random.Random(1), 0, 7)
    with pytest.raises(ConfigurationError):
        initiate_broadcast(node, DATA_BYTES, 1, False, random.Random(1), 0, 7)


def test_initiate_without_ne_never_creates_tickets():
    rng = random.Random(4)
    for trial in range(50):
        node = _node(0, peers=(1, 2, 3, 4, 5, 6, 7))
        sends = initiate_broadcast(node, DATA_BYTES, 2, False, rng, 0, trial)
        assert node.tickets == set()
        assert len(sends) == 5  # two per populated multi-entry bucket, one for bucket 2


def test_initiate_beta_covers_everything():
    node = _node(0, peers=(1, 2, 3, 4, 6))
    sends = initiate_broadcast(node, DATA_BYTES, 7, True, _RankZeroRng(), 0, 1)
    assert sorted(dest for dest, _ in sends) == [1, 2, 3, 4, 6]
    assert node.tickets == set()


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
    sends = handle_message(node, m, 2, False, random.Random(3), 0)
    assert node.known == {7}
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
    handle_message(node, m, 1, False, random.Random(3), 0)
    # sender is not in the table; scoring is a no-op, delivery still counts
    assert node.known == {7}
    assert node.table.scores() == {1: 0}


def test_handle_duplicate_is_inert():
    node = _node(0, peers=(1, 2, 3))
    m = _data(7, source=4, relay=4, sender=4)
    handle_message(node, m, 1, False, random.Random(3), 0)
    before = node.table.scores()
    again = _data(7, source=4, relay=4, sender=2)
    assert handle_message(node, again, 1, False, random.Random(3), 0) == ()
    assert node.table.scores() == before


def test_handle_emits_confirmation_when_source_is_reachable_neighbor():
    # node 4 hears (source 1, relay 2) from node 2; since 1 sits in
    # node 4's table the reception is echoed back to 1 as a small
    # confirmation carrying the original relay choice
    node = _node(4, peers=(1, 2, 6))
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng(), 0)
    confirms = [(dest, fm) for dest, fm in sends if fm.is_confirmation]
    assert len(confirms) == 1
    dest, confirm = confirms[0]
    assert dest == 1
    assert confirm.size == CONFIRM_BYTES
    assert confirm.relay == 2 and confirm.sender == 4 and confirm.source == 1


def test_source_settles_vote_from_confirmation():
    # continuation of the scenario above, seen from node 1
    source = _node(1, peers=(2, 4, 5))
    source.known.add(7)
    source.tickets.add(Ticket(7, 4))
    confirm = Message(7, CONFIRM_BYTES, 1, 2, 4, is_confirmation=True)
    assert handle_message(source, confirm, 1, True, _RankZeroRng(), 0) == ()
    assert source.table.scores()[4] == 1  # probe credit
    assert source.table.scores()[2] == 1  # relay credit
    assert source.tickets == set()


def test_source_ignores_confirmation_without_ticket():
    source = _node(1, peers=(2, 4, 5))
    source.known.add(7)
    confirm = Message(7, CONFIRM_BYTES, 1, 2, 4, is_confirmation=True)
    assert handle_message(source, confirm, 1, True, _RankZeroRng(), 0) == ()
    assert all(score == 0 for score in source.table.scores().values())


def test_no_confirmation_when_sender_is_source():
    node = _node(4, peers=(1, 2))
    m = _data(7, source=1, relay=4, sender=1)
    sends = handle_message(node, m, 1, True, _RankZeroRng(), 0)
    assert all(not fm.is_confirmation for _, fm in sends)


def test_no_confirmation_when_source_not_in_table():
    node = _node(4, peers=(2, 6))
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng(), 0)
    assert all(not fm.is_confirmation for _, fm in sends)


def test_no_confirmation_when_ne_disabled():
    node = _node(4, peers=(1, 2))
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, False, random.Random(1), 0)
    assert all(not fm.is_confirmation for _, fm in sends)


def test_refusing_node_confirms_but_does_not_relay():
    node = _node(4, peers=(1, 2, 6), refuses=True)
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng(), 0)
    assert len(sends) == 1
    assert sends[0][1].is_confirmation
    assert node.known == {7}


def test_refusing_node_can_withhold_confirmations_too():
    node = _node(4, peers=(1, 2, 6), refuses=True)
    m = _data(7, source=1, relay=2, sender=2)
    sends = handle_message(node, m, 1, True, _RankZeroRng(), 0, refuse_withholds_confirms=True)
    assert sends == []
    assert node.known == {7}  # reception itself still counts


def test_vote_settlement_first_confirmation_per_probe_wins():
    # source 1 in a 3-bit space: bucket 0 holds {4, 5}, bucket 1 holds
    # {2, 3}. Scoring 3 makes the rank-0 draws pick relays 4 and 3,
    # leaving 5 and 2 as probes. Both probes then report that node 3's
    # branch reached them first, so 3 banks both relay votes.
    source = _node(1, peers=(2, 3, 4, 5))
    source.table.add_score(3, 1)
    sends = initiate_broadcast(source, DATA_BYTES, 1, True, _RankZeroRng(), 0, 7)
    assert sorted(dest for dest, _ in sends) == [3, 4]
    assert source.tickets == {Ticket(7, 5), Ticket(7, 2)}

    base = source.table.scores()
    confirmations = [
        Message(7, CONFIRM_BYTES, 1, 3, 2, is_confirmation=True),
        Message(7, CONFIRM_BYTES, 1, 3, 5, is_confirmation=True),
        Message(7, CONFIRM_BYTES, 1, 3, 2, is_confirmation=True),  # repeat vote, must not count
    ]
    for m in confirmations:
        assert handle_message(source, m, 1, True, _RankZeroRng(), 10) == ()
    after = source.table.scores()
    deltas = {peer: after[peer] - base[peer] for peer in after if after[peer] != base[peer]}
    assert deltas == {3: 2, 2: 1, 5: 1}
    assert source.table.scores()[4] == base[4]  # losing relay gains nothing
    assert source.tickets == set()


def test_vote_outcome_empty_batch():
    # issuing tickets credits nobody: without a confirmation no score moves
    source = _node(1, peers=(2, 3, 4, 5))
    initiate_broadcast(source, DATA_BYTES, 1, True, _RankZeroRng(), 0, 7)
    assert source.tickets == {Ticket(7, 5), Ticket(7, 3)}
    assert source.table.scores() == {2: 0, 3: 0, 4: 0, 5: 0}


def test_gossip_initiate_and_fanout_cap():
    node = _node(0, peers=())
    node.neighbors = [1, 2, 3, 4]
    sends = gossip_initiate(node, DATA_BYTES, 2, random.Random(5), 9)
    assert len(sends) == 2
    assert {dest for dest, _ in sends} <= {1, 2, 3, 4}
    assert node.known == {9}
    full = _node(0, peers=())
    full.neighbors = [1, 2]
    assert len(gossip_initiate(full, DATA_BYTES, 10, random.Random(5), 9)) == 2


def test_gossip_initiate_validates():
    node = _node(0, peers=())
    node.neighbors = [1]
    with pytest.raises(ConfigurationError):
        gossip_initiate(node, DATA_BYTES, 0, random.Random(1), 9)
    gossip_initiate(node, DATA_BYTES, 1, random.Random(1), 9)
    with pytest.raises(ConfigurationError):
        gossip_initiate(node, DATA_BYTES, 1, random.Random(1), 9)


def test_gossip_handle_excludes_sender_and_drops_duplicates():
    node = _node(5, peers=())
    node.neighbors = [1, 2, 3]
    m = _data(9, source=1, relay=1, sender=1)
    sends = gossip_handle(node, m, 10, random.Random(2))
    assert {dest for dest, _ in sends} == {2, 3}  # flooding limit skips the sender
    for _, fm in sends:
        assert fm.sender == 5
    assert gossip_handle(node, m, 10, random.Random(2)) == ()


def test_gossip_handle_respects_fanout():
    rng = random.Random(6)
    for trial in range(30):
        node = _node(5, peers=())
        node.neighbors = list(range(6, 16))
        m = _data(trial, source=6, relay=6, sender=6)
        sends = gossip_handle(node, m, 3, rng)
        dests = [dest for dest, _ in sends]
        assert len(dests) == len(set(dests)) == 3
        assert 6 not in dests


def test_ticket_votes_conserved_per_broadcast():
    # end-to-end audit of the one-vote-per-ticket rule: run a full
    # evaluation-enabled simulation and group the logged score events
    # by broadcast
    from nebcast.netsim import Engine, NetworkConfig, bootstrap_topology
    from nebcast.protocol import SCORE_PROBE_VOTE, SCORE_RELAY_VOTE
    from nebcast.seeding import stream

    config = NetworkConfig(40)
    nodes, profiles = bootstrap_topology(config, stream(61, "topology", 0))
    engine = Engine(
        nodes,
        profiles,
        config,
        stream(61, "protocol", 0),
        beta=2,
        ne_enabled=True,
        disturb_rng=stream(61, "disturb", 0),
        collect_log=True,
    )
    engine.push_disturbance(0)
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
