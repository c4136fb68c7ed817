"""Which coalitions of parties can open a single input: README's trust model.

A coalition opens an outside input when one member received or decrypted an
unprepared ciphertext under a key a member holds, and the ciphertext's taint
is that one outside process's inputs alone.  Receipts and decryptions are
read from each run's records through `tests/exposures.py`.  README's "Trust
model" section names the coalitions that open something; each fault-free
run, sync and async, of every variant on ring(8), star(8) and G(8, 0.5) must
match it exactly:
- a coalition that holds no key opens nothing;
- no single party opens anything;
- in avg-trusted and outlier, the collector and a process q open exactly q's
  neighbours' inputs, each from the neighbour's first ciphertext;
- in avg-untrusted, a viable initiator k and a process q open q's neighbours
  other than k, from the starts of k's instance;
- in a fault-free election, the keyholder and a process open exactly the
  ballots of its BFS-tree children that are leaves, from the copies those
  leaves send their parents.
"""

import itertools
import random

import pytest

from consentry import avg_consensus, leader_election, netsim, outlier_consensus
from consentry import topology as topo
from consentry.he_slots import SlotBackend

from exposures import audit_view, record_deliveries

N = 8
COLLECTOR = ("avg-trusted", "outlier-decrypt", "outlier-encrypted")
VARIANTS = COLLECTOR + ("avg-untrusted", "election")


def build(variant, t, rng):
    values = [rng.uniform(-100, 100) for _ in range(t.n)]
    if variant == "avg-trusted":
        return avg_consensus.build_trusted(t, values, seed=1)
    if variant == "avg-untrusted":
        return avg_consensus.build_untrusted(t, values, seed=1)
    if variant == "election":
        ballots = [{"primary": rng.randrange(t.n)} for _ in range(t.n)]
        return leader_election.build(t, ballots, seed=1)
    return outlier_consensus.build(t, values, 2.0, seed=1,
                                   variance_route=variant.removeprefix("outlier-"))


def openings(views, holders, owned, coalition) -> set:
    """The outside processes whose input `coalition` can open, from each
    member's `audit_view` in `views`, key holders and tag owners."""
    opened = set()
    for member in coalition:
        for item, taint, _ in views[member]:
            if item.prepared or holders[item.key_id] not in coalition:
                continue
            opened.update(q for q, mask in owned.items()
                          if q not in coalition and taint & ~mask == 0)
    return opened


def expected(variant, t, holders, pair) -> set:
    """README's trust model: what the two parties of `pair` open."""
    if variant != "avg-untrusted":
        if netsim.TRUSTED not in pair:
            return set()
        (q,) = pair - {netsim.TRUSTED}
        if variant == "election":
            _, children = leader_election.bfs_tree(t.adjacency)
            return {c for c in children[q] if not children[c]}
        return set(t.neighbors(q))
    keyholders = set(holders.values())
    a, b = pair
    return ((set(t.neighbors(b)) - {a} if a in keyholders else set())
            | (set(t.neighbors(a)) - {b} if b in keyholders else set()))


@pytest.mark.parametrize("schedule", ["sync", "async"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_coalitions_open_what_the_trust_model_names(variant, schedule, monkeypatch):
    keys = []
    monkeypatch.setattr(SlotBackend, "keygen",
                        lambda b, holder, f=SlotBackend.keygen: keys.append(f(b, holder))
                        or keys[-1])
    for t in (topo.ring(N), topo.star(N), topo.random_connected(N, 0.5, random.Random(N))):
        keys.clear()
        setup = build(variant, t, random.Random(t.n + len(t.edges)))
        log = record_deliveries(setup)
        report, trace = netsim.Simulation(
            t, setup, netsim.SchedulePolicy(schedule, 3, max_latency=3)).run()
        assert report.termination == "decided" and netsim.privacy_audit(trace) == []
        holders = trace.backend.key_holders()
        owned = trace.backend._tag_table.owned
        parties = list(setup.nodes)
        views = {p: audit_view(trace, log, keys, p) for p in parties}
        case = (variant, schedule, t)
        keyless = {p for p in parties if p not in holders.values()}
        assert openings(views, holders, owned, keyless) == set(), case
        for p in parties:
            assert openings(views, holders, owned, {p}) == set(), (case, p)
        opened = []
        for pair in map(frozenset, itertools.combinations(parties, 2)):
            opened.append(openings(views, holders, owned, pair))
            assert opened[-1] == expected(variant, t, holders, pair), (case, set(pair))
        assert any(opened), case
