"""Ballot layout, elimination procedure, tie-breaking, and simulated runs."""

import random
from collections import Counter

import numpy as np
import pytest

from consentry import leader_election, netsim
from consentry import topology as topo
from consentry.avg_consensus import PREPARED, RESULT, ConsensusState, ProtocolMessage
from consentry.he_slots import BackendConfig, SlotBackend, SlotVector
from consentry.leader_election import (Ballot, CorruptedTallyError,
                                       InvalidBallotError, ballot_layout,
                                       build, elect_winner, flat_index,
                                       init_election, make_ballot_vector,
                                       on_receive_election, tally, tie_break)
from consentry.netsim import ScenarioConfig
from consentry.topology import TopologyError

import mutations
from exposures import audit_view, record_deliveries
from oracles import grid_from_ballots, irv_oracle


def test_ballot_validation():
    with pytest.raises(InvalidBallotError):
        Ballot(1, 1)
    assert Ballot(1, 0).secondary == 0
    assert Ballot(2).secondary is None


def test_ballot_layout_and_indices():
    assert ballot_layout(3) == (9, 16)
    assert ballot_layout(64) == (4096, 4096)     # n² + n would pad to 8,192
    assert flat_index(3, 1, 0) == 3
    assert flat_index(3, 2, None) == 8
    assert flat_index(3, 0, 2) == 2
    with pytest.raises(InvalidBallotError, match="secondary vote cannot equal primary"):
        flat_index(3, 2, 2)
    with pytest.raises(InvalidBallotError, match="primary 3 out of range for n=3"):
        flat_index(3, 3, None)
    with pytest.raises(InvalidBallotError, match="secondary 3 out of range for n=3"):
        flat_index(3, 0, 3)


@pytest.mark.parametrize("n", [*range(1, 10), 64])
def test_flat_index_maps_the_valid_ballots_one_to_one_onto_the_grid(n):
    # n primary-only ballots and n(n - 1) pairs, n² in all
    ballots = [(p, None) for p in range(n)] + \
        [(p, s) for p in range(n) for s in range(n) if s != p]
    assert sorted(flat_index(n, p, s) for p, s in ballots) == list(range(n * n))


def test_make_ballot_vector():
    v = make_ballot_vector(Ballot(1, 0), 3, 16)
    assert len(v) == 16 and v.values[3] == 1.0 and sum(v.values.tolist()) == 1.0
    v2 = make_ballot_vector(Ballot(2), 3, 16)
    assert len(v2) == 16 and v2.values[8] == 1.0 and sum(v2.values.tolist()) == 1.0


def test_tie_break_examples():
    assert tie_break({7}, 0) == 7
    assert tie_break({7}, 123) == 7
    assert tie_break({0, 2}, 2) == 0
    assert tie_break({3, 5, 7}, 4) == 5
    with pytest.raises(ValueError):
        tie_break(set(), 1)


def test_tie_break_id_shift_independence():
    # relabeling by an order-preserving shift moves the winner by the shift
    ids = [2, 5, 9]
    for v_tie in range(6):
        base = tie_break(ids, v_tie)
        shifted = tie_break([i + 100 for i in ids], v_tie)
        assert shifted == base + 100


FIG2_BALLOTS = [(0, 2), (0, 1), (1, 0), (2, 0), (2, 1)]


def test_elect_winner_fig2_scenario():
    result = elect_winner(grid_from_ballots(FIG2_BALLOTS, 3))
    assert result.rounds[0]["tallies"] == {0: 2, 1: 1, 2: 2}    # 0 and 2 tie
    assert result.winner == 0            # secondary of (1,0) breaks the tie
    assert result.rounds[0]["eliminated"] == 1
    assert result.rounds[-1]["by"] == "majority"
    assert result.exhausted == 0


def test_elect_winner_unanimous():
    result = elect_winner(grid_from_ballots([(0, 1), (0, 2), (0, None)], 3))
    assert result.rounds[0]["tallies"] == {0: 3, 1: 0, 2: 0}
    assert result.winner == 0 and result.rounds[0]["by"] == "majority"


def test_elect_winner_exhaustion_then_tie_break():
    # five votes, no secondary anywhere: eliminating candidate 2 exhausts its
    # ballot, leaving 0 and 1 tied at 2 -> tie_break({0,1}, 2) -> winner 0
    ballots = [(0, None), (0, None), (1, None), (1, None), (2, None)]
    result = elect_winner(grid_from_ballots(ballots, 3))
    assert result.rounds[0]["tallies"] == {0: 2, 1: 2, 2: 1}
    assert result.winner == 0
    assert result.rounds[-1]["by"] == "tie-break"
    assert result.exhausted == 1


def test_elect_winner_transferred_ballots_exhaust_on_second_elimination():
    # (2,1): transfers to 1 when 2 falls, then exhausts when 1 falls
    ballots = [(0, None), (0, None), (0, 1), (1, 2), (2, 1)]
    result = elect_winner(grid_from_ballots(ballots, 3))
    assert result.winner == irv_oracle(ballots, 3)


def test_elect_winner_ballot_conservation():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randrange(3, 8)
        ballots = random_ballots(rng, n)
        result = elect_winner(grid_from_ballots(ballots, n))
        for record in result.rounds:
            assert sum(record["tallies"].values()) + record["exhausted"] == n


def random_ballots(rng, n):
    out = []
    for _ in range(n):
        p = rng.randrange(n)
        if rng.random() < 0.3:
            out.append((p, None))
        else:
            s = rng.randrange(n - 1)
            out.append((p, s if s < p else s + 1))
    return out


def test_elect_winner_matches_oracle_randomized():
    """Every round record, the winner and the exhausted count, against the
    per-ballot oracle, for 1 to 13 candidates and each share of ballots with
    no secondary; every finish and a tie-broken elimination occur."""
    rng = random.Random(99)
    finishes, tied_eliminations = set(), 0
    for _ in range(500):
        k = rng.randrange(1, 14)
        primary_only_share = rng.choice((0, 0.3, 0.7, 1))
        ballots = []
        for _ in range(rng.randrange(1, 2 * k + 2)):
            p = rng.randrange(k)
            s = rng.randrange(k - 1) if k > 1 else None
            if s is None or rng.random() < primary_only_share:
                ballots.append((p, None))
            else:
                ballots.append((p, s + (s >= p)))
        result = elect_winner(grid_from_ballots(ballots, k))
        winner, rounds, exhausted = irv_oracle(ballots, k, with_rounds=True)
        assert (result.winner, list(result.rounds), result.exhausted) == \
            (winner, rounds, exhausted), ballots
        finishes.add(result.rounds[-1]["by"])
        tied_eliminations += sum(r["eliminated"] is not None and r["tie_break"] is not None
                                 for r in result.rounds)
    assert finishes == {"majority", "last-standing", "tie-break"}
    assert tied_eliminations


def test_on_receive_election_contribution_rules():
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=4)
    km = backend.keygen("T")
    cts = [backend.encrypt(km.public_part, make_ballot_vector(Ballot(*b), n, cap),
                           (pid, "ballot"))
           for pid, b in enumerate([(1, 2), (2, 0), (0, 1)])]
    origin_state, msg = init_election(0, cts[0], n)
    assert origin_state.channels == (cts[0],) and origin_state.support == 0b001
    # fresh lineage at a non-contributor: contributes, support gains its bit
    state, out, complete = on_receive_election(None, msg, cts[1], backend,
                                               pid=1, n=n, required_mask=0b111)
    assert state.support == 0b011 and state.counts is None
    assert out and complete is None
    payload = state.channels[0]._payload
    assert payload[flat_index(3, 1, 2)] == 1 and payload[flat_index(3, 2, 0)] == 1
    # the same copy revisiting a contributor: no growth, no forward
    revisit = ConsensusState(msg.instance, n, state.channels, counts=None,
                             support=state.support).snapshot()
    state2, out2, complete2 = on_receive_election(state, revisit, cts[1], backend,
                                                  pid=1, n=n, required_mask=0b111)
    assert state2 is state and out2 is False and complete2 is None
    # final contributor completes the lineage: adopted, and the complete
    # ciphertext is the held one, left for the caller to mark prepared
    state3, out3, complete3 = on_receive_election(None, revisit, cts[2], backend,
                                                  pid=2, n=n, required_mask=0b111)
    assert out3 is True and complete3 is state3.channels[0] and not complete3.prepared
    assert state3.support == 0b111
    assert np.array_equal(complete3._payload, sum(ct._payload for ct in cts))


def complete_ct_for(ballots, n, backend, km):
    ct = None
    for pid, (p, s) in enumerate(ballots):
        enc = backend.encrypt(km.public_part,
                              make_ballot_vector(Ballot(p, s), n,
                                                 backend.config.slot_capacity),
                              (pid, "ballot"))
        ct = enc if ct is None else backend.add_ct(ct, enc)
    return backend.mark_prepared(ct)


def test_tally_roundtrip():
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=1)
    km = backend.keygen("T")
    ct = complete_ct_for(FIG2_BALLOTS[:n], n, backend, km)
    grid = tally(backend, km.secret_part, ct, n, caller="T", contributors=(1 << n) - 1)
    assert grid == ((0, 1, 1), (1, 0, 0), (0, 0, 0))
    assert grid == tuple(map(tuple, grid_from_ballots(FIG2_BALLOTS[:n], n)))


def test_tally_primary_only_column_identity():
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=1)
    km = backend.keygen("T")
    ct = complete_ct_for([(0, None), (2, None), (2, None)], n, backend, km)
    grid = tally(backend, km.secret_part, ct, n, caller="T", contributors=(1 << n) - 1)
    assert tuple(grid[p][p] for p in range(n)) == (1, 0, 2)
    assert all(grid[p][s] == 0 for p in range(n) for s in range(n) if s != p)


def test_tally_rejects_non_integral_and_unprepared():
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=1)
    km = backend.keygen("T")
    bad = backend.encrypt(km.public_part,
                          SlotVector([0.5] + [0.0] * (cap - 1)), ("T", "x"))
    with pytest.raises(CorruptedTallyError):
        tally(backend, km.secret_part, backend.mark_prepared(bad), n, caller="T",
              contributors=(1 << n) - 1)
    good = complete_ct_for([(0, 1)] * 3, n, backend, km)
    unprepared = backend.add_ct(good, backend.encrypt(
        km.public_part, SlotVector(np.zeros(cap)), ("T", "z")))
    with pytest.raises(CorruptedTallyError):
        tally(backend, km.secret_part, unprepared, n, caller="T", contributors=(1 << n) - 1)


def test_voter_permutation_invariance():
    """The decrypted aggregate is a multiset: reassigning ballots to voters
    leaves the tally unchanged."""
    n = 4
    ballots = [(0, 1), (1, 0), (0, 2), (3, None)]
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=2)
    km = backend.keygen("T")
    t1 = tally(backend, km.secret_part,
               complete_ct_for(ballots, n, backend, km), n, caller="T",
               contributors=(1 << n) - 1)
    rng = random.Random(0)
    shuffled = ballots[:]
    rng.shuffle(shuffled)
    t2 = tally(backend, km.secret_part,
               complete_ct_for(shuffled, n, backend, km), n, caller="T",
               contributors=(1 << n) - 1)
    assert t1 == t2


def run_election(ballots, t, seed=1, schedule="sync"):
    sc = ScenarioConfig(
        protocol="election", topology=t.to_dict(),
        inputs=[{"primary": p, "secondary": s} for p, s in ballots],
        seed=seed, schedule=schedule)
    return netsim.run(sc)


def test_simulated_ring_run_completes_and_matches_oracle():
    ballots = FIG2_BALLOTS
    t = topo.ring(5)
    setup = build(t, [{"primary": p, "secondary": s} for p, s in ballots], seed=1)
    policy = netsim.SchedulePolicy("sync", 5)
    log = record_deliveries(setup)
    report, trace = netsim.Simulation(t, setup, policy).run()
    assert report.termination == "decided" and len(log) == trace.deliveries
    assert any(msg.kind == PREPARED for _, _, _, msg in log)
    want = irv_oracle(ballots, 5)
    assert want == 0
    for pid in range(5):
        assert report.decided_values[pid] == want
    assert netsim.privacy_audit(trace) == []


def test_simulated_runs_various_graphs():
    rng = random.Random(13)
    for trial in range(8):
        n = rng.randrange(3, 7)
        ballots = random_ballots(rng, n)
        t = rng.choice([topo.ring(n), topo.star(n), topo.random_connected(n, 0.5, rng)])
        report = run_election(ballots, t, seed=trial,
                              schedule=rng.choice(["sync", "async"]))
        assert report.termination == "decided"
        want = irv_oracle(ballots, n)
        assert all(report.decided_values[p] == want for p in range(n))
        assert report.privacy_violations == []


def test_candidate_privacy_only_keyholder_decrypts_completes():
    ballots = FIG2_BALLOTS
    t = topo.ring(5)
    setup = build(t, [{"primary": p, "secondary": s} for p, s in ballots], seed=3)
    log = record_deliveries(setup)
    _, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 5)).run()
    backend = setup.backend
    for ev in backend.events():
        if ev.kind == "decrypt":
            assert ev.observer == netsim.TRUSTED
            assert ev.prepared            # complete ciphertexts only
    keys = [setup.nodes[netsim.TRUSTED].key]
    for pid in range(5):
        for _, _, decryptable in audit_view(trace, log, keys, pid):
            assert not decryptable


def test_crash_election_decides_survivors_irv_winner():
    # process 2 crashes before its ballot leaves it: lineages complete with
    # four contributors, and the survivors' IRV winner (3) differs from the
    # winner over all five ballots (0)
    ballots = [(4, 0), (3, 2), (0, 1), (1, None), (3, 2)]
    sc = ScenarioConfig(
        protocol="election", topology=topo.ring(5).to_dict(),
        inputs=[{"primary": p, "secondary": s} for p, s in ballots],
        seed=1, faults=netsim.FaultPlan((netsim.CrashFault(process=2, time=1),)))
    report = netsim.run(sc)
    assert report.termination == "decided"
    want = irv_oracle([b for i, b in enumerate(ballots) if i != 2], 5)
    assert want == 3 and irv_oracle(ballots, 5) == 0
    assert all(report.decided_values[p] == want for p in (0, 1, 3, 4))
    assert report.privacy_violations == []


def election_config(topology, ballots, seed, schedule="sync", crashes=()):
    """An election scenario dict; ballots are (primary, secondary) pairs and
    crashes (process, time) pairs."""
    return {"protocol": "election", "topology": topology, "seed": seed,
            "schedule": schedule,
            "inputs": [{"primary": p, "secondary": s} for p, s in ballots],
            "faults": [{"process": p, "time": time} for p, time in crashes]}


def run_logged(raw):
    """Trial 0 of a scenario dict through `netsim.run`'s steps, recording
    its deliveries: (report, trace, log)."""
    sc = ScenarioConfig.from_dict(raw)
    t = sc.resolve_topology()
    setup = build(t, sc.inputs, seed=sc.seed, noise_epsilon=sc.noise_epsilon)
    policy = netsim.SchedulePolicy(sc.schedule, sc.seed * 7919 + 13, sc.max_latency)
    log = record_deliveries(setup)
    report, trace = netsim.Simulation(t, setup, policy, faults=sc.faults).run()
    assert len(log) == trace.deliveries
    return report, trace, log


@pytest.mark.parametrize("topology, seed, crashes, ballots", [
    ({"family": "path", "n": 5}, 8, ((3, 2), (4, 3), (2, 1)),
     [(4, None), (1, None), (0, 2), (3, None), (3, None)]),
    ({"family": "random", "n": 5, "p": 0.4}, 3, ((1, 2), (3, 0), (0, 3)),
     [(3, None), (2, None), (2, None), (0, 4), (0, 4)]),
], ids=["path5", "random5"])
def test_a_crash_notice_completes_the_copies_a_process_holds(topology, seed, crashes,
                                                             ballots):
    # the last crash leaves a held copy covering every survivor, and no
    # further message arrives to complete it: both runs once missed the deadline
    report, trace, log = run_logged(election_config(topology, ballots, seed, crashes=crashes))
    assert report.termination == "decided"
    first = next(msg for _, _, _, msg in log if msg.kind == PREPARED)
    want = irv_oracle([b for p, b in enumerate(ballots) if first.support >> p & 1], 5)
    assert report.decided_values and set(report.decided_values.values()) == {want}
    assert netsim.privacy_audit(trace) == []


def opened_supports(raw):
    """Trial 0 of an election scenario dict: (report, the supports of the
    complete copies sent to the keyholder, the support of each one it
    decrypted, in ledger order)."""
    report, trace, log = run_logged(raw)
    sent = {msg.votes_ct.handle: msg.support for _, _, to, msg in log
            if to == netsim.TRUSTED and msg.kind == PREPARED}
    opened = [sent[event.handle] for event in trace.backend.events()
              if event.kind == "decrypt" and event.observer == netsim.TRUSTED]
    return report, set(sent.values()), opened


def test_the_keyholder_opens_copies_of_one_support_only():
    # process 3 crashes at t = 3: the keyholder is sent copies of {0, 1, 2}
    # and of {0, 1, 2, 3}; it once opened both, and the two grids differed
    # by process 3's ballot, cell (1, 1)
    ballots = [(1, None), (2, 0), (1, 3), (1, None)]
    for eps in (0.0, 1e-9):
        raw = election_config({"family": "star", "n": 4}, ballots, 0, crashes=[(3, 3)])
        report, sent, opened = opened_supports(dict(raw, noise_epsilon=eps))
        assert report.termination == "decided" and report.privacy_violations == []
        assert sent == {0b0111, 0b1111}
        assert opened and set(opened) == {opened[0]}
        want = irv_oracle([b for p, b in enumerate(ballots) if opened[0] >> p & 1], 4)
        assert set(report.decided_values.values()) == {want}


def test_crash_elections_open_one_support():
    """A seeded sweep of 300 crash elections: n in {3, 4, 5, 6, 8}, six
    families, both schedules, one or two crashes at t = 0-4 that leave the
    survivors connected.  Each decides, and its keyholder decrypts copies of
    one support only, though many are sent copies of two or more."""
    rng = random.Random(28)
    runs, mixed, leaks = 0, 0, []
    while runs < 300:
        n, family = rng.choice((3, 4, 5, 6, 8)), rng.choice(FAMILIES)
        schedule, seed = rng.choice(("sync", "async")), rng.randrange(1000)
        t = ScenarioConfig.from_dict(election_config(
            {"family": family, "n": n}, [(0, None)] * n, seed)).resolve_topology()
        crashed = rng.sample(range(n), rng.choice((1, 2)))
        if not t.connected_without(crashed):
            continue
        crashes = [(p, rng.randrange(5)) for p in crashed]
        raw = election_config(t.to_dict(), random_ballots(rng, n), seed, schedule, crashes)
        report, sent, opened = opened_supports(raw)
        assert report.termination == "decided", raw
        runs += 1
        mixed += len(sent) > 1
        if len(set(opened)) != 1:
            leaks.append((family, n, schedule, seed, crashes))
    assert leaks == [] and mixed >= 30, (leaks, mixed)


@pytest.mark.parametrize("eps", [0.003, 0.03])
def test_noisy_tallies_round_within_their_noise_bound(eps):
    """The complete ciphertext's noise bound (0.021 at eps 0.003) exceeds
    the plain 0.01 tolerance, yet rounding still recovers every tally."""
    ballots = [(0, None), (1, None), (0, None), (2, None)]
    sc = ScenarioConfig(
        protocol="election", topology=topo.ring(4).to_dict(),
        inputs=[{"primary": p} for p, _ in ballots], seed=1, noise_epsilon=eps)
    report = netsim.run(sc)
    assert report.termination == "decided"
    want = irv_oracle(ballots, 4)
    assert all(report.decided_values[p] == want for p in range(4))


# n = 3: slot p * 3 + s counts ballots (p, s), slot p * 3 + p primary-only
# ones, and slots 9 to 15 are padding
@pytest.mark.parametrize("slots, contributors, eps, error, message", [
    ({1: 2, 5: 2, 8: -1}, None, 0.0, CorruptedTallyError, "negative tally entry"),
    ({1: 1, 5: 1, 8: 1}, 0b011, 0.0, CorruptedTallyError,
     "total ballots 3 != contributor count 2"),
    ({1: 1, 5: 1, 8: 1}, None, 0.5, ValueError,
     "noise_epsilon too large to round tallies to integers"),
    ({1: 1, 5: 1, 6: 1, 14: 5.0}, 0b111, 0.0, CorruptedTallyError,
     "padding slots deviate from 0"),
    ({1: 1, 5: 1, 6: 1, 9: 1.0}, 0b111, 0.0, CorruptedTallyError,
     "padding slots deviate from 0"),
], ids=["negative-entry", "ballots-not-the-support",
        "noise-hides-the-integers", "nonzero-padding", "padding-just-past-the-grid"])
def test_tally_rejects_a_corrupted_aggregate(slots, contributors, eps, error, message):
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap, noise_epsilon=eps), seed=1)
    km = backend.keygen("T")
    vec = np.zeros(cap)
    for slot, value in slots.items():
        vec[slot] = value
    ct = backend.mark_prepared(backend.encrypt(km.public_part, SlotVector(vec), ("T", "x")))
    with pytest.raises(error, match=message):
        tally(backend, km.secret_part, ct, n, caller="T", contributors=contributors)


def test_lone_process_elects_itself():
    report = run_election([(0, None)], topo.Topology(1, []))
    assert report.termination == "decided"
    assert report.decided_values == {0: 0, netsim.TRUSTED: 0}


def test_the_bfs_tree_takes_the_lowest_id_parent_one_level_up():
    # 4 is reached from 1 before 3 is from 2, yet 5, a neighbour of both,
    # takes 3: the lower id of the level above, not the first one reached
    t = topo.Topology(6, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5)])
    parent, children = leader_election.bfs_tree(t.adjacency)
    assert [parent[p] for p in range(6)] == [None, 0, 0, 2, 1, 3]
    assert children == [[1, 2], [4], [3], [5], [], []]
    # the nodes take their places in it at the start of a fault-free run
    setup = build(t, [{"primary": 0}] * 6)
    netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 1)).run()
    assert [(setup.nodes[p].parent, setup.nodes[p].children) for p in range(6)] == \
        [(parent[p], children[p]) for p in range(6)]
    with pytest.raises(TopologyError, match="connected"):
        leader_election.bfs_tree(topo.Topology(3, [(0, 1)]).adjacency)


def test_contributor_support_has_one_bit_per_process():
    n = 3
    ballots = [(0, 1), (1, None), (0, 2)]
    t = topo.ring(n)
    setup = build(t, [{"primary": p, "secondary": s} for p, s in ballots], seed=1)
    assert setup.backend.config.slot_capacity == 16
    ct = setup.backend.encrypt(setup.nodes[0].pk, make_ballot_vector(Ballot(0, 1), n, 16),
                               (0, "ballot"))
    state, msg = init_election(0, ct, n)
    assert state.support == msg.support == 0b001
    assert state.channels == (ct,) and msg.votes_ct is ct
    assert state.counts is None and msg.count_array is None
    log = record_deliveries(setup)
    _, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 1)).run()
    assert len(log) == trace.deliveries
    completes = [msg for _, _, _, msg in log if msg.kind == PREPARED]
    assert completes and all(msg.support == 0b111 and msg.count_array is None
                             for msg in completes)


def test_32_ring_election_decides_the_irv_winner():
    rng = random.Random(32)
    ballots = random_ballots(rng, 32)
    report = run_election(ballots, topo.ring(32))
    assert report.termination == "decided"
    want = irv_oracle(ballots, 32)
    assert all(report.decided_values[p] == want for p in range(32))
    assert report.privacy_violations == []


def test_a_noisy_g16_election_decides_in_256_slot_ballots():
    # 16² = 256 slots fit a 256-slot ciphertext, where 16² + 16 padded to 512
    rng = random.Random(16)
    ballots = random_ballots(rng, 16)
    raw = {**election_config({"family": "random", "n": 16, "p": 0.4}, ballots, seed=3),
           "noise_epsilon": 1e-9}
    report, trace, log = run_logged(raw)
    want = irv_oracle(ballots, 16)
    assert report.termination == "decided"
    assert report.decided_values == {**dict.fromkeys(range(16), want), netsim.TRUSTED: want}
    ballot_cts = [ct for _, _, _, msg in log if msg.kind != RESULT for ct in msg.ciphertexts]
    assert ballot_cts and {len(ct._payload) for ct in ballot_cts} == {256}
    assert max(ct.noise_bound for ct in ballot_cts) > 0


def test_two_way_swap_ends_last_standing():
    # 0 -> 1 and 1 -> 0 tie at one vote each; the mod-k pick (1 mod 2)
    # eliminates 1, whose ballot moves to 0, the sole survivor
    ballots = [(0, 1), (1, 0)]
    report = run_election(ballots, topo.Topology(2, [(0, 1)]))
    assert report.termination == "decided"
    assert irv_oracle(ballots, 2) == 0
    assert report.decided_values == {0: 0, 1: 0, netsim.TRUSTED: 0}
    first, last = report.extra["election_rounds"]
    assert (first["by"], first["eliminated"], first["winner"]) == (None, 1, None)
    assert (last["by"], last["eliminated"], last["winner"]) == ("last-standing", None, 0)


def lineage_copy(backend, pk, n, ballots, contributors, instance="elect/0"):
    """An AGGREGATE carrying the encrypted ballots of `contributors`."""
    cap = backend.config.slot_capacity
    ct = None
    for p in contributors:
        enc = backend.encrypt(pk, make_ballot_vector(Ballot(*ballots[p]), n, cap),
                              (p, f"{instance}:ballot"))
        ct = enc if ct is None else backend.add_ct(ct, enc)
    support = sum(1 << p for p in contributors)
    return ConsensusState(instance, n, (ct,), counts=None, support=support).snapshot()


def test_a_copy_no_larger_than_the_held_one_is_rejected_before_encrypting():
    # the fold encrypts nothing: an adopted copy that lacks this process
    # pays one `add_ct` of the ballot encrypted at start, a rejected one nothing
    n, pid = 4, 3
    ballots = [(0, 1), (1, None), (2, 0), (3, 2)]
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=4)
    pk = backend.keygen("T").public_part
    copies = {c: lineage_copy(backend, pk, n, ballots, c)
              for c in ((0,), (1, 2), (0, 1), (1, 3), (0, 1, 2))}
    ballot_ct = backend.encrypt(pk, make_ballot_vector(Ballot(*ballots[pid]), n, cap),
                                (pid, "ballot"))
    encrypted, added = [], []
    encrypt, add_ct = backend.encrypt, backend.add_ct
    backend.encrypt = lambda pk, vec, tag: encrypted.append(vec) or encrypt(pk, vec, tag)
    backend.add_ct = lambda a, b: added.append(b) or add_ct(a, b)

    def fold(state, contributors):
        before = (len(encrypted), len(added), backend._handle_seq)
        state, adopted, complete = on_receive_election(
            state, copies[contributors], ballot_ct, backend, pid, n, (1 << n) - 1)
        calls = (len(encrypted) - before[0], len(added) - before[1])
        return state, adopted, complete, calls, backend._handle_seq - before[2]

    # adopted copies that lack this process: one add_ct each, no encrypt
    state, adopted, complete, calls, handles = fold(None, (0,))
    assert adopted and complete is None and calls == (0, 1) and handles == 1
    state, adopted, complete, calls, handles = fold(state, (1, 2))
    assert adopted and complete is None and calls == (0, 1) and handles == 1
    assert state.support == 0b1110
    # 2 + 1 and 2 + 0 contributors are no more than the held 3: no engine call
    for contributors in ((0, 1), (1, 3)):
        held = state.channels[0]
        state, adopted, complete, calls, handles = fold(state, contributors)
        assert (adopted, complete, calls, handles) == (False, None, (0, 0), 0)
        assert state.channels[0] is held
    state, adopted, complete, calls, handles = fold(state, (0, 1, 2))
    assert adopted and calls == (0, 1) and handles == 1
    assert complete is state.channels[0] and not complete.prepared
    assert state.support == 0b1111
    assert encrypted == [] and len(added) == 3 and all(ct is ballot_ct for ct in added)


class RecordingContext:
    def __init__(self, crash_bound=0):
        self.sent = []
        self.crash_bound = crash_bound

    def broadcast(self, msg):
        self.sent.append((None, msg))

    def send(self, to, msg):
        self.sent.append((to, msg))

    def mark_complete(self, instance):
        pass


class CollectorContext:
    pid = netsim.TRUSTED
    decided = None

    def decide(self, value):
        self.decided = value

    def note(self, key, value):
        pass

    def broadcast_processes(self, msg):
        pass


def test_complete_lineages_with_one_support_and_two_tallies_are_a_fault():
    n = 3
    setup = build(topo.ring(n), [{"primary": 0}] * n, seed=1)
    backend, collector = setup.backend, setup.nodes[netsim.TRUSTED]
    # both copies count all three processes; one tallies (2, 1, 0), the other (1, 2, 0)
    votes = [complete_ct_for(ballots, n, backend, collector.key)
             for ballots in ([(0, None), (0, None), (1, None)],
                             [(1, None), (1, None), (0, None)])]
    batch = [(pid, ProtocolMessage("elect/0", PREPARED, ciphertexts=(ct,), support=0b111))
             for pid, ct in enumerate(votes)]
    ctx = CollectorContext()
    with pytest.raises(CorruptedTallyError,
                       match="complete lineages with one support disagree on the grid"):
        collector.on_deliver(ctx, batch)
    assert ctx.decided == 0


def test_the_keyholder_ignores_an_unprepared_copy_sent_to_it():
    # every process also hands the keyholder its start copy, its ballot
    # alone: the keyholder once tallied it and the run raised
    # CorruptedTallyError; now it opens only PREPARED copies, and the
    # auditor still flags what it saw
    ballots = [(1, None), (2, 0), (1, 3), (1, None)]
    report, violations = mutations.run_mutated_election(
        mutations.MisroutingElectionNode,
        [{"primary": p, "secondary": s} for p, s in ballots])
    assert report.termination == "decided"
    assert set(report.decided_values.values()) == {irv_oracle(ballots, 4)}
    assert violations and {v.rule for v in violations} == {"unprepared-exposure"}
    assert {v.observer for v in violations} == {netsim.TRUSTED}


def test_a_completing_copy_goes_out_with_its_own_support():
    # 3 and 4 have crashed: {0, 1, 2} completes lineage 1 at process 0, then
    # the larger {0, 1, 3, 4} replaces it as the held copy without covering 2
    n = 5
    ballots = [(0, 1), (1, None), (2, 0), (3, 2), (4, 3)]
    setup = build(topo.complete(n), [{"primary": p, "secondary": s} for p, s in ballots],
                  seed=1)
    backend, node = setup.backend, setup.nodes[0]
    key = setup.nodes[netsim.TRUSTED].key
    ctx = RecordingContext(crash_bound=2)
    node.on_start(ctx)
    assert [msg.instance for _, msg in ctx.sent] == ["elect/0"]
    node.on_crash_notice(ctx, {3, 4})
    msgs = [lineage_copy(backend, key.public_part, n, ballots, c, "elect/1")
            for c in ((1, 2), (1, 3, 4))]
    grown, complete = node._fold_instance("elect/1", msgs)
    assert grown is False and complete is not None
    assert node.states["elect/1"].support == 0b11011
    node._emit_prepared(ctx, "elect/1", complete)
    to, msg = ctx.sent[-1]
    assert to == netsim.TRUSTED and msg.kind == PREPARED
    assert msg.support == 0b00111
    t = tally(backend, key.secret_part, msg.votes_ct, n, caller=netsim.TRUSTED,
              contributors=msg.support)
    assert t == tally(backend, key.secret_part,
                      complete_ct_for(ballots[:3], n, backend, key), n,
                      caller=netsim.TRUSTED, contributors=msg.support)


def test_complete6_with_three_crashes_tallies_what_each_copy_counts():
    # a batch once completed a copy and then adopted a larger, incomplete one,
    # and the keyholder got the first copy's ballots with the second's contributors
    ballots = [(1, 4), (4, 2), (2, 3), (4, 0), (1, 3), (3, 2)]
    t = topo.complete(6)
    setup = build(t, [{"primary": p, "secondary": s} for p, s in ballots], seed=66)
    faults = netsim.FaultPlan(tuple(netsim.CrashFault(process=p, time=time)
                                    for p, time in ((5, 1), (4, 4), (1, 5))))
    sim = netsim.Simulation(t, setup, netsim.SchedulePolicy("async", 66 * 7919 + 13, 4),
                            faults=faults)
    log = record_deliveries(setup)
    report, trace = sim.run()
    assert report.termination == "decided" and len(log) == trace.deliveries
    completes = [msg for _, _, _, msg in log if msg.kind == PREPARED]
    assert completes
    _, cap = ballot_layout(6)
    for msg in completes:
        want = sum(make_ballot_vector(Ballot(*ballots[p]), 6, cap).values
                   for p in range(6) if msg.support >> p & 1)
        assert np.array_equal(msg.votes_ct._payload, want)
    first = [p for p in range(6) if completes[0].support >> p & 1]
    winner = irv_oracle([ballots[p] for p in first], 6)
    assert all(report.decided_values[p] == winner for p in (0, 2, 3, netsim.TRUSTED))


def test_dense_election_encrypts_once_per_process_and_adds_once_per_adopted_copy(
        monkeypatch):
    rng = random.Random(24)
    n = 24
    ballots = random_ballots(rng, n)
    t = topo.random_connected(n, 0.4, rng)
    setup = build(t, [{"primary": p, "secondary": s} for p, s in ballots], seed=2)
    # a crash plan makes f = 1, so lineages run; the last process crashes
    # before its first message arrives, so the survivors' ballots are counted
    faults = netsim.FaultPlan((netsim.CrashFault(n - 1, 0),))
    adopted_lacking = 0
    fold = leader_election.on_receive_election

    def counted(state, msg, ballot_ct, backend, pid, n, **kw):
        nonlocal adopted_lacking
        assert ballot_ct is setup.nodes[pid].ballot_ct
        out = fold(state, msg, ballot_ct, backend, pid, n, **kw)
        adopted_lacking += out[1] and not (msg.support >> pid & 1)
        return out

    monkeypatch.setattr(leader_election, "on_receive_election", counted)
    encrypted, added = [], []
    encrypt, add_ct = setup.backend.encrypt, setup.backend.add_ct
    setup.backend.encrypt = lambda pk, vec, tag: encrypted.append(tag) or \
        encrypt(pk, vec, tag)
    setup.backend.add_ct = lambda a, b: added.append(b) or add_ct(a, b)
    report, _ = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 5),
                                  faults=faults).run()
    assert report.termination == "decided"
    want = irv_oracle(ballots[:-1], n)
    assert report.decided_values == {**dict.fromkeys(range(n - 1), want),
                                     netsim.TRUSTED: want}
    # each process encrypts its ballot once, at start; each adopted copy
    # that lacks a process pays one add_ct of that process's ciphertext
    assert encrypted == [(p, "ballot") for p in range(n)]
    assert adopted_lacking > 0 and len(added) == adopted_lacking
    ballot_cts = {id(setup.nodes[p].ballot_ct) for p in range(n)}
    assert all(id(ct) in ballot_cts for ct in added)


def test_a_fault_free_election_adds_each_ballot_once_up_a_tree(monkeypatch):
    rng = random.Random(24)
    n = 24
    ballots = random_ballots(rng, n)
    t = topo.random_connected(n, 0.4, rng)
    setup = build(t, [{"primary": p, "secondary": s} for p, s in ballots], seed=2)
    monkeypatch.setattr(leader_election, "on_receive_election", None)
    calls = Counter()
    for op in ("encrypt", "add_ct", "mark_prepared"):
        def counted(*args, _op=op, _f=getattr(setup.backend, op)):
            calls[_op, args[2][0] if _op == "encrypt" else None] += 1
            return _f(*args)
        setattr(setup.backend, op, counted)
    report, _ = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 5)).run()
    want = irv_oracle(ballots, n)
    assert report.termination == "decided"
    assert report.decided_values == {**dict.fromkeys(range(n), want), netsim.TRUSTED: want}
    # each ballot encrypted once, each child's sum added once, one prepare at
    # the root, and one message from each process
    assert calls == Counter({**{("encrypt", p): 1 for p in range(n)},
                             ("add_ct", None): n - 1, ("mark_prepared", None): 1})
    assert report.messages_sent == {**dict.fromkeys(range(n), 1), netsim.TRUSTED: n}


@pytest.mark.parametrize("ballots, message", [
    ([{"primary": 0}, {"primary": 0, "secondry": 1}, {"primary": 1}],
     r"unknown ballot keys \['secondry'\]"),
    ({"random_uniform": [0, 1]}, "ballots must be a list"),
    ([{"primary": 0}, {"primary": 1}], "need one ballot per process, got 2 for n=3"),
], ids=["unknown-key", "not-a-list", "one-short"])
def test_parse_ballots_rejects_malformed_ballots(ballots, message):
    with pytest.raises(InvalidBallotError, match=message):
        leader_election.build(topo.ring(3), ballots)


# -- f + 1 origins and the adoption order -------------------------------------

@pytest.mark.parametrize("n, crashes, f", [
    (1, (), 0),
    (6, (), 0),
    (6, ((4, 9),), 1),
    (6, ((4, 9), (4, 2), (1, 3)), 2),     # process 4 listed twice counts once
    (3, ((0, 5), (1, 5), (2, 6)), 3),     # f + 1 is more than n
])
def test_the_first_f_plus_1_processes_encrypt_a_ballot_at_the_start(n, crashes, f,
                                                                     monkeypatch):
    # every process encrypts its ballot exactly once, at t = 0, whatever f
    # is; of them only processes 0 .. f start a lineage, and with f = 0 none
    # does, each adding its ciphertext to the tree's copy
    t = topo.ring(n) if n > 1 else topo.Topology(1, [])
    setup = build(t, [{"primary": p % n} for p in range(n)], seed=1)
    faults = netsim.FaultPlan(tuple(netsim.CrashFault(p, time) for p, time in crashes))
    sim = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 1), faults=faults)
    assert sim.crash_bound == f
    encrypted, origins = [], []
    encrypt = setup.backend.encrypt
    setup.backend.encrypt = lambda pk, vec, tag: \
        encrypted.append((sim._now, tag)) or encrypt(pk, vec, tag)
    init = leader_election.init_election

    def started(pid, ballot_ct, n):
        assert sim._now == 0 and ballot_ct is setup.nodes[pid].ballot_ct
        origins.append(pid)
        return init(pid, ballot_ct, n)

    monkeypatch.setattr(leader_election, "init_election", started)
    sim.run()
    assert encrypted == [(0, (p, "ballot")) for p in range(n)]
    assert origins == list(range(min(n, f + 1) if f else 0))
    assert all(setup.nodes[p].tree == (f == 0) for p in range(n))


def test_only_a_surviving_origin_carries_the_election():
    # FloodSet's edge case: f = 2 gives origins 0, 1 and 2, and 0 and 1 crash
    # before their lineages leave them, so only lineage 2 reaches the keyholder
    ballots = [(0, None), (0, None), (4, 5), (5, 0), (4, None), (3, 0)]
    report, trace, log = run_logged(election_config(
        {"family": "ring", "n": 6}, ballots, seed=1, crashes=((0, 0), (1, 1))))
    assert report.termination == "decided"
    completes = [msg for _, _, _, msg in log if msg.kind == PREPARED]
    assert completes and {(msg.instance, msg.support) for msg in completes} == \
        {("elect/2", 0b111100)}
    want = irv_oracle(ballots[2:], 6)
    assert want == 4 and irv_oracle(ballots, 6) != want
    assert report.decided_values == {p: want for p in (2, 3, 4, 5, netsim.TRUSTED)}
    assert netsim.privacy_audit(trace) == []


@pytest.mark.parametrize("topology, seed, schedule, ballots", [
    ({"family": "tree", "n": 5}, 1, "async",
     [(1, 3), (1, 2), (3, None), (3, 0), (4, 1)]),
    ({"family": "random", "n": 8}, 1, "sync",
     [(5, 0), (0, None), (5, None), (5, None), (2, None), (6, 1), (6, 7), (7, 6)]),
], ids=["tree5-async", "random8-sync"])
def test_copies_of_one_size_do_not_block_a_lone_lineage(topology, seed, schedule, ballots):
    # under a rule adopting only copies with strictly more contributors, two
    # copies of one size each kept their holders, and both runs missed the
    # deadline; the total order lets the larger support through
    report = netsim.run(ScenarioConfig.from_dict(
        election_config(topology, ballots, seed, schedule)))
    assert report.termination == "decided"
    n = len(ballots)
    want = irv_oracle(ballots, n)
    assert report.decided_values == {**{p: want for p in range(n)}, netsim.TRUSTED: want}


FAMILIES = ("ring", "path", "star", "complete", "tree", "random")


def test_elections_decide_across_families_schedules_and_crashes():
    """Every run of a pruned survey decides, each crash-free run the IRV
    winner: six families, n in {2, 5, 8}, both schedules, seeds 1-3, and no
    crash, one crash or two crashes that leave the survivors connected."""
    rng = random.Random(33)
    undecided, wrong = [], []
    for family in FAMILIES:
        for n in (2, 5, 8):
            for schedule in ("sync", "async"):
                for seed in (1, 2, 3):
                    t = ScenarioConfig.from_dict(election_config(
                        {"family": family, "n": n}, [(0, None)] * n, seed)).resolve_topology()
                    ballots = random_ballots(rng, n)
                    for k in range(min(3, n)):
                        crashed = rng.sample(range(n), k)
                        if k and not t.connected_without(crashed):
                            continue
                        crashes = [(p, rng.randrange(3 * n)) for p in crashed]
                        raw = election_config(t.to_dict(), ballots, seed, schedule, crashes)
                        report = netsim.run(ScenarioConfig.from_dict(raw))
                        case = (family, n, schedule, seed, crashes)
                        if report.termination != "decided" or \
                                len(set(report.decided_values.values())) != 1:
                            undecided.append(case)
                        elif not k and report.decided_values[0] != irv_oracle(ballots, n):
                            wrong.append(case)
    assert (undecided, wrong) == ([], [])
