"""Ballot layout, elimination procedure, tie-breaking, and simulated runs."""

import random

import numpy as np
import pytest

from consentry import netsim
from consentry import topology as topo
from consentry.avg_consensus import COMPLETE
from consentry.he_slots import BackendConfig, SlotBackend, SlotVector
from consentry.leader_election import (Ballot, CorruptedTallyError,
                                       InvalidBallotError, ballot_layout,
                                       build, elect_winner, flat_index,
                                       init_election, make_ballot_vector, tally,
                                       tie_break)
from consentry.netsim import ScenarioConfig

from exposures import audit_view
from oracles import irv_oracle


def test_ballot_validation():
    with pytest.raises(InvalidBallotError):
        Ballot(1, 1)
    assert Ballot(1, 0).secondary == 0
    assert Ballot(2).secondary is None


def test_ballot_layout_and_indices():
    assert ballot_layout(3) == (12, 16)
    assert flat_index(3, 1, 0) == 3
    assert flat_index(3, 2, None) == 11
    assert flat_index(3, 0, 2) == 2
    with pytest.raises(InvalidBallotError):
        flat_index(3, 2, 2)
    with pytest.raises(InvalidBallotError):
        flat_index(3, 3, None)


def test_make_ballot_vector():
    v = make_ballot_vector(Ballot(1, 0), 3)
    assert len(v) == 16 and v[3] == 1.0 and sum(v.to_list()) == 1.0
    v2 = make_ballot_vector(Ballot(2), 3)
    assert v2[11] == 1.0


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


def matrix_from_ballots(ballots, k):
    matrix = [[0] * k for _ in range(k)]
    primary_only = [0] * k
    for p, s in ballots:
        if s is None:
            primary_only[p] += 1
        else:
            matrix[p][s] += 1
    tallies = [sum(matrix[p]) + primary_only[p] for p in range(k)]
    return tallies, matrix, primary_only


FIG2_BALLOTS = [(0, 2), (0, 1), (1, 0), (2, 0), (2, 1)]


def test_elect_winner_fig2_scenario():
    tallies, matrix, primary_only = matrix_from_ballots(FIG2_BALLOTS, 3)
    assert tallies == [2, 1, 2]          # tie between candidates 0 and 2
    result = elect_winner(tallies, matrix, primary_only)
    assert result.winner == 0            # secondary of (1,0) breaks the tie
    assert result.rounds[0]["eliminated"] == 1
    assert result.rounds[-1]["by"] == "majority"
    assert result.exhausted == 0


def test_elect_winner_unanimous():
    tallies, matrix, primary_only = matrix_from_ballots([(0, 1), (0, 2), (0, None)], 3)
    assert tallies == [3, 0, 0]
    result = elect_winner(tallies, matrix, primary_only)
    assert result.winner == 0 and result.rounds[0]["by"] == "majority"


def test_elect_winner_exhaustion_then_tie_break():
    # five votes, no secondary anywhere: eliminating candidate 2 exhausts its
    # ballot, leaving 0 and 1 tied at 2 -> tie_break({0,1}, 2) -> winner 0
    ballots = [(0, None), (0, None), (1, None), (1, None), (2, None)]
    tallies, matrix, primary_only = matrix_from_ballots(ballots, 3)
    assert tallies == [2, 2, 1]
    result = elect_winner(tallies, matrix, primary_only)
    assert result.winner == 0
    assert result.rounds[-1]["by"] == "tie-break"
    assert result.exhausted == 1


def test_elect_winner_transferred_ballots_exhaust_on_second_elimination():
    # (2,1): transfers to 1 when 2 falls, then exhausts when 1 falls
    ballots = [(0, None), (0, None), (0, 1), (1, 2), (2, 1)]
    tallies, matrix, primary_only = matrix_from_ballots(ballots, 3)
    result = elect_winner(tallies, matrix, primary_only)
    assert result.winner == irv_oracle(ballots, 3)


def test_elect_winner_ballot_conservation():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randrange(3, 8)
        ballots = random_ballots(rng, n)
        tallies, matrix, primary_only = matrix_from_ballots(ballots, n)
        result = elect_winner(tallies, matrix, primary_only)
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
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(3, 9)
        ballots = random_ballots(rng, n)
        tallies, matrix, primary_only = matrix_from_ballots(ballots, n)
        assert elect_winner(tallies, matrix, primary_only).winner == \
            irv_oracle(ballots, n), ballots


def test_on_receive_election_contribution_rules():
    from consentry.avg_consensus import AGGREGATE, ProtocolMessage
    from consentry.leader_election import init_election, on_receive_election
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=4)
    km = backend.keygen("T")
    origin_state, msg = init_election(0, Ballot(1, 2), km.public_part, n, backend)
    # fresh lineage at a non-contributor: contributes, counts gains a 1
    state, out, complete = on_receive_election(None, msg, Ballot(2, 0),
                                               km.public_part, backend,
                                               pid=1, n=n)
    assert state.counts[:3].tolist() == [1, 1, 0]
    assert out and complete is None
    payload = backend.inspect_payload(state.votes_ct)
    assert payload[flat_index(3, 1, 2)] == 1 and payload[flat_index(3, 2, 0)] == 1
    # the same copy revisiting a contributor: no growth, no forward
    revisit = ProtocolMessage(msg.instance, AGGREGATE, votes_ct=state.votes_ct,
                              counts=tuple(int(x) for x in state.counts))
    state2, out2, complete2 = on_receive_election(state, revisit, Ballot(2, 0),
                                                  km.public_part, backend,
                                                  pid=1, n=n)
    assert out2 is False and complete2 is None
    # final contributor completes the lineage: adopted, complete ciphertext
    state3, out3, complete3 = on_receive_election(None, revisit, Ballot(0, 1),
                                                  km.public_part, backend,
                                                  pid=2, n=n)
    assert complete3 is not None and complete3.prepared and out3 is True


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
    t = tally(backend, km.secret_part, ct, n, caller="T")
    assert sum(t.primary_tallies) == n
    assert t.matrix[0][2] == 1 and t.matrix[0][1] == 1 and t.matrix[1][0] == 1


def test_tally_primary_only_column_identity():
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=1)
    km = backend.keygen("T")
    ct = complete_ct_for([(0, None), (2, None), (2, None)], n, backend, km)
    t = tally(backend, km.secret_part, ct, n, caller="T")
    assert all(sum(row) == 0 for row in t.matrix)
    assert t.primary_tallies == t.primary_only == (1, 0, 2)


def test_tally_rejects_non_integral_and_unprepared():
    n = 3
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=1)
    km = backend.keygen("T")
    bad = backend.encrypt(km.public_part,
                          SlotVector([0.5] + [0.0] * (cap - 1)), ("T", "x"))
    with pytest.raises(CorruptedTallyError):
        tally(backend, km.secret_part, backend.mark_prepared(bad), n, caller="T")
    good = complete_ct_for([(0, 1)] * 3, n, backend, km)
    unprepared = backend.add_ct(good, backend.encrypt(
        km.public_part, SlotVector.zeros(cap), ("T", "z")))
    with pytest.raises(CorruptedTallyError):
        tally(backend, km.secret_part, unprepared, n, caller="T")


def test_voter_permutation_invariance():
    """The decrypted aggregate is a multiset: reassigning ballots to voters
    leaves the tally unchanged."""
    n = 4
    ballots = [(0, 1), (1, 0), (0, 2), (3, None)]
    _, cap = ballot_layout(n)
    backend = SlotBackend(BackendConfig(cap), seed=2)
    km = backend.keygen("T")
    t1 = tally(backend, km.secret_part,
               complete_ct_for(ballots, n, backend, km), n, caller="T")
    rng = random.Random(0)
    shuffled = ballots[:]
    rng.shuffle(shuffled)
    t2 = tally(backend, km.secret_part,
               complete_ct_for(shuffled, n, backend, km), n, caller="T")
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
    sim = netsim.Simulation(t, setup, policy, keep_log=True)
    report, trace = sim.run()
    assert report.termination == "decided"
    assert any(msg.kind == COMPLETE for _, _, _, msg in trace.messages)
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
    sim = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 5), keep_log=True)
    _, trace = sim.run()
    backend = setup.backend
    for ev in backend.events():
        if ev.kind == "decrypt":
            assert ev.observer == netsim.TRUSTED
            assert ev.prepared            # complete ciphertexts only
    keys = [setup.nodes[netsim.TRUSTED].key]
    for pid in range(5):
        for _, _, decryptable in audit_view(trace, keys, pid):
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


def test_lone_process_elects_itself():
    report = run_election([(0, None)], topo.Topology(1, []))
    assert report.termination == "decided"
    assert report.decided_values == {0: 0, netsim.TRUSTED: 0}


def test_contributor_counts_have_one_entry_per_process():
    n = 3
    ballots = [(0, 1), (1, None), (0, 2)]
    t = topo.ring(n)
    setup = build(t, [{"primary": p, "secondary": s} for p, s in ballots], seed=1)
    assert setup.backend.config.slot_capacity == 16
    state, msg = init_election(0, Ballot(0, 1), setup.nodes[0].pk, n, setup.backend)
    assert state.counts.tolist() == [1, 0, 0] and msg.counts == (1, 0, 0)
    _, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 1),
                                 keep_log=True).run()
    completes = [msg for _, _, _, msg in trace.messages if msg.kind == COMPLETE]
    assert completes and all(msg.counts == (1, 1, 1) for msg in completes)


def test_32_ring_election_decides_the_irv_winner():
    rng = random.Random(32)
    ballots = random_ballots(rng, 32)
    report = run_election(ballots, topo.ring(32))
    assert report.termination == "decided"
    want = irv_oracle(ballots, 32)
    assert all(report.decided_values[p] == want for p in range(32))
    assert report.privacy_violations == []


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
