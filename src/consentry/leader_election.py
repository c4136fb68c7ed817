"""Privacy-preserving leader election with one optional secondary vote.

Every process casts a one-hot ballot into a flattened n*n matrix (entry
p*n + s counts ballots with primary p and secondary s) followed by n
primary-only slots.  Ballot ciphertexts cannot be merged across copies, so
each origin's ciphertext travels as a lineage: a process contributes its
ballot to a lineage copy at most once (tracked via plaintext 0/1 counts,
one per process) and stores/forwards only copies with strictly more
contributors.
A copy whose counts are all-ones is complete and goes to the keyholder,
whose decryption reveals tallies only, never who voted for whom.

Elimination follows the shallow ranked-vote rule: no majority -> eliminate
the fewest-vote candidate (ties picked by the id-independent mod-k rule),
transfer its ballots to their live secondaries (at most one transfer per
ballot, otherwise the vote exhausts), and crown on majority, last-standing
or an all-tied mod-k break.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import netsim
from .avg_consensus import AGGREGATE, COMPLETE, RESULT, ProtocolMessage
from .he_slots import Ciphertext, SlotEngine, SlotVector, seeded_backend, slot_capacity_for
from .topology import Topology, _is_int


class InvalidBallotError(Exception):
    pass


class CorruptedTallyError(Exception):
    pass


@dataclass(frozen=True)
class Ballot:
    primary: int
    secondary: int | None = None

    def __post_init__(self):
        if self.secondary is not None and self.secondary == self.primary:
            raise InvalidBallotError(
                "secondary vote cannot designate the primary candidate")


def instance_for_origin(origin: int) -> str:
    return f"elect/{origin}"


def ballot_layout(n: int) -> tuple[int, int]:
    """(flat length n*n + n, padded slot capacity)."""
    flat = n * n + n
    return flat, slot_capacity_for(flat)


def flat_index(n: int, primary: int, secondary: int | None) -> int:
    if not (0 <= primary < n):
        raise InvalidBallotError(f"primary {primary} out of range for n={n}")
    if secondary is None:
        return n * n + primary
    if not (0 <= secondary < n):
        raise InvalidBallotError(f"secondary {secondary} out of range for n={n}")
    if secondary == primary:
        raise InvalidBallotError("secondary vote cannot equal primary")
    return primary * n + secondary


def make_ballot_vector(ballot: Ballot, n: int, capacity: int | None = None) -> SlotVector:
    """One-hot encoding of a ballot in the flattened matrix layout."""
    _, cap = ballot_layout(n)
    if capacity is not None:
        cap = capacity
    return SlotVector.impulse(cap, flat_index(n, ballot.primary, ballot.secondary))


@dataclass
class ElectionState:
    """Best lineage copy a process has adopted.

    `counts` holds one 0/1 float64 entry per process (who contributed),
    never written once the state holds it, so snapshots share it; only the
    ballot ciphertext is n*n + n slots padded to a power of two.
    """

    instance: str
    ballots_ct: Ciphertext
    counts: np.ndarray

    def snapshot(self) -> ProtocolMessage:
        """The AGGREGATE message announcing this lineage copy."""
        return ProtocolMessage(self.instance, AGGREGATE, votes_ct=self.ballots_ct,
                               counts=self.counts)


def init_election(pid: int, ballot: Ballot, pk, n: int,
                  backend: SlotEngine) -> tuple[ElectionState, ProtocolMessage]:
    """Start this process's own lineage, already carrying its ballot."""
    cap = backend.config.slot_capacity
    instance = instance_for_origin(pid)
    ct = backend.encrypt(pk, make_ballot_vector(ballot, n, cap),
                         (pid, f"{instance}:ballot"))
    counts = np.zeros(n)
    counts[pid] = 1
    counts.flags.writeable = False
    state = ElectionState(instance=instance, ballots_ct=ct, counts=counts)
    return state, state.snapshot()


def _covers(counts: np.ndarray, required=None) -> bool:
    """True when every required process (all of them when None) contributed."""
    if required is None:
        return bool(counts.all())
    return bool(counts[np.asarray(required, dtype=np.intp)].all())


def on_receive_election(state: ElectionState | None, msg: ProtocolMessage,
                        own_ballot: Ballot, pk, backend: SlotEngine,
                        pid: int, n: int, required=None):
    """Contribute (once per lineage copy) and adopt strictly larger copies.

    Returns (state, whether the copy was adopted, complete ciphertext or
    None); the caller announces an adopted copy that is not complete.
    """
    incoming = msg.count_array
    if incoming[pid]:
        cand_ct, cand_counts = msg.votes_ct, incoming
    else:
        fresh = backend.encrypt(pk, make_ballot_vector(own_ballot, n,
                                                       backend.config.slot_capacity),
                                (pid, f"{msg.instance}:ballot"))
        cand_ct = backend.add_ct(msg.votes_ct, fresh)
        cand_counts = incoming.copy()
        cand_counts[pid] = 1
        cand_counts.flags.writeable = False
    size = int(cand_counts.sum())
    have = 0 if state is None else int(state.counts.sum())
    if size <= have:
        return state, False, None
    if state is None:
        state = ElectionState(instance=msg.instance, ballots_ct=cand_ct,
                              counts=cand_counts)
    else:
        state.ballots_ct = cand_ct
        state.counts = cand_counts
    if _covers(cand_counts, required):
        return state, True, backend.mark_prepared(cand_ct)
    return state, True, None


# -- tallying and elimination -------------------------------------------------

#: largest distance of a decrypted tally slot from an integer
_TALLY_TOLERANCE = 0.01


@dataclass(frozen=True)
class TallyResult:
    primary_tallies: tuple
    matrix: tuple            # n rows of n secondary counts
    primary_only: tuple


def tally(backend: SlotEngine, secret, complete_ct: Ciphertext, n: int,
          caller=None, counts=None) -> TallyResult:
    """Decrypt a complete ballot aggregate and reshape into tallies.

    `counts` are the lineage's 0/1 contributor counts; the ballots must
    number exactly its contributors (all n processes when not given, fewer
    when crashed processes were left out).
    """
    if not complete_ct.prepared:
        raise CorruptedTallyError("refusing to tally an incomplete aggregate")
    vec = backend.decrypt(secret, complete_ct, caller=caller)
    flat = np.asarray(vec.values[:n * n + n])
    rounded = np.rint(flat)
    if float(np.max(np.abs(flat - rounded))) > _TALLY_TOLERANCE:
        raise CorruptedTallyError(
            f"slots deviate from integers beyond {_TALLY_TOLERANCE}")
    ints = rounded.astype(np.int64)
    matrix = ints[:n * n].reshape(n, n)
    primary_only = ints[n * n:]
    if np.any(np.diag(matrix) != 0):
        raise CorruptedTallyError("diagonal (primary == secondary) is nonzero")
    if np.any(ints < 0):
        raise CorruptedTallyError("negative tally entry")
    primary = matrix.sum(axis=1) + primary_only
    contributors = n if counts is None else sum(1 for c in counts if c)
    if int(primary.sum()) != contributors:
        raise CorruptedTallyError(
            f"total ballots {int(primary.sum())} != contributor count {contributors}")
    return TallyResult(tuple(int(x) for x in primary),
                       tuple(tuple(int(x) for x in row) for row in matrix),
                       tuple(int(x) for x in primary_only))


def tie_break(tied_ids, v_tie: int) -> int:
    """Pick the (v_tie mod k)-th smallest id: deterministic, id-shift safe."""
    ids = sorted(tied_ids)
    if not ids:
        raise ValueError("tie_break needs a non-empty candidate set")
    return ids[v_tie % len(ids)]


@dataclass(frozen=True)
class ElectionResult:
    winner: int
    rounds: tuple
    exhausted: int


def elect_winner(primary_tallies, matrix, primary_only) -> ElectionResult:
    """Shallow instant-runoff over the aggregated ballot matrix.

    Each round records the live tallies.  From the second round on, a sole
    survivor wins ("last-standing") and an all-tied field is broken by the
    mod-k rule ("tie-break"); then a majority of non-exhausted votes wins.
    Otherwise the fewest-vote candidate is eliminated (mod-k pick among the
    tied) and its ballots transfer once to live secondaries or exhaust.
    """
    k = len(primary_tallies)
    if k == 0:
        raise ValueError("no candidates")
    total = int(sum(primary_tallies))
    groups = []              # [current, secondary, count, transferred]
    for p in range(k):
        groups.extend([p, s, int(matrix[p][s]), False]
                      for s in range(k) if matrix[p][s])
        if primary_only[p]:
            groups.append([p, None, int(primary_only[p]), False])
    live = set(range(k))
    exhausted = 0
    rounds = []
    while True:
        votes = dict.fromkeys(sorted(live), 0)
        for current, _, count, _ in groups:
            if current in live:
                votes[current] += count
        record = {"tallies": votes, "exhausted": exhausted, "eliminated": None,
                  "tie_break": None, "winner": None, "by": None}
        rounds.append(record)
        fewest = min(votes.values())
        tied = [c for c in votes if votes[c] == fewest]
        top = max(votes, key=votes.get)
        if len(rounds) > 1 and len(live) == 1:
            record["winner"], record["by"] = top, "last-standing"
        elif len(rounds) > 1 and len(tied) == len(live):
            winner = tie_break(tied, fewest)
            record["tie_break"] = {"among": tied, "v_tie": fewest, "picked": winner}
            record["winner"], record["by"] = winner, "tie-break"
        elif 2 * votes[top] > total - exhausted:
            record["winner"], record["by"] = top, "majority"
        else:
            loser = tie_break(tied, fewest)
            if len(tied) > 1:
                record["tie_break"] = {"among": tied, "v_tie": fewest, "picked": loser}
            record["eliminated"] = loser
            live.discard(loser)
            for g in groups:
                if g[0] != loser:
                    continue
                if not g[3] and g[1] in live:
                    g[0], g[3] = g[1], True
                else:
                    g[0] = None
                    exhausted += g[2]
            record["exhausted_after"] = exhausted
            continue
        return ElectionResult(record["winner"], tuple(rounds), exhausted)


# -- simulation actors --------------------------------------------------------

class ElectionProcessNode(netsim.Node):
    def __init__(self, pid: int, ballot: Ballot, pk, n: int, backend: SlotEngine):
        self.pid = pid
        self.ballot = ballot
        self.pk = pk
        self.n = n
        self.backend = backend
        self.required = tuple(range(n))
        self.states: dict[str, ElectionState] = {}
        self.completed: set[str] = set()

    def on_start(self, ctx):
        state, msg = init_election(self.pid, self.ballot, self.pk, self.n,
                                   self.backend)
        self.states[state.instance] = state
        ctx.broadcast(msg)
        if _covers(state.counts, self.required):
            self._complete(ctx, state, self.backend.mark_prepared(state.ballots_ct))

    def _complete(self, ctx, state: ElectionState, complete_ct: Ciphertext):
        """Hand a lineage that covers every required process to the keyholder."""
        self.completed.add(state.instance)
        ctx.mark_complete(state.instance)
        ctx.send(netsim.TRUSTED, ProtocolMessage(
            state.instance, COMPLETE, votes_ct=complete_ct,
            counts=state.counts))

    def on_deliver(self, ctx, batch):
        per_lineage: dict[str, list] = {}
        for sender, msg in batch:
            if msg.kind == AGGREGATE:
                per_lineage.setdefault(msg.instance, []).append(msg)
            elif msg.kind == RESULT:
                ctx.decide(msg.extra["winner"])
        for lineage in sorted(per_lineage):
            state = self.states.get(lineage)
            grown, complete = False, None
            for msg in per_lineage[lineage]:
                state, merged, done = on_receive_election(
                    state, msg, self.ballot, self.pk, self.backend,
                    self.pid, self.n, required=self.required)
                grown = grown or merged
                if done is not None:
                    complete = done
            if state is None:
                continue
            self.states[lineage] = state
            if complete is not None and lineage not in self.completed:
                self._complete(ctx, state, complete)
            elif grown:
                ctx.broadcast(state.snapshot())

    def on_crash_notice(self, ctx, crashed):
        self.required = tuple(p for p in range(self.n) if p not in crashed)


class ElectionCollectorNode(netsim.Node):
    """Keyholder: tallies the first complete lineage, verifies the rest.

    Under crashes, lineages may complete with different contributor sets;
    only lineages with the same contributors must agree.
    """

    def __init__(self, key_material, n: int, backend: SlotEngine):
        self.key = key_material
        self.n = n
        self.backend = backend
        self.result: ElectionResult | None = None
        self.tallies: dict[tuple, TallyResult] = {}   # 0/1 contributor counts -> first tally

    def on_deliver(self, ctx, batch):
        for sender, msg in batch:
            if msg.kind != COMPLETE:
                continue
            t = tally(self.backend, self.key.secret_part, msg.votes_ct,
                      self.n, caller=ctx.pid, counts=msg.counts)
            first = self.tallies.setdefault(msg.counts, t)
            if self.result is None:
                self.result = elect_winner(t.primary_tallies, t.matrix,
                                           t.primary_only)
                ctx.decide(self.result.winner)
                ctx.note("election_rounds", list(self.result.rounds))
                ctx.note("election_exhausted", self.result.exhausted)
                ctx.broadcast_processes(ProtocolMessage(
                    msg.instance, RESULT,
                    extra={"winner": self.result.winner, "issuer": "trusted"}))
            elif t.primary_tallies != first.primary_tallies:
                raise CorruptedTallyError(
                    "complete lineages disagree on primary tallies")


def parse_ballots(raw, n: int) -> list[Ballot]:
    if not isinstance(raw, (list, tuple)):
        raise InvalidBallotError(f"ballots must be a list, got {raw!r}")
    if len(raw) != n:
        raise ValueError(f"need one ballot per process, got {len(raw)} for n={n}")
    out = []
    for item in raw:
        if isinstance(item, Ballot):
            out.append(item)
            continue
        if not isinstance(item, dict) or not _is_int(item.get("primary")) or \
                not (item.get("secondary") is None or _is_int(item["secondary"])):
            raise InvalidBallotError(
                f"a ballot is an object with an integer primary and an optional "
                f"integer secondary, got {item!r}")
        out.append(Ballot(item["primary"], item.get("secondary")))
    for b in out:
        flat_index(n, b.primary, b.secondary)   # range validation
    return out


def build(topology: Topology, ballots, *, seed: int = 0,
          noise_epsilon: float = 0.0) -> netsim.ProtocolSetup:
    n = topology.n
    parsed = parse_ballots(ballots, n)
    _, cap = ballot_layout(n)
    backend = seeded_backend(cap, noise_epsilon, seed)
    key = backend.keygen(netsim.TRUSTED)
    nodes = {}
    for pid in range(n):
        nodes[pid] = ElectionProcessNode(pid, parsed[pid], key.public_part,
                                         n, backend)
    nodes[netsim.TRUSTED] = ElectionCollectorNode(key, n, backend)
    return netsim.ProtocolSetup(
        nodes=nodes, backend=backend,
        private_values=frozenset(),
        expected_deciders=set(range(n)),
    )
