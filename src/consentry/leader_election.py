"""Privacy-preserving leader election with one optional secondary vote.

Every process casts a one-hot ballot into a flattened n-by-n grid: cell
p*n + s counts ballots (p, s), and diagonal cell p*n + p the primary-only
ballots for p.  Ballot ciphertexts cannot be merged across copies, so
each ballot must be added to a copy exactly once; a copy's `support` bitmask
has bit p set once process p contributed.  With no crash allowed, f = 0
being the crash bound `netsim.Context.crash_bound`, the ballots are summed
up one BFS tree from process 0, as in TAG (Madden et al., OSDI 2002): each
process adds its children's sums to its own ballot and sends one copy to its
parent, and the root hands the complete copy to the keyholder, so a run
sends 2n messages and, in sync, decides at depth + 2.  With f >= 1 each
origin's ciphertext travels as a lineage, to which a process contributes its
ballot at most once.  Only processes 0 .. f start a lineage: as in FloodSet
(Lynch, Distributed Algorithms, 6.2), one of f + 1 origins never crashes, so
its lineage is never lost.  A process stores and forwards a copy only if
that copy, with its own ballot added, comes later than the held one in one
total order: more contributors first, then the larger support as an integer.
Under that order the latest copy of a lineage spreads and grows until it
covers the survivors; two copies of one size cannot block each other.  A
lineage copy is a `ConsensusState` with no counts and that support, handled
by a `FloodingNode` that folds it with `on_receive_election`.  Each process
encrypts its ballot once, at start, and adds that one ciphertext to every
copy it adopts; the fold places the copy, counting the ballot it would
gain, against the held copy first, so a rejected copy costs no engine call.
A copy whose contributors cover every process not known to have crashed is
complete and goes to the keyholder, marked prepared, as a PREPARED message
with that copy's own support.  The keyholder opens only copies with the
support of the first it opens, so its decryptions reveal one grid and how
many ballots it holds, never who voted for whom.

Elimination follows the shallow ranked-vote rule: no majority -> eliminate
the fewest-vote candidate (ties picked by the id-independent mod-k rule),
transfer its ballots to their live secondaries (at most one transfer per
ballot, otherwise the vote exhausts), and crown on majority, last-standing
or an all-tied mod-k break.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import netsim
from .avg_consensus import (ACTIVE, DECIDED, PREPARED, RESULT, ConsensusState,
                            FloodingNode, ProtocolMessage, TrustedCollectorNode)
from .he_slots import Ciphertext, SlotEngine, SlotVector, seeded_backend, slot_capacity_for
from .topology import Topology, TopologyError, _is_int


class InvalidBallotError(netsim.ScenarioError):
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
    """(grid length n*n, padded slot capacity)."""
    return n * n, slot_capacity_for(n * n)


def flat_index(n: int, primary: int, secondary: int | None) -> int:
    if not (0 <= primary < n):
        raise InvalidBallotError(f"primary {primary} out of range for n={n}")
    if secondary is None:
        return primary * n + primary
    if not (0 <= secondary < n):
        raise InvalidBallotError(f"secondary {secondary} out of range for n={n}")
    if secondary == primary:
        raise InvalidBallotError("secondary vote cannot equal primary")
    return primary * n + secondary


def make_ballot_vector(ballot: Ballot, n: int, capacity: int) -> SlotVector:
    """One-hot encoding of a ballot in the flattened grid layout, in a
    vector of `capacity` slots (`ballot_layout`)."""
    return SlotVector.impulse(capacity, flat_index(n, ballot.primary, ballot.secondary))


def init_election(pid: int, ballot_ct: Ciphertext,
                  n: int) -> tuple[ConsensusState, ProtocolMessage]:
    """Start this process's own lineage, carrying its encrypted ballot."""
    state = ConsensusState(instance_for_origin(pid), n, (ballot_ct,), counts=None,
                           support=1 << pid)
    return state, state.snapshot()


def on_receive_election(state: ConsensusState | None, msg: ProtocolMessage,
                        ballot_ct: Ciphertext, backend: SlotEngine,
                        pid: int, n: int, required_mask: int):
    """Adopt a copy that comes later than the held one, adding this
    process's encrypted ballot, `ballot_ct`, to it once.

    Copies are ordered by contributor count, then by support as an integer,
    and the arriving copy is placed with this process's ballot counted, so a
    copy that does not come later is rejected with no engine call; only an
    adopted copy that lacks this process pays for one `add_ct`.  A copy is
    complete once its support covers `required_mask`.  Returns (state,
    whether the copy was adopted, complete ciphertext or None); the complete
    ciphertext, not yet marked prepared, goes with the returned state's
    support, and the caller announces an adopted copy that is not complete.
    """
    support = msg.support | 1 << pid
    if state is not None:
        count, held = support.bit_count(), state.support.bit_count()
        if count < held or count == held and support <= state.support:
            return state, False, None
    cand_ct = msg.votes_ct
    if support != msg.support:
        cand_ct = backend.add_ct(cand_ct, ballot_ct)
    if state is None:
        state = ConsensusState(msg.instance, n, (cand_ct,), counts=None, support=support)
    else:
        state.channels, state.support = (cand_ct,), support
    return state, True, None if required_mask & ~support else cand_ct


# -- tallying and elimination -------------------------------------------------

#: largest distance of a decrypted tally slot from an integer
_TALLY_TOLERANCE = 0.01


def tally(backend: SlotEngine, secret, complete_ct: Ciphertext, n: int,
          caller=None, *, contributors: int) -> tuple:
    """Decrypt a complete ballot aggregate into its grid: n row tuples, row p
    holding the ballots with primary p, cell s those with secondary s and
    the diagonal cell p the primary-only ones.

    `contributors` is the lineage's support bitmask; the ballots must number
    exactly its set bits (fewer than n when crashed processes were left out).
    """
    if not complete_ct.prepared:
        raise CorruptedTallyError("refusing to tally an incomplete aggregate")
    # the emulated noise may move a slot by up to its tracked bound
    tolerance = _TALLY_TOLERANCE + complete_ct.noise_bound
    if tolerance >= 0.5:
        raise netsim.ScenarioError(
            f"noise_epsilon too large to round tallies to integers: noise bound "
            f"{complete_ct.noise_bound:.3g} + tolerance {_TALLY_TOLERANCE} >= 0.5")
    vec = backend.decrypt(secret, complete_ct, caller=caller)
    flat = np.asarray(vec.values[:n * n])
    rounded = np.rint(flat)
    if float(np.max(np.abs(flat - rounded))) > tolerance:
        raise CorruptedTallyError(
            f"slots deviate from integers beyond {tolerance:g}")
    # no ballot writes past the grid; written so that NaN fails it
    if not np.all(np.abs(vec.values[n * n:]) <= tolerance):
        raise CorruptedTallyError(f"padding slots deviate from 0 beyond {tolerance:g}")
    ints = rounded.astype(np.int64)
    if np.any(ints < 0):
        raise CorruptedTallyError("negative tally entry")
    total, count = int(ints.sum()), contributors.bit_count()
    if total != count:
        raise CorruptedTallyError(f"total ballots {total} != contributor count {count}")
    return tuple(map(tuple, ints.reshape(n, n).tolist()))


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


def elect_winner(grid) -> ElectionResult:
    """Shallow instant-runoff over the aggregated ballot grid (`tally`).

    Candidate p's ballot groups (secondary, count) are the nonzero cells of
    row p; the diagonal cell, the primary-only group, names p itself, so it
    exhausts when p is eliminated.  Each round records the live tallies, in
    ascending id order.  From the second round on, a sole survivor wins
    ("last-standing") and an all-tied field is broken by the mod-k rule
    ("tie-break"); then a majority of non-exhausted votes wins.  Otherwise
    the fewest-vote candidate is eliminated (mod-k pick among the tied), and
    only its ballot groups move: each live candidate keeps its vote total
    and its groups, and a group transfers once to a live secondary or
    exhausts.
    """
    if not grid:
        raise ValueError("no candidates")
    held = {p: [(s, count) for s, count in enumerate(row) if count]
            for p, row in enumerate(grid)}
    totals = {p: sum(count for _, count in groups) for p, groups in held.items()}
    total = sum(totals.values())
    exhausted = 0
    rounds = []
    while True:
        votes = dict(totals)
        record = {"tallies": votes, "exhausted": exhausted, "eliminated": None,
                  "tie_break": None, "winner": None, "by": None}
        rounds.append(record)
        fewest, most = min(votes.values()), max(votes.values())
        tied = [c for c, v in votes.items() if v == fewest]
        top = next(c for c, v in votes.items() if v == most)
        if len(rounds) > 1 and len(votes) == 1:
            record["winner"], record["by"] = top, "last-standing"
        elif len(rounds) > 1 and len(tied) == len(votes):
            winner = tie_break(tied, fewest)
            record["tie_break"] = {"among": tied, "v_tie": fewest, "picked": winner}
            record["winner"], record["by"] = winner, "tie-break"
        elif 2 * most > total - exhausted:
            record["winner"], record["by"] = top, "majority"
        else:
            loser = tie_break(tied, fewest)
            if len(tied) > 1:
                record["tie_break"] = {"among": tied, "v_tie": fewest, "picked": loser}
            record["eliminated"] = loser
            del totals[loser]
            for secondary, count in held.pop(loser):
                if secondary in totals:
                    totals[secondary] += count
                    held[secondary].append((None, count))
                else:
                    exhausted += count
            record["exhausted_after"] = exhausted
            continue
        return ElectionResult(record["winner"], tuple(rounds), exhausted)


# -- simulation actors --------------------------------------------------------

class ElectionProcessNode(FloodingNode):
    """Election participant: one ConsensusState per lineage it holds.

    `on_start` encrypts the ballot once for the whole run, as `ballot_ct`.
    With f = 0, f being the context's `crash_bound`, the process takes its
    `parent` and `children` from the BFS tree `bfs` returns, and sums ballots
    up it as one copy of lineage 0, adding each child's copy with `add_ct`;
    the copy's fan-out is the parent, and `required_mask` is the process and
    its children.  With f >= 1, processes 0 .. f each start a lineage
    through `FloodingNode._start`, and each message of a batch is folded by
    `on_receive_election`; any adopted copy is rebroadcast.  `_hand_on` is
    the one rule for a held copy that a start, a crash notice or a tree fold
    completed, and `_emit_prepared` the one place a copy is marked prepared:
    the first complete copy of a lineage goes only to the keyholder, with
    that copy's own support, and decides the state.  The crash rule,
    `FloodingNode._wait_for_survivors`, is the outlier node's.
    """

    def __init__(self, pid: int, ballot: Ballot, pk, n: int, backend: SlotEngine, bfs):
        super().__init__(pid, n, backend)
        self.ballot = ballot
        self.ballot_ct: Ciphertext | None = None
        self.pk = pk
        self.bfs = bfs          # () -> (parents, children), shared by the run's nodes
        self.tree = False       # summing up the tree: set at start, when f = 0
        self.parent, self.children = None, []

    def on_start(self, ctx):
        self.ballot_ct = self.backend.encrypt(
            self.pk, make_ballot_vector(self.ballot, self.n, self.backend.config.slot_capacity),
            (self.pid, "ballot"))
        self.tree = ctx.crash_bound == 0
        if self.tree:
            parents, children = self.bfs()
            self.parent, self.children = parents[self.pid], children[self.pid]
            self.required_mask = sum(1 << p for p in (self.pid, *self.children))
            instance = instance_for_origin(0)
            state = ConsensusState(instance, self.n, (self.ballot_ct,), counts=None,
                                   support=1 << self.pid)
            state.fanout = (self.parent,)
            self.states[instance] = state
            self._try_decide(ctx, state)
        elif self.pid <= ctx.crash_bound:
            self._start(ctx, *init_election(self.pid, self.ballot_ct, self.n))

    def _hand_on(self, state):
        """(whether to send the held copy to the parent, (ciphertext, support)
        for the keyholder or None): once the copy counts every required
        process, a tree node below the root sends it up (`parent` is None
        elsewhere), and the root, like every lineage copy, hands it on."""
        if self.required_mask & ~state.support:
            return False, None
        if self.parent is not None:
            return True, None
        return False, (state.channels[0], state.support)

    def _try_decide(self, ctx, state):
        """Hand on a held copy that a start or a crash notice completed."""
        up, complete = self._hand_on(state)
        if up:
            ctx.multicast(state.fanout, self._snapshot_msg(state))
        elif complete is not None:
            self._emit_prepared(ctx, state.instance, complete)

    def _fold_instance(self, instance, msgs):
        """Fold a batch's copies of one lineage; a completing copy is handed
        on as (ciphertext, support) even if a later, larger copy that does not
        cover `required_mask` replaces it as the held state."""
        state = self.states.get(instance)
        if self.tree:
            for msg in msgs:
                state.channels = (self.backend.add_ct(state.channels[0], msg.votes_ct),)
                state.support |= msg.support
            return self._hand_on(state)
        grown, complete = False, None
        for msg in msgs:
            state, merged, done = on_receive_election(
                state, msg, self.ballot_ct, self.backend, self.pid, self.n,
                required_mask=self.required_mask)
            grown = grown or merged
            if done is not None:
                complete = done, state.support
        self.states[instance] = state
        if complete is not None and state.phase == ACTIVE:
            return False, complete
        return grown, None

    def _emit_prepared(self, ctx, instance, complete):
        """Hand a lineage copy that counts every required process, given as
        (ciphertext, its support), to the keyholder, marked prepared."""
        complete_ct, support = complete
        self.states[instance].phase = DECIDED
        ctx.mark_complete(instance)
        ctx.send(netsim.TRUSTED, ProtocolMessage(
            instance, PREPARED, (self.backend.mark_prepared(complete_ct),), support=support))

    def _handle_result(self, ctx, msg):
        ctx.decide(msg.extra["winner"])

    on_crash_notice = FloodingNode._wait_for_survivors


class ElectionCollectorNode(TrustedCollectorNode):
    """Keyholder: tallies the first complete copy, verifies the rest.

    A fault-free run hands it one copy, the root's sum up the tree.  Under
    crashes, lineages, each an instance, may complete with different
    contributor sets.  So its `_handle_prepared` puts the one-support rule
    in place of the one opening rule: it keeps the first copy it tallies in
    `prepared`, opens only copies with that support, whose grids must agree,
    and drops the rest unopened: grids whose supports differ by one process
    differ by that process's ballot.  It acts only on PREPARED messages.
    """

    grid = None     # the first tally's grid

    def _handle_prepared(self, ctx, msg):
        first = next(iter(self.prepared.values()), None)
        if first is not None and msg.support != first.support:
            return
        grid = tally(self.backend, self.key.secret_part, msg.votes_ct,
                     self.n, caller=self.pid, contributors=msg.support)
        if first is None:
            self.prepared[msg.instance], self.grid = msg, grid
            result = elect_winner(grid)
            ctx.decide(result.winner)
            ctx.note("election_rounds", list(result.rounds))
            ctx.note("election_exhausted", result.exhausted)
            ctx.broadcast_processes(ProtocolMessage(
                msg.instance, RESULT, extra={"winner": result.winner}))
        elif grid != self.grid:
            raise CorruptedTallyError(
                "complete lineages with one support disagree on the grid")


def parse_ballots(raw, n: int) -> list[Ballot]:
    if not isinstance(raw, (list, tuple)):
        raise InvalidBallotError(f"ballots must be a list, got {raw!r}")
    if len(raw) != n:
        raise InvalidBallotError(f"need one ballot per process, got {len(raw)} for n={n}")
    out = []
    for item in raw:
        unknown = isinstance(item, dict) and item.keys() - {"primary", "secondary"}
        if unknown:
            raise InvalidBallotError(f"unknown ballot keys {sorted(unknown, key=str)} in "
                                     f"{item!r}; a ballot takes 'primary' and 'secondary'")
        if not isinstance(item, dict) or not _is_int(item.get("primary")) or \
                not (item.get("secondary") is None or _is_int(item["secondary"])):
            raise InvalidBallotError(
                f"a ballot is an object with an integer primary and an optional "
                f"integer secondary, got {item!r}")
        out.append(Ballot(item["primary"], item.get("secondary")))
    for b in out:
        flat_index(n, b.primary, b.secondary)   # range validation
    return out


def bfs_tree(adjacency) -> tuple[dict, list]:
    """Each process's parent (None at the root) and children in one BFS tree
    from process 0, in one pass over `Topology.adjacency`: a process's
    parent is its lowest-id neighbour one level nearer the root."""
    n = len(adjacency)
    parent, children, level = {0: None}, [[] for _ in range(n)], [0]
    while level:
        for u in level:
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    children[u].append(v)
        level = sorted(v for u in level for v in children[u])
    if len(parent) < n:
        raise TopologyError("an election needs a connected topology")
    return parent, children


def build(topology: Topology, ballots, *, seed: int = 0,
          noise_epsilon: float = 0.0) -> netsim.ProtocolSetup:
    n = topology.n
    parsed = parse_ballots(ballots, n)
    # only a fault-free run uses the tree, and f is known at start: the first
    # start that needs it computes it for all
    bfs = functools.cache(lambda: bfs_tree(topology.adjacency))
    _, cap = ballot_layout(n)
    backend = seeded_backend(cap, noise_epsilon, seed)
    key = backend.keygen(netsim.TRUSTED)
    nodes = {}
    for pid in range(n):
        nodes[pid] = ElectionProcessNode(pid, parsed[pid], key.public_part, n, backend, bfs)
    nodes[netsim.TRUSTED] = ElectionCollectorNode(key, n, backend)
    return netsim.ProtocolSetup(
        nodes=nodes, backend=backend,
        private_values=frozenset(),
        expected_deciders=set(range(n)),
    )
