"""Independent plaintext oracles the protocol implementations are checked against.

These deliberately share no code with the package: plain sums, per-ballot
round simulation, and networkx for graph queries.
"""

import math


def mean_oracle(values):
    return sum(values) / len(values)


def outlier_oracle(values, c, participants=None):
    """Three-stage reference: mu over everyone, sigma and filtering over
    `participants` (defaults to everyone; restricted under crash faults).

    Returns (mu, sigma, outlier_flags, filtered_mean_or_None).
    """
    mu = sum(values) / len(values)
    idx = sorted(participants) if participants is not None else list(range(len(values)))
    variance = sum((values[i] - mu) ** 2 for i in idx) / len(idx)
    sigma = math.sqrt(max(0.0, variance))
    flags = {i: abs(values[i] - mu) > c * sigma for i in idx}
    kept = [values[i] for i in idx if not flags[i]]
    filtered = sum(kept) / len(kept) if kept else None
    return mu, sigma, flags, filtered


def irv_oracle(ballots, candidates, with_rounds=False):
    """Per-ballot shallow instant-runoff simulation.

    `ballots` is a list of (primary, secondary-or-None); `candidates` the
    number of candidates.  Returns the winner id; with `with_rounds`,
    (winner, round records, exhausted ballots), each record holding what a
    report's `election_rounds` holds: the live tallies in ascending id order,
    the ballots exhausted before the round, and how the round ended.
    """
    state = [{"cand": p, "sec": s, "moved": False} for p, s in ballots]
    live = set(range(candidates))
    total = len(ballots)
    exhausted = 0
    records = []

    def votes_of(c):
        return sum(1 for b in state if b["cand"] == c)

    def crown(record, winner, by):
        record["winner"], record["by"] = winner, by
        return (winner, records, exhausted) if with_rounds else winner

    while True:
        votes = {c: votes_of(c) for c in sorted(live)}
        record = {"tallies": votes, "exhausted": exhausted, "eliminated": None,
                  "tie_break": None, "winner": None, "by": None}
        records.append(record)
        if len(records) > 1:
            # the checks that follow an elimination
            if len(live) == 1:
                return crown(record, next(iter(live)), "last-standing")
            if len(set(votes.values())) == 1:
                shared = next(iter(votes.values()))
                ids = sorted(live)
                record["tie_break"] = {"among": ids, "v_tie": shared,
                                       "picked": ids[shared % len(ids)]}
                return crown(record, ids[shared % len(ids)], "tie-break")
        active = total - exhausted
        top = max(sorted(live), key=lambda c: votes[c])
        if 2 * votes[top] > active:
            return crown(record, top, "majority")

        fewest = min(votes[c] for c in live)
        tied = sorted(c for c in live if votes[c] == fewest)
        loser = tied[fewest % len(tied)]
        if len(tied) > 1:
            record["tie_break"] = {"among": tied, "v_tie": fewest, "picked": loser}
        record["eliminated"] = loser
        live.discard(loser)
        for b in state:
            if b["cand"] == loser:
                if not b["moved"] and b["sec"] is not None and b["sec"] in live:
                    b["cand"] = b["sec"]
                    b["moved"] = True
                else:
                    b["cand"] = None
                    exhausted += 1
        record["exhausted_after"] = exhausted


def grid_from_ballots(ballots, candidates):
    """The tally grid of (primary, secondary-or-None) ballots: a list of
    `candidates` rows, cell [p][s] counting ballots (p, s) and the diagonal
    cell [p][p] the ballots with primary p and no secondary."""
    grid = [[0] * candidates for _ in range(candidates)]
    for p, s in ballots:
        grid[p][p if s is None else s] += 1
    return grid
