"""Plaintext oracles for the benchmark's correctness checks.

They share no code with the package: plain sums, a per-ballot instant-runoff
simulation and a breadth-first search over edge lists.
"""

import math
import random
from collections import deque


def mean(values):
    return math.fsum(values) / len(values)


def outlier_filtered_mean(values, c):
    """Mean of the values within c standard deviations (population) of the mean."""
    mu = mean(values)
    sigma = math.sqrt(max(0.0, math.fsum((v - mu) ** 2 for v in values) / len(values)))
    kept = [v for v in values if abs(v - mu) <= c * sigma]
    return mean(kept) if kept else None


def irv_winner(ballots, candidates):
    """Shallow instant-runoff over (primary, secondary-or-None) ballots.

    The fewest-vote candidate is eliminated (the (votes mod k)-th smallest id
    among k tied); its ballots move once to a live secondary or exhaust.
    """
    state = [{"cand": p, "sec": s, "moved": False} for p, s in ballots]
    live = set(range(candidates))
    total = len(ballots)
    exhausted = 0

    def votes_of(c):
        return sum(1 for b in state if b["cand"] == c)

    while True:
        votes = {c: votes_of(c) for c in live}
        top = max(sorted(live), key=lambda c: votes[c])
        if 2 * votes[top] > total - exhausted:
            return top
        fewest = min(votes.values())
        tied = sorted(c for c in live if votes[c] == fewest)
        loser = tied[fewest % len(tied)]
        live.discard(loser)
        for b in state:
            if b["cand"] == loser:
                if not b["moved"] and b["sec"] is not None and b["sec"] in live:
                    b["cand"], b["moved"] = b["sec"], True
                else:
                    b["cand"] = None
                    exhausted += 1
        if len(live) == 1:
            return next(iter(live))
        after = {votes_of(c) for c in live}
        if len(after) == 1:
            ids = sorted(live)
            return ids[after.pop() % len(ids)]


def _reached(adjacency, removed, start):
    """How many processes `start` reaches without passing through `removed`."""
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v != removed and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


def _adjacency(n, edges):
    adjacency = [[] for _ in range(n)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    return adjacency


def is_connected(n, edges):
    return _reached(_adjacency(n, edges), None, 0) == n


def cut_vertices(n, edges):
    """Processes whose removal disconnects the rest of the graph."""
    adjacency = _adjacency(n, edges)
    return {k for k in range(n)
            if _reached(adjacency, k, 1 if k == 0 else 0) != n - 1}


def ring_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def connected_gnp(n, p, rng):
    """Erdos-Renyi G(n, p) edge list, redrawn until connected."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if is_connected(n, edges):
            return edges


def uniform_inputs(seed, n, lo, hi):
    """The inputs a `{"random_uniform": [lo, hi]}` scenario gives its n
    processes in the trial whose seed is `seed`, as the config format defines
    them."""
    rng = random.Random(seed * 1099087573 % (2 ** 31) + 17)
    return [rng.uniform(lo, hi) for _ in range(n)]
