"""Communication graphs: connectivity and diameter queries plus generators."""

from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

import numpy as np


class TopologyError(Exception):
    pass


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool)


class Topology:
    """Undirected communication graph on process ids 0..n-1."""

    def __init__(self, n: int, edges):
        if n < 1:
            raise TopologyError("need at least one process")
        norm = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise TopologyError(f"self-loop at {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise TopologyError(f"edge ({i},{j}) out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
        self.n = n
        self.edges = frozenset(norm)
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        self._adj = adj

    def neighbors(self, i: int) -> set[int]:
        if not (0 <= i < self.n):
            raise TopologyError(f"process id {i} out of range")
        return set(self._adj[i])

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def _bfs_dist(self, src: int, alive: set[int]) -> dict[int, int]:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v in alive and v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def is_connected(self) -> bool:
        alive = set(range(self.n))
        return len(self._bfs_dist(0, alive)) == self.n

    def diameter(self) -> int:
        """Longest shortest path; BFS from every node (desk-scale graphs)."""
        if not self.is_connected():
            raise TopologyError("diameter undefined on disconnected graph")
        alive = set(range(self.n))
        best = 0
        for src in range(self.n):
            best = max(best, max(self._bfs_dist(src, alive).values()))
        return best

    def connected_without(self, removed) -> bool:
        """Connectivity of the subgraph induced by dropping `removed` ids."""
        removed = set(removed)
        survivors = set(range(self.n)) - removed
        if not survivors:
            raise TopologyError("cannot remove every process")
        start = min(survivors)
        return len(self._bfs_dist(start, survivors)) == len(survivors)

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": sorted([list(e) for e in self.edges])}

    def __repr__(self):
        return f"Topology(n={self.n}, edges={len(self.edges)})"


def load_topology(source) -> Topology:
    """Build a Topology from a dict or a JSON file `{"n": int, "edges": [[i,j],...]}`.

    Rejects duplicates, self-loops and out-of-range ids.
    """
    if isinstance(source, Topology):
        return source
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            source = json.load(fh)
    if not isinstance(source, dict) or "n" not in source or "edges" not in source:
        raise TopologyError("topology must be an object with 'n' and 'edges'")
    n, edges = source["n"], source["edges"]
    if not _is_int(n) or n < 1:
        raise TopologyError(f"invalid process count {n!r}")
    if not isinstance(edges, (list, tuple)):
        raise TopologyError(f"edges must be a list of [i, j] pairs, got {edges!r}")
    seen = set()
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2 or not all(map(_is_int, e)):
            raise TopologyError(f"malformed edge {e!r}")
        key = (min(e), max(e))
        if key in seen:
            raise TopologyError(f"duplicate edge {e!r}")
        seen.add(key)
    return Topology(n, edges)


# -- generators used by the CLI sweep and the test suites ----------------

def ring(n: int) -> Topology:
    return Topology(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Topology:
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Topology:
    return Topology(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Topology:
    return Topology(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected(n: int, p: float, rng: random.Random) -> Topology:
    """Erdos-Renyi G(n, p), redrawn until connected."""
    for _ in range(1000):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        t = Topology(n, edges)
        if t.is_connected():
            return t
    raise TopologyError(f"could not draw a connected graph with n={n}, p={p}")


def random_tree(n: int, rng: random.Random) -> Topology:
    """Uniform-ish random tree: attach each node to a random earlier node."""
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return Topology(n, edges)


def from_family(family: str, n: int, rng: random.Random, p: float = 0.4) -> Topology:
    makers = {
        "ring": lambda: ring(n),
        "path": lambda: path(n),
        "star": lambda: star(n),
        "complete": lambda: complete(n),
        "tree": lambda: random_tree(n, rng),
        "random": lambda: random_connected(n, p, rng),
    }
    if family not in makers:
        raise TopologyError(f"unknown topology family {family!r}")
    if n < 2 and family != "path":
        raise TopologyError(f"family {family!r} needs n >= 2")
    return makers[family]()
