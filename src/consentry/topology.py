"""Communication graphs: connectivity and diameter queries plus generators."""

from __future__ import annotations

import json
import math
import operator
import random
from functools import cached_property
from itertools import combinations, compress
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
    """Undirected communication graph on process ids 0..n-1.

    The constructor reads the edges once, into one neighbour set per
    process, which merges duplicate edges; an endpoint that is not an int
    or a numpy int raises `TopologyError`.  The rest is derived from those
    sets when first asked for and then kept: `edges`, `adjacency` and
    connectivity, which `diameter` and `netsim.run` share with the
    generator that drew the graph.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise TopologyError("need at least one process")
        adj: list[set[int]] = [set() for _ in range(n)]
        index = operator.index
        for i, j in edges:
            try:
                # `operator.index` takes ints and numpy ints, and bools too
                if i.__class__ is bool or j.__class__ is bool:
                    raise TypeError
                i, j = index(i), index(j)
            except TypeError:
                raise TopologyError(f"edge ({i!r}, {j!r}) has a non-integer endpoint") \
                    from None
            if i == j:
                raise TopologyError(f"self-loop at {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise TopologyError(f"edge ({i},{j}) out of range for n={n}")
            adj[i].add(j)
            adj[j].add(i)
        self.n = n
        self._adj = adj
        self._connected: bool | None = None

    @classmethod
    def _of_pairs(cls, n: int, pairs) -> "Topology":
        """The graph on `pairs`, which a generator made in range and without
        self-loops, read into the neighbour sets with no per-edge check."""
        t = cls(n, ())
        adj = t._adj
        for i, j in pairs:
            adj[i].add(j)
            adj[j].add(i)
        return t

    @cached_property
    def edges(self) -> frozenset:
        """Each edge once, as (i, j) with i < j."""
        return frozenset((i, j) for i, nbrs in enumerate(self._adj) for j in nbrs if i < j)

    @cached_property
    def adjacency(self) -> tuple:
        """Each process's neighbours as a tuple in ascending order."""
        return tuple(tuple(sorted(nbrs)) for nbrs in self._adj)

    def neighbors(self, i: int) -> set[int]:
        if not (0 <= i < self.n):
            raise TopologyError(f"process id {i} out of range")
        return set(self._adj[i])

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def _reached(self, src: int, removed=frozenset()) -> set[int]:
        """`removed` plus every process reachable from `src` without
        passing through `removed`.  The search ends as soon as that is
        every process, so on a dense graph it pops only the first few."""
        adj, n = self._adj, self.n
        seen = {src, *removed}
        stack = [src]
        while stack and len(seen) < n:
            new = adj[stack.pop()] - seen
            seen |= new
            stack += new
        return seen

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = len(self._reached(0)) == self.n
        return self._connected

    def diameter(self) -> int:
        """Longest shortest path: the number of hops after which every
        process reaches every other.  Each process's reach, a bitmask of
        the processes within d hops, grows by one hop per pass, from every
        process at once: it ORs in its neighbours' reach of the pass
        before.  A process whose reach is full drops out of the passes."""
        if not self.is_connected():
            raise TopologyError("diameter undefined on disconnected graph")
        n = self.n
        full = (1 << n) - 1
        reach = [1 << v for v in range(n)]
        growing = [(v, nbrs) for v, nbrs in enumerate(self.adjacency) if reach[v] != full]
        hops = 0
        while growing:
            hops += 1
            before = reach[:]
            for v, nbrs in growing:
                r = before[v]
                for u in nbrs:
                    r |= before[u]
                reach[v] = r
            growing = [item for item in growing if reach[item[0]] != full]
        return hops

    def connected_without(self, removed) -> bool:
        """Connectivity of the subgraph induced by dropping `removed` ids."""
        everyone = set(range(self.n))
        survivors = everyone.difference(removed)
        if not survivors:
            raise TopologyError("cannot remove every process")
        # only ids in range, so that the search ends when it has them all
        return survivors <= self._reached(min(survivors), everyone - survivors)

    def cut_vertices(self) -> frozenset:
        """The processes k for which `connected_without({k})` is False.

        On a connected graph these are its articulation points, found with
        one iterative depth-first search (Hopcroft and Tarjan, 1973): a
        non-root process u is one when some child v's subtree has no edge
        to a process discovered before u (`low[v] >= order[u]`), and the
        root when it has two or more children.  Counting the edge back to
        the parent in `low` cannot change either test.  On a disconnected
        graph only an isolated process can leave the others connected."""
        n, adj = self.n, self._adj
        if n == 1:
            raise TopologyError("cannot remove every process")
        if not self.is_connected():
            return frozenset(k for k in range(n)
                             if adj[k] or not self.connected_without({k}))
        order = [0] * n             # discovery time, from 1; 0 = not reached
        low = [0] * n
        order[0] = low[0] = 1
        time, root_children = 1, 0
        cut = set()
        stack = [(0, iter(adj[0]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if not order[w]:
                    time += 1
                    order[w] = low[w] = time
                    stack.append((w, iter(adj[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if not stack:
                    break
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if u == 0:
                    root_children += 1
                elif low[v] >= order[u]:
                    cut.add(u)
        if root_children > 1:
            cut.add(0)
        return frozenset(cut)

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [[i, j] for i, nbrs in enumerate(self.adjacency)
                                       for j in nbrs if i < j]}

    def __repr__(self):
        return f"Topology(n={self.n}, edges={sum(map(len, self._adj)) // 2})"


def load_topology(source, rng: random.Random | None = None) -> Topology:
    """Build a Topology from any form a scenario gives it.

    The forms are a Topology, a path to a JSON file holding one of the other
    forms, `{"n": int, "edges": [[i, j], ...]}` and
    `{"family": str, "n": int[, "p": float]}`; `rng` draws the tree and
    random families.  Rejects keys a form does not have, an unreadable file,
    duplicate edges, self-loops, out-of-range ids and a `p` outside (0, 1].
    """
    if isinstance(source, Topology):
        return source
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise TopologyError(f"cannot read topology {source}: {exc}") from exc
    if not isinstance(source, dict):
        raise TopologyError(f"topology must be an object or a file path, got {source!r}")
    allowed = {"family", "n", "p"} if "family" in source else {"n", "edges"}
    if set(source) - allowed:
        raise TopologyError(f"unknown topology keys {sorted(set(source) - allowed)}; "
                            f"this form takes {sorted(allowed)}")
    if "family" in source:
        n, p = source.get("n"), source.get("p", 0.4)
        if not _is_int(n):
            raise TopologyError(f"a family topology needs an integer n: {source!r}")
        if not (_is_real(p) and 0 < p <= 1):
            raise TopologyError(f"a family topology's p must be in (0, 1]: {source!r}")
        return from_family(source["family"], int(n), rng, p=float(p))
    if "n" not in source or "edges" not in source:
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
    # the checked constructor, which rejects ring(1)'s self-loop
    return Topology(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Topology:
    return Topology._of_pairs(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Topology:
    return Topology._of_pairs(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Topology:
    return Topology._of_pairs(n, combinations(range(n), 2))


def random_connected(n: int, p: float, rng: random.Random) -> Topology:
    """Erdos-Renyi G(n, p), redrawn until connected.

    Each attempt draws the graph that
    `[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]`
    draws, and leaves the generator in the same state, from one
    `rng.getrandbits(64 * m)` call for its m pairs.  `rng` must be a
    `random.Random`: its `getrandbits` returns successive 32-bit Mersenne
    Twister outputs as the integer's little-endian 32-bit words, and its
    `random()` is k / 2**53 with k = (a >> 5) * 2**26 + (b >> 6) for two
    successive outputs a and b.  So `random() < p` is k < `limit`, the
    ceiling of p * 2**53.  The top 8 of k's 53 bits are a's top byte, which
    decides the test unless it equals `limit >> 45` (one pair in 256); only
    then is k read in full.  `combinations` yields the pairs in the
    comprehension's order."""
    m = n * (n - 1) // 2
    limit = math.ceil(p * 2.0 ** 53)
    top = limit >> 45
    # a's top byte -> 1 (drawn), 2 (read k in full) or 0 (not drawn)
    table = (b"\1" * top + b"\2" + bytes(255))[:256]
    for _ in range(1000):
        words = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        drawn = bytearray(words[3::8].translate(table))
        i = drawn.find(2)
        while i >= 0:
            w = int.from_bytes(words[8 * i:8 * i + 8], "little")
            drawn[i] = ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < limit
            i = drawn.find(2, i + 1)
        t = Topology._of_pairs(n, compress(combinations(range(n), 2), drawn))
        if t.is_connected():
            return t
    raise TopologyError(f"could not draw a connected graph with n={n}, p={p}")


def random_tree(n: int, rng: random.Random) -> Topology:
    """Uniform-ish random tree: attach each node to a random earlier node."""
    return Topology._of_pairs(n, [(i, rng.randrange(i)) for i in range(1, n)])


def from_family(family: str, n: int, rng: random.Random, p: float = 0.4) -> Topology:
    makers = {
        "ring": lambda: ring(n),
        "path": lambda: path(n),
        "star": lambda: star(n),
        "complete": lambda: complete(n),
        "tree": lambda: random_tree(n, rng),
        "random": lambda: random_connected(n, p, rng),
    }
    if not isinstance(family, str) or family not in makers:
        raise TopologyError(f"unknown topology family {family!r}")
    if n < 2 and family != "path":
        raise TopologyError(f"family {family!r} needs n >= 2")
    return makers[family]()
