"""Graph queries against networkx as the independent oracle."""

import random

import networkx as nx
import numpy as np
import pytest

from consentry import topology as topo
from consentry.topology import Topology, TopologyError, load_topology


def to_nx(t: Topology) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.edges)
    return g


def test_loader_validation():
    with pytest.raises(TopologyError):
        load_topology({"n": 3, "edges": [[0, 0]]})
    with pytest.raises(TopologyError):
        load_topology({"n": 3, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(TopologyError):
        load_topology({"n": 3, "edges": [[0, 5]]})
    with pytest.raises(TopologyError):
        load_topology({"edges": []})
    t = load_topology({"n": 3, "edges": [[0, 1], [1, 2]]})
    assert t.n == 3 and len(t.edges) == 2


def test_loader_from_file(tmp_path):
    p = tmp_path / "t.json"
    p.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3]]}')
    assert load_topology(str(p)).diameter() == 3


@pytest.mark.parametrize("p", [0, -0.5, 1.5, float("nan")])
def test_family_p_outside_unit_interval_is_rejected_before_a_draw(p):
    class NoDraws(random.Random):
        def random(self):
            raise AssertionError("drew an edge")

        def getrandbits(self, k):
            raise AssertionError("drew an edge")
    with pytest.raises(TopologyError, match=r"p must be in \(0, 1\]"):
        load_topology({"family": "random", "n": 256, "p": p}, NoDraws(0))


def test_neighbors():
    line = topo.path(3)
    assert line.neighbors(1) == {0, 2}
    assert line.neighbors(0) == {1}
    isolated = Topology(2, [])
    assert isolated.neighbors(0) == set()
    assert topo.complete(4).neighbors(0) == {1, 2, 3}
    with pytest.raises(TopologyError):
        line.neighbors(7)


def test_is_connected():
    assert Topology(1, []).is_connected()
    assert not Topology(2, []).is_connected()
    assert topo.ring(5).is_connected()


def test_diameter_examples():
    assert topo.complete(2).diameter() == 1
    assert topo.complete(6).diameter() == 1
    assert topo.path(4).diameter() == 3
    assert topo.ring(6).diameter() == 3
    with pytest.raises(TopologyError):
        Topology(2, []).diameter()


def test_connected_without():
    assert not topo.star(4).connected_without({0})
    ring5 = topo.ring(5)
    for v in range(5):
        assert ring5.connected_without({v})
    rng = random.Random(4)
    tree = topo.random_tree(6, rng)
    leaf = next(i for i in range(6) if tree.degree(i) == 1)
    assert tree.connected_without({leaf})
    with pytest.raises(TopologyError):
        ring5.connected_without({0, 1, 2, 3, 4})


def test_against_networkx_oracle():
    rng = random.Random(77)
    graphs = [topo.random_connected(rng.randrange(2, 20), 0.35, rng) for _ in range(40)]
    for family in ("ring", "path", "star", "complete", "tree", "random"):
        for n in (1, 2, 16, 64):
            # a lone process is every family's graph; `from_family` builds it as a path
            graphs.append(topo.from_family(family if n > 1 else "path", n, rng))
    for t in graphs:
        n = t.n
        g = to_nx(t)
        assert t.is_connected() == nx.is_connected(g)
        assert t.diameter() == nx.diameter(g)
        i = rng.randrange(n)
        assert t.neighbors(i) == set(g.neighbors(i))
        if n == 1:
            with pytest.raises(TopologyError):
                t.connected_without({0})
            continue
        removed = {rng.randrange(n)}
        h = g.copy()
        h.remove_nodes_from(removed)
        assert t.connected_without(removed) == nx.is_connected(h)
    assert Topology(1, []).diameter() == 0
    for t in (Topology(2, []), Topology(5, [(0, 1), (1, 2), (3, 4)]),
              Topology(64, [(i, i + 1) for i in range(63) if i != 31])):
        assert not nx.is_connected(to_nx(t))
        with pytest.raises(TopologyError, match="disconnected"):
            t.diameter()


def test_diameter_invariants():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(2, 15)
        t = topo.random_connected(n, 0.5, rng)
        d = t.diameter()
        assert 1 <= d <= n - 1


def test_vertex_removal_never_shortens_paths():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randrange(4, 12)
        t = topo.random_connected(n, 0.5, rng)
        g = to_nx(t)
        w = rng.randrange(n)
        h = g.copy()
        h.remove_node(w)
        before = dict(nx.all_pairs_shortest_path_length(g))
        for u, lengths in nx.all_pairs_shortest_path_length(h):
            for v, dist in lengths.items():
                assert dist >= before[u][v]


def test_generators():
    assert topo.ring(5).degree(0) == 2
    assert topo.star(5).degree(0) == 4
    assert topo.path(5).diameter() == 4
    rng = random.Random(3)
    tree = topo.random_tree(8, rng)
    assert len(tree.edges) == 7 and tree.is_connected()
    with pytest.raises(TopologyError):
        topo.from_family("mesh", 4, rng)


# -- set-up in linear work: adjacency, connectivity and cut vertices --------

def _cut_by_definition(t: Topology) -> set:
    return {k for k in range(t.n) if not t.connected_without({k})}


@pytest.mark.parametrize("family", ["ring", "path", "star", "complete", "tree", "random"])
@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_cut_vertices_match_the_definition_and_networkx(family, n):
    t = topo.from_family(family, n, random.Random(n))
    cut = t.cut_vertices()
    assert isinstance(cut, frozenset)
    assert cut == _cut_by_definition(t) == set(nx.articulation_points(to_nx(t)))


def test_cut_vertices_on_random_and_disconnected_graphs():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(2, 14)
        p = rng.choice((0.1, 0.2, 0.35))
        t = Topology(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < p])
        assert t.cut_vertices() == _cut_by_definition(t)
    # a lone isolated process is the one whose removal leaves the rest connected
    assert Topology(2, []).cut_vertices() == frozenset()
    assert Topology(3, [(1, 2)]).cut_vertices() == {1, 2}
    assert Topology(4, [(0, 1), (2, 3)]).cut_vertices() == {0, 1, 2, 3}
    with pytest.raises(TopologyError, match="cannot remove every process"):
        Topology(1, []).cut_vertices()


def test_long_path_needs_no_recursion():
    t = topo.path(5000)
    assert t.is_connected()
    assert t.cut_vertices() == frozenset(range(1, 4999))
    assert not t.connected_without({2500})
    assert t.to_dict()["edges"][-1] == [4998, 4999]


def _comprehension_draw(n, p, rng):
    """`random_connected` as first written: the whole edge list drawn by one
    comprehension, redrawn until networkx finds it connected."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        if nx.is_connected(g):
            return set(edges)


@pytest.mark.parametrize("seed", range(50))
def test_random_connected_draws_the_comprehensions_edges(seed):
    n, p = 2 + seed % 23, (0.15, 0.4, 0.8)[seed % 3]
    old_rng, new_rng = random.Random(seed), random.Random(seed)
    want = _comprehension_draw(n, p, old_rng)
    t = topo.random_connected(n, p, new_rng)
    assert t.edges == want
    assert new_rng.random() == old_rng.random()      # the same draws, no more


def _checked_draw(n, p, rng):
    """The comprehension read by the validating constructor, redrawn until
    connected; returns the graph and the number of attempts."""
    for attempt in range(1, 1001):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        t = Topology(n, edges)
        if t.is_connected():
            return t, attempt


@pytest.mark.parametrize("n, p, seed", [(1, 0.4, 0), (2, 0.4, 0), (128, 0.4, 3001),
                                        (200, 1.0, 1), (12, 0.12, 5)])
def test_the_one_call_draw_at_the_edges_and_at_benchmark_size(n, p, seed):
    # n = 128 reads about 32 pairs per attempt in full (a top byte equal to
    # the limit's), n = 200 at p = 1.0 none, and n = 12 at p = 0.12 redraws
    old_rng, new_rng = random.Random(seed), random.Random(seed)
    want, attempts = _checked_draw(n, p, old_rng)
    t = topo.random_connected(n, p, new_rng)
    assert t.edges == want.edges
    assert t.adjacency == want.adjacency
    assert new_rng.random() == old_rng.random()
    if p == 0.12:
        assert attempts > 3                         # several redraws, each one call
    if p == 1.0:
        assert len(t.edges) == n * (n - 1) // 2


@pytest.mark.parametrize("family", ["ring", "path", "star", "complete", "tree", "random"])
@pytest.mark.parametrize("n", [2, 5, 17])
def test_a_generated_graph_equals_its_edge_list_rebuild(family, n):
    t = topo.from_family(family, n, random.Random(n), p=0.3)
    rebuilt = Topology(n, sorted(t.edges))
    assert t.adjacency == rebuilt.adjacency
    assert t.edges == rebuilt.edges
    assert t.to_dict() == rebuilt.to_dict()
    assert repr(t) == repr(rebuilt)
    for i in range(n):
        assert t.neighbors(i) == rebuilt.neighbors(i)
        assert t.degree(i) == rebuilt.degree(i)
    assert t.is_connected() == rebuilt.is_connected()
    assert t.cut_vertices() == rebuilt.cut_vertices()
    assert t.diameter() == rebuilt.diameter()
    for k in {0, n // 2, n - 1, *sorted(t.cut_vertices())[:1]}:
        assert t.connected_without({k}) == rebuilt.connected_without({k})


def test_removing_ids_outside_the_graph_removes_nothing():
    # the connectivity search stops once it holds n ids, so it must not count these
    assert topo.ring(5).connected_without({1, 99, "collector"})
    assert not topo.path(5).connected_without({2, -1, 99})
    assert topo.path(5).connected_without({0, 5, 6, 7})


def test_edge_errors_and_duplicate_edges():
    with pytest.raises(TopologyError, match=r"^self-loop at 2$"):
        Topology(3, [(0, 1), (2, 2)])
    with pytest.raises(TopologyError, match=r"^self-loop at 5$"):
        Topology(3, [(5, 5)])
    with pytest.raises(TopologyError, match=r"^edge \(0,5\) out of range for n=3$"):
        Topology(3, [(0, 5)])
    with pytest.raises(TopologyError, match=r"^edge \(-1,2\) out of range for n=3$"):
        Topology(3, [(-1, 2)])
    merged = Topology(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert merged.edges == {(0, 1), (1, 2)}
    assert [merged.degree(i) for i in range(3)] == [1, 2, 1]
    assert merged.to_dict() == {"n": 3, "edges": [[0, 1], [1, 2]]}
    assert repr(merged) == "Topology(n=3, edges=2)"
    with pytest.raises(TopologyError, match="duplicate edge"):
        load_topology({"n": 3, "edges": [[0, 1], [1, 0]]})


def test_adjacency_is_each_processs_sorted_neighbours():
    rng = random.Random(5)
    for t in (topo.random_connected(40, 0.3, rng), topo.random_tree(30, rng), topo.ring(9),
              Topology(3, [(2, 0), (1, 0)])):
        assert t.adjacency == tuple(tuple(sorted(t.neighbors(i))) for i in range(t.n))
        assert t.to_dict()["edges"] == sorted([list(e) for e in t.edges])


def test_connectivity_is_searched_once_per_topology(monkeypatch):
    searches = []
    reached = Topology._reached
    monkeypatch.setattr(Topology, "_reached",
                        lambda self, *a: searches.append(1) or reached(self, *a))
    t = topo.random_connected(24, 0.9, random.Random(2))
    assert len(searches) == 1
    from consentry import netsim
    report = netsim.run(netsim.ScenarioConfig(protocol="avg-trusted", topology=t,
                                              inputs=[float(i) for i in range(24)]))
    assert report.termination == "decided"
    assert t.diameter() == nx.diameter(to_nx(t))
    assert len(searches) == 1


@pytest.mark.parametrize("edge", [(0, 1.7), (1.0, 2), (np.float64(0), 1), (True, 2),
                                  (0, False), (np.True_, 2), ("1", 2), (0, None)],
                         ids=["float", "integral-float", "numpy-float", "true", "false",
                              "numpy-bool", "str", "none"])
def test_a_non_integer_endpoint_is_rejected(edge):
    # int() once read (0, 1.7) as the edge (0, 1), and True as 1
    with pytest.raises(TopologyError, match="non-integer endpoint"):
        topo.Topology(3, [edge])


def test_numpy_integer_endpoints_are_accepted_as_ints():
    t = topo.Topology(3, [(np.int64(0), np.int32(1)), (np.uint8(1), 2)])
    assert t.edges == {(0, 1), (1, 2)}
    assert all(type(i) is int for edge in t.edges for i in edge)
    assert t.adjacency == ((1,), (0, 2), (1,))
