"""Graph carrier: labeled graphs, separators, 2-complexes."""

import collections.abc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endscope.errors import EndscopeError
from endscope.graphs import (
    LabeledGraph,
    SimplicialComplex2,
    enumerate_clique_separators,
    induced_subgraph,
    is_clique,
    is_flag,
)


def random_graph(rng, n, p=0.5):
    verts = list(range(n))
    edges = [
        (u, v, rng.choice([2, 3, 4]))
        for u, v in itertools.combinations(verts, 2)
        if rng.random() < p
    ]
    return LabeledGraph.build(verts, edges)


def test_build_and_accessors():
    g = LabeledGraph.build("abc", [("a", "b", 3), ("b", "c", 2)])
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.label("a", "b") == 3
    assert g.label("a", "c") is None
    assert g.neighbors("b") == ("a", "c")
    assert g.degree("b") == 2
    with pytest.raises(EndscopeError, match="unknown vertex 'z'"):
        g.neighbors("z")
    assert not g.is_complete()
    assert g.sorted_edges() == [("a", "b", 3), ("b", "c", 2)]


def test_labeled_graph_is_an_unhashable_value():
    # a graph's edges are a dict, so the class opts out of hashing, rather
    # than hash() failing inside it
    g = LabeledGraph.build("ab", [("a", "b", 3)])
    assert not isinstance(g, collections.abc.Hashable)
    with pytest.raises(TypeError, match="LabeledGraph"):
        hash(g)


def test_build_rejects_bad_input():
    with pytest.raises(EndscopeError, match="edge label must be an integer >= 2, got 1"):
        LabeledGraph.build("ab", [("a", "b", 1)])
    with pytest.raises(EndscopeError, match="self-loop at 'a'"):
        LabeledGraph.build("ab", [("a", "a", 2)])
    with pytest.raises(EndscopeError, match="unknown vertex 'c'"):
        LabeledGraph.build("ab", [("a", "c", 2)])
    with pytest.raises(EndscopeError, match="duplicate vertex 'a'"):
        LabeledGraph.build("aa")
    with pytest.raises(EndscopeError, match=r"duplicate edge \('a', 'b'\)"):
        LabeledGraph.build("ab", [("a", "b", 3), ("b", "a", 2)])
    with pytest.raises(EndscopeError, match=r"duplicate edge \('a', 'b'\)"):
        LabeledGraph.build("ab", [("b", "a", 3), ("b", "a", 3)])


def test_components_and_connectivity():
    g = LabeledGraph.build("abcd", [("a", "b", 2), ("c", "d", 2)])
    assert g.components() == [("a", "b"), ("c", "d")]
    assert not g.is_connected()
    path = LabeledGraph.build("abc", [("a", "b", 2), ("b", "c", 2)])
    assert path.is_connected()
    assert path.cut_vertices() == ("b",)
    cycle = LabeledGraph.build(
        "abcd", [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("d", "a", 2)]
    )
    assert cycle.cut_vertices() == ()


def test_induced_subgraph_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, 6)
        vs = [v for v in g.vertices if rng.random() < 0.6]
        h = induced_subgraph(g, vs)
        assert induced_subgraph(h, vs) == h
        assert set(h.vertices) == set(vs)
        for u, v, m in h.sorted_edges():
            assert g.label(u, v) == m
    with pytest.raises(EndscopeError, match="^unknown vertex 'z'$"):
        induced_subgraph(LabeledGraph.build("ab"), "az")


def test_link_is_star_minus_vertex():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, 7)
        for v in g.vertices:
            nbrs = g.neighbors(v)
            link = induced_subgraph(g, nbrs)
            star = induced_subgraph(g, (v,) + nbrs)
            assert link.vertices == nbrs  # neighbors come in vertex order
            assert v not in link.vertices
            assert v in star.vertices
            assert induced_subgraph(star, link.vertices) == link
            assert set(star.vertices) == {v} | set(link.vertices)


def brute_force_clique_separators(g):
    out = []
    order = {v: i for i, v in enumerate(g.vertices)}
    for size in range(len(g.vertices)):
        for combo in itertools.combinations(g.vertices, size):
            if any(not g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                continue
            rest = [v for v in g.vertices if v not in combo]
            # components of the rest, by naive union-find
            parents = {v: v for v in rest}

            def find(x):
                while parents[x] != x:
                    x = parents[x]
                return x

            for u, v in itertools.combinations(rest, 2):
                if g.has_edge(u, v):
                    parents[find(u)] = find(v)
            comps = {find(v) for v in rest}
            if len(comps) >= 2:
                out.append(tuple(sorted(combo, key=order.__getitem__)))
    return out


def full_components(g, sep):
    """Components of g - sep adjacent to every vertex of sep."""
    rest = induced_subgraph(g, [v for v in g.vertices if v not in sep])
    return [c for c in rest.components() if all(any(g.has_edge(s, x) for x in c) for s in sep)]


def brute_force_clique_minimal_separators(g):
    return [sep for sep in brute_force_clique_separators(g) if len(full_components(g, sep)) >= 2]


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield LabeledGraph.build(
            range(n), [(u, v, 2) for k, (u, v) in enumerate(pairs) if mask >> k & 1]
        )


def subset_closed_filter(rng, g):
    """Admits the sets that avoid some random vertices and vertex pairs."""
    banned = [frozenset(s) for k in (1, 2) for s in itertools.combinations(g.vertices, k)
              if rng.random() < 0.25]
    return lambda vs: not any(b <= vs for b in banned)


def test_clique_separators_match_brute_force():
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    assert len(graphs) == 1099
    for g in graphs:
        assert enumerate_clique_separators(g) == brute_force_clique_minimal_separators(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=6, max_value=8), st.floats(min_value=0.2, max_value=0.8),
       st.randoms(use_true_random=False))
def test_clique_separators_match_brute_force_on_larger_graphs(n, p, rng):
    g = random_graph(rng, n, p)
    assert enumerate_clique_separators(g) == brute_force_clique_minimal_separators(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.2, max_value=0.8),
       st.randoms(use_true_random=False))
def test_first_admissible_separator_is_the_smallest_of_all(n, p, rng):
    # every clique separator contains a clique minimal separator, so for a
    # subset-closed filter the first minimal one is the first of all
    g = random_graph(rng, n, p)
    admissible = subset_closed_filter(rng, g)
    every = [sep for sep in brute_force_clique_separators(g) if admissible(frozenset(sep))]
    assert enumerate_clique_separators(g, admissible)[:1] == every[:1]


def test_clique_separators_empty_set_iff_disconnected():
    g = LabeledGraph.build("abcd", [("a", "b", 2), ("c", "d", 2)])
    assert () in enumerate_clique_separators(g)
    h = LabeledGraph.build("abc", [("a", "b", 2), ("b", "c", 2)])
    seps = enumerate_clique_separators(h)
    assert () not in seps and ("b",) in seps


def test_clique_separators_admissible_filter():
    g = LabeledGraph.build("abc", [("a", "b", 2), ("b", "c", 2)])
    assert enumerate_clique_separators(g, admissible=lambda vs: False) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_separator_output_is_sorted_and_valid(n, rng):
    g = random_graph(rng, n, p=0.5)
    seps = enumerate_clique_separators(g)
    assert seps == sorted(seps, key=lambda s: (len(s), s))
    for sep in seps:
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(sep, 2))
        rest = induced_subgraph(g, [v for v in g.vertices if v not in sep])
        assert len(rest.components()) >= 2


def test_simplicial_complex_build_checks_faces():
    with pytest.raises(EndscopeError) as err:
        SimplicialComplex2.build("abc", [("a", "b")], [("c", "b", "a")])
    assert str(err.value) == "triangle ('a', 'b', 'c') lacks edge ('a', 'c')"
    with pytest.raises(EndscopeError) as err:
        SimplicialComplex2.build("ab", [("a", "a")])
    assert str(err.value) == "an edge joins two distinct vertices, got ('a',)"
    with pytest.raises(EndscopeError) as err:
        SimplicialComplex2.build("ab", [("a", "b")], [("a", "b", "a")])
    assert str(err.value).startswith("a triangle spans three distinct vertices, got (")
    for edges, triangles in (([("a", "z")], []), ([("a", "b")], [("a", "b", "z")])):
        with pytest.raises(EndscopeError) as err:
            SimplicialComplex2.build("ab", edges, triangles)
        assert str(err.value) == "unknown vertex 'z'"
    L = SimplicialComplex2.build(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b", "c")]
    )
    assert L.one_skeleton().is_complete()


def test_is_flag():
    hollow = SimplicialComplex2.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert not is_flag(hollow)
    filled = SimplicialComplex2.build(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b", "c")]
    )
    assert is_flag(filled)
    square = SimplicialComplex2.build(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )
    assert is_flag(square)


def reference_cut_vertices(g):
    """The vertices whose removal adds a component: one breadth-first search
    over bitmasks of the edge set per deleted vertex."""
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * len(index)
    for u, v in g.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]

    def count(alive):  # components of the subgraph induced on `alive`
        k = 0
        while alive:
            seen = frontier = alive & -alive
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & alive & ~seen
                seen |= frontier
            alive &= ~seen
            k += 1
        return k

    full = (1 << len(index)) - 1
    base = count(full)
    return tuple(v for v, i in index.items() if count(full & ~(1 << i)) > base)


def test_cut_vertices_match_the_reference_on_every_small_graph():
    graphs = [g for n in range(7) for g in all_graphs(n)]
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024 + 32768
    for g in graphs:
        assert g.cut_vertices() == reference_cut_vertices(g)
        for v in g.vertices:  # the adjacency index, against the edge set
            assert g.neighbors(v) == tuple(u for u in g.vertices if u != v and g.has_edge(u, v))
        # what graph_product_ends relies on: dominating vertices are pairwise
        # adjacent, and exactly two non-dominating vertices are not adjacent
        dominating = [v for v in g.vertices if g.degree(v) == len(g.vertices) - 1]
        rest = [v for v in g.vertices if v not in dominating]
        assert is_clique(g, dominating)
        assert len(rest) != 2 or not g.has_edge(*rest)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.floats(min_value=0.02, max_value=0.5),
       st.randoms(use_true_random=False))
def test_cut_vertices_match_the_reference_on_random_graphs(n, p, rng):
    g = random_graph(rng, n, p)
    g = LabeledGraph.build(rng.sample(g.vertices, n), g.sorted_edges())  # vertex order != sort order
    assert g.cut_vertices() == reference_cut_vertices(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.floats(min_value=0.02, max_value=0.9),
       st.integers(min_value=0, max_value=2 ** 32))
def test_adjacency_lists_neighbours_in_vertex_order(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    # vertices and edges in shuffled order, each edge either way round
    edges = [(v, u, m) if rng.random() < 0.5 else (u, v, m)
             for u, v, m in g.sorted_edges()]
    rng.shuffle(edges)
    h = LabeledGraph.build(rng.sample(g.vertices, n), edges)
    assert h.edges == g.edges
    for v in h.vertices:
        assert h.adjacency[v] == tuple(u for u in h.vertices if u != v and h.has_edge(u, v))


def sorted_adjacency(vertices, pairs):
    """The construction that listed each vertex's neighbours as the edges
    came and then sorted them by vertex position."""
    position = {v: i for i, v in enumerate(vertices)}
    adjacency = {v: [] for v in vertices}
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return {v: tuple(sorted(ws, key=position.__getitem__)) for v, ws in adjacency.items()}


def test_adjacency_matches_the_sorted_construction():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(0, 14)
        names = rng.sample([f"v{i}" for i in range(20)], n) if rng.random() < 0.5 else list(range(n))
        pairs = [(u, v) for u, v in itertools.combinations(names, 2) if rng.random() < 0.4]
        rng.shuffle(pairs)
        rng.shuffle(names)
        # the edge dict in insertion order `pairs`, each key either way round
        edges = {(v, u) if rng.random() < 0.5 else (u, v): 2 for u, v in pairs}
        g = LabeledGraph(tuple(names), edges)
        assert g.adjacency == sorted_adjacency(names, pairs)
        assert list(g.adjacency) == names


def test_cut_vertices_of_a_long_path_do_not_recurse():
    n = 5000
    path = LabeledGraph.build(range(n), [(i, i + 1, 2) for i in range(n - 1)])
    assert path.cut_vertices() == tuple(range(1, n - 1))


def reference_is_flag(L):
    """Every vertex triple that is a clique of the 1-skeleton is a triangle."""
    g = L.one_skeleton()
    return all(frozenset(trio) in L.triangles
               for trio in itertools.combinations(g.vertices, 3) if is_clique(g, trio))


def triangles_of(g):
    return [t for t in itertools.combinations(g.vertices, 3) if is_clique(g, t)]


def test_is_flag_matches_the_reference_on_every_small_complex():
    # every graph on at most 5 vertices, with all its triangles and with one left out
    for g in (g for n in range(6) for g in all_graphs(n)):
        triangles = triangles_of(g)
        for drop in [None] + triangles:
            L = SimplicialComplex2.build(g.vertices, g.edges, [t for t in triangles if t != drop])
            assert is_flag(L) == reference_is_flag(L)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=14), st.floats(min_value=0.2, max_value=0.9),
       st.floats(min_value=0.0, max_value=0.2), st.randoms(use_true_random=False))
def test_is_flag_matches_the_reference_on_random_complexes(n, p, q, rng):
    g = random_graph(rng, n, p)
    triangles = [t for t in triangles_of(g) if rng.random() >= q]
    L = SimplicialComplex2.build(g.vertices, g.edges, triangles)
    assert is_flag(L) == reference_is_flag(L)
