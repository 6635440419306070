"""Graph products: end counts, semistability, RAAG simple connectivity at
infinity."""

import pytest

from endscope.atoms import EndCount
from endscope.coxeter import CoxeterSystem, coxeter_ends
from endscope.errors import ExcludedComplexError, NotFlagError, UnknownProfileError
from endscope.graph_products import (
    GraphProductSpec,
    VertexProfile,
    graph_product_ends,
    graph_product_semistable,
    _smith_diagonal,
    raag_simply_connected_at_infinity,
)
from endscope.graphs import LabeledGraph, SimplicialComplex2

FINITE2 = VertexProfile(finite=True, order=2, ends=EndCount.ZERO, semistable=True,
                        finitely_presented=True)
FINITE3 = VertexProfile(finite=True, order=3, ends=EndCount.ZERO, semistable=True,
                        finitely_presented=True)
TWO_ENDED = VertexProfile(finite=False, order=None, ends=EndCount.TWO,
                          semistable=True, finitely_presented=True)
FREE2 = VertexProfile(finite=False, order=None, ends=EndCount.INFINITE,
                      semistable=True, finitely_presented=True)


def cycle(labels_by_vertex):
    verts = list(labels_by_vertex)
    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n], 2) for i in range(n)]
    return GraphProductSpec(
        LabeledGraph.build(verts, edges), dict(labels_by_vertex)
    )


def test_hexagon_alternating_one_ended_semistable():
    spec = cycle({
        "p": FINITE2, "q": FREE2, "r": FINITE2,
        "s": FREE2, "t": FINITE2, "u": FREE2,
    })
    assert graph_product_ends(spec).ends == EndCount.ONE
    assert graph_product_semistable(spec).verdict == "semistable"


def test_complete_all_finite_is_finite():
    g = LabeledGraph.build("xy", [("x", "y", 2)])
    spec = GraphProductSpec(g, {"x": FINITE2, "y": FINITE2})
    assert graph_product_ends(spec).ends == EndCount.ZERO


def test_one_vertex_case_infinite():
    # complete graph, one multi-ended vertex group, rest finite
    g = LabeledGraph.build("xy", [("x", "y", 2)])
    spec = GraphProductSpec(g, {"x": FINITE3, "y": FREE2})
    report = graph_product_ends(spec)
    assert report.ends == EndCount.INFINITE


def test_two_isolated_z2_is_two_ended():
    g = LabeledGraph.build("xy")
    spec = GraphProductSpec(g, {"x": FINITE2, "y": FINITE2})
    report = graph_product_ends(spec)
    assert report.ends == EndCount.TWO


def test_finite_clique_separator_gives_infinitely_many_ends():
    # path p - q - r with infinite ends: removing the finite middle vertex
    # disconnects the support graph
    g = LabeledGraph.build("pqr", [("p", "q", 2), ("q", "r", 2)])
    spec = GraphProductSpec(g, {"p": TWO_ENDED, "q": FINITE2, "r": TWO_ENDED})
    report = graph_product_ends(spec)
    assert report.ends == EndCount.INFINITE
    assert report.witness["kind"] != "no_visual_splitting"


def test_complete_graph_of_infinite_groups_has_no_vertex_cap():
    # K_30 has no separator at all; a subset scan would visit 2^30 cliques
    verts = [f"v{i}" for i in range(30)]
    g = LabeledGraph.build(verts, [(u, v, 2) for i, u in enumerate(verts) for v in verts[i + 1:]])
    report = graph_product_ends(GraphProductSpec(g, {v: TWO_ENDED for v in verts}))
    assert report.ends == EndCount.ONE
    assert report.witness == {"kind": "no_visual_splitting"}


def test_square_of_two_ended_groups_is_one_ended():
    spec = cycle({"a": TWO_ENDED, "b": TWO_ENDED, "c": TWO_ENDED, "d": TWO_ENDED})
    assert graph_product_ends(spec).ends == EndCount.ONE


def test_ends_requires_profiles():
    g = LabeledGraph.build("xy", [("x", "y", 2)])
    spec = GraphProductSpec(g, {"x": FINITE2, "y": VertexProfile()})
    with pytest.raises(UnknownProfileError):
        graph_product_ends(spec)


def test_racg_ends_agree_with_coxeter_decider():
    # a graph product of Z2s over Gamma is the right-angled Coxeter group on
    # the same diagram with every edge labeled 2
    cases = [
        ("ab", []),
        ("ab", [("a", "b", 2)]),
        ("abc", [("a", "b", 2), ("b", "c", 2)]),
        ("abcd", [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("d", "a", 2)]),
        ("abc", []),
    ]
    for verts, edges in cases:
        g = LabeledGraph.build(verts, edges)
        spec = GraphProductSpec(g, {v: FINITE2 for v in verts})
        exact = coxeter_ends(CoxeterSystem(g)).ends
        assert graph_product_ends(spec).ends == exact, (verts, edges)


def test_semistability_blocked_by_bad_vertex_with_finite_link():
    bad = VertexProfile(finite=False, order=None, ends=EndCount.ONE,
                        semistable=False, finitely_presented=True)
    g = LabeledGraph.build("vw", [("v", "w", 2)])
    spec = GraphProductSpec(g, {"v": bad, "w": FINITE2})
    report = graph_product_semistable(spec)
    assert report.verdict == "not_semistable"
    assert report.witness["vertex"] == "v"


def test_semistability_unknown_when_link_finiteness_unknown():
    bad = VertexProfile(finite=False, order=None, ends=EndCount.ONE,
                        semistable=False, finitely_presented=True)
    mystery = VertexProfile(finite=None, order=None, ends=None,
                            semistable=None, finitely_presented=True)
    g = LabeledGraph.build("vw", [("v", "w", 2)])
    spec = GraphProductSpec(g, {"v": bad, "w": mystery})
    assert graph_product_semistable(spec).verdict == "unknown"


def test_semistability_monotone_in_information():
    # filling in an unknown profile can only sharpen the verdict
    g = LabeledGraph.build("vw", [("v", "w", 2)])
    partial = GraphProductSpec(
        g,
        {"v": VertexProfile(finite=None, semistable=None, finitely_presented=True),
         "w": FINITE2},
    )
    full = GraphProductSpec(g, {"v": FREE2, "w": FINITE2})
    assert graph_product_semistable(partial).verdict == "unknown"
    assert graph_product_semistable(full).verdict == "semistable"


def simplex2():
    return SimplicialComplex2.build(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b", "c")]
    )


def test_scinf_2_simplex_yes():
    report = raag_simply_connected_at_infinity(simplex2())
    assert report.verdict == "yes"


def test_scinf_path_has_cut_vertex():
    L = SimplicialComplex2.build("abc", [("a", "b"), ("b", "c")])
    report = raag_simply_connected_at_infinity(L)
    assert report.verdict == "no"
    assert "cut vertex" in report.reason


def test_scinf_4_cycle_has_h1():
    L = SimplicialComplex2.build(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )
    report = raag_simply_connected_at_infinity(L)
    assert report.verdict == "no"
    assert "H1" in report.reason


def test_scinf_disconnected_no():
    L = SimplicialComplex2.build("abcd", [("a", "b"), ("c", "d")])
    assert raag_simply_connected_at_infinity(L).verdict == "no"


def test_scinf_input_validation():
    with pytest.raises(NotFlagError):
        raag_simply_connected_at_infinity(
            SimplicialComplex2.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        )
    with pytest.raises(ExcludedComplexError):
        raag_simply_connected_at_infinity(SimplicialComplex2.build("a"))
    with pytest.raises(ExcludedComplexError):
        raag_simply_connected_at_infinity(
            SimplicialComplex2.build("ab", [("a", "b")])
        )


def test_scinf_octahedron_boundary_yes():
    # boundary of the octahedron minus one face is still simply connected;
    # use the full octahedron's 2-skeleton (flag, no cut vertex, H1 = 0)
    verts = "uvwxyz"
    # u, z are poles; v w x y the equator cycle
    equator = [("v", "w"), ("w", "x"), ("x", "y"), ("y", "v")]
    edges = equator + [("u", e) for e in "vwxy"] + [("z", e) for e in "vwxy"]
    tris = [("u",) + pair for pair in equator] + [("z",) + pair for pair in equator]
    L = SimplicialComplex2.build(verts, edges, tris)
    report = raag_simply_connected_at_infinity(L)
    assert report.verdict == "yes"


def test_smith_diagonal_gives_invariant_factors():
    # each divisor divides the next, so Z/2 + Z/3 reads as Z/6
    assert _smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert _smith_diagonal([[4, 0, 0], [0, 6, 0], [0, 0, 0]]) == [2, 12]
    assert _smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert _smith_diagonal([[0, 0], [0, 0]]) == []
