"""Graph products: end counts, semistability, RAAG simple connectivity at
infinity."""

import itertools
import math
import random
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from endscope.atoms import EndCount
from endscope import graph_products
from endscope.coxeter import CoxeterSystem, coxeter_ends
from endscope.errors import EndscopeError
from endscope.graph_products import (
    GraphProductSpec,
    VertexProfile,
    graph_product_ends,
    graph_product_semistable,
    _abelianization,
    _freely_reduce,
    _pi1_presentation,
    _smith_diagonal,
    _tietze_trivializes,
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
    assert graph_product_ends(spec) == (None, {"kind": "incomplete_vertex_profiles"})
    missing = GraphProductSpec(g, {"x": VertexProfile()})
    for decider in (graph_product_ends, graph_product_semistable):
        with pytest.raises(EndscopeError, match="vertex 'y' has an incomplete profile"):
            decider(missing)


def test_semistability_on_a_disconnected_graph_is_unknown():
    g = LabeledGraph.build("xy", [])
    spec = GraphProductSpec(g, {"x": FINITE2, "y": FREE2})
    assert graph_product_semistable(spec) == ("unknown", {"kind": "disconnected_graph"})


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


def test_scinf_is_unknown_when_the_tietze_moves_stall(monkeypatch):
    """Tietze moves can fail to trivialise a simply connected complex; the
    verdict is then unknown, never yes."""
    monkeypatch.setattr(graph_products, "_tietze_trivializes", lambda ngens, relators: False)
    report = raag_simply_connected_at_infinity(simplex2())
    assert report.verdict == "unknown"


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
    with pytest.raises(EndscopeError, match="complex is not flag"):
        raag_simply_connected_at_infinity(
            SimplicialComplex2.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        )
    with pytest.raises(EndscopeError, match="criterion excludes the 0- and 1-simplex"):
        raag_simply_connected_at_infinity(SimplicialComplex2.build("a"))
    with pytest.raises(EndscopeError, match="criterion excludes the 0- and 1-simplex"):
        raag_simply_connected_at_infinity(
            SimplicialComplex2.build("ab", [("a", "b")])
        )


def test_scinf_excludes_the_empty_complex():
    # an empty skeleton counts as connected and has no cut vertex, so only
    # the exclusion keeps the criterion from reading a first vertex
    with pytest.raises(EndscopeError, match="^criterion excludes the empty complex$"):
        raag_simply_connected_at_infinity(SimplicialComplex2.build([]))


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


def test_tietze_moves_on_small_presentations():
    # letters are generator numbers, negative for inverses
    assert _tietze_trivializes(0, set())
    assert _tietze_trivializes(2, {(1, -2), (1, -2, -2)})  # a = b, then b^-1
    assert not _tietze_trivializes(1, set())  # Z
    assert not _tietze_trivializes(1, {(1, 1)})  # Z/2: a square is not a move
    # no relator of length 1 or 2 to start from
    assert not _tietze_trivializes(2, {(1, 2, -1, -2, -2), (2, 1, -2, -1, -1)})


def reference_tietze_trivializes(ngens, relators) -> bool:
    """Tietze moves that rebuild every relator at each move."""
    while True:
        moves = [r for r in relators if len(r) == 1 or (len(r) == 2 and abs(r[0]) != abs(r[1]))]
        if not moves:
            return ngens == 0
        rel = min(moves, key=lambda r: (len(r), r))
        target = abs(rel[0])
        repl = 0 if len(rel) == 1 else (-rel[1] if rel[0] > 0 else rel[1])
        relators = {
            _freely_reduce(tuple(repl if x == target else -repl if x == -target else x for x in r))
            for r in relators
        }
        ngens -= 1


@st.composite
def presentations(draw):
    """(ngens, relators): freely reduced words, mostly of length 1 to 3, with
    repeated letters and inverse pairs."""
    ngens = draw(st.integers(min_value=0, max_value=7))
    letters = st.integers(min_value=1, max_value=max(ngens, 1)).flatmap(
        lambda g: st.sampled_from((g, -g)))
    words = st.lists(letters, min_size=1, max_size=draw(st.sampled_from((2, 3, 5))))
    return ngens, {_freely_reduce(tuple(w)) for w in draw(st.lists(words, max_size=10))}


@settings(max_examples=500, deadline=None)
@given(presentations())
def test_tietze_moves_match_the_reference(presentation):
    ngens, relators = presentation
    verdict = _tietze_trivializes(ngens, relators)
    assert verdict == reference_tietze_trivializes(ngens, relators)
    event(str(verdict))




def determinantal_invariant_factors(matrix):
    """d_k / d_(k-1), where d_k is the gcd of all k x k minors."""
    def det(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    factors, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, det([[matrix[r][c] for c in cs] for r in rs]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


def test_smith_diagonal_matches_determinantal_divisors():
    rng = random.Random(41)
    for _ in range(1500):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        bound = rng.choice((1, 2, 6, 30))
        matrix = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(cols)]
                  for _ in range(rows)]
        assert _smith_diagonal(matrix) == determinantal_invariant_factors(matrix), matrix


def boundary_matrix_h1(L):
    """(free rank, torsion divisors) of H1(L; Z) from the boundary matrices
    of the edges and triangles; the former integral_h1."""
    verts = list(L.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = sorted(tuple(sorted(e, key=vidx.__getitem__)) for e in L.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    tris = sorted(tuple(sorted(t, key=vidx.__getitem__)) for t in L.triangles)
    d1 = [[0] * len(edges) for _ in verts]
    for j, (u, v) in enumerate(edges):
        d1[vidx[u]][j] = -1
        d1[vidx[v]][j] = 1
    d2 = [[0] * len(tris) for _ in edges]
    for j, (a, b, c) in enumerate(tris):
        d2[eidx[(a, b)]][j] = 1
        d2[eidx[(b, c)]][j] = 1
        d2[eidx[(a, c)]][j] = -1
    rank_d1 = len(_smith_diagonal(d1))
    d2_divisors = _smith_diagonal(d2)
    return len(edges) - rank_d1 - len(d2_divisors), [d for d in d2_divisors if d > 1]


def clique_complex(verts, edges):
    es = {frozenset(e) for e in edges}
    tris = [t for t in itertools.combinations(verts, 3)
            if all(frozenset(p) in es for p in itertools.combinations(t, 2))]
    return SimplicialComplex2.build(verts, edges, tris)


def projective_plane():
    """Barycentric subdivision of the 6-vertex RP^2: flag, H1 = Z/2."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    cells = sorted({s for f in faces for k in (1, 2, 3) for s in itertools.combinations(f, k)})
    edges = [(a, b) for a in cells for b in cells if len(a) < len(b) and set(a) < set(b)]
    return clique_complex(cells, edges)


def test_h1_of_the_presentation_matches_the_boundary_matrices():
    rng = random.Random(17)
    complexes = [projective_plane()]
    while len(complexes) < 300:
        verts = [f"v{i}" for i in range(rng.randint(2, 10))]
        rng.shuffle(verts)
        p = rng.uniform(0.3, 0.9)
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < p]
        L = clique_complex(verts, edges)
        if L.one_skeleton().is_connected():
            complexes.append(L)
    assert boundary_matrix_h1(complexes[0]) == (0, [2])
    for L in complexes:
        assert _abelianization(*_pi1_presentation(L, L.one_skeleton())) == boundary_matrix_h1(L)


def cone_complexes(k):
    """Wheel and suspension over C_k (yes), and C_k and a path (no)."""
    rim = [f"r{i}" for i in range(k)]
    cycle = [(rim[i], rim[(i + 1) % k]) for i in range(k)]
    wheel = SimplicialComplex2.build(
        rim + ["h"], cycle + [("h", x) for x in rim], [("h", a, b) for a, b in cycle])
    suspension = SimplicialComplex2.build(
        rim + ["n", "s"], cycle + [(p, x) for p in "ns" for x in rim],
        [(p, a, b) for p in "ns" for a, b in cycle])
    cycle_, path = SimplicialComplex2.build(rim, cycle), SimplicialComplex2.build(rim, cycle[:-1])
    return {"yes": (wheel, suspension), "no": (cycle_, path)}


@pytest.mark.parametrize("k", range(4, 41))
def test_scinf_cones_over_cycles_yes_and_cycles_and_paths_no(k):
    for verdict, complexes in cone_complexes(k).items():
        for L in complexes:
            assert raag_simply_connected_at_infinity(L).verdict == verdict


def test_tietze_moves_match_the_reference_on_complexes():
    rng = random.Random(29)
    complexes = [L for k in (4, 9, 80) for L in cone_complexes(k)["yes"]] + [projective_plane()]
    while len(complexes) < 200:
        verts = [f"v{i}" for i in range(rng.randint(3, 9))]
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < rng.uniform(0.4, 0.9)]
        L = clique_complex(verts, edges)
        if L.one_skeleton().is_connected():
            complexes.append(L)
    verdicts = []
    for L in complexes:
        ngens, relators = _pi1_presentation(L, L.one_skeleton())
        verdicts.append(_tietze_trivializes(ngens, relators))
        assert verdicts[-1] == reference_tietze_trivializes(ngens, relators)
    assert True in verdicts and False in verdicts


def test_scinf_suspension_over_c80_is_fast():
    # 82 vertices, 240 edges, 160 triangles: the cut-vertex search and the
    # flag test must not grow with the 88,560 vertex triples
    suspension = cone_complexes(80)["yes"][1]
    elapsed = []
    for _ in range(3):
        start = time.monotonic()
        report = raag_simply_connected_at_infinity(suspension)
        elapsed.append(time.monotonic() - start)
        assert report.verdict == "yes"
    assert min(elapsed) < 0.15
