"""Exact deciders for graph products of groups.

End classification follows Varghese's dichotomies (complete graph with one
multi-ended vertex group, or a visual splitting over a finite subgroup, with
the 2-ended cases pinned down separately); semistability follows the vertex
criterion: the product fails to be semistable exactly when some non-semistable
vertex group has a complete link with finite vertex groups.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .atoms import EndCount
from .errors import EndscopeError
from .graphs import (
    LabeledGraph,
    SimplicialComplex2,
    enumerate_clique_separators,
    induced_subgraph,
    is_clique,
    is_flag,
)
from .towers import hermite_normal_form


class VertexProfile(NamedTuple):
    """What is known about one vertex group."""

    finite: bool | None = None  # None = unknown
    order: int | None = None  # set when finite with known order
    ends: EndCount | None = None
    semistable: bool | None = None
    finitely_presented: bool | None = None


class GraphProductSpec(NamedTuple):
    graph: LabeledGraph  # labels ignored
    profiles: dict  # vertex -> VertexProfile


def _all_finite(spec, vs):
    return all(spec.profiles[v].finite for v in vs)


def _finite_clique_separator(spec: GraphProductSpec):
    """A vertex set K inducing a complete subgraph with all-finite vertex
    groups whose removal disconnects the graph (the visual splitting of OV)."""
    graph = spec.graph
    separators = enumerate_clique_separators(graph, lambda vs: _all_finite(spec, vs))
    if not separators:
        return None
    sep = separators[0]
    comps = induced_subgraph(graph, [v for v in graph.vertices if v not in sep]).components()
    gamma1 = sep + comps[0]
    gamma2 = sep + tuple(x for c in comps[1:] for x in c)
    return {"separator": sep, "gamma1": gamma1, "gamma2": gamma2}


def _dominating_vertices(graph: LabeledGraph):
    n = len(graph.vertices)
    return tuple(v for v in graph.vertices if graph.degree(v) == n - 1)


class GraphProductEndsReport(NamedTuple):
    ends: EndCount | None  # None while some vertex profile is incomplete
    witness: dict


def graph_product_ends(spec: GraphProductSpec) -> GraphProductEndsReport:
    """Number of ends of the graph product.  The criteria need the finiteness
    and end count of every vertex group: while one is unknown the report has
    no end count and the witness kind `incomplete_vertex_profiles`.  A vertex
    with no profile at all is an EndscopeError."""
    graph = spec.graph
    verts = graph.vertices
    for v in verts:
        if v not in spec.profiles:
            raise EndscopeError(f"vertex {v!r} has an incomplete profile")
    if any(spec.profiles[v].finite is None or spec.profiles[v].ends is None for v in verts):
        return GraphProductEndsReport(None, {"kind": "incomplete_vertex_profiles"})
    complete = graph.is_complete()

    if complete and _all_finite(spec, verts):
        return GraphProductEndsReport(
            EndCount.ZERO, {"kind": "complete_all_finite", "vertices": verts}
        )

    multi = {EndCount.TWO, EndCount.INFINITE}
    # OV (i): complete graph, one multi-ended vertex group, the rest finite
    ov1 = None
    if complete:
        heavy = [v for v in verts if spec.profiles[v].ends in multi]
        if len(heavy) == 1 and _all_finite(spec, [v for v in verts if v != heavy[0]]):
            ov1 = heavy[0]
    # OV (ii): visual splitting over a finite subgroup
    split = _finite_clique_separator(spec)

    if ov1 is None and split is None:
        return GraphProductEndsReport(EndCount.ONE, {"kind": "no_visual_splitting"})

    # multi-ended; the 2-ended dichotomy decides between Two and Infinite
    if complete and ov1 is not None and spec.profiles[ov1].ends == EndCount.TWO:
        return GraphProductEndsReport(
            EndCount.TWO, {"kind": "complete_one_two_ended", "vertex": ov1}
        )
    gamma1 = _dominating_vertices(graph)
    gamma2 = tuple(v for v in verts if v not in gamma1)
    if (
        is_clique(graph, gamma1)
        and _all_finite(spec, gamma1)
        and len(gamma2) == 2
        and not graph.has_edge(*gamma2)
        and all(
            spec.profiles[v].finite and spec.profiles[v].order == 2 for v in gamma2
        )
    ):
        return GraphProductEndsReport(
            EndCount.TWO,
            {"kind": "join_with_infinite_dihedral", "gamma1": gamma1, "gamma2": gamma2},
        )
    witness = {"kind": "complete_one_multi_ended", "vertex": ov1} if split is None else (
        {"kind": "visual_splitting", **split}
    )
    return GraphProductEndsReport(EndCount.INFINITE, witness)


class SemistabilityReport(NamedTuple):
    verdict: str  # "semistable" | "not_semistable" | "unknown"
    witness: dict


def graph_product_semistable(spec: GraphProductSpec) -> SemistabilityReport:
    """Semistability of the graph product.

    The criterion needs a connected graph; on a disconnected one the verdict
    is unknown with the witness kind `disconnected_graph`.  Not semistable
    iff some vertex group is known non-semistable and its link is complete
    with all-finite vertex groups.  A vertex with unknown semistability and a
    qualifying link leaves the verdict unknown, as does an unknown
    finite-presentation status.  A vertex with no profile is an EndscopeError.
    """
    graph = spec.graph
    unknown_reason = None
    for v in graph.vertices:
        p = spec.profiles.get(v)
        if p is None:
            raise EndscopeError(f"vertex {v!r} has an incomplete profile")
        if p.finitely_presented is None or not p.finitely_presented:
            if not p.finite:  # finite groups are finitely presented
                unknown_reason = {"kind": "vertex_not_known_fp", "vertex": v}
    if not graph.is_connected():
        return SemistabilityReport("unknown", {"kind": "disconnected_graph"})

    undecided = None
    for v in graph.vertices:
        p = spec.profiles[v]
        link = graph.neighbors(v)
        fin = [spec.profiles[u].finite for u in link]
        if not is_clique(graph, link) or any(f is False for f in fin):
            continue
        link_known_finite = all(f is True for f in fin)
        if p.semistable is False:
            if link_known_finite:
                return SemistabilityReport(
                    "not_semistable", {"kind": "vertex", "vertex": v}
                )
            undecided = {"kind": "link_finiteness_unknown", "vertex": v}
        elif p.semistable is None and p.finite is not True:
            undecided = {"kind": "vertex_semistability_unknown", "vertex": v}
    if undecided is not None:
        return SemistabilityReport("unknown", undecided)
    if unknown_reason is not None:
        return SemistabilityReport("unknown", unknown_reason)
    return SemistabilityReport("semistable", {"kind": "no_qualifying_vertex"})


# --- RAAG simple connectivity at infinity -----------------------------------

class SCInfReport(NamedTuple):
    verdict: str  # "yes" | "no" | "unknown"
    reason: str


def raag_simply_connected_at_infinity(L: SimplicialComplex2) -> SCInfReport:
    """Simple connectivity at infinity of the right-angled Artin group on the
    flag complex L: yes iff L is simply connected and has no cut vertex.

    Both tests of pi_1(L) read one spanning-tree presentation: H1(L) is its
    abelianization, and Tietze moves that eliminate every generator show it
    is trivial.  The moves can answer yes or unknown, never a false yes.
    """
    if not is_flag(L):
        raise EndscopeError("complex is not flag")
    skeleton = L.one_skeleton()
    nverts = len(L.vertices)
    if nverts == 1 or (nverts == 2 and len(L.edges) == 1):
        raise EndscopeError("criterion excludes the 0- and 1-simplex")
    if not skeleton.is_connected():
        return SCInfReport("no", "L is disconnected")
    cuts = skeleton.cut_vertices()
    if cuts:
        return SCInfReport("no", f"cut vertex {cuts[0]!r}")
    ngens, relators = _pi1_presentation(L, skeleton)
    h1_free, h1_torsion = _abelianization(ngens, relators)
    if h1_free or h1_torsion:
        return SCInfReport("no", f"H1(L) nontrivial (free rank {h1_free}, torsion {h1_torsion})")
    if _tietze_trivializes(ngens, relators):
        return SCInfReport("yes", "no cut vertex and pi_1(L) trivializes")
    return SCInfReport("unknown", "pi_1 presentation did not trivialize")


def _smith_diagonal(matrix):
    """Nonzero invariant factors of an integer matrix (Smith normal form):
    Hermite normal forms, the columns of one pass read as the rows of the
    next, until every column has a single nonzero entry."""
    cols = hermite_normal_form(matrix)
    while any(sum(1 for x in c if x) > 1 for c in cols):
        cols = hermite_normal_form(cols)
    divisors = [next(x for x in c if x) for c in cols]
    # Z/a + Z/b = Z/gcd + Z/lcm; afterwards each divisor divides the next
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = math.gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return divisors


def _pi1_presentation(L: SimplicialComplex2, skeleton: LabeledGraph):
    """(g, relators): pi_1 of the connected complex L on generators 1..g, the
    edges off a breadth-first spanning tree (a negative letter reads its edge
    against vertex order), and the freely reduced triangle words."""
    vidx = {v: i for i, v in enumerate(L.vertices)}

    def key(a, b):
        return (a, b) if vidx[a] < vidx[b] else (b, a)

    tree = set()
    queue = [L.vertices[0]]
    seen = set(queue)
    for u in queue:
        for w in skeleton.neighbors(u):
            if w not in seen:
                seen.add(w)
                tree.add(key(u, w))
                queue.append(w)
    gens = sorted({key(*e) for e in L.edges} - tree)
    gidx = {e: i + 1 for i, e in enumerate(gens)}

    def letter(a, b):
        e = key(a, b)
        return 0 if e in tree else gidx[e] if e == (a, b) else -gidx[e]

    relators = {_freely_reduce((letter(a, b), letter(b, c), letter(c, a)))
                for a, b, c in (sorted(t, key=vidx.__getitem__) for t in L.triangles)}
    return len(gens), relators


def _abelianization(ngens, relators):
    """(free rank, torsion divisors) of the abelianized presentation, read off
    the invariant factors of its relator x generator exponent-sum matrix."""
    sums = []
    for r in relators:
        row = [0] * ngens
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        sums.append(row)
    divisors = _smith_diagonal(sums)
    return ngens - len(divisors), [d for d in divisors if d > 1]


def _freely_reduce(word):
    """Drop 0 letters and cancel adjacent inverse pairs."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        elif x:
            out.append(x)
    return tuple(out)


def _tietze_trivializes(ngens, relators) -> bool:
    """True when Tietze moves eliminate every generator of a presentation
    whose relators are freely reduced words.

    The shortest relator (then the least word) that is one letter kills its
    generator, or that is two distinct letters g h^{+-1} substitutes g away.
    Each move removes one generator from every relator, so there are at most
    `ngens` of them; a move rewrites only the relators that contain its
    generator.
    """
    current = set()
    containing = {}  # generator -> the current relators it occurs in
    moves = []  # heap of (length, relator); one no longer current is stale

    def add(word):
        current.add(word)
        for x in word:
            containing.setdefault(abs(x), set()).add(word)
        if len(word) == 1 or (len(word) == 2 and abs(word[0]) != abs(word[1])):
            heapq.heappush(moves, (len(word), word))

    for word in relators:
        add(word)
    while moves:
        rel = heapq.heappop(moves)[1]
        if rel not in current:
            continue
        target = abs(rel[0])
        repl = 0 if len(rel) == 1 else (-rel[1] if rel[0] > 0 else rel[1])
        for r in containing.pop(target):
            current.remove(r)
            for x in r:
                if abs(x) != target:
                    containing[abs(x)].discard(r)
            word = _freely_reduce(tuple(repl if x == target else -repl if x == -target else x for x in r))
            if word not in current:
                add(word)
        ngens -= 1
    return ngens == 0
