"""Exact deciders for graph products of groups.

End classification follows Varghese's dichotomies (complete graph with one
multi-ended vertex group, or a visual splitting over a finite subgroup, with
the 2-ended cases pinned down separately); semistability follows the vertex
criterion: the product fails to be semistable exactly when some non-semistable
vertex group has a complete link with finite vertex groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atoms import EndCount
from .errors import (
    DisconnectedGraphError,
    ExcludedComplexError,
    NotFlagError,
    UnknownProfileError,
)
from .graphs import (
    LabeledGraph,
    SimplicialComplex2,
    enumerate_clique_separators,
    induced_subgraph,
    is_clique,
    is_flag,
    link_and_star,
)


@dataclass(frozen=True)
class VertexProfile:
    """What is known about one vertex group."""

    finite: bool | None = None  # None = unknown
    order: int | None = None  # set when finite with known order
    ends: EndCount | None = None
    semistable: bool | None = None
    finitely_presented: bool | None = None


@dataclass(frozen=True)
class GraphProductSpec:
    graph: LabeledGraph  # labels ignored
    profiles: dict  # vertex -> VertexProfile

    def profile(self, v) -> VertexProfile:
        return self.profiles[v]


def _require_ends_profiles(spec: GraphProductSpec):
    for v in spec.graph.vertices:
        p = spec.profiles.get(v)
        if p is None or p.finite is None or p.ends is None:
            raise UnknownProfileError(v)


def _all_finite(spec, vs):
    return all(spec.profile(v).finite for v in vs)


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


@dataclass(frozen=True)
class GraphProductEndsReport:
    ends: EndCount
    witness: dict


def graph_product_ends(spec: GraphProductSpec) -> GraphProductEndsReport:
    """Number of ends of the graph product; requires finiteness and end class
    of every vertex group."""
    _require_ends_profiles(spec)
    graph = spec.graph
    verts = graph.vertices
    complete = graph.is_complete()

    if complete and _all_finite(spec, verts):
        return GraphProductEndsReport(
            EndCount.ZERO, {"kind": "complete_all_finite", "vertices": verts}
        )

    multi = {EndCount.TWO, EndCount.INFINITE}
    # OV (i): complete graph, one multi-ended vertex group, the rest finite
    ov1 = None
    if complete:
        heavy = [v for v in verts if spec.profile(v).ends in multi]
        if len(heavy) == 1 and _all_finite(spec, [v for v in verts if v != heavy[0]]):
            ov1 = heavy[0]
    # OV (ii): visual splitting over a finite subgroup
    split = _finite_clique_separator(spec)

    if ov1 is None and split is None:
        return GraphProductEndsReport(EndCount.ONE, {"kind": "no_visual_splitting"})

    # multi-ended; the 2-ended dichotomy decides between Two and Infinite
    if complete and ov1 is not None and spec.profile(ov1).ends == EndCount.TWO:
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
            spec.profile(v).finite and spec.profile(v).order == 2 for v in gamma2
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


@dataclass(frozen=True)
class SemistabilityReport:
    verdict: str  # "semistable" | "not_semistable" | "unknown"
    witness: dict


def graph_product_semistable(spec: GraphProductSpec) -> SemistabilityReport:
    """Semistability of the graph product on a connected graph.

    Not semistable iff some vertex group is known non-semistable and its link
    is complete with all-finite vertex groups.  A vertex with unknown
    semistability and a qualifying link leaves the verdict unknown, as does an
    unknown finite-presentation status.
    """
    graph = spec.graph
    if not graph.is_connected():
        raise DisconnectedGraphError("graph product criterion needs a connected graph")
    unknown_reason = None
    for v in graph.vertices:
        p = spec.profiles.get(v)
        if p is None:
            raise UnknownProfileError(v)
        if p.finitely_presented is None or not p.finitely_presented:
            if not p.finite:  # finite groups are finitely presented
                unknown_reason = {"kind": "vertex_not_known_fp", "vertex": v}

    undecided = None
    for v in graph.vertices:
        p = spec.profile(v)
        link, _ = link_and_star(graph, v)
        fin = [spec.profile(u).finite for u in link.vertices]
        if not is_clique(graph, link.vertices) or any(f is False for f in fin):
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

TIETZE_BUDGET = 10_000


@dataclass(frozen=True)
class SCInfReport:
    verdict: str  # "yes" | "no" | "unknown"
    reason: str


def raag_simply_connected_at_infinity(
    L: SimplicialComplex2, tietze_budget=TIETZE_BUDGET
) -> SCInfReport:
    """Simple connectivity at infinity of the right-angled Artin group on the
    flag complex L: yes iff L is simply connected and has no cut vertex.

    Simple connectivity of L is verified by a bounded Tietze simplification of
    the spanning-tree presentation of pi_1(L); the heuristic can answer yes or
    unknown, never a false yes.
    """
    if not is_flag(L):
        raise NotFlagError("complex is not flag")
    skeleton = L.one_skeleton()
    nverts = len(L.vertices)
    if nverts == 1 or (nverts == 2 and len(L.edges) == 1):
        raise ExcludedComplexError("criterion excludes the 0- and 1-simplex")
    if not skeleton.is_connected():
        return SCInfReport("no", "L is disconnected")
    cuts = skeleton.cut_vertices()
    if cuts:
        return SCInfReport("no", f"cut vertex {cuts[0]!r}")
    h1_free, h1_torsion = integral_h1(L)
    if h1_free or h1_torsion:
        return SCInfReport("no", f"H1(L) nontrivial (free rank {h1_free}, torsion {h1_torsion})")
    if _pi1_trivializes(L, tietze_budget):
        return SCInfReport("yes", "no cut vertex and pi_1(L) trivializes")
    return SCInfReport("unknown", "pi_1 presentation did not trivialize within budget")


def _smith_diagonal(matrix):
    """Nonzero invariant factors of an integer matrix (Smith normal form)."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    divisors = []
    top = 0
    while top < min(rows, cols):
        # find smallest nonzero entry in the submatrix
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, rows):
            q = m[i][top] // pivot
            if q:
                for j in range(top, cols):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = m[top][j] // pivot
            if q:
                for i in range(top, rows):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        divisors.append(abs(pivot))
        top += 1
    # Z/a + Z/b = Z/gcd + Z/lcm; afterwards each divisor divides the next
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = math.gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return divisors


def integral_h1(L: SimplicialComplex2):
    """(free rank, torsion divisors) of H1(L; Z) via boundary matrices."""
    verts = list(L.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = sorted(tuple(sorted(e, key=vidx.__getitem__)) for e in L.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    tris = sorted(tuple(sorted(t, key=vidx.__getitem__)) for t in L.triangles)
    # boundary_1: edges -> vertices
    d1 = [[0] * len(edges) for _ in verts]
    for j, (u, v) in enumerate(edges):
        d1[vidx[u]][j] = -1
        d1[vidx[v]][j] = 1
    # boundary_2: triangles -> edges
    d2 = [[0] * len(tris) for _ in edges]
    for j, (a, b, c) in enumerate(tris):
        d2[eidx[(a, b)]][j] = 1
        d2[eidx[(b, c)]][j] = 1
        d2[eidx[(a, c)]][j] = -1
    rank_d1 = len(_smith_diagonal(d1))
    d2_divisors = _smith_diagonal(d2)
    rank_d2 = len(d2_divisors)
    cycle_rank = len(edges) - rank_d1
    free_rank = cycle_rank - rank_d2
    torsion = [d for d in d2_divisors if d > 1]
    return free_rank, torsion


def _pi1_trivializes(L: SimplicialComplex2, budget) -> bool:
    """Bounded Tietze simplification of the spanning-tree presentation.

    Generators: non-tree edges.  Relators: triangle boundaries with tree
    edges erased.  Returns True only when every generator is eliminated.
    """
    verts = list(L.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = sorted(tuple(sorted(e, key=vidx.__getitem__)) for e in L.edges)
    # spanning tree by BFS from the first vertex
    tree = set()
    seen = {verts[0]}
    frontier = [verts[0]]
    adj = {v: [] for v in verts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u], key=vidx.__getitem__):
                if w not in seen:
                    seen.add(w)
                    tree.add(tuple(sorted((u, w), key=vidx.__getitem__)))
                    nxt.append(w)
        frontier = nxt
    gens = [e for e in edges if e not in tree]
    gidx = {e: i + 1 for i, e in enumerate(gens)}  # 1-based, sign = orientation

    def edge_letter(a, b):
        e = tuple(sorted((a, b), key=vidx.__getitem__))
        if e in tree:
            return 0
        return gidx[e] if (a, b) == e else -gidx[e]

    def freely_reduce(word):
        out = []
        for x in word:
            if x == 0:
                continue
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    relators = set()
    for t in sorted(tuple(sorted(t, key=vidx.__getitem__)) for t in L.triangles):
        a, b, c = t
        word = freely_reduce((edge_letter(a, b), edge_letter(b, c), edge_letter(c, a)))
        if word:
            relators.add(word)

    alive = set(gidx.values())
    steps = 0
    changed = True
    while changed and steps < budget:
        changed = False
        # length-1 relators kill generators
        for rel in sorted(relators, key=lambda r: (len(r), r)):
            steps += 1
            if len(rel) == 1:
                g = abs(rel[0])
                if g in alive:
                    alive.discard(g)
                relators = {
                    freely_reduce(tuple(x for x in r if abs(x) != g)) for r in relators
                }
                relators.discard(())
                changed = True
                break
            if len(rel) == 2 and abs(rel[0]) != abs(rel[1]):
                # g = h^{+-1}: substitute g away
                g, h = rel[0], rel[1]
                target, repl = abs(g), (-h if g > 0 else h)
                new = set()
                for r in relators:
                    word = []
                    for x in r:
                        if x == target:
                            word.append(repl)
                        elif x == -target:
                            word.append(-repl)
                        else:
                            word.append(x)
                    new.add(freely_reduce(tuple(word)))
                new.discard(())
                relators = new
                alive.discard(target)
                changed = True
                break
        if steps >= budget:
            break
    return not alive
