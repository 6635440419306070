"""Exact deciders for Coxeter and Artin diagrams.

Diagrams use the presentation convention: an edge labeled m >= 2 records the
relation (st)^m = 1, a missing edge means the generators are unrelated.
Finite-type recognition builds the Dynkin diagram (label-2 edges dropped,
unrelated pairs joined) and pattern matches its components against the
classical finite families.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from .atoms import EndCount
from .errors import EndscopeError
from .graphs import LabeledGraph, enumerate_clique_separators, induced_subgraph


class CoxeterSystem(NamedTuple):
    diagram: LabeledGraph

    @property
    def generators(self):
        return self.diagram.vertices

    def m(self, s, t):
        """Order of st: 1 if s == t, the edge label, or inf when unrelated."""
        if s == t:
            return 1
        label = self.diagram.label(s, t)
        return label if label is not None else math.inf


class FiniteTypeReport(NamedTuple):
    is_finite: bool
    component_types: tuple  # of (vertex tuple, family tag string)


# --- Finite-type recognition -------------------------------------------------

def _classify_path(labels):
    """Family tag for a Dynkin path with the given edge-label sequence."""
    n = len(labels) + 1
    big = [m for m in labels if m >= 4]
    if not big:
        return f"A{n}"
    if len(big) > 1:
        return "affine/indefinite"
    m = big[0]
    at_end = labels[0] >= 4 or labels[-1] >= 4
    if m == 4:
        if at_end:
            return f"B{n}"
        if n == 4 and labels[1] == 4:
            return "F4"
        return "affine/indefinite"
    if m == 5 and at_end:
        if n == 2:
            return "I2(5)"
        if n == 3:
            return "H3"
        if n == 4:
            return "H4"
        return "affine/indefinite"
    if n == 2:
        return f"I2({m})"
    return "affine/indefinite"


def _walk(adj, prev, cur):
    """The vertices from `cur` to the end of its path away from `prev`: each
    vertex passed has at most one Dynkin neighbour besides the one before it."""
    order = [cur]
    while ahead := [w for w in adj[cur] if w != prev]:
        prev, cur = cur, ahead[0]
        order.append(cur)
    return order


def _classify_component(sys: CoxeterSystem, comp, adj):
    """Family tag of a Dynkin component of two or more vertices whose pairs
    are all related; adj is the Dynkin adjacency, so the neighbours of a
    vertex of comp lie in comp."""
    degs = {v: len(adj[v]) for v in comp}
    if sum(degs.values()) // 2 >= len(comp):  # contains a cycle
        return "affine/indefinite"
    branch = [v for v in comp if degs[v] >= 3]
    if any(degs[v] >= 4 for v in comp) or len(branch) > 1:
        return "affine/indefinite"
    if not branch:  # a path, walked from one end
        order = _walk(adj, None, next(v for v in comp if degs[v] == 1))
        labels = [int(sys.m(u, v)) for u, v in zip(order, order[1:])]
        tag, rev = _classify_path(labels), _classify_path(labels[::-1])
        # orientation must not matter; both walks classify identically
        if tag != rev:
            raise AssertionError(
                f"path labels {labels} classify as {tag!r} but reversed as {rev!r}"
            )
        return tag
    # one degree-3 branch vertex: D/E shapes, simply laced only
    if any(sys.m(u, w) != 3 for u in comp for w in adj[u]):
        return "affine/indefinite"
    b = branch[0]
    arms = tuple(sorted(len(_walk(adj, b, start)) for start in adj[b]))
    if arms[:2] == (1, 1):
        return f"D{len(comp)}"
    return {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}.get(arms, "affine/indefinite")


def is_finite_type(sys: CoxeterSystem) -> FiniteTypeReport:
    """Classifies each component of the Dynkin diagram, which joins the
    generators with m >= 3 (unrelated pairs, m = inf, included) and leaves
    commuting pairs (m = 2) apart.

    The components are those of the complement of the label-2 edges.  The
    search keeps the vertices no component holds yet, and from a vertex u it
    takes all of them but u's label-2 neighbours: each vertex it does not
    take is one of those neighbours, so its work grows with the vertices and
    label-2 edges, not with the pairs of generators.  A component with an
    unrelated pair is affine/indefinite (its Coxeter group is infinite); the
    others are cliques of the diagram, so their Dynkin edges are read from
    its adjacency."""
    diagram = sys.diagram
    gens, adjacency = diagram.vertices, diagram.adjacency
    position = {v: i for i, v in enumerate(gens)}
    commuting = {v: set() for v in gens}
    for (u, v), m in diagram.edges.items():
        if m == 2:
            commuting[u].add(v)
            commuting[v].add(u)
    remaining = set(gens)
    types = []
    for v in gens:
        if v not in remaining:
            continue
        remaining.discard(v)
        comp, stack = [v], [v]
        while stack:
            u = stack.pop()
            found = remaining - commuting[u]
            remaining &= commuting[u]
            comp += found
            stack += found
        comp = tuple(sorted(comp, key=position.__getitem__))
        inside = set(comp)
        if len(comp) == 1:
            tag = "A1"
        elif any(len(inside.intersection(adjacency[u])) < len(comp) - 1 for u in comp):
            tag = "affine/indefinite"  # some u has no edge to another vertex of comp
        else:
            dynkin = {u: tuple(w for w in adjacency[u] if w in inside and w not in commuting[u])
                      for u in comp}
            tag = _classify_component(sys, comp, dynkin)
        types.append((comp, tag))
    types = tuple(types)
    return FiniteTypeReport(all(tag != "affine/indefinite" for _, tag in types), types)


# --- End counting ------------------------------------------------------------

class CoxeterEndsReport(NamedTuple):
    ends: EndCount
    witness: dict
    finite_type: FiniteTypeReport  # of the whole diagram, read by the end count


def coxeter_ends(sys: CoxeterSystem) -> CoxeterEndsReport:
    """Number of ends of the Coxeter group on the presentation diagram.

    Zero iff the system is finite type.  Multi-ended iff the diagram has a
    complete separating subgraph generating a finite subgroup; among the
    multi-ended, 2-ended iff the diagram decomposes as two unrelated
    vertices each commuting with a finite-type remainder.
    """
    diagram = sys.diagram
    report = is_finite_type(sys)
    if report.is_finite:
        return CoxeterEndsReport(
            EndCount.ZERO, {"kind": "finite_type", "components": report.component_types}, report
        )

    def admissible(vs):
        return is_finite_type(CoxeterSystem(induced_subgraph(diagram, vs))).is_finite

    separators = enumerate_clique_separators(diagram, admissible)
    if not separators:
        return CoxeterEndsReport(EndCount.ONE, {"kind": "no_admissible_separator"}, report)

    two = _match_two_ended(sys)
    if two is not None:
        lambda0, pair = two
        return CoxeterEndsReport(
            EndCount.TWO, {"kind": "two_ended_decomposition", "lambda0": lambda0, "pair": pair},
            report,
        )
    return CoxeterEndsReport(
        EndCount.INFINITE, {"kind": "separator", "separator": separators[0]}, report
    )


def _match_two_ended(sys: CoxeterSystem):
    """Find Lambda0 with finite-type span whose complement is a non-adjacent
    pair, each joined to all of Lambda0 by label-2 edges.

    Both vertices of such a pair have label-2 edges to all n - 2 others, so
    two such pairs are disjoint and each one's Lambda0 holds the other, an
    unrelated pair that rules out finite type: only a lone pair can match.
    """
    diagram = sys.diagram
    verts = diagram.vertices
    twos = dict.fromkeys(verts, 0)
    for (u, v), m in diagram.edges.items():
        if m == 2:
            twos[u] += 1
            twos[v] += 1
    joined = [v for v in verts if twos[v] == len(verts) - 2]
    pairs = [(x, y) for i, x in enumerate(joined) for y in joined[i + 1:]
             if not diagram.has_edge(x, y)]
    if len(pairs) != 1:
        return None
    lambda0 = tuple(v for v in verts if v not in pairs[0])
    if not is_finite_type(CoxeterSystem(induced_subgraph(diagram, lambda0))).is_finite:
        return None
    return lambda0, pairs[0]


# --- Artin diagrams -----------------------------------------------------------

class ArtinEndsReport(NamedTuple):
    one_ended: bool
    ends: EndCount


def artin_one_ended(diagram: LabeledGraph) -> ArtinEndsReport:
    """Connected Artin diagram with >= 2 vertices gives a 1-ended group.

    One vertex is Z (2-ended); a disconnected diagram is a free product of
    infinite groups (infinitely many ends).
    """
    if not diagram.vertices:
        raise EndscopeError("Artin diagram must be nonempty")
    if len(diagram.vertices) == 1:
        return ArtinEndsReport(False, EndCount.TWO)
    if not diagram.is_connected():
        return ArtinEndsReport(False, EndCount.INFINITE)
    return ArtinEndsReport(True, EndCount.ONE)


# --- Exact Tits-cone representation over Z[2cos(pi/M)] -------------------------

@cache
def _cyclotomic(n):
    """Phi_n, constant term first, built prime by prime from Phi_1 = z - 1:
    Phi_mp(z) = Phi_m(z^p) when p divides m, else Phi_m(z^p) / Phi_m(z)."""
    poly, m, p = [-1, 1], 1, 2
    while m < n:
        while (n // m) % p:
            p += 1
        stretched = [0] * ((len(poly) - 1) * p + 1)
        stretched[::p] = poly
        if m % p:  # divide by the monic Phi_m
            k = len(poly) - 1
            quotient = [0] * (len(stretched) - k)
            for i in reversed(range(len(quotient))):
                quotient[i] = q = stretched[i + k]
                if q:
                    for j, b in enumerate(poly):
                        stretched[i + j] -= q * b
            stretched = quotient
        poly, m = stretched, m * p
    return tuple(poly)


def _real_minimal_polynomial(m):
    """Monic minimal polynomial of 2cos(pi/m), constant term first: Phi_2m,
    palindromic of degree 2d, folded by x = z + 1/z through
    z^k + z^-k = c_k(x), c_0 = 2, c_1 = x, c_(k+1) = x c_k - c_(k-1)."""
    a = _cyclotomic(2 * m)
    d = len(a) // 2
    poly = [a[d]] + [0] * d
    prev, c = [2], [0, 1]
    for k in range(1, d + 1):
        for i, b in enumerate(c):
            poly[i] += a[d + k] * b
        prev, c = c, [x - y for x, y in zip([0] + c, prev + [0, 0])]
    return poly


def tits_cone_action(sys: CoxeterSystem):
    """(rho, action): the exact left action of the generators on the dual
    coordinates of the Tits cone.

    Coordinates lie in Z[lambda], lambda = 2cos(pi/M) for M the lcm of the
    labels >= 4 (M = 2, lambda = 0 and the ring Z when there are none), as d
    integers over the basis 1, lambda, ..., lambda^(d-1), d the degree of
    lambda, so equal coordinates are equal tuples.  s_i negates coordinate i
    and adds c_ij = 2cos(pi/m_ij) times it to each coordinate j: 0, 1 and 2
    for labels 2, 3 and inf, else c_(M/m) by c_(k+1) = lambda c_k - c_(k-1).
    A key is n blocks of d integers; action[i] pairs each position of block
    i with the (position, integer) terms it adds.  w -> w(rho), with
    rho = (1, ..., 1) inside the fundamental chamber, is injective because W
    acts simply transitively on the chambers of the Tits cone (Bjorner &
    Brenti, GTM 231, ch. 4), so w(rho) decides the word problem.
    """
    gens = sys.generators
    lcm = max(math.lcm(*(m for m in sys.diagram.edges.values() if m >= 4)), 2)
    poly = _real_minimal_polynomial(lcm)
    d = len(poly) - 1

    def times_lambda(v):
        return [(v[b - 1] if b else 0) - v[-1] * poly[b] for b in range(d)]

    one = [1] + [0] * (d - 1)
    cos2 = [[2] + one[1:], times_lambda(one)]  # cos2[k] = 2cos(k pi / M)
    while len(cos2) <= lcm // 4:
        cos2.append([x - y for x, y in zip(times_lambda(cos2[-1]), cos2[-2])])
    integral = {2: 0, 3: 1, math.inf: 2}

    def two_cos(m):
        return [integral[m]] + one[1:] if m in integral else cos2[lcm // m]

    action = []
    for i, s in enumerate(gens):
        scaled = [(j, two_cos(sys.m(s, t))) for j, t in enumerate(gens) if t != s]
        columns = []
        for a in range(d):  # scaled holds c_ij lambda^a
            columns.append((i * d + a, tuple(
                (j * d + b, c) for j, v in scaled for b, c in enumerate(v) if c)))
            scaled = [(j, times_lambda(v)) for j, v in scaled]
        action.append(tuple(columns))
    return tuple(one) * len(gens), tuple(action)
