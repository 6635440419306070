"""Empirical end estimation from Cayley balls.

A GroupOracle answers the word problem for a fixed generating set; balls are
built by breadth-first closure of the generator action and the number of ends
is estimated by counting outer-touching components of ball-minus-core,
snapped to {0, 1, 2, growing}.  The unbounded-component definition is
approximated by "touches the outer sphere", guarded by a stability window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atoms import EndCount
from .coxeter import (
    DEFAULT_ORBIT_BUDGET,
    CoxeterSystem,
    has_integral_representation,
    tits_generator_matrices,
    tits_normal_form,
)
from .errors import MemoryCapExceededError, WindowTooSmallError
from .graphs import LabeledGraph

DEFAULT_ELEMENT_CAP = 2_000_000


class GroupOracle:
    """Behavioral interface: identity, ordered generators, exact multiply.

    normalize must be constant on equal group elements and multiply must be a
    congruence with respect to it.  Generator lists are inverse-closed so the
    Cayley graph can be explored undirected.
    """

    name = "oracle"
    identity = None
    generators = ()  # ordered tuple of generator names

    def multiply(self, key, gen):
        raise NotImplementedError

    def normalize(self, word):
        key = self.identity
        for gen in word:
            key = self.multiply(key, gen)
        return key


class ZnOracle(GroupOracle):
    """Free abelian group of rank n with the standard generators."""

    def __init__(self, n):
        self.n = n
        self.name = f"z:{n}"
        self.identity = (0,) * n
        gens = []
        for i in range(n):
            gens.append(f"x{i}+")
            gens.append(f"x{i}-")
        self.generators = tuple(gens)

    def multiply(self, key, gen):
        i = int(gen[1:-1])
        delta = 1 if gen.endswith("+") else -1
        return key[:i] + (key[i] + delta,) + key[i + 1:]


class FreeOracle(GroupOracle):
    """Free group of rank n; keys are freely reduced words over +-(i+1)."""

    def __init__(self, n):
        self.n = n
        self.name = f"free:{n}"
        self.identity = ()
        gens = []
        for i in range(n):
            gens.append(f"g{i}+")
            gens.append(f"g{i}-")
        self.generators = tuple(gens)

    def multiply(self, key, gen):
        i = int(gen[1:-1])
        letter = (i + 1) if gen.endswith("+") else -(i + 1)
        if key and key[-1] == -letter:
            return key[:-1]
        return key + (letter,)


class CyclicOracle(GroupOracle):
    """Finite cyclic group of order n."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("order must be >= 1")
        self.n = n
        self.name = f"zmod:{n}"
        self.identity = 0
        self.generators = ("t",) if n <= 2 else ("t", "T")

    def multiply(self, key, gen):
        return (key + (1 if gen == "t" else -1)) % self.n


class CoxeterOracle(GroupOracle):
    """Coxeter group oracle; generators are the diagram vertices.

    Uses the integer Tits reflection representation when all labels lie in
    {2, 3, inf}; otherwise falls back to canonical-word keys via the braid
    normal form (adequate for small groups), whose braid-orbit search may
    visit at most `budget` words.
    """

    def __init__(self, sys: CoxeterSystem, budget=DEFAULT_ORBIT_BUDGET):
        self.sys = sys
        self.budget = budget
        self.name = "coxeter"
        self.generators = tuple(str(v) for v in sys.generators)
        self._by_name = {str(v): v for v in sys.generators}
        if has_integral_representation(sys):
            n = len(sys.generators)
            self._n = n
            mats = tits_generator_matrices(sys)
            # store only the non-identity row of each reflection matrix
            self._rows = {
                str(v): (i, m[i]) for i, (v, m) in enumerate(zip(sys.generators, mats))
            }
            self.identity = tuple(
                1 if r == c else 0 for r in range(n) for c in range(n)
            )
            self._mode = "matrix"
        else:
            self._rows = None
            self.identity = ()
            self._mode = "word"

    def multiply(self, key, gen):
        if self._mode == "matrix":
            # right-multiply the flat n x n matrix by the reflection matrix,
            # which is the identity outside row i; O(n^2)
            i, row = self._rows[gen]
            n = self._n
            out = list(key)
            for base in range(0, n * n, n):
                u_ri = key[base + i]
                if u_ri:
                    for c in range(n):
                        if c == i:
                            out[base + i] = -u_ri
                        else:
                            out[base + c] = key[base + c] + u_ri * row[c]
            return tuple(out)
        return tits_normal_form(key + (self._by_name[gen],), self.sys, self.budget)


class RaagOracle(GroupOracle):
    """Graph product of cyclic groups (Z for order 0, Z_q for order q >= 2).

    Elements are reduced traces in heap normal form: letters (vertex, exp),
    canonically linearized by always emitting the least available letter.
    """

    def __init__(self, graph: LabeledGraph, orders=None):
        self.graph = graph
        self.orders = {v: (orders or {}).get(v, 0) for v in graph.vertices}
        self.name = "raag"
        self.identity = ()
        self._index = {v: i for i, v in enumerate(graph.vertices)}
        self._adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
        gens = []
        for v in graph.vertices:
            if self.orders[v] == 2:
                gens.append(f"{v}")
            else:
                gens.append(f"{v}+")
                gens.append(f"{v}-")
        self.generators = tuple(gens)

    def _gen_letter(self, gen):
        if gen.endswith("+"):
            return gen[:-1], 1
        if gen.endswith("-"):
            return gen[:-1], -1
        return gen, 1

    def _norm_exp(self, v, e):
        q = self.orders[v]
        if q:
            e %= q
        return e

    def _commutes(self, u, v):
        return u != v and v in self._adj[u]

    def multiply(self, key, gen):
        v, e = self._gen_letter(gen)
        letters = list(key)
        # rightmost letter of vertex v visible past commuting letters only
        target = None
        for p in range(len(letters) - 1, -1, -1):
            pv = letters[p][0]
            if pv == v:
                target = p
                break
            if not self._commutes(pv, v):
                break
        if target is not None:
            merged = self._norm_exp(v, letters[target][1] + e)
            if merged == 0:
                del letters[target]
            else:
                letters[target] = (v, merged)
        else:
            e = self._norm_exp(v, e)
            if e != 0:
                letters.append((v, e))
        return self._canonical(letters)

    def _canonical(self, letters):
        remaining = list(letters)
        out = []
        while remaining:
            best = None
            for i, (v, e) in enumerate(remaining):
                if all(self._commutes(remaining[j][0], v) for j in range(i)):
                    cand = (self._index[v], e, i)
                    if best is None or cand[:2] < best[:2]:
                        best = cand
            i = best[2]
            out.append(remaining.pop(i))
        return tuple(out)


class DirectProductOracle(GroupOracle):
    def __init__(self, parts):
        self.parts = tuple(parts)
        self.name = "direct_product"
        self.identity = tuple(p.identity for p in self.parts)
        gens = []
        for i, p in enumerate(self.parts):
            for g in p.generators:
                gens.append(f"{i}.{g}")
        self.generators = tuple(gens)

    def multiply(self, key, gen):
        i, g = gen.split(".", 1)
        i = int(i)
        return key[:i] + (self.parts[i].multiply(key[i], g),) + key[i + 1:]


class FreeProductOracle(GroupOracle):
    """Free product with alternating-syllable normal form."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.name = "free_product"
        self.identity = ()
        gens = []
        for i, p in enumerate(self.parts):
            for g in p.generators:
                gens.append(f"{i}.{g}")
        self.generators = tuple(gens)

    def multiply(self, key, gen):
        i, g = gen.split(".", 1)
        i = int(i)
        part = self.parts[i]
        if key and key[-1][0] == i:
            merged = part.multiply(key[-1][1], g)
            if merged == part.identity:
                return key[:-1]
            return key[:-1] + ((i, merged),)
        new = part.multiply(part.identity, g)
        if new == part.identity:
            return key
        return key + ((i, new),)


def compose_oracles(kind, parts):
    if not parts:
        raise ValueError("parts must be nonempty")
    if kind == "direct_product":
        return DirectProductOracle(parts)
    if kind == "free_product":
        return FreeProductOracle(parts)
    raise ValueError(f"unknown composition kind {kind!r}")


# --- Ball construction ---------------------------------------------------------

@dataclass
class BallGraph:
    radius: int
    order: list  # element keys in BFS insertion order
    distance: dict  # key -> distance from identity
    adjacency: dict  # key -> list of (neighbor key, generator name)
    parent: dict  # key -> (parent key, generator name); identity absent
    exhausted: bool  # whole group fits inside the ball
    generator_names: tuple

    def index(self):
        return {k: i for i, k in enumerate(self.order)}

    def sphere(self, d):
        return [k for k in self.order if self.distance[k] == d]

    def serialize(self):
        idx = self.index()
        edges = sorted(
            {
                (min(idx[u], idx[v]), max(idx[u], idx[v]), g)
                for u, nbrs in self.adjacency.items()
                for v, g in nbrs
            }
        )
        return {
            "radius": self.radius,
            "exhausted": self.exhausted,
            "elements": [{"id": i, "distance": self.distance[k]} for i, k in enumerate(self.order)],
            "edges": [{"u": u, "v": v, "gen": g} for u, v, g in edges],
        }


def build_ball(oracle: GroupOracle, radius: int, element_cap=DEFAULT_ELEMENT_CAP) -> BallGraph:
    """Breadth-first closure of the generator action, truncated at `radius`.

    Adjacency covers every edge with both ends inside the ball (the generator
    set is inverse-closed, so each edge is visited from both endpoints).
    `exhausted` is set when no sphere element has a neighbor outside the ball.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    identity = oracle.identity
    distance = {identity: 0}
    order = [identity]
    adjacency = {identity: []}
    parent = {}
    escaped = False
    pos = 0
    while pos < len(order):
        u = order[pos]
        pos += 1
        du = distance[u]
        for g in oracle.generators:
            v = oracle.multiply(u, g)
            if v == u:
                continue
            if v in distance:
                adjacency[u].append((v, g))
                continue
            if du < radius:
                if len(order) >= element_cap:
                    raise MemoryCapExceededError(element_cap)
                distance[v] = du + 1
                order.append(v)
                adjacency[v] = []
                parent[v] = (u, g)
                adjacency[u].append((v, g))
            else:
                escaped = True
    return BallGraph(
        radius=radius,
        order=order,
        distance=distance,
        adjacency=adjacency,
        parent=parent,
        exhausted=not escaped,
        generator_names=tuple(oracle.generators),
    )


# --- End estimation --------------------------------------------------------------

@dataclass(frozen=True)
class EndEstimate:
    per_radius: tuple  # of (r, outer-touching component count)
    verdict: str  # "stabilized" | "growing_to_infinity" | "inconclusive"
    ends: EndCount | None  # set when verdict == "stabilized"
    radius: int

    def as_dict(self):
        return {
            "per_radius": [{"r": r, "components": c} for r, c in self.per_radius],
            "verdict": self.verdict,
            "ends": str(self.ends) if self.ends is not None else None,
            "radius": self.radius,
        }


def _outer_components(ball: BallGraph, r):
    """Count of components of the induced subgraph on distances in [r, R]
    (the ball minus the open ball of radius r) containing a distance-R
    element."""
    keep = {k for k, d in ball.distance.items() if d >= r}
    seen = set()
    count = 0
    idx = ball.index()
    for k in ball.order:
        if k not in keep or k in seen:
            continue
        comp = [k]
        seen.add(k)
        stack = [k]
        touches = ball.distance[k] == ball.radius
        while stack:
            u = stack.pop()
            for v, _ in ball.adjacency[u]:
                if v in keep and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
                    if ball.distance[v] == ball.radius:
                        touches = True
        if touches:
            count += 1
    return count


def estimate_ends(ball: BallGraph, r_min: int, r_max: int) -> EndEstimate:
    """Outer-touching component counts for r in [r_min, r_max] and a verdict.

    Stabilized(k) needs the count constant at k in {0, 1, 2} over the last
    half of the window; strictly increasing counts mean growing-to-infinity.
    """
    if r_min < 0 or r_max < r_min:
        raise WindowTooSmallError(f"bad window [{r_min}, {r_max}]")
    if r_max > ball.radius - 2:
        raise WindowTooSmallError(
            f"r_max {r_max} leaves no margin below radius {ball.radius}"
        )
    if ball.exhausted:
        counts = [(r, 0) for r in range(r_min, r_max + 1)]
        return EndEstimate(tuple(counts), "stabilized", EndCount.ZERO, ball.radius)
    counts = [(r, _outer_components(ball, r)) for r in range(r_min, r_max + 1)]
    values = [c for _, c in counts]
    window = math.ceil(len(values) / 2)
    tail = values[-window:]
    spheres = [len(ball.sphere(d)) for d in range(ball.radius + 1)]
    closing = spheres[ball.radius] < spheres[ball.radius - 1]
    if closing:
        # Shrinking outer spheres on an unexhausted ball: the group may be
        # finite with the ball about to close, so the outer-touching proxy
        # is unreliable.
        return EndEstimate(tuple(counts), "inconclusive", None, ball.radius)
    if len(set(tail)) == 1 and tail[0] in (0, 1, 2):
        ends = {0: EndCount.ZERO, 1: EndCount.ONE, 2: EndCount.TWO}[tail[0]]
        return EndEstimate(tuple(counts), "stabilized", ends, ball.radius)
    if all(values[i] < values[i + 1] for i in range(len(values) - 1)):
        return EndEstimate(tuple(counts), "growing_to_infinity", None, ball.radius)
    return EndEstimate(tuple(counts), "inconclusive", None, ball.radius)


def sample_geodesic_segments(ball: BallGraph, k: int):
    """Up to k geodesic words from the identity to the outer sphere, at most
    one per outer-touching component (deepest element, earliest in BFS order)."""
    if not ball.order:
        return []
    radius = ball.radius
    idx = ball.index()
    keep = {key for key, d in ball.distance.items() if d > 0}
    seen = set()
    words = []
    for start in ball.order:
        if len(words) >= k:
            break
        if start not in keep or start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in ball.adjacency[u]:
                if v in keep and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        deep = [u for u in comp if ball.distance[u] == radius]
        if not deep:
            continue
        rep = min(deep, key=idx.__getitem__)
        word = []
        cur = rep
        while cur in ball.parent:
            p, g = ball.parent[cur]
            word.append(g)
            cur = p
        words.append(tuple(reversed(word)))
    return words


# --- Oracle spec strings (used by the CLI) ---------------------------------------

def oracle_from_spec(spec: str, budget=DEFAULT_ORBIT_BUDGET) -> GroupOracle:
    """Build a named oracle: z:<n>, free:<n>, zmod:<n>, i2:<m>,
    freeprod:<part>x<part>..., prod:<part>x<part>... (parts are specs).
    `budget` bounds the braid-orbit search of Coxeter word oracles."""
    head, _, rest = spec.partition(":")
    if head == "z":
        return ZnOracle(int(rest))
    if head == "free":
        return FreeOracle(int(rest))
    if head == "zmod":
        return CyclicOracle(int(rest))
    if head == "i2":
        m = int(rest)
        diagram = LabeledGraph.build(("s", "t"), [("s", "t", m)])
        return CoxeterOracle(CoxeterSystem(diagram), budget)
    if head == "freeprod":
        parts = [oracle_from_spec(p, budget) for p in rest.split("x")]
        return compose_oracles("free_product", parts)
    if head == "prod":
        parts = [oracle_from_spec(p, budget) for p in rest.split("x")]
        return compose_oracles("direct_product", parts)
    raise ValueError(f"unknown oracle spec {spec!r}")
