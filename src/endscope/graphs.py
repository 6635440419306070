"""Finite labeled graphs and the graph utilities shared across the deciders.

A LabeledGraph carries presentation diagrams: vertices are generator names,
an edge labeled m >= 2 records a relation of order m, and the absence of an
edge means no relation (infinite order).  Small simplicial 2-complexes live
here too since the flag/cut-vertex checks operate on the same carrier.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import EndscopeError


def _edge_key(u, v):
    return (u, v) if u <= v else (v, u)


class _Value:
    """An immutable value: a group constructor of the description language
    (the classes of `model`) or a LabeledGraph.

    A subclass's fields are its own annotations, in order, and a class
    attribute named like a field is that field's default.  The constructor
    binds its arguments to the fields like a function signature and then
    calls `_validate`; a value compares equal only to a value of its own
    class with equal fields, hashes by its fields and prints as
    `Class(field=value, ...)`.  These are plain methods, shared by every
    subclass: unlike a dataclass, defining a subclass generates no code at
    import.
    """

    _fields = {}  # field name -> annotation (a string, by the future import)
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = dict(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ gets past the ban on assignment below
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self._validate()

    @classmethod
    def _bind(cls, args, kwargs):
        """One value per field, in field order, from the arguments of a call;
        TypeError for a missing, unknown or repeated one."""
        names, name = tuple(cls._fields), cls.__name__
        if len(args) > len(names):
            raise TypeError(f"{name}() got {len(args)} positional arguments, {len(names)} fields")
        for key in kwargs:
            if key not in cls._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in names[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = list(args)
        for key in names[len(args):]:
            if key in kwargs:
                values.append(kwargs[key])
            elif key in cls._defaults:
                values.append(cls._defaults[key])
            else:
                raise TypeError(f"{name}() missing required argument {key!r}")
        return values

    def _validate(self):
        """Raise EndscopeError when the fields are out of range."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class LabeledGraph(_Value):
    """Finite simple graph with integer edge labels (label >= 2).

    Vertex order is preserved; it doubles as the generator order for
    Coxeter/Artin systems built on top of the diagram.  A graph is a value
    whose fields are its vertices and its labeled edges, and it is
    unhashable, since its edges are a dict.
    """

    vertices: tuple
    edges: dict  # (u, v) with u <= v -> label
    __hash__ = None

    def __init__(self, vertices, edges=None):
        position = {}
        for v in vertices:
            if v in position:
                raise EndscopeError(f"duplicate vertex {v!r}")
            position[v] = len(position)
        normalized = {}
        unordered = {v: [] for v in vertices}
        for (u, v), m in (edges or {}).items():
            if u == v:
                raise EndscopeError(f"self-loop at {u!r}")
            if u not in position or v not in position:
                raise EndscopeError(f"unknown vertex {(u if u not in position else v)!r}")
            if not isinstance(m, int) or m < 2:
                raise EndscopeError(f"edge label must be an integer >= 2, got {m!r}")
            key = _edge_key(u, v)
            if key in normalized:
                raise EndscopeError(f"duplicate edge {key}")
            normalized[key] = m
            unordered[u].append(v)
            unordered[v].append(u)
        # each vertex, in vertex order, joins its neighbours' lists
        adjacency = {v: [] for v in vertices}
        for v, ws in unordered.items():
            for w in ws:
                adjacency[w].append(v)
        super().__init__(vertices, normalized)
        # vertex -> tuple of its neighbours in vertex order; not a field, so
        # equality and repr ignore it
        object.__setattr__(self, "adjacency", {v: tuple(ws) for v, ws in adjacency.items()})

    @staticmethod
    def build(vertices, edges=()):
        """edges: iterable of (u, v, label); a pair given twice is an error."""
        labels = {}
        for u, v, m in edges:
            # the graph normalises each pair and rejects (v, u) after (u, v)
            if (u, v) in labels:
                raise EndscopeError(f"duplicate edge {_edge_key(u, v)}")
            labels[u, v] = m
        return LabeledGraph(tuple(vertices), labels)

    def __len__(self):
        return len(self.vertices)

    def has_edge(self, u, v):
        return _edge_key(u, v) in self.edges

    def label(self, u, v):
        """Edge label, or None when the vertices are unrelated (m = infinity)."""
        return self.edges.get(_edge_key(u, v))

    def neighbors(self, v):
        if v not in self.adjacency:
            raise EndscopeError(f"unknown vertex {v!r}")
        return self.adjacency[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def is_complete(self):
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def sorted_edges(self):
        order = {v: i for i, v in enumerate(self.vertices)}
        return sorted(
            ((u, v, m) for (u, v), m in self.edges.items()),
            key=lambda e: (order[e[0]], order[e[1]]),
        )

    def components(self):
        """Connected components as tuples of vertices, in vertex order."""
        remaining = set(self.vertices)
        comps = []
        for v in self.vertices:
            if v not in remaining:
                continue
            comp = {v}
            stack = [v]
            remaining.discard(v)
            while stack:
                u = stack.pop()
                for w in self.adjacency[u]:
                    if w in remaining:
                        remaining.discard(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(tuple(x for x in self.vertices if x in comp))
        return comps

    def is_connected(self):
        return len(self.components()) <= 1

    def cut_vertices(self):
        """Vertices whose removal disconnects their component, in vertex
        order.  One iterative low-point depth-first search (Hopcroft & Tarjan
        1973): a root is a cut vertex iff it has two or more tree children,
        any other vertex iff some child's subtree has no edge above it."""
        adj = self.adjacency
        order, low, cut = {}, {}, set()
        for root in self.vertices:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            root_children = 0
            stack = [(root, iter(adj[root]))]
            while stack:
                u, rest = stack[-1]
                for w in rest:
                    if w not in order:
                        order[w] = low[w] = len(order)
                        stack.append((w, iter(adj[w])))
                        break
                    # a back edge; the tree edge to the parent lowers low[u] to
                    # order[parent] at most, which keeps the test below true
                    low[u] = min(low[u], order[w])
                else:
                    stack.pop()
                    if len(stack) == 1:
                        root_children += 1
                    elif stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[u])
                        if low[u] >= order[p]:
                            cut.add(p)
            if root_children >= 2:
                cut.add(root)
        return tuple(v for v in self.vertices if v in cut)


def induced_subgraph(g: LabeledGraph, vs) -> LabeledGraph:
    """Full subgraph on the vertex set vs, edge labels preserved."""
    keep = set(vs)
    for v in keep:
        if v not in g.vertices:
            raise EndscopeError(f"unknown vertex {v!r}")
    verts = tuple(v for v in g.vertices if v in keep)
    edges = {e: m for e, m in g.edges.items() if e[0] in keep and e[1] in keep}
    return LabeledGraph(verts, edges)


def is_clique(g: LabeledGraph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def enumerate_clique_separators(g: LabeledGraph, admissible=None):
    """The clique minimal separators of g that pass `admissible`, at most |V|:
    vertex sets K that induce a complete subgraph and leave at least two
    components of g - K adjacent to every vertex of K.

    One MCS-M+ pass (Berry, Pogorelcnik & Simonet 2010) builds a minimal
    triangulation H of g.  A pick whose weight is at most the previous pick's
    is a generator x, and its neighbors in H picked before it, madj(x), form
    a minimal separator of H; those that are cliques of g are the clique
    minimal separators of g (Tarjan 1985).  The empty set qualifies exactly
    when g is disconnected.  Every clique separator contains a clique minimal
    separator, so under a subset-closed `admissible` the first result is the
    first admissible clique separator of all.  Sorted by size, then
    lexicographically in vertex order.  O(n(n + m)).
    """
    verts = g.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in g.adjacency[v]] for v in verts]
    madj = [[] for _ in range(n)]  # earlier picks adjacent in H
    weights = [0] * n  # len(madj[y]) while y is unpicked, then -1
    alive = [True] * n  # not yet picked
    generated = set()
    previous = -1
    for _ in range(n):
        x = max(range(n), key=weights.__getitem__)  # the first unpicked of most weight
        weight = weights[x]
        weights[x] = -1
        alive[x] = False
        if weight <= previous:
            generated.add(tuple(sorted(madj[x])))
        previous = weight
        # z joins x in H when an x..z path through unpicked vertices has all
        # inner weights below z's; bucket b holds paths of largest inner weight
        # b - 1, and no unpicked weight exceeds x's
        fresh = alive[:]
        buckets = [[x]] + [[] for _ in range(weight + 1)]
        raised = []
        for b, bucket in enumerate(buckets):
            while bucket:
                for z in adj[bucket.pop()]:
                    if fresh[z]:
                        fresh[z] = False
                        wz = len(madj[z])
                        if wz >= b:
                            raised.append(z)
                            buckets[wz + 1].append(z)
                        else:
                            bucket.append(z)
        for y in raised:
            madj[y].append(x)
            weights[y] += 1
    out = []
    for sep in sorted(generated, key=lambda s: (len(s), s)):
        vs = tuple(verts[i] for i in sep)
        if is_clique(g, vs) and (admissible is None or admissible(frozenset(vs))):
            out.append(vs)
    return out


class SimplicialComplex2(NamedTuple):
    """A 2-dimensional simplicial complex: vertices, edges, and triangles."""

    vertices: tuple
    edges: frozenset  # frozensets of size 2
    triangles: frozenset  # frozensets of size 3

    @staticmethod
    def build(vertices, edges=(), triangles=()):
        vs = tuple(vertices)
        es = frozenset(frozenset(e) for e in edges)
        ts = frozenset(frozenset(t) for t in triangles)
        for e in es:
            if len(e) != 2:
                raise EndscopeError(f"an edge joins two distinct vertices, got {tuple(e)!r}")
        for t in ts:
            if len(t) != 3:
                raise EndscopeError(f"a triangle spans three distinct vertices, got {tuple(t)!r}")
        unknown = frozenset().union(*es, *ts).difference(vs)
        if unknown:
            raise EndscopeError(f"unknown vertex {next(iter(unknown))!r}")
        for t in ts:
            t = tuple(sorted(t, key=vs.index))
            for pair in combinations(t, 2):
                if frozenset(pair) not in es:
                    raise EndscopeError(f"triangle {t!r} lacks edge {pair!r}")
        return SimplicialComplex2(vs, es, ts)

    def one_skeleton(self) -> LabeledGraph:
        # label value is irrelevant for skeleton computations; use 2
        return LabeledGraph.build(self.vertices, [(*e, 2) for e in self.edges])


def is_flag(L: SimplicialComplex2) -> bool:
    """True iff every 3-clique of the 1-skeleton spans a triangle of L.  The
    3-cliques through an edge are its ends' common neighbours: O(m * degree)."""
    adjacency = L.one_skeleton().adjacency
    return all(frozenset((u, v, w)) in L.triangles
               for u, v in L.edges for w in set(adjacency[u]).intersection(adjacency[v]))
