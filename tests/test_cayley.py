"""Cayley ball explorer: oracles, balls, end estimation."""

import hashlib
import itertools
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endscope.atoms import EndCount
from endscope import coxeter
from endscope.cayley import (
    MAX_LABEL_LCM,
    BallGraph,
    CoxeterOracle,
    GroupOracle,
    ZnOracle,
    DirectProductOracle,
    FreeProductOracle,
    _peel,
    build_ball,
    estimate_ends,
    oracle_from_spec,
)
from endscope.coxeter import CoxeterSystem, tits_cone_action
from endscope.errors import (
    EndscopeError,
    KeyWidthExceededError,
    LabelLcmExceededError,
    MemoryCapExceededError,
)
from endscope.graphs import LabeledGraph
from endscope.report import render_dot
from test_acceptance import distinct_small_diagrams
from test_coxeter import tits_normal_form

# SHA-256 over render_dot of the radius-6 balls of the 80 acceptance-sweep
# diagrams, in sweep order, recorded before balls were indexed by integer ids.
SWEEP_DOT_DIGEST = "2da824c2a312ce0b82d9a4f6fc03da0492f0d08259341060a5fe711016d41ae0"

# SHA-256 of render_dot of Coxeter balls with labels >= 4, recorded while
# such labels were keyed by braid normal forms: (vertices, edges, radius).
PINNED_COXETER_DOTS = {
    "I2(5)": ("st", [("s", "t", 5)], 10,
              "e53dff8f1bb42364d231078ed5690b4f7e3579e91497edd8a244a3e864f885c2"),
    "I2(7)": ("st", [("s", "t", 7)], 10,
              "297bbe05e06a87bc4f8c0e97165aa65ced824bd2e67a5d437b77622fb94f1847"),
    "B3": ("abc", [("a", "b", 4), ("b", "c", 3), ("a", "c", 2)], 12,
           "250ce038891a79913878b1714a2286490dca15024a294d58d52690a6ceb468cb"),
    "H3": ("abc", [("a", "b", 5), ("b", "c", 3), ("a", "c", 2)], 12,
           "1dba2c078aeb35dccbf80d863cff6e305769c26fa294831501ea081d3c8751f2"),
    "affine C2": ("abc", [("a", "b", 4), ("b", "c", 4), ("a", "c", 2)], 12,
                  "e454910fd09f69d8496049e9ab4f349c0857d1f978da4cc96eb88e6c0b66dd7b"),
    "(2,3,7) triangle": ("abc", [("a", "b", 2), ("b", "c", 3), ("a", "c", 7)], 12,
                         "f9a308b63fe3979882868a319a16af647094be306b21c06bfc054f94eca82eea"),
    "4/5/3 path": ("abcd", [("a", "b", 4), ("b", "c", 5), ("c", "d", 3)], 7,
                   "429cd5d86e0773a18ac46a86eeb38d2b301569fbe1ebb6e49afab036acdb5bcc"),
}


# The oracle specs of the benchmark's cayley_cli grid (bench/workloads.py).
CAYLEY_GRID_SPECS = (
    "free:2", "free:3", "z:1", "z:2", "z:3", "z:4", "zmod:40", "i2:4", "i2:6",
    "freeprod:zmod:2xzmod:2", "freeprod:zmod:2xzmod:2xzmod:2", "freeprod:zmod:2xzmod:3",
    "freeprod:zmod:3xzmod:3", "freeprod:z:2xfree:1", "freeprod:i2:4xzmod:2",
    "freeprod:i2:6xz:1", "prod:free:2xz:1", "prod:free:2xzmod:2", "prod:z:1xzmod:3",
    "prod:z:1xz:1xz:1", "prod:i2:4xz:1", "prod:free:2xfree:2",
)


def coxeter_oracle(verts, edges=()):
    return CoxeterOracle(CoxeterSystem(LabeledGraph.build(verts, edges)))


def normalize(oracle, word):
    """Key of a word of generator indices."""
    key = oracle.identity
    for gen in word:
        key = oracle.multiply(key, gen)
    return key


def sweep_oracles():
    for _, (n, edges) in distinct_small_diagrams():
        yield edges, coxeter_oracle(range(n), edges)


def reference_build_ball(oracle, radius, element_cap=2_000_000):
    """The breadth-first closure that multiplies every (element, generator)
    pair, each edge from both ends and the outer sphere outward, and appends
    each slot of the table as it goes; `inverse` is left None."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    multiply = oracle.multiply
    gens = range(len(oracle.generators))
    order = [oracle.identity]
    ids = {oracle.identity: 0}
    distance = [0]
    neighbors = []
    escaped = False
    for u, key in enumerate(order):
        du = distance[u]
        for g in gens:
            w = multiply(key, g)
            v = ids.get(w)
            if w == key:
                v = -1
            elif v is None:
                if du == radius:
                    escaped = True
                    v = -1
                else:
                    v = len(order)
                    if v >= element_cap:
                        raise MemoryCapExceededError(element_cap)
                    ids[w] = v
                    order.append(w)
                    distance.append(du + 1)
            neighbors.append(v)
    n = len(gens)
    return BallGraph(
        radius=radius,
        order=order,
        neighbors=neighbors,
        layer=[bisect_left(distance, d) for d in range(radius + 2)],
        exhausted=not escaped,
        outer_edges=any(distance[i // n] == distance[v] == radius
                        for i, v in enumerate(neighbors) if v >= 0),
        generator_names=tuple(oracle.generators),
        inverse=None,
    )


def distances(ball):
    """Id -> distance from the identity, read off the spheres."""
    return [d for d in range(ball.radius + 1) for _ in ball.sphere(d)]


def reference_render_dot(ball):
    """The DOT text of `ball`, one vertex at a time: a set of (v, name) pairs
    per id u, sorted."""
    names, inverse, neighbors = ball.generator_names, ball.inverse, ball.neighbors
    n = len(names)
    lines = ["graph ball {"]
    lines += [f'  n{u} [label="d={d}"];' for u, d in enumerate(distances(ball))]
    # each edge {u, v} once per label, under its smaller end u, sorted by
    # (v, label); v -> u carries the inverse label of u -> v
    for u in range(len(ball.order)):
        ends = set()
        for g in range(n):
            v = neighbors[u * n + g]
            if v > u:
                ends.add((v, names[g]))
                ends.add((v, names[inverse[g]]))
        lines += [f'  n{u} -- n{v} [label="{name}"];' for v, name in sorted(ends)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def ball_fields(ball):
    """Every BallGraph field but `inverse`."""
    return {name: value for name, value in ball._asdict().items() if name != "inverse"}


def ball_rows(ball):
    """Neighbor ids of each id: its filled slots, in generator order."""
    n = len(ball.generator_names)
    return [[v for v in ball.neighbors[u * n:u * n + n] if v >= 0] for u in range(len(ball.order))]


def edge_count(ball):
    """Undirected edges: each fills two slots, one at each end."""
    return sum(v >= 0 for v in ball.neighbors) // 2


def reference_per_radius(ball, r_min, r_max):
    """Brute-force outer counts: for each r, a fresh search for the components
    of the subgraph induced on distances in [r, R] that contain a distance-R
    element.  An exhausted ball counts 0 everywhere."""
    rows, distance = ball_rows(ball), distances(ball)
    counts = []
    for r in range(r_min, r_max + 1):
        keep = {u for u, d in enumerate(distance) if d >= r}
        seen = set()
        count = 0
        for start in sorted(keep):
            if start in seen:
                continue
            seen.add(start)
            stack = [start]
            touches = False
            while stack:
                u = stack.pop()
                touches = touches or distance[u] == ball.radius
                for v in rows[u]:
                    if v in keep and v not in seen:
                        seen.add(v)
                        stack.append(v)
            count += touches
        counts.append((r, 0 if ball.exhausted else count))
    return tuple(counts)


def reference_peel(ball, r_min):
    """The peel of every layer from the outer sphere down to r_min, the
    outer one included: union-find over the slots holding an id of the
    layer or above, counting the components that hold an outer root."""
    neighbors, layer = ball.neighbors, ball.layer
    n = len(ball.generator_names)
    outer = layer[ball.radius]
    root = list(range(len(ball.order)))
    count = len(ball.order) - outer
    counts = [0] * (ball.radius + 1)
    for d in range(ball.radius, r_min - 1, -1):
        lo = layer[d]
        for u in range(lo, layer[d + 1]):
            a = u
            while root[a] != a:
                root[a] = a = root[root[a]]
            base = u * n
            for v in neighbors[base:base + n]:
                if v >= lo:
                    b = v
                    while root[b] != b:
                        root[b] = b = root[root[b]]
                    if a != b:
                        if a < b:
                            a, b = b, a
                        root[b] = a
                        if b >= outer:
                            count -= 1
        counts[d] = count
    return counts


def test_z_ball():
    ball = build_ball(oracle_from_spec("z:1"), 3)
    assert len(ball.order) == 7
    assert distances(ball) == [0, 1, 1, 2, 2, 3, 3]
    assert not ball.exhausted


def test_f2_sphere_sizes():
    ball = build_ball(oracle_from_spec("free:2"), 6)
    sizes = [len(ball.sphere(d)) for d in range(7)]
    assert sizes[0] == 1
    assert sizes[1:] == [4 * 3 ** (r - 1) for r in range(1, 7)]
    assert len(ball.order) == sum(sizes)


def test_finite_coxeter_ball_exhausts():
    ball = build_ball(coxeter_oracle("st", [("s", "t", 3)]), 10)
    assert len(ball.order) == 6
    assert ball.exhausted


def test_zxz_ball_is_l1_diamond():
    ball = build_ball(oracle_from_spec("prod:z:1xz:1"), 2)
    assert len(ball.order) == 13


def test_element_cap_is_an_error():
    with pytest.raises(MemoryCapExceededError):
        build_ball(oracle_from_spec("free:2"), 8, element_cap=100)


@pytest.mark.parametrize("spec, radius, size", [
    ("free:2", 4, 161),  # bipartite: the outer sphere is not multiplied
    ("zmod:7", 2, 5),  # the outer sphere is multiplied outward and escapes
    ("zmod:7", 3, 7),  # ... and finds the edge inside it
])
def test_element_cap_equal_to_the_ball_size_is_enough(spec, radius, size):
    ball = build_ball(oracle_from_spec(spec), radius, element_cap=size)
    assert len(ball.order) == size
    assert ball.exhausted == (size == 7)
    with pytest.raises(MemoryCapExceededError):
        build_ball(oracle_from_spec(spec), radius, element_cap=size - 1)


@st.composite
def coxeter_oracles(draw):
    n = draw(st.integers(1, 4))
    labels = st.sampled_from([2, 3, 4, 5, 6, 7, None])
    edges = [(u, v, m) for u, v in itertools.combinations(range(n), 2)
             if (m := draw(labels)) is not None]
    return coxeter_oracle(range(n), edges)


simple_oracles = st.one_of(
    coxeter_oracles(),
    st.integers(0, 3).map(lambda n: oracle_from_spec(f"z:{n}")),
    st.integers(0, 2).map(lambda n: oracle_from_spec(f"free:{n}")),
    st.integers(1, 6).map(lambda n: oracle_from_spec(f"zmod:{n}")),
)
oracles = st.one_of(
    simple_oracles,
    *(st.builds(lambda a, b, cls=cls: cls([a, b]), simple_oracles, simple_oracles)
      for cls in (DirectProductOracle, FreeProductOracle)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(oracles, st.integers(0, 6), st.integers(1, 3000))
def test_build_ball_matches_the_reference(oracle, radius, cap):
    elements = [normalize(oracle, [g]) for g in range(len(oracle.generators))]
    if len(set(elements)) < len(elements):  # two trivial parts, say
        with pytest.raises(EndscopeError, match="must be distinct and inverse-closed"):
            build_ball(oracle, radius, element_cap=cap)
        return
    try:
        expected = reference_build_ball(oracle, radius, element_cap=cap)
    except MemoryCapExceededError:
        with pytest.raises(MemoryCapExceededError):
            build_ball(oracle, radius, element_cap=cap)
        return
    ball = build_ball(oracle, radius, element_cap=cap)
    assert ball_fields(ball) == ball_fields(expected)
    # the edge u -> v labeled g comes back as v -> u labeled inverse[g]
    n = len(oracle.generators)
    assert all(ball.neighbors[v * n + ball.inverse[i % n]] == i // n
               for i, v in enumerate(ball.neighbors) if v >= 0)


def test_neighbor_table_is_symmetric_and_empty_where_the_reference_is():
    cases = [(spec, 5) for spec in CAYLEY_GRID_SPECS]
    cases += list(ODD_SPECS)
    cases += [("prod:zmod:1xz:1", 4), ("zmod:1", 2), ("z:0", 2)]  # identity generators
    cases += [("zmod:7", 3), ("zmod:40", 24)]  # exhausted
    for spec, radius in cases:
        oracle = oracle_from_spec(spec)
        ball = build_ball(oracle, radius)
        expected = reference_build_ball(oracle, radius)
        n = len(oracle.generators)
        assert len(ball.neighbors) == len(ball.order) * n, spec
        # -1 exactly where the reference finds no neighbor inside the ball
        assert [v < 0 for v in ball.neighbors] == [v < 0 for v in expected.neighbors], spec
        for i, v in enumerate(ball.neighbors):
            u, g = divmod(i, n)
            if v >= 0:
                # slot g of u is v iff slot inverse[g] of v is u: the converse
                # is this check at (v, inverse[g]), as inverse is an involution
                assert ball.neighbors[v * n + ball.inverse[g]] == u, (spec, u, g)
                assert oracle.multiply(ball.order[u], g) == ball.order[v], (spec, u, g)


class CountingOracle(GroupOracle):
    """Delegates to `inner` and counts its multiplies."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0
        self.name, self.identity = inner.name, inner.identity
        self.generators, self.bipartite = inner.generators, inner.bipartite

    def multiply(self, key, gen):
        self.calls += 1
        return self.inner.multiply(key, gen)


def test_a_bipartite_ball_multiplies_once_per_edge():
    specs = ["z:2", "free:2", "zmod:6", "i2:5", "prod:free:1xzmod:2", "freeprod:i2:4xzmod:2"]
    cases = [(oracle_from_spec(spec), 6) for spec in specs]
    cases += [(oracle, 5) for _, oracle in sweep_oracles()]
    for inner, radius in cases:
        assert inner.bipartite, inner.name
        oracle = CountingOracle(inner)
        ball = build_ball(oracle, radius)
        n = len(oracle.generators)
        # n + n^2 to derive the inverses, then one per undirected edge
        assert oracle.calls == n + n * n + edge_count(ball), inner.name


def has_edge_inside_a_sphere(ball):
    distance = distances(ball)
    return any(distance[u] == distance[v] for u, nbrs in enumerate(ball_rows(ball)) for v in nbrs)


def test_bipartite_declarations_are_sound():
    for spec in CAYLEY_GRID_SPECS:
        oracle = oracle_from_spec(spec)
        assert oracle.bipartite != has_edge_inside_a_sphere(reference_build_ball(oracle, 6)), spec
    for edges, oracle in sweep_oracles():
        assert oracle.bipartite, edges
        assert not has_edge_inside_a_sphere(reference_build_ball(oracle, 6)), edges
    for spec in ["zmod:5", "freeprod:zmod:2xzmod:3"]:
        oracle = oracle_from_spec(spec)
        assert not oracle.bipartite
        assert has_edge_inside_a_sphere(reference_build_ball(oracle, 6)), spec


class StepOracle(GroupOracle):
    """Z/m generated by the listed steps, one generator each."""

    def __init__(self, m, steps):
        self.name, self.identity, self.m, self.steps = f"steps{steps}", 0, m, steps
        self.generators = tuple(f"s{i}" for i in range(len(steps)))

    def multiply(self, key, gen):
        return (key + self.steps[gen]) % self.m


def test_generators_must_be_distinct_and_inverse_closed():
    assert build_ball(StepOracle(4, (1, 3)), 3).exhausted
    bad = [
        StepOracle(4, (1, 1, 3)),  # two equal generators
        StepOracle(2, (1, 1)),  # two equal involutions
        StepOracle(3, (1,)),  # the inverse 2 is not a generator
        oracle_from_spec("prod:zmod:1xzmod:1"),  # two identity generators
    ]
    for oracle in bad:
        with pytest.raises(EndscopeError, match="must be distinct and inverse-closed"):
            build_ball(oracle, 3)


def test_ball_distance_invariants():
    specs = ["z:1", "z:2", "free:2", "i2:4", "freeprod:zmod:2xzmod:2",
             "freeprod:zmod:2xzmod:3", "prod:z:1xzmod:3"]  # the last two not bipartite
    for spec in specs:
        ball = build_ball(oracle_from_spec(spec), 5)
        # the spheres split the ids, in order, and sphere 0 is the identity
        assert ball.layer[:2] == [0, 1] and ball.layer[-1] == len(ball.order)
        assert ball.layer == sorted(ball.layer)
        distance = distances(ball)
        # adjacent elements differ in distance by at most 1
        rows = ball_rows(ball)
        for u, nbrs in enumerate(rows):
            for v in nbrs:
                assert abs(distance[u] - distance[v]) <= 1
        # every non-identity element has a neighbor one step closer
        for u in range(1, len(ball.order)):
            assert any(distance[v] == distance[u] - 1 for v in rows[u])
        # the estimate agrees with the per-radius reference search
        est = estimate_ends(ball, 0, 3)
        assert est.per_radius == reference_per_radius(ball, 0, 3), spec


def test_estimate_matches_reference_on_the_sweep_diagrams():
    for _, (n, edges) in distinct_small_diagrams():
        ball = build_ball(CoxeterOracle(CoxeterSystem(LabeledGraph.build(range(n), edges))), 6)
        assert estimate_ends(ball, 0, 4).per_radius == reference_per_radius(ball, 0, 4), edges


def test_estimate_matches_reference_on_circulant_graphs():
    """Z/m on two steps and their inverses: edges inside a sphere let an id's
    root change before the peel reaches that id."""
    for m in range(5, 21):
        for a, b in itertools.combinations(range(1, m // 2 + 1), 2):
            oracle = StepOracle(m, tuple(sorted({a, b, m - a, m - b})))
            for radius in (4, 5):
                ball = build_ball(oracle, radius)
                window = (0, radius - 2)
                assert estimate_ends(ball, *window).per_radius == reference_per_radius(
                    ball, *window), (m, a, b, radius)


# not bipartite: an odd relator puts edges inside the outer sphere
ODD_SPECS = (("zmod:5", 2), ("zmod:5", 6), ("freeprod:zmod:2xzmod:3", 6), ("prod:z:1xzmod:3", 5))


def test_has_outer_edges_matches_the_rows():
    cases = [(spec, 5) for spec in CAYLEY_GRID_SPECS] + list(ODD_SPECS)
    seen = set()
    for spec, radius in cases:
        ball = build_ball(oracle_from_spec(spec), radius)
        rows = ball_rows(ball)
        outer = ball.sphere(ball.radius)
        expected = any(v in outer for u in outer for v in rows[u])
        assert ball.outer_edges == expected, spec
        assert not expected or not oracle_from_spec(spec).bipartite, spec
        seen.add(expected)
    assert seen == {False, True}


def test_peel_matches_the_peel_of_every_layer():
    """_peel skips the outer layer when it has no edges; the peel that runs
    every layer gives the same counts on every r_min."""
    balls = [build_ball(oracle_from_spec(spec), radius)
             for spec, radius in [(spec, 5) for spec in CAYLEY_GRID_SPECS] + list(ODD_SPECS)]
    balls += [build_ball(CoxeterOracle(CoxeterSystem(LabeledGraph.build(range(n), edges))), 6)
              for _, (n, edges) in distinct_small_diagrams()]
    for ball in balls:
        for r_min in range(ball.radius + 1):
            assert _peel(ball, r_min) == reference_peel(ball, r_min), (ball.generator_names, r_min)
    assert any(ball.outer_edges for ball in balls)


def test_sweep_ball_dot_matches_pinned_digest():
    digest = hashlib.sha256()
    for _, (n, edges) in distinct_small_diagrams():
        ball = build_ball(CoxeterOracle(CoxeterSystem(LabeledGraph.build(range(n), edges))), 6)
        digest.update(render_dot(ball).encode("utf-8"))
    assert digest.hexdigest() == SWEEP_DOT_DIGEST


@pytest.mark.parametrize("name", sorted(PINNED_COXETER_DOTS))
def test_coxeter_ball_dot_matches_pinned_digest(name):
    verts, edges, radius, digest = PINNED_COXETER_DOTS[name]
    dot = render_dot(build_ball(coxeter_oracle(verts, edges), radius))
    assert hashlib.sha256(dot.encode("utf-8")).hexdigest() == digest


def test_render_dot_matches_the_reference():
    cases = [(spec, 5) for spec in CAYLEY_GRID_SPECS]
    cases += [("zmod:5", 6), ("freeprod:zmod:2xzmod:3", 6)]  # not bipartite
    cases += [("prod:zmod:1xz:1", 4)]  # an identity generator
    cases += [("zmod:40", 24)]  # exhausted
    for spec, radius in cases:
        ball = build_ball(oracle_from_spec(spec), radius)
        assert render_dot(ball) == reference_render_dot(ball), spec
    assert ball.exhausted  # zmod:40 at radius 24, the last case


def test_render_dot_refuses_a_generator_it_cannot_quote():
    ball = build_ball(coxeter_oracle(['a"b', "c"], [('a"b', "c", 3)]), 2)
    with pytest.raises(EndscopeError, match="cannot write generator 'a\"b' to DOT"):
        render_dot(ball)


@st.composite
def named_step_oracles(draw):
    """A StepOracle on inverse-closed distinct steps of Z/m, 0 allowed, whose
    generator names are shuffled, so a name can sort before or after its
    inverse's."""
    m = draw(st.integers(1, 12))
    picked = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=4))
    steps = sorted(picked | {-s % m for s in picked})
    oracle = StepOracle(m, tuple(steps))
    oracle.generators = tuple(draw(st.permutations(oracle.generators)))
    return oracle


@settings(max_examples=200, deadline=None, derandomize=True)
@given(named_step_oracles(), st.integers(0, 5))
def test_render_dot_matches_the_reference_on_shuffled_names(oracle, radius):
    ball = build_ball(oracle, radius)
    assert render_dot(ball) == reference_render_dot(ball)


@st.composite
def diagrams_and_words(draw):
    n = draw(st.integers(1, 4))
    labels = st.sampled_from([2, 3, 4, 5, 6, 7, None])
    edges = [(u, v, m) for u, v in itertools.combinations(range(n), 2)
             if (m := draw(labels)) is not None]
    words = st.lists(st.integers(0, n - 1), max_size=8)
    return CoxeterSystem(LabeledGraph.build(range(n), edges)), draw(words), draw(words)


@settings(max_examples=150, deadline=None)
@given(diagrams_and_words())
def test_coxeter_keys_agree_with_the_braid_normal_form(case):
    sys_, u, v = case
    oracle = CoxeterOracle(sys_)
    gens = sys_.generators
    key_u, key_v = normalize(oracle, u), normalize(oracle, v)
    assert type(key_u) is int  # exact: no floating point
    nf_u = tits_normal_form([gens[g] for g in u], sys_)
    nf_v = tits_normal_form([gens[g] for g in v], sys_)
    assert (key_u == key_v) == (nf_u == nf_v)
    # a word and its normal form name one element
    assert normalize(oracle, (gens.index(g) for g in nf_u)) == key_u


class TupleCoxeterOracle(GroupOracle):
    """The tuple reference: w(rho) as the tuple of its n*d coordinates,
    multiplied straight from tits_cone_action's table."""

    bipartite = True

    def __init__(self, sys_):
        self.name = "coxeter"
        self.generators = tuple(str(v) for v in sys_.generators)
        self.identity, self.action = tits_cone_action(sys_)

    def multiply(self, key, gen):
        out = [*key]
        for src, column in self.action[gen]:
            f = key[src]
            out[src] = -f
            for dst, c in column:
                out[dst] += c * f
        return tuple(out)


def coxeter_coordinates(oracle, key, k):
    """The k coordinates of a packed Coxeter key, read by the documented
    layout: field j is the `width` bits from bit width * j up, holding
    x_j + 2^(v-1) in its low v = `value_bits` bits, its guard bits clear."""
    w, v = oracle.width, oracle.value_bits
    fields = [(key >> (w * j)) & ((1 << w) - 1) for j in range(k)]
    assert key >> (w * k) == 0, "more than k fields"
    assert all(field >> v == 0 for field in fields), "a guard bit is set"
    return tuple(field - (1 << (v - 1)) for field in fields)


def coxeter_key(oracle, coords):
    """The packed key of the coordinates `coords`, by the documented layout."""
    w, v = oracle.width, oracle.value_bits
    return sum((x + (1 << (v - 1))) << (w * j) for j, x in enumerate(coords))


def random_coxeter_diagrams(count, seed):
    """(n, edges) of diagrams on 1-3 vertices, labels 2-12 or absent."""
    rng = random.Random(seed)
    labels = [*range(2, 13), None]
    for _ in range(count):
        n = rng.randint(1, 3)
        yield n, [(u, v, m) for u, v in itertools.combinations(range(n), 2)
                  if (m := rng.choice(labels)) is not None]


def test_coxeter_keys_decode_to_the_tuple_reference():
    cases = [(n, edges, 7) for _, (n, edges) in distinct_small_diagrams()]
    cases += [(n, edges, 4) for n, edges in random_coxeter_diagrams(30, 47)]
    for n, edges, radius in cases:
        sys_ = CoxeterSystem(LabeledGraph.build(range(n), edges))
        oracle, reference = CoxeterOracle(sys_), TupleCoxeterOracle(sys_)
        ball, expected = build_ball(oracle, radius), build_ball(reference, radius)
        k = len(reference.identity)
        # element for element, in the same BFS order, with the same table
        assert [coxeter_coordinates(oracle, key, k) for key in ball.order] == expected.order, edges
        assert ball._replace(order=None) == expected._replace(order=None), edges


def test_a_coxeter_oracle_refuses_labels_whose_lcm_passes_its_bound(monkeypatch):
    # random_coxeter_diagrams reach lcm(9, 10, 11) = 990, and the bench builds i2:420
    assert MAX_LABEL_LCM >= 990

    def cyclotomic(n):
        raise AssertionError("the bound is checked before Phi_2M is built")

    monkeypatch.setattr(coxeter, "_cyclotomic", cyclotomic)
    for edges, lcm in [([("a", "b", MAX_LABEL_LCM + 1)], MAX_LABEL_LCM + 1),
                       ([("a", "b", 31), ("b", "c", 37), ("a", "c", 3)], 1147),
                       ([("a", "b", 99999999999)], 99999999999)]:
        with pytest.raises(LabelLcmExceededError) as info:
            CoxeterOracle(CoxeterSystem(LabeledGraph.build("abc", edges)))
        assert isinstance(info.value, EndscopeError) and info.value.exit_code == 4
        assert str(info.value) == (f"the Coxeter labels have lcm {lcm}, above the"
                                   f" oracle's bound {MAX_LABEL_LCM}")


# I2(inf), B3, H3 and the 4/5/3 path: labels inf and 2-5, d = 1 and 2
FIELD_EDGE_DIAGRAMS = [
    ("st", []),
    ("abc", [("a", "b", 4), ("b", "c", 3), ("a", "c", 2)]),
    ("abc", [("a", "b", 5), ("b", "c", 3), ("a", "c", 2)]),
    ("abcd", [("a", "b", 4), ("b", "c", 5), ("c", "d", 3)]),
]


def test_coxeter_keys_raise_past_the_edge_of_a_field():
    sys_ = CoxeterSystem(LabeledGraph.build("st", []))
    oracle = CoxeterOracle(sys_)
    top = 1 << (oracle.value_bits - 1)  # a coordinate x is in range iff -top <= x < top
    # s adds 2 x_s to x_t: x_t = top - 3 stays in range, top - 1 leaves it
    key = coxeter_key(oracle, (1, top - 3))
    assert coxeter_coordinates(oracle, oracle.multiply(key, 0), 2) == (-1, top - 1)
    for coords in [(1, top - 1), (-1, -top), (-top, 0)]:
        with pytest.raises(KeyWidthExceededError) as info:
            oracle.multiply(coxeter_key(oracle, coords), 0)
        assert isinstance(info.value, EndscopeError) and info.value.exit_code == 4
        assert str(info.value) == f"a Coxeter key coordinate outgrew its {oracle.width}-bit field"
    # every in-range key, coordinates at or near the edges: a multiply gives
    # the reference's coordinates when they are in range, else raises
    rng = random.Random(53)
    outcomes = set()
    for verts, edges in FIELD_EDGE_DIAGRAMS:
        sys_ = CoxeterSystem(LabeledGraph.build(verts, edges))
        oracle, reference = CoxeterOracle(sys_), TupleCoxeterOracle(sys_)
        k = len(reference.identity)
        top = 1 << (oracle.value_bits - 1)
        for _ in range(300):
            coords = tuple(rng.choice([-top, -top + 1, top - 2, top - 1, rng.randrange(-top, top),
                                       rng.randint(-3, 3)]) for _ in range(k))
            key = coxeter_key(oracle, coords)
            assert coxeter_coordinates(oracle, key, k) == coords
            for g in range(len(verts)):
                out = reference.multiply(coords, g)
                fits = all(-top <= x < top for x in out)
                outcomes.add(fits)
                if fits:
                    assert coxeter_coordinates(oracle, oracle.multiply(key, g), k) == out, (verts, g)
                else:
                    with pytest.raises(KeyWidthExceededError):
                        oracle.multiply(key, g)
    assert outcomes == {False, True}


def test_coxeter_ball_keys_hash_apart():
    # as test_zn_ball_keys_hash_apart: tuple keys holding -1 and -2, which
    # hash alike, put 162 of the 1,456 keys of freeprod:i2:6xz:1 at radius 6
    # on a hash shared with another key
    balls = [build_ball(oracle, 7) for _, oracle in sweep_oracles()]
    balls += [build_ball(oracle_from_spec(spec), radius)
              for spec, radius in [("freeprod:i2:6xz:1", 6), ("i2:6", 8)]]
    for ball in balls:
        assert len(set(map(hash, ball.order))) == len(ball.order), ball.generator_names


def test_ball_serialization_deterministic():
    a = render_dot(build_ball(oracle_from_spec("free:2"), 4))
    b = render_dot(build_ball(oracle_from_spec("free:2"), 4))
    assert a == b


def test_estimate_z_two_ends():
    ball = build_ball(oracle_from_spec("z:1"), 12)
    est = estimate_ends(ball, 2, 8)
    assert est.verdict == "stabilized" and est.ends == EndCount.TWO
    assert all(c == 2 for _, c in est.per_radius)


def test_estimate_z2_one_end():
    ball = build_ball(oracle_from_spec("z:2"), 10)
    est = estimate_ends(ball, 2, 6)
    assert est.verdict == "stabilized" and est.ends == EndCount.ONE


def test_estimate_f2_growing():
    ball = build_ball(oracle_from_spec("free:2"), 8)
    est = estimate_ends(ball, 1, 5)
    assert [c for _, c in est.per_radius] == [4, 12, 36, 108, 324]
    assert est.verdict == "growing_to_infinity"


def test_estimate_finite_group_zero_ends():
    ball = build_ball(coxeter_oracle("st", [("s", "t", 3)]), 10)
    est = estimate_ends(ball, 2, 8)
    assert est.verdict == "stabilized" and est.ends == EndCount.ZERO


def test_estimate_free_products_of_z2():
    two = build_ball(oracle_from_spec("freeprod:zmod:2xzmod:2"), 12)
    est = estimate_ends(two, 2, 8)
    assert est.verdict == "stabilized" and est.ends == EndCount.TWO
    three = build_ball(oracle_from_spec("freeprod:zmod:2xzmod:2xzmod:2"), 10)
    est = estimate_ends(three, 2, 6)
    assert est.verdict == "growing_to_infinity"


def test_estimate_closing_ball_is_inconclusive():
    # D4: order 192, longest element length 12, so the radius-10 ball is
    # unexhausted but its outer spheres shrink; no stabilized verdict
    oracle = coxeter_oracle(
        "abcd",
        [("a", "b", 2), ("a", "c", 2), ("a", "d", 3),
         ("b", "c", 2), ("b", "d", 3), ("c", "d", 3)],
    )
    ball = build_ball(oracle, 10)
    assert not ball.exhausted
    est = estimate_ends(ball, 2, 8)
    assert est.verdict == "inconclusive"


def test_estimate_window_validation():
    ball = build_ball(oracle_from_spec("z:1"), 6)
    with pytest.raises(EndscopeError, match="r_max 5 leaves no margin below radius 6"):
        estimate_ends(ball, 2, 5)  # no margin below the radius
    with pytest.raises(EndscopeError, match=r"bad window \[3, 2\]"):
        estimate_ends(ball, 3, 2)


def test_component_counts_monotone_in_r():
    for spec in ["z:1", "z:2", "free:2", "freeprod:zmod:2xzmod:2xzmod:2"]:
        ball = build_ball(oracle_from_spec(spec), 9)
        est = estimate_ends(ball, 1, 7)
        counts = [c for _, c in est.per_radius]
        assert counts == sorted(counts), spec


def zn_coordinates(key, n):
    """The coordinates of a z:n key: the n balanced base-B digits of the key
    less the identity's key."""
    base = ZnOracle.radix
    key -= ZnOracle(n).identity
    coords = []
    for _ in range(n):
        x = (key + base // 2) % base - base // 2
        coords.append(x)
        key = (key - x) // base
    assert key == 0, "more than n digits"
    return tuple(coords)


def zn_key(coords):
    base = ZnOracle.radix
    return base ** len(coords) + sum(x * base**i for i, x in enumerate(coords))


def tuple_multiply(coords, gen):
    """The tuple reference: generator 2i adds 1 to x_i, 2i + 1 subtracts 1."""
    i, sign = divmod(gen, 2)
    return coords[:i] + (coords[i] + (-1 if sign else 1),) + coords[i + 1:]


def test_zn_keys_decode_to_the_tuple_reference():
    rng = random.Random(43)
    for n in range(5):
        oracle = oracle_from_spec(f"z:{n}")
        assert zn_coordinates(oracle.identity, n) == (0,) * n
        for _ in range(300):
            word = [rng.randrange(2 * n) for _ in range(rng.randint(0, 16))] if n else []
            coords = (0,) * n
            for g in word:
                coords = tuple_multiply(coords, g)
            assert zn_coordinates(normalize(oracle, word), n) == coords, (n, word)
        # near the bound |x_i| < B/2, where a carry would corrupt a neighbour
        # and a key could reach 0
        big = ZnOracle.radix // 2 - 2
        for _ in range(100):
            coords = tuple(rng.choice((-big, big, rng.randint(-big, big))) for _ in range(n))
            key = zn_key(coords)
            assert key > 0 and zn_coordinates(key, n) == coords
            for g in range(2 * n):
                assert zn_coordinates(oracle.multiply(key, g), n) == tuple_multiply(coords, g)


def test_zn_ball_keys_are_coordinates_at_l1_distance():
    for n, radius in [(0, 3), (1, 8), (2, 6), (3, 5), (4, 4)]:
        ball = build_ball(oracle_from_spec(f"z:{n}"), radius)
        points = [zn_coordinates(key, n) for key in ball.order]
        assert len(set(points)) == len(points)
        assert [sum(map(abs, p)) for p in points] == distances(ball), n


def test_zn_ball_keys_hash_apart():
    # a dict probe walks every key that shares its hash, so keys piled onto
    # few hash values would make each lookup linear in the radius; -1 and -2
    # are the one pair of ints that hash alike, so z keys are positive: a
    # product's tuple keys holding a -1 would pile up in pairs
    for spec, radius in [("z:1", 1000), ("z:2", 100), ("z:3", 20), ("z:4", 10), ("z:6", 5),
                         ("prod:z:2xzmod:3", 60), ("prod:z:1xz:1xz:1", 20),
                         ("freeprod:z:2xfree:1", 6), ("prod:free:2xz:1", 6)]:
        keys = build_ball(oracle_from_spec(spec), radius).order
        assert len(set(map(hash, keys))) == len(keys), spec


def test_free_ball_keys_hash_apart():
    # a reduced word is one int >= 0 in base 2n + 1, and ints below 2^61 - 1
    # hash to themselves; words over the letters +-(i + 1) piled up, since
    # hash(-1) == hash(-2)
    for spec, radius in [("free:2", 9), ("free:3", 6), ("prod:free:2xfree:2", 5)]:
        keys = build_ball(oracle_from_spec(spec), radius).order
        assert len(set(map(hash, keys))) == len(keys), spec


def test_oracle_congruence_on_random_words():
    rng = random.Random(41)
    oracles = [
        oracle_from_spec("z:2"),
        oracle_from_spec("free:2"),
        oracle_from_spec("zmod:5"),
        coxeter_oracle("stu", [("s", "t", 3), ("t", "u", 3)]),
        FreeProductOracle([oracle_from_spec("zmod:2"), oracle_from_spec("zmod:3")]),
    ]
    for oracle in oracles:
        gens = range(len(oracle.generators))
        for _ in range(200):
            u = [rng.choice(gens) for _ in range(rng.randint(0, 6))]
            v = [rng.choice(gens) for _ in range(rng.randint(0, 6))]
            lhs = normalize(oracle, u + v)
            rhs = normalize(oracle, u)
            for g in v:
                rhs = oracle.multiply(rhs, g)
            assert lhs == rhs, (oracle.name, u, v)
