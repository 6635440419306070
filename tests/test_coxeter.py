"""Coxeter engine: finite-type recognition, end counts, and the braid-move
Tits normal form kept here as a reference for the exact oracle's keys."""

import functools
import itertools
import math
import random
import time
from collections import deque

import numpy
import pytest

from endscope.atoms import EndCount
from endscope.coxeter import (
    CoxeterSystem,
    FiniteTypeReport,
    _classify_component,
    _cyclotomic,
    _match_two_ended,
    artin_one_ended,
    coxeter_ends,
    is_finite_type,
)
from endscope.cayley import CoxeterOracle, build_ball
from endscope.errors import MemoryCapExceededError
from endscope.graphs import LabeledGraph, induced_subgraph


def system(verts, edges=()):
    return CoxeterSystem(LabeledGraph.build(verts, edges))


def exhausted_ball(sys_):
    """The whole group as a Cayley ball, or None when it is infinite.

    An infinite group never exhausts its ball.  Radius 25 and 2000 elements
    cover every finite group tested here: among those with labels <= 4 on
    <= 4 generators, F4 has the longest element (length 24) and the largest
    order (1152), so running into the cap also means infinite."""
    try:
        ball = build_ball(CoxeterOracle(sys_), 25, element_cap=2000)
    except MemoryCapExceededError:
        return None
    return ball if ball.exhausted else None


FINITE_ORDERS = {
    # diagram -> group order, independent of the decider (classical orders)
    "A1": (system("a"), 2),
    "A1xA1": (system("ab", [("a", "b", 2)]), 4),
    "A2": (system("ab", [("a", "b", 3)]), 6),
    "I2(5)": (system("ab", [("a", "b", 5)]), 10),
    "A3": (system("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 2)]), 24),
    "B3": (system("abc", [("a", "b", 4), ("b", "c", 3), ("a", "c", 2)]), 48),
    "H3": (system("abc", [("a", "b", 5), ("b", "c", 3), ("a", "c", 2)]), 120),
    "A1xA2": (
        system("abc", [("a", "b", 3), ("b", "c", 2), ("a", "c", 2)]),
        12,
    ),
}


def test_finite_type_catalog_orders():
    for name, (sys_, order) in FINITE_ORDERS.items():
        assert is_finite_type(sys_).is_finite, name
        ball = exhausted_ball(sys_)
        assert ball is not None and len(ball.order) == order, name


def test_finite_type_families_reported():
    ft = is_finite_type(system("abc", [("a", "b", 4), ("b", "c", 3), ("a", "c", 2)]))
    families = {fam for _, fam in ft.component_types}
    assert families == {"B3"}


def test_path_classified_one_way_round_raises(monkeypatch):
    # a classifier that read the labels in order would call B3 and its
    # reversal different families; the check must catch that, under -O too
    monkeypatch.setattr("endscope.coxeter._classify_path", lambda labels: str(labels))
    with pytest.raises(AssertionError, match="classify as"):
        is_finite_type(system("abc", [("a", "b", 4), ("b", "c", 3), ("a", "c", 2)]))


def test_affine_triangle_is_infinite():
    tri = system("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assert not is_finite_type(tri).is_finite
    assert exhausted_ball(tri) is None


def reference_dynkin_components(sys_):
    """Connected components of the diagram in Dynkin convention, by a BFS
    over its own adjacency: generators with m >= 3 (m = inf included) are
    joined, commuting pairs (m = 2) are not."""
    verts = list(sys_.generators)
    adj = {v: [] for v in verts}
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if sys_.m(u, v) >= 3:
                adj[u].append(v)
                adj[v].append(u)
    comps = []
    seen = set()
    for v in verts:
        if v in seen:
            continue
        comp = {v}
        seen.add(v)
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(tuple(x for x in verts if x in comp))
    return comps


def cosine_matrix_positive_definite(sys_):
    """Independent numeric oracle: finite type iff the cosine matrix
    B[i][j] = -cos(pi / m_ij) (with m_ii = 1) is positive definite."""
    g = sys_.diagram
    n = len(g.vertices)
    B = numpy.zeros((n, n))
    for i, u in enumerate(g.vertices):
        for j, v in enumerate(g.vertices):
            if i == j:
                B[i][j] = 1.0
            else:
                m = g.label(u, v)
                B[i][j] = -math.cos(math.pi / m) if m else -1.0
    return bool(numpy.all(numpy.linalg.eigvalsh(B) > 1e-9))


def expected_gram_determinant(tag):
    """(rank, det(2G)) of a finite family's cosine matrix G, from the family's
    closed form."""
    if tag.startswith("I2("):
        m = int(tag[3:-1])
        return 2, 4 * math.sin(math.pi / m) ** 2
    family, n = tag[0], int(tag[1:])
    closed = {"A": n + 1, "B": 2, "D": 4, "E": {6: 3, 7: 2, 8: 1}.get(n), "F": 1,
              "H": {3: 3 - math.sqrt(5), 4: (7 - 3 * math.sqrt(5)) / 2}.get(n)}
    return n, closed[family]


def assert_families_match_the_gram_determinant(sys_, report):
    """Each finite component's tag against its cosine matrix, with no help
    from the classifier: the rank, det(2G) of G_ij = -cos(pi/m_ij), and a
    label-4 bond exactly in B_n and F4 (B7 and E7 share det 2)."""
    for comp, tag in report.component_types:
        if tag == "affine/indefinite":
            continue
        labels = [sys_.m(u, v) for u, v in itertools.combinations(comp, 2)]
        gram = numpy.identity(len(comp))
        for (i, j), m in zip(itertools.combinations(range(len(comp)), 2), labels):
            gram[i, j] = gram[j, i] = -math.cos(math.pi / m)
        rank, det = expected_gram_determinant(tag)
        assert rank == len(comp), (comp, tag)
        assert math.isclose(numpy.linalg.det(2 * gram), det, rel_tol=1e-9), (comp, tag)
        assert (4 in labels) == (tag[0] == "B" or tag == "F4"), (comp, tag)


def dynkin(bonds):
    """Coxeter system on 0..n-1 with label m on each bond (u, v, m), u < v, of
    a Dynkin diagram and 2 on every other pair."""
    labels = {(u, v): m for u, v, m in bonds}
    n = 1 + max(v for _, v, _ in bonds)
    return system(range(n), [(u, v, labels.get((u, v), 2))
                             for u, v in itertools.combinations(range(n), 2)])


def path(*labels):
    return dynkin([(i, i + 1, m) for i, m in enumerate(labels)])


def branched(*arms):
    """Simply laced tree: arms of the given lengths out of vertex 0."""
    bonds, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds.append((prev, nxt, 3))
            prev, nxt = nxt, nxt + 1
    return dynkin(bonds)


# name -> (diagram, family tag); affine diagrams are tagged "affine/indefinite"
DYNKIN_CATALOG = {
    "D5": (branched(1, 1, 2), "D5"),
    "E6": (branched(1, 2, 2), "E6"),
    "E7": (branched(1, 2, 3), "E7"),
    "E8": (branched(1, 2, 4), "E8"),
    "F4": (path(3, 4, 3), "F4"),
    "H3": (path(5, 3), "H3"),
    "H4": (path(5, 3, 3), "H4"),
    "hyperbolic-H5": (path(5, 3, 3, 3), "affine/indefinite"),
    "affine-E6": (branched(2, 2, 2), "affine/indefinite"),
    "affine-E7": (branched(1, 3, 3), "affine/indefinite"),
    "affine-E8": (branched(1, 2, 5), "affine/indefinite"),
    "affine-D4": (branched(1, 1, 1, 1), "affine/indefinite"),
    "affine-F4": (path(3, 3, 4, 3), "affine/indefinite"),
}


@pytest.mark.parametrize("name", DYNKIN_CATALOG)
def test_dynkin_catalog_families(name):
    sys_, family = DYNKIN_CATALOG[name]
    report = is_finite_type(sys_)
    assert report.component_types == ((sys_.diagram.vertices, family),)
    assert report.is_finite == (family != "affine/indefinite")
    assert report.is_finite == cosine_matrix_positive_definite(sys_)
    assert_families_match_the_gram_determinant(sys_, report)


def test_every_short_dynkin_path_matches_its_cosine_matrix():
    # all 1,364 paths of 2-6 vertices with labels 3-6, against the numeric
    # oracles, which share no code with the path classifier
    families = set()
    for length in range(1, 6):
        for labels in itertools.product(range(3, 7), repeat=length):
            sys_ = path(*labels)
            report = is_finite_type(sys_)
            assert report.is_finite == cosine_matrix_positive_definite(sys_), labels
            assert_families_match_the_gram_determinant(sys_, report)
            families.update(tag for _, tag in report.component_types)
    assert families == {*(f"A{n}" for n in range(2, 7)), *(f"B{n}" for n in range(2, 7)),
                        "F4", "H3", "H4", "I2(5)", "I2(6)", "affine/indefinite"}


def test_finite_type_agrees_with_cosine_matrix_eigenvalues():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        verts = list(range(n))
        edges = [
            (u, v, rng.choice([2, 3, 4, 5, 6]))
            for u, v in itertools.combinations(verts, 2)
            if rng.random() < 0.6
        ]
        sys_ = CoxeterSystem(LabeledGraph.build(verts, edges))
        report = is_finite_type(sys_)
        assert report.is_finite == cosine_matrix_positive_definite(sys_), edges
        assert [comp for comp, _ in report.component_types] == reference_dynkin_components(sys_)


def reference_is_finite_type(sys_):
    """The recogniser that built the Dynkin graph from all n^2 pairs and
    classified each of its components; a component whose pairs are all
    related goes to the same `_classify_component`."""
    verts = sys_.generators
    adjacency = {v: tuple(w for w in verts if w != v and sys_.m(v, w) >= 3) for v in verts}
    types = []
    for comp in reference_dynkin_components(sys_):
        if len(comp) == 1:
            tag = "A1"
        elif any(sys_.m(u, v) == math.inf for u, v in itertools.combinations(comp, 2)):
            tag = "affine/indefinite"
        else:
            tag = _classify_component(sys_, comp, adjacency)
        types.append((comp, tag))
    return FiniteTypeReport(all(tag != "affine/indefinite" for _, tag in types), tuple(types))


def random_branched_tree(rng):
    """A simply laced tree on at most 9 shuffled names, every other pair
    commuting: arms of 1, 1-3 and 1-6 vertices out of one branch vertex, so
    D_n and E6-E8 with their affine and indefinite neighbours, and now and
    then a longer first arm or a fourth arm."""
    arms = [rng.choice([1, 1, 1, 1, 1, 1, 2]), rng.randint(1, 3), rng.randint(1, 6)]
    if rng.random() < 0.1:
        arms.append(1)
    while 1 + sum(arms) > 9:
        arms[arms.index(max(arms))] -= 1
    verts = rng.sample([f"s{i}" for i in range(9)], 1 + sum(arms))
    bonds, nxt = set(), 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds.add((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return [(verts[i], verts[j], 3 if (i, j) in bonds else 2)
            for i, j in itertools.combinations(range(len(verts)), 2)], verts


def test_finite_type_matches_the_all_pairs_reference():
    rng = random.Random(29)
    families = set()
    for trial in range(2000):
        if trial % 4 == 3:
            edges, verts = random_branched_tree(rng)
        else:
            verts = rng.sample([f"s{i}" for i in range(9)], rng.randint(1, 9))
            density, commuting = rng.random(), rng.random()
            edges = [
                (u, v, 2 if rng.random() < commuting else rng.choice([3, 3, 3, 4, 5, 6]))
                for u, v in itertools.combinations(verts, 2)
                if rng.random() < density
            ]
        sys_ = CoxeterSystem(LabeledGraph.build(verts, edges))
        report = is_finite_type(sys_)
        assert report == reference_is_finite_type(sys_), (verts, edges)
        assert_families_match_the_gram_determinant(sys_, report)
        families.update(tag for _, tag in report.component_types)
    assert {"A1", "A3", "B3", "H3", "I2(6)", "D4", "D8", "E6", "E7", "E8",
            "affine/indefinite"} <= families


def test_finite_type_agrees_with_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        verts = list(range(n))
        edges = [
            (u, v, rng.choice([2, 3, 4]))
            for u, v in itertools.combinations(verts, 2)
            if rng.random() < 0.7
        ]
        sys_ = CoxeterSystem(LabeledGraph.build(verts, edges))
        assert is_finite_type(sys_).is_finite == (exhausted_ball(sys_) is not None), edges


END_BATTERY = (
    (system("a"), EndCount.ZERO),
    (system("ab", [("a", "b", 5)]), EndCount.ZERO),
    (system("ab"), EndCount.TWO),
    (system("abc", [("a", "b", 2), ("b", "c", 2)]), EndCount.TWO),
    (
        system(
            "abcd",
            [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("d", "a", 2)],
        ),
        EndCount.ONE,
    ),
    (system("abc"), EndCount.INFINITE),
    (system("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]), EndCount.ONE),
)


def test_coxeter_end_battery():
    for sys_, expected in END_BATTERY:
        assert coxeter_ends(sys_).ends == expected


def test_zero_ends_iff_finite_type():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        verts = list(range(n))
        edges = [
            (u, v, rng.choice([2, 3, 5]))
            for u, v in itertools.combinations(verts, 2)
            if rng.random() < 0.6
        ]
        sys_ = CoxeterSystem(LabeledGraph.build(verts, edges))
        assert (coxeter_ends(sys_).ends == EndCount.ZERO) == is_finite_type(sys_).is_finite


def test_two_ended_witness_reported():
    report = coxeter_ends(system("abc", [("a", "b", 2), ("b", "c", 2)]))
    assert report.ends == EndCount.TWO
    assert report.witness


def reference_match_two_ended(sys_):
    """The former scan: Lambda0 and the finite-type test for every
    non-adjacent pair, then the least Lambda0 in vertex order."""
    diagram = sys_.diagram
    verts = diagram.vertices
    if len(verts) < 2:
        return None
    order = {v: i for i, v in enumerate(verts)}
    candidates = []
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            if diagram.has_edge(x, y):
                continue
            lambda0 = tuple(v for v in verts if v not in (x, y))
            if not all(diagram.label(v, z) == 2 for v in (x, y) for z in lambda0):
                continue
            if not is_finite_type(CoxeterSystem(induced_subgraph(diagram, lambda0))).is_finite:
                continue
            candidates.append((lambda0, (x, y)))
    if not candidates:
        return None
    candidates.sort(key=lambda c: (len(c[0]), [order[v] for v in c[0]]))
    return candidates[0]


def test_two_ended_match_agrees_with_reference_scan():
    rng = random.Random(5)
    planted = 0
    for _ in range(600):
        n = rng.randint(0, 9)
        labels = [(u, v, rng.choice((2, 2, 2, 3, 4, 5, None)))
                  for u, v in itertools.combinations(range(n), 2)]
        edges = [e for e in labels if e[2] is not None]
        # plant up to two pairs, each unrelated inside and commuting with the rest
        for _ in range(rng.choice((0, 1, 1, 2)) if n >= 2 else 0):
            x, y = rng.sample(range(n), 2)
            edges = [e for e in edges if x not in e[:2] and y not in e[:2]]
            edges += [(p, z, 2) for p in (x, y) for z in range(n) if z not in (x, y)]
        verts = list(range(n))
        rng.shuffle(verts)
        sys_ = CoxeterSystem(LabeledGraph.build(verts, edges))
        expected = reference_match_two_ended(sys_)
        planted += expected is not None
        assert _match_two_ended(sys_) == expected, (verts, edges)
    assert planted > 50


def test_two_ended_match_on_a_600_vertex_edgeless_diagram_is_fast():
    # no step may visit all n^2 pairs: not the two-ended match, the Dynkin
    # components (one, of unrelated pairs) nor the separator search
    sys_ = CoxeterSystem(LabeledGraph.build(range(600)))
    elapsed = []
    for _ in range(3):
        start = time.process_time()
        report = coxeter_ends(sys_)
        elapsed.append(time.process_time() - start)
    assert report.ends == EndCount.INFINITE
    assert report.witness == {"kind": "separator", "separator": ()}
    assert report.finite_type.component_types == ((tuple(range(600)), "affine/indefinite"),)
    assert min(elapsed) < 0.05


def test_artin_one_ended():
    # connected with >= 2 vertices: one-ended
    tri = LabeledGraph.build("abc", [("a", "b", 3), ("b", "c", 2), ("a", "c", 2)])
    report = artin_one_ended(tri)
    assert report.one_ended and report.ends == EndCount.ONE
    # single vertex: the group is Z, two ends
    single = artin_one_ended(LabeledGraph.build("a"))
    assert not single.one_ended and single.ends == EndCount.TWO
    # disconnected: free product of infinite groups
    split = artin_one_ended(LabeledGraph.build("ab"))
    assert not split.one_ended and split.ends == EndCount.INFINITE
    # no vertex: the trivial group, no ends
    empty = artin_one_ended(LabeledGraph.build(""))
    assert not empty.one_ended and empty.ends == EndCount.ZERO


class OrbitBudgetExceededError(Exception):
    pass


def braid_orbit(word, sys_, budget):
    """All words reachable from `word` by braid moves (bounded BFS)."""
    seen = {word}
    queue = deque([word])
    while queue:
        w = queue.popleft()
        n = len(w)
        for i in range(n - 1):
            s, t = w[i], w[i + 1]
            if s == t:
                continue
            m = sys_.m(s, t)
            if m == math.inf or i + m > n:
                continue
            m = int(m)
            expected = tuple(s if k % 2 == 0 else t for k in range(m))
            if w[i:i + m] != expected:
                continue
            flipped = tuple(t if k % 2 == 0 else s for k in range(m))
            u = w[:i] + flipped + w[i + m:]
            if u not in seen:
                if len(seen) >= budget:
                    raise OrbitBudgetExceededError(budget)
                seen.add(u)
                queue.append(u)
    return seen


def tits_normal_form(word, sys_, budget=200_000):
    """ShortLex-least reduced word for the element `word` represents.

    Repeatedly searches the braid orbit for a square ss, deletes it, and
    restarts; when no orbit word contains a square the word is reduced and
    the lexicographically least orbit member (in generator order) is the
    canonical form (Tits 1969).  Each orbit search may visit at most
    `budget` words, and exceeding it is an error, not a wrong answer.
    """
    gens = sys_.generators
    index = {g: i for i, g in enumerate(gens)}
    for letter in word:
        if letter not in index:
            raise KeyError(f"unknown generator {letter!r}")
    w = tuple(word)
    while True:
        orbit = braid_orbit(w, sys_, budget)
        shorter = None
        for u in orbit:
            for i in range(len(u) - 1):
                if u[i] == u[i + 1]:
                    shorter = u[:i] + u[i + 2:]
                    break
            if shorter is not None:
                break
        if shorter is None:
            if not orbit:
                return ()
            return min(orbit, key=lambda u: [index[c] for c in u])
        w = shorter


def test_tits_normal_form_basics():
    sys_ = system("st", [("s", "t", 3)])
    assert tits_normal_form(("s", "s"), sys_) == ()
    assert tits_normal_form(("s", "t", "s"), sys_) == tits_normal_form(
        ("t", "s", "t"), sys_
    )
    assert len(tits_normal_form(("s", "t", "s", "t"), sys_)) == 2


def test_tits_normal_form_is_congruence():
    rng = random.Random(31)
    systems = [
        system("st", [("s", "t", 3)]),
        system("stu", [("s", "t", 3), ("t", "u", 4)]),
        system("stuv", [("s", "t", 3), ("t", "u", 2), ("u", "v", 3)]),
    ]
    for sys_ in systems:
        gens = sys_.generators
        for _ in range(40):
            u = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
            v = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
            assert tits_normal_form(u + v, sys_) == tits_normal_form(
                tits_normal_form(u, sys_) + v, sys_
            )


def test_orbit_budget_is_an_error_not_a_wrong_answer():
    sys_ = system("st", [("s", "t", 3)])
    with pytest.raises(OrbitBudgetExceededError):
        tits_normal_form(("s", "t", "s"), sys_, budget=1)


@functools.cache
def reference_cyclotomic(n):
    """Phi_n, constant term first: z^n - 1 divided exactly by Phi_d for each
    proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = reference_cyclotomic(d)  # monic
        k = len(den) - 1
        quotient = [0] * (len(poly) - k)
        for i in reversed(range(len(quotient))):
            quotient[i] = q = poly[i + k]
            for j, b in enumerate(den):
                poly[i + j] -= q * b
        poly = quotient
    return tuple(poly)


def test_cyclotomic_agrees_with_division_by_every_divisor():
    for n in range(1, 400):
        assert _cyclotomic(n) == reference_cyclotomic(n), n
