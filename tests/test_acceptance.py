"""Acceptance suite: the eight gating criteria, one test (and one printed
pass/fail line) per criterion."""

import itertools
import pathlib
import random
import sys
import time

from endscope.atoms import EndCount
from endscope.atoms import PropertyAtom as A
from endscope.cayley import (
    CoxeterOracle,
    build_ball,
    estimate_ends,
    oracle_from_spec,
)
from endscope.cli import run
from endscope.coxeter import CoxeterSystem, coxeter_ends
from endscope.graph_products import (
    GraphProductSpec,
    VertexProfile,
    graph_product_ends,
    graph_product_semistable,
    raag_simply_connected_at_infinity,
)
from endscope.graphs import LabeledGraph, SimplicialComplex2
from endscope.inference import infer, replay
from endscope.model import parse_document
from endscope.towers import (
    AbelianTower,
    lim1_report,
    ml_check_window,
    ml_decide_constant,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def passed(n, detail):
    print(f"ACCEPTANCE CRITERION {n}: PASS ({detail})", file=sys.stderr)


def coxeter(verts, edges=()):
    return CoxeterSystem(LabeledGraph.build(verts, edges))


def test_criterion_1_coxeter_end_battery():
    battery = [
        (coxeter("a"), EndCount.ZERO),
        (coxeter("ab", [("a", "b", 5)]), EndCount.ZERO),
        (coxeter("ab"), EndCount.TWO),
        (coxeter("abc", [("a", "b", 2), ("b", "c", 2)]), EndCount.TWO),
        (
            coxeter(
                "abcd",
                [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("d", "a", 2)],
            ),
            EndCount.ONE,
        ),
        (coxeter("abc"), EndCount.INFINITE),
        (
            coxeter("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]),
            EndCount.ONE,
        ),
    ]
    start = time.monotonic()
    for sys_, expected in battery:
        assert coxeter_ends(sys_).ends == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"battery took {elapsed:.2f}s"
    passed(1, f"7 cases exact in {elapsed:.3f}s")


def distinct_small_diagrams():
    """Coxeter diagrams on <= 4 vertices, labels in {2, 3, absent}, up to
    diagram isomorphism (80 classes)."""
    diagrams = {}
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for assign in itertools.product([2, 3, None], repeat=len(pairs)):
            labels = dict(zip(pairs, assign))
            best = None
            for perm in itertools.permutations(range(n)):
                edges = tuple(sorted(
                    (min(perm[i], perm[j]), max(perm[i], perm[j]), m)
                    for (i, j), m in labels.items() if m is not None
                ))
                if best is None or edges < best:
                    best = edges
            key = (n, best)
            if key not in diagrams:
                diagrams[key] = (
                    n,
                    [(i, j, m) for (i, j), m in labels.items() if m is not None],
                )
    return sorted(diagrams.items())


def test_criterion_2_exact_vs_empirical_agreement():
    start = time.monotonic()
    disagreements = []
    matrix = {"agree": 0, "inconclusive": 0, "disagree": 0}
    count = 0
    for (n, _), (nv, edges) in distinct_small_diagrams():
        count += 1
        sys_ = coxeter(range(nv), edges)
        exact = coxeter_ends(sys_).ends
        ball = build_ball(CoxeterOracle(sys_), 10)
        estimate = estimate_ends(ball, 2, 8)
        if estimate.verdict == "inconclusive":
            outcome = "inconclusive"
        elif estimate.verdict == "stabilized" and estimate.ends != exact:
            outcome = "disagree"
            disagreements.append((edges, exact, estimate.ends))
        elif estimate.verdict == "growing_to_infinity" and exact != EndCount.INFINITE:
            outcome = "disagree"
            disagreements.append((edges, exact, "growing"))
        else:
            outcome = "agree"
        matrix[outcome] += 1
    elapsed = time.monotonic() - start
    assert count == 80
    assert not disagreements, disagreements
    assert elapsed < 300, f"sweep took {elapsed:.0f}s"
    agreement = "/".join(str(v) for v in matrix.values())
    passed(2, f"{count} diagrams, agree/inconclusive/disagree {agreement},"
              f" 0 disagreements, {elapsed:.1f}s")


def test_criterion_3_graph_product_suite():
    finite2 = VertexProfile(finite=True, order=2, ends=EndCount.ZERO,
                            semistable=True, finitely_presented=True)
    finite3 = VertexProfile(finite=True, order=3, ends=EndCount.ZERO,
                            semistable=True, finitely_presented=True)
    free2 = VertexProfile(finite=False, order=None, ends=EndCount.INFINITE,
                          semistable=True, finitely_presented=True)
    # hexagon with alternating Z2 / Z*Z vertex groups
    hexagon = LabeledGraph.build(
        "pqrstu",
        [("p", "q", 2), ("q", "r", 2), ("r", "s", 2),
         ("s", "t", 2), ("t", "u", 2), ("u", "p", 2)],
    )
    spec = GraphProductSpec(
        hexagon,
        {"p": finite2, "q": free2, "r": finite2,
         "s": free2, "t": finite2, "u": free2},
    )
    assert graph_product_ends(spec).ends == EndCount.ONE
    assert graph_product_semistable(spec).verdict == "semistable"
    # complete graph with one multi-ended vertex group, the rest finite
    k2 = LabeledGraph.build("xy", [("x", "y", 2)])
    ovi = GraphProductSpec(k2, {"x": finite3, "y": free2})
    assert graph_product_ends(ovi).ends == EndCount.INFINITE
    # two isolated Z2 vertices: the infinite dihedral group
    ov2 = GraphProductSpec(LabeledGraph.build("xy"), {"x": finite2, "y": finite2})
    assert graph_product_ends(ov2).ends == EndCount.TWO
    passed(3, "hexagon One+semistable, OV(i) Infinite, OV2 Two")


def test_criterion_4_raag_simple_connectivity_at_infinity():
    simplex = SimplicialComplex2.build(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b", "c")]
    )
    assert raag_simply_connected_at_infinity(simplex).verdict == "yes"
    path = SimplicialComplex2.build("abc", [("a", "b"), ("b", "c")])
    report = raag_simply_connected_at_infinity(path)
    assert report.verdict == "no" and "cut vertex" in report.reason
    square = SimplicialComplex2.build(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )
    report = raag_simply_connected_at_infinity(square)
    assert report.verdict == "no" and "H1" in report.reason
    passed(4, "2-simplex Yes, path No (cut vertex), 4-cycle No (H1)")


def test_criterion_5_pro_sequence_lab():
    start = time.monotonic()
    doubling = ml_decide_constant(1, ((2,),))
    assert doubling.kind == "strictly_descending"
    assert lim1_report(doubling)["lim1"] == "nontrivial"
    unimodular = AbelianTower.constant_tower(2, ((1, 1), (0, 1)))
    for m in (1, 2, 3):
        _, verdict = ml_check_window(unimodular, m, 10)
        assert verdict.kind == "semistable"
        assert verdict.stabilization_index == m
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        mat = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        exact = ml_decide_constant(n, mat)
        _, windowed = ml_check_window(AbelianTower.constant_tower(n, mat), 1, 50)
        if exact.kind != windowed.kind:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 30, f"tower lab took {elapsed:.1f}s"
    passed(5, f"500 random towers, 0 mismatches, {elapsed:.1f}s")


def test_criterion_6_inference_engine(capsys):
    bs = infer(parse_document(
        "group X = free_abelian(1)\n"
        "group BS = known(BS_2_3)\n"
        "group BSpair = commensurated_pair(BS, X) infinite_index\n"
        "assert BS : fg\n"
    ))
    assert bs.get("BS", A.ENDS_ONE).rule.name == "R-COMM"
    assert bs.get("BS", A.SEMISTABLE).rule.name == "R-COMM"
    amalgam_reg = parse_document(
        "group A = free(9)\ngroup B = free(9)\ngroup C = free(81)\n"
        "group Lambda = amalgam(A, B, C) c_index_finite_in_both\n"
    )
    amalgam = infer(amalgam_reg)
    assert amalgam.get("Lambda", A.ENDS_ONE).rule.name == "R-FI-AMALG"
    assert amalgam.get("Lambda", A.SEMISTABLE).rule.name == "R-FI-AMALG"
    thompson_reg = parse_document("group F = known(thompson_F)\n")
    thompson = infer(thompson_reg)
    assert thompson.get("F", A.SC_INF) is not None
    assert thompson.get("F", A.SEMISTABLE).rule.name == "R-SC2SS"
    assert thompson.get("F", A.H2_FREE_ABELIAN).rule.name == "R-GM2"
    # replay reproduces the full fact set from certificate leaves
    assert replay(amalgam_reg, amalgam)
    assert replay(thompson_reg, thompson)
    # contradictions surface as exit code 3
    code = run(["analyze", str(FIXTURES / "contradiction.ggt")])
    capsys.readouterr()
    assert code == 3
    passed(6, "R-COMM, R-FI-AMALG, Thompson chain, replay, exit 3")


def test_criterion_7_report_determinism(capsys):
    checked = 0
    for fixture in sorted(FIXTURES.glob("*.ggt")):
        outputs = []
        for _ in range(2):
            run(["analyze", str(fixture)])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], fixture.name
        checked += 1
    assert checked >= 4
    passed(7, f"{checked} fixture files byte-identical across runs")


def test_criterion_8_cayley_invariant_suite():
    specs = ["z:1", "z:2", "free:2", "i2:3", "i2:4", "i2:6",
             "freeprod:zmod:2xzmod:2", "freeprod:zmod:2xzmod:2xzmod:2"]
    for spec in specs:
        ball = build_ball(oracle_from_spec(spec), 7)
        assert ball.layer == sorted(ball.layer) and ball.layer[-1] == len(ball.order), spec
        distance = [d for d in range(ball.radius + 1) for _ in ball.sphere(d)]
        n = len(ball.generator_names)
        for i, v in enumerate(ball.neighbors):
            if v >= 0:
                assert abs(distance[i // n] - distance[v]) <= 1, spec
        estimate = estimate_ends(ball, 1, 5)
        counts = [c for _, c in estimate.per_radius]
        assert counts == sorted(counts), spec
    f2 = build_ball(oracle_from_spec("free:2"), 6)
    assert [len(f2.sphere(r)) for r in range(1, 7)] == [
        4 * 3 ** (r - 1) for r in range(1, 7)
    ]
    passed(8, f"{len(specs)} oracles, invariants hold, F2 spheres 4*3^(r-1)")
