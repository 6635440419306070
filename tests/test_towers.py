"""Integer lattices and Mittag-Leffler analysis of abelian towers."""

import itertools
import random

import pytest

from endscope.errors import IndexOutOfRangeError
from endscope.towers import (
    AbelianTower,
    hermite_normal_form,
    lattice_contains,
    lattice_includes,
    lim1_report,
    mat_identity,
    mat_product,
    ml_check_window,
    ml_decide_constant,
    parse_tower,
)


def test_hnf_fixed_cases():
    assert hermite_normal_form(mat_identity(3)) == mat_identity(3)
    assert hermite_normal_form(((2, 0), (0, 3))) == ((2, 0), (0, 3))
    # columns (2, 1) and (4, 2) span the rank-1 lattice Z * (2, 1)
    assert hermite_normal_form(((2, 4), (1, 2))) == ((2, 1),)


def brute_force_span(vectors, dim, box=3, coeff=12):
    """Lattice points in a small box, from integer combinations of `vectors`.

    The coefficient range is much larger than the box so that points needing
    cancellation between near-parallel generators are still found.
    """
    pts = set()
    for coeffs in itertools.product(range(-coeff, coeff + 1), repeat=len(vectors)):
        v = tuple(
            sum(c * vec[i] for c, vec in zip(coeffs, vectors)) for i in range(dim)
        )
        if all(abs(x) <= box for x in v):
            pts.add(v)
    return pts


def test_hnf_preserves_the_lattice():
    # hermite_normal_form spans the columns of the input; its output rows are a
    # basis of the same lattice
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        mat = tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n))
        columns = [tuple(mat[i][j] for i in range(n)) for j in range(m)]
        hnf = hermite_normal_form(mat)
        assert brute_force_span(columns, n) == brute_force_span(list(hnf), n)


def test_image_lattice_invariant_under_unimodular_column_ops():
    rng = random.Random(13)
    unimodulars = [
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, -1), (0, 1)),
    ]
    for _ in range(20):
        mat = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        for u in unimodulars:
            assert hermite_normal_form(mat) == hermite_normal_form(mat_product(mat, u))


def test_lattice_predicates():
    basis = hermite_normal_form(((2, 0), (0, 3)))
    assert len(basis) == 2
    assert lattice_contains(basis, (2, 3))
    assert not lattice_contains(basis, (1, 0))
    sub = hermite_normal_form(((4, 0), (0, 3)))
    assert lattice_includes(basis, sub)
    assert not lattice_includes(sub, basis)


def test_times_two_tower_strictly_descending():
    verdict = ml_decide_constant(1, ((2,),))
    assert verdict.kind == "strictly_descending"
    assert lim1_report(verdict)["lim1"] == "nontrivial"


def test_unimodular_tower_semistable():
    verdict = ml_decide_constant(2, ((1, 1), (0, 1)))
    assert verdict.kind == "semistable"
    assert lim1_report(verdict)["lim1"] == "trivial"


def test_rank_drop_then_stable_is_semistable():
    # projection: rank drops once, image lattice then constant
    verdict = ml_decide_constant(2, ((0, 1), (0, 1)))
    assert verdict.kind == "semistable"


def test_explicit_window_identity_tower():
    tower = AbelianTower.explicit(
        (2,) * 6, tuple(mat_identity(2) for _ in range(5))
    )
    chain, verdict = ml_check_window(tower, 1, 5)
    assert verdict.kind == "semistable"
    assert all(l == chain[0] for l in chain)


def test_explicit_window_descending_tower():
    bonds = tuple(((2,),) for _ in range(5))
    tower = AbelianTower.explicit((1,) * 6, bonds)
    chain, verdict = ml_check_window(tower, 1, 5)
    assert verdict.kind == "strictly_descending"
    for a, b in zip(chain, chain[1:]):
        assert lattice_includes(a, b) and a != b


def test_image_chain_is_always_descending():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 3)
        bonds = tuple(
            tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
            for _ in range(6)
        )
        tower = AbelianTower.explicit((n,) * 7, bonds)
        chain, _ = ml_check_window(tower, 1, 6)
        for a, b in zip(chain, chain[1:]):
            assert lattice_includes(a, b)


def test_constant_agrees_with_long_window():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 4)
        mat = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        exact = ml_decide_constant(n, mat)
        tower = AbelianTower.constant_tower(n, mat)
        _, windowed = ml_check_window(tower, 1, 50)
        assert windowed.kind == exact.kind, mat


def test_tower_index_validation():
    tower = AbelianTower.explicit((1, 1), (((1,),),))
    with pytest.raises(IndexOutOfRangeError):
        tower.bonding(2)
    with pytest.raises(IndexOutOfRangeError):
        ml_check_window(tower, 0, 1)


def test_parse_tower_formats():
    constant = parse_tower("tower constant { rank 2 ; matrix 1 1 , 0 1 ; }")
    assert constant.constant and constant.ranks == (2,)
    assert constant.bondings[0] == ((1, 1), (0, 1))
    explicit = parse_tower(
        "tower { ranks: 2 1 ; bond 1: 1 , 0 ; }"
    )
    assert not explicit.constant
    assert explicit.ranks == (2, 1)
    assert explicit.bonding(1) == ((1,), (0,))
