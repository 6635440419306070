"""Integer lattices and Mittag-Leffler analysis of abelian towers."""

import itertools
import random
import re

import pytest

from endscope import towers
from endscope.errors import EndscopeError
from endscope.graph_products import _smith_diagonal
from endscope.report import lim1_report
from endscope.towers import (
    AbelianTower,
    MLVerdict,
    hermite_normal_form,
    lattice_contains,
    lattice_includes,
    mat_identity,
    mat_product,
    ml_check_window,
    ml_decide_constant,
    parse_tower,
)


def reference_hermite_normal_form(matrix):
    """The column HNF by repeated Euclid rounds: sort the columns nonzero in
    row r by |entry|, reduce the rest by the smallest, until one is left."""
    if not matrix:
        return ()
    n = len(matrix)
    cols = [list(col) for col in zip(*matrix) if any(col)]
    pivots = []
    for r in range(n):
        nz = [c for c in cols if c[r] != 0]
        rest = [c for c in cols if c[r] == 0]
        if not nz:
            cols = rest
            continue
        while len(nz) > 1:
            nz.sort(key=lambda c: abs(c[r]))
            base = nz[0]
            keep = [base]
            for c in nz[1:]:
                q = c[r] // base[r]
                for k in range(r, n):
                    c[k] -= q * base[k]
                if c[r] != 0:
                    keep.append(c)
                elif any(c):
                    rest.append(c)
            nz = keep
        pivot = nz[0]
        if pivot[r] < 0:
            for k in range(n):
                pivot[k] = -pivot[k]
        for done in pivots:
            q = done[r] // pivot[r]
            if q:
                for k in range(r, n):
                    done[k] -= q * pivot[k]
        pivots.append(pivot)
        cols = rest
    return tuple(tuple(c) for c in pivots)


def reference_hnf_columns(cols, n):
    """`reference_hermite_normal_form` behind the column kernel's signature."""
    return reference_hermite_normal_form(tuple(zip(*cols)))


def reference_mat_product(a, b):
    """a times b, one generator per entry."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not chain")
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt) for ra in a
    )


def random_matrix(rng, rows, cols, bound, zero_share=0.0):
    return tuple(
        tuple(0 if rng.random() < zero_share else rng.randint(-bound, bound)
              for _ in range(cols))
        for _ in range(rows)
    )


def awkward_matrix(rng, bound):
    """0-6 x 0-6, sometimes with a zero row or column, or with a column that
    is a combination of the others (rank deficient)."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    mat = [list(row) for row in random_matrix(rng, rows, cols, bound, rng.choice((0, 0.5)))]
    shape = rng.randrange(4)
    if shape == 1 and rows:
        mat[rng.randrange(rows)] = [0] * cols
    elif shape == 2 and cols:
        j = rng.randrange(cols)
        for row in mat:
            row[j] = 0
    elif shape == 3 and cols >= 2:
        j, i1, i2 = rng.randrange(cols), rng.randrange(cols), rng.randrange(cols)
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        for row in mat:
            row[j] = c1 * row[i1] + c2 * row[i2]
    return tuple(tuple(row) for row in mat)


def random_unimodular(rng, n, moves, bound):
    """A product of elementary column moves col_i += c * col_j, |c| <= bound,
    and column swaps."""
    u = [list(row) for row in mat_identity(n)]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            for row in u:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.randint(-bound, bound)
            for row in u:
                row[i] += c * row[j]
    if n and rng.random() < 0.5:  # determinant -1 too
        for row in u:
            row[0] = -row[0]
    return tuple(tuple(row) for row in u)


def test_hnf_matches_the_reference():
    rng = random.Random(18)
    for bound in (3, 3, 2 ** 80):
        for _ in range(1500):
            mat = awkward_matrix(rng, bound)
            assert hermite_normal_form(mat) == reference_hermite_normal_form(mat), mat


def test_column_kernel_matches_the_reference():
    rng = random.Random(24)
    assert towers._hnf_columns([], 0) == reference_hermite_normal_form(()) == ()
    for bound in (3, 2 ** 80):
        for _ in range(1000):
            mat = awkward_matrix(rng, bound)
            cols = [list(col) for col in zip(*mat) if any(col)]
            assert towers._hnf_columns(cols, len(mat)) == reference_hermite_normal_form(mat), mat


def test_mat_product_matches_the_reference():
    rng = random.Random(19)
    for bound in (3, 2 ** 80):
        for _ in range(800):
            p, q, r = (rng.randint(0, 6) for _ in range(3))
            a = random_matrix(rng, p, q, bound)
            b = random_matrix(rng, q, r, bound)
            assert mat_product(a, b) == reference_mat_product(a, b), (a, b)
    with pytest.raises(ValueError):
        mat_product(((1, 2),), ((1,),))


def test_hnf_is_invariant_under_large_unimodular_changes_of_basis():
    rng = random.Random(20)
    for _ in range(300):
        mat = awkward_matrix(rng, rng.choice((3, 2 ** 80)))
        if not mat or not mat[0]:
            continue
        u = random_unimodular(rng, len(mat[0]), rng.randint(1, 12), 2 ** 40)
        assert hermite_normal_form(mat) == hermite_normal_form(mat_product(mat, u)), (mat, u)


def test_lattice_contains_agrees_with_the_hnf():
    # v lies in the lattice iff adding it as a column leaves the HNF unchanged
    rng = random.Random(21)
    for _ in range(600):
        mat = awkward_matrix(rng, rng.choice((3, 2 ** 80)))
        if not mat:
            continue
        basis = hermite_normal_form(mat)
        if rng.random() < 0.5 and basis:
            coeffs = [rng.randint(-5, 5) for _ in basis]
            v = tuple(sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(len(mat)))
        else:
            v = tuple(rng.randint(-3, 3) for _ in mat)
        joined = tuple(row + (x,) for row, x in zip(mat, v))
        assert lattice_contains(basis, v) == (hermite_normal_form(joined) == basis), (mat, v)


def test_smith_diagonal_matches_the_reference_hnf(monkeypatch):
    rng = random.Random(22)
    mats = [
        random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), 2, 0.7)
        for _ in range(800)
    ]
    fast = [_smith_diagonal(mat) for mat in mats]
    monkeypatch.setattr("endscope.graph_products.hermite_normal_form",
                        reference_hermite_normal_form)
    assert fast == [_smith_diagonal(mat) for mat in mats]


def conjugated_jordan(rng, spectrum):
    """U J U^-1 with J upper triangular (the spectrum on its diagonal, 0/1
    just above it) and U a product of elementary row moves."""
    n = len(spectrum)
    diag = list(spectrum)
    rng.shuffle(diag)
    jordan = tuple(tuple(diag[i] if i == j else (rng.randint(0, 1) if j == i + 1 else 0)
                         for j in range(n)) for i in range(n))
    u = u_inv = mat_identity(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        move = tuple(tuple(int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n))
                     for a in range(n))
        undo = tuple(tuple(int(a == b) - (c if (a, b) == (i, j) else 0) for b in range(n))
                     for a in range(n))
        u, u_inv = reference_mat_product(move, u), reference_mat_product(u_inv, undo)
    return reference_mat_product(reference_mat_product(u, jordan), u_inv)


def window_with_reference_kernels(monkeypatch, tower, m, n_steps):
    with monkeypatch.context() as patch:
        patch.setattr(towers, "hermite_normal_form", reference_hermite_normal_form)
        patch.setattr(towers, "_hnf_columns", reference_hnf_columns)
        patch.setattr(towers, "mat_product", reference_mat_product)
        return ml_check_window(tower, m, n_steps)


def test_window_matches_the_reference_kernels(monkeypatch):
    rng = random.Random(23)
    spectra = ((2,), (1, 0), (2, 1, 0), (-2, 1, -1, 0), (3, -1), (1, 1, 0, 0))
    for t in range(36):
        mat = conjugated_jordan(rng, spectra[t % len(spectra)])
        tower = AbelianTower.constant_tower(len(mat), mat)
        chain, verdict = ml_check_window(tower, 1, 30)
        ref_chain, ref_verdict = window_with_reference_kernels(monkeypatch, tower, 1, 30)
        assert chain == ref_chain and verdict == ref_verdict, mat
    for _ in range(40):
        ranks = tuple(rng.randint(1, 4) for _ in range(9))
        bonds = tuple(random_matrix(rng, ranks[i], ranks[i + 1], 3, 0.3) for i in range(8))
        tower = AbelianTower.explicit(ranks, bonds)
        m = rng.randint(1, 3)
        chain, verdict = ml_check_window(tower, m, 8 - m + 1)
        assert (chain, verdict) == window_with_reference_kernels(monkeypatch, tower, m, 8 - m + 1)


CHAIN_KINDS = ("random", "singular", "nilpotent", "unimodular")


def chain_test_matrix(rng, n, kind):
    """An n x n matrix with entries in +-3: random, singular (a zero column, or
    a copy of another column up to sign), nilpotent (strictly upper
    triangular, rows and columns permuted alike) or unimodular (1-3
    elementary moves)."""
    if kind == "unimodular":
        return random_unimodular(rng, n, rng.randint(1, 3), 1)
    mat = [list(row) for row in random_matrix(rng, n, n, 3, rng.choice((0, 0.5)))]
    if kind == "nilpotent":
        perm = rng.sample(range(n), n)
        return tuple(tuple(mat[perm[i]][perm[j]] if perm[j] > perm[i] else 0 for j in range(n))
                     for i in range(n))
    if kind == "singular":
        j, i = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c = rng.choice((0, 1, -1)) if n > 1 else 0
        for row in mat:
            row[j] = c * row[i]
    return tuple(tuple(row) for row in mat)


def test_constant_chain_equals_the_composite_chain(monkeypatch):
    # the constant path steps L_{k+1} = HNF(A * H_k); the explicit path with
    # the reference kernels takes the HNF of the composite A^k every step
    rng = random.Random(41)
    for t in range(400):
        n = rng.randint(1, 5)
        mat = chain_test_matrix(rng, n, CHAIN_KINDS[t % len(CHAIN_KINDS)])
        m, n_steps = rng.randint(1, 3), rng.randint(1, 20)
        chain, verdict = ml_check_window(AbelianTower.constant_tower(n, mat), m, n_steps)
        composite = AbelianTower.explicit((n,) * (m + n_steps), (mat,) * (m + n_steps - 1))
        ref_chain, ref_verdict = window_with_reference_kernels(monkeypatch, composite, m, n_steps)
        assert chain == ref_chain and verdict == ref_verdict, (mat, m, n_steps)


def test_constant_window_takes_no_hnf_once_the_chain_is_stable(monkeypatch):
    calls = []

    def counting(cols, n):
        calls.append(cols)
        return reference_hnf_columns(cols, n)

    monkeypatch.setattr(towers, "_hnf_columns", counting)
    # L_0 = L_1 for a unimodular A; L_1 = L_2 for a projection.  L_0, the
    # identity columns, takes no HNF; each new lattice after it takes one, and
    # one more finds the repeat that stops the chain.
    for mat, distinct in ((((1, 1), (0, 1)), 1), (((0, 1), (0, 1)), 2)):
        calls.clear()
        chain, verdict = ml_check_window(AbelianTower.constant_tower(2, mat), 1, 50)
        assert len(calls) == distinct and len(set(chain)) == distinct, mat
        assert verdict.kind == "semistable"


def reference_ml_decide_constant(rank, matrix):
    """The verdict from the powers of A: the HNF of A^k, with the reference
    kernels, until the rank of the image stops dropping."""
    A = AbelianTower.constant_tower(rank, matrix).bondings[0]
    power = mat_identity(rank)
    lattice, k_star = reference_hermite_normal_form(power), 0
    while True:
        power = reference_mat_product(power, A)
        following = reference_hermite_normal_form(power)
        if len(following) == len(lattice):
            break
        lattice, k_star = following, k_star + 1
    if following == lattice:
        return MLVerdict("semistable", stabilization_index=k_star + 1)
    return MLVerdict("strictly_descending", first_witness=k_star + 1)


def test_decide_constant_matches_the_power_loop():
    rng = random.Random(43)
    assert ml_decide_constant(0, ()) == reference_ml_decide_constant(0, ())
    for t in range(1500):
        n = rng.randint(1, 5)
        mat = chain_test_matrix(rng, n, CHAIN_KINDS[t % len(CHAIN_KINDS)])
        assert ml_decide_constant(n, mat) == reference_ml_decide_constant(n, mat), mat


def test_window_raises_when_the_chain_is_not_descending(monkeypatch):
    # L_1 = Z takes no HNF; a kernel that then returned 2Z, then 3Z, would
    # claim L_3 = 3Z inside L_2 = 2Z
    answers = iter((((2,),), ((3,),)))
    monkeypatch.setattr(towers, "_hnf_columns", lambda cols, n: next(answers))
    tower = AbelianTower.constant_tower(1, ((3,),))
    with pytest.raises(AssertionError, match="L_3 is not inside L_2"):
        ml_check_window(tower, 1, 2)


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


@pytest.mark.parametrize("build,args,message", [
    ("constant", (1, ((2.5,),)), "matrix entry must be an integer, got 2.5"),
    ("constant", (1.0, ((2,),)), "rank must be an integer, got 1.0"),
    ("constant", ("1", ((2,),)), "rank must be an integer, got '1'"),
    ("constant", (-1, ()), "rank must be >= 0, got -1"),
    ("explicit", ((2.9, 1), (((1,), (0,)),)), "rank must be an integer, got 2.9"),
    ("explicit", ((-1, 1), (((1,),),)), "rank must be >= 0, got -1"),
    ("explicit", ((1, 1), ((("1",),),)), "matrix entry must be an integer, got '1'"),
    ("decide", (1, ((None,),)), "matrix entry must be an integer, got None"),
])
def test_tower_constructors_reject_non_integers_and_negative_ranks(build, args, message):
    build = {"constant": AbelianTower.constant_tower, "explicit": AbelianTower.explicit,
             "decide": ml_decide_constant}[build]
    with pytest.raises(EndscopeError, match=f"^{re.escape(message)}$"):
        build(*args)


def test_tower_index_validation():
    tower = AbelianTower.explicit((1, 1), (((1,),),))
    with pytest.raises(EndscopeError, match="^tower has 2 stages, asked for 3$"):
        ml_check_window(tower, 1, 2)
    with pytest.raises(EndscopeError, match="need m >= 1 and N >= 1"):
        ml_check_window(tower, 0, 1)
    with pytest.raises(EndscopeError, match="^tower has 2 stages, asked for 4$"):
        ml_check_window(tower, 3, 1)
    with pytest.raises(EndscopeError, match="^need one bonding per consecutive rank pair$"):
        AbelianTower.explicit((1, 1, 1), (((1,),),))


def test_parse_tower_formats():
    constant = parse_tower("tower constant { rank 2 ; matrix 1 1 , 0 1 ; }")
    assert constant.constant and constant.ranks == (2,)
    assert constant.bondings[0] == ((1, 1), (0, 1))
    explicit = parse_tower(
        "tower { ranks: 2 1 ; bond 1: 1 , 0 ; }"
    )
    assert not explicit.constant
    assert explicit.ranks == (2, 1)
    assert explicit.bondings[0] == ((1,), (0,))
