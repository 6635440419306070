"""Mittag-Leffler analysis of towers of finitely generated free abelian groups.

A tower is an inverse sequence Z^{n_1} <- Z^{n_2} <- ... with integer bonding
matrices.  Images are tracked as integer lattices in canonical (column)
Hermite normal form, so chain comparisons are exact.  All arithmetic is
arbitrary precision.  The HNF kernel, `_hnf_columns`, takes column lists;
`hermite_normal_form` is its adapter for a matrix given as rows.  The kernel
makes one pass per row: the first column nonzero there is the pivot, and each
other column nonzero there is folded into it by a unimodular 2x2 column step
from the extended gcd of the two row entries.

A constant tower's image chain L_k = im(A^k) is stepped from the current
basis, L_{k+1} = HNF(A * H_k) with H_k the n x rank HNF basis of L_k, since
A^{k+1} Z^n = A (A^k Z^n); once L_k = L_{k-1}, every later image equals L_k
too.  The HNF is unique per lattice, so each basis is the one the composite
A^k would give.  Explicit towers still compose C_k = p_m ... p_{k-1} and take
the HNF of C_k, because im(C_k p_k) is not determined by im(C_k).
"""

from __future__ import annotations

from itertools import islice, pairwise
from operator import mul
from typing import NamedTuple

from .errors import EndscopeError, ParseError
from .model import _parse_int, _Tokens


# --- Integer lattice machinery ------------------------------------------------

def _xgcd(a, b):
    """(g, x, y) with g = x*a + y*b a gcd of a and b (g may be negative)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


def _hnf_columns(cols, n):
    """Canonical column-style HNF basis of the lattice spanned by `cols`.

    `cols` is a list of nonzero mutable columns (lists of n ints), which the
    pass overwrites.  Returns a tuple of basis columns (tuples of ints): each
    pivot is the first nonzero entry of its column, positive, with pivot rows
    strictly increasing; entries of earlier columns in a pivot row are reduced
    into [0, pivot).  The result is unique per lattice.

    One pass per row r: the first column nonzero in row r becomes the pivot,
    and each later column c nonzero there is combined with it by a unimodular
    2x2 step on rows r.. (rows above r are zero in all these columns).  If
    a = pivot[r] divides b = c[r], c -= (b // a) * pivot; otherwise, with
    g = x*a + y*b from the extended gcd, pivot <- x*pivot + y*c and
    c <- (b/g)*pivot - (a/g)*c (determinant -1).  Either way c[r] becomes 0,
    and c goes on to the next row unless it is zero.
    """
    pivots = []  # finished columns, in pivot-row order
    for r in range(n):
        pivot, rest = None, []
        for c in cols:
            b = c[r]
            if not b:
                rest.append(c)
            elif pivot is None:
                pivot = c
            else:
                a = pivot[r]
                q, rem = divmod(b, a)
                if rem:
                    g, x, y = _xgcd(a, b)
                    s, t = b // g, a // g
                    for k in range(r, n):
                        p, v = pivot[k], c[k]
                        pivot[k], c[k] = x * p + y * v, s * p - t * v
                else:
                    for k in range(r, n):
                        c[k] -= q * pivot[k]
                if any(c):
                    rest.append(c)
        cols = rest
        if pivot is None:
            continue
        if pivot[r] < 0:
            for k in range(r, n):
                pivot[k] = -pivot[k]
        for done in pivots:
            q = done[r] // pivot[r]
            if q:
                for k in range(r, n):
                    done[k] -= q * pivot[k]
        pivots.append(pivot)
    return tuple(map(tuple, pivots))


def hermite_normal_form(matrix):
    """`_hnf_columns` of a matrix given as rows: the HNF basis of the lattice
    spanned by its columns."""
    return _hnf_columns([list(col) for col in zip(*matrix) if any(col)], len(matrix))


def lattice_contains(basis, vector):
    """Membership of an integer vector in the lattice with HNF basis `basis`."""
    v = list(vector)
    r = 0  # pivot rows increase, so each scan starts where the last one stopped
    for col in basis:
        while not col[r]:
            r += 1
        q, rem = divmod(v[r], col[r])
        if rem:
            return False
        if q:
            for k in range(r, len(v)):
                v[k] -= q * col[k]
    return not any(v)


def lattice_includes(outer, inner):
    """True when every basis vector of `inner` lies in `outer`."""
    for col in inner:
        if not lattice_contains(outer, col):
            return False
    return True


def mat_product(a, b):
    """a (p x q) times b (q x r) over the integers."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not chain")
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# --- Towers --------------------------------------------------------------------

def _rank(value):
    if not isinstance(value, int):
        raise EndscopeError(f"rank must be an integer, got {value!r}")
    if value < 0:
        raise EndscopeError(f"rank must be >= 0, got {value}")
    return value


def _matrix(rows):
    """`rows` as a tuple of row tuples, each entry an int."""
    matrix = tuple(tuple(row) for row in rows)
    for row in matrix:
        for x in row:
            if not isinstance(x, int):
                raise EndscopeError(f"matrix entry must be an integer, got {x!r}")
    return matrix


class AbelianTower(NamedTuple):
    """Explicit tower: ranks n_1, n_2, ... and bondings p_i : Z^{n_{i+1}} -> Z^{n_i}
    (so p_i is an n_i x n_{i+1} matrix).  Constant towers repeat one square
    matrix forever."""

    ranks: tuple
    bondings: tuple  # tuple of matrices (tuples of row tuples)
    constant: bool = False

    @staticmethod
    def explicit(ranks, bondings):
        ranks = tuple(_rank(r) for r in ranks)
        bondings = tuple(_matrix(b) for b in bondings)
        if len(bondings) != len(ranks) - 1:
            raise EndscopeError("need one bonding per consecutive rank pair")
        for i, b in enumerate(bondings):
            if len(b) != ranks[i] or any(len(row) != ranks[i + 1] for row in b):
                raise EndscopeError(f"bonding {i + 1} must have shape {ranks[i]} x {ranks[i + 1]}")
        return AbelianTower(ranks, bondings, constant=False)

    @staticmethod
    def constant_tower(rank, matrix):
        rank = _rank(rank)
        matrix = _matrix(matrix)
        if len(matrix) != rank or any(len(row) != rank for row in matrix):
            raise EndscopeError(f"matrix must be {rank} x {rank}")
        return AbelianTower((rank,), (matrix,), constant=True)


class MLVerdict(NamedTuple):
    kind: str  # "semistable" | "strictly_descending" | "inconclusive"
    stabilization_index: int | None = None  # phi(m) for semistable
    first_witness: int | None = None  # first strict drop for descending
    window: int | None = None


MIN_CONFIRMING_STEPS = 3


def _image_chain(A):
    """The HNF bases of im(A^k) for k = 0, 1, ..., without end, each stepped
    from the last: im(A^{k+1}) = A im(A^k), with A times each basis column
    handed to `_hnf_columns` as it is.  Once two in a row are equal, A fixes
    that lattice, and the chain repeats its basis with no more HNFs."""
    n = len(A)
    basis, previous = mat_identity(n), None  # im(A^0): the identity columns
    while True:
        yield basis
        if basis != previous:
            product = ([sum(map(mul, row, col)) for row in A] for col in basis)
            previous, basis = basis, _hnf_columns([c for c in product if any(c)], n)


def ml_check_window(tower: AbelianTower, m: int, N: int):
    """Image chain L_m >= L_{m+1} >= ... >= L_{m+N} inside G_m, as a tuple of
    HNF bases of image(G_k -> G_m) for k = m .. m+N, and a verdict.

    Semistable needs the chain eventually constant with at least
    MIN_CONFIRMING_STEPS confirming steps; strictly descending means every
    consecutive inclusion is proper.  The window must fit an explicit tower:
    m + N at most its number of stages.
    """
    if m < 1 or N < 1:
        raise EndscopeError("need m >= 1 and N >= 1")
    if tower.constant:
        lattices = list(islice(_image_chain(tower.bondings[0]), N + 1))
    elif m + N > len(tower.ranks):
        raise EndscopeError(f"tower has {len(tower.ranks)} stages, asked for {m + N}")
    else:
        composite = mat_identity(tower.ranks[m - 1])  # L_m = G_m: the identity columns
        lattices = [composite]
        for bonding in tower.bondings[m - 1:m + N - 1]:
            composite = mat_product(composite, bonding)
            lattices.append(hermite_normal_form(composite))
    lattices = tuple(lattices)
    equal_next = [a == b for a, b in zip(lattices, lattices[1:])]
    # sanity: the chain must be descending (equal bases are the same lattice)
    for k, (a, b, equal) in enumerate(zip(lattices, lattices[1:], equal_next), start=m):
        if not equal and not lattice_includes(a, b):
            raise AssertionError(
                f"image chain not descending: L_{k + 1} is not inside L_{k} in G_{m}"
            )

    if not any(equal_next):
        return lattices, MLVerdict("strictly_descending", first_witness=m, window=N)
    # smallest j with L_j = L_{j+1} = ... = L_{m+N}
    j = len(equal_next)
    while j > 0 and equal_next[j - 1]:
        j -= 1
    confirming = len(equal_next) - j
    if confirming >= MIN_CONFIRMING_STEPS:
        return lattices, MLVerdict("semistable", stabilization_index=m + j, window=N)
    return lattices, MLVerdict("inconclusive", window=N)


def ml_decide_constant(rank: int, matrix) -> MLVerdict:
    """Exact, window-free verdict for the tower Z^n <-A- Z^n <-A- ...

    The image chain im(A^k) stabilizes in rank by k = n; once the rational
    span is stable the per-step index is constant, so a single lattice
    comparison decides the whole tower.  Each image is stepped from the
    previous one's HNF basis, im(A^{k+1}) = A im(A^k), with no power of A.
    """
    tower = AbelianTower.constant_tower(rank, matrix)
    for k_star, (lattice, following) in enumerate(pairwise(_image_chain(tower.bondings[0]))):
        if len(following) == len(lattice):  # the rank of im(A^k) stops dropping by k = n
            break
    if following == lattice:
        return MLVerdict("semistable", stabilization_index=k_star + 1)
    return MLVerdict("strictly_descending", first_witness=k_star + 1)


def lim1_report(verdict: MLVerdict):
    """Triviality of the derived limit lim^1, with the citation attached.
    Every group of a tower of free abelian groups of finite rank is
    countable, so a strictly descending chain makes lim^1 nontrivial."""
    citation = (
        "Theorem 11.3.2: if the inverse sequence is semistable then lim^1 is "
        "trivial; if lim^1 is trivial and each group is countable, the "
        "sequence is semistable"
    )
    if verdict.kind == "semistable":
        status = "trivial"
    elif verdict.kind == "strictly_descending":
        status = "nontrivial"
    else:
        status = "undetermined"
    return {"lim1": status, "citation": citation, "verdict": verdict._asdict()}


# --- Tower text format ----------------------------------------------------------

def _rows(tokens, what, sep=","):
    """Integers up to the statement's end, as rows split at `sep`; none empty."""
    rows = [(_parse_int(tokens, what),)]
    while tokens.peek() not in (";", "}", None):
        if tokens.peek() == sep:
            tokens.next()
            rows.append(())
        rows[-1] += (_parse_int(tokens, what),)
    return tuple(rows)


def parse_tower(text: str) -> AbelianTower:
    """Parse `tower { ranks: 2 2 ; bond 1: 1 0, 0 1 ; }` or `tower constant {
    rank 1 ; matrix 2 ; }` with the `.ggt` tokens, so statements may span lines
    and errors name their line and column.  Each statement appears once."""
    tokens = _Tokens(text)
    if tokens.peek() != "tower":
        tokens.error("expected 'tower { ... }' or 'tower constant { ... }'", 0)
    tokens.next()  # token 0: errors about the whole tower point at it
    constant = tokens.peek() == "constant"
    if constant:
        tokens.next()
    tokens.next("{")
    seen = {}  # "rank", "matrix", "ranks" or "bond <k>" -> its value
    while tokens.peek() not in ("}", None):
        key = tokens.next()
        at = tokens.pos - 1
        if constant and key == "rank":
            value = _parse_int(tokens, "rank")
        elif constant and key == "matrix":
            value = _rows(tokens, "matrix entry")
        elif not constant and key == "ranks":
            tokens.next(":")
            (value,) = _rows(tokens, "rank", sep=None)
        elif not constant and key == "bond":
            key = f"bond {_parse_int(tokens, 'bond index')}"
            tokens.next(":")
            value = _rows(tokens, "matrix entry")
        else:
            tokens.error(f"unknown tower statement {key!r}", at)
        tokens.next(";")
        if key in seen:
            tokens.error(f"repeated tower statement {key!r}", at)
        seen[key] = value
    tokens.next("}")
    if tokens.peek() is not None:
        tokens.error(f"expected end of input after '}}', got {tokens.peek()!r}", tokens.pos)
    if constant:
        if "rank" not in seen or "matrix" not in seen:
            tokens.error("constant tower needs 'rank' and 'matrix'", 0)
        build, args = AbelianTower.constant_tower, (seen["rank"], seen["matrix"])
    else:
        ranks = seen.pop("ranks", None)
        if ranks is None:
            tokens.error("explicit tower needs 'ranks:'", 0)
        if len(ranks) < 2:
            tokens.error("explicit tower needs at least two ranks", 0)
        bonds = [f"bond {k}" for k in range(1, len(ranks))]
        if set(seen) != set(bonds):
            tokens.error("bond indices must be 1..len(ranks)-1", 0)
        build, args = AbelianTower.explicit, (ranks, [seen[k] for k in bonds])
    try:  # a matrix of the wrong shape, at the `tower` keyword
        return build(*args)
    except EndscopeError as exc:
        raise ParseError(str(exc), *tokens.where(0)) from None
