"""Empirical end estimation from Cayley balls.

A GroupOracle answers the word problem for a fixed generating set; balls are
built by breadth-first closure of the generator action and the number of ends
is estimated by counting outer-touching components of ball-minus-core,
snapped to {0, 1, 2, growing}.  The unbounded-component definition is
approximated by "touches the outer sphere", guarded by a stability window.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .atoms import EndCount
from .coxeter import CoxeterSystem, tits_cone_action
from .errors import EndscopeError, KeyWidthExceededError, MemoryCapExceededError
from .graphs import LabeledGraph
from .model import read_int

DEFAULT_ELEMENT_CAP = 2_000_000


class GroupOracle:
    """Behavioral interface: identity, ordered generators, exact multiply.

    multiply(key, i) multiplies by generator i, an index into `generators`,
    whose names serve only as edge labels.  A key is any hashable value (an
    int for ZnOracle, FreeOracle, CyclicOracle and CoxeterOracle, a tuple
    for the product oracles),
    and keys are equal exactly when the elements are, so multiply is well
    defined on elements.  The generators are distinct as elements and
    inverse-closed, so the Cayley graph can be explored undirected and each
    edge read from either end; build_ball checks this.

    `bipartite` is True only when every relator has even length, so the
    Cayley graph is bipartite and no edge joins two elements at equal
    distance from the identity.  False is always safe: build_ball then
    multiplies the outer sphere outward to find its escapes.
    """

    name = "oracle"
    identity = None
    generators = ()  # ordered tuple of generator names
    bipartite = False

    def multiply(self, key, gen):
        raise NotImplementedError


class ZnOracle(GroupOracle):
    """Free abelian group of rank n with the standard generators.

    The key of (x_0, ..., x_{n-1}) is the one integer B^n + sum of x_i * B^i,
    B = `radix`, so the identity is B^n and multiplying by x_i^(+-1) adds
    +-B^i.  B exceeds 2^64 and the coordinates are the balanced base-B digits
    of key - B^n, so keys are equal exactly when the elements are while every
    |x_i| < B/2; then every key is positive.  A ball of radius R has at least
    2R + 1 elements, so every ball built under an element cap below 2^64 is
    exact.

    Python hashes an int by its residue modulo a prime M (2^61 - 1 on 64-bit
    builds), so a key hashes by the linear form r^n + sum of x_i * r^i mod M,
    r = B mod M.  A power of two would pile a ball onto few hash values (B =
    2^64 gives x_0 + 8 x_1 + 64 x_2 + ..., some 16R + 1 values for a z:2 ball
    of radius R), and every dict probe would walk the pile.  B is the least
    integer above 2^64 with r = floor(M / phi), phi the golden ratio: on the
    balls of every rank tried, z:1 to z:130, its keys hash apart.  The
    offset B^n keeps every key positive, so none is -1, whose hash is that
    of -2: without it, a product's tuple keys with a z part hashed alike in
    pairs.
    """

    _M = sys.hash_info.modulus
    radix = 2**64 + ((math.isqrt(5 * _M * _M) - _M) // 2 - 2**64) % _M
    bipartite = True

    def __init__(self, n):
        if n < 0:
            raise EndscopeError("rank must be >= 0")
        self.n = n
        self.name = f"z:{n}"
        self.identity = self.radix**n
        self._steps = tuple(d * self.radix**i for i in range(n) for d in (1, -1))
        self.generators = tuple(f"x{i}{sign}" for i in range(n) for sign in "+-")

    def multiply(self, key, gen):
        return key + self._steps[gen]


class FreeOracle(GroupOracle):
    """Free group of rank n.  A freely reduced word is keyed by one int whose
    base-(2n + 1) digits, most significant first, are its letters: generator
    g is the digit g + 1, so no digit is 0 and the identity, the empty word,
    is 0.  Distinct words get distinct ints, and ints below 2^61 - 1 hash to
    themselves, so a ball's keys hash apart (tuples of signed letters
    +-(i + 1) would not: hash(-1) == hash(-2)).
    """

    bipartite = True

    def __init__(self, n):
        if n < 0:
            raise EndscopeError("rank must be >= 0")
        self.n = n
        self.name = f"free:{n}"
        self.identity = 0
        self._base = 2 * n + 1
        # the digit of generator g's inverse, g ^ 1 (generators come in +- pairs)
        self._cancels = tuple((g ^ 1) + 1 for g in range(2 * n))
        self.generators = tuple(f"g{i}{sign}" for i in range(n) for sign in "+-")

    def multiply(self, key, gen):
        word, last = divmod(key, self._base)
        if last == self._cancels[gen]:
            return word
        return key * self._base + gen + 1


class CyclicOracle(GroupOracle):
    """Finite cyclic group of order n."""

    def __init__(self, n):
        if n < 1:
            raise EndscopeError("order must be >= 1")
        self.n = n
        self.name = f"zmod:{n}"
        self.identity = 0
        self.bipartite = n % 2 == 0
        self.generators = ("t",) if n <= 2 else ("t", "T")

    def multiply(self, key, gen):
        return (key + (1 if gen == 0 else -1)) % self.n


class CoxeterOracle(GroupOracle):
    """Coxeter group oracle; generators are the diagram vertices.

    An element w is determined by w(rho), exact over Z[2cos(pi/M)] in the
    dual coordinates of the Tits cone (see tits_cone_action): n*d integers
    x_j.  Generators act on the left; the left and right Cayley graphs are
    isomorphic through w -> w^-1, which breadth-first search from the
    identity respects.  Every relator s^2 and (st)^m has even length, so
    the graph is bipartite.

    The key of w is one int: x_j sits in the `width` bits from bit
    width*j, as x_j + 2^(v-1) in the low v = `value_bits` bits, v = 64 +
    the bit length of the action's largest |coefficient| (at least 2); the
    g bits above are guard bits, zero in every key.  s_i adds
    (x_(i,a) - 2^(v-1)) times a packed step for each of the d coordinates
    x_(i,a) of block i, each read by one shift and mask (one term when
    every label is 2, 3 or inf).
    As 2^(g+1) >= S + 2, S the largest total |coefficient| one generator
    adds into one coordinate (its own -2 included), one multiply leaves
    each field in (-2^w, 2^w), so a field that leaves [0, 2^v) sets a
    guard bit (a borrow shows as field + 2^w) before it can spill into a
    neighbour; multiply then raises KeyWidthExceededError (exit 4) and
    never returns a wrong key.

    Python hashes an int modulo M = 2^61 - 1 (64-bit builds), and 2^61 is
    1 modulo M, so field j has hash weight 2^(width*j mod 61).  The width
    is rounded up to 15 modulo 61: the weights 2^(15j mod 61) spread the
    fields over the 61 bits, where a multiple of 61 would give them all
    weight 1 and pile a ball onto few hash values.
    """

    bipartite = True

    def __init__(self, sys: CoxeterSystem):
        self.name = "coxeter"
        self.generators = tuple(str(v) for v in sys.generators)
        rho, action = tits_cone_action(sys)
        # S (`most`): the largest total |coefficient| one generator adds into
        # one coordinate; `largest`: the largest |coefficient|
        most = largest = 2
        for columns in action:
            into = {src: 2 for src, _ in columns}
            for _, column in columns:
                for dst, c in column:
                    into[dst] = into.get(dst, 0) + abs(c)
                    largest = max(largest, abs(c))
            most = max(most, *into.values())
        self.value_bits = v = 64 + largest.bit_length()
        guard = (most + 1).bit_length() - 1  # the least g with 2^(g+1) >= S + 2
        self.width = w = v + guard + (15 - v - guard) % 61
        self._offset = 1 << (v - 1)
        self._mask = (1 << v) - 1
        self._guard = _pack([(j, ((1 << w) - 1) ^ self._mask) for j in range(len(rho))], w)
        self.identity = _pack([(j, x + self._offset) for j, x in enumerate(rho)], w)
        self._terms = tuple(
            tuple((w * src, _pack(sorted([(src, -2), *column]), w)) for src, column in columns)
            for columns in action)

    def multiply(self, key, gen):
        out = key
        for shift, step in self._terms[gen]:
            out += (((key >> shift) & self._mask) - self._offset) * step
        if out & self._guard:
            raise KeyWidthExceededError(self.width)
        return out


def _pack(terms, width):
    """The sum of c << (width * p) over the (p, c) in `terms`, sorted by p.
    It adds the halves of `terms` recursively, so building a key-wide step
    of many terms costs a few key-wide additions, not one per term."""
    if len(terms) <= 16:
        return sum(c << (width * p) for p, c in terms)
    half = len(terms) // 2
    p0 = terms[half][0]
    high = _pack([(p - p0, c) for p, c in terms[half:]], width)
    return _pack(terms[:half], width) + (high << (width * p0))


class _ProductOracle(GroupOracle):
    """Generators of all parts, labeled "<part>.<name>"; generator k is
    generator j of part i, where _local[k] is (i, part i's multiply, j)."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._local = tuple(
            (i, p.multiply, j) for i, p in enumerate(self.parts) for j in range(len(p.generators))
        )
        self.generators = tuple(f"{i}.{self.parts[i].generators[j]}" for i, _, j in self._local)
        # word-length parity is a homomorphism onto Z/2 on each bipartite
        # part, hence on their free or direct product
        self.bipartite = all(p.bipartite for p in self.parts)


class DirectProductOracle(_ProductOracle):
    def __init__(self, parts):
        super().__init__(parts)
        self.name = "direct_product"
        self.identity = tuple(p.identity for p in self.parts)

    def multiply(self, key, gen):
        i, mul, g = self._local[gen]
        return key[:i] + (mul(key[i], g),) + key[i + 1:]


class FreeProductOracle(_ProductOracle):
    """Free product with alternating-syllable normal form."""

    def __init__(self, parts):
        super().__init__(parts)
        self.name = "free_product"
        self.identity = ()
        # generator k's part identity and its word of one syllable, () when
        # it is the identity of its part
        syllables = []
        for i, mul, g in self._local:
            unit = self.parts[i].identity
            x = mul(unit, g)
            syllables.append((unit, () if x == unit else ((i, x),)))
        self._syllable = tuple(syllables)

    def multiply(self, key, gen):
        i, mul, g = self._local[gen]
        if key and (last := key[-1])[0] == i:
            merged = mul(last[1], g)
            if merged == self._syllable[gen][0]:
                return key[:-1]
            return key[:-1] + ((i, merged),)
        return key + self._syllable[gen][1]


# --- Ball construction ---------------------------------------------------------

class BallGraph(NamedTuple):
    """A Cayley ball indexed by integer ids: an element's id is its position
    in BFS order, so ids are sorted by distance.  Adjacency is one table of
    n slots per id, n the number of generators: neighbors[u * n + g] is the
    id of u*g, or -1 when u*g lies outside the ball or g is the identity.
    Slot g of u holds v exactly when slot inverse[g] of v holds u.
    `outer_edges` is True when an edge joins two elements of the outer
    sphere, which never holds on a bipartite oracle; the end search and DOT
    export skip the outer sphere's rows when it is False."""

    radius: int
    order: list  # element keys; the key of id u is order[u]
    neighbors: list  # u * n + g -> id of u*g, or -1
    layer: list  # d -> first id at distance d, for d in 0..radius + 1
    exhausted: bool  # whole group fits inside the ball
    outer_edges: bool  # an edge joins two elements of the outer sphere
    generator_names: tuple
    inverse: list  # generator index -> index of its inverse

    def sphere(self, d):
        """Ids at distance d, a contiguous range."""
        return range(self.layer[d], self.layer[d + 1])


def build_ball(oracle: GroupOracle, radius: int, element_cap=DEFAULT_ELEMENT_CAP) -> BallGraph:
    """Breadth-first closure of the generator action, truncated at `radius`.

    The spheres are expanded in turn, and the table covers every edge with
    both ends inside the ball.  Each edge is multiplied once, from its
    smaller id u: finding v = u*g fills slot g of u with v and slot
    inverse[g] of v with u, so when v's turn comes that slot is already
    filled and costs no multiply.  On a bipartite oracle no edge joins two
    elements of the outer sphere, so its empty slots all lead outside the
    ball and the outer sphere is not multiplied at all.  On any other oracle
    it is multiplied outward to find the edges inside it, which set
    `outer_edges`, and a product outside the ball leaves its slot at -1.
    `exhausted` is set when no element of the outer sphere has a neighbor
    outside the ball, that is, when its only empty slots are those of
    identity generators.

    A negative radius, a cap below 1 and generators that are not distinct
    and inverse-closed raise EndscopeError; a ball that would hold more than
    `element_cap` elements raises MemoryCapExceededError.
    """
    if radius < 0:
        raise EndscopeError("radius must be >= 0")
    if element_cap < 1:
        raise EndscopeError("element cap must be >= 1")
    multiply, identity = oracle.multiply, oracle.identity
    # inverse[g] is the generator h with g*h = identity (n + n^2 multiplies);
    # it is a permutation iff the generators are distinct and inverse-closed
    elements = [multiply(identity, g) for g in range(len(oracle.generators))]
    n = len(elements)
    inverse = []
    for x in elements:
        solutions = [h for h in range(n) if multiply(x, h) == identity]
        inverse.append(solutions[0] if len(solutions) == 1 else None)
    if None in inverse or len(set(inverse)) < n:
        raise EndscopeError(f"the generators of {oracle.name} must be distinct and inverse-closed")
    # a generator equal to the identity labels only self-loops, which the
    # ball leaves out: its slots stay -1
    steps = [(g, inverse[g]) for g, x in enumerate(elements) if x != identity]
    order = [identity]
    ids = {identity: 0}  # key -> id, needed only while building
    setdefault = ids.setdefault
    size = 1  # len(order)
    layer = [0]
    neighbors = [-1] * n
    blank = neighbors[:]
    for d in range(radius):
        lo, hi = layer[d], size
        layer.append(hi)  # expanding sphere d appends sphere d + 1
        for u, key in enumerate(order[lo:hi], lo):
            base = u * n
            for g, h in steps:
                if neighbors[base + g] < 0:
                    w = multiply(key, g)
                    v = setdefault(w, size)  # one probe: w is new iff v == size
                    if v == size:
                        if size >= element_cap:
                            raise MemoryCapExceededError(element_cap)
                        size += 1
                        order.append(w)
                        neighbors += blank
                    neighbors[base + g] = v
                    neighbors[v * n + h] = u
    lo = layer[radius]
    layer.append(size)
    outer_edges = False
    if not oracle.bipartite:
        # the outer sphere, multiplied outward: a product outside the ball
        # must not enter `ids`.  Its slots back to sphere radius - 1 are
        # filled, so a slot filled here is an edge inside the outer sphere.
        get = ids.get
        for u, key in enumerate(order[lo:], lo):
            base = u * n
            for g, h in steps:
                if neighbors[base + g] < 0:
                    v = get(multiply(key, g))
                    if v is not None:
                        outer_edges = True
                        neighbors[base + g] = v
                        neighbors[v * n + h] = u
    escaped = neighbors[lo * n:].count(-1) > (size - lo) * (n - len(steps))
    return BallGraph(
        radius=radius,
        order=order,
        neighbors=neighbors,
        layer=layer,
        exhausted=not escaped,
        outer_edges=outer_edges,
        generator_names=tuple(oracle.generators),
        inverse=inverse,
    )


# --- End estimation --------------------------------------------------------------

class EndEstimate(NamedTuple):
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


def _peel(ball: BallGraph, r_min):
    """Reverse union-find that adds the layers from the outer sphere down to
    distance r_min.

    Returns counts: counts[r] for r in [r_min, R] is the number of
    components of the subgraph induced on distances [r, R] (the ball minus
    the open ball of radius r) that contain a distance-R element.  A root is
    the largest id of its component, so a component meets the outer sphere
    iff its root does.  Layer d joins each u to the slots of u holding an id
    of distance >= d; an empty slot holds -1, which is below every layer.
    The root a of u's component is found once per u and kept current across
    its unions, since the larger root is the one that survives.  Layer R
    joins only edges inside the outer sphere; without them it is skipped.
    """
    neighbors, layer = ball.neighbors, ball.layer
    n = len(ball.generator_names)
    outer = layer[ball.radius]
    root = list(range(len(ball.order)))
    count = len(ball.order) - outer
    counts = [0] * (ball.radius + 1)
    counts[ball.radius] = count
    top = ball.radius if ball.outer_edges else ball.radius - 1
    for d in range(top, r_min - 1, -1):
        lo = layer[d]
        for u in range(lo, layer[d + 1]):
            a = u
            while root[a] != a:  # path halving
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


def estimate_ends(ball: BallGraph, r_min: int, r_max: int) -> EndEstimate:
    """Outer-touching component counts for r in [r_min, r_max] and a verdict.

    Stabilized(k) needs the count constant at k in {0, 1, 2} over the last
    half of the window; strictly increasing counts mean growing-to-infinity.
    """
    if r_min < 0 or r_max < r_min:
        raise EndscopeError(f"bad window [{r_min}, {r_max}]")
    if r_max > ball.radius - 2:
        raise EndscopeError(
            f"r_max {r_max} leaves no margin below radius {ball.radius}"
        )
    if ball.exhausted:
        counts = [(r, 0) for r in range(r_min, r_max + 1)]
        return EndEstimate(tuple(counts), "stabilized", EndCount.ZERO, ball.radius)
    by_radius = _peel(ball, r_min)
    counts = [(r, by_radius[r]) for r in range(r_min, r_max + 1)]
    values = [c for _, c in counts]
    window = math.ceil(len(values) / 2)
    tail = values[-window:]
    closing = len(ball.sphere(ball.radius)) < len(ball.sphere(ball.radius - 1))
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


# --- Oracle spec strings (used by the CLI) ---------------------------------------

def _dihedral(m):
    return CoxeterOracle(CoxeterSystem(LabeledGraph.build(("s", "t"), [("s", "t", m)])))


# spec head -> oracle of the integer after the colon
_SPEC_OF = {"z": ZnOracle, "free": FreeOracle, "zmod": CyclicOracle, "i2": _dihedral}
# product spec head -> oracle of its parts
_PRODUCT_OF = {"freeprod": FreeProductOracle, "prod": DirectProductOracle}


def oracle_from_spec(spec: str) -> GroupOracle:
    """Build a named oracle: z:<n>, free:<n>, zmod:<n>, i2:<m>,
    freeprod:<part>x<part>..., prod:<part>x<part>... (parts are z, free,
    zmod or i2 specs; <n> and <m> are ASCII digits after an optional '-').
    A bad spec raises EndscopeError quoting the spec, or the part of a
    product spec that is bad, as typed."""
    head, _, rest = spec.partition(":")
    if head in _PRODUCT_OF:
        parts = rest.split("x")
        for part in parts:
            if not part:
                raise EndscopeError(f"bad oracle spec {spec!r}: a part is empty")
            if part.partition(":")[0] in _PRODUCT_OF:
                raise EndscopeError(
                    f"bad oracle spec {spec!r}: part {part!r} is a product, and products do not nest"
                )
        return _PRODUCT_OF[head]([oracle_from_spec(p) for p in parts])
    if head not in _SPEC_OF:
        raise EndscopeError(f"unknown oracle spec {spec!r}")
    n = read_int(rest)
    if n is None:
        raise EndscopeError(f"bad oracle spec {spec!r}: {rest!r} is not an integer")
    try:
        return _SPEC_OF[head](n)
    except EndscopeError as exc:
        raise EndscopeError(f"bad oracle spec {spec!r}: {exc}") from None
