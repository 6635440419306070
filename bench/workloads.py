"""Inputs, runners and answer checks for the four benchmark workloads.

An item is one verdict.  Each workload turns a seeded random generator into a
list of items, runs one item through endscope's public API, and checks the
answer: against an independent reference where one exists (the exact Coxeter
decider for sweep estimates, closed-form growth series for Cayley balls, Gram
matrices for finite type, answers known by construction for generated
diagrams, complexes and documents, exact-vs-window agreement for towers), and
otherwise against values recorded in ``expected.json``.

``run`` is the timed call into endscope and returns its raw answer;
``inspect`` is untimed and turns that answer into a Result.  A Result's
``digest`` must repeat whenever the same item runs again, so every repeated
pass also checks determinism.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = ("contradiction.ggt", "coxeter_suite.ggt", "graph_products.ggt", "inference.ggt")
END_CLASSES = ("0", "1", "2", "inf")


@dataclass
class Item:
    label: str
    args: tuple  # what the program receives
    expect: object = None  # independent or recorded answer
    exact: str | None = None  # exact end class, for the agreement matrix


@dataclass
class Result:
    error: str | None  # why the answer is wrong, or None
    digest: str
    out_bytes: int = 0
    exact: str | None = None  # exact end class of an estimated group
    verdict: str | None = None  # the estimate against it: agree | inconclusive | disagree


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def agreement(exact, verdict, ends):
    """Classify one end estimate against the exact end class."""
    if verdict == "stabilized":
        return "agree" if ends == exact else "disagree"
    if verdict == "growing_to_infinity":
        return "agree" if exact == "inf" else "disagree"
    return "inconclusive"


# --- Independent references ---------------------------------------------------

def finite_type(verts, label):
    """Finite type by the Gram-matrix test: W_S is finite iff the matrix
    (-cos(pi / m_st)) with 1 on the diagonal is positive definite.  Cholesky in
    floating point; affine types have a zero pivot, caught by the tolerance."""
    verts = list(verts)
    n = len(verts)
    gram = [[1.0 if i == j else -math.cos(math.pi / (label(verts[i], verts[j]) or math.inf))
             for j in range(n)] for i in range(n)]
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = gram[j][j] - sum(low[j][k] ** 2 for k in range(j))
        if pivot <= 1e-9:
            return False
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
    return True


def glued_blocks_ends(core, left, right, label):
    """Ends of the Coxeter group whose diagram is two complete blocks
    core+left and core+right with every left-right pair unrelated.

    With `right` empty the diagram is complete: 0 ends if finite, else 1.
    Otherwise W splits over W_core: multi-ended iff W_core is finite, and
    2-ended iff moreover both sides are single vertices commuting with core.
    """
    if not right:
        return "0" if finite_type(core + left, label) else "1"
    if not finite_type(core, label):
        return "1"
    if len(left) == 1 and len(right) == 1 and all(
        label(x, c) == 2 for x in (left[0], right[0]) for c in core
    ):
        return "2"
    return "inf"


def _series_mul(a, b, r):
    out = [0] * (r + 1)
    for i, x in enumerate(a[: r + 1]):
        if x:
            for j, y in enumerate(b[: r + 1 - i]):
                out[i + j] += x * y
    return out


def _series_inv(a, r):
    """Power-series inverse of an integer series with constant term 1."""
    inv = [1] + [0] * r
    for k in range(1, r + 1):
        inv[k] = -sum(a[i] * inv[k - i] for i in range(1, min(k, len(a) - 1) + 1))
    return inv


def sphere_sizes(spec, r):
    """Closed-form sphere sizes 0..r of the Cayley graph that
    oracle_from_spec(spec) explores: lattice-point counts for Z^n, 2n(2n-1)^(k-1)
    for free groups, cycles and dihedral orders for finite parts, series product
    for direct products and 1/S = sum(1/S_i) - (k-1) for free products."""
    head, _, rest = spec.partition(":")
    pad = lambda seq: (list(seq) + [0] * (r + 1))[: r + 1]
    if head == "z":
        n = int(rest)
        return [1] + [
            sum(2 ** i * math.comb(n, i) * math.comb(k - 1, i - 1) for i in range(1, n + 1))
            for k in range(1, r + 1)
        ]
    if head == "free":
        n = int(rest)
        return [1] + [2 * n * (2 * n - 1) ** (k - 1) for k in range(1, r + 1)]
    if head == "zmod":
        n = int(rest)
        counts = [0] * (n // 2 + 1)
        for j in range(n):
            counts[min(j, n - j)] += 1
        return pad(counts)
    if head == "i2":
        m = int(rest)
        return pad([1] + [2] * (m - 1) + [1])
    parts = [sphere_sizes(p, r) for p in rest.split("x")]
    if head == "prod":
        out = [1] + [0] * r
        for p in parts:
            out = _series_mul(out, p, r)
        return out
    if head == "freeprod":
        total = [1 - len(parts)] + [0] * r
        for p in parts:
            total = [x + y for x, y in zip(total, _series_inv(p, r))]
        return _series_inv(total, r)
    raise ValueError(f"unknown spec {spec!r}")


def _order(spec):
    """Order of a finite spec, or None when the group is infinite."""
    head, _, rest = spec.partition(":")
    if head == "zmod":
        return int(rest)
    if head == "i2":
        return 2 * int(rest)
    if head in ("z", "free"):
        return 1 if int(rest) == 0 else None
    orders = [_order(p) for p in rest.split("x")]
    if None in orders:
        return None
    if head == "prod":
        return math.prod(orders)
    nontrivial = [o for o in orders if o > 1]
    return 1 if not nontrivial else (nontrivial[0] if len(nontrivial) == 1 else None)


def spec_ends(spec):
    """Exact end class of the group named by an oracle spec."""
    head, _, rest = spec.partition(":")
    if _order(spec) is not None:
        return "0"
    if head == "z":
        return "2" if int(rest) == 1 else "1"
    if head == "free":
        return "2" if int(rest) == 1 else "inf"
    parts = rest.split("x")
    if head == "prod":
        infinite = [p for p in parts if _order(p) is None]
        return spec_ends(infinite[0]) if len(infinite) == 1 else "1"
    nontrivial = [p for p in parts if _order(p) != 1]
    if len(nontrivial) == 1:
        return spec_ends(nontrivial[0])
    if len(nontrivial) == 2 and all(_order(p) == 2 for p in nontrivial):
        return "2"
    return "inf"


# --- sweep ----------------------------------------------------------------------

def small_diagrams():
    """Coxeter diagrams on <= 4 vertices with labels in {2, 3, absent}, one per
    isomorphism class (80 classes), as (vertex count, edge list)."""
    diagrams = {}
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for assign in itertools.product([2, 3, None], repeat=len(pairs)):
            labels = dict(zip(pairs, assign))
            best = min(
                tuple(sorted(
                    (min(p[i], p[j]), max(p[i], p[j]), m)
                    for (i, j), m in labels.items() if m is not None
                ))
                for p in itertools.permutations(range(n))
            )
            diagrams.setdefault((n, best), [(i, j, m) for (i, j), m in labels.items() if m])
    return [(n, edges) for (n, _), edges in sorted(diagrams.items())]


def sweep_label(n, edges):
    return f"{n}:" + ",".join(f"{i}-{j}:{m}" for i, j, m in edges)


class Sweep:
    """The acceptance criterion-2 diagrams: exact ends, then a Coxeter-oracle
    ball and an end estimate.  Full size is the acceptance gate (radius 10,
    window 2..8); the timed pass keeps every diagram at radius 7 (window 2..5),
    a two-second pass, so a run repeats every item many times."""

    name = "sweep"
    rerun_first_pass = False

    def __init__(self, es, full, workdir):
        self.es = es
        self.radius = 10 if full else 7
        self.elements = load_expected()["sweep_elements"][str(self.radius)]

    def make_items(self, rng):
        items = [Item(sweep_label(n, edges), (n, edges)) for n, edges in small_diagrams()]
        rng.shuffle(items)
        return items

    def run(self, item):
        es = self.es
        n, edges = item.args
        system = es.coxeter.CoxeterSystem(es.graphs.LabeledGraph.build(range(n), edges))
        exact = es.coxeter.coxeter_ends(system).ends
        ball = es.cayley.build_ball(es.cayley.CoxeterOracle(system), self.radius)
        return exact, es.cayley.estimate_ends(ball, 2, self.radius - 2), len(ball.order)

    def inspect(self, item, answer):
        exact, est, elements = answer
        exact, ends = str(exact), None if est.ends is None else str(est.ends)
        verdict = agreement(exact, est.verdict, ends)
        error = None
        if verdict == "disagree":
            error = f"estimate {est.verdict} {ends} disagrees with exact {exact}"
        elif elements != self.elements[item.label]:
            error = f"ball has {elements} elements, recorded {self.elements[item.label]}"
        digest = repr((exact, est.verdict, ends, est.per_radius, elements))
        return Result(error, digest, exact=exact, verdict=verdict)


# --- cayley_cli -----------------------------------------------------------------

# (spec, the two radii of the timed pass, radius at full size).  Full radii
# reach balls of up to ~200k elements; timed radii keep a pass near two seconds, so a run
# repeats every item many times.
CAYLEY_GRID = (
    ("free:2", (6, 7), 9),
    ("free:3", (4, 5), 7),
    ("z:1", (30, 60), 200),
    ("z:2", (25, 40), 100),
    ("z:3", (8, 12), 30),
    ("z:4", (5, 7), 13),
    ("zmod:40", (10, 24), 24),
    ("i2:4", (4, 6), 6),
    ("i2:6", (4, 8), 8),
    ("freeprod:zmod:2xzmod:2", (30, 60), 300),
    ("freeprod:zmod:2xzmod:2xzmod:2", (9, 10), 16),
    ("freeprod:zmod:2xzmod:3", (12, 16), 24),
    ("freeprod:zmod:3xzmod:3", (7, 9), 15),
    ("freeprod:z:2xfree:1", (4, 5), 8),
    ("freeprod:i2:4xzmod:2", (8, 10), 16),
    ("freeprod:i2:6xz:1", (5, 6), 10),
    ("prod:free:2xz:1", (4, 5), 8),
    ("prod:free:2xzmod:2", (5, 6), 9),
    ("prod:z:1xzmod:3", (30, 60), 300),
    ("prod:z:1xz:1xz:1", (8, 12), 30),
    ("prod:i2:4xz:1", (20, 40), 150),
    ("prod:free:2xfree:2", (4, 5), 6),
)


class CayleyCli:
    """`endscope cayley --oracle S --radius R --window 2 R-2 --dot FILE` run
    in-process per grid item: oracle parsing, ball, estimate, sphere sizes and
    DOT export of one ball each."""

    name = "cayley_cli"
    rerun_first_pass = False

    def __init__(self, es, full, workdir):
        self.es = es
        self.full = full
        self.dot_path = str(workdir / "ball.dot")

    def make_items(self, rng):
        items = []
        for spec, timed, full in CAYLEY_GRID:
            for r in (full,) if self.full else timed:
                items.append(Item(f"{spec}@{r}", (spec, r), sphere_sizes(spec, r), spec_ends(spec)))
        rng.shuffle(items)
        return items

    def run(self, item):
        spec, r = item.args
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.es.cli.run([
                "cayley", "--oracle", spec, "--radius", str(r),
                "--window", "2", str(r - 2), "--dot", self.dot_path,
            ])
        return code, out.getvalue()

    def inspect(self, item, answer):
        code, text = answer
        with open(self.dot_path, "rb") as fh:
            dot = fh.read()
        result = Result(None, _sha(text) + hashlib.sha256(dot).hexdigest(),
                        len(text) + len(dot), item.exact)
        if code != 0:
            result.error = f"exit code {code}"
            return result
        ball, est = json.loads(text)["sections"]
        result.verdict = agreement(item.exact, est["verdict"], est["ends"])
        lines = dot.decode("ascii").splitlines()
        nodes = sum(1 for ln in lines if '[label="d=' in ln)
        edges = sum(1 for ln in lines if " -- " in ln)
        if ball["sphere_sizes"] != item.expect:
            result.error = f"sphere sizes {ball['sphere_sizes']} != closed form {item.expect}"
        elif ball["elements"] != sum(item.expect):
            result.error = f"{ball['elements']} elements != closed form {sum(item.expect)}"
        elif nodes != ball["elements"] or edges < nodes - 1:
            result.error = f"DOT has {nodes} nodes and {edges} edges for {ball['elements']} elements"
        return result


# --- deciders -------------------------------------------------------------------

def _dense_diagram(rng, n, scenario, labels):
    """K_n minus the edge (u, v).  scenario picks whether the core K_n - {u, v}
    is of finite type and whether u, v commute with it."""
    verts = [f"s{i}" for i in range(n)]
    rng.shuffle(verts)
    u, v, core = verts[0], verts[1], verts[2:]
    lab = {}
    for a, b in itertools.combinations(core, 2):
        lab[frozenset((a, b))] = 2
    if scenario == "core_infinite":
        for a, b in itertools.combinations(core, 2):
            lab[frozenset((a, b))] = rng.choice(labels)
        a, b, c = core[:3]  # a label-3 triangle is never of finite type
        lab[frozenset((a, b))] = lab[frozenset((b, c))] = lab[frozenset((a, c))] = 3
    else:  # core of type A_k: label 3 along a path, 2 elsewhere
        for a, b in zip(core, core[1:]):
            lab[frozenset((a, b))] = 3
    for x in (u, v):
        for c in core:
            lab[frozenset((x, c))] = 2 if scenario != "core_finite_linked" else rng.choice(labels)
    if scenario == "core_finite_linked":
        lab[frozenset((u, core[0]))] = 3
    label = lambda a, b: lab.get(frozenset((a, b)))
    edges = [(a, b, lab[frozenset((a, b))]) for a, b in itertools.combinations(verts, 2)
             if frozenset((a, b)) in lab]
    order = sorted(verts, key=lambda s: int(s[1:]))
    return order, edges, glued_blocks_ends(core, [u], [v], label)


def _flag_complex(rng, kind, k):
    """A flag complex with a verdict known by construction."""
    rim = [f"r{i}" for i in range(k)]
    cycle = [(rim[i], rim[(i + 1) % k]) for i in range(k)]
    if kind == "wheel":  # cone over C_k: a disk
        verts, edges = rim + ["h"], cycle + [("h", x) for x in rim]
        tris, verdict = [("h", a, b) for a, b in cycle], "yes"
    elif kind == "suspension":  # two cones over C_k: a 2-sphere
        verts = rim + ["n", "s"]
        edges = cycle + [(p, x) for p in ("n", "s") for x in rim]
        tris, verdict = [(p, a, b) for p in ("n", "s") for a, b in cycle], "yes"
    elif kind == "cycle":  # H1 = Z
        verts, edges, tris, verdict = rim, cycle, [], "no"
    else:  # path: cut vertices
        verts, edges, tris, verdict = rim, cycle[:-1], [], "no"
    rng.shuffle(verts)
    return (verts, edges, tris), verdict


# Spectra of the constant towers, one per slot, cycled.  The largest |eigenvalue|
# sets how fast the entries of A^k grow and so what a tower costs; fixing it per
# slot keeps the cost mix, and the median item (a rank-3 tower), the same for
# every seed.  Rank 3 is half of the mix so the median lies inside its block.
TOWER_SPECTRA = ((2,), (1, 0), (2, 1, 0), (2, 1, 0), (2, 1, 0), (2, 1, -1, 0),
                 (-1,), (1, 0), (2, 1, 0), (2, 1, 0), (2, 1, 0), (2, 1, -1, 0))


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _tower_matrix(rng, spectrum):
    """A = U J U^-1: J upper triangular with the spectrum on its diagonal in a
    seeded order and signs, seeded 0/1 links just above it, U a seeded
    unimodular matrix.  im(A^k) = U im(J^k), and J^k restricted to its eventual
    image has the nonzero eigenvalues, so every step of the image chain is
    proper iff some |eigenvalue| >= 2; otherwise the chain stabilizes."""
    n = len(spectrum)
    diag = [d * rng.choice((1, -1)) if abs(d) >= 2 else d for d in spectrum]
    rng.shuffle(diag)
    jordan = tuple(tuple(diag[i] if i == j else (rng.randint(0, 1) if j == i + 1 else 0)
                         for j in range(n)) for i in range(n))
    unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    u = u_inv = unit
    for _ in range(2 * n if n > 1 else 0):  # elementary moves row_i += c * row_j
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        move = tuple(tuple(int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n)) for a in range(n))
        undo = tuple(tuple(int(a == b) - (c if (a, b) == (i, j) else 0) for b in range(n)) for a in range(n))
        u, u_inv = _mat_mul(move, u), _mat_mul(u_inv, undo)
    verdict = "strictly_descending" if any(abs(d) >= 2 for d in spectrum) else "semistable"
    return _mat_mul(_mat_mul(u, jordan), u_inv), verdict


class Deciders:
    """Direct calls to the exact deciders: dense near-complete Coxeter
    diagrams and graph products (2^n clique-separator scans), RAAG flag
    complexes, and constant abelian towers (exact verdict vs 50-step window
    vs the verdict known from the spectrum)."""

    name = "deciders"
    rerun_first_pass = False

    def __init__(self, es, full, workdir):
        self.es = es
        self.sizes = range(10, 17) if full else range(10, 14)
        self.towers = 500 if full else 200

    def make_items(self, rng):
        es = self.es
        EC = es.atoms.EndCount
        VP = es.graph_products.VertexProfile
        fin2 = VP(True, 2, EC.ZERO, True, True)
        fin3 = VP(True, 3, EC.ZERO, True, True)
        infinite = [VP(False, None, e, True, True) for e in (EC.ONE, EC.TWO, EC.INFINITE)]
        not_ss = VP(False, None, EC.ONE, False, True)
        items = []
        scenarios = ("core_infinite", "core_finite", "core_finite_linked")
        for n in self.sizes:
            for rep in range(2):
                scenario = scenarios[(n + rep) % 3]
                verts, edges, ends = _dense_diagram(rng, n, scenario, (2, 3, 4, 5))
                items.append(Item(f"coxeter:{n}:{scenario}", ("coxeter", verts, edges), ends))
        for n in self.sizes:
            for rep in range(2):
                verts = [f"p{i}" for i in range(n)]
                rng.shuffle(verts)
                u, v, core = verts[0], verts[1], verts[2:]
                case = (n + rep) % 3
                profiles = {c: rng.choice((fin2, fin3)) for c in core}
                if case == 0:
                    profiles[core[-1]] = rng.choice(infinite)
                profiles[u] = fin2 if case == 1 else rng.choice(infinite + [not_ss])
                profiles[v] = fin2 if case == 1 else rng.choice(infinite)
                core_finite = all(profiles[c].finite for c in core)
                ends = "1" if not core_finite else (
                    "2" if profiles[u] is fin2 and profiles[v] is fin2 else "inf")
                semistable = "not_semistable" if core_finite and profiles[u] is not_ss else "semistable"
                edges = [(a, b, 2) for a, b in itertools.combinations(sorted(verts), 2)
                         if {a, b} != {u, v}]
                items.append(Item(f"graph_product:{n}:{case}",
                                  ("graph_product", sorted(verts), edges, profiles),
                                  (ends, semistable)))
        criterion4 = [
            ((["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b", "c")]), "yes"),
            ((["a", "b", "c"], [("a", "b"), ("b", "c")], []), "no"),
            ((["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], []), "no"),
        ]
        for complex_, verdict in criterion4:
            items.append(Item("complex:criterion4", ("complex", complex_), verdict))
        for kind in ("wheel", "suspension", "cycle", "path", "wheel"):
            complex_, verdict = _flag_complex(rng, kind, rng.randint(4, 8))
            items.append(Item(f"complex:{kind}", ("complex", complex_), verdict))
        for t in range(self.towers):
            spectrum = TOWER_SPECTRA[t % len(TOWER_SPECTRA)]
            mat, verdict = _tower_matrix(rng, spectrum)
            items.append(Item(f"tower:{len(spectrum)}", ("tower", len(spectrum), mat), verdict))
        rng.shuffle(items)
        return items

    def run(self, item):
        es = self.es
        kind = item.args[0]
        if kind == "coxeter":
            _, verts, edges = item.args
            graph = es.graphs.LabeledGraph.build(verts, edges)
            answer = str(es.coxeter.coxeter_ends(es.coxeter.CoxeterSystem(graph)).ends)
        elif kind == "graph_product":
            _, verts, edges, profiles = item.args
            spec = es.graph_products.GraphProductSpec(es.graphs.LabeledGraph.build(verts, edges), profiles)
            answer = (str(es.graph_products.graph_product_ends(spec).ends),
                      es.graph_products.graph_product_semistable(spec).verdict)
        elif kind == "complex":
            complex_ = es.graphs.SimplicialComplex2.build(*item.args[1])
            answer = es.graph_products.raag_simply_connected_at_infinity(complex_).verdict
        else:
            _, n, mat = item.args
            exact = es.towers.ml_decide_constant(n, mat)
            _, windowed = es.towers.ml_check_window(es.towers.AbelianTower.constant_tower(n, mat), 1, 50)
            answer = (exact.kind, windowed.kind)
        return answer

    def inspect(self, item, answer):
        error = None
        if item.args[0] == "tower":
            if answer[0] != answer[1]:
                error = f"exact {answer[0]} vs window {answer[1]}"
            elif answer[0] != item.expect:
                error = f"verdict {answer[0]}, the spectrum gives {item.expect}"
        elif answer != item.expect:
            error = f"got {answer}, expected {item.expect}"
        return Result(error, repr(answer))


# --- analyze --------------------------------------------------------------------

# Links of a derivation chain: what each concludes for certain on its new group.
LINKS = {
    "amalgam": ("ends_one", "semistable"),
    # both factors are the chain's group, so the certificates of its ends_one
    # and semistable facts appear twice in each new one: size grows ~4x
    "amalgam_reduced": ("ends_one", "semistable"),
    "ascending_hnn": ("ends_one", "semistable"),  # and sc_inf over a one-ended base
    "fi_hnn": ("ends_one",),
    "extension": ("semistable", "sc_inf"),
    "direct_product": ("sc_inf", "semistable"),
}
# Chain shape: a fixed number of doubling links keeps the certificate size,
# and so the cost of every document, within one order of magnitude.
CHAIN = (("amalgam", "ascending_hnn"), ("amalgam_reduced",), ("amalgam", "ascending_hnn"),
         ("amalgam_reduced",), tuple(LINKS))
CONTRADICTORY_EVERY = 5  # every fifth generated document plants a contradiction


class DocumentBuilder:
    """One generated `.ggt` document and the facts it must yield."""

    def __init__(self, rng):
        self.rng = rng
        self.lines = []
        self.expected = set()  # (group, atom) that must hold
        self.coxeter = {}  # group -> exact end class
        self.count = 0

    def group(self, prefix, expr, *facts):
        self.count += 1
        name = f"{prefix}{self.count}"
        self.lines.append(f"group {name} = {expr}")
        self.expected.update((name, f) for f in facts)
        return name

    def claim(self, name, *atoms):
        self.lines += [f"assert {name} : {a}" for a in atoms]

    def coxeter_group(self, n):
        """Complete up to 7 vertices; from 8 on, two complete blocks sharing all
        but six vertices.  Either way the clique count (the decider's cost)
        depends on n alone."""
        rng = self.rng
        verts = [f"v{i}" for i in range(n)]
        core, left, right = (verts[:-6], verts[-6:-3], verts[-3:]) if n >= 8 else (verts, [], [])
        lab = {}
        for a, b in itertools.combinations(verts, 2):
            if not (a in left and b in right):
                lab[frozenset((a, b))] = rng.choice((2, 2, 2, 3, 3, 4, 5))
        label = lambda a, b: lab.get(frozenset((a, b)))
        ends = glued_blocks_ends(core, left, right, label)
        rng.shuffle(verts)
        body = " ".join(f"edge {a} {b} {label(a, b)} ;"
                        for a, b in itertools.combinations(verts, 2) if label(a, b))
        name = self.group("W", f"coxeter {{ verts {' '.join(verts)} ; {body} }}",
                          "fg", "fp", {"0": "ends_zero", "1": "ends_one", "2": "ends_two",
                                       "inf": "ends_infinite"}[ends])
        self.coxeter[name] = ends

    def artin_group(self, n):
        rng = self.rng
        verts = [f"a{i}" for i in range(n)]
        edges = [(a, b) for a, b in itertools.combinations(verts, 2) if rng.random() < 0.5]
        # connected with >= 2 vertices gives one end; otherwise a free product
        seen, stack = {verts[0]}, [verts[0]]
        while stack:
            x = stack.pop()
            for a, b in edges:
                y = b if a == x else a if b == x else None
                if y and y not in seen:
                    seen.add(y)
                    stack.append(y)
        ends = "ends_one" if len(seen) == n else "ends_infinite"
        body = " ".join(f"edge {a} {b} {rng.randint(2, 5)} ;" for a, b in edges)
        return self.group("A", f"artin {{ verts {' '.join(verts)} ; {body} }}", "fg", ends)

    def chain(self, base, leaves):
        """A derivation chain of the fixed CHAIN shape rooted at a one-ended,
        semistable, finitely presented group; returns its top group and last link."""
        rng = self.rng
        top, link = base, None
        for choices in CHAIN:
            link = rng.choice(choices)
            if link == "amalgam":
                expr = f"amalgam({top}, {rng.choice(leaves['one_ended'])}, {leaves['z']}) c_index_finite_in_both"
            elif link == "amalgam_reduced":
                expr = f"amalgam({top}, {top}, {leaves['z']}) reduced"
            elif link == "ascending_hnn":
                expr = f"hnn({top}, {leaves['z']}) ascending"
            elif link == "fi_hnn":
                expr = f"hnn({top}, {leaves['z']}) finite_index_image"
            elif link == "extension":
                expr = f"extension({top}, {leaves['zn']})"
            else:
                expr = f"direct_product({top}, {leaves['zn']})"
            one_ended = (top, "ends_one") in self.expected
            top = self.group("G", expr, *LINKS[link])
            if link == "ascending_hnn" and one_ended:
                self.expected.add((top, "sc_inf"))
            self.claim(top, "fg", "fp", "infinite")
            if link == "direct_product":
                self.claim(top, "recursively_presented")
            if rng.random() < 0.3:
                self.group("P", f"commensurated_pair({top}, {leaves['z']}) infinite_index")
                self.expected.add((top, "ends_one"))
        return top, link

    def text(self):
        return "\n".join(self.lines) + "\n"


def make_document(rng, slot):
    """Document number `slot` of a corpus: a Coxeter diagram on 6-11 vertices
    (labels 2-5), an Artin diagram, graph products, catalog leaves and two
    derivation chains.  Sizes and shapes depend on the slot only; the seed
    picks labels, links and names.  Every CONTRADICTORY_EVERY-th slot asserts
    the negation of a fact its first chain derives.

    Returns (text, expected exit code, facts that must hold, Coxeter end
    classes, planted contradiction or None)."""
    doc = DocumentBuilder(rng)
    z = doc.group("Z", "free_abelian(1)", "ends_two")
    zn = doc.group("Zn", f"free_abelian({rng.randint(2, 3)})", "ends_one")
    fin = [doc.group("Q", f"finite({q})", "ends_zero") for q in (2, 3)]
    free = doc.group("F", f"free({rng.randint(2, 4)})", "ends_infinite")
    sl = doc.group("K", "known(SLn_Z_1_over_p)", "ends_one", "sc_inf")
    doc.claim(sl, "fg")
    doc.group("K", "known(thompson_F)", "sc_inf", "semistable")
    doc.group("K", "known(sidki_double_F3)", "ends_one")
    doc.coxeter_group(6 + slot % 6)
    artin = doc.artin_group(rng.randint(3, 6))
    for _ in range(2):
        n = 5 + slot % 4
        verts = [f"u{i}" for i in range(n)]
        vgroups = " ".join(f"{v}:{rng.choice(fin + [z, zn, free])}" for v in verts)
        edges = " ".join(f"edge {a} {b} ;" for a, b in itertools.combinations(verts, 2)
                         if rng.random() < 0.6)
        doc.group("GP", f"graph_product {{ verts {vgroups} ; {edges} }}")
    leaves = {"z": z, "zn": zn, "one_ended": [zn, sl]}
    bases = [zn, sl] + ([artin] if (artin, "ends_one") in doc.expected else [])
    tops = [doc.chain(base, leaves) for base in rng.sample(bases, 2)]
    planted = None
    contradictory = slot % CONTRADICTORY_EVERY == CONTRADICTORY_EVERY - 1
    if contradictory:
        top, link = tops[0]
        atom = rng.choice(LINKS[link])
        doc.claim(top, f"not {atom}")
        planted = (top, atom)
    return doc.text(), (3 if contradictory else 0), doc.expected, doc.coxeter, planted


class Analyze:
    """`endscope analyze FILE` run in-process on the fixtures plus a seeded
    corpus of generated documents: parsing, the inference fixpoint, decider
    sections, certificate expansion and JSON encoding."""

    name = "analyze"
    rerun_first_pass = True  # reports must be byte-identical across runs

    def __init__(self, es, full, workdir):
        self.es = es
        self.docs = 60 if full else 36
        self.dir = workdir / "analyze"
        self.fixture_dir = HERE.parent / "tests" / "fixtures"
        self.recorded = load_expected()["fixtures"]

    def make_items(self, rng):
        self.dir.mkdir(parents=True, exist_ok=True)
        items = []
        for name in FIXTURES:
            path = self.fixture_dir / name
            if not path.is_file():
                raise FileNotFoundError(path)
            items.append(Item(f"fixture:{name}", (str(path),), self.recorded[name]))
        for i in range(self.docs):
            text, code, facts, coxeter, planted = make_document(rng, i)
            path = self.dir / f"doc{i:03d}.ggt"
            path.write_text(text, encoding="utf-8")
            items.append(Item(f"generated:{i}:exit{code}", (str(path),),
                              (code, facts, coxeter, planted)))
        rng.shuffle(items)
        return items

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.es.cli.run(["analyze", item.args[0]])
        return code, out.getvalue()

    def inspect(self, item, answer):
        code, text = answer
        result = Result(None, f"{code}:{_sha(text)}", len(text))
        result.error = self._wrong(item, code, json.loads(text))
        return result

    def _wrong(self, item, code, report):
        if item.label.startswith("fixture:"):
            want = item.expect
            if code != want["exit"]:
                return f"exit code {code}, recorded {want['exit']}"
            if code == 3:
                got = [report["contradiction"]["group"], report["contradiction"]["atom"]]
                return None if got == want["contradiction"] else f"contradiction {got}"
            facts = fact_rows(report)
            if _sha(json.dumps(facts)) != want["facts_sha256"]:
                return f"{len(facts)} facts differ from the {want['facts']} recorded"
            return None
        want_code, want_facts, coxeter, planted = item.expect
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if code == 3:
            got = (report["contradiction"]["group"], report["contradiction"]["atom"])
            return None if got == planted else f"contradiction {got}, planted {planted}"
        holds = {(g, a) for g, a, h in fact_rows(report) if h}
        missing = sorted(want_facts - holds)
        if missing:
            return f"missing facts {missing[:3]}"
        for section in report["sections"]:
            if section["type"] == "coxeter" and section["ends"] != coxeter[section["group"]]:
                return f"{section['group']} has {section['ends']} ends, reference {coxeter[section['group']]}"
        return None


def fact_rows(report):
    for section in report["sections"]:
        if section["type"] == "facts":
            return [[f["group"], f["atom"], f["holds"]] for f in section["facts"]]
    return []


WORKLOADS = {w.name: w for w in (Sweep, Analyze, Deciders, CayleyCli)}
