"""One group, two declarations: a check that needs no reference.

Each pair below declares one group in two ways, or two commensurable groups.
The number of ends, semistability and simple connectivity at infinity are
quasi-isometry invariants, and H^2(G; ZG) is one of commensurability
(Shapiro's lemma), so inference must never give the two declarations
opposite answers on the atoms below, nor find a contradiction.  A gap, where
only one side decides an atom, is a rule or decider still missing; gaps are
printed, not gated.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from endscope.atoms import ENDS_ATOMS, PropertyAtom as A
from endscope.errors import ContradictionError
from endscope.inference import infer
from endscope.model import parse_document

ATOMS = (A.FINITE, A.INFINITE, *ENDS_ATOMS.values(), A.SEMISTABLE, A.SC_INF,
         A.H2_TRIVIAL, A.H2_NONTRIVIAL, A.H2_FREE_ABELIAN)


def random_graph(rng):
    """1-6 vertices, each pair an edge with probability 1/2."""
    verts = [f"v{i}" for i in range(rng.randint(1, 6))]
    return verts, [e for e in itertools.combinations(verts, 2) if rng.random() < 0.5]


def diagram(kind, verts, edges):
    """A right-angled Coxeter or Artin diagram: every edge labelled 2."""
    return labelled_diagram(kind, verts, [(u, v, 2) for u, v in edges])


def labelled_diagram(kind, verts, edges):
    """A diagram from (u, v, label) edges; a missing edge is label infinity."""
    return (f"{kind} {{ verts {' '.join(verts)} ; "
            f"{''.join(f'edge {u} {v} {m} ; ' for u, v, m in edges)}}}")


def graph_product(vertex_group, verts, edges):
    return (f"graph_product {{ verts {' '.join(f'{v}:{vertex_group}' for v in verts)} ; "
            f"{''.join(f'edge {u} {v} ; ' for u, v in edges)}}}")


def same_groups(verts, edges):
    """Pair name -> the two declarations of one group on the graph."""
    k = len(verts)
    return {
        "racg": (diagram("coxeter", verts, edges), graph_product("C2", verts, edges)),
        "raag": (diagram("artin", verts, edges), graph_product("Z", verts, edges)),
        "free": (f"free({k})", graph_product("Z", verts, [])),
        "free_abelian": (f"free_abelian({k})",
                         graph_product("Z", verts, list(itertools.combinations(verts, 2)))),
    }


def davis_januszkiewicz(verts, edges):
    """The graph Gamma' on V x {0, 1} whose right-angled Coxeter group holds
    the RAAG of (verts, edges) with index 2^|V| (Davis-Januszkiewicz, J. Pure
    Appl. Algebra 153, 2000): for v != w, (v,1)(w,1) is an edge iff vw is an
    edge, and every other (v,i)(w,j) is; (v,0)(v,1) never is.  One vertex
    gives D_inf, an edge the 4-cycle, a non-edge the 4-path."""
    adjacent = set(edges) | {(w, v) for v, w in edges}
    new_verts = [f"{v}_{i}" for v in verts for i in (0, 1)]
    new_edges = [(f"{v}_{i}", f"{w}_{j}") for v, w in itertools.combinations(verts, 2)
                 for i in (0, 1) for j in (0, 1) if i == 0 or j == 0 or (v, w) in adjacent]
    return new_verts, new_edges


def clique_sizes(verts, edges):
    """The size of every clique of the graph, the empty one included."""
    adjacent = {v: set() for v in verts}
    for v, w in edges:
        adjacent[v].add(w)
        adjacent[w].add(v)
    sizes, stack = [], [(0, list(verts))]
    while stack:
        size, candidates = stack.pop()
        sizes.append(size)
        for i, v in enumerate(candidates):
            stack.append((size + 1, [w for w in candidates[i + 1:] if w in adjacent[v]]))
    return sizes


def random_coxeter(rng, prefix):
    """1-3 generators, each pair an edge with probability 1/2, labels 2-4."""
    verts = [f"{prefix}{i}" for i in range(rng.randint(1, 3))]
    return verts, [(u, v, rng.randint(2, 4)) for u, v in itertools.combinations(verts, 2)
                   if rng.random() < 0.5]


def commensurable_groups(rng):
    """Pair name -> two declarations of commensurable groups, and the lines
    that declare the groups they name."""
    verts, edges = random_graph(rng)
    k = len(verts)
    dj_verts, dj_edges = davis_januszkiewicz(verts, edges)
    # chi(A_Gamma) = 2^|V| chi(W_Gamma'): the RAAG has index 2^|V|
    chi_raag = sum((-1) ** size for size in clique_sizes(verts, edges))
    chi_racg = sum(Fraction(-1, 2) ** size for size in clique_sizes(dj_verts, dj_edges))
    assert chi_raag == 2 ** k * chi_racg, (verts, edges)
    (a, a_edges), (b, b_edges) = random_coxeter(rng, "a"), random_coxeter(rng, "b")
    across = [(u, v, 2) for u in a for v in b]
    pairs = {
        "dj": (graph_product("Z", verts, edges), diagram("coxeter", dj_verts, dj_edges)),
        "direct": ("direct_product(W1, W2)",
                   labelled_diagram("coxeter", a + b, a_edges + b_edges + across)),
        "finite": (f"finite({2 ** k})",
                   graph_product("C2", verts, list(itertools.combinations(verts, 2)))),
    }
    return pairs, [f"group W1 = {labelled_diagram('coxeter', a, a_edges)}",
                   f"group W2 = {labelled_diagram('coxeter', b, b_edges)}"]


def document(pairs, extra=()):
    lines = ["group C2 = finite(2)", "group Z = free_abelian(1)", *extra]
    for name, (left, right) in pairs.items():
        lines += [f"group {name}_1 = {left}", f"group {name}_2 = {right}"]
    return "\n".join(lines) + "\n"


def answer(facts, group, atom):
    """True or False when the fact set decides `atom` for `group`, else None."""
    for holds in (True, False):
        if facts.get(group, atom, holds) is not None:
            return holds
    return None


def compare_pairs(draw):
    """Opposite answers and gaps over 400 draws each of seeds 1 and 3, where
    `draw(rng)` gives the pairs and the extra lines of one document."""
    opposite, gaps, draws = Counter(), Counter(), 0
    for seed in (1, 3):
        rng = random.Random(seed)
        for _ in range(400):
            pairs, extra = draw(rng)
            text = document(pairs, extra)
            try:
                facts = infer(parse_document(text))
            except ContradictionError as exc:
                pytest.fail(f"contradiction on ({exc.group}, {exc.atom.value}) in\n{text}")
            draws += 1
            for name in pairs:
                for atom in ATOMS:
                    one, two = (answer(facts, f"{name}_{side}", atom) for side in (1, 2))
                    if None in (one, two):
                        if one is not two:
                            gaps[name, atom.value] += 1
                    elif one is not two:
                        opposite[name, atom.value] += 1
    print(f"\ngaps over {draws} draws (pair, atom: count):")
    for (name, atom), count in sorted(gaps.items()):
        print(f"  {name:<13}{atom:<16}{count}")
    assert draws == 800
    return opposite


def test_two_declarations_of_one_group_never_get_opposite_answers():
    opposite = compare_pairs(lambda rng: (same_groups(*random_graph(rng)), ()))
    assert not opposite, opposite


def test_commensurable_declarations_never_get_opposite_answers():
    opposite = compare_pairs(commensurable_groups)
    assert not opposite, opposite
