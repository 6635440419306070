"""One group, two declarations: a check that needs no reference.

Each pair below declares one group in two ways.  The number of ends,
semistability and simple connectivity at infinity are quasi-isometry
invariants, and H^2(G; ZG) is one of commensurability (Shapiro's lemma), so
inference must never give the two declarations opposite answers on the
atoms below, nor find a contradiction.  A gap, where only one side decides
an atom, is a rule or decider still missing; gaps are printed, not gated.
"""

import itertools
import random
from collections import Counter

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
    return f"{kind} {{ verts {' '.join(verts)} ; {''.join(f'edge {u} {v} 2 ; ' for u, v in edges)}}}"


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


def document(pairs):
    lines = ["group C2 = finite(2)", "group Z = free_abelian(1)"]
    for name, (left, right) in pairs.items():
        lines += [f"group {name}_1 = {left}", f"group {name}_2 = {right}"]
    return "\n".join(lines) + "\n"


def answer(facts, group, atom):
    """True or False when the fact set decides `atom` for `group`, else None."""
    for holds in (True, False):
        if facts.get(group, atom, holds) is not None:
            return holds
    return None


def test_two_declarations_of_one_group_never_get_opposite_answers():
    opposite, gaps, draws = Counter(), Counter(), 0
    for seed in (1, 3):
        rng = random.Random(seed)
        for _ in range(400):
            pairs = same_groups(*random_graph(rng))
            text = document(pairs)
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
    assert not opposite, opposite
