"""Forward-chaining inference engine and proof certificates."""

import pathlib

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from endscope.atoms import PropertyAtom as A
from endscope.errors import ContradictionError, EndscopeError
from endscope.graph_products import (
    GraphProductSpec,
    graph_product_ends,
    graph_product_semistable,
)
from endscope.graphs import LabeledGraph
from endscope.inference import (
    Certificate,
    V,
    FactSet,
    _member,
    builtin_rules,
    explain,
    infer,
    known_groups_db,
    replay,
    structural_facts,
)
from endscope.model import (
    HNN,
    Amalgam,
    Artin,
    AttributeAssertion,
    CommensuratedPair,
    Coxeter,
    DirectProduct,
    Extension,
    Finite,
    Free,
    FreeAbelian,
    GraphProduct,
    GroupRegistry,
    Known,
    parse_document,
)
from endscope.report import certificate_closure, certificate_dag
from test_model import bench_documents

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
FIXTURES = ("contradiction.ggt", "coxeter_suite.ggt", "graph_products.ggt", "inference.ggt")

BS_DOC = (
    "group X = free_abelian(1)\n"
    "group BS = known(BS_2_3)\n"
    "group BSpair = commensurated_pair(BS, X) infinite_index\n"
    "assert BS : fg\n"
)

AMALGAM_DOC = (
    "group A = free(9)\n"
    "group B = free(9)\n"
    "group C = free(81)\n"
    "group Lambda = amalgam(A, B, C) c_index_finite_in_both\n"
)

THOMPSON_DOC = "group F = known(thompson_F)\n"


def test_rule_table_is_documented():
    rules = builtin_rules()
    assert len(rules) >= 20
    names = [r.name for r in rules]
    assert len(set(names)) == len(names)
    for rule in rules:
        assert rule.name.startswith("R-")
        assert rule.tag, rule.name
        assert rule.quote and len(rule.quote) > 10, rule.name


def test_every_atom_is_read_or_concluded():
    """An atom that no clause reads or concludes, and that no constructor or
    catalog entry gives, would be accepted in an assertion and do nothing."""
    used = {atom for rule in builtin_rules() for clause in rule.clauses
            for atom in [p[1] for p in clause.premises] + [c[0] for c in clause.conclusions]}
    used |= {atom for entries in known_groups_db().values() for atom, _, _ in entries}
    registry = parse_document("".join(
        f"group G{i} = {ctor}\n" for i, ctor in enumerate((
            "finite(2)", "free(0)", "free(1)", "free(2)", "free_abelian(2)",
            "coxeter { verts a ; }")))
    )
    used |= {cert.atom for cert in structural_facts(registry)}
    assert set(A) - used == set()


@pytest.mark.parametrize("atom, premise, rule, concluded", [
    ("normal_inf_fg_inf_index_subgroup", "fp", "R-M1-ATOM", [A.SEMISTABLE]),
    ("commensurated_inf_fg_inf_index_subgroup", "fg", "R-COMM-ATOM",
     [A.ENDS_ONE, A.SEMISTABLE]),
])
def test_subgroup_atoms_fire_their_theorems(atom, premise, rule, concluded):
    doc = f"group G = known(mystery)\nassert G : {atom}\n"
    facts = infer(parse_document(doc))
    assert all(facts.get("G", a) is None for a in concluded)
    facts = infer(parse_document(doc + f"assert G : {premise}\n"))
    for a in concluded:
        cert = facts.get("G", a)
        assert cert.rule.name == rule and [c.atom.value for c in cert.children] == [premise, atom]


def test_known_groups_db_entries():
    db = known_groups_db()
    assert "lamplighter" in db and "thompson_F" in db
    lamplighter = dict((atom, holds) for atom, holds, _ in db["lamplighter"])
    assert lamplighter[A.SEMISTABLE] is False
    assert lamplighter[A.FP] is False


def test_bs_one_ended_semistable_via_commensuration():
    facts = infer(parse_document(BS_DOC))
    ends = facts.get("BS", A.ENDS_ONE)
    semi = facts.get("BS", A.SEMISTABLE)
    assert ends is not None and ends.rule.name == "R-COMM"
    assert semi is not None and semi.rule.name == "R-COMM"


def test_amalgam_one_ended_semistable_via_finite_index_edges():
    facts = infer(parse_document(AMALGAM_DOC))
    ends = facts.get("Lambda", A.ENDS_ONE)
    semi = facts.get("Lambda", A.SEMISTABLE)
    assert ends is not None and ends.rule.name == "R-FI-AMALG"
    assert semi is not None and semi.rule.name == "R-FI-AMALG"


def test_thompson_chain_scinf_semistable_h2():
    facts = infer(parse_document(THOMPSON_DOC))
    assert facts.get("F", A.SC_INF) is not None
    semi = facts.get("F", A.SEMISTABLE)
    assert semi.rule.name == "R-SC2SS"
    h2 = facts.get("F", A.H2_FREE_ABELIAN)
    assert h2.rule.name == "R-GM2"
    # the H2 derivation rests on the semistability step
    child_rules = {c.rule.name for c in h2.children if c.rule is not None}
    assert "R-SC2SS" in child_rules


def test_structural_facts_from_constructors():
    reg = parse_document(
        "group F6 = finite(6)\ngroup Z = free_abelian(1)\ngroup Fr = free(2)\n"
        "group Z3 = free_abelian(3)\n"
    )
    facts = infer(reg)
    assert facts.get("F6", A.FINITE) is not None
    assert facts.get("F6", A.SEMISTABLE) is not None
    assert facts.get("Z", A.ENDS_TWO) is not None
    assert facts.get("Fr", A.ENDS_INFINITE) is not None
    assert facts.get("Z3", A.ENDS_ONE) is not None
    assert facts.get("Z3", A.NO_F2_SUBGROUP) is not None


def test_ends_values_are_mutually_exclusive():
    facts = infer(parse_document("group Z = free_abelian(1)\n"))
    assert facts.get("Z", A.ENDS_TWO, True) is not None
    assert facts.get("Z", A.ENDS_ONE, False) is not None
    assert facts.get("Z", A.ENDS_INFINITE, False) is not None


def test_inference_is_idempotent_and_deterministic():
    f1 = infer(parse_document(BS_DOC))
    f2 = infer(parse_document(BS_DOC))
    assert set(f1) == set(f2)


def test_inference_monotone_in_assertions():
    base = set(infer(parse_document(AMALGAM_DOC)))
    bigger = set(infer(parse_document(AMALGAM_DOC + "assert Lambda : fg\n")))
    assert base < bigger and ("Lambda", A.FG, True) in bigger


def test_contradiction_raises_with_both_certificates():
    reg = parse_document("group L = known(lamplighter)\nassert L : semistable\n")
    with pytest.raises(ContradictionError) as exc:
        infer(reg)
    err = exc.value
    assert err.group == "L" and err.atom is A.SEMISTABLE
    assert err.cert_holds is not None and err.cert_fails is not None
    assert err.cert_holds.holds != err.cert_fails.holds


def test_certificate_replay_reproduces_facts():
    for doc in (BS_DOC, AMALGAM_DOC, THOMPSON_DOC):
        reg = parse_document(doc)
        facts = infer(reg)
        assert replay(reg, facts)


def test_certificate_leaves_are_rule_free():
    facts = infer(parse_document(THOMPSON_DOC))
    cert = facts.get("F", A.H2_FREE_ABELIAN)
    _, rows, _ = certificate_dag(certificate_closure([cert]))
    leaves = [row for row in rows if not row.get("premises")]
    assert leaves
    for leaf in leaves:
        assert "rule" not in leaf
        assert leaf["provenance"]


def amalgam_chain(depth):
    """G{k+1} = amalgam(G{k}, G{k}, C) edge_finite: R-H2RED derives h2_trivial
    on each link from both copies of the one below, so every derivation
    shares its premises and a tree of it holds 2^depth copies of the
    derivation of G0 : h2_trivial."""
    return "group G0 = known(thompson_F)\ngroup C = finite(2)\n" + "".join(
        f"group G{k + 1} = amalgam(G{k}, G{k}, C) edge_finite\n" for k in range(depth))


@pytest.mark.parametrize("depth", [16, 200])
def test_explain_and_replay_read_each_shared_fact_once(depth):
    reg = parse_document(amalgam_chain(depth))
    facts = infer(reg)
    cert = facts.get(f"G{depth}", A.H2_TRIVIAL)
    _, rows, _ = certificate_dag(certificate_closure([cert]))
    text = explain(facts, f"G{depth}", A.H2_TRIVIAL)
    assert text.count("[rule ") == sum("rule" in row for row in rows) == depth + 1
    assert replay(reg, facts)


def test_explain_writes_a_repeated_fact_once():
    facts = infer(parse_document((FIXTURE_DIR / "graph_products.ggt").read_text()))
    assert explain(facts, "OV2", A.ENDS_TWO).split("\n") == [
        "OV2 : ends_two  [rule R-GP, theorem OV]",
        "  quote: (i) $\\Gamma$ is a complete graph such that one vertex group has"
        " more than one end and all others are finite, or (ii) $G$ visually splits"
        " over a finite group. / Then $G$ does not have semistable fundamental group"
        " at $\\infty$ if and only if there is a vertex $v$ of $\\Lambda$ such that:"
        " (1) $G_v$ does not have semistable fundamental group at $\\infty$ and (2)"
        " the link of $v$ is a complete graph with each vertex group finite.",
        "  note: decider witness: {'kind': 'join_with_infinite_dihedral',"
        " 'gamma1': (), 'gamma2': ('x', 'y')}",
        "  Z2 : finite  [structural: finite of order 2]",
        "  Z2 : ends_zero  [rule R-FIN, theorem E3inf]",
        "    quote: Then $X$ has $0$, $1$, $2$ or infinitely many ends.",
        "    Z2 : finite  [see above]",
        "  Z2 : semistable  [structural: finite of order 2]",
        "  Z2 : fp  [structural: finite of order 2]",
        "  Z2 : finite  [see above]",
        "  Z2 : ends_zero  [see above]",
        "  Z2 : semistable  [see above]",
        "  Z2 : fp  [see above]",
    ]


def test_explain_renders_rule_tag_and_quote():
    facts = infer(parse_document(THOMPSON_DOC))
    text = explain(facts, "F", A.H2_FREE_ABELIAN)
    assert "R-GM2" in text
    assert "R-SC2SS" in text
    # quotes are rendered, not just tags
    assert '"' in text or "semistable" in text


def test_explain_underived_fact_is_an_error():
    facts = infer(parse_document(THOMPSON_DOC))
    with pytest.raises(EndscopeError, match=r"fact \(F, word_hyperbolic\) was not derived"):
        explain(facts, "F", A.WORD_HYPERBOLIC)


def test_only_the_decider_bridges_have_python_bodies():
    rules = builtin_rules()
    assert len(rules) == 41
    coded = [r.name for r in rules if any(c.body is not None for c in r.clauses)]
    assert coded == ["R-COXE", "R-ARTINE", "R-GP"]
    for rule in rules:
        assert rule.clauses, rule.name
        for clause in rule.clauses:
            if clause.body is not None:
                # a bridge is its rule's one clause, built by one constructor
                assert len(rule.clauses) == 1 and isinstance(clause.ctor, type), rule.name
                assert not clause.conclusions and clause.guard is None, rule.name


def test_amalgam_sc_inf_cites_the_amalgam_theorem():
    facts = infer(parse_document(
        "group S = known(SLn_Z_1_over_p)\n"
        "group T = known(SLn_Z_1_over_p)\n"
        "group E = free_abelian(2)\n"
        "group G = amalgam(S, T, E)\n"
    ))
    cert = facts.get("G", A.SC_INF)
    assert cert is not None and cert.rule.name == "R-JACKIi"
    assert cert.rule.tag == "JackIi"
    assert cert.rule.quote.startswith("Suppose $G=G_1\\ast_HG_2$")
    assert [(c.group, c.atom) for c in cert.children] == [
        ("S", A.FP), ("S", A.ENDS_ONE), ("S", A.SC_INF),
        ("T", A.FP), ("T", A.ENDS_ONE), ("T", A.SC_INF),
        ("E", A.FG), ("E", A.ENDS_ONE),
    ]


# --- The semi-naive fixpoint against the naive round loop -----------------------

def reference_fire(rule, registry, facts, gname, expr):
    """One firing of a rule in the naive loop: each clause in turn, a bridge
    by its body, reading the facts only after the caller has added the
    conclusions of the clauses before it."""
    for clause in rule.clauses:
        if clause.ctor is not None and not isinstance(expr, clause.ctor):
            continue
        if clause.guard is not None and not getattr(expr, clause.guard):
            continue
        if clause.body is not None:
            yield from clause.body(rule, registry, facts, gname, expr)
            continue
        children = []
        for role, atom, holds in clause.premises:
            cert = facts.get(_member(gname, expr, role), atom, holds)
            if cert is None:
                break
            children.append(cert)
        else:
            target = _member(gname, expr, clause.target)
            for atom, holds in clause.conclusions:
                yield Certificate(target, atom, holds, rule, clause.note, tuple(children))


def reference_infer(registry):
    """The naive fixpoint: every round fires every rule on every group, until a
    whole round adds nothing."""
    facts = FactSet()
    for cert in structural_facts(registry):
        facts.add(cert)
    for name, assertions in registry.assertions.items():
        for a in assertions:
            facts.add(Certificate(a.target, a.atom, a.holds, provenance="user assertion"))
    changed = True
    while changed:
        changed = False
        for gname, expr in registry.groups.items():
            for rule in builtin_rules():
                for cert in reference_fire(rule, registry, facts, gname, expr):
                    if facts.add(cert):
                        changed = True
    return facts


def fixpoint_outcome(engine, registry):
    """Everything the fixpoint hands on: the facts in insertion order with
    their certificate trees (tuple equality compares every field: rule, note
    or provenance, and children, recursively) and the decider results, or
    the contradiction with both certificates."""
    try:
        facts = engine(registry)
    except ContradictionError as err:
        return ("contradiction", err.group, err.atom, err.cert_holds, err.cert_fails)
    return ("facts", list(facts), list(facts.certificate_map().values()), list(facts.decided.items()))


def assert_same_fixpoint(registry):
    got = fixpoint_outcome(infer, registry)
    assert got == fixpoint_outcome(reference_infer, registry)
    return got[0]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixtures_match_the_naive_fixpoint(fixture):
    text = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
    kind = assert_same_fixpoint(parse_document(text))
    assert kind == ("contradiction" if fixture == "contradiction.ggt" else "facts")


def test_bench_documents_match_the_naive_fixpoint():
    """The generated documents of seeds 1-3, 21 of them contradictory.  Their
    chains hold links amalgam(top, top, Z) reduced, whose clauses read the
    same group's facts in roles `a` and `b`."""
    kinds = [assert_same_fixpoint(parse_document(text))
             for seed in (1, 2, 3) for text in bench_documents(seed=seed)]
    assert len(kinds) == 108 and kinds.count("contradiction") == 21


def test_plain_clause_runs_once_exactly_when_its_premises_hold():
    """A plain clause (one without a `body`) runs on a group once when it
    applies to the group's constructor and guard flags and its premise facts
    all hold at the fixpoint, and never otherwise."""
    slots = [(rule, clause) for rule in builtin_rules() for clause in rule.clauses]
    texts = [(FIXTURE_DIR / f).read_text(encoding="utf-8") for f in FIXTURES]
    checked = ran = 0
    for text in texts + bench_documents():
        registry = parse_document(text)
        try:
            facts = infer(registry)
        except ContradictionError:
            continue
        for gname, expr in registry.groups.items():
            for i, (rule, clause) in enumerate(slots):
                if clause.body is not None:
                    continue
                due = ((clause.ctor is None or isinstance(expr, clause.ctor))
                       and (clause.guard is None or getattr(expr, clause.guard))
                       and all(facts.get(_member(gname, expr, role), atom, holds) is not None
                               for role, atom, holds in clause.premises))
                if due:
                    assert facts.evaluations[gname, i] == 1, (gname, rule.name, clause)
                else:
                    assert (gname, i) not in facts.evaluations, (gname, rule.name, clause)
                checked += 1
                ran += due
    assert ran > 3000 and checked > 10 * ran


def test_no_plain_clause_reads_the_vertex_role():
    """A plain clause runs once it has seen as many facts as it has premises,
    so its premises must be a fixed list; the vertex role V stands for every
    vertex group of a graph product, and only the R-GP bridge reads it."""
    readers = [(rule.name, clause.body is not None) for rule in builtin_rules()
               for clause in rule.clauses if any(role == V for role, _, _ in clause.premises)]
    assert readers == [("R-GP", True)]


KNOWN_NAMES = sorted(known_groups_db()) + ["BS_2_3"]


@st.composite
def diagrams(draw, labels):
    n = draw(st.integers(min_value=0, max_value=4))
    verts = [f"v{i}" for i in range(n)]
    edges = [(u, v, draw(labels)) for i, u in enumerate(verts) for v in verts[i + 1:]
             if draw(st.booleans())]
    return LabeledGraph.build(verts, edges)


@st.composite
def registries(draw):
    """Small registries with every constructor and guard flag, binary and
    other products, graph products, catalog entries and assertions of both
    polarities, so that some of them contradict."""
    reg = GroupRegistry()
    flag = st.booleans()
    for k in range(draw(st.integers(min_value=1, max_value=8))):
        names = list(reg.groups)
        ref = st.sampled_from(names) if names else None
        kinds = ["finite", "free", "free_abelian", "known", "coxeter", "artin"]
        if names:
            kinds += ["amalgam", "hnn", "extension", "product", "commensurated", "graph_product"]
        kind = draw(st.sampled_from(kinds))
        if kind == "finite":
            expr = Finite(draw(st.integers(min_value=1, max_value=6)))
        elif kind in ("free", "free_abelian"):
            expr = (Free if kind == "free" else FreeAbelian)(draw(st.integers(min_value=0, max_value=3)))
        elif kind == "known":
            expr = Known(draw(st.sampled_from(KNOWN_NAMES)))
        elif kind == "coxeter":
            expr = Coxeter(draw(diagrams(st.integers(min_value=2, max_value=5))))
        elif kind == "artin":
            expr = Artin(draw(diagrams(st.integers(min_value=2, max_value=4))))
        elif kind == "amalgam":
            expr = Amalgam(draw(ref), draw(ref), draw(ref), draw(flag), draw(flag), draw(flag))
        elif kind == "hnn":
            expr = HNN(draw(ref), draw(ref), draw(flag), draw(flag))
        elif kind == "extension":
            expr = Extension(draw(ref), draw(ref))
        elif kind == "product":
            expr = DirectProduct(tuple(draw(st.lists(ref, min_size=1, max_size=3))))
        elif kind == "commensurated":
            expr = CommensuratedPair(draw(ref), draw(ref), draw(flag))
        else:
            graph = draw(diagrams(st.just(2)))
            expr = GraphProduct(graph, tuple((v, draw(ref)) for v in graph.vertices))
        reg.add(f"G{k}", expr)
    names = list(reg.groups)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        reg.assert_attr(AttributeAssertion(
            draw(st.sampled_from(names)), draw(st.sampled_from(list(A))), draw(flag)))
    return reg


@settings(max_examples=400, deadline=None)
@given(registries())
def test_semi_naive_fixpoint_matches_the_naive_loop(registry):
    kind = assert_same_fixpoint(registry)
    event(kind)


# The naive loop ran 4 rounds on each of these fixtures: 1,248 rule firings and
# 840 clause runs past the constructor and guard checks on inference.ggt, 936
# and 600 on graph_products.ggt.  Every clause ran in every round, so a clause
# without premises ran 4 times.  A plain clause now runs once, when its last
# premise arrives: 33 runs on inference.ggt and 26 on graph_products.ggt
# (84 and 50 when a clause ran on every premise).
@pytest.mark.parametrize("fixture,naive_clause_runs", [
    ("inference.ggt", 840), ("graph_products.ggt", 600),
])
def test_each_clause_runs_at_most_once_per_premise_plus_one(fixture, naive_clause_runs):
    registry = parse_document((FIXTURE_DIR / fixture).read_text(encoding="utf-8"))
    facts = infer(registry)
    slots = [(rule, clause) for rule in builtin_rules() for clause in rule.clauses]
    clause_runs = 0
    for (group, i), runs in facts.evaluations.items():
        assert group in registry.groups
        rule, clause = slots[i]
        if clause.body is None:  # a bridge's premises wake it once per vertex group
            assert runs == 1, (group, rule.name, clause)
            clause_runs += runs
    assert 0 < clause_runs < naive_clause_runs / 20
    assert infer(registry).evaluations == facts.evaluations


# Vertex groups that leave the profile fields open, so the bridge looks past
# the first fact it tries for each: HNN extensions with no flags, one of them
# asserted not semistable and not FP.
GP_READS_DOC = (
    "group Z = free_abelian(1)\n"
    "group H = hnn(Z, Z)\n"
    "group N = hnn(Z, Z)\n"
    "assert N : not semistable\n"
    "assert N : not fp\n"
    "group P = graph_product { verts a:H b:N c:Z ; edge a b ; edge b c ; }\n"
)


# the commensurated pair declared last makes H one-ended, so both graph
# products over H are decided again
GP_LATE_FACTS_DOC = (
    "group Z = free_abelian(1)\n"
    "group H = hnn(Z, Z)\n"
    "assert H : fg\n"
    "assert H : fp\n"
    "assert H : infinite\n"
    "group GP = graph_product { verts a:H b:Z ; edge a b ; }\n"
    "group GQ = graph_product { verts a:H b:Z ; }\n"
    "group P = commensurated_pair(H, Z) infinite_index\n"
)


def test_graph_product_decisions_are_the_deciders_on_the_final_facts():
    """The R-GP bridge records its deciders' results on each run, so the record
    it leaves is that of its last run; that run sees the vertex profiles of
    the fixpoint's final facts."""
    from endscope import inference

    (slot,) = [i for i, (rule, _) in enumerate(inference._SLOTS) if rule.name == "R-GP"]
    texts = [(FIXTURE_DIR / f).read_text(encoding="utf-8") for f in FIXTURES]
    texts += [GP_READS_DOC, GP_LATE_FACTS_DOC]
    checked = rerun = 0
    for text in texts + bench_documents():
        registry = parse_document(text)
        try:
            facts = infer(registry)
        except ContradictionError:
            continue
        for name, expr in registry.groups.items():
            if not isinstance(expr, GraphProduct):
                continue
            profiles = {vertex: inference._vertex_profile(registry, facts, ref)[0]
                        for vertex, ref in expr.vertex_groups}
            spec = GraphProductSpec(expr.graph, profiles)
            assert facts.decided[name] == (
                graph_product_ends(spec), graph_product_semistable(spec)), name
            checked += 1
            rerun += facts.evaluations[name, slot] > 1
    assert checked > 60 and rerun >= 2


def test_graph_product_bridge_reads_only_its_declared_facts(monkeypatch):
    """Every vertex fact the R-GP bridge looks up is one of its clause's
    premises, so a fact it depends on always wakes it; and it looks up each
    of them on some input, so the premises list no fact the bridge ignores."""
    from endscope import inference

    looked = set()
    slots = list(inference._SLOTS)
    (i,) = [i for i, (rule, _) in enumerate(slots) if rule.name == "R-GP"]
    rule, clause = slots[i]

    def spying(rule, registry, facts, gname, expr):
        vertex_groups = {ref for _, ref in expr.vertex_groups}

        def get(group, atom, holds=True):
            if group in vertex_groups:
                looked.add((inference.V, atom, holds))
            return FactSet.get(facts, group, atom, holds)

        facts.get = get
        try:
            return list(inference._graph_product_bridge(rule, registry, facts, gname, expr))
        finally:
            del facts.get

    slots[i] = (rule, clause._replace(body=spying))
    monkeypatch.setattr(inference, "_SLOTS", tuple(slots))
    for text in ((FIXTURE_DIR / "graph_products.ggt").read_text(encoding="utf-8"), GP_READS_DOC):
        infer(parse_document(text))
    assert looked == set(clause.premises)
