"""Forward-chaining inference engine and proof certificates."""

import pytest

from endscope.atoms import PropertyAtom as A
from endscope.errors import ContradictionError, FactNotDerivedError
from endscope.inference import (
    builtin_rules,
    certificate_leaves,
    explain,
    infer,
    known_groups_db,
    replay,
)
from endscope.model import AttributeAssertion, parse_document

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
    assert ends is not None and ends.rule == "R-COMM"
    assert semi is not None and semi.rule == "R-COMM"


def test_amalgam_one_ended_semistable_via_finite_index_edges():
    facts = infer(parse_document(AMALGAM_DOC))
    ends = facts.get("Lambda", A.ENDS_ONE)
    semi = facts.get("Lambda", A.SEMISTABLE)
    assert ends is not None and ends.rule == "R-FI-AMALG"
    assert semi is not None and semi.rule == "R-FI-AMALG"


def test_thompson_chain_scinf_semistable_h2():
    facts = infer(parse_document(THOMPSON_DOC))
    assert facts.has("F", A.SC_INF)
    semi = facts.get("F", A.SEMISTABLE)
    assert semi.rule == "R-SC2SS"
    h2 = facts.get("F", A.H2_FREE_ABELIAN)
    assert h2.rule == "R-GM2"
    # the H2 derivation rests on the semistability step
    child_rules = {c.rule for c in h2.children}
    assert "R-SC2SS" in child_rules


def test_structural_facts_from_constructors():
    reg = parse_document(
        "group F6 = finite(6)\ngroup Z = free_abelian(1)\ngroup Fr = free(2)\n"
        "group Z3 = free_abelian(3)\n"
    )
    facts = infer(reg)
    assert facts.has("F6", A.FINITE)
    assert facts.has("F6", A.SEMISTABLE)
    assert facts.has("Z", A.ENDS_TWO)
    assert facts.has("Fr", A.ENDS_INFINITE)
    assert facts.has("Z3", A.ENDS_ONE)
    assert facts.has("Z3", A.NO_F2_SUBGROUP)


def test_ends_values_are_mutually_exclusive():
    facts = infer(parse_document("group Z = free_abelian(1)\n"))
    assert facts.has("Z", A.ENDS_TWO, True)
    assert facts.has("Z", A.ENDS_ONE, False)
    assert facts.has("Z", A.ENDS_INFINITE, False)


def test_inference_is_idempotent_and_deterministic():
    f1 = infer(parse_document(BS_DOC))
    f2 = infer(parse_document(BS_DOC))
    assert set(f1.facts()) == set(f2.facts())


def test_inference_monotone_in_extra_facts():
    reg = parse_document(AMALGAM_DOC)
    base = set(infer(reg).facts())
    extra = AttributeAssertion("Lambda", A.FG, True, source="user")
    bigger = set(infer(reg, extra_facts=(extra,)).facts())
    assert base <= bigger


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
    leaves = list(certificate_leaves(cert))
    assert leaves
    for leaf in leaves:
        assert leaf.rule is None
        assert leaf.provenance


def test_explain_renders_rule_tag_and_quote():
    facts = infer(parse_document(THOMPSON_DOC))
    text = explain(facts, "F", A.H2_FREE_ABELIAN)
    assert "R-GM2" in text
    assert "R-SC2SS" in text
    # quotes are rendered, not just tags
    assert '"' in text or "semistable" in text


def test_explain_underived_fact_is_an_error():
    facts = infer(parse_document(THOMPSON_DOC))
    with pytest.raises(FactNotDerivedError):
        explain(facts, "F", A.WORD_HYPERBOLIC)


def test_only_the_decider_bridges_have_python_bodies():
    rules = builtin_rules()
    assert len(rules) == 39
    coded = [r.name for r in rules if r.body is not None]
    assert coded == ["R-COXE", "R-ARTINE", "R-GP"]
    for rule in rules:
        assert bool(rule.clauses) != (rule.body is not None), rule.name


def test_amalgam_sc_inf_cites_the_amalgam_theorem():
    facts = infer(parse_document(
        "group S = known(SLn_Z_1_over_p)\n"
        "group T = known(SLn_Z_1_over_p)\n"
        "group E = free_abelian(2)\n"
        "group G = amalgam(S, T, E)\n"
    ))
    cert = facts.get("G", A.SC_INF)
    assert cert is not None and cert.rule == "R-JACKIi"
    assert cert.tag == "JackIi"
    assert cert.quote.startswith("Suppose $G=G_1\\ast_HG_2$")
    assert [(c.group, c.atom) for c in cert.children] == [
        ("S", A.FP), ("S", A.ENDS_ONE), ("S", A.SC_INF),
        ("T", A.FP), ("T", A.ENDS_ONE), ("T", A.SC_INF),
        ("E", A.FG), ("E", A.ENDS_ONE),
    ]
