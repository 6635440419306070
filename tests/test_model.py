"""Group description language: parser, registry validation, serializer."""

import sys

import pytest

from endscope.atoms import PropertyAtom
from endscope.errors import EndscopeError, ParseError
from endscope.model import (
    Amalgam,
    Coxeter,
    Finite,
    GraphProduct,
    GroupExpr,
    parse_document,
    read_int,
    serialize_document,
)


def test_parse_coxeter_and_assertions():
    reg = parse_document(
        "group W = coxeter { verts a b ; edge a b 5 ; }\n"
        "assert W : not semistable\n"
    )
    expr = reg.groups["W"]
    assert isinstance(expr, Coxeter)
    assert expr.diagram.label("a", "b") == 5
    (a,) = reg.assertions["W"]
    assert a.atom is PropertyAtom.SEMISTABLE and a.holds is False


def test_parse_all_constructors():
    reg = parse_document(
        "group F = finite(6)\n"
        "group Z = free_abelian(1)\n"
        "group Fr = free(2)\n"
        "group A = artin { verts x y ; edge x y 3 ; }\n"
        "group GP = graph_product { verts p:F q:Z ; edge p q ; }\n"
        "group Am = amalgam(Fr, Fr, Z) c_index_finite_in_both\n"
        "group H = hnn(Fr, Z) ascending\n"
        "group E = extension(Z, Fr)\n"
        "group D = direct_product(Z, Z)\n"
        "group CP = commensurated_pair(Fr, Z) infinite_index\n"
        "group K = known(thompson_F)\n"
    )
    assert isinstance(reg.groups["F"], Finite)
    gp = reg.groups["GP"]
    assert isinstance(gp, GraphProduct)
    assert gp.vertex_groups == (("p", "F"), ("q", "Z"))
    am = reg.groups["Am"]
    assert isinstance(am, Amalgam)
    assert am.c_index_finite_in_both and not am.edge_finite


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_document("group W = wedge { }\n")
    assert exc.value.line == 1
    assert "wedge" in str(exc.value)


def test_parse_rejects_bad_edge_label():
    with pytest.raises(EndscopeError, match="edge label must be an integer >= 2, got 1"):
        parse_document("group W = coxeter { verts a b ; edge a b 1 ; }")


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("17", 17), ("-2", -2), ("007", 7),
    ("1_0", None), ("+3", None), (" 2", None), ("2 ", None), ("\u0663", None),
    ("", None), ("-", None), ("x", None),
])
def test_integers_are_ascii_digits(text, value):
    assert read_int(text) == value


def test_an_integer_too_long_for_int_is_not_an_integer():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit Python allows
    try:
        assert read_int("1" * 640) == int("1" * 640)
        assert read_int("1" * 641) is None
    finally:
        sys.set_int_max_str_digits(limit)


def test_edge_ends_are_checked_once_the_diagram_is_read():
    reg = parse_document("group W = coxeter { edge a b 3 ; verts a b ; }\n")
    assert reg.groups["W"].diagram.label("a", "b") == 3
    with pytest.raises(ParseError) as exc:
        parse_document("group W = coxeter { edge a z 3 ; verts a b ; }\n")
    assert (exc.value.line, exc.value.col) == (1, 28)


def test_parse_rejects_unknown_atom():
    with pytest.raises(ParseError):
        parse_document("group F = finite(2)\nassert F : shiny\n")


def test_validate_rejects_dangling_reference():
    with pytest.raises(EndscopeError, match="reference to undeclared group 'A'"):
        parse_document("group D = direct_product(A, B)")


def test_validate_rejects_duplicate_and_cycle():
    with pytest.raises(EndscopeError, match="duplicate group name 'F'"):
        parse_document("group F = finite(2)\ngroup F = finite(3)\n")
    with pytest.raises(EndscopeError, match="reference to undeclared group 'B'"):
        parse_document(
            "group A = direct_product(B, B)\ngroup B = direct_product(A, A)\n"
        )


def test_serialize_round_trip():
    text = (
        "group F = finite(2)\n"
        "group Z = free_abelian(1)\n"
        "group Fr = free(2)\n"
        "group K = known(thompson_F)\n"
        "group W = coxeter { verts a b c ; edge a b 3 ; edge b c 2 ; }\n"
        "group A = artin { verts x y ; edge x y 3 ; }\n"
        "group GP = graph_product { verts p:F q:Z ; edge p q ; }\n"
        "group Am = amalgam(Z, Z, Z) edge_finite reduced\n"
        "group Am2 = amalgam(Fr, Fr, Z) c_index_finite_in_both\n"
        "group H = hnn(Fr, Z) ascending finite_index_image\n"
        "group H2 = hnn(Fr, Z)\n"
        "group E = extension(Z, Fr)\n"
        "group D = direct_product(Z, Fr, F)\n"
        "group CP = commensurated_pair(Fr, Z) infinite_index\n"
        "assert W : fp\n"
        "assert Z : not finite\n"
    )
    reg = parse_document(text)
    assert {type(expr) for expr in reg.groups.values()} == set(GroupExpr)
    flags = {name for expr in reg.groups.values() for name, on in vars(expr).items() if on is True}
    assert flags == {"edge_finite", "c_index_finite_in_both", "reduced",
                     "ascending", "finite_index_image", "infinite_index"}
    out = serialize_document(reg)
    reg2 = parse_document(out)
    assert reg == reg2
    assert serialize_document(reg2) == out
