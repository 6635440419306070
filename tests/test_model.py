"""Group description language: parser, registry validation, serializer."""

import importlib.util
import pathlib
import random
import sys

import pytest

from endscope.atoms import PropertyAtom
from endscope.errors import EndscopeError, ParseError
from endscope.model import (
    _TOKEN_RE,
    Amalgam,
    Coxeter,
    Finite,
    GraphProduct,
    GroupExpr,
    _Tokens,
    parse_document,
    read_int,
    serialize_document,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def test_empty_diagrams_serialize_with_single_spaces():
    reg = parse_document("group P = graph_product { }\ngroup W = coxeter { }\ngroup A = artin { }\n")
    out = serialize_document(reg)
    assert out == "group P = graph_product { verts ; }\ngroup W = coxeter { }\ngroup A = artin { }\n"
    assert parse_document(out) == reg


def eager_positions(text):
    """The tokenizer that stored every token's (token, line, col) as it read
    the text, and the position it gave an error at the end of input: the
    reference for `_Tokens.where`."""
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            items.append((m.group(0), lineno, m.start() + 1))
    return items, items[-1][1:] if items else (1, 1)


def bench_documents(count=36, seed=1):
    """The generated documents of the benchmark's `analyze` workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    rng = random.Random(seed)
    return [workloads.make_document(rng, slot)[0] for slot in range(count)]


# line breaks splitlines() knows and `#` move tokens between lines, spaces and
# punctuation split and shift them
MUTATIONS = ("#", "\r\n", "\r", "\x0c", "\x85", "\u2028", " ", "\t", "(", ")", "{", "}",
             ";", ":", ",", "=", "x")


def test_token_positions_match_the_eager_tokenizer():
    fixtures = [path.read_text(encoding="utf-8")
                for path in sorted((ROOT / "tests" / "fixtures").iterdir())]
    documents = bench_documents()
    texts = fixtures + documents
    rng = random.Random(23)
    # where() re-reads a token's line, so a document's long diagram lines
    # cost the most: mutate each fixture 60 times and each document 4
    for text, copies in [(text, 60) for text in fixtures] + [(text, 4) for text in documents]:
        for _ in range(copies):
            mutated = text
            for _ in range(rng.randint(1, 6)):
                i = rng.randrange(len(mutated) + 1)
                mutated = mutated[:i] + rng.choice(MUTATIONS) + mutated[i:]
            texts.append(mutated)
    texts += ["", "\n", "# only a comment", "a\x85b # c\x0cd\r\ne"]
    for text in texts:
        tokens = _Tokens(text)
        items, at_end = eager_positions(text)
        assert [(tok, *tokens.where(i)) for i, tok in enumerate(tokens.tokens)] == items
        assert tokens.where(len(tokens.tokens)) == at_end
