"""Group description language: parser, registry validation, serializer."""

import importlib.util
import pathlib
import random
import sys

import pytest

from endscope.atoms import PropertyAtom
from endscope.errors import EndscopeError, ParseError
from endscope.graphs import LabeledGraph, _edge_key
from endscope.model import (
    _ARGS,
    _CONSTRUCTORS,
    _FLAG_FIELDS,
    _INTEGER,
    _PUNCTUATION,
    _REFERENCES,
    _TOKEN_RE,
    HNN,
    Amalgam,
    Artin,
    CommensuratedPair,
    Coxeter,
    DirectProduct,
    Extension,
    Finite,
    Free,
    FreeAbelian,
    GraphProduct,
    GroupExpr,
    AttributeAssertion,
    GroupRegistry,
    Known,
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
    assert out == "group P = graph_product { }\ngroup W = coxeter { }\ngroup A = artin { }\n"
    assert parse_document(out) == reg


EDGE = LabeledGraph(("a", "b"), {("b", "a"): 3})

# One value of each constructor and its repr, as the dataclasses printed them.
VALUE_REPRS = [
    (Known("lamplighter"), "Known(name='lamplighter')"),
    (Finite(2), "Finite(order=2)"),
    (FreeAbelian(3), "FreeAbelian(rank=3)"),
    (Free(2), "Free(rank=2)"),
    (Coxeter(EDGE), "Coxeter(diagram=LabeledGraph(vertices=('a', 'b'), edges={('a', 'b'): 3}))"),
    (Artin(diagram=EDGE), "Artin(diagram=LabeledGraph(vertices=('a', 'b'), edges={('a', 'b'): 3}))"),
    (GraphProduct(LabeledGraph(("u", "v"), {("u", "v"): 2}), (("u", "Z2"), ("v", "F2"))),
     "GraphProduct(graph=LabeledGraph(vertices=('u', 'v'), edges={('u', 'v'): 2}),"
     " vertex_groups=(('u', 'Z2'), ('v', 'F2')))"),
    (Amalgam("A", "B", "C", reduced=True),
     "Amalgam(a='A', b='B', c='C', edge_finite=False, c_index_finite_in_both=False, reduced=True)"),
    (HNN("B", assoc="A", ascending=True),
     "HNN(base='B', assoc='A', ascending=True, finite_index_image=False)"),
    (Extension("K", "Q"), "Extension(kernel='K', quotient='Q')"),
    (DirectProduct(("A", "B", "C")), "DirectProduct(factors=('A', 'B', 'C'))"),
    (CommensuratedPair("G", "Q", True),
     "CommensuratedPair(ambient='G', subgroup='Q', infinite_index=True)"),
]


def test_constructor_values_print_as_before():
    assert [type(value) for value, _ in VALUE_REPRS] == list(GroupExpr)
    for value, text in VALUE_REPRS:
        assert repr(value) == text


def test_constructor_values_compare_by_class_and_fields():
    assert Free(2) == Free(rank=2) and hash(Free(2)) == hash(Free(rank=2)) == hash((2,))
    assert Free(2) != FreeAbelian(2) and Free(2) != Free(3) and Free(2) != (2,)
    assert Amalgam("A", "B", "C", reduced=True) == Amalgam("A", "B", "C", False, False, True)
    assert Amalgam("A", "B", "C", reduced=True) != Amalgam("A", "B", "C")
    assert hash(HNN("B", "A", True)) == hash(HNN(assoc="A", base="B", ascending=True))
    assert Coxeter(EDGE) == Coxeter(LabeledGraph(("a", "b"), {("a", "b"): 3}))
    assert Coxeter(EDGE) != Artin(EDGE)
    assert Coxeter(EDGE) != Coxeter(LabeledGraph(("b", "a"), {("a", "b"): 3}))
    with pytest.raises(TypeError):
        hash(Coxeter(EDGE))  # a diagram's edges are a dict
    with pytest.raises(TypeError):
        hash(EDGE)
    assert GroupRegistry() == GroupRegistry()
    reg = GroupRegistry()
    reg.add("F", Free(2))
    assert reg != GroupRegistry() and reg == parse_document("group F = free(2)\n")


def test_constructor_values_are_immutable_and_bind_like_a_signature():
    value = Amalgam("A", "B", "C")
    for name in ("a", "reduced", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, True)
    with pytest.raises(AttributeError, match="cannot delete field 'a'"):
        del value.a
    with pytest.raises(AttributeError):
        EDGE.edges = {}
    with pytest.raises(AttributeError):
        del EDGE.vertices
    assert value == Amalgam("A", "B", "C")
    for make in (lambda: Amalgam("A", "B"), lambda: Known(), lambda: Free(1, 2),
                 lambda: Free(rank=1, order=2), lambda: Free(1, rank=2),
                 lambda: CommensuratedPair("G", infinite_index=True)):
        with pytest.raises(TypeError):
            make()


def test_constructor_bounds_and_flag_defaults():
    for make, message in [(lambda: Finite(0), "finite order must be >= 1, got 0"),
                          (lambda: Free(-1), "rank must be >= 0, got -1"),
                          (lambda: FreeAbelian(-1), "rank must be >= 0, got -1")]:
        with pytest.raises(EndscopeError) as exc:
            make()
        assert str(exc.value) == message
    assert Free(0).rank == 0 and FreeAbelian(0).rank == 0 and Finite(1).order == 1
    amalgam, hnn = Amalgam("A", "B", "C"), HNN("B", "A")
    assert (amalgam.edge_finite, amalgam.c_index_finite_in_both, amalgam.reduced) == (False,) * 3
    assert (hnn.ascending, hnn.finite_index_image) == (False, False)
    assert CommensuratedPair("G", "Q").infinite_index is False
    assert DirectProduct(("A", "B")).binary and not DirectProduct(("A", "B", "C")).binary


def by_class_name(table):
    return {cls.__name__: value for cls, value in table.items()}


def test_parser_tables():
    none = dict.fromkeys(("Known", "Finite", "FreeAbelian", "Free", "Coxeter", "Artin",
                          "GraphProduct", "Extension", "DirectProduct"), ())
    refs = {"Amalgam": ("a", "b", "c"), "HNN": ("base", "assoc"),
            "Extension": ("kernel", "quotient"), "CommensuratedPair": ("ambient", "subgroup")}
    assert by_class_name(_ARGS) == {**none, "Known": ("name",), "Finite": ("order",),
                            "FreeAbelian": ("rank",), "Free": ("rank",), **refs}
    assert by_class_name(_INTEGER) == {"Finite": "order", "FreeAbelian": "rank", "Free": "rank"}
    assert by_class_name(_FLAG_FIELDS) == {**none, "Amalgam": ("edge_finite", "c_index_finite_in_both",
                                                       "reduced"),
                                   "HNN": ("ascending", "finite_index_image"),
                                   "CommensuratedPair": ("infinite_index",)}
    assert by_class_name(_REFERENCES) == {**none, **refs}
    assert list(_ARGS) == list(_FLAG_FIELDS) == list(_REFERENCES) == list(GroupExpr)


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


# --- The reference parser: recursive descent, one token at a time ------------

class ReferenceTokens(_Tokens):
    """The tokens of `_Tokens`, read with the reader's own `next`."""

    def next(self, expected=None):
        if self.pos >= len(self.tokens):
            wanted = "more input" if expected is None else repr(expected)
            self.error(f"unexpected end of input (expected {wanted})", self.pos)
        tok = self.tokens[self.pos]
        self.pos += 1
        if expected is not None and tok != expected:
            self.error(f"expected {expected!r}, got {tok!r}")
        return tok


def _reference_name(tokens):
    tok = tokens.next()
    if tok in _PUNCTUATION:
        tokens.error(f"expected a name, got {tok!r}")
    return tok


def _reference_int(tokens, what):
    tok = tokens.next()
    value = read_int(tok)
    if value is None:
        tokens.error(f"expected {what}, got {tok!r}")
    return value


def _reference_diagram(tokens, labeled):
    tokens.next("{")
    verts, declared = [], set()
    vertex_groups = []
    edges = {}  # (u, v) with u <= v -> label, as LabeledGraph keeps them
    endpoints = []  # the token index of each edge end
    while True:
        tok = tokens.peek()
        if tok == "}":
            tokens.next("}")
            break
        if tok == "verts":
            tokens.next("verts")
            while tokens.peek() not in (";", None):
                name = tokens.next()
                if name in ("edge", "verts") or name in _PUNCTUATION:
                    tokens.error(f"bad vertex name {name!r}")
                if name in declared:
                    tokens.error(f"duplicate vertex {name!r}")
                if labeled == "graph_product":
                    tokens.next(":")
                    vertex_groups.append((name, _reference_name(tokens)))
                verts.append(name)
                declared.add(name)
            tokens.next(";")
        elif tok == "edge":
            tokens.next("edge")
            u, v = _reference_name(tokens), _reference_name(tokens)
            first = tokens.pos - 2
            if u == v:
                tokens.error(f"self-loop at {u!r}")
            key = _edge_key(u, v)
            if key in edges:
                tokens.error(f"duplicate edge {key}", first)
            endpoints += (first, first + 1)
            if labeled == "graph_product":
                label = 2
            else:
                label = _reference_int(tokens, "edge label")
                if label < 2:
                    tokens.error(f"edge label must be an integer >= 2, got {label}")
            tokens.next(";")
            edges[key] = label
        else:
            tokens.error(f"expected 'verts', 'edge' or '}}', got {tok!r}", tokens.pos)
    for i in endpoints:
        if tokens.tokens[i] not in declared:
            tokens.error(f"unknown vertex {tokens.tokens[i]!r}", i)
    graph = LabeledGraph(tuple(verts), edges)
    if labeled == "graph_product":
        return graph, tuple(vertex_groups)
    return graph


def _reference_refs(tokens, count=None):
    tokens.next("(")
    refs = []
    while True:
        refs.append(_reference_name(tokens))
        nxt = tokens.next()
        if nxt == ")":
            break
        if nxt != ",":
            tokens.error(f"expected ',' or ')', got {nxt!r}")
    if count is not None and len(refs) != count:
        tokens.error(f"expected {count} references, got {len(refs)}")
    return refs


def reference_parse_document(text):
    """The parser `parse_document` replaced, which read one token at a time
    with `peek` and `next`: the reference for its registries, messages and
    positions."""
    tokens = ReferenceTokens(text)
    reg = GroupRegistry()
    while tokens.peek() is not None:
        kw = tokens.next()
        if kw == "group":
            name_at = tokens.pos
            name = _reference_name(tokens)
            tokens.next("=")
            ctor = tokens.next()
            cls = _CONSTRUCTORS.get(ctor)
            if cls is None:
                tokens.error(f"unknown constructor {ctor!r}")
            if cls is Coxeter or cls is Artin:
                expr = cls(_reference_diagram(tokens, ctor))
            elif cls is GraphProduct:
                expr = cls(*_reference_diagram(tokens, ctor))
            elif cls is DirectProduct:
                expr = cls(tuple(_reference_refs(tokens)))
            elif cls in _INTEGER:
                tokens.next("(")
                value = _reference_int(tokens, _INTEGER[cls])
                at = tokens.pos - 1
                tokens.next(")")
                try:
                    expr = cls(value)
                except EndscopeError as exc:
                    raise ParseError(str(exc), *tokens.where(at)) from None
            else:
                args = _reference_refs(tokens, len(_ARGS[cls]))
                flags = set()
                while tokens.peek() in _FLAG_FIELDS[cls]:
                    flags.add(tokens.next())
                expr = cls(*args, **dict.fromkeys(flags, True))
            try:
                reg.add(name, expr)
            except EndscopeError as exc:
                raise ParseError(str(exc), *tokens.where(name_at)) from None
        elif kw == "assert":
            target_at = tokens.pos
            target = _reference_name(tokens)
            tokens.next(":")
            tok = tokens.next()
            holds = True
            if tok == "not":
                holds = False
                tok = tokens.next()
            try:
                atom = PropertyAtom(tok)
            except ValueError:
                tokens.error(f"unknown property atom {tok!r}")
            try:
                reg.assert_attr(AttributeAssertion(target, atom, holds))
            except EndscopeError as exc:
                raise ParseError(str(exc), *tokens.where(target_at)) from None
        else:
            tokens.error(f"expected 'group' or 'assert', got {kw!r}")
    return reg


def outcome(parse, text):
    """A registry, or the type, message and position of the error raised."""
    try:
        return parse(text)
    except EndscopeError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def test_parse_document_matches_the_reference_parser():
    fixtures = [path.read_text(encoding="utf-8")
                for path in sorted((ROOT / "tests" / "fixtures").glob("*.ggt"))]
    documents = [text for seed in (1, 2, 3) for text in bench_documents(seed=seed)]
    texts = fixtures + documents
    rng = random.Random(29)
    for text, copies in [(text, 40) for text in fixtures] + [(text, 3) for text in documents]:
        for _ in range(copies):
            mutated = text
            for _ in range(rng.randint(1, 6)):
                i = rng.randrange(len(mutated) + 1)
                mutated = mutated[:i] + rng.choice(MUTATIONS) + mutated[i:]
            texts.append(mutated)
    assert outcome(parse_document, "group D = direct_product()") == (
        ParseError, "line 1, col 26: expected a name, got ')'", 1, 26)
    errors = 0
    for text in texts:
        expected = outcome(reference_parse_document, text)
        assert outcome(parse_document, text) == expected, text
        errors += type(expected) is tuple
    assert 0 < errors < len(texts)  # both outcomes are exercised
