"""Group description AST, registry, and the text-format parser.

The text format is line-oriented with ``#`` comments:

    group W  = coxeter { verts a b c ; edge a b 3 ; }
    group A  = artin { verts a b ; edge a b 3 ; }
    group P  = graph_product { verts u:Z2 v:F2 ; edge u v ; }
    group G  = amalgam(A, B, C) edge_finite c_index_finite_in_both reduced
    group H  = hnn(Base, Assoc) ascending finite_index_image
    group E  = extension(K, Q)
    group D  = direct_product(A, B)
    group C  = commensurated_pair(G, Q) infinite_index
    group K  = known(lamplighter)
    group F2 = free(2)
    group Z2 = finite(2)
    group Zn = free_abelian(3)
    assert G : semistable
    assert G : not semistable
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import islice
from typing import NamedTuple

from .atoms import PropertyAtom
from .errors import EndscopeError, ParseError
from .graphs import LabeledGraph, _Value, _edge_key


# --- AST -------------------------------------------------------------------

class Known(_Value):
    name: str


class Finite(_Value):
    order: int

    def _validate(self):
        if self.order < 1:
            raise EndscopeError(f"finite order must be >= 1, got {self.order}")


class FreeAbelian(_Value):
    rank: int

    def _validate(self):
        if self.rank < 0:
            raise EndscopeError(f"rank must be >= 0, got {self.rank}")


class Free(_Value):
    rank: int

    def _validate(self):
        if self.rank < 0:
            raise EndscopeError(f"rank must be >= 0, got {self.rank}")


class Coxeter(_Value):
    diagram: LabeledGraph


class Artin(_Value):
    diagram: LabeledGraph


class GraphProduct(_Value):
    graph: LabeledGraph  # labels unused; every edge stored with label 2
    vertex_groups: tuple  # tuple of (vertex, group ref), in vertex order


class Amalgam(_Value):
    a: str
    b: str
    c: str
    edge_finite: bool = False
    c_index_finite_in_both: bool = False
    reduced: bool = False


class HNN(_Value):
    base: str
    assoc: str
    ascending: bool = False
    finite_index_image: bool = False


class Extension(_Value):
    kernel: str
    quotient: str


class DirectProduct(_Value):
    factors: tuple

    @property
    def binary(self):
        """Two factors, the form the product theorems are stated for."""
        return len(self.factors) == 2


class CommensuratedPair(_Value):
    ambient: str
    subgroup: str
    infinite_index: bool = False


# --- Constructor table -----------------------------------------------------

_CONSTRUCTORS = {
    "known": Known, "finite": Finite, "free_abelian": FreeAbelian, "free": Free,
    "coxeter": Coxeter, "artin": Artin, "graph_product": GraphProduct,
    "amalgam": Amalgam, "hnn": HNN, "extension": Extension,
    "direct_product": DirectProduct, "commensurated_pair": CommensuratedPair,
}
_KEYWORDS = {cls: keyword for keyword, cls in _CONSTRUCTORS.items()}
GroupExpr = tuple(_CONSTRUCTORS.values())


def _fields_of(cls, *types):
    """Fields of `cls` whose annotation is in `types`."""
    return tuple(name for name, annotation in cls._fields.items() if annotation in types)


# Between a constructor's parentheses go its str fields (group names, save
# `known`'s catalog name) or its one int field (an order or a rank); its bool
# fields follow as flags.  Diagrams and `direct_product` have their own syntax.
_ARGS = {cls: _fields_of(cls, "str", "int") for cls in GroupExpr}
_INTEGER = {cls: name for cls in GroupExpr for name in _fields_of(cls, "int")}
_FLAG_FIELDS = {cls: _fields_of(cls, "bool") for cls in GroupExpr}
_REFERENCES = {cls: () if cls is Known else _fields_of(cls, "str") for cls in GroupExpr}


class AttributeAssertion(NamedTuple):
    target: str
    atom: PropertyAtom
    holds: bool


def expr_references(expr):
    """Names of other registry entries this expression refers to."""
    if isinstance(expr, GraphProduct):
        return tuple(ref for _, ref in expr.vertex_groups)
    if isinstance(expr, DirectProduct):
        return expr.factors
    return tuple(getattr(expr, name) for name in _REFERENCES.get(type(expr), ()))


class GroupRegistry:
    """Declared groups plus their asserted attributes, in declaration order.
    Two registries are equal when they declare and assert the same."""

    def __init__(self):
        self.groups = {}  # name -> GroupExpr
        self.assertions = {}  # name -> list[AttributeAssertion]

    def __eq__(self, other):
        if type(other) is not GroupRegistry:
            return NotImplemented
        return (self.groups, self.assertions) == (other.groups, other.assertions)

    def add(self, name, expr):
        """Declare `name`; each group it refers to must be declared above it."""
        if name in self.groups:
            raise EndscopeError(f"duplicate group name '{name}'")
        for ref in expr_references(expr):
            if ref not in self.groups:
                raise EndscopeError(f"reference to undeclared group '{ref}'")
        self.groups[name] = expr
        self.assertions.setdefault(name, [])

    def assert_attr(self, assertion: AttributeAssertion):
        if assertion.target not in self.groups:
            raise EndscopeError(f"reference to undeclared group '{assertion.target}'")
        self.assertions[assertion.target].append(assertion)


# --- Parser ----------------------------------------------------------------

_PUNCTUATION = frozenset("(){};:,=")  # the one-character tokens of _TOKEN_RE
_TOKEN_RE = re.compile(r"[(){};:,=]|[^\s(){};:,=]+")


class _Tokens:
    """The tokens of a text, read one at a time.  Each token keeps only its
    row: its line and column are worked out again when an error names it."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.tokens = []
        self.rows = []  # the index in `lines` of each token's line
        for row, line in enumerate(self.lines):
            found = _TOKEN_RE.findall(line.split("#", 1)[0])
            if found:
                self.tokens += found
                self.rows += [row] * len(found)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected=None):
        if self.pos >= len(self.tokens):
            wanted = "more input" if expected is None else repr(expected)
            self.error(f"unexpected end of input (expected {wanted})", self.pos)
        tok = self.tokens[self.pos]
        self.pos += 1
        if expected is not None and tok != expected:
            self.error(f"expected {expected!r}, got {tok!r}")
        return tok

    def where(self, i):
        """(line, col) of token i; past the end, of the last token; (1, 1)
        when there is none."""
        i = min(i, len(self.tokens) - 1)
        if i < 0:
            return 1, 1
        row = self.rows[i]
        line = self.lines[row].split("#", 1)[0]
        k = i - bisect_left(self.rows, row)  # token i is match k of its line
        match = next(islice(_TOKEN_RE.finditer(line), k, None))
        return row + 1, match.start() + 1

    def error(self, message, i=None):
        """Raise a ParseError at token i, by default the one read last."""
        raise ParseError(message, *self.where(self.pos - 1 if i is None else i))


def _parse_name(tokens):
    """A group name, a reference or a catalog name: any token but punctuation."""
    tok = tokens.next()
    if tok in _PUNCTUATION:
        tokens.error(f"expected a name, got {tok!r}")
    return tok


_INT_RE = re.compile(r"-?[0-9]+")


def read_int(text):
    """The integer `text` spells in ASCII digits after an optional '-', else
    None: `int()` would also take '+3', '1_0', ' 2' and other scripts' digits."""
    if _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _parse_int(tokens, what):
    tok = tokens.next()
    value = read_int(tok)
    if value is None:
        tokens.error(f"expected {what}, got {tok!r}")
    return value


def _parse_diagram(tokens, labeled):
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
                    vertex_groups.append((name, _parse_name(tokens)))
                verts.append(name)
                declared.add(name)
            tokens.next(";")
        elif tok == "edge":
            tokens.next("edge")
            u, v = _parse_name(tokens), _parse_name(tokens)
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
                label = _parse_int(tokens, "edge label")
                if label < 2:
                    tokens.error(f"edge label must be an integer >= 2, got {label}")
            tokens.next(";")
            edges[key] = label
        else:
            tokens.error(f"expected 'verts', 'edge' or '}}', got {tok!r}", tokens.pos)
    # an edge may come before the verts that declare its ends
    for i in endpoints:
        if tokens.tokens[i] not in declared:
            tokens.error(f"unknown vertex {tokens.tokens[i]!r}", i)
    graph = LabeledGraph(tuple(verts), edges)
    if labeled == "graph_product":
        return graph, tuple(vertex_groups)
    return graph


def _parse_refs(tokens, count=None):
    tokens.next("(")
    refs = []
    while True:
        refs.append(_parse_name(tokens))
        nxt = tokens.next()
        if nxt == ")":
            break
        if nxt != ",":
            tokens.error(f"expected ',' or ')', got {nxt!r}")
    if count is not None and len(refs) != count:
        tokens.error(f"expected {count} references, got {len(refs)}")
    return refs


def _parse_flags(tokens, allowed):
    flags = set()
    while tokens.peek() in allowed:
        flags.add(tokens.next())
    return flags


def parse_document(text: str) -> GroupRegistry:
    """Parse a group-description document into a registry.  A reference must
    name a group declared above it, so the reference graph has no cycle."""
    tokens = _Tokens(text)
    reg = GroupRegistry()
    while tokens.peek() is not None:
        kw = tokens.next()
        if kw == "group":
            name_at = tokens.pos
            name = _parse_name(tokens)
            tokens.next("=")
            ctor = tokens.next()
            cls = _CONSTRUCTORS.get(ctor)
            if cls is None:
                tokens.error(f"unknown constructor {ctor!r}")
            if cls is Coxeter or cls is Artin:
                expr = cls(_parse_diagram(tokens, ctor))
            elif cls is GraphProduct:
                expr = cls(*_parse_diagram(tokens, ctor))
            elif cls is DirectProduct:
                expr = cls(tuple(_parse_refs(tokens)))
            elif cls in _INTEGER:
                tokens.next("(")
                value = _parse_int(tokens, _INTEGER[cls])
                at = tokens.pos - 1
                tokens.next(")")
                try:
                    expr = cls(value)  # the bound lives in the class
                except EndscopeError as exc:
                    raise ParseError(str(exc), *tokens.where(at)) from None
            else:
                args = _parse_refs(tokens, len(_ARGS[cls]))
                flags = _parse_flags(tokens, _FLAG_FIELDS[cls])
                expr = cls(*args, **dict.fromkeys(flags, True))
            try:
                reg.add(name, expr)
            except EndscopeError as exc:
                raise ParseError(str(exc), *tokens.where(name_at)) from None
        elif kw == "assert":
            target_at = tokens.pos
            target = _parse_name(tokens)
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


# --- Serializer (canonical text, round-trips through parse_document) --------

def _diagram_text(graph: LabeledGraph, vertex_groups=None, labeled=True):
    parts = []
    if vertex_groups:  # a graph product with vertices
        vg = dict(vertex_groups)
        parts += ["verts", *(f"{v}:{vg[v]}" for v in graph.vertices), ";"]
    elif graph.vertices:
        parts += ["verts", *map(str, graph.vertices), ";"]
    for u, v, m in graph.sorted_edges():
        parts.append(f"edge {u} {v} {m} ;" if labeled else f"edge {u} {v} ;")
    return " ".join(["{", *parts, "}"])


def serialize_expr(expr) -> str:
    cls = type(expr)
    keyword = _KEYWORDS.get(cls)
    if keyword is None:
        raise TypeError(f"unknown expression {expr!r}")
    if cls is GraphProduct:
        return f"{keyword} " + _diagram_text(expr.graph, expr.vertex_groups, labeled=False)
    if cls is Coxeter or cls is Artin:
        return f"{keyword} " + _diagram_text(expr.diagram)
    args = expr.factors if cls is DirectProduct else [str(getattr(expr, a)) for a in _ARGS[cls]]
    text = f"{keyword}({', '.join(args)})"
    for flag in _FLAG_FIELDS[cls]:
        if getattr(expr, flag):
            text += " " + flag
    return text


def serialize_document(reg: GroupRegistry) -> str:
    lines = []
    for name, expr in reg.groups.items():
        lines.append(f"group {name} = {serialize_expr(expr)}")
    for name in reg.groups:
        for a in reg.assertions.get(name, []):
            neg = "" if a.holds else "not "
            lines.append(f"assert {a.target} : {neg}{a.atom.value}")
    return "\n".join(lines) + "\n"
