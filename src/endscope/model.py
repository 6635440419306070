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
from itertools import chain
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
    _validate = FreeAbelian._validate


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
# a comment runs from '#' up to the next line boundary of str.splitlines()
_COMMENT_RE = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
_BAD_VERTEX = _PUNCTUATION | {"edge", "verts"}
_ATOMS = {atom.value: atom for atom in PropertyAtom}


class _Tokens:
    """The tokens of the text with its comments cut out, found by one `findall`
    and read by index (`parse_document`) or one at a time (`parse_tower`).  A
    token's line and column are worked out only when an error names it."""

    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN_RE.findall(_COMMENT_RE.sub("", text))
        self.rows = None  # (line, col) of each token, made by the first where()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected=""):
        """The next token, which must be `expected` if one is given."""
        _fail(self, self.pos, expected)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def where(self, i):
        """(line, col) of token i, or of the last one past the end; (1, 1) if none."""
        if self.rows is None:
            self.rows = [(row, match.start() + 1)
                         for row, line in enumerate(self.text.splitlines(), 1)
                         for match in _TOKEN_RE.finditer(line.split("#", 1)[0])]
        return self.rows[min(i, len(self.rows) - 1)] if self.rows else (1, 1)

    def error(self, message, i=None):
        """Raise a ParseError at token i, by default the one read last."""
        raise ParseError(message, *self.where(self.pos - 1 if i is None else i))


_INT_RE = re.compile(r"-?[0-9]+")


def read_int(text):
    """The integer `text` spells in ASCII digits after an optional '-', else
    None: `int()` would also take '+3', '1_0', ' 2' and other scripts' digits."""
    try:
        return int(text) if _INT_RE.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        return None


def _fail(tokens, i, *wanted):
    """Raise the error, as a reader of one token at a time words it, at the
    first of tokens i, i + 1, ... not as `wanted`: that token, a name (None) or any ('')."""
    toks = tokens.tokens
    for k, want in enumerate(wanted, i):
        if k == len(toks):
            what = repr(want) if want else "more input"
            tokens.error(f"unexpected end of input (expected {what})", k)
        if want is None and toks[k] in _PUNCTUATION:
            tokens.error(f"expected a name, got {toks[k]!r}", k)
        if want and toks[k] != want:
            tokens.error(f"expected {want!r}, got {toks[k]!r}", k)


def _find(toks, tok, i):
    """The index of the first `tok` from i on, else len(toks)."""
    try:
        return toks.index(tok, i)
    except ValueError:
        return len(toks)


def _parse_diagram(tokens, i, cls):
    """The `cls` value of the diagram whose '{' is token i, and the index after
    its '}'.  A `verts` run ends at the next ';', an edge is the 5 tokens `edge u
    v m ;` (4 in a graph product: no m), and one that does not match is read again."""
    toks = tokens.tokens
    n = len(toks)
    _fail(tokens, i, "{")
    product = cls is GraphProduct
    size = 4 if product else 5
    verts, vertex_groups, declared, edges, at = [], [], set(), {}, {}
    i += 1
    while (tok := toks[i] if i < n else None) != "}":
        if tok == "verts":
            j = _find(toks, ";", i)
            names = toks[i + 1:j:3] if product else toks[i + 1:j]
            new = set(names)
            if (j == n or len(new) < len(names) or not declared.isdisjoint(new)
                    or not _BAD_VERTEX.isdisjoint(new) or product and (
                        (j - i - 1) % 3 or toks[i + 2:j:3] != [":"] * len(names)
                        or not _PUNCTUATION.isdisjoint(toks[i + 3:j:3]))):
                for k in range(i + 1, j, 3 if product else 1):
                    if toks[k] in _BAD_VERTEX:
                        tokens.error(f"bad vertex name {toks[k]!r}", k)
                    if toks[k] in declared:
                        tokens.error(f"duplicate vertex {toks[k]!r}", k)
                    declared.add(toks[k])
                    if product:
                        _fail(tokens, k + 1, ":", None)
                _fail(tokens, j, ";")
            verts += names
            declared |= new
            if product:
                vertex_groups += zip(names, toks[i + 3:j:3])
            i = j + 1
        elif tok == "edge":
            if i + size <= n and toks[i + size - 1] == ";":
                u, v = toks[i + 1], toks[i + 2]
                key = (u, v) if u <= v else (v, u)
                label = 2 if product else read_int(toks[i + 3])
                if (u != v and label is not None and label >= 2 and key not in edges
                        and u not in _PUNCTUATION and v not in _PUNCTUATION):
                    edges[key], at[key] = label, i + 1
                    i += size
                    continue
            _fail(tokens, i + 1, None, None)
            if toks[i + 1] == toks[i + 2]:
                tokens.error(f"self-loop at {toks[i + 1]!r}", i + 2)
            if (key := _edge_key(toks[i + 1], toks[i + 2])) in edges:
                tokens.error(f"duplicate edge {key}", i + 1)
            if not product:
                _fail(tokens, i + 3, "")
                if (label := read_int(toks[i + 3])) is None:
                    tokens.error(f"expected edge label, got {toks[i + 3]!r}", i + 3)
                if label < 2:
                    tokens.error(f"edge label must be an integer >= 2, got {label}", i + 3)
            _fail(tokens, i + size - 1, ";")
        else:
            tokens.error(f"expected 'verts', 'edge' or '}}', got {tok!r}", i)
    # an edge may come before the verts that declare its ends
    if not declared.issuperset(chain.from_iterable(edges)):
        for k in chain.from_iterable((k, k + 1) for k in at.values()):
            if toks[k] not in declared:
                tokens.error(f"unknown vertex {toks[k]!r}", k)
    graph = LabeledGraph(tuple(verts), edges)
    return (cls(graph, tuple(vertex_groups)) if product else cls(graph)), i + 1


def _parse_refs(tokens, i, count):
    """The names in the argument list whose '(' is token i, up to the next
    ')', and the index after that ')': `count` names, any number if 0."""
    toks = tokens.tokens
    j = _find(toks, ")", i)
    refs = toks[i + 1:j:2]
    if (j == len(toks) or (j - i) % 2 or toks[i] != "(" or not _PUNCTUATION.isdisjoint(refs)
            or toks[i + 2:j:2] != [","] * (len(refs) - 1)):
        _fail(tokens, i, "(")
        for k in range(i + 1, j + 1, 2):
            _fail(tokens, k, None, "")
            if toks[k + 1] not in (",", ")"):
                tokens.error(f"expected ',' or ')', got {toks[k + 1]!r}", k + 1)
    if count and len(refs) != count:
        tokens.error(f"expected {count} references, got {len(refs)}", j)
    return refs, j + 1


def parse_document(text: str) -> GroupRegistry:
    """Parse a group-description document into a registry.  A reference must
    name a group declared above it, so the reference graph has no cycle.  The
    parser walks the token list by index: a statement's head is a record of
    fixed length, and so are an integer argument and an edge."""
    tokens = _Tokens(text)
    toks, error = tokens.tokens, tokens.error
    n, i = len(toks), 0
    reg = GroupRegistry()
    while i < n:
        kw, at = toks[i], i + 1  # at: the group's name or the assertion's target
        if kw == "group":
            if (n - i < 4 or toks[i + 2] != "=" or toks[at] in _PUNCTUATION
                    or (cls := _CONSTRUCTORS.get(toks[i + 3])) is None):
                _fail(tokens, at, None, "=", "")
                error(f"unknown constructor {toks[i + 3]!r}", i + 3)
            i += 4
            if cls is Coxeter or cls is Artin or cls is GraphProduct:
                expr, i = _parse_diagram(tokens, i, cls)
            elif cls in _INTEGER:
                value = read_int(toks[i + 1]) if n - i > 2 and toks[i] == "(" else None
                if value is None or toks[i + 2] != ")":
                    _fail(tokens, i, "(", "")
                    if read_int(toks[i + 1]) is None:
                        error(f"expected {_INTEGER[cls]}, got {toks[i + 1]!r}", i + 1)
                    _fail(tokens, i + 2, ")")
                try:
                    expr = cls(value)  # the bound lives in the class
                except EndscopeError as exc:
                    raise ParseError(str(exc), *tokens.where(i + 1)) from None
                i += 3
            else:
                refs, i = _parse_refs(tokens, i, cls is not DirectProduct and len(_ARGS[cls]))
                flags, given = _FLAG_FIELDS[cls], i
                while i < n and toks[i] in flags:
                    i += 1
                given = toks[given:i]
                expr = (cls(tuple(refs)) if cls is DirectProduct
                        else cls(*refs, *[flag in given for flag in flags]))
            try:
                reg.add(toks[at], expr)
            except EndscopeError as exc:
                raise ParseError(str(exc), *tokens.where(at)) from None
        elif kw == "assert":
            if n - i < 4 or toks[i + 2] != ":" or toks[at] in _PUNCTUATION:
                _fail(tokens, at, None, ":", "")
            i += 3 + (toks[i + 3] == "not")
            if i == n or (atom := _ATOMS.get(toks[i])) is None:
                _fail(tokens, i, "")
                error(f"unknown property atom {toks[i]!r}", i)
            try:
                reg.assert_attr(AttributeAssertion(toks[at], atom, toks[i - 1] != "not"))
            except EndscopeError as exc:
                raise ParseError(str(exc), *tokens.where(at)) from None
            i += 1
        else:
            error(f"expected 'group' or 'assert', got {kw!r}", i)
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
