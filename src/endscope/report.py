"""Structured report assembly, the report writer and DOT export.

Reports are plain JSON-shaped dictionaries with a schema version and a
content digest of the input, built deterministically so identical inputs
serialize byte for byte.  `dumps` writes the fact rows of a certificate DAG,
a `FactRows` that only `certificate_dag` builds, by one template per row shape.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii

from .cayley import BallGraph
from .errors import EndscopeError
from .graphs import LabeledGraph
from .inference import infer
from .model import Artin, Coxeter, GraphProduct, GroupRegistry, serialize_expr

SCHEMA_VERSION = 1
# Reports that carry certificates, `analyze` and the contradiction payload,
# write them as a DAG of fact rows since version 2.
CERTIFICATE_SCHEMA_VERSION = 2


def envelope(text, sections, warnings=(), schema=SCHEMA_VERSION):
    """A report on the input `text`: its sections and warnings, under the
    schema version and the SHA-256 digest of the input."""
    return {
        "schemaVersion": schema,
        "inputDigest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "sections": list(sections),
        "warnings": list(warnings),
    }


def coxeter_section(name, report):
    """Finite type and end count of a Coxeter group, from its `coxeter_ends`
    `report`."""
    ft = report.finite_type
    return {
        "type": "coxeter",
        "group": name,
        "finite_type": {
            "is_finite": ft.is_finite,
            "components": [
                {"vertices": comp, "family": fam} for comp, fam in ft.component_types
            ],
        },
        "ends": str(report.ends),
        "witness": report.witness,
    }


def artin_section(name, report):
    return {
        "type": "artin",
        "group": name,
        "one_ended": report.one_ended,
        "ends": str(report.ends),
    }


def graph_product_section(name, decided):
    """Ends and semistability of a graph product, from the (ends report,
    semistability report) pair its inference bridge recorded, and the
    warnings they raise."""
    ends, ss = decided
    section = {
        "type": "graph_product",
        "group": name,
        "ends": None if ends.ends is None else str(ends.ends),
        "ends_witness": ends.witness,
        "semistability": ss.verdict,
        "semistability_witness": ss.witness,
    }
    warnings = []
    if ss.verdict == "unknown":
        warnings.append({
            "kind": "undetermined_semistability",
            "group": name,
            "detail": "vertex profiles leave the criterion undecided",
        })
    return section, warnings


def certificate_closure(roots):
    """The certificates under `roots` by fact, (group, atom, holds) ->
    certificate, the first met standing for its fact."""
    nodes = {}
    stack = list(roots)
    while stack:
        cert = stack.pop()
        fact = cert[:3]
        if fact not in nodes:
            nodes[fact] = cert
            stack.extend(cert.children)
    return nodes


class FactRows(list):
    """The rows of `certificate_dag`, which only it builds: str "group" and
    "atom", bool "holds", then str or None "provenance", or int "rule", str
    "note" if any and int list "premises", in that order, as `dumps` needs."""


def certificate_dag(nodes):
    """The certificates of `nodes`, a map from each fact to its certificate
    that holds every child's fact too, as one row per fact sorted by (group,
    atom, polarity): (rules, rows, index).  Each derived row names its rule
    by an index into `rules`, one {"rule", "theorem", "quote"} per rule in
    order of first use, and its premises by row indices; `index` maps each
    fact to its row.  A FactSet's `certificate_map()` is such a map as it
    stands, and `certificate_closure` makes one from a few roots."""
    name = {atom: atom.value for atom in {fact[1] for fact in nodes}}
    order = sorted(nodes, key=lambda f: (f[0], name[f[1]], f[2]))
    index = {fact: i for i, fact in enumerate(order)}
    rules, rule_ids, rows = [], {}, FactRows()
    for fact in order:
        group, atom, holds, rule, provenance, children = nodes[fact]
        row = {"group": group, "atom": name[atom], "holds": holds}
        if rule is None:
            row["provenance"] = provenance
        else:
            if (cited := rule.name) not in rule_ids:
                rule_ids[cited] = len(rules)
                rules.append({"rule": cited, "theorem": rule.tag, "quote": rule.quote})
            row["rule"] = rule_ids[cited]
            if provenance:
                row["note"] = provenance
            row["premises"] = [index[c[:3]] for c in children]
        rows.append(row)
    return rules, rows, index


def facts_section(facts):
    rules, rows, _ = certificate_dag(facts.certificate_map())
    return {"type": "facts", "rules": rules, "facts": rows}


def contradiction_report(exc):
    """The exit-3 payload: both certificates of `exc` as row indices into the
    DAG of the facts under them."""
    rules, rows, index = certificate_dag(certificate_closure((exc.cert_holds, exc.cert_fails)))
    return {
        "schemaVersion": CERTIFICATE_SCHEMA_VERSION,
        "contradiction": {
            "group": exc.group,
            "atom": exc.atom.value,
            "holds": index[exc.cert_holds[:3]],
            "fails": index[exc.cert_fails[:3]],
            "rules": rules,
            "facts": rows,
        },
    }


def analysis_report(registry: GroupRegistry, text: str):
    """Full `analyze` report: structural deciders plus inference."""
    sections = []
    sections.append({
        "type": "registry",
        "groups": [
            {"name": name, "expr": serialize_expr(expr)}
            for name, expr in registry.groups.items()
        ],
    })
    facts = infer(registry)
    warnings = []
    for name, expr in registry.groups.items():
        if isinstance(expr, Coxeter):
            sections.append(coxeter_section(name, facts.decided[name]))
        elif isinstance(expr, Artin):
            sections.append(artin_section(name, facts.decided[name]))
        elif isinstance(expr, GraphProduct):
            section, raised = graph_product_section(name, facts.decided[name])
            sections.append(section)
            warnings += raised
    sections.append(facts_section(facts))
    return envelope(text, sections, warnings, schema=CERTIFICATE_SCHEMA_VERSION)


# --- JSON text ----------------------------------------------------------------

def dumps(value) -> str:
    """Exactly `json.dumps(value, indent=2)` for the report's own types
    (exact dict with exact str keys, list, tuple, exact str and int, bool and
    None), which CPython would write with its pure-Python encoder whenever
    an indent is given; a `FactRows`, which only `certificate_dag` builds, by
    one template per row shape.  Any other type anywhere in `value` is a
    TypeError naming it, as in `json`."""
    return _dumps(value, "\n")


def _dumps(value, newline):
    """`value` as JSON text; `newline` is the line break and indent at its
    own depth."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if cls is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _dumps(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if cls is FactRows:
        return _fact_rows(value, newline) if value else "[]"
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _fact_rows(rows, newline):
    """Nonempty `rows` as JSON text, as `_dumps` would write them; a group's
    or atom's encoded name is made once."""
    inner = newline + "  "
    start, key, end = "{" + inner + '  "', "," + inner + '  "', inner + "}"
    premise = inner + "    "
    between = "," + premise
    names = {}
    items = []
    for row in rows:
        group, atom = row["group"], row["atom"]
        g = names.get(group) or names.setdefault(group, encode_basestring_ascii(group))
        a = names.get(atom) or names.setdefault(atom, encode_basestring_ascii(atom))
        head = f'{start}group": {g}{key}atom": {a}{key}holds": {"true" if row["holds"] else "false"}{key}'
        if (rule := row.get("rule")) is None:
            items.append(f'{head}provenance": {_dumps(row["provenance"], inner)}{end}')
            continue
        head = f'{head}rule": {rule}{key}'
        if (note := row.get("note")) is not None:
            head = f'{head}note": {encode_basestring_ascii(note)}{key}'
        premises = row["premises"]
        body = f"[{premise}{between.join(map(str, premises))}{inner}  ]" if premises else "[]"
        items.append(f'{head}premises": {body}{end}')
    return "[" + inner + ("," + inner).join(items) + newline + "]"


# --- DOT export ---------------------------------------------------------------

def _check_dot_names(what, names):
    """Refuse a name that cannot be written between DOT's double quotes: a
    `"` would end the string early, and since DOT escapes `"` as `\\"`, a
    `\\` before the closing quote would escape it."""
    for name in names:
        text = str(name)
        if '"' in text or "\\" in text:
            raise EndscopeError(
                f"cannot write {what} {text!r} to DOT: DOT names cannot contain '\"' or '\\'"
            )


def render_dot(graph) -> str:
    """Deterministic DOT text for a LabeledGraph or a BallGraph."""
    if isinstance(graph, LabeledGraph):
        _check_dot_names("vertex", graph.vertices)
        lines = ["graph diagram {"]
        for v in graph.vertices:
            lines.append(f'  "{v}";')
        for u, v, m in graph.sorted_edges():
            lines.append(f'  "{u}" -- "{v}" [label="{m}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(graph, BallGraph):
        names = graph.generator_names
        _check_dot_names("generator", names)
        neighbors, layer, n = graph.neighbors, graph.layer, len(names)
        ids = [f"n{u}" for u in range(len(graph.order))]
        # each edge {u, v} once per label, under its smaller end u, sorted by
        # (u, v, label); v -> u carries the inverse label of u -> v.  The
        # edge is slot g of u holding v > u (an empty slot holds -1, below
        # every u).  One generator leads from u to v (build_ball checks they
        # are distinct), so sorting by (u, v, g) and writing g's labels in
        # name order is that order.  first[g] and second[g] hold the label
        # text of the names of g and its inverse; second[g] is None when
        # they coincide.
        pairs = [sorted({names[g], names[h]}) for g, h in enumerate(graph.inverse)]
        first = [f' [label="{pair[0]}"];' for pair in pairs]
        second = [f' [label="{pair[1]}"];' if len(pair) == 2 else None for pair in pairs]
        lines = ["graph ball {"]
        for d in range(graph.radius + 1):
            suffix = f' [label="d={d}"];'
            lines += [f"  {i}{suffix}" for i in ids[layer[d]:layer[d + 1]]]
        # one sort per sphere, not per ball, bounds the triples held at once;
        # the outer sphere's edges join two of its own elements, if any
        for d in range(graph.radius + graph.outer_edges):
            edges = []
            for u in range(layer[d], layer[d + 1]):
                base = u * n
                for g in range(n):
                    if (v := neighbors[base + g]) > u:
                        edges.append((u, v, g))
            edges.sort()
            # one entry per edge, holding both of its lines when it has two
            for u, v, g in edges:
                head = f"  {ids[u]} -- {ids[v]}"
                if (two := second[g]) is None:
                    lines.append(head + first[g])
                else:
                    lines.append(f"{head}{first[g]}\n{head}{two}")
        lines += ["}", ""]
        return "\n".join(lines)
    raise TypeError(f"cannot render {type(graph).__name__} as DOT")
