"""Structured report assembly and DOT export.

Reports are plain JSON-shaped dictionaries with a schema version and a
content digest of the input, built deterministically so identical inputs
serialize byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote

from .atoms import EndCount, PropertyAtom
from .cayley import BallGraph
from .coxeter import CoxeterSystem, is_finite_type
from .graphs import LabeledGraph
from .inference import certificate_as_dict, graph_product_spec, infer
from .model import Artin, Coxeter, GraphProduct, GroupRegistry, serialize_expr

SCHEMA_VERSION = 1


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scalar_text(v):
    if isinstance(v, str):
        return _quote(v)
    if v is None:
        return "null"
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return json.dumps(v)
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _key_text(k):
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _scalar_text(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _shared_ids(value):
    """Ids of the dicts, lists and tuples that `value` holds more than once."""
    seen, shared = set(), set()
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (dict, list, tuple)):
            if id(v) in seen:
                shared.add(id(v))
            else:
                seen.add(id(v))
                stack.extend(v.values() if isinstance(v, dict) else v)
    return shared


def dumps(value) -> str:
    """The text `json.dumps` writes for `value` with an indent of 2, byte for
    byte, including its TypeError for what JSON cannot hold.  A dict, list or
    tuple that `value` holds more than once is encoded once per depth it
    occurs at.  Payloads hold no cycles: this raises RecursionError on one,
    where `json.dumps` raises ValueError."""
    shared = _shared_ids(value)
    memo = {}  # (id, depth) -> text, for shared containers only
    breaks = ["\n"]  # breaks[d]: a newline and the indent of depth d

    def encode(v, depth):
        if not isinstance(v, (dict, list, tuple)):
            return _scalar_text(v)
        if not v:
            return "{}" if isinstance(v, dict) else "[]"
        key = (id(v), depth)
        if key in memo:
            return memo[key]
        if len(breaks) == depth + 1:
            breaks.append(breaks[depth] + "  ")
        outer, inner = breaks[depth], breaks[depth + 1]
        if isinstance(v, dict):
            parts = [_key_text(k) + ": " + encode(x, depth + 1) for k, x in v.items()]
            text = "{" + inner + ("," + inner).join(parts) + outer + "}"
        else:
            parts = [encode(x, depth + 1) for x in v]
            text = "[" + inner + ("," + inner).join(parts) + outer + "]"
        if id(v) in shared:
            memo[key] = text
        return text

    return encode(value, 0)


def jsonable(value):
    """Recursively convert report values into JSON-friendly primitives."""
    if isinstance(value, (EndCount, PropertyAtom)):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [jsonable(v) for v in items]
    return value


def coxeter_section(name, expr, report):
    """Finite type of a Coxeter group and its end count `report`."""
    ft = is_finite_type(CoxeterSystem(expr.diagram))
    return jsonable({
        "type": "coxeter",
        "group": name,
        "finite_type": {
            "is_finite": ft.is_finite,
            "components": [
                {"vertices": comp, "family": fam} for comp, fam in ft.component_types
            ],
        },
        "ends": report.ends,
        "witness": report.witness,
    })


def artin_section(name, report):
    return jsonable({
        "type": "artin",
        "group": name,
        "one_ended": report.one_ended,
        "ends": report.ends,
    })


def graph_product_section(name, expr, registry, facts):
    """Ends and semistability of a graph product, from the decider results
    that inference recorded in `facts`."""
    spec, _, complete = graph_product_spec(registry, facts, expr)
    section = {"type": "graph_product", "group": name}
    if complete:
        ends = facts.decided.graph_product_ends(name, spec)
        section["ends"] = ends.ends
        section["ends_witness"] = ends.witness
    else:
        section["ends"] = None
        section["ends_witness"] = {"kind": "incomplete_vertex_profiles"}
    if expr.graph.is_connected():
        ss = facts.decided.graph_product_semistable(name, spec)
        section["semistability"] = ss.verdict
        section["semistability_witness"] = ss.witness
    else:
        section["semistability"] = "unknown"
        section["semistability_witness"] = {"kind": "disconnected_graph"}
    return jsonable(section)


def facts_section(facts):
    shared = {}  # one map for every row, so a certificate met again is one dict
    rows = []
    for group, atom, holds in sorted(
        facts.facts(), key=lambda f: (f[0], f[1].value, f[2])
    ):
        cert = facts.get(group, atom, holds)
        rows.append({
            "group": group,
            "atom": atom.value,
            "holds": holds,
            "certificate": shared.get(id(cert)) or certificate_as_dict(cert, shared),
        })
    return {"type": "facts", "facts": rows}


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
        if isinstance(expr, Coxeter) and expr.diagram.vertices:
            sections.append(coxeter_section(name, expr, facts.decided.coxeter_ends(name, expr)))
        elif isinstance(expr, Artin) and expr.diagram.vertices:
            sections.append(artin_section(name, facts.decided.artin_ends(name, expr)))
        elif isinstance(expr, GraphProduct) and expr.graph.vertices:
            section = graph_product_section(name, expr, registry, facts)
            sections.append(section)
            if section["semistability"] == "unknown":
                warnings.append({
                    "kind": "undetermined_semistability",
                    "group": name,
                    "detail": "vertex profiles leave the criterion undecided",
                })
    sections.append(facts_section(facts))
    return {
        "schemaVersion": SCHEMA_VERSION,
        "inputDigest": input_digest(text),
        "sections": sections,
        "warnings": warnings,
    }


# --- DOT export ---------------------------------------------------------------

def render_dot(graph) -> str:
    """Deterministic DOT text for a LabeledGraph or a BallGraph."""
    if isinstance(graph, LabeledGraph):
        lines = ["graph diagram {"]
        for v in graph.vertices:
            lines.append(f'  "{v}";')
        for u, v, m in graph.sorted_edges():
            lines.append(f'  "{u}" -- "{v}" [label="{m}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(graph, BallGraph):
        names, row, target, label = graph.generator_names, graph.row, graph.target, graph.label
        lines = ["graph ball {"]
        lines += [f'  n{u} [label="d={d}"];' for u, d in enumerate(graph.distance)]
        # each edge {u, v} once per label, under its smaller end, sorted by (v, label)
        higher = [set() for _ in graph.distance]
        for u in range(len(higher)):
            for e in range(row[u], row[u + 1]):
                v = target[e]
                higher[min(u, v)].add((max(u, v), names[label[e]]))
        for u, ends in enumerate(higher):
            lines += [f'  n{u} -- n{v} [label="{name}"];' for v, name in sorted(ends)]
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot render {type(graph).__name__} as DOT")
