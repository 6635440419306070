"""Certificate DAGs: the fact rows of a schema-2 report expand back to the
schema-1 certificate trees.  The report writer writes exactly what
`json.dumps(indent=2)` writes for the report's own types, and refuses any
other type with a TypeError."""

import contextlib
import enum
import io
import json
import pathlib
import sys
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from endscope.cli import _emit, run
from endscope.coxeter import is_finite_type
from endscope.errors import ContradictionError
from endscope.inference import infer
from endscope.model import Coxeter, parse_document
from endscope.report import analysis_report, contradiction_report, dumps, facts_section
from test_inference import registries

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def certificate_as_dict(cert, shared):
    """Reference: the schema-1 certificate tree, premises written out in
    full.  `shared` maps id(certificate) to its dict, so a certificate met
    again is the same dict object."""
    d = {
        "group": cert.group,
        "atom": cert.atom.value,
        "holds": cert.holds,
    }
    if cert.rule is None:
        d["provenance"] = cert.provenance
    else:
        d["rule"] = cert.rule.name
        d["theorem"] = cert.rule.tag
        d["quote"] = cert.rule.quote
        if cert.provenance:
            d["note"] = cert.provenance
        d["premises"] = [shared.get(id(c)) or certificate_as_dict(c, shared)
                         for c in cert.children]
    shared[id(cert)] = d
    return d


def expand(rules, rows):
    """Each fact row as its schema-1 certificate tree; a premise met again is
    the same dict object."""
    trees = {}

    def tree(i):
        if i not in trees:
            row = rows[i]
            d = {"group": row["group"], "atom": row["atom"], "holds": row["holds"]}
            if "provenance" in row:
                d["provenance"] = row["provenance"]
            else:
                d.update(rules[row["rule"]])
                if "note" in row:
                    d["note"] = row["note"]
                d["premises"] = [tree(j) for j in row["premises"]]
            trees[i] = d
        return trees[i]

    return tree


def as_v1(doc):
    """The schema-1 document of a schema-2 `analyze` report or exit-3 payload."""
    if "contradiction" in doc:
        c = doc["contradiction"]
        tree = expand(c["rules"], c["facts"])
        return {"schemaVersion": 1, "contradiction": {
            "group": c["group"], "atom": c["atom"],
            "holds": tree(c["holds"]), "fails": tree(c["fails"]),
        }}
    sections = []
    for section in doc["sections"]:
        if section["type"] == "facts":
            tree = expand(section["rules"], section["facts"])
            section = {"type": "facts", "facts": [
                {"group": row["group"], "atom": row["atom"], "holds": row["holds"],
                 "certificate": tree(i)}
                for i, row in enumerate(section["facts"])
            ]}
        sections.append(section)
    return {**doc, "schemaVersion": 1, "sections": sections}


def assert_rows_are_the_dag(rules, rows, roots):
    """One row per fact and one rule per cited rule; every premise index
    points at the row of the premise's fact."""
    keys = [(row["group"], row["atom"], row["holds"]) for row in rows]
    assert len(set(keys)) == len(keys)
    cited = [(r["rule"], r["theorem"], r["quote"]) for r in rules]
    assert len(set(cited)) == len(cited)
    stack, seen = list(roots), set()
    while stack:
        cert = stack.pop()
        if id(cert) in seen:
            continue
        seen.add(id(cert))
        row = rows[keys.index((cert.group, cert.atom.value, cert.holds))]
        if cert.rule is None:
            assert "rule" not in row and "premises" not in row
        else:
            assert cited[row["rule"]] == (cert.rule.name, cert.rule.tag, cert.rule.quote)
            assert [keys[j] for j in row["premises"]] == [
                (c.group, c.atom.value, c.holds) for c in cert.children]
        stack.extend(cert.children)
    assert len(seen) == len(rows)


@settings(max_examples=300, deadline=None)
@given(registries())
def test_dag_expands_to_the_certificate_trees(registry):
    try:
        facts = infer(registry)
    except ContradictionError as exc:
        event("contradiction")
        payload = contradiction_report(exc)
        c = payload["contradiction"]
        assert payload["schemaVersion"] == 2
        assert (c["group"], c["atom"]) == (exc.group, exc.atom.value)
        shared = {}
        want = {"holds": certificate_as_dict(exc.cert_holds, shared),
                "fails": certificate_as_dict(exc.cert_fails, shared)}
        assert json.dumps(as_v1(payload)["contradiction"]) == json.dumps(
            {"group": c["group"], "atom": c["atom"], **want})
        assert_rows_are_the_dag(c["rules"], c["facts"], (exc.cert_holds, exc.cert_fails))
        return
    event("facts")
    section = facts_section(facts)
    shared = {}
    want = [
        {"group": g, "atom": a.value, "holds": h,
         "certificate": certificate_as_dict(facts.get(g, a, h), shared)}
        for g, a, h in sorted(facts, key=lambda f: (f[0], f[1].value, f[2]))
    ]
    got = as_v1({"sections": [section]})["sections"][0]["facts"]
    assert json.dumps(got) == json.dumps(want)
    assert_rows_are_the_dag(section["rules"], section["facts"], facts.certificate_map().values())


@settings(max_examples=150, deadline=None)
@given(registries())
def test_fact_rows_are_written_as_json_dumps_writes_them(registry):
    try:
        value = facts_section(infer(registry))
    except ContradictionError as exc:
        value = contradiction_report(exc)
    assert dumps(value) == json.dumps(value, indent=2)
    assert json.loads(json.dumps(value)) == value


# Documents whose fact rows reach each corner of the row templates, each with
# a piece of the text json writes for that corner.
ROW_EDGE_CASES = {
    "no_facts": ("", '"rules": [],\n      "facts": []\n'),
    "no_premises": (
        "group A = free(1)\ngroup B = free(1)\ngroup C = finite(1)\n"
        "group G = amalgam(A, B, C) edge_finite\n",
        '"note": "constructor: non-trivial amalgam with finite edge group",\n'
        '          "premises": []\n        }'),
    "note_and_premises": (
        "group A = free(2)\ngroup B = free(2)\ngroup C = free(2)\n"
        "group G = amalgam(A, B, C) c_index_finite_in_both\n",
        '"note": "constructor: edge group of finite index in both factors",\n'
        '          "premises": [\n            '),
    "non_ascii_name": ("group \u0416 = free(2)\n", '"group": "\\u0416",\n          "atom": '),
    "contradiction": ((FIXTURES / "contradiction.ggt").read_text(encoding="utf-8"),
                      '"provenance": "user assertion"\n      }'),
}


@pytest.mark.parametrize("case", sorted(ROW_EDGE_CASES))
def test_analyze_writes_fact_row_edge_cases_as_json_dumps(tmp_path, capsys, case):
    text, shown = ROW_EDGE_CASES[case]
    path = tmp_path / "doc.ggt"
    path.write_text(text, encoding="utf-8")
    code = run(["analyze", str(path)])
    try:
        want, want_code = analysis_report(parse_document(text), text), 0
    except ContradictionError as exc:
        want, want_code = contradiction_report(exc), 3
    out = capsys.readouterr().out
    assert code == want_code
    assert out == json.dumps(want, indent=2) + "\n"
    assert shown in out


def distinct(roots, children):
    """The objects reachable from `roots`, by identity."""
    seen, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            stack.extend(children(x))
    return seen


def test_facts_section_builds_one_dict_per_certificate():
    facts = infer(parse_document((FIXTURES / "inference.ggt").read_text(encoding="utf-8")))
    section = facts_section(facts)
    certificates = distinct(facts.certificate_map().values(), lambda cert: cert.children)
    roots = [row["certificate"] for row in as_v1({"sections": [section]})["sections"][0]["facts"]]
    expanded = distinct(json.loads(json.dumps(roots)), lambda node: node.get("premises", ()))
    assert len(section["facts"]) == len(certificates) < len(expanded)


def test_analyze_classifies_each_coxeter_diagram_once():
    """The end count and the report section share one finite-type
    recognition of a Coxeter group's whole diagram.  Calls are counted by
    code object, so no import of the recogniser escapes the count."""
    text = (FIXTURES / "coxeter_suite.ggt").read_text(encoding="utf-8")
    registry = parse_document(text)
    diagrams = {name: expr.diagram for name, expr in registry.groups.items()
                if isinstance(expr, Coxeter)}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is is_finite_type.__code__:
            diagram = frame.f_locals["sys"].diagram
            calls.update(name for name, d in diagrams.items() if d == diagram)

    sys.setprofile(profile)
    try:
        analysis_report(registry, text)
    finally:
        sys.setprofile(None)
    assert len(diagrams) == 7
    assert calls == dict.fromkeys(diagrams, 1)


class Ends(enum.IntEnum):
    ONE = 1


class Name(str):
    pass


def foreign_type(value):
    """Reference: the name of the first type in `value`, keys before their
    values, that is not one of the report's own (exact dict with exact str
    keys, list, tuple, exact str and int, bool and None); None if all are."""
    cls = type(value)
    if cls is dict:
        for key, item in value.items():
            if type(key) is not str:
                return type(key).__name__
            if (name := foreign_type(item)) is not None:
                return name
        return None
    if cls is list or cls is tuple:
        return next((name for item in value if (name := foreign_type(item)) is not None), None)
    return None if cls in (str, int, bool, type(None)) else cls.__name__


def assert_emits_json_dumps_or_refuses(value, out):
    """`_emit(value)` writes what `json.dumps(value, indent=2)` writes when
    `value` holds only the report's own types; otherwise it writes nothing and
    raises a TypeError naming the first foreign type, even where json would
    write it (floats, enums, str and int subclasses, non-str keys)."""
    name = foreign_type(value)
    if name is None:
        _emit(value)
        assert out() == json.dumps(value, indent=2) + "\n"
    else:
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            _emit(value)
        assert out() == ""


# The CLI test of the writer round-trips its output through json.loads, which
# cannot tell -0.0, nan, non-string keys or str and int subclasses apart; here
# the report's own types must give json's bytes and those foreign ones a
# TypeError.
@pytest.mark.parametrize("value", [
    0, -0.0, 1e300, float("nan"), float("inf"), float("-inf"), 10 ** 100, True, None, "",
    Ends.ONE, Name("x"), {Name("k"): [Ends.ONE]}, {1: 2, 2.5: 3, False: 4, None: 5},
    [[], {}, ()], {"a": {"b": {"c": [{}]}}},
])
def test_dumps_equals_json_dumps_on_edge_cases(capsys, value):
    assert_emits_json_dumps_or_refuses(value, lambda: capsys.readouterr().out)


@pytest.mark.parametrize("value", [
    {1, 2}, frozenset(), object(), [1, {"a": {2}}], {"a": b"bytes"}, 1j, {(1, 2): 3},
    Ends, enum.Enum("Atom", "A").A,
])
def test_unencodable_values_raise_the_same_type_error(capsys, value):
    """What json cannot encode is a TypeError for both writers, and both name
    the same type."""
    with pytest.raises(TypeError) as ours:
        _emit(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    name = foreign_type(value)
    assert name in str(ours.value).split() and name in str(theirs.value).split()
    assert capsys.readouterr().out == ""


# Text with control characters and lone surrogates, which st.characters()
# leaves out by default, next to the rest of Unicode.
TEXT = st.text(st.one_of(
    st.characters(),
    st.integers(0, 0x1F).map(chr),
    st.integers(0xD800, 0xDFFF).map(chr),
), max_size=6)
REPORT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10 ** 60), 10 ** 60), TEXT)
# Each of these makes the writer refuse the whole payload.
FOREIGN = st.one_of(
    st.floats(), st.sampled_from([float("nan"), -0.0]), st.just(Ends.ONE), TEXT.map(Name))
FOREIGN_KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())


@st.composite
def payloads(draw):
    """A JSON-shaped value in which one dict, list or tuple occurs at several
    depths; half the time some leaves or keys are values the writer refuses,
    wherever the recursion puts them."""
    foreign = draw(st.booleans())
    leaves = st.one_of(REPORT_SCALARS, FOREIGN) if foreign else REPORT_SCALARS
    keys = st.one_of(TEXT, FOREIGN_KEYS) if foreign else TEXT

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(keys, children, max_size=4),
        )

    shared = draw(containers(st.recursive(leaves, containers, max_leaves=6)))
    body = draw(st.recursive(st.one_of(leaves, st.just(shared)), containers, max_leaves=16))
    return [body, shared, {"again": [shared, (shared,)]}]


@settings(max_examples=100, deadline=None)
@given(payloads())
def test_emit_writes_json_dumps_with_indent_2(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert_emits_json_dumps_or_refuses(value, out.getvalue)
