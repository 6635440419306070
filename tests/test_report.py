"""Report encoder: `report.dumps` writes exactly what `json.dumps(indent=2)` writes."""

import enum
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endscope.inference import infer
from endscope.model import parse_document
from endscope.report import dumps, facts_section

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

TEXT = st.text(st.characters(exclude_categories=()))  # control characters and lone surrogates too
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 60), max_value=10 ** 60),
    st.floats(),
    TEXT,
)
KEYS = st.one_of(TEXT, TEXT, st.integers(), st.booleans(), st.none(), st.floats())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    )


@st.composite
def values_with_shared_parts(draw):
    """A JSON value some of whose dicts, lists and tuples occur several times,
    at several depths; a later shared part may hold an earlier one."""
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pool.append(draw(containers(st.recursive(leaves_or(pool), containers, max_leaves=6))))
    body = draw(st.recursive(leaves_or(pool), containers, max_leaves=16))
    return [body, pool[-1], {"again": [pool[-1], pool[0]]}]


def leaves_or(pool):
    """Scalars, or (half the time) one of the objects in `pool` itself."""
    if not pool:
        return SCALARS
    return st.booleans().flatmap(
        lambda shared: st.integers(0, len(pool) - 1).map(pool.__getitem__) if shared else SCALARS)


@settings(max_examples=100, deadline=None)
@given(values_with_shared_parts())
def test_dumps_equals_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_a_shared_part_is_written_in_full_at_every_depth():
    part = {"quote": "Théorème 3\n", "premises": [[], {}, (1, None)]}
    value = [part, {"k": part, "l": [part, [part]]}, part]
    text = dumps(value)
    assert text == json.dumps(value, indent=2)
    assert text.count('"Th\\u00e9or\\u00e8me 3\\n"') == 5


class Ends(enum.IntEnum):
    ONE = 1


class Name(str):
    pass


@pytest.mark.parametrize("value", [
    0, -0.0, 1e300, float("nan"), float("inf"), float("-inf"), 10 ** 100, True, None, "",
    Ends.ONE, Name("x"), {Name("k"): [Ends.ONE]}, {1: 2, 2.5: 3, False: 4, None: 5},
    [[], {}, ()], {"a": {"b": {"c": [{}]}}},
])
def test_dumps_equals_json_dumps_on_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, frozenset(), object(), [1, {"a": {2}}], {"a": b"bytes"}, 1j, {(1, 2): 3},
    Ends, enum.Enum("Atom", "A").A,
])
def test_unencodable_values_raise_the_same_type_error(value):
    with pytest.raises(TypeError) as ours:
        dumps(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


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
    roots = [row["certificate"] for row in facts_section(facts)["facts"]]
    certificates = distinct(facts.certificates(), lambda cert: cert.children)
    dicts = distinct(roots, lambda node: node.get("premises", ()))
    expanded = distinct(json.loads(json.dumps(roots)), lambda node: node.get("premises", ()))
    assert len(dicts) == len(certificates) < len(expanded)
