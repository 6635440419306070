"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from endscope import cli, coxeter, graph_products
from endscope.cayley import build_ball, oracle_from_spec
from endscope.cli import run
from endscope.errors import (
    ContradictionError,
    EndscopeError,
    MemoryCapExceededError,
    ParseError,
)
from endscope.inference import infer
from endscope.model import parse_document
from endscope.report import render_dot
from test_cayley import CAYLEY_GRID_SPECS
from test_report import as_v1

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# SHA-256 of `endscope analyze` stdout in schema 1, where each certificate was a
# tree, recorded before the rule table became data.  The schema-2 report is
# expanded back to those trees; a change to any certificate, section or key
# order shows up here.
PINNED_REPORTS = {
    "contradiction.ggt": "2d7a7ab8e70f83482d62e57eebde6c7486651d4719f40a04e4075fd9d8773fed",
    "coxeter_suite.ggt": "946524562799396f611f7e4c0550a74ca5ac060641fdf971687bd7b9b9db865e",
    "graph_products.ggt": "c657a7496c8a364d503a7b0f1c1e6ac4e81fff12693b7a8c414671ad4bd78c29",
    "inference.ggt": "d4d3bcb108cc0009f3de0969aa146329a165f662de800aa066176d81c00e97f2",
}

# SHA-256 of the schema-2 `endscope analyze` stdout itself, the bytes the
# report writer writes, recorded while every value took the generic JSON walk.
PINNED_RAW_REPORTS = {
    "contradiction.ggt": "39e142343cc4111d8fe39691234156f686f02de303fb8fc041432776bbb7c0d9",
    "coxeter_suite.ggt": "495f0d21523b50932c623961261bf1cffb2789753c087cbe8bd0fa4d89ad40c2",
    "graph_products.ggt": "42dd1914e75cfc716a406d79eb5ef2ea435bcdfadf0ed5efa2c686efe8ce416f",
    "inference.ggt": "c73bc5cf87e41b144a0e01ba113ec9308058b959ce3ad2aa5d31f2ce294d5266",
}

# SHA-256 of `endscope cayley --window 2 R-2 --dot FILE` stdout followed by
# the DOT file, recorded before balls were indexed by integer ids.
PINNED_BALLS = {
    ("i2:3", 8): "af324eaad88700e2f892309684c6ed202db67885c7e373a74cd922ce565ad1b3",
    ("z:3", 8): "d84a46311d4b1587fa4c5ef18a0d864a8f6c326af5b59ad1fb2d8d9a3f874047",
    ("free:2", 6): "9537d95afb2a1d26c776fd2f53ccfb42c7a1af2519c0aaa1c0ff6f7c371b791b",
    ("prod:free:2xzmod:2", 5): "8af5f2c82fcaf5ab4a83de7095edf79215b232b19f8e32ee8a98697c0a51dc48",
    ("freeprod:i2:4xzmod:2", 8): "7a1d521f8cc9b500b23111f1b42e9cda3b2065ded05867b95817810fc66906d8",
}

# SHA-256 of `endscope tower` stdout on each tower fixture.
PINNED_TOWERS = {
    "tower_x2.twr": "e815903d6ac86fbf1ca943989a2143a8b602c657c8b97fb10093aba9d1e50e54",
    "tower_explicit.twr": "37153fbb5408069178a7a18a1c16f09896f431f64ea6cbfa8b816f15795b1544",
    "tower_unimodular.twr": "832e16f73734ebd16c885f09dec6d00f5226c00069b2af707f6f97f11db4cf5b",
}


# The same digest for every oracle spec of the benchmark's cayley_cli grid at
# radius 5 (window 2..3), recorded while Z^n keys were coordinate tuples.
PINNED_GRID_BALLS = {
    "free:2": "53a145219ff2eda698700f3e5ce5a8ba85826b73e055921835d5fa4c497c1419",
    "free:3": "53de3922b2aeed0d6e597136cfbf9b5dcb1807f3514df27eed12ccfb68604ff7",
    "z:1": "e6e95343753ce23b6ccd295f001c9aec96edc81fe419497c476e25da3f0c4be8",
    "z:2": "9256fa3eda6b8d47a0c0c6ebd25edf69405e4c7ddfcde3b418698ef6691041ab",
    "z:3": "9ecb490c7916884b8322f1a82f42dc163b0ccb4bfa124a96909ad2c26d6d1794",
    "z:4": "0cd402356e1f292958731178c5aed3f3e8bca17c18302e758a3a6c40d6baac4a",
    "zmod:40": "0baf300153ea0d34f7cbe319171059584f9b0e7b3a70d6c6451c137bd979b835",
    "i2:4": "b99169a158eaca73c2cea1e49f5cb0e1826dfdfd8ef0f3e62e8e1a10b50aeede",
    "i2:6": "80f1db674a6c4f8156e008d35eb4704c2f631f9cee5437f8ea8a25acc9aa644a",
    "freeprod:zmod:2xzmod:2": "5a1d319b03dbb514ac6d70dba4af0d8b980fb1d8df30449161db45b071c0efc7",
    "freeprod:zmod:2xzmod:2xzmod:2": "461e91b7c4978fbffcd48e35dae89b8213b5ae7f4d2545327752417766fd4964",
    "freeprod:zmod:2xzmod:3": "eeea161a49617941588095321c0bb0d1b68c968a84c9070bbc805d70299ac41f",
    "freeprod:zmod:3xzmod:3": "2c0fa8109ac4895d0f346416c5f165b3121ade66587d7b43d90a2937cde63a34",
    "freeprod:z:2xfree:1": "228804b41f333f632e667940f597e5c78067ab8c94e6acf1dc6d948f49b84fe2",
    "freeprod:i2:4xzmod:2": "44373993fc4ef9cfd43b451665869dba8282b4199f4d982d0dbf4abd00d033f9",
    "freeprod:i2:6xz:1": "2135ee2584d19b50eb768308b6d3eb22ddd78cfd626fb868b3bdf02101b55c6e",
    "prod:free:2xz:1": "437b80070250e8e780346e245b6c3c281ad314fbf42cbf442fada4daf9d2ca82",
    "prod:free:2xzmod:2": "8af5f2c82fcaf5ab4a83de7095edf79215b232b19f8e32ee8a98697c0a51dc48",
    "prod:z:1xzmod:3": "3e075da253705b3c096d7dd4ed8ad1fb1867835285acaba66d94e5259cf96a44",
    "prod:z:1xz:1xz:1": "3e4a3afa3e9eb99ad35938ae6ed3b8105d16a4b15873d470fbcf50d6e3cd1b9d",
    "prod:i2:4xz:1": "c2f48787b640854fe04c3d5f528adbf31ca3f46ae0b30812415c68f8307aadbd",
    "prod:free:2xfree:2": "1bc485fd012720279df523dc36adfbfa69615af7dfdf43a9f15245013efeddea",
}


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_ok(capsys):
    code, out, _ = run_capture(capsys, ["analyze", str(FIXTURES / "coxeter_suite.ggt")])
    assert code == 0
    report = json.loads(out)
    assert report["schemaVersion"] == 2
    assert report["inputDigest"]
    types = [s["type"] for s in report["sections"]]
    assert "registry" in types and "coxeter" in types and "facts" in types


def test_analyze_is_byte_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_capture(
            capsys, ["analyze", str(FIXTURES / "graph_products.ggt")]
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_analyze_missing_file_is_input_error(capsys):
    code, out, err = run_capture(capsys, ["analyze", "/nonexistent/input.ggt"])
    assert (code, out) == (2, "")
    assert err == "error: cannot read /nonexistent/input.ggt: No such file or directory\n"
    code, out, err = run_capture(
        capsys, ["coxeter", str(FIXTURES / "coxeter_suite.ggt"), "--group", "Nope"])
    assert (code, out) == (2, "")
    assert err == "error: group 'Nope' not declared\n"
    code, out, err = run_capture(capsys, [
        "explain", str(FIXTURES / "inference.ggt"), "--group", "Nope", "--atom", "semistable"])
    assert (code, out) == (2, "")
    assert err == "error: group 'Nope' not declared\n"
    code, out, err = run_capture(
        capsys, ["coxeter", str(FIXTURES / "coxeter_suite.ggt"), "--group", "Art"])
    assert (code, out) == (2, "")
    assert err == "error: group 'Art' is not a Coxeter description\n"


def test_usage_error_exits_2(capsys):
    code, out, err = run_capture(capsys, ["tower"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: endscope tower [-h] file\n")
    assert err.endswith("error: the following arguments are required: file\n")


def test_analyze_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.ggt"
    bad.write_text("group W = wedge { }\n")
    code, _, err = run_capture(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "wedge" in err


@pytest.mark.parametrize("command", ["analyze", "tower"])
def test_a_file_that_is_not_utf8_is_input_error(tmp_path, capsys, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff\n")
    assert run_capture(capsys, [command, str(bad)]) == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


def test_contradiction_exits_3_with_both_certificates(capsys):
    code, out, err = run_capture(
        capsys, ["analyze", str(FIXTURES / "contradiction.ggt")]
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["schemaVersion"] == 2
    conflict = payload["contradiction"]
    assert conflict["group"] == "L" and conflict["atom"] == "semistable"
    rows = conflict["facts"]
    both = [rows[conflict["holds"]], rows[conflict["fails"]]]
    assert [(r["group"], r["atom"], r["holds"]) for r in both] == [
        ("L", "semistable", True), ("L", "semistable", False)]


def test_budget_exhaustion_exits_4(capsys):
    code, _, err = run_capture(
        capsys,
        ["cayley", "--oracle", "free:2", "--radius", "8", "--element-cap", "10"],
    )
    assert code == 4


def test_each_error_class_carries_its_exit_code(monkeypatch, capsys):
    classes = (EndscopeError, ParseError, ContradictionError, MemoryCapExceededError)
    assert [cls.exit_code for cls in classes] == [2, 2, 3, 4]
    for exc in (ParseError("bad token", 1, 2), MemoryCapExceededError(5)):
        def raising(rank, matrix, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "ml_decide_constant", raising)
        assert run_capture(capsys, ["tower", str(FIXTURES / "tower_x2.twr")]) == (
            exc.exit_code, "", f"error: {exc}\n")


@pytest.mark.parametrize("spec, radius, size", [("free:2", 4, 161), ("zmod:7", 2, 5)])
def test_element_cap_equal_to_the_ball_size_exits_0(capsys, spec, radius, size):
    argv = ["cayley", "--oracle", spec, "--radius", str(radius), "--element-cap"]
    code, out, _ = run_capture(capsys, argv + [str(size)])
    assert code == 0
    assert json.loads(out)["sections"][0]["elements"] == size
    code, out, err = run_capture(capsys, argv + [str(size - 1)])
    assert (code, out) == (4, "")
    assert err == f"error: ball construction exceeded element cap {size - 1}\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_element_cap_below_one_is_input_error(capsys, cap):
    code, _, err = run_capture(
        capsys, ["cayley", "--oracle", "z:1", "--radius", "3", "--element-cap", cap]
    )
    assert code == 2
    assert err == "error: element cap must be >= 1\n"


def test_negative_radius_is_input_error(capsys):
    code, out, err = run_capture(capsys, ["cayley", "--oracle", "z:1", "--radius", "-1"])
    assert (code, out, err) == (2, "", "error: radius must be >= 0\n")


@pytest.mark.parametrize("spec", ["z:-2", "free:-1"])
def test_negative_rank_is_input_error(capsys, spec):
    code, _, err = run_capture(capsys, ["cayley", "--oracle", spec, "--radius", "3"])
    assert code == 2
    assert "rank must be >= 0" in err


@pytest.mark.parametrize("spec, message", [
    ("z:x", "bad oracle spec 'z:x': 'x' is not an integer"),
    ("z:1_0", "bad oracle spec 'z:1_0': '1_0' is not an integer"),
    ("z: 2", "bad oracle spec 'z: 2': ' 2' is not an integer"),
    ("zmod:+3", "bad oracle spec 'zmod:+3': '+3' is not an integer"),
    ("free:\u0663", "bad oracle spec 'free:\u0663': '\u0663' is not an integer"),
    ("zmod:0", "bad oracle spec 'zmod:0': order must be >= 1"),
    ("z:-2", "bad oracle spec 'z:-2': rank must be >= 0"),
    ("free:-1", "bad oracle spec 'free:-1': rank must be >= 0"),
    ("i2:1", "bad oracle spec 'i2:1': edge label must be an integer >= 2, got 1"),
    ("prod:z:1xzmod:y", "bad oracle spec 'zmod:y': 'y' is not an integer"),
    ("nope:3", "unknown oracle spec 'nope:3'"),
    ("prod:", "bad oracle spec 'prod:': a part is empty"),
    ("prod:z:1x", "bad oracle spec 'prod:z:1x': a part is empty"),
    ("freeprod:xzmod:2", "bad oracle spec 'freeprod:xzmod:2': a part is empty"),
    ("prod:freeprod:zmod:2xzmod:2xz:1",
     "bad oracle spec 'prod:freeprod:zmod:2xzmod:2xz:1': part 'freeprod:zmod:2' is a product,"
     " and products do not nest"),
    ("freeprod:z:1xprod:z:1", "bad oracle spec 'freeprod:z:1xprod:z:1': part 'prod:z:1' is a"
     " product, and products do not nest"),
])
def test_bad_oracle_spec_is_named_in_the_error(capsys, spec, message):
    code, out, err = run_capture(capsys, ["cayley", "--oracle", spec, "--radius", "3"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_python_dash_m_endscope_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}

    def endscope(*argv):
        return subprocess.run([sys.executable, "-m", "endscope", *argv],
                              env=env, capture_output=True, text=True)

    ok = endscope("cayley", "--oracle", "z:1", "--radius", "3")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["sections"][0]["elements"] == 7
    bad = endscope("cayley", "--oracle", "prod:z:1x", "--radius", "3")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "error: bad oracle spec 'prod:z:1x': a part is empty\n"


def test_closed_stdout_exits_1_quietly():
    # a reader that closed its end of the pipe, like `endscope ... | head -c 0`
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "endscope", "cayley", "--oracle", "z:1", "--radius", "1"],
            env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def chain_document(length, in_order):
    """`group G{k} = direct_product(G{k+1})` for k < length, ending in a free
    group; declared bottom-up when `in_order`, else top-down."""
    lines = [f"group G{k} = direct_product(G{k + 1})" for k in range(length)]
    lines.append(f"group G{length} = free(1)")
    return "\n".join(lines[::-1] if in_order else lines) + "\n"


@pytest.mark.parametrize("text,message", [
    ("group F = finite(0)\n", "line 1, col 18: finite order must be >= 1, got 0"),
    ("group F = free(-1)\n", "line 1, col 16: rank must be >= 0, got -1"),
    ("group A = finite(1_0)\n", "line 1, col 18: expected order, got '1_0'"),
    ("group A = free(\u0663)\n", "line 1, col 16: expected rank, got '\u0663'"),
    ("group W = coxeter { verts a b ; edge a b +3 ; }\n",
     "line 1, col 42: expected edge label, got '+3'"),
    ("group W = coxeter { verts a a ; }\n", "line 1, col 29: duplicate vertex 'a'"),
    ("group W = coxeter { verts a b ; edge a a 3 ; }\n", "line 1, col 40: self-loop at 'a'"),
    ("group W = coxeter { verts a b ; edge a b 1 ; }\n",
     "line 1, col 42: edge label must be an integer >= 2, got 1"),
    ("group F = finite(x)\n", "line 1, col 18: expected order, got 'x'"),
    ("group F = finite(2, 3)\n", "line 1, col 19: expected ')', got ','"),
    ("group K = known(a, b)\n", "line 1, col 21: expected 1 references, got 2"),
    ("group A = amalgam(X, Y)\n", "line 1, col 23: expected 3 references, got 2"),
    ("group H = hnn(X)\n", "line 1, col 16: expected 2 references, got 1"),
    ("group W = wedge { }\n", "line 1, col 11: unknown constructor 'wedge'"),
    ("group ( = free(1)\n", "line 1, col 7: expected a name, got '('"),
    ("group X = known(=)\n", "line 1, col 17: expected a name, got '='"),
    ("group D = direct_product()\n", "line 1, col 26: expected a name, got ')'"),
    ("group P = graph_product { verts u:( ; }\n", "line 1, col 35: expected a name, got '('"),
    ("assert ( : semistable\n", "line 1, col 8: expected a name, got '('"),
    ("group W = coxeter { verts a , b ; }\n", "line 1, col 29: bad vertex name ','"),
    ("group W = coxeter { verts a b ; edge a , 3 ; }\n",
     "line 1, col 40: expected a name, got ','"),
    ("group W = coxeter { verts a b ; edge a z 3 ; }\n", "line 1, col 40: unknown vertex 'z'"),
    ("group W = coxeter { verts a b ; edge a b 3 ; edge b a 2 ; }\n",
     "line 1, col 51: duplicate edge ('a', 'b')"),
    ("group A = free(1)\ngroup P = graph_product { verts u:A v:A u:A ; }\n",
     "line 2, col 41: duplicate vertex 'u'"),
    ("group A = free(1)\ngroup P = graph_product { verts u:A v:A ; edge v v ; }\n",
     "line 2, col 50: self-loop at 'v'"),
    ("group A = free(1)\ngroup P = graph_product { verts u:A v:A ; edge u v ; edge v u ; }\n",
     "line 2, col 59: duplicate edge ('u', 'v')"),
    ("group A = free(1)\ngroup C = amalgam(A, A)\ngroup D = free(1)\n",
     "line 2, col 23: expected 3 references, got 2"),
    pytest.param(chain_document(1200, in_order=False),
                 "line 1, col 7: reference to undeclared group 'G1'", id="forward-chain"),
    ("group A = direct_product(B)\ngroup B = direct_product(A)\n",
     "line 1, col 7: reference to undeclared group 'B'"),
    ("group A = direct_product(A)\n", "line 1, col 7: reference to undeclared group 'A'"),
    ("group A = free(1)\n  group A = free(2)\n", "line 2, col 9: duplicate group name 'A'"),
    ("group W = coxeter { verts a b ; wedge }\n",
     "line 1, col 33: expected 'verts', 'edge' or '}', got 'wedge'"),
    ("group A = free(1)\ngroup D = direct_product(A A)\n",
     "line 2, col 28: expected ',' or ')', got 'A'"),
    ("group A = free(1)\n  grop B = free(2)\n",
     "line 2, col 3: expected 'group' or 'assert', got 'grop'"),
    ("group A = free(1)\nassert A : fg\nassert  B : not fg\n",
     "line 3, col 9: reference to undeclared group 'B'"),
])
def test_malformed_description_names_its_fault(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ggt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_capture(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def cayley_digest(tmp_path, capsys, spec, radius):
    """SHA-256 of the `cayley --window 2 R-2 --dot` report followed by its DOT."""
    dot_path = tmp_path / "ball.dot"
    code, out, _ = run_capture(
        capsys,
        ["cayley", "--oracle", spec, "--radius", str(radius),
         "--window", "2", str(radius - 2), "--dot", str(dot_path)],
    )
    assert code == 0
    return hashlib.sha256(out.encode("utf-8") + dot_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("spec,radius", sorted(PINNED_BALLS))
def test_cayley_ball_matches_pinned_digest(tmp_path, capsys, spec, radius):
    assert cayley_digest(tmp_path, capsys, spec, radius) == PINNED_BALLS[(spec, radius)]


def test_pinned_grid_covers_the_benchmark_grid():
    assert sorted(PINNED_GRID_BALLS) == sorted(CAYLEY_GRID_SPECS)


@pytest.mark.parametrize("spec", CAYLEY_GRID_SPECS)
def test_cayley_grid_ball_matches_pinned_digest(tmp_path, capsys, spec):
    assert cayley_digest(tmp_path, capsys, spec, 5) == PINNED_GRID_BALLS[spec]


def test_coxeter_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        ["coxeter", str(FIXTURES / "coxeter_suite.ggt"), "--group", "W2"],
    )
    assert code == 0
    section = json.loads(out)["sections"][0]
    assert section["type"] == "coxeter"
    assert section["finite_type"]["is_finite"] is True
    assert section["ends"] == "0"


def test_coxeter_subcommand_has_no_vertex_cap(tmp_path, capsys):
    # 26 pairwise unrelated generators: a free product of 26 copies of Z/2
    doc = tmp_path / "wide.ggt"
    doc.write_text("group W = coxeter { verts " + " ".join(f"v{i}" for i in range(26)) + " ; }\n")
    code, out, _ = run_capture(capsys, ["coxeter", str(doc), "--group", "W"])
    assert code == 0
    section = json.loads(out)["sections"][0]
    assert section["ends"] == "inf"
    assert section["witness"] == {"kind": "separator", "separator": []}


def test_graph_product_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        ["graph-product", str(FIXTURES / "graph_products.ggt"), "--group", "Hex"],
    )
    assert code == 0
    section = json.loads(out)["sections"][0]
    assert section["ends"] == "1"
    assert section["semistability"] == "semistable"


def test_graph_product_on_a_complete_graph_with_one_two_ended_vertex(tmp_path, capsys):
    """Z x Z/2, the graph product on an edge joining Z and Z/2, is 2-ended:
    a complete graph whose only infinite vertex group is 2-ended."""
    path = tmp_path / "zc.ggt"
    path.write_text("group Z = free_abelian(1)\ngroup C = finite(2)\n"
                    "group P = graph_product { verts a:Z b:C ; edge a b ; }\n", encoding="utf-8")
    code, out, _ = run_capture(capsys, ["graph-product", str(path), "--group", "P"])
    assert code == 0
    section = json.loads(out)["sections"][0]
    assert section["ends"] == "2"
    assert section["ends_witness"] == {"kind": "complete_one_two_ended", "vertex": "a"}


def test_cayley_subcommand_with_window_and_dot(tmp_path, capsys):
    dot_path = tmp_path / "ball.dot"
    code, out, _ = run_capture(
        capsys,
        ["cayley", "--oracle", "z:1", "--radius", "8",
         "--window", "2", "6", "--dot", str(dot_path)],
    )
    assert code == 0
    payload = json.loads(out)
    ball, estimate = payload["sections"]
    assert ball["elements"] == 17
    assert estimate["verdict"] == "stabilized" and estimate["ends"] == "2"
    assert any(w["kind"] == "heuristic_verdict" for w in payload["warnings"])
    text = dot_path.read_text()
    assert text.startswith("graph ball {") and "d=0" in text


@pytest.mark.parametrize("where,reason", [
    ("missing/ball.dot", "No such file or directory"),
    (".", "Is a directory"),
])
def test_cayley_unwritable_dot_is_input_error(tmp_path, capsys, where, reason):
    dot_path = tmp_path / where
    code, out, err = run_capture(
        capsys, ["cayley", "--oracle", "z:1", "--radius", "3", "--dot", str(dot_path)]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {dot_path}: {reason}\n"


def write_dot(capsys, spec, radius, path):
    code, _, err = run_capture(
        capsys, ["cayley", "--oracle", spec, "--radius", str(radius), "--dot", str(path)]
    )
    assert (code, err) == (0, "")


def ball_dot(spec, radius):
    return render_dot(build_ball(oracle_from_spec(spec), radius)).encode("ascii")


@pytest.mark.parametrize("radii", [(12, 4), (4, 12)])
def test_cayley_dot_rewrite_holds_exactly_the_last_ball(tmp_path, capsys, radii):
    dot_path = tmp_path / "ball.dot"
    for radius in radii:
        write_dot(capsys, "z:2", radius, dot_path)
    assert dot_path.read_bytes() == ball_dot("z:2", radii[-1])


def test_cayley_dot_rewrite_keeps_the_file_and_its_links(tmp_path, capsys):
    dot_path, link = tmp_path / "ball.dot", tmp_path / "link.dot"
    write_dot(capsys, "z:2", 12, dot_path)
    os.link(dot_path, link)
    inode = dot_path.stat().st_ino
    write_dot(capsys, "z:2", 4, dot_path)
    assert dot_path.stat().st_ino == inode
    assert link.read_bytes() == ball_dot("z:2", 4)


def test_cayley_dot_new_file_mode_follows_the_umask(tmp_path, capsys):
    dot_path = tmp_path / "ball.dot"
    old = os.umask(0o027)
    try:
        write_dot(capsys, "z:1", 3, dot_path)
    finally:
        os.umask(old)
    assert dot_path.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_cayley_dot_to_a_pipe_is_written_whole(capsys):
    r, w = os.pipe()
    with os.fdopen(r, "rb") as fh:
        try:
            write_dot(capsys, "z:1", 3, f"/dev/fd/{w}")
        finally:
            os.close(w)
        assert fh.read() == ball_dot("z:1", 3)


def test_tower_subcommand_constant(capsys):
    code, out, _ = run_capture(capsys, ["tower", str(FIXTURES / "tower_x2.twr")])
    assert code == 0
    section = json.loads(out)["sections"][0]
    assert section["verdict"]["kind"] == "strictly_descending"
    assert section["lim1"]["lim1"] == "nontrivial"


def test_tower_subcommand_explicit_window(capsys):
    code, out, _ = run_capture(
        capsys, ["tower", str(FIXTURES / "tower_explicit.twr")]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sections"][0]["verdict"]["kind"] == "semistable"
    assert any(w["kind"] == "finite_window" for w in payload["warnings"])


# tower_explicit.twr reflowed: comments, and statements split across lines
REFLOWED_EXPLICIT = """\
# six stages of Z^2, every bonding the identity
tower {
  ranks: 2 2 2
         2 2 2 ;
  bond 1: 1 0 ,
          0 1 ;  # rows may sit on lines of their own
  bond 2: 1 0 , 0 1 ; bond 3: 1 0 , 0 1 ;
  bond 4: 1 0 , 0 1 ;
  bond 5: 1 0 ,
          0 1
  ;
}
"""


def test_tower_read_across_lines(tmp_path, capsys):
    path = tmp_path / "reflowed.twr"
    path.write_text(REFLOWED_EXPLICIT, encoding="utf-8")
    code, out, err = run_capture(capsys, ["tower", str(path)])
    _, one_line, _ = run_capture(capsys, ["tower", str(FIXTURES / "tower_explicit.twr")])
    reflowed, expected = json.loads(out), json.loads(one_line)
    del reflowed["inputDigest"], expected["inputDigest"]  # a digest of the text itself
    assert (code, err, reflowed) == (0, "", expected)
    # an error names the line and column of its statement or token
    lines = REFLOWED_EXPLICIT.splitlines()
    for number, line, message in [
        (7, "  bond 2: 1 0 , 0 1 ; bond 1: 1 0 , 0 1 ;",
         "line 7, col 23: repeated tower statement 'bond 1'"),
        (6, "          0 x ;", "line 6, col 13: expected matrix entry, got 'x'"),
        (4, "         2 2 , 2 ;", "line 4, col 14: expected rank, got ','"),
        (11, "  }", "line 11, col 3: expected ';', got '}'"),
    ]:
        path.write_text("\n".join(lines[:number - 1] + [line] + lines[number:]) + "\n",
                        encoding="utf-8")
        assert run_capture(capsys, ["tower", str(path)]) == (2, "", f"error: {message}\n")


def test_a_fault_inside_a_command_is_not_an_input_error(monkeypatch, capsys):
    """Only EndscopeError and its subclasses map to exit codes: a ValueError
    raised inside a command is a fault, and it propagates."""
    def broken(rank, matrix):
        raise ValueError("a fault inside the decider")

    monkeypatch.setattr(cli, "ml_decide_constant", broken)
    with pytest.raises(ValueError, match="a fault inside the decider"):
        run(["tower", str(FIXTURES / "tower_x2.twr")])
    assert capsys.readouterr().err == ""


def test_explain_subcommand(capsys):
    code, out, _ = run_capture(
        capsys,
        ["explain", str(FIXTURES / "inference.ggt"), "--group", "F",
         "--atom", "h2_free_abelian"],
    )
    assert code == 0
    assert "R-GM2" in out


def test_a_reused_parser_carries_no_options_over(capsys):
    _, out, _ = run_capture(capsys, ["cayley", "--oracle", "i2:3", "--radius", "6",
                                     "--window", "2", "4"])
    assert "end_estimate" in out
    _, out, _ = run_capture(capsys, ["cayley", "--oracle", "i2:3", "--radius", "6"])
    assert [s["type"] for s in json.loads(out)["sections"]] == ["ball"]
    argv = ["explain", str(FIXTURES / "inference.ggt"), "--group", "F", "--atom", "h2_free_abelian"]
    assert run(argv + ["--negated"]) == 2  # not derived
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("F : h2_free_abelian  [rule R-GM2")


def test_explain_unknown_atom_is_input_error(capsys):
    code, _, err = run_capture(
        capsys,
        ["explain", str(FIXTURES / "inference.ggt"), "--group", "F",
         "--atom", "sparkly"],
    )
    assert code == 2


def test_dot_subcommand_for_diagram(capsys):
    code, out, _ = run_capture(
        capsys, ["dot", str(FIXTURES / "coxeter_suite.ggt"), "--group", "W7"]
    )
    assert code == 0
    assert out.startswith("graph diagram {")
    assert out.count("--") == 3 and 'label="3"' in out


def test_dot_subcommand_for_graph_product(capsys):
    code, out, err = run_capture(
        capsys, ["dot", str(FIXTURES / "graph_products.ggt"), "--group", "OVi"]
    )
    assert (code, err) == (0, "")
    assert out == 'graph diagram {\n  "x";\n  "y";\n  "x" -- "y" [label="2"];\n}\n'


def test_dot_subcommand_needs_a_diagram(capsys):
    code, _, err = run_capture(
        capsys, ["dot", str(FIXTURES / "inference.ggt"), "--group", "X"]
    )
    assert code == 2


@pytest.mark.parametrize("vertex, shown", [('a"b', "'a\"b'"), ("a\\", "'a\\\\'")])
def test_dot_refuses_a_vertex_it_cannot_quote(tmp_path, capsys, vertex, shown):
    # a DOT quoted ID escapes '"' as '\"', so none can end in a backslash
    path = tmp_path / "quoted.ggt"
    path.write_text(f"group W = coxeter {{ verts {vertex} c ; edge {vertex} c 3 ; }}\n")
    code, out, err = run_capture(capsys, ["dot", str(path), "--group", "W"])
    assert (code, out) == (2, "")
    assert err == (f"error: cannot write vertex {shown} to DOT:"
                   " DOT names cannot contain '\"' or '\\'\n")
    assert run_capture(capsys, ["analyze", str(path)])[0] == 0


@pytest.mark.parametrize("fixture", sorted(PINNED_REPORTS))
def test_analyze_report_matches_pinned_digest(capsys, fixture):
    run(["analyze", str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_RAW_REPORTS[fixture]
    v1 = json.dumps(as_v1(json.loads(out)), indent=2) + "\n"
    assert hashlib.sha256(v1.encode("utf-8")).hexdigest() == PINNED_REPORTS[fixture]


@pytest.mark.parametrize("fixture", sorted(PINNED_TOWERS))
def test_tower_report_matches_pinned_digest(capsys, fixture):
    code, out, err = run_capture(capsys, ["tower", str(FIXTURES / fixture)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_TOWERS[fixture]


@pytest.mark.parametrize("argv", [
    *(["analyze", str(FIXTURES / fixture)] for fixture in sorted(PINNED_REPORTS)),
    ["coxeter", str(FIXTURES / "coxeter_suite.ggt"), "--group", "W2"],
    ["graph-product", str(FIXTURES / "graph_products.ggt"), "--group", "Hex"],
    ["cayley", "--oracle", "i2:3", "--radius", "6", "--window", "2", "4"],
    ["tower", str(FIXTURES / "tower_explicit.twr")],
    ["tower", str(FIXTURES / "tower_x2.twr")],
], ids=lambda argv: "-".join(pathlib.Path(a).name for a in argv[:2]))
def test_output_is_exactly_json_dumps_with_indent_2(capsys, argv):
    code, out, _ = run_capture(capsys, argv)
    assert code in (0, 3)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def count_calls(monkeypatch, fn):
    """Record each call of `fn`, patched in every endscope module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "endscope" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_analyze_runs_the_coxeter_decider_once_per_group(monkeypatch, capsys):
    calls = count_calls(monkeypatch, coxeter.coxeter_ends)
    code, out, _ = run_capture(capsys, ["analyze", str(FIXTURES / "coxeter_suite.ggt")])
    assert code == 0
    assert len(calls) == 7
    assert sum(s["type"] == "coxeter" for s in json.loads(out)["sections"]) == 7


def test_graph_product_sections_reuse_the_inference_decisions(monkeypatch, capsys):
    path = FIXTURES / "graph_products.ggt"
    ends = count_calls(monkeypatch, graph_products.graph_product_ends)
    semi = count_calls(monkeypatch, graph_products.graph_product_semistable)
    infer(parse_document(path.read_text(encoding="utf-8")))
    in_inference = (len(ends), len(semi))
    for args in (ends, semi):  # one call per distinct vertex-profile tuple
        keys = [(a[0].graph.vertices, tuple(a[0].profiles.values())) for a in args]
        assert len(set(keys)) == len(keys)
    for argv in (["analyze", str(path)], ["graph-product", str(path), "--group", "Hex"]):
        ends.clear()
        semi.clear()
        code, _, _ = run_capture(capsys, argv)
        assert code == 0
        assert (len(ends), len(semi)) == in_inference, argv


EMPTY_DIAGRAMS = "group P = graph_product { }\ngroup W = coxeter { }\ngroup A = artin { }\n"


def test_empty_diagrams_are_decided_as_the_trivial_group(tmp_path, capsys):
    path = tmp_path / "empty.ggt"
    path.write_text(EMPTY_DIAGRAMS, encoding="utf-8")
    digest = hashlib.sha256(EMPTY_DIAGRAMS.encode("utf-8")).hexdigest()

    def report(*sections):
        return {"schemaVersion": 1, "inputDigest": digest, "sections": list(sections),
                "warnings": []}

    graph_product = {
        "type": "graph_product", "group": "P",
        "ends": "0", "ends_witness": {"kind": "complete_all_finite", "vertices": []},
        "semistability": "semistable",
        "semistability_witness": {"kind": "no_qualifying_vertex"}}
    coxeter = {
        "type": "coxeter", "group": "W",
        "finite_type": {"is_finite": True, "components": []},
        "ends": "0", "witness": {"kind": "finite_type", "components": []}}
    code, out, err = run_capture(capsys, ["graph-product", str(path), "--group", "P"])
    assert (code, err) == (0, "")
    assert json.loads(out) == report(graph_product)
    code, out, err = run_capture(capsys, ["coxeter", str(path), "--group", "W"])
    assert (code, err) == (0, "")
    assert json.loads(out) == report(coxeter)
    # analyze decides each empty diagram as the subcommands do, and derives
    # from its 0 ends that the group is finite
    code, out, err = run_capture(capsys, ["analyze", str(path)])
    assert (code, err) == (0, "")
    sections = json.loads(out)["sections"]
    assert sections[1:4] == [graph_product, coxeter, {
        "type": "artin", "group": "A", "one_ended": False, "ends": "0"}]
    assert [s["type"] for s in sections] == [
        "registry", "graph_product", "coxeter", "artin", "facts"]
    # the registry writes each empty diagram as "{ }"
    assert [g["expr"] for g in sections[0]["groups"]] == [
        "graph_product { }", "coxeter { }", "artin { }"]
    facts = {(f["group"], f["atom"], f["holds"]) for f in sections[4]["facts"]}
    for group in "PWA":
        assert {(group, "ends_zero", True), (group, "finite", True),
                (group, "infinite", False), (group, "semistable", True)} <= facts


def test_an_in_order_chain_of_1201_groups_analyzes(tmp_path, capsys):
    path = tmp_path / "chain.ggt"
    path.write_text(chain_document(1200, in_order=True), encoding="utf-8")
    code, out, err = run_capture(capsys, ["analyze", str(path)])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["sections"][0]["groups"]) == 1201


@pytest.mark.parametrize("text,message", [
    ("towr { }", "line 1, col 1: expected 'tower { ... }' or 'tower constant { ... }'"),
    ("tower constant { rank 1 ; bond 1: 2 ; }",
     "line 1, col 27: unknown tower statement 'bond'"),
    ("tower constant { rank 1 ; }", "line 1, col 1: constant tower needs 'rank' and 'matrix'"),
    ("tower { ranks: 1 1 ; matrix 2 ; }", "line 1, col 22: unknown tower statement 'matrix'"),
    ("tower { bond 1: 2 ; }", "line 1, col 1: explicit tower needs 'ranks:'"),
    ("tower { ranks: 1 1 1 ; bond 1: 2 ; }", "line 1, col 1: bond indices must be 1..len(ranks)-1"),
    ("tower { ranks: 2 1 ; bond 1: 1 0 ; }", "line 1, col 1: bonding 1 must have shape 2 x 1"),
    ("tower constant { rank 2 ; matrix 1 0 ; }", "line 1, col 1: matrix must be 2 x 2"),
    ("tower constant { rank -1 ; matrix 1 ; }", "line 1, col 1: rank must be >= 0, got -1"),
    ("tower { ranks: -1 1 ; bond 1: 1 ; }", "line 1, col 1: rank must be >= 0, got -1"),
    ("tower constant { rank 1_0 ; matrix 1 ; }", "line 1, col 23: expected rank, got '1_0'"),
    ("tower { ranks: 2 2 ; bond 1: 1 0 , 0 1 ; bond 1: 2 0 , 0 2 ; }",
     "line 1, col 42: repeated tower statement 'bond 1'"),
    ("tower { ranks: 1 1 ; bond 1: 1 ; bond 01: 2 ; }",
     "line 1, col 34: repeated tower statement 'bond 1'"),
    ("tower { ranks: 1 1 ; ranks: 1 1 ; bond 1: 1 ; }",
     "line 1, col 22: repeated tower statement 'ranks'"),
    ("tower constant { rank 1 ; rank 2 ; matrix 2 ; }",
     "line 1, col 27: repeated tower statement 'rank'"),
    ("tower constant { rank 1 ; matrix 2 ; matrix 3 ; }",
     "line 1, col 38: repeated tower statement 'matrix'"),
    ("tower { ranks: 1 1 ; bond x: 1 ; }",
     "line 1, col 27: expected bond index, got 'x'"),
    ("tower { ranks: 1 y ; bond 1: 1 ; }",
     "line 1, col 18: expected rank, got 'y'"),
    ("tower constant { rank 1 ; matrix z ; }",
     "line 1, col 34: expected matrix entry, got 'z'"),
    ("tower constant { rank 2 ; matrix 1 0 , , 0 1 ; }",
     "line 1, col 40: expected matrix entry, got ','"),
    ("tower constant { rank 2 ; matrix 1 0 , 0 1 , ; }",
     "line 1, col 46: expected matrix entry, got ';'"),
    ("tower { ranks: 1 1 ; bond 1: 1 , ; }", "line 1, col 34: expected matrix entry, got ';'"),
    ("tower constant { rank 1 2 ; matrix 2 ; }", "line 1, col 25: expected ';', got '2'"),
    ("tower constant { rank 1 ; matrix 2 ; } }",
     "line 1, col 40: expected end of input after '}', got '}'"),
    ("tower { ranks: 1 ; }", "line 1, col 1: explicit tower needs at least two ranks"),
    ("tower { ranks: 1 1 ; bond1: 1 ; }", "line 1, col 22: unknown tower statement 'bond1'"),
    ("tower { ranks: 1 1 ; bond 1: 1 }", "line 1, col 32: expected ';', got '}'"),
    ("tower { ranks: 1 1 ; ; bond 1: 1 ; }", "line 1, col 22: unknown tower statement ';'"),
    ("tower constant { rank 0 ; matrix ; }", "line 1, col 34: expected matrix entry, got ';'"),
    ("tower constant { rank 1 ; matrix 2 ;", "line 1, col 36: unexpected end of input (expected '}')"),
    ("tower {\n  ranks: 2 2 ;\n  bond 1: 1 0 , 0 1 ;\n  bond 1: 2 0 , 0 2 ;\n}",
     "line 4, col 3: repeated tower statement 'bond 1'"),
])
def test_malformed_tower_names_its_fault(tmp_path, capsys, text, message):
    path = tmp_path / "bad.twr"
    path.write_text(text + "\n", encoding="utf-8")
    assert run_capture(capsys, ["tower", str(path)]) == (2, "", f"error: {message}\n")


def readme_block(heading):
    """The first fenced block under `heading` in the README."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split("```", 2)[1].lstrip("\n")


def test_readme_examples_run(tmp_path, capsys):
    path = tmp_path / "readme.ggt"
    path.write_text(readme_block("## Group description files"), encoding="utf-8")
    code, out, err = run_capture(capsys, ["analyze", str(path)])
    assert (code, err) == (0, "")
    lines = readme_block("## Tower files").splitlines()
    assert len(lines) == 2
    for line in lines:
        path = tmp_path / "readme.twr"
        path.write_text(line + "\n", encoding="utf-8")
        code, _, err = run_capture(capsys, ["tower", str(path)])
        assert (code, err) == (0, ""), line


CATALOG_GRAPH_PRODUCTS = """\
group L = known(lamplighter)
group Q = finite(2)
group P = graph_product { verts l:L f:Q ; edge l f ; }
group G = known(grigorchuk)
group R = graph_product { verts g:G f:Q ; edge g f ; }
"""


def test_graph_products_over_catalog_groups(tmp_path, capsys):
    path = tmp_path / "catalog.ggt"
    path.write_text(CATALOG_GRAPH_PRODUCTS, encoding="utf-8")
    code, out, _ = run_capture(capsys, ["analyze", str(path)])
    assert code == 0
    report = json.loads(out)
    sections = [s for s in report["sections"] if s["type"] == "graph_product"]
    assert sections == [
        {"type": "graph_product", "group": "P", "ends": None,
         "ends_witness": {"kind": "incomplete_vertex_profiles"},
         "semistability": "not_semistable",
         "semistability_witness": {"kind": "vertex", "vertex": "l"}},
        {"type": "graph_product", "group": "R", "ends": None,
         "ends_witness": {"kind": "incomplete_vertex_profiles"},
         "semistability": "unknown",
         "semistability_witness": {"kind": "vertex_not_known_fp", "vertex": "g"}},
    ]
    assert report["warnings"] == [{
        "kind": "undetermined_semistability", "group": "R",
        "detail": "vertex profiles leave the criterion undecided"}]
    argv = ["explain", str(path), "--group", "P", "--atom", "semistable", "--negated"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P : not semistable  [rule R-GP, theorem OV]"
    assert lines[2] == "  note: decider witness: {'kind': 'vertex', 'vertex': 'l'}"
    # the premises are the vertex profiles' facts, in the order they are read
    premises = [line.split("  [")[0].strip() for line in lines[3:]
                if line.startswith("  ") and not line.startswith("   ")]
    assert premises == ["L : infinite", "L : not semistable", "L : not fp", "Q : finite",
                        "Q : ends_zero", "Q : semistable", "Q : fp"]
