"""Every name a module of the package or of the tests imports is used in that
module, every module-level function and class is used somewhere in the
package, every name the package exports is reached by its code or
documented, no package module imports `dataclasses` or holds an `assert`
statement, and `_Value` is the package's one immutable-value class."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import endscope

PACKAGE = pathlib.Path(endscope.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b"),
    ]


def unused_imports_in(paths):
    found = {}
    for path in paths:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    return found


def test_no_unused_imports_in_package():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]  # re-exports
    assert unused_imports_in(modules) == {}


def test_no_unused_imports_in_tests():
    assert unused_imports_in(sorted(pathlib.Path(__file__).parent.glob("*.py"))) == {}


def imported_modules(source):
    """Top-level names of the modules a source imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_reader():
    source = "import os.path, re as r\nfrom dataclasses import field\nfrom .model import x\n"
    assert imported_modules(source) == {"os", "re", "dataclasses"}


# A dataclass generates its methods by exec at every import, and the
# `dataclasses` module pulls in `inspect`: records are named tuples, and the
# group constructors, LabeledGraph and GroupRegistry are plain classes.
def test_no_package_module_imports_dataclasses():
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if "dataclasses" in imported_modules(p.read_text(encoding="utf-8"))] == []


def assert_lines(source):
    """Lines of the `assert` statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_reader():
    assert assert_lines('"""assert G : fp"""\ndef f(x):\n    assert x, "no"\n') == [3]


# `python -O` strips assert statements, so a check the package makes must
# raise instead; CI runs the whole suite under -O as well.
def test_no_package_module_holds_an_assert():
    assert [(p.name, line) for p in sorted(PACKAGE.glob("*.py"))
            for line in assert_lines(p.read_text(encoding="utf-8"))] == []


def classes_defining(source, methods):
    """Names of the classes in `source` whose body defines one of `methods`."""
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name in methods
                    for item in node.body)]


def test_classes_defining_reader():
    source = ("class A:\n    def __setattr__(self, name, value):\n        pass\n"
              "def f():\n    class C:\n        def __delattr__(self, name):\n            pass\n")
    assert classes_defining(source, {"__setattr__", "__delattr__"}) == ["A", "C"]


# Immutable values share one base: a class that bans assignment itself is a
# second hand-written value class, and should subclass `_Value` instead.
def test_only_the_value_base_bans_assignment():
    assert [(p.name, name) for p in sorted(PACKAGE.glob("*.py"))
            for name in classes_defining(p.read_text(encoding="utf-8"),
                                         {"__setattr__", "__delattr__"})] == [
        ("graphs.py", "_Value"),
    ]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only endscope's own imports count
    code = "import sys, endscope.cli; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def module_definitions(source):
    """(line, name) of each module-level `def` / `class`."""
    tree = ast.parse(source)
    return [
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def referenced_names(source):
    """Names read as a variable, an attribute or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_dead_helper_detector():
    source = ("def _used():\n    pass\n\ndef _dead():\n    _used()\n\n"
              "class _Gone:\n    pass\n\ndef public_dead():\n    pass\n")
    dead = [d for d in module_definitions(source) if d[1] not in referenced_names(source)]
    assert dead == [(4, "_dead"), (7, "_Gone"), (10, "public_dead")]


def test_no_dead_definitions_in_package():
    """A public definition counts as used when `__init__` re-exports it."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(referenced_names(text) for text in sources.values()))
    found = {}
    for name, text in sources.items():
        dead = [d for d in module_definitions(text) if d[1] not in used]
        if dead:
            found[name] = dead
    assert found == {}


def library_block(readme):
    """Identifiers in the README's Library code block, comments left out."""
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    return set(re.findall(r"\w+", re.sub(r"#.*", "", block)))


def exported_names(source):
    return [alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_library_block_reader():
    readme = "# x\n## Library\n\n```python\nfrom endscope import (\n    a, b_c,  # d\n)\n```\ne\n"
    assert library_block(readme) == {"from", "endscope", "import", "a", "b_c"}
    assert exported_names("from .m import (A, b as c)\n") == ["A", "c"]


def test_every_export_is_reached_or_documented():
    """A name `__init__` exports is read by a package module other than
    `__init__`, or the README's Library block names it: no public name only
    tests reach."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(referenced_names(text) for name, text in sources.items()
                         if name != "__init__.py"))
    documented = library_block(README.read_text(encoding="utf-8"))
    exports = exported_names(sources["__init__.py"])
    assert [name for name in exports if name not in used | documented] == []
