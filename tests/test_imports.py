"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import endscope

PACKAGE = pathlib.Path(endscope.__file__).parent


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


def test_no_unused_imports_in_package():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert found == {}
