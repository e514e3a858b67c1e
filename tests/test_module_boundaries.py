"""No module of the package imports a private name from another one.

A ``_``-prefixed name is free to change with its own module; a second
module that imports it ties the two together without saying so.
"""
import ast
from pathlib import Path

import randcompare

SRC = Path(randcompare.__file__).resolve().parent


def private_imports(source: str, filename: str) -> list:
    """'file:line: name from module' for each private name that source
    imports from a randcompare module, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "randcompare":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                origin = "." * node.level + module
                found.append(f"{filename}:{node.lineno}: {alias.name} from {origin}")
    return found


def test_detector_sees_relative_and_absolute_imports():
    source = (
        "from __future__ import annotations\n"
        "from .inference import _addone, add_one_pvalue\n"
        "from randcompare.designs import _crd_template\n"
        "from . import _private_module\n"
        "from numpy import _core\n"
        "import randcompare._version\n"
    )
    assert private_imports(source, "m.py") == [
        "m.py:2: _addone from .inference",
        "m.py:3: _crd_template from randcompare.designs",
        "m.py:4: _private_module from .",
    ]


def test_no_private_imports_across_modules():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 10
    found = [
        hit
        for path in paths
        for hit in private_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def too_large_sites(source: str, filename: str) -> list:
    """'file:function: raise' or 'file:function: except' for each raise
    statement and except clause that names EnumerationTooLargeError, by the
    innermost function around it."""
    found = []

    def names(node) -> set:
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                if "EnumerationTooLargeError" in names(child.exc):
                    found.append(f"{filename}:{function}: raise")
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                if "EnumerationTooLargeError" in names(child.type):
                    found.append(f"{filename}:{function}: except")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source, filename=filename), "<module>")
    return found


def test_detector_sees_raises_and_handlers():
    source = (
        "def size(d):\n"
        "    raise errors.EnumerationTooLargeError('big', size=1, cap=0)\n"
        "class C:\n"
        "    def guard(self):\n"
        "        try:\n"
        "            size(self)\n"
        "        except (ValueError, EnumerationTooLargeError):\n"
        "            def inner():\n"
        "                raise EnumerationTooLargeError\n"
        "        except RandcompareError:\n"
        "            raise\n"
    )
    assert too_large_sites(source, "m.py") == [
        "m.py:size: raise", "m.py:guard: except", "m.py:inner: raise",
    ]


def test_one_place_refuses_a_design_as_too_large():
    """check_enumeration_cap alone raises EnumerationTooLargeError, and only
    the command line's main catches it, to exit 4."""
    found = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        for hit in too_large_sites(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == ["cli.py:main: except", "designs.py:check_enumeration_cap: raise"]



def file_read_sites(source: str, filename: str) -> list:
    """'file:function: call' for each call of open(), x.open(),
    x.read_bytes(), x.read_text() or json.load(), by the innermost function
    around it."""
    found = []

    def read_call(call):
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open"
        if isinstance(func, ast.Attribute):
            if func.attr in ("open", "read_bytes", "read_text"):
                return func.attr
            if func.attr == "load" and getattr(func.value, "id", None) == "json":
                return "json.load"
        return None

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (call := read_call(child)):
                found.append(f"{filename}:{function}: {call}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source, filename=filename), "<module>")
    return found


def test_detector_sees_every_way_to_read_a_file():
    source = (
        "import json\n"
        "DOC = json.load(open('a.json'))\n"
        "def load(path):\n"
        "    with path.open() as fh:\n"
        "        return fh.read(), Path(path).read_bytes()\n"
        "class C:\n"
        "    def text(self):\n"
        "        return self.path.read_text(encoding='utf-8'), json.loads('{}')\n"
        "def write(path):\n"
        "    path.write_text('x')\n"
    )
    assert file_read_sites(source, "m.py") == [
        "m.py:<module>: json.load", "m.py:<module>: open", "m.py:load: open",
        "m.py:load: read_bytes", "m.py:text: read_text",
    ]


def test_one_reader_reads_every_input_file():
    """datasets.read_text alone opens a file to read it; the command line's
    output file is written, not read."""
    found = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        for hit in file_read_sites(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == ["datasets.py:read_text: open"]
