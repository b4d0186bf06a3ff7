"""The package's surface: every module-level function and class in
src/minexp_lab is reached from code of the package outside its own
definition, and every method other than a dunder
is read as an attribute by code of the package outside its own definition,
so that code only the tests call lives in the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minexp_lab"


def _names(node):
    """The names `node`'s code reads: names, attributes and imported names
    (docstrings and other text do not count)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
    return out


def unreferenced():
    """[module.name] of the module-level functions and classes that no code
    of the package reads outside their definition; re-exports in
    __init__.py do not count."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    # (module, top-level statement) -> the names that statement reads
    reads = [(module, node, _names(node)) for module, tree in trees.items() for node in tree.body]
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            used = any(node.name in names for _, other, names in reads if other is not node)
            if not used:
                out.append(f"{module}.{node.name}")
    return out


def _attribute_reads(node, name):
    """How many times `node`'s code reads the attribute `name`."""
    return sum(isinstance(sub, ast.Attribute) and sub.attr == name for sub in ast.walk(node))


def unread_methods():
    """[module.Class.method] of the non-dunder methods of module-level
    classes that no code of the package reads as an attribute outside the
    method's own definition."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                reads = sum(_attribute_reads(other, node.name) for other in trees.values())
                if reads == _attribute_reads(node, node.name):
                    out.append(f"{module}.{cls.name}.{node.name}")
    return out


def shared_method_names():
    """The non-dunder method names that more than one package class defines.
    unread_methods counts a read of such a name for every class that
    defines it, so a method only the tests call can hide behind one of them."""
    seen = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    seen.setdefault(node.name, set()).add(cls.name)
    return {name for name, classes in seen.items() if len(classes) > 1}


def test_every_top_level_symbol_is_reached():
    assert unreferenced() == []


def test_every_method_is_read():
    assert unread_methods() == []


def test_shared_method_names_are_pinned():
    # a new shared name needs a look: the method scan cannot tell its classes apart
    assert shared_method_names() == {"_key", "sorted_terms"}


def test_a_dead_function_is_listed(tmp_path, monkeypatch):
    # the scans themselves: a copy of the package with one function nothing
    # calls, and a used class with one method only its own body reads
    copy = tmp_path / "minexp_lab"
    copy.mkdir()
    for path in PACKAGE.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(copy / "divisors.py", "a", encoding="utf-8") as fh:
        fh.write(
            '\n\ndef _never_called():\n    """_never_called is named here only."""\n'
            "\n\nclass _Planted:\n    def _never_read(self):\n        return self._never_read\n"
            "\n\n_PLANTED = _Planted()\n"
        )
    monkeypatch.setitem(globals(), "PACKAGE", copy)
    assert unreferenced() == ["divisors._never_called"]
    assert unread_methods() == ["divisors._Planted._never_read"]
