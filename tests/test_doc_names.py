"""Dotted names in README.md and in the src docstrings name code that exists.

Each dotted name X.attr, where X is an fqgeom module or a class defined in
one, must resolve to an attribute of X, to a self.attr assignment in the
class, or to a dataclass field.  Names that start with anything else
(np.ndarray, e.g.) are not checked.

    PYTHONPATH=src python3 -m pytest -q tests/test_doc_names.py
"""
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import fqgeom

SRC = Path(fqgeom.__file__).parent
README = SRC.parent.parent / "README.md"

MODULES = {p.stem: importlib.import_module(f"fqgeom.{p.stem}")
           for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
CLASSES = {name: cls for mod in MODULES.values()
           for name, cls in inspect.getmembers(mod, inspect.isclass)
           if cls.__module__ == mod.__name__}


def resolves(owner, attr) -> bool:
    if hasattr(owner, attr):
        return True
    if not inspect.isclass(owner):
        return False
    if dataclasses.is_dataclass(owner) and attr in {f.name for f in dataclasses.fields(owner)}:
        return True
    return any(isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               and node.attr == attr
               for node in ast.walk(ast.parse(inspect.getsource(owner))))


def texts():
    """(where, text) for README.md and every docstring in src/fqgeom."""
    yield README.name, README.read_text()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield path.name, doc


def unresolved():
    out = set()
    for where, text in texts():
        for chain in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", text):
            parts = chain.split(".")
            for x, attr in zip(parts, parts[1:]):
                owner = MODULES.get(x) or CLASSES.get(x)
                if owner is not None and not resolves(owner, attr):
                    out.add(f"{where}: {x}.{attr}")
    return sorted(out)


def test_documented_names_exist():
    assert unresolved() == []


def test_resolution_rules():
    # instance attributes, dataclass fields and class attributes resolve
    assert resolves(CLASSES["AffineSpace"], "base_axis")
    assert resolves(CLASSES["ProjSpace"], "array")
    assert resolves(CLASSES["LineFamily"], "lines")
    assert resolves(CLASSES["HermitianVariety"], "mask")
    assert resolves(MODULES["kakeya"], "qr_set_size")
    assert not resolves(CLASSES["ProjSpace"], "all_lines")
    assert not resolves(MODULES["geom"], "no_such_name")
