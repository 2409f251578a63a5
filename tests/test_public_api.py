"""Tooling guard: the names other code binds to must keep existing, and
every name the package defines must have a caller in the package.

`from gradalg import *` needs every name in `gradalg.__all__`, and the
benchmark's traced pass (`perfbench/run.py --trace 1`) wraps the library
attributes listed in `perfbench/tracing.py`. A deletion that breaks either
fails here rather than in a benchmark run. A definition that only tests
call fails here too. The last test guards the cache policy of
`gradalg.groups`: one store per group object.
"""
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import gradalg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = Path(gradalg.__file__).resolve().parent


def test_all_names_resolve():
    assert [n for n in gradalg.__all__ if not hasattr(gradalg, n)] == []
    ns = {}
    exec("from gradalg import *", ns)
    assert set(gradalg.__all__) <= set(ns)


def _traced():
    """(metric, module, path) for every attribute the tracer wraps."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS + tracing.COUNTS


def test_traced_attributes_exist():
    targets = _traced()
    assert targets
    missing = []
    for metric, module, path in targets:
        mod = importlib.import_module(module)
        if "." in path:
            # the tracer swaps methods in the class dict itself
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, path, None))
        if not found:
            missing.append(f"{metric}: {module}.{path}")
    assert missing == []


def test_every_definition_has_a_library_caller():
    """Every top-level function and class and every non-dunder method in the
    package is named somewhere in the package (a Name, an Attribute or an
    import alias), except the attributes the tracer wraps. Matching is by
    name, so a dead definition that shares its name with a live one passes,
    but a used name is never flagged."""
    exempt = {(module.rpartition(".")[2] + ".py", path) for _, module, path in _traced()}
    defs, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(path.name, f"{node.name}.{sub.name}", sub.name) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    unused = [f"{file}: {qual}" for file, qual, name in defs
              if name not in named and (file, qual) not in exempt]
    assert unused == []


def test_one_cache_store():
    """Values derived from a group table are kept through FiniteGroup.cached,
    so no module but groups.py reaches for the store itself."""
    used = sorted(p.name for p in SRC.glob("*.py")
                  if p.name != "groups.py" and re.search(r"\b_cache\b", p.read_text()))
    assert used == []
