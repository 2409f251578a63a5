"""Tooling guard: the names other code binds to must keep existing.

`from gradalg import *` needs every name in `gradalg.__all__`, and the
benchmark's traced pass (`perfbench/run.py --trace 1`) wraps the library
attributes listed in `perfbench/tracing.py`. A deletion that breaks either
fails here rather than in a benchmark run. The last test guards the cache
policy of `gradalg.groups`: one store per group object.
"""
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


def test_traced_attributes_exist():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.SPANS + tracing.COUNTS
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


def test_one_cache_store():
    """Values derived from a group table are kept through FiniteGroup.cached,
    so no module but groups.py reaches for the store itself."""
    used = sorted(p.name for p in SRC.glob("*.py")
                  if p.name != "groups.py" and re.search(r"\b_cache\b", p.read_text()))
    assert used == []
