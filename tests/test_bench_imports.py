"""The names bench/ takes from qnl exist.

bench/child.py and bench/run.py import qnl names, and bench/tracer.py wraps
the qnl functions named in its SPANS and COUNTED tables by name.  A qnl
change that removes or renames one of them breaks `bench/run.py` (its
`--trace 1` mode for the tracer's names) without failing any other test.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import qnl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def qnl_imports():
    """(file, module, name) of every qnl import in bench/*.py; name is None
    for a plain `import qnl.x`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qnl":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "qnl"]
    return found


def qnl_functions():
    """__name__ of every qnl function held by a qnl module, the names the
    tracer matches."""
    names = set()
    for info in pkgutil.iter_modules(qnl.__path__, "qnl."):
        module = importlib.import_module(info.name)
        names |= {getattr(value, "__name__", None) for value in vars(module).values()
                  if callable(value) and getattr(value, "__module__", "").startswith("qnl")}
    return names


def test_bench_qnl_imports_resolve():
    imports = qnl_imports()
    assert imports, "no qnl import found in bench/"
    missing = [f"{where}: {module}.{name}" for where, module, name in imports
               if not hasattr(importlib.import_module(module), name or "__name__")]
    assert missing == []


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = set(tracer.SPANS) | set(tracer.COUNTED) | {"write_snapshot"}
    assert targets - qnl_functions() == set()
