"""The benchmark's patch points still exist in the package.

``perfbench`` times the layers by replacing module attributes by name;
without this check a renamed function surfaces only in a full benchmark
run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _verify_all_pieces():
    # Read as a literal: importing workloads.py needs perfbench on sys.path.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "VerifyAll")
    assign = next(n for n in cls.body if isinstance(n, ast.Assign)
                  and getattr(n.targets[0], "id", None) == "PIECES")
    return ast.literal_eval(assign.value)


def test_every_benchmark_hook_exists():
    hooks = list(_tracing_targets()) + list(_verify_all_pieces())
    assert len(hooks) > 20
    missing = [f"{module}.{attr}" for module, attr, _ in hooks
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
