"""The benchmark's patch points, and what it reads, still exist in the package.

``perfbench`` times the layers by replacing module attributes by name,
and its workloads read package attributes through module aliases and
look up the batch kinds by name; without these checks a renamed name
surfaces only in a full benchmark run, as a failed run.
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


def _workloads():
    # Read as source: importing workloads.py needs perfbench on sys.path.
    return ast.parse((PERFBENCH / "workloads.py").read_text())


def _verify_all_pieces():
    tree = _workloads()
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


def _literal(tree, name):
    return next(ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == name)


def _workload_reads():
    # (module, attribute) of every `alias.attr` where alias = importlib.import_module(module)
    # at module level, and of every batch kind the closed-form batch looks up by name
    tree = _workloads()
    aliases = {n.targets[0].id: ast.literal_eval(n.value.args[0]) for n in tree.body
               if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
               and ast.unparse(n.value.func) == "importlib.import_module"}
    reads = {(aliases[n.value.id], n.attr) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in aliases}
    correlator_kinds = _literal(tree, "CORRELATOR_KINDS")
    kinds = {("fluctus.correlator" if kind in correlator_kinds else "fluctus.scattering", kind)
             for kind, _, _ in _literal(tree, "BATCH")}
    return aliases, reads, kinds


def test_every_name_the_workloads_read_exists():
    aliases, reads, kinds = _workload_reads()
    assert set(aliases.values()) >= {"fluctus.cli", "fluctus.medium", "fluctus.correlator"}
    assert ("fluctus.medium", "fluid_medium") in reads and ("fluctus.cli", "_KINDS") in reads
    assert len(reads) >= 23 and len(kinds) == 9
    missing = [f"{module}.{attr}" for module, attr in sorted(reads | kinds)
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
