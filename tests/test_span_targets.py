"""The names the benchmark depends on exist in the package.

``perfbench/spans.py`` skips a traced name the program no longer defines,
so a traced run would silently lack that name's per-layer metrics.  The
recorder is loaded from its source without importing the benchmark package
or writing a bytecode cache next to it.  The workloads and the fingerprint
module are only parsed: every attribute they take from an ``adisplit``
module must resolve, or the benchmark stops at its first operation.
"""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
API_USERS = ("workloads.py", "fingerprint.py")
MODULES = ("experiments", "grid", "linsolve", "operators", "steppers")


def load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module_name, attr, _span, _extras in targets:
        module = importlib.import_module(module_name)
        cls_name, _, member = attr.rpartition(".")
        owner = vars(module).get(cls_name) if cls_name else module
        if owner is None or member not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def api_chains(source: str):
    """Attribute chains such as ("steppers", "SchemeKind", "CRANK_NICOLSON")
    rooted at a package module name, directly or as ``wl.<module>``."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            continue
        names.append(node.id)
        names.reverse()
        if names[0] == "wl":
            names = names[1:]
        if len(names) > 1 and names[0] in MODULES:
            chains.add(tuple(names))
    return chains


def test_benchmark_api_resolves():
    chains = set()
    for name in API_USERS:
        chains |= api_chains((PERFBENCH / name).read_text())
    assert ("experiments", "PAPER_LAMBDA") in chains
    assert ("linsolve", "LinearSolverHandle") in chains
    missing = []
    for module_name, *attrs in sorted(chains):
        obj = importlib.import_module(f"adisplit.{module_name}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(".".join([module_name, *attrs]))
                break
            obj = getattr(obj, attr)
    assert missing == []
