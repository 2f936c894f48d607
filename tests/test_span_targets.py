"""Every name the benchmark's span recorder traces exists in the package.

``perfbench/spans.py`` skips a traced name the program no longer defines,
so a traced run would silently lack that name's per-layer metrics.  The
recorder is loaded from its source without importing the benchmark package
or writing a bytecode cache next to it.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
