"""In-memory span recorder around the public adisplit functions.

``SpanRecorder.installed()`` replaces each traced function with a wrapper
at every place it is looked up: module functions in every ``adisplit``
module that holds them (``experiments`` imports ``prolong_to`` by name, so
patching ``grid`` alone would miss those calls), methods on their class.
A span records its name, parent, thread, phase and start/end times; self
time is the duration minus the time of its direct children.  Spans stay in
memory until ``layer_metrics`` aggregates them.  Leaving the context
restores the originals.  A name the program no longer defines is skipped,
so its metrics are missing rather than the run failing.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "thread", "phase", "start", "end",
                 "child_s", "info")

    def __init__(self, name, parent, thread, phase, start):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.phase = phase
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# -- per-call extras, computed from arguments and results ---------------------

def _operator_bytes(rec, args, kwargs, result):
    # one field read and one written; computed from array sizes
    return {"bytes": 2 * result.values.nbytes}


def _resolvent(axis):
    def info(rec, args, kwargs, result):
        op, kappa = args[0], args[1]
        key = (id(op), axis, kappa)
        with rec._lock:
            cold = key not in rec._factor_keys
            if cold:
                rec._factor_keys.add(key)
                rec._keep_alive.append(op)  # ids stay unique while tracing
            rec._kappas.add(kappa)
        return {"bytes": 2 * result.values.nbytes, "cold": cold}
    return info


def _field_bytes(operands):
    def info(rec, args, kwargs, result):
        return {"bytes": operands * result.values.nbytes}
    return info


def _file_bytes(rec, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _power_iteration(rec, args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _rows(rec, args, kwargs, result):
    return {"row_times": [r.wall_time for r in result.rows],
            "reference_s": result.reference_wall_time}


# (module, attribute, span name, extras)
TARGETS = [
    ("adisplit.operators", "assemble_split_operator", "operators.assemble_split_operator", None),
    ("adisplit.operators", "SplitDiffusionOperator.apply_a", "operators.apply_a", _operator_bytes),
    ("adisplit.operators", "SplitDiffusionOperator.apply_b", "operators.apply_b", _operator_bytes),
    ("adisplit.operators", "SplitDiffusionOperator.apply_l", "operators.apply_l", _operator_bytes),
    ("adisplit.operators", "SplitDiffusionOperator.solve_resolvent_a",
     "operators.solve_resolvent_a", _resolvent("a")),
    ("adisplit.operators", "SplitDiffusionOperator.solve_resolvent_b",
     "operators.solve_resolvent_b", _resolvent("b")),
    ("adisplit.steppers", "evolve", "steppers.evolve", None),
    ("adisplit.steppers", "pr_step", "steppers.pr_step", None),
    ("adisplit.steppers", "dr_step", "steppers.dr_step", None),
    ("adisplit.steppers", "cn_step", "steppers.cn_step", None),
    ("adisplit.linsolve", "conjugate_gradient", "linsolve.conjugate_gradient", None),
    ("adisplit.linsolve", "kronecker_direct_prepare", "linsolve.kronecker_direct_prepare", None),
    ("adisplit.linsolve", "solve_lh", "linsolve.solve_lh", None),
    ("adisplit.linsolve", "power_iteration", "linsolve.power_iteration", _power_iteration),
    ("adisplit.grid", "Field.__add__", "grid.field_arith", _field_bytes(3)),
    ("adisplit.grid", "Field.__sub__", "grid.field_arith", _field_bytes(3)),
    ("adisplit.grid", "Field.__mul__", "grid.field_arith", _field_bytes(2)),
    ("adisplit.grid", "Field.__rmul__", "grid.field_arith", _field_bytes(2)),
    ("adisplit.grid", "Field.__neg__", "grid.field_arith", _field_bytes(2)),
    ("adisplit.grid", "write_field", "grid.write_field", _file_bytes),
    ("adisplit.grid", "read_field", "grid.read_field", _file_bytes),
    ("adisplit.grid", "prolong_to", "grid.prolong_to", None),
    ("adisplit.experiments", "prepare_initial_data", "experiments.prepare_initial_data", None),
    ("adisplit.experiments", "compute_reference", "experiments.compute_reference", None),
    ("adisplit.experiments", "run_convergence", "experiments.run_convergence", _rows),
]


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.names = set()          # span names that were installed
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._factor_keys = set()
        self._kappas = set()
        self._keep_alive = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extras):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            span = Span(name, stack[-1] if stack else None,
                        threading.get_ident(), rec.phase, perf_counter())
            rec.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if extras is not None:
                span.info = extras(rec, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "adisplit" or key.startswith("adisplit.")]
        for module_name, attr, name, extras in TARGETS:
            module = sys.modules.get(module_name)
            cls_name, _, member = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = vars(owner).get(member) if owner is not None else None
            if original is None:
                continue
            self.names.add(name)
            wrapper = self._wrap(name, original, extras)
            if cls_name:
                self._patch(owner, member, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._keep_alive.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


# -- aggregation ----------------------------------------------------------------

# (metric, unit, better); a metric is reported when its span name was
# installed.  Counts and times are for one set-up plus one operation:
# set-up spans count once, operation spans are averaged over the operations.
PER_LAYER = [
    ("operators.apply_a.calls", "count", "lower"),
    ("operators.apply_a.self_s", "s", "lower"),
    ("operators.apply_b.calls", "count", "lower"),
    ("operators.apply_b.self_s", "s", "lower"),
    ("operators.apply_l.calls", "count", "lower"),
    ("operators.apply_l.self_s", "s", "lower"),
    ("operators.solve_resolvent_a.calls", "count", "lower"),
    ("operators.solve_resolvent_a.self_s", "s", "lower"),
    ("operators.solve_resolvent_b.calls", "count", "lower"),
    ("operators.solve_resolvent_b.self_s", "s", "lower"),
    ("operators.resolvent.cold_calls", "count", "lower"),
    ("operators.resolvent.cold_s", "s", "lower"),
    ("operators.resolvent.distinct_kappa", "count", "lower"),
    ("operators.bytes_computed", "bytes", "lower"),
    ("operators.assemble_split_operator.self_s", "s", "lower"),
    ("steppers.evolve.calls", "count", "lower"),
    ("steppers.evolve.s", "s", "lower"),
    ("steppers.pr_step.calls", "count", "lower"),
    ("steppers.pr_step.self_s", "s", "lower"),
    ("steppers.dr_step.calls", "count", "lower"),
    ("steppers.dr_step.self_s", "s", "lower"),
    ("steppers.cn_step.calls", "count", "lower"),
    ("steppers.cn_step.self_s", "s", "lower"),
    ("linsolve.conjugate_gradient.calls", "count", "lower"),
    ("linsolve.conjugate_gradient.self_s", "s", "lower"),
    ("linsolve.conjugate_gradient.s", "s", "lower"),
    ("linsolve.conjugate_gradient.matvecs", "count", "lower"),
    ("linsolve.conjugate_gradient.matvecs_per_call", "count", "lower"),
    ("linsolve.kronecker_direct_prepare.self_s", "s", "lower"),
    ("linsolve.solve_lh.calls", "count", "lower"),
    ("linsolve.solve_lh.self_s", "s", "lower"),
    ("linsolve.power_iteration.calls", "count", "lower"),
    ("linsolve.power_iteration.self_s", "s", "lower"),
    ("linsolve.power_iteration.iterations", "count", "lower"),
    ("linsolve.power_iteration.converged_ratio", "ratio", "higher"),
    ("grid.field_arith.calls", "count", "lower"),
    ("grid.field_arith.self_s", "s", "lower"),
    ("grid.field_arith.bytes_computed", "bytes", "lower"),
    ("grid.write_field.s", "s", "lower"),
    ("grid.write_field.bytes", "bytes", "lower"),
    ("grid.read_field.s", "s", "lower"),
    ("grid.read_field.bytes", "bytes", "lower"),
    ("grid.prolong_to.calls", "count", "lower"),
    ("grid.prolong_to.self_s", "s", "lower"),
    ("experiments.prepare_initial_data.s", "s", "lower"),
    ("experiments.compute_reference.s", "s", "lower"),
    ("experiments.row_s.max", "s", "lower"),
    ("experiments.row_parallelism", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_RESOLVENTS = ("operators.solve_resolvent_a", "operators.solve_resolvent_b")
_OPERATOR_CALLS = ("operators.apply_a", "operators.apply_b", "operators.apply_l") + _RESOLVENTS


def _inside(span, name) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def layer_metrics(rec: SpanRecorder, n_ops: int) -> dict:
    """Per-layer metrics of the recorded spans (see PER_LAYER)."""
    setup, ops = defaultdict(float), defaultdict(float)
    rows, rows_phase_s = [], 0.0
    converged = attempts = 0
    for span in rec.spans:
        acc = setup if span.phase == "setup" else ops
        name = span.name
        acc[name + ".calls"] += 1
        acc[name + ".self_s"] += span.self_s
        acc[name + ".s"] += span.duration
        info = span.info or {}
        if name in _OPERATOR_CALLS:
            acc["operators.bytes_computed"] += info["bytes"]
        elif name == "grid.field_arith":
            acc["grid.field_arith.bytes_computed"] += info["bytes"]
        elif name in ("grid.write_field", "grid.read_field"):
            acc[name + ".bytes"] += info["bytes"]
        elif name == "linsolve.power_iteration":
            acc[name + ".iterations"] += info["iterations"]
            converged += info["converged"]
            attempts += 1
        elif name == "experiments.run_convergence":
            rows += info["row_times"]
            rows_phase_s += span.duration - info["reference_s"]
        if name in _RESOLVENTS and info["cold"]:
            acc["operators.resolvent.cold_calls"] += 1
            acc["operators.resolvent.cold_s"] += span.self_s
        if name == "operators.apply_l" and _inside(span, "linsolve.conjugate_gradient"):
            acc["linsolve.conjugate_gradient.matvecs"] += 1
    acc = defaultdict(float, {key: setup[key] + ops[key] / n_ops
                              for key in setup.keys() | ops.keys()})

    cg_calls = acc["linsolve.conjugate_gradient.calls"]
    derived = {
        "operators.resolvent.distinct_kappa": len(rec._kappas),
        "linsolve.conjugate_gradient.matvecs_per_call":
            acc["linsolve.conjugate_gradient.matvecs"] / cg_calls if cg_calls else 0.0,
        "linsolve.power_iteration.converged_ratio":
            converged / attempts if attempts else 0.0,
        "experiments.row_s.max": max(rows, default=0.0),
        "experiments.row_parallelism": sum(rows) / rows_phase_s if rows_phase_s else 0.0,
    }
    # metrics not named after their span
    span_of = {
        "operators.resolvent.": _RESOLVENTS[0],
        "operators.bytes_computed": "operators.apply_a",
        "experiments.row_": "experiments.run_convergence",
    }
    out = {}
    for metric, _unit, _better in PER_LAYER:
        if metric.startswith("trace."):
            continue
        span_name = next((span for prefix, span in span_of.items()
                          if metric.startswith(prefix)), metric.rsplit(".", 1)[0])
        if span_name not in rec.names:
            continue
        out[metric] = derived[metric] if metric in derived else acc[metric]
    return out

