"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.linalg import lapack

import fingerprint
import run
import spans
import workloads as wl
from workloads import grid, linsolve, operators, steppers

BENCHMARK = run.ROOT / "BENCHMARK.json"

# span names each workload must exercise; together they cover every target
EXPECTED = {
    "pr_m1024": {
        "operators.assemble_split_operator", "operators.apply_a", "operators.apply_b",
        "operators.solve_resolvent_a", "operators.solve_resolvent_b",
        "steppers.evolve", "steppers.pr_step", "linsolve.kronecker_direct_prepare",
        "linsolve.solve_lh", "grid.field_arith", "grid.write_field", "grid.read_field",
        "experiments.prepare_initial_data"},
    "paper_tables": {
        "experiments.compute_reference", "experiments.run_convergence",
        "grid.prolong_to", "steppers.dr_step", "steppers.pr_step"},
    "cn_m256": {"steppers.cn_step", "linsolve.conjugate_gradient", "operators.apply_l"},
    "verify": {"linsolve.power_iteration", "linsolve.conjugate_gradient",
               "operators.apply_l", "steppers.dr_step"},
}


@pytest.fixture(scope="module")
def fp():
    return fingerprint.load()


def _outcome(name, seed=5, tmp=None):
    work = wl.WORKLOADS[name]
    state = work.setup(seed, tmp)
    return state, work.run(state)


def _swapped_dr_step(op, k, u):
    """DR with the roles of A and B exchanged: a real defect."""
    w1 = u + (k * k) * op.apply_b(op.apply_a(u))
    return op.solve_resolvent_a(k, op.solve_resolvent_b(k, w1))


def _lapack_resolvent(k1d_name, coef_name, along_columns):
    """The resolvent by one LAPACK dptsv call per line: roundoff-level reordering."""

    def solve(self, kappa, rhs):
        k1d = getattr(self, k1d_name)
        gamma = kappa * getattr(self, coef_name) / self.grid.h ** 2
        lines = rhs.values.T if along_columns else rhs.values
        out = np.empty_like(lines)
        for r, g in enumerate(gamma):
            *_, out[r], info = lapack.dptsv(1.0 + g * k1d.diag, g * k1d.off, lines[r])
            assert info == 0
        return grid.Field(self.grid, np.ascontiguousarray(out.T if along_columns else out))

    return solve


class TestFingerprint:
    def test_cn_workload_matches(self, fp):
        state, outcome = _outcome("cn_m256")
        assert fingerprint.check("cn_m256", state, outcome.outputs, fp) == []

    def test_verify_workload_matches(self, fp):
        state, outcome = _outcome("verify")
        assert fingerprint.check("verify", state, outcome.outputs, fp) == []

    def test_accepts_lapack_resolvents(self, fp, monkeypatch):
        cls = operators.SplitDiffusionOperator
        monkeypatch.setattr(cls, "solve_resolvent_a", _lapack_resolvent("k_lambda", "d_mu", False))
        monkeypatch.setattr(cls, "solve_resolvent_b", _lapack_resolvent("k_mu", "d_lambda", True))
        state, outcome = _outcome("cn_m256", seed=11)
        op = state["op"]
        u = wl.mode_field(op.grid, 2, 3)
        ref = op._factors("a", 0.01).solve(u.values)
        assert 0 < np.max(np.abs(op.solve_resolvent_a(0.01, u).values - ref)) < 1e-14
        assert fingerprint.check("cn_m256", state, outcome.outputs, fp) == []

    def test_flags_trajectory_one_step_too_long(self, fp, monkeypatch):
        evolve = steppers.evolve
        monkeypatch.setattr(steppers, "evolve",
                            lambda op, scheme, k, n, u0, handle=None:
                            evolve(op, scheme, k, n + 1, u0, handle))
        state, outcome = _outcome("cn_m256")
        bad = fingerprint.check("cn_m256", state, outcome.outputs, fp)
        assert any(b.startswith("cn_norm") for b in bad)
        assert any(b.startswith("pr_norm") for b in bad)

    def test_flags_dr_with_a_and_b_swapped(self, fp, monkeypatch):
        work = wl.WORKLOADS["paper_tables"]
        configs = work.setup(0, None)
        ref = wl.experiments.compute_reference(work.reference, work.t_end, "paper")
        outputs = {k: fp["paper_tables"][k] for k in ("reference_norm", "pr_errors")}
        outputs["dr_errors"] = wl.experiments.run_convergence(
            configs[wl.DR], reference_data=ref).errors()
        assert fingerprint.check("paper_tables", None, outputs, fp) == []
        monkeypatch.setattr(steppers, "dr_step", _swapped_dr_step)
        outputs["dr_errors"] = wl.experiments.run_convergence(
            configs[wl.DR], reference_data=ref).errors()
        bad = fingerprint.check("paper_tables", None, outputs, fp)
        assert len(bad) == 1 and bad[0].startswith("dr_errors")

    def test_flags_non_finite(self, fp):
        state, outcome = _outcome("cn_m256")
        outcome.outputs["distance"] = float("nan")
        assert fingerprint.check("cn_m256", state, outcome.outputs, fp)

    def test_verify_tolerates_last_digit_only(self, fp):
        name, passed, detail = "cayley nonexpansivity", True, fp["verify"]["checks"][2]["detail"]
        checks = [(c["name"], c["passed"], c["detail"]) for c in fp["verify"]["checks"]]
        for new, ok in ((detail.replace("0.999990680935914", "0.999990680935915"), True),
                        (detail.replace("0.999990680935914", "0.999990680935934"), False)):
            checks[2] = (name, passed, new)
            assert (fingerprint.check("verify", None, {"checks": checks}, fp) == []) is ok


def _self_time_by_thread(rec):
    sums = defaultdict(float)
    for span in rec.spans:
        sums[span.thread] += span.self_s
    return sums


def _snapshot():
    out = {}
    for module_name, attr, _name, _extras in spans.TARGETS:
        module = sys.modules[module_name]
        cls_name, _, member = attr.rpartition(".")
        owner = getattr(module, cls_name) if cls_name else module
        out[(module_name, attr)] = vars(owner)[member]
    for mod in (sys.modules[m] for m in list(sys.modules) if m.startswith("adisplit")):
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    return out


class TestSpanRecorder:
    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_workload_spans(self, name, tmp_path):
        before = _snapshot()
        work = wl.WORKLOADS[name]
        rec = spans.SpanRecorder()
        t0 = time.perf_counter()
        with rec.installed():
            state = work.setup(3, tmp_path)
            rec.phase = "operation"
            work.run(state)
        wall = time.perf_counter() - t0
        after = _snapshot()
        assert all(after[key] is value for key, value in before.items())

        calls = {s.name for s in rec.spans}
        assert EXPECTED[name] <= calls
        assert all(s.self_s >= 0.0 for s in rec.spans)
        assert all(total <= wall for total in _self_time_by_thread(rec).values())
        metrics = spans.layer_metrics(rec, 1)
        assert set(metrics) == {m for m, _, _ in spans.PER_LAYER} - {"trace.overhead_frac"}

    def test_expected_covers_every_target(self):
        assert set().union(*EXPECTED.values()) == {t[2] for t in spans.TARGETS}

    def test_missing_name_is_a_missing_metric(self, monkeypatch):
        monkeypatch.delattr(linsolve, "power_iteration")
        rec = spans.SpanRecorder()
        with rec.installed():
            pass
        metrics = spans.layer_metrics(rec, 1)
        assert "linsolve.power_iteration.calls" not in metrics
        assert "linsolve.solve_lh.calls" in metrics

    def test_patches_names_imported_elsewhere(self):
        original = grid.prolong_to
        rec = spans.SpanRecorder()
        with rec.installed():
            assert wl.experiments.prolong_to is grid.prolong_to is not original
            u = wl.mode_field(grid.Grid(4), 1, 1)
            wl.experiments.measure_error(u, wl.mode_field(grid.Grid(8), 1, 1))
        assert [s.name for s in rec.spans if s.name == "grid.prolong_to"] == ["grid.prolong_to"]


class TestContract:
    def test_benchmark_json_matches_code(self):
        spec = json.loads(BENCHMARK.read_text())
        assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
            tuple(m) for m in spans.PER_LAYER]

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(BENCHMARK, tmp_path)
        shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
