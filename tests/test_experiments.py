import csv
import gc
import math
import weakref

import numpy as np
import pytest

from adisplit import experiments, linsolve, steppers
from adisplit.cli import main
from adisplit.experiments import (
    DR_ROWS,
    PR_ROWS,
    ConvergenceReport,
    ExperimentConfig,
    ReferenceSpec,
    RowResult,
    coefficient_pair,
    measure_error,
    observed_order,
    prepare_initial_data,
    run_convergence,
    steps_for,
    verify_assumptions,
)
from adisplit.grid import Field, Grid, discrete_inner_product, discrete_norm, \
    interpolate, max_norm, prolong_to, write_field
from adisplit.operators import (
    SplitDiffusionOperator,
    TridiagonalMatrix,
    assemble_split_operator,
)
from adisplit.steppers import SchemeKind

import oracle


def paper_operator(m):
    lam, mu = coefficient_pair("paper")
    return assemble_split_operator(lam, mu, Grid(m))


class TestHelpers:
    def test_coefficient_pair_paper(self):
        lam, mu = coefficient_pair("paper")
        assert lam(0.0) == pytest.approx(0.1)
        assert mu(0.0) == pytest.approx(2.1)
        assert mu(0.5) == pytest.approx(0.1)

    def test_coefficient_pair_constant(self):
        lam, mu = coefficient_pair("constant")
        assert lam(0.3) == 1.0 and mu(0.7) == 1.0

    def test_coefficient_pair_unknown(self):
        with pytest.raises(ValueError):
            coefficient_pair("quadratic")

    def test_steps_for_exact_divisors(self):
        assert steps_for(0.5, 1.0 / 16) == 8
        assert steps_for(0.5, 2.0 ** -13) == 4096
        assert steps_for(1.0, 0.125) == 8
        assert steps_for(0.5, 2.0 ** -21) == experiments.MAX_STEPS

    @pytest.mark.parametrize(
        "t_end, k",
        [(0.5, 0.3), (0.5, 0.7), (0.5, 1.1), (0.5, 0.0),
         (math.inf, 0.125), (0.5, 1e-320), (math.nan, 0.125), (0.5, math.nan),
         (0.5, 1e-300), (1.0, 2.0 ** -21), (0.5, math.inf), (0.5, float("1e400"))],
        ids=["0.3", "0.7", "1.1", "0.0", "inf_t_end", "1e-320", "nan_t_end", "nan",
             "1e-300", "above_max_steps", "inf", "1e400"])
    def test_steps_for_nondivisor(self, t_end, k):
        with pytest.raises(ValueError):
            steps_for(t_end, k)

    @pytest.mark.parametrize("k", [0.0, -0.25, math.inf, float("1e400"), math.nan])
    def test_steps_for_step_not_positive_and_finite(self, k):
        with pytest.raises(ValueError, match=f"^step size must be positive and "
                                             f"finite, got {k}$"):
            steps_for(0.5, k)

    @pytest.mark.parametrize("t_end", [0.0, -0.0, -0.5])
    def test_steps_for_nonpositive_final_time(self, t_end):
        with pytest.raises(ValueError, match=f"^final time must be positive, "
                                             f"got {t_end}$"):
            steps_for(t_end, 0.25)


class TestObservedOrder:
    def test_exact_halving(self):
        assert observed_order([4.0, 1.0]) == [2.0]
        assert observed_order([8.0, 4.0, 2.0]) == [1.0, 1.0]

    def test_published_pr_errors(self):
        orders = observed_order(experiments.PR_REFERENCE_ERRORS)
        assert all(1.5 <= p <= 2.3 for p in orders)

    def test_too_short(self):
        with pytest.raises(ValueError):
            observed_order([1.0])

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            observed_order([1.0, 0.0])


class TestInitialData:
    def test_nodal_max_is_one(self):
        u = prepare_initial_data(paper_operator(16))
        assert max_norm(u) == 1.0

    def test_matches_dense_fourfold_solve(self):
        op = paper_operator(8)
        _, _, l = oracle.dense_assemble(op)
        v = interpolate(experiments.ETA0, op.grid)
        for _ in range(4):
            v = oracle.dense_solve(l, v)
        want = v.values / np.max(np.abs(v.values))
        got = prepare_initial_data(op)
        assert np.allclose(got.values, want, atol=1e-9)

    def test_leaves_the_kronecker_cache_as_it_found_it(self, monkeypatch):
        # a factorization the four solves make goes with the call instead
        # of holding three fields for the operator's life; one the operator
        # already caches is kept and used, not rebuilt
        op = paper_operator(16)
        got = prepare_initial_data(op)
        assert op._kron_factorization is None
        v = experiments.initial_interpolant(op.grid)
        for _ in range(4):
            v = linsolve.solve_lh(op, v)
        assert got.values.tobytes() == (v.values / max_norm(v)).tobytes()
        fac = op._kron_factorization
        assert fac is not None
        monkeypatch.setattr(linsolve, "KroneckerFactorization", None)
        again = prepare_initial_data(op)
        assert op._kron_factorization is fac
        assert again.values.tobytes() == got.values.tobytes()

    def test_negligible_interpolant_rejected(self):
        # at m = 3 every interior node lies where ETA0 vanishes; the
        # interpolant holds only roundoff of about 1e-16
        with pytest.raises(ValueError, match="m=3 is negligible"):
            prepare_initial_data(paper_operator(3))

    def test_smoothing_reduces_oscillation(self):
        op = paper_operator(32)
        raw = interpolate(experiments.ETA0, op.grid)
        smooth = prepare_initial_data(op)
        # relative energy of the operator applied to the data drops sharply
        rough = lambda u: discrete_norm(op.apply_l(u)) / discrete_norm(u)
        assert rough(smooth) < 0.1 * rough(raw)


class TestMeasureError:
    def test_identical_fields(self):
        u = interpolate(experiments.ETA0, Grid(16))
        assert measure_error(u, u) == 0.0

    def test_against_finer_grid(self):
        g = lambda x, y: x * (1 - x) * y * (1 - y)
        coarse = interpolate(g, Grid(8))
        fine = interpolate(g, Grid(16))
        # bilinear interpolants of a biquadratic differ at new midpoints
        err = measure_error(coarse, fine)
        assert 0.0 < err < 0.1

    def test_scales_with_perturbation(self):
        u = interpolate(experiments.ETA0, Grid(8))
        bump = Field(u.grid, np.ones_like(u.values))
        assert measure_error(u + bump, prolong_to(u, u.grid)) == pytest.approx(
            discrete_norm(bump), rel=1e-12
        )


class TestConfigValidation:
    def test_bad_row_step(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scheme=SchemeKind.PEACEMAN_RACHFORD,
                rows=[(0.3, 8)],
                reference=ReferenceSpec(m=16, k=1.0 / 64),
            )

    def test_bad_reference_step(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scheme=SchemeKind.PEACEMAN_RACHFORD,
                rows=[(0.25, 8)],
                reference=ReferenceSpec(m=16, k=0.3),
            )

    @pytest.mark.parametrize("rows", [[], [(0.25, 8)]])
    def test_fewer_than_two_rows(self, rows):
        with pytest.raises(ValueError, match="at least two rows"):
            ExperimentConfig(
                scheme=SchemeKind.PEACEMAN_RACHFORD,
                rows=rows,
                reference=ReferenceSpec(m=16, k=1.0 / 64),
            )

    def test_row_repeating_the_reference_rejected(self):
        with pytest.raises(ValueError, match="repeats the pr reference run"):
            ExperimentConfig(
                scheme=SchemeKind.PEACEMAN_RACHFORD,
                rows=[(1.0 / 8, 8), (1.0 / 64, 16)],
                reference=ReferenceSpec(m=16, k=1.0 / 64),
            )

    @pytest.mark.parametrize("scheme, rows, reference", [
        (SchemeKind.PEACEMAN_RACHFORD, PR_ROWS, ReferenceSpec(m=256, k=2.0 ** -10)),
        (SchemeKind.DOUGLAS_RACHFORD, DR_ROWS, ReferenceSpec(m=256, k=2.0 ** -10)),
        # the reference's grid and step in another scheme still has an error
        (SchemeKind.DOUGLAS_RACHFORD, [(1.0 / 8, 8), (1.0 / 64, 16)],
         ReferenceSpec(m=16, k=1.0 / 64)),
    ])
    def test_rows_distinct_from_the_reference_accepted(self, scheme, rows, reference):
        ExperimentConfig(scheme=scheme, rows=rows, reference=reference)


def small_config(coeff="constant"):
    return ExperimentConfig(
        scheme=SchemeKind.PEACEMAN_RACHFORD,
        rows=[(1.0 / 8, 8), (1.0 / 16, 16)],
        reference=ReferenceSpec(m=32, k=1.0 / 128),
        coeff=coeff,
    )


class TestRunConvergence:
    def test_report_shape_and_monotonicity(self):
        config = ExperimentConfig(
            scheme=SchemeKind.PEACEMAN_RACHFORD,
            rows=[(1.0 / 8, 8), (1.0 / 16, 16), (1.0 / 32, 32)],
            reference=ReferenceSpec(m=64, k=1.0 / 256),
            coeff="paper",
        )
        report = run_convergence(config)
        errs = report.errors()
        assert len(errs) == 3
        assert errs[0] > errs[1] > errs[2] > 0.0
        assert report.rows[-1].order is None
        assert report.rows[0].order == pytest.approx(
            np.log2(errs[0] / errs[1]), rel=1e-12
        )

    def test_deterministic(self):
        a = run_convergence(small_config())
        b = run_convergence(small_config())
        assert a.errors() == b.errors()

    def test_shared_reference_data(self):
        config = small_config()
        ref = experiments.compute_reference(config.reference, config.t_end,
                                            config.coeff)
        a = run_convergence(config, reference_data=ref)
        b = run_convergence(config)
        assert a.errors() == b.errors()

    def test_rows_free_their_operator_before_the_error(self, monkeypatch):
        # measure_error's buffers must not add to a live row operator's
        # resolvent factors or the row's initial field
        config = small_config()
        ref = experiments.compute_reference(config.reference, config.t_end,
                                            config.coeff)
        want = run_convergence(config, reference_data=ref).errors()
        assemble, prolong = assemble_split_operator, prolong_to
        measure = measure_error
        held, measured = [], []

        def tracked_assemble(*args):
            op = assemble(*args)
            held.append(weakref.ref(op))
            return op

        def tracked_prolong(u, grid):
            v = prolong(u, grid)
            held.append(weakref.ref(v.values))
            return v

        def checked_measure(u, u_ref):
            measured.append([ref() is None for ref in held])
            return measure(u, u_ref)

        monkeypatch.setattr(experiments, "assemble_split_operator", tracked_assemble)
        monkeypatch.setattr(experiments, "prolong_to", tracked_prolong)
        monkeypatch.setattr(experiments, "measure_error", checked_measure)
        gc.disable()  # only reference counts may free them
        try:
            got = run_convergence(config, reference_data=ref).errors()
        finally:
            gc.enable()
        assert got == want
        # the first measurement's own prolongation is tracked too
        assert [len(dead) for dead in measured] == [2, 5]
        assert all(all(dead) for dead in measured)

    @pytest.mark.parametrize("m_u, m_eta", [(16, 16), (16, 32), (32, 16)])
    def test_reference_data_from_another_grid_rejected(self, monkeypatch,
                                                       m_u, m_eta):
        def no_rows(*args):
            raise AssertionError("no row may run")

        monkeypatch.setattr(steppers, "evolve", no_rows)
        config = small_config()  # reference m=32
        data = (Field(Grid(m_u), np.ones((m_u - 1, m_u - 1))),
                Field(Grid(m_eta), np.ones((m_eta - 1, m_eta - 1))))
        with pytest.raises(ValueError) as info:
            run_convergence(config, reference_data=data)
        assert str(info.value) == (
            f"reference data on grids m={m_u} (solution) and m={m_eta} "
            "(initial data) do not match the reference grid m=32")

    def test_render_and_csv(self, tmp_path):
        report = ConvergenceReport(
            scheme=SchemeKind.DOUGLAS_RACHFORD,
            reference=ReferenceSpec(m=8, k=0.125),
            t_end=0.5,
            coeff="paper",
            rows=[
                RowResult(k=0.25, h=0.25, m=4, error=4e-3, order=2.0),
                RowResult(k=0.125, h=0.125, m=8, error=1e-3, order=None),
            ],
        )
        text = report.render()
        assert "scheme=dr" in text and "4.000000e-03" in text
        path = tmp_path / "table.csv"
        report.write_csv(path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert [float(r["error"]) for r in rows] == [4e-3, 1e-3]
        assert rows[0]["order"] == "2" and rows[1]["order"] == ""


class TestVerifyAssumptions:
    def test_constant_coefficients_pass(self):
        report = verify_assumptions(m_list=[8, 16], coeff="constant")
        assert report.all_passed, report.render()
        names = [c.name for c in report.checks]
        assert "dissipativity" in names
        assert "stability norm bound" in names

    def test_render_marks_status(self):
        report = verify_assumptions(m_list=[8], coeff="constant")
        text = report.render()
        assert "[PASS]" in text and text.endswith("overall: PASS")

    def test_repeated_grids_count_once(self):
        # one sample per grid: a repeated m neither prints twice nor draws
        # a second random sample for the same grid
        once = verify_assumptions(m_list=[16, 8], coeff="constant").render()
        assert verify_assumptions(m_list=[8, 16, 8, 8],
                                  coeff="constant").render() == once
        assert once.count("m=8:") == 1

    def test_sign_flip_breaks_dissipativity(self):
        # negating the 1D stiffness makes the operator accretive, which the
        # dissipativity quadratic form detects immediately
        op = paper_operator(8)
        op.k_lambda = TridiagonalMatrix(-op.k_lambda.diag, -op.k_lambda.off)
        rng = np.random.default_rng(0)
        worst = max(
            discrete_inner_product(op.apply_a(u), u) / discrete_norm(u) ** 2
            for u in (Field(op.grid, rng.standard_normal((7, 7)))
                      for _ in range(10))
        )
        assert worst > 1e-12

    def test_cayley_check_measures_the_operator_cayley(self, monkeypatch):
        # a 1% gain in the operator's own Cayley transform must fail the
        # check; rebuilding the transform from the resolvent would miss it
        cayley_a = SplitDiffusionOperator.cayley_a

        def amplified(self, kappa, u, **kwargs):
            w = cayley_a(self, kappa, u, **kwargs).values
            w *= 1.01
            return Field(self.grid, w)

        monkeypatch.setattr(SplitDiffusionOperator, "cayley_a", amplified)
        report = verify_assumptions(m_list=[8])
        check = next(c for c in report.checks if c.name == "cayley nonexpansivity")
        assert not check.passed, check.detail


class TestCli:
    def test_run_writes_field(self, tmp_path, capsys):
        out = tmp_path / "final.txt"
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "1/16",
                     "--coeff", "constant", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "final discrete norm:" in capsys.readouterr().out

    def test_run_from_file_initial(self, tmp_path, capsys):
        path = tmp_path / "init.txt"
        u = interpolate(experiments.ETA0, Grid(8))
        write_field(path, u)
        code = main(["run", "--scheme", "dr", "--m", "8", "--k", "0.125",
                     "--t-end", "0.5", "--initial", "file", str(path)])
        assert code == 0
        norm_line = capsys.readouterr().out
        got = float(norm_line.split(":")[1].split()[0])
        op = paper_operator(8)
        want = steppers.evolve(op, SchemeKind.DOUGLAS_RACHFORD, 0.125, 4, u)
        assert got == pytest.approx(discrete_norm(want), rel=1e-12)

    def test_run_grid_mismatch(self, tmp_path, capsys):
        path = tmp_path / "init.txt"
        write_field(path, interpolate(experiments.ETA0, Grid(4)))
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "0.125",
                     "--initial", "file", str(path)])
        assert code == 2
        assert "m=4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content,message",
        [
            ("2\nnan\n", "non-finite"),
            ("3\n1\n2\n", "holds 2 values, expected 4"),
            ("x\n1\n", "invalid literal"),
            (None, "No such file"),
        ],
        ids=["nan", "too_few_values", "bad_header", "missing_path"],
    )
    def test_run_unreadable_initial_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "init.txt"
        if content is not None:
            path.write_text(content)
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "0.125",
                     "--initial", "file", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_run_bad_initial_kind(self, capsys):
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "0.125",
                     "--initial", "random"])
        assert code == 2

    @pytest.mark.parametrize("initial", [["paper", "EXTRA"], ["file"],
                                         ["file", "a.txt", "b.txt"]])
    def test_run_initial_argument_count(self, capsys, initial):
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "0.125",
                     "--initial", *initial])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --initial ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("scheme,message", [
        ("pr", "pr evolve with k=0.0625 over 8 steps produced a non-finite field"),
        ("cn", "CG right-hand side is not finite"),
    ])
    def test_run_overflowing_initial_file(self, tmp_path, capsys, scheme, message):
        # finite values whose first operator application overflows
        path = tmp_path / "huge.txt"
        write_field(path, Field(Grid(8), np.full((7, 7), 1e308)))
        code = main(["run", "--scheme", scheme, "--m", "8", "--k", "1/16",
                     "--initial", "file", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the run overflowed: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_run_fault_is_not_reported_as_overflow(self, monkeypatch):
        # only an overflow is bad input; any other error of the run is a
        # fault and keeps its traceback
        def faulty(*args):
            raise ValueError("a fault")

        monkeypatch.setattr(steppers, "evolve", faulty)
        with pytest.raises(ValueError, match="a fault"):
            main(["run", "--scheme", "cn", "--m", "8", "--k", "1/16"])

    def test_run_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "f.txt"
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "1/16",
                     "--coeff", "constant", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_run_zero_denominator(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheme", "pr", "--m", "8", "--k", "1/0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "zero denominator" in err and "Traceback" not in err

    def test_run_grid_too_coarse(self, capsys):
        code = main(["run", "--scheme", "pr", "--m", "1", "--k", "1/16"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: grid needs m >= 2 subintervals, got m=1\n")

    def test_run_step_not_dividing_t_end(self, capsys):
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "0.3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: step size 0.3 does not divide final time 0.5\n")

    @pytest.mark.parametrize("k, shown", [("0", "0.0"), ("-0.25", "-0.25"),
                                          ("inf", "inf"), ("1e400", "inf")])
    def test_run_step_not_positive_and_finite(self, k, shown, capsys):
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", k])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: step size must be positive and finite, got {shown}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("t_end", ["0", "-0.5"])
    def test_run_nonpositive_final_time(self, t_end, capsys):
        code = main(["run", "--scheme", "pr", "--m", "8", "--k", "1/4",
                     "--t-end", t_end])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: final time must be positive, got {float(t_end)}\n")

    @pytest.mark.parametrize("argv", [
        ["run", "--scheme", "pr", "--m", "8", "--k", "1/8", "--t-end", "inf"],
        ["run", "--scheme", "pr", "--m", "8", "--k", "1e-320"],
        ["convergence", "--scheme", "pr", "--row", "1/8,8", "--row", "1/16,16",
         "--ref-m", "16", "--ref-k", "1e-320"],
    ], ids=["run_t_end_inf", "run_k_tiny", "convergence_ref_k_tiny"])
    def test_step_count_not_finite(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: final time ")
        assert captured.err.endswith(" is not a finite number of steps\n")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_step_count_above_limit(self, capsys):
        code = main(["run", "--scheme", "pr", "--m", "4", "--k", "1e-300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: final time 0.5 over step size 1e-300 needs 5e+299 steps, "
            f"more than the limit of {experiments.MAX_STEPS}\n")
        assert captured.out == ""

    def test_run_negligible_initial_data(self, capsys):
        code = main(["run", "--scheme", "pr", "--m", "3", "--k", "1/4"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: the initial data's interpolant on m=3 is negligible")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_convergence_negligible_reference_data(self, monkeypatch, capsys):
        def no_reference(*args):
            raise AssertionError("the reference must not be computed")

        monkeypatch.setattr(experiments, "compute_reference", no_reference)
        code = main(["convergence", "--scheme", "pr", "--row", "1/4,2",
                     "--row", "1/8,2", "--ref-m", "3", "--ref-k", "1/16"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: the initial data's interpolant on m=3 is negligible")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_convergence_rows_and_csv(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code = main([
            "convergence", "--scheme", "pr",
            "--row", "1/8,8", "--row", "1/16,16",
            "--ref-m", "32", "--ref-k", "1/128",
            "--coeff", "constant", "--csv", str(path),
        ])
        assert code == 0
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert float(rows[0]["error"]) > float(rows[1]["error"]) > 0.0
        assert "order" in capsys.readouterr().out

    def test_convergence_requires_rows(self, capsys):
        code = main(["convergence", "--scheme", "pr",
                     "--ref-m", "16", "--ref-k", "1/64"])
        assert code == 2

    def test_convergence_paper_rows_with_row_rejected(self, monkeypatch, capsys):
        def no_reference(*args):
            raise AssertionError("the reference must not be computed")

        monkeypatch.setattr(experiments, "compute_reference", no_reference)
        code = main(["convergence", "--scheme", "dr", "--paper-rows",
                     "--row", "1/8,8", "--ref-m", "16", "--ref-k", "1/64"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --paper-rows and --row cannot be combined\n"
        assert captured.out == ""

    def test_convergence_unwritable_csv(self, tmp_path, capsys):
        path = tmp_path / "missing" / "table.csv"
        code = main(["convergence", "--scheme", "pr",
                     "--row", "1/8,8", "--row", "1/16,16",
                     "--ref-m", "32", "--ref-k", "1/128",
                     "--coeff", "constant", "--csv", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "order" in captured.out
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"

    def test_convergence_single_row_rejected_before_the_reference(
            self, monkeypatch, capsys):
        def no_reference(*args):
            raise AssertionError("the reference must not be computed")

        monkeypatch.setattr(experiments, "compute_reference", no_reference)
        code = main(["convergence", "--scheme", "pr", "--row", "1/8,8",
                     "--ref-m", "16", "--ref-k", "1/64"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: a convergence study needs at least two "
                                "rows to estimate an order, got 1\n")
        assert captured.out == ""

    def test_convergence_row_repeating_the_reference_rejected_before_it(
            self, monkeypatch, capsys):
        def no_reference(*args):
            raise AssertionError("the reference must not be computed")

        monkeypatch.setattr(experiments, "compute_reference", no_reference)
        code = main(["convergence", "--scheme", "pr", "--row", "1/64,16",
                     "--row", "1/128,32", "--ref-m", "32", "--ref-k", "1/128"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: row k=0.0078125, m=32 repeats the pr "
                                "reference run, so its error is exactly 0 and "
                                "gives no order\n")
        assert captured.out == ""

    def test_convergence_row_grid_too_coarse(self, capsys):
        code = main(["convergence", "--scheme", "pr", "--row", "1/8,1",
                     "--ref-m", "16", "--ref-k", "1/64"])
        assert code == 2
        assert "m=1" in capsys.readouterr().err

    def test_verify_grid_too_coarse(self, capsys):
        code = main(["verify", "--m", "8", "--m", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grid needs m >= 2 subintervals, got m=1\n"
        assert captured.out == ""

    def test_verify_exit_zero(self, capsys):
        code = main(["verify", "--m", "8", "--coeff", "constant"])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
