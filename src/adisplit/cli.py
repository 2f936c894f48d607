"""Command line interface: single runs, convergence tables, assumption checks."""

from __future__ import annotations

import argparse
import sys

from . import _kernel, experiments, steppers
from .grid import Grid, discrete_norm, read_field, write_field
from .operators import assemble_split_operator


def _parse_number(text: str) -> float:
    """Accept plain floats and a/b fractions like 1/128."""
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return float(num) / float(den)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    return float(text)


def _parse_row(text: str):
    try:
        k_text, m_text = text.split(",")
        return _parse_number(k_text), int(m_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"row must look like K,M (e.g. 1/128,16), got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adisplit",
        description="Operator-splitting time integration for 2D diffusion "
        "with quadrature finite elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate once and write the final field")
    run.add_argument("--scheme", choices=["dr", "pr", "cn"], required=True)
    run.add_argument("--m", type=int, required=True)
    run.add_argument("--k", type=_parse_number, required=True)
    run.add_argument("--t-end", type=_parse_number, default=0.5)
    run.add_argument("--coeff", choices=["paper", "constant"], default="paper")
    run.add_argument(
        "--initial",
        nargs="+",
        default=["paper"],
        metavar=("KIND", "PATH"),
        help="'paper' for the smoothed default data, or 'file PATH'",
    )
    run.add_argument("--out", default=None)

    conv = sub.add_parser("convergence", help="run a convergence study")
    conv.add_argument("--scheme", choices=["dr", "pr"], required=True)
    conv.add_argument("--paper-rows", action="store_true",
                      help="use the published (k, h) row sets")
    conv.add_argument("--row", type=_parse_row, action="append", default=[],
                      metavar="K,M")
    conv.add_argument("--ref-m", type=int, required=True)
    conv.add_argument("--ref-k", type=_parse_number, required=True)
    conv.add_argument("--ref-scheme", choices=["pr", "cn"], default="pr")
    conv.add_argument("--t-end", type=_parse_number, default=0.5)
    conv.add_argument("--coeff", choices=["paper", "constant"], default="paper")
    conv.add_argument("--csv", default=None)

    ver = sub.add_parser("verify", help="check the structural assumptions")
    ver.add_argument("--m", type=int, action="append", default=[])
    ver.add_argument("--coeff", choices=["paper", "constant"], default="paper")

    return parser


def _error(message: str, status: int = 2) -> int:
    """Report an error on one stderr line; exit status 2 for bad input."""
    print(f"error: {message}", file=sys.stderr)
    return status


def _cmd_run(args) -> int:
    kind, paths = args.initial[0], args.initial[1:]
    if kind not in ("paper", "file"):
        return _error(f"unknown --initial kind {kind!r}")
    if kind == "file" and len(paths) != 1:
        return _error(f"--initial file takes one path, got {paths}")
    if kind == "paper" and paths:
        return _error(f"--initial paper takes no further argument, got {paths}")
    try:
        grid = Grid(args.m)
        n = experiments.steps_for(args.t_end, args.k)
    except ValueError as exc:
        return _error(str(exc))
    lam, mu = experiments.coefficient_pair(args.coeff)
    op = assemble_split_operator(lam, mu, grid)

    if kind == "paper":
        try:
            u0 = experiments.prepare_initial_data(op)
        except ValueError as exc:
            return _error(str(exc))
    else:
        try:
            u0 = read_field(paths[0])
        except (ValueError, OSError) as exc:
            return _error(f"cannot read initial field: {exc}")
        if u0.grid != grid:
            return _error(f"initial field has m={u0.grid.m}, run uses m={grid.m}")

    try:
        u = steppers.evolve(op, steppers.SchemeKind(args.scheme), args.k, n, u0)
    except FloatingPointError as exc:
        # finite initial values whose arithmetic overflows
        return _error(f"the run overflowed: {exc}")
    print(f"final discrete norm: {discrete_norm(u):.17g}")
    if args.out:
        try:
            write_field(args.out, u)
        except OSError as exc:
            return _error(f"cannot write {args.out}: {exc.strerror or exc}")
        print(f"wrote {args.out}")
    return 0


def _cmd_convergence(args) -> int:
    if args.paper_rows and args.row:
        return _error("--paper-rows and --row cannot be combined")
    if args.paper_rows:
        rows = list(
            experiments.PR_ROWS
            if args.scheme == "pr"
            else experiments.DR_ROWS
        )
    else:
        rows = list(args.row)
    try:
        config = experiments.ExperimentConfig(
            scheme=steppers.SchemeKind(args.scheme),
            rows=rows,
            reference=experiments.ReferenceSpec(
                m=args.ref_m, k=args.ref_k, scheme=steppers.SchemeKind(args.ref_scheme)
            ),
            t_end=args.t_end,
            coeff=args.coeff,
        )
    except ValueError as exc:
        return _error(str(exc))
    report = experiments.run_convergence(config)
    print(report.render())
    if args.csv:
        try:
            report.write_csv(args.csv)
        except OSError as exc:
            return _error(f"cannot write {args.csv}: {exc.strerror or exc}")
        print(f"wrote {args.csv}")
    return 0


def _cmd_verify(args) -> int:
    try:
        for m in args.m:
            Grid(m)
    except ValueError as exc:
        return _error(str(exc))
    m_list = args.m or None
    report = experiments.verify_assumptions(m_list=m_list, coeff=args.coeff)
    print(report.render())
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    """Exit status 0 on success, 1 when a ``verify`` check fails, 2 on bad
    input and 3 when the compiled kernel cannot be built or loaded, which
    is found before any work."""
    args = build_parser().parse_args(argv)
    try:
        _kernel.load()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return _cmd_verify(args)
    except _kernel.KernelUnavailableError as exc:
        # a compiler's stderr may span lines; the report keeps to one
        return _error(" ".join(str(exc).split()), status=3)


if __name__ == "__main__":
    sys.exit(main())
