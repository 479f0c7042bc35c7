"""Command-line front end.

One subcommand per core capability:

  transform       apply ppt / jppt / schur / pinv / hat to a matrix file
  check-monotone  order-preservation report for a Hermitian pair
  solve           mixed block linear system, all solutions plus residuals
  verify          seeded property suites with reproduction seeds

Matrix files are JSON objects with keys field ("real" | "complex"),
n1, n2, entries (row-major; complex entries as [re, im] pairs).
Reports are JSON lines; --human switches to aligned text.  Exit codes:
0 success, 1 check failure, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .blockmat import BlockMatrix
from .errors import InvalidInputError, NoSolutionError, PreconditionError
from .linalg import pinv
from .matrixio import load_matrix, matrix_to_json, vector_from_json
from .monotone import ppt_monotonicity_report
from .saddle import solve_saddle
from .suites import SUITE_NAMES, run_suite
from .tolerances import ToleranceConfig
from .transforms import gppt, hat_embedding, jppt, schur_complement

__all__ = ["main"]


def _add_tol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rank-tol", type=float, default=1e-10,
                        help="relative cutoff below which singular values and eigenvalues "
                             "count as zero (default 1e-10)")
    parser.add_argument("--psd-tol", type=float, default=1e-8,
                        help="slack of the semidefinite order (default 1e-8)")
    parser.add_argument("--eq-tol", type=float, default=1e-8,
                        help="scaled equality tolerance (default 1e-8)")
    parser.add_argument("--human", action="store_true",
                        help="aligned text output instead of JSON lines")


def _tolerances(args: argparse.Namespace) -> ToleranceConfig:
    return ToleranceConfig(
        rank_rel_tol=args.rank_tol, psd_tol=args.psd_tol, eq_tol=args.eq_tol
    )


class _Reporter:
    """Line-oriented report writer; JSON per line, or aligned text."""

    def __init__(self, human: bool):
        self.human = human

    def emit(self, record: dict) -> None:
        if not self.human:
            print(json.dumps(record, allow_nan=False))
            return
        parts = []
        for key, value in record.items():
            if isinstance(value, dict):
                inner = ", ".join(f"{k}={self._fmt(v)}" for k, v in value.items())
                parts.append(f"{key}: {inner}")
            else:
                parts.append(f"{key}={self._fmt(value)}")
        print("  ".join(parts))

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    def header(self, command: str, tol: ToleranceConfig) -> None:
        self.emit({
            "command": command,
            "tolerances": {
                "rank_rel_tol": tol.rank_rel_tol,
                "psd_tol": tol.psd_tol,
                "eq_tol": tol.eq_tol,
            },
        })


def _encode_scalar(z) -> object:
    if isinstance(z, complex) or np.iscomplexobj(z):
        return [float(np.real(z)), float(np.imag(z))]
    return float(z)


def _encode_vector(v: np.ndarray) -> list:
    return [_encode_scalar(z) for z in v]


def _print_matrix(bm: BlockMatrix, human: bool) -> None:
    if not human:
        print(matrix_to_json(bm))
        return
    print(f"partition ({bm.n1}, {bm.n2}), field {bm.field_tag}")
    for row in bm.data:
        if bm.field_tag == "complex":
            cells = [f"{z.real:+.6g}{z.imag:+.6g}i" for z in row]
        else:
            cells = [f"{x:+.6g}" for x in row]
        print("  " + "  ".join(f"{c:>14}" for c in cells))


def _run_transform(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.file)
    if args.which == "ppt":
        out = gppt(a, tol)
    elif args.which == "jppt":
        out = jppt(a, tol)
    elif args.which == "schur":
        out = BlockMatrix(a.n1, 0, schur_complement(a, tol))
    elif args.which == "pinv":
        out = BlockMatrix(a.n1, a.n2, pinv(a.data, tol))
    else:
        out = hat_embedding(a, tol)
    _print_matrix(out, args.human)
    return 0


def _run_check_monotone(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.first)
    b = load_matrix(args.second)
    report = ppt_monotonicity_report(a, b, tol)
    out = _Reporter(args.human)
    out.header("check-monotone", tol)
    out.emit({"check": "hypothesis", "pass": report.hypothesis_ok})
    rp = report.rank_path
    out.emit({
        "check": "statements",
        "ppt_ordered": report.ppt_ordered,
        "pinv_reversed": report.pinv_reversed,
        "rank_path_constant": rp.constant,
        "common_rank": rp.common_rank,
        "witness_t": rp.witness_t,
        "rank_path_method": rp.method,
        "schur_ordered": report.schur_ordered,
        "consistent": report.consistent,
    })
    passed = report.consistent and report.hypothesis_ok
    out.emit({"summary": "pass" if passed else "fail"})
    return 0 if passed else 1


def _run_solve(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.file)
    x1 = vector_from_json(args.x1, a.field_tag, a.n1, "x1")
    y2 = vector_from_json(args.y2, a.field_tag, a.n2, "y2")
    solution = solve_saddle(a, x1, y2, tol)
    z = np.concatenate([x1, solution.particular_x2])
    rhs = np.concatenate([solution.y1, y2])
    block_residual = float(np.linalg.norm(a.data @ z - rhs))
    out = _Reporter(args.human)
    out.header("solve", tol)
    out.emit({"check": "solution", "y1": _encode_vector(solution.y1),
              "x2_particular": _encode_vector(solution.particular_x2)})
    kernel = solution.x2_set.kernel
    out.emit({
        "check": "kernel-basis",
        "dimension": kernel.dim,
        "columns": [_encode_vector(col) for col in kernel.vectors.T],
    })
    out.emit({
        "check": "residuals",
        "block_equation": block_residual,
        "packaging": solution.packaging_residual,
    })
    out.emit({"summary": "pass"})
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    results = run_suite(args.suite, args.trials, args.seed, tol)
    out = _Reporter(args.human)
    out.header("verify", tol)
    total_failures = 0
    for result in results:
        out.emit({
            "check": "suite",
            "suite": result.name,
            "trials": result.trials,
            "failures": len(result.failures),
            "pass": result.passed,
            "seconds": result.seconds,
        })
        for failure in result.failures:
            out.emit({
                "check": "trial-failure",
                "suite": result.name,
                "trial": failure.index,
                "seed": failure.seed,
                "detail": failure.detail,
            })
        total_failures += len(result.failures)
    out.emit({"summary": "pass" if total_failures == 0 else "fail",
              "suites": len(results), "failures": total_failures})
    return 0 if total_failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockpivot",
        description="Block pivot transforms, order monotonicity checks, "
                    "saddle solving, and property verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_tr = sub.add_parser("transform", help="apply a block transform to a matrix file")
    p_tr.add_argument("file", help="path to the input matrix file")
    p_tr.add_argument("--which", required=True,
                      choices=("ppt", "jppt", "schur", "pinv", "hat"),
                      help="which transform to apply")
    _add_tol_flags(p_tr)
    p_tr.set_defaults(func=_run_transform)

    p_cm = sub.add_parser("check-monotone",
                          help="order-preservation report for a Hermitian pair")
    p_cm.add_argument("first", help="path to the smaller matrix file")
    p_cm.add_argument("second", help="path to the larger matrix file")
    _add_tol_flags(p_cm)
    p_cm.set_defaults(func=_run_check_monotone)

    p_sv = sub.add_parser("solve", help="solve the mixed block linear system")
    p_sv.add_argument("file", help="path to the matrix file")
    p_sv.add_argument("--x1", required=True, help="JSON array for the fixed first block")
    p_sv.add_argument("--y2", required=True, help="JSON array for the second-block target")
    _add_tol_flags(p_sv)
    p_sv.set_defaults(func=_run_solve)

    p_vf = sub.add_parser("verify", help="run seeded property suites")
    p_vf.add_argument("--suite", required=True, choices=SUITE_NAMES,
                      help="which suite to run")
    p_vf.add_argument("--trials", type=int, default=200,
                      help="independent trials per suite (default 200)")
    p_vf.add_argument("--seed", type=int, default=42,
                      help="master seed; per-trial seeds are derived (default 42)")
    _add_tol_flags(p_vf)
    p_vf.set_defaults(func=_run_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except NoSolutionError as exc:
        print(f"error: {exc} (certificate: {exc.certificate:.6e})", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        detail = f" (certificate: {exc.certificate:.6e})" if exc.certificate is not None else ""
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
