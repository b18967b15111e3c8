"""Command line interface: canonicalize, average, verify, expand.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error.
JSON reports are deterministic: degrees in increasing order, fixed keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .cyclo import DigitLimitError
from .dihedral import reynolds_assoc
from .expr import ExprSyntaxError, eval_assoc, parse, print_elem
from .invariants import (
    DegreeReport,
    cst_sanity,
    cuv_module_generators,
    default_max_degree,
    hilbert_assoc,
    hilbert_cuv,
    hilbert_lie,
    invariant_generators_assoc,
    lie_suite,
    module_span_check,
    subalgebra_filtration,
)

__all__ = ["main"]


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, not {text!r}") from None


def _n_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 3:
        raise argparse.ArgumentTypeError("n must be at least 3")
    return value


def _max_deg_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metabelian",
        description="Exact invariants of dihedral actions on rank-2 free "
        "metabelian algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    canon = sub.add_parser("canon", help="canonicalize an expression")
    canon.add_argument("expression", nargs="?", help="expression (or stdin)")
    canon.add_argument("--basis", choices=("uv", "xy"), default="uv")
    canon.set_defaults(func=_cmd_canon)

    reyn = sub.add_parser("reynolds", help="average an expression over the group")
    reyn.add_argument("expression", nargs="?", help="expression (or stdin)")
    reyn.add_argument("--n", type=_n_arg, required=True)
    reyn.add_argument("--basis", choices=("uv", "xy"), default="uv")
    reyn.set_defaults(func=_cmd_reynolds)

    verify = sub.add_parser("verify", help="run a degreewise verification suite")
    verify.add_argument(
        "target", choices=("assoc", "lie", "cuv-module", "cst")
    )
    verify.add_argument("--n", type=_n_arg, required=True)
    verify.add_argument("--max-deg", type=_max_deg_arg)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    hilb = sub.add_parser("hilbert", help="expand a closed-form series")
    hilb.add_argument("which", choices=("assoc", "lie", "cuv"))
    hilb.add_argument("--n", type=_n_arg, required=True)
    hilb.add_argument("--max-deg", type=_max_deg_arg)
    hilb.set_defaults(func=_cmd_hilbert)

    return parser


def _read_expression(args) -> str:
    if args.expression is not None:
        return args.expression
    return sys.stdin.read()


def _cmd_canon(args) -> int:
    elem = eval_assoc(parse(_read_expression(args)), args.basis)
    print(print_elem(elem, args.basis, written=args.basis))
    return 0


def _cmd_reynolds(args) -> int:
    elem = eval_assoc(parse(_read_expression(args)))
    print(print_elem(reynolds_assoc(args.n, elem), args.basis))
    return 0


def _report_payload(n: int, command: str, reports: list[DegreeReport]) -> dict:
    ok = all(r.ok for r in reports)
    first_bad = next((r.degree for r in reports if not r.ok), None)
    return {
        "n": n,
        "command": command,
        "degrees": [r.as_dict() for r in reports],
        "ok": ok,
        "first_failing_degree": first_bad,
    }


def _cmd_verify(args) -> int:
    n, max_deg = args.n, args.max_deg
    if args.target == "cst":
        report = cst_sanity(n)
        payload = _report_payload(n, "verify cst", [])
        payload["ok"] = report.ok
        if args.json:
            print(json.dumps(payload))
        else:
            print(
                f"degrees {report.degrees}: product {report.degree_product} "
                f"vs group order {report.group_order}; degree sum "
                f"{report.reflection_degree_sum} vs reflections "
                f"{report.reflection_count}"
            )
            print("ok" if report.ok else "FAIL")
        return 0 if report.ok else 1

    if args.target == "assoc":
        reports = subalgebra_filtration(invariant_generators_assoc(n), n, max_deg)
    elif args.target == "lie":
        reports = lie_suite(n, max_deg)
    else:
        reports = module_span_check(cuv_module_generators(n), "left", n, max_deg)
    payload = _report_payload(n, f"verify {args.target}", reports)
    if args.json:
        print(json.dumps(payload))
    else:
        for r in reports:
            print(
                f"d={r.degree} reynolds={r.dim_reynolds} series={r.dim_series} "
                f"generated={r.dim_generated} {'ok' if r.ok else 'MISMATCH'}"
            )
        print("ok" if payload["ok"] else f"FAIL at degree {payload['first_failing_degree']}")
    return 0 if payload["ok"] else 1


def _cmd_hilbert(args) -> int:
    n = args.n
    max_deg = default_max_degree(n) if args.max_deg is None else args.max_deg
    series = {"assoc": hilbert_assoc, "lie": hilbert_lie, "cuv": hilbert_cuv}[
        args.which
    ](n)
    print(json.dumps(series.coefficients(max_deg)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse takes an expression whose head is "-", such as "-u*v",
    # for an unknown option and leaves the positional unset
    if len(extra) == 1 and getattr(args, "expression", "") is None:
        args.expression = extra.pop()
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ExprSyntaxError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
