"""Command-line interface.

Exit codes: 0 when every check passes, 1 when a verification cell fails,
2 on input errors (bad files, bad polynomial syntax, violated
hypotheses).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .congruence import constant_table, sweep
from .operators import operator_from_dict, operator_to_dict, profile
from .poly import parse_polynomial, poly_to_text
from .ratfunc import RationalFunction
from .reduction import gamma_candidates, is_partible, reduce
from .sequences import guess_annihilator


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_operator(path: str):
    return operator_from_dict(_load_json(path))


def _value_text(c) -> str:
    if isinstance(c, RationalFunction):
        return str(c)
    return str(Fraction(c))


def cmd_profile(args) -> int:
    prof = profile(_load_operator(args.operator))
    data = {
        "d": prof.d,
        "b_polys": [poly_to_text(b) for b in prof.b_polys],
        "indicator": poly_to_text(prof.indicator, var="s"),
        "roots": sorted(prof.roots),
        "nondegenerate": prof.nondegenerate,
    }
    print(json.dumps(data))
    return 0


def cmd_gamma(args) -> int:
    L = _load_operator(args.operator)
    candidates = gamma_candidates(L)
    cert = is_partible(L)
    data = {
        "gamma": _value_text(candidates[0]) if candidates else None,
        "candidates": [_value_text(c) for c in candidates],
        "partible": cert is not None,
        "order": L.order,
    }
    if cert is not None:
        data["d"] = cert.d
    print(json.dumps(data))
    return 0


def cmd_reduce(args) -> int:
    L = _load_operator(args.operator)
    Q = parse_polynomial(args.poly, L.field)
    result = reduce(Q, L)
    data = {
        "x": poly_to_text(result.x),
        "exceptional": {str(s): _value_text(c) for s, c in sorted(result.exceptional.items())},
        "remainder": poly_to_text(result.remainder),
    }
    print(json.dumps(data))
    return 0


def cmd_constants(args) -> int:
    table = constant_table(args.family, args.r_max, z=args.z)
    support = sorted(table.denominator_support)
    if args.json:
        data = {
            "family": args.family,
            "entries": [
                {"r": r, "c": _value_text(c)} for r, c in sorted(table.entries.items())
            ],
            "denominator_support": support,
            "z_in_denominator": table.z_in_denominator,
        }
        print(json.dumps(data))
    else:
        print(f"family: {args.family}")
        for r, c in sorted(table.entries.items()):
            print(f"  r={r:<3d} c_r = {_value_text(c)}")
        z_note = " and z" if table.z_in_denominator else ""
        print(f"denominator primes: {support or 'none'}{z_note}")
    return 0


def cmd_verify(args) -> int:
    reports = sweep(args.family, args.r_max, args.p_max, z_values=args.z,
                    power_parity=args.parity)
    for report in reports:
        print(json.dumps(report.to_dict()))
    failed = [rep for rep in reports if not rep.passed]
    if not args.json:
        print(f"# family={args.family} cells={len(reports)} "
              f"passed={len(reports) - len(failed)} failed={len(failed)}")
        for rep in failed:
            where = f"r={rep.r} p={rep.p}" + (f" z={rep.z}" if rep.z is not None else "")
            print(f"# FAIL {where}: lhs={rep.lhs} rhs={rep.rhs} {rep.error or ''}")
    return 1 if failed else 0


def _term(i: int, t) -> int:
    """A term file item: a JSON integer (not a bool) or a string of one."""
    if isinstance(t, int) and not isinstance(t, bool):
        return t
    if isinstance(t, str):
        try:
            return int(t)
        except ValueError as exc:
            raise ValueError(f"term {i}: {exc}") from None
    raise ValueError(f"term {i} is {json.dumps(t)[:40]}, not an integer or an integer string")


def cmd_guess(args) -> int:
    raw = _load_json(args.terms)
    if not isinstance(raw, list):
        raise ValueError("term file must hold a JSON array of integer strings")
    terms = [_term(i, t) for i, t in enumerate(raw)]
    L = guess_annihilator(terms, args.order, args.deg)
    if L is None:
        print("none")
    else:
        print(json.dumps(operator_to_dict(L)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main()."""
    parser = argparse.ArgumentParser(
        prog="partible",
        description="Polynomial reduction for holonomic sequences and the "
                    "congruences it produces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="degree profile of an operator")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("gamma", help="symmetry center and partibility")
    p.add_argument("--operator", required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("reduce", help="reduce a polynomial modulo the difference space")
    p.add_argument("--operator", required=True)
    p.add_argument("--poly", required=True, help="polynomial in k (and z over Q(z))")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("constants", help="table of congruence constants c_r")
    p.add_argument("--family", required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="sweep congruence checks over primes")
    p.add_argument("--family", required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--z", type=int, nargs="*", default=None)
    p.add_argument("--parity", choices=("odd", "even"), default=None,
                   help="check (2k+1)^(2r+1) or (2k+1)^(2r+2); default even for "
                        "delannoy_number, odd otherwise")
    p.add_argument("--json", action="store_true",
                   help="emit only the JSON report lines, no summary")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("guess", help="fit a recurrence operator to terms")
    p.add_argument("--terms", required=True, help="JSON array of integer strings")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.set_defaults(func=cmd_guess)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
