"""Command-line interface.

Exit codes: 0 when every check passes (and after `--help`), 1 when a
verification cell fails, 2 on input errors (bad files, bad polynomial
syntax, violated hypotheses, a size bound passed) and on argument errors
(no command, an unknown command, an unknown or repeated option, a flag
given a value, a stray positional, a missing required option, an option
without its value, a bad int or `--parity`), 3 on an internal error (a
process building a block of definition rows sent no values), and 141
when the reader closes stdout early.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .congruence import constant_table, sweep
from .operators import operator_from_dict, operator_to_dict, profile
from .poly import parse_polynomial, poly_to_text
from .reduction import certificate, gamma_candidates, reduce
from .sequences import RowBlockError, guess_annihilator


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_operator(path: str):
    return operator_from_dict(_load_json(path))


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
    cert = certificate(L, candidates)
    data = {
        "gamma": str(candidates[0]) if candidates else None,
        "candidates": [str(c) for c in candidates],
        "partible": cert is not None,
        "order": L.order,
    }
    if cert is not None:
        data["d"] = cert.d
    print(json.dumps(data))
    return 0


def cmd_reduce(args) -> int:
    spec = _load_json(args.operator)
    L = operator_from_dict(spec)
    # the declared field: L.field reads Q when no coefficient holds z
    Q = parse_polynomial(args.poly, spec.get("field", "Q"))
    result = reduce(Q, L)
    data = {
        "x": poly_to_text(result.x),
        "exceptional": {str(s): str(c) for s, c in sorted(result.exceptional.items())},
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
                {"r": r, "c": str(c)} for r, c in sorted(table.entries.items())
            ],
            "denominator_support": support,
            "z_in_denominator": table.z_in_denominator,
        }
        print(json.dumps(data))
    else:
        print(f"family: {args.family}")
        for r, c in sorted(table.entries.items()):
            print(f"  r={r:<3d} c_r = {c}")
        z_note = " and z" if table.z_in_denominator else ""
        print(f"denominator primes: {support or 'none'}{z_note}")
    return 0


def cmd_verify(args) -> int:
    reports = sweep(args.family, args.r_max, args.p_max, z_values=args.z, power_parity=args.parity)
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


# command -> (handler, help, options); each option maps to (kind, required, help), where kind is
# int or str (one value), bool (a flag), list (any number of ints) or a tuple of the values it admits
COMMANDS = {
    "profile": (cmd_profile, "degree profile of an operator", {
        "--operator": (str, True, "operator JSON file"),
    }),
    "gamma": (cmd_gamma, "symmetry center and partibility", {
        "--operator": (str, True, "operator JSON file"),
    }),
    "reduce": (cmd_reduce, "reduce a polynomial modulo the difference space", {
        "--operator": (str, True, "operator JSON file"),
        "--poly": (str, True, "polynomial in k (and z over Q(z))"),
    }),
    "constants": (cmd_constants, "table of congruence constants c_r", {
        "--family": (str, True, "apery, apery_signed, delannoy_number or delannoy_poly"),
        "--r-max": (int, True, "largest r of the table"),
        "--z": (int, False, "evaluate delannoy_poly at this z"),
        "--json": (bool, False, "emit one JSON object"),
    }),
    "verify": (cmd_verify, "sweep congruence checks over primes", {
        "--family": (str, True, "apery, apery_signed, delannoy_number or delannoy_poly"),
        "--r-max": (int, True, "largest r checked"),
        "--p-max": (int, True, "largest prime checked"),
        "--z": (list, False, "the z values of delannoy_poly"),
        "--parity": (("odd", "even"), False,
                     "check (2k+1)^(2r+1) or (2k+1)^(2r+2); default even for "
                     "delannoy_number, odd otherwise"),
        "--json": (bool, False, "emit only the JSON report lines, no summary"),
    }),
    "guess": (cmd_guess, "fit a recurrence operator to terms", {
        "--terms": (str, True, "JSON array of integer strings"),
        "--order": (int, True, "order of the operator"),
        "--deg": (int, True, "degree of its coefficients"),
    }),
}


class ArgumentError(Exception):
    """A command line that COMMANDS does not admit (exit 2)."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: error: {message}")


def _synopsis(option: str, kind) -> str:
    """How an option is written, as `--r-max R_MAX`."""
    if kind is bool:
        return option
    if isinstance(kind, tuple):
        return f"{option} {{{','.join(kind)}}}"
    metavar = option[2:].upper().replace("-", "_")
    return f"{option} [{metavar} ...]" if kind is list else f"{option} {metavar}"


def _help(command) -> int:
    """Print the usage of one command, or of all of them when command is None."""
    if command is None:
        lines = ["usage: partible <command> [options]", "",
                 "Polynomial reduction for holonomic sequences and the congruences it produces.",
                 "", "commands:"]
        lines += [f"  {name:<10} {text}" for name, (_, text, _) in COMMANDS.items()]
        lines += ["", "`partible <command> --help` lists the options of a command."]
    else:
        _, text, options = COMMANDS[command]
        usage = [_synopsis(option, kind) if required else f"[{_synopsis(option, kind)}]"
                 for option, (kind, required, _) in options.items()]
        lines = [f"usage: partible {command} {' '.join(usage)}", "", text, "", "options:"]
        lines += [f"  {_synopsis(option, kind):<22} {about}"
                  for option, (kind, _, about) in options.items()]
    print("\n".join(lines))
    return 0


def _value(kind, text: str):
    """One value of an option of this kind; ValueError names the fault."""
    if kind is int or kind is list:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(kind)})")
    return text


def _parse(argv):
    """(handler, args) for a command line, args holding one attribute per option of its command.

    Help (`-h` or `--help`) parses to (_help, command).  Option names are exact, each option
    is given at most once, and a one-value option takes the next token even when it starts
    with `-`; the values of `--z` run up to the next token that starts with `-` and is not
    a negative number."""
    if not argv:
        raise ArgumentError("partible", f"a command is required: {', '.join(COMMANDS)}")
    command, *rest = argv
    if command in ("-h", "--help"):
        return _help, None
    if command not in COMMANDS:
        raise ArgumentError("partible", f"unknown command {command!r} (choose from {', '.join(COMMANDS)})")
    handler, _, options = COMMANDS[command]
    where = f"partible {command}"
    values = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token in ("-h", "--help"):
            return _help, command
        option, eq, text = token.partition("=")
        if option not in options:
            raise ArgumentError(where, f"unrecognized arguments: {token}")
        if option in values:
            raise ArgumentError(where, f"argument {option}: given more than once")
        kind = options[option][0]
        if kind is bool:
            if eq:
                raise ArgumentError(where, f"argument {option}: takes no value")
            values[option] = True
            continue
        if eq:
            texts = [text]
        elif kind is list:
            texts = []
            while i < len(rest) and (rest[i][:1] != "-" or rest[i][1:].isdigit()):
                texts.append(rest[i])
                i += 1
        elif i < len(rest):
            texts = [rest[i]]
            i += 1
        else:
            raise ArgumentError(where, f"argument {option}: expected one argument")
        try:
            given = [_value(kind, text) for text in texts]
        except ValueError as exc:
            raise ArgumentError(where, f"argument {option}: {exc}") from None
        values[option] = given if kind is list else given[0]
    missing = [option for option, (_, required, _) in options.items()
               if required and option not in values]
    if missing:
        raise ArgumentError(where, f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{
        option[2:].replace("-", "_"): values.get(option, False if kind is bool else None)
        for option, (kind, _, _) in options.items()})


def main(argv=None) -> int:
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:  # no cap on the digits of int/str conversions, for this run only
        sys.set_int_max_str_digits(0)
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except ArgumentError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull, so the flush at
        # exit prints nothing, and end with the code a shell reports for a writer the pipe ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RowBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
