"""Fuzzed inputs: the polynomial parser, the operator and term JSON readers and the CLI.

Every input either gives a result or raises ValueError (the CLI's exit 2);
no other exception escapes, and no example may take longer than its
deadline.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from partible.cli import main
from partible.operators import ShiftOperator, operator_from_dict, operator_to_dict
from partible.poly import PolynomialSyntaxError, parse_polynomial, poly_to_text

FUZZ = settings(max_examples=300, deadline=2000, derandomize=True)


def _expressions(variables):
    """Well-formed polynomial text over the given variables (it may divide by zero or by k)."""
    return st.recursive(
        st.sampled_from(variables) | st.integers(0, 99).map(str),
        lambda e: st.builds("({}{}{})".format, e, st.sampled_from("+-*/"), e)
        | st.builds("-({})^{}".format, e, st.integers(0, 6)),
        max_leaves=6,
    )


# raw text over the parser's alphabet, with a non-ASCII digit and space, and well-formed
# expressions built from it
_TEXT = st.text(alphabet="kz0123456789+-*/^() ²\xa0", max_size=24) | _expressions(["k", "z"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)
_OPERATOR_JSON = st.fixed_dictionaries(
    {"order": st.integers(-2, 3) | _JSON, "coeffs": st.lists(_TEXT | _JSON, max_size=5)},
    optional={"field": st.sampled_from(["Q", "Q(z)"]) | _JSON},
)


def _operator_and_poly(field, variables):
    """An operator file's data over field, and a polynomial over it or None for `profile`."""
    expr = _expressions(variables)
    operator = st.integers(0, 3).flatmap(lambda order: st.fixed_dictionaries({
        "order": st.just(order),
        "coeffs": st.lists(expr, min_size=order + 1, max_size=order + 1),
        "field": st.just(field),
    }))
    return st.tuples(operator, st.none() | expr)


# term files: lists of JSON integers and integer strings, alone or mixed with any JSON value
_TERM = st.integers(-3, 3) | st.integers(-10 ** 6, 10 ** 6) | st.integers().map(str)
_TERM_FILES = st.lists(_TERM, min_size=6, max_size=16) | st.lists(_TERM | _JSON, max_size=16) | _JSON
_CLI_INPUTS = (_operator_and_poly("Q", ["k"]) | _operator_and_poly("Q(z)", ["k", "z"])
               | st.tuples(_OPERATOR_JSON | _JSON, st.none() | _TEXT))


@FUZZ
@given(_TEXT, st.sampled_from(["Q", "Q(z)"]))
def test_parser_roundtrips_or_raises_syntax_error(text, field):
    try:
        p = parse_polynomial(text, field)
    except PolynomialSyntaxError:
        return
    assert parse_polynomial(poly_to_text(p), field) == p


@FUZZ
@given(_OPERATOR_JSON | _JSON)
def test_operator_json_gives_an_operator_or_value_error(data):
    try:
        L = operator_from_dict(data)
    except ValueError:
        return
    assert isinstance(L, ShiftOperator)
    assert type(data["order"]) is int and L.order == data["order"]
    assert operator_from_dict(json.loads(json.dumps(operator_to_dict(L)))) == L


@FUZZ
@given(_CLI_INPUTS)
def test_cli_profile_and_reduce_exit_0_1_or_2(inputs):
    data, poly = inputs
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "op.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        argv = ["profile", "--operator", path] if poly is None else [
            "reduce", "--operator", path, f"--poly={poly}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            # any exception but the input errors main() reports escapes here, as a traceback would
            assert main(argv) in (0, 1, 2)


@FUZZ
@given(_TERM_FILES, st.integers(0, 2), st.integers(0, 2))
def test_cli_guess_exits_0_or_2(data, order, deg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "terms.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        argv = ["guess", "--terms", path, "--order", str(order), "--deg", str(deg)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2)
