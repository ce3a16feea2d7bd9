"""Polynomials over Q and Q(z): arithmetic, shifts, centered expansions, text."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partible.poly import (
    NEG_INF,
    Polynomial,
    PolynomialSyntaxError,
    parity_support,
    parse_polynomial,
    poly_to_text,
)
from partible.ratfunc import (
    RationalFunction, Z, _add, _exquo, _gcd, _mul, _neg, _scale, _trim, cancel_common,
    clear_denominators, format_coeffs,
)

K = Polynomial.variable()


def test_construction_strips_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0, 0)).is_zero
    assert Polynomial().degree == NEG_INF
    assert (K ** 2).degree == 2


def test_poly_shift_examples():
    assert (K ** 2).shift(1) == K ** 2 + 2 * K + 1
    p = 3 * K ** 4 - K + Fraction(1, 2)
    assert p.shift(0) == p
    # expand both sides independently
    assert ((K + 1) ** 3).shift(-2) == (K - 1) ** 3
    assert (K - 1) ** 3 == K ** 3 - 3 * K ** 2 + 3 * K - 1


def test_poly_shift_roundtrip():
    rng = random.Random(101)
    for _ in range(50):
        p = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        c = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        assert p.shift(c).shift(-c) == p


def _naive_subst(p, a, b):
    lin = a * K + b
    return sum(((c * lin ** i) for i, c in enumerate(p.coeffs)), Polynomial())


def test_subst_linear_matches_naive_expansion():
    rng = random.Random(7)
    for _ in range(40):
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                        for _ in range(rng.randint(0, 12))])
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for a in (1, -1, Fraction(-2, 3)):
            assert p.subst_linear(a, b) == _naive_subst(p, a, b)
    # over Q(z): a rational-function shift and mixed coefficient types
    p = Polynomial([Fraction(1, 3), Z, 0, 2 * Z - 1, Fraction(-5, 2)])
    b = (Z + 1) / (Z - 2)
    for a in (1, -1):
        assert p.subst_linear(a, b) == _naive_subst(p, a, b)
        assert p.subst_linear(a, Fraction(3, 4)) == _naive_subst(p, a, Fraction(3, 4))
    assert Polynomial().subst_linear(-1, b).is_zero


def test_poly_eval():
    assert (2 * K + 1).eval(3) == 7
    assert Polynomial().eval(Fraction(123)) == 0
    assert ((K + 1) ** 3 - K ** 3).eval(4) == 61
    assert 125 - 64 == 61


def test_eval_commutes_with_arithmetic_over_qz():
    rng = random.Random(55)
    for _ in range(25):
        a = RationalFunction([rng.randint(-5, 5) for _ in range(3)],
                             [rng.randint(-5, 5) for _ in range(2)] + [1])
        b = RationalFunction([rng.randint(-5, 5) for _ in range(3)],
                             [rng.randint(-5, 5) for _ in range(2)] + [1])
        z0 = Fraction(rng.randint(2, 40))
        try:
            va, vb = a.evaluate(z0), b.evaluate(z0)
        except ZeroDivisionError:
            continue
        assert (a + b).evaluate(z0) == va + vb
        assert (a * b).evaluate(z0) == va * vb
        if vb and b:
            assert (a / b).evaluate(z0) == va / vb


_POLY_COEFFS = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6)


@settings(max_examples=100, derandomize=True)
@given(_POLY_COEFFS, _POLY_COEFFS, st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_polynomial_fast_path_matches_normalising_constructor(a, b, c):
    # sums, differences and products of polynomials in z skip the gcd; the
    # constructor, fed the naive coefficient lists, must give the same fields
    ra, rb = RationalFunction(a), RationalFunction(b)
    pairs = list(itertools.zip_longest(a, b, fillvalue=0))
    product = [sum(a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b))
               for n in range(len(a) + len(b) - 1)]
    cases = [
        (ra + rb, [x + y for x, y in pairs]),
        (ra - rb, [x - y for x, y in pairs]),
        (ra * rb, product),
        (-ra, [-x for x in a]),
        (ra + c, [a[0] + c if a else c] + a[1:]),
        (c * ra, [c * x for x in a]),
    ]
    for fast, coeffs in cases:
        full = RationalFunction(coeffs)
        assert (fast.num, fast.den) == (full.num, full.den)
        assert all(type(x) is int for x in fast.num + fast.den)
        _assert_lowest_terms(fast, coeffs, (1,))


# -- the field-Euclid oracle: Q(z) as monic-denominator Fraction tuples ----------


def _field_divmod(a, b):
    """Quotient and remainder of Fraction tuples over Q[z]."""
    rem = [Fraction(c) for c in a]
    db = len(b) - 1
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] / b[-1]
        if c:
            quo[i - db] = c
            for j, bc in enumerate(b):
                rem[i - db + j] -= c * bc
    return _trim(quo), _trim(rem[:db])


def _field_gcd(a, b):
    """Monic greatest common divisor over Q[z]; () when both are zero."""
    while b:
        a, b = b, _field_divmod(a, b)[1]
    return _scale(a, Fraction(1) / a[-1]) if a else ()


def _lowest_terms(num, den):
    """num/den normalised as the constructor did before Q(z) was held over Z[z]:
    divide by the monic gcd, then make the denominator monic."""
    if not _trim(num):
        return (), (Fraction(1),)
    g = _field_gcd(num, den)
    num, den = _field_divmod(num, g)[0], _field_divmod(den, g)[0]
    return _scale(num, 1 / den[-1]), _scale(den, 1 / den[-1])


def _lowest_terms_text(num, den):
    """The text RationalFunction printed for the monic pair (num, den)."""
    if len(den) == 1:
        return format_coeffs(num)
    return f"({format_coeffs(num)})/({format_coeffs(den)})"


def _assert_lowest_terms(got, num, den):
    """got equals num/den in the oracle's normal form, by value and by text, and
    holds the normal form over Z[z]: trimmed int tuples, coprime in Z[z], den[-1] > 0."""
    want = _lowest_terms(num, den)
    assert (tuple(Fraction(c, got.den[-1]) for c in got.num),
            tuple(Fraction(c, got.den[-1]) for c in got.den)) == want
    assert str(got) == _lowest_terms_text(*want)
    assert all(type(v) is int for v in got.num + got.den)
    assert got.den[-1] > 0 and (not got.num or got.num[-1])
    assert _gcd(got.num, got.den) == (1,) if got.num else got.den == (1,)


_Z_POLY = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=4)
_Z_DEN = _Z_POLY.filter(any)


@st.composite
def _rational_function_pairs(draw):
    """Two elements x, y of Q(z) built so that each cancellation happens: both
    denominators may share a factor, y's numerator may carry x's denominator,
    and y may be s - x, so that x + y = s has the smaller denominator of s."""
    common = draw(_Z_DEN)

    def one():
        num, den, f = draw(_Z_POLY), draw(_Z_DEN), draw(_Z_DEN)
        if draw(st.booleans()):
            num, den = _mul(num, f), _mul(den, f)
        return RationalFunction(num, _mul(den, common) if draw(st.booleans()) else den)

    x, y = one(), one()
    kind = draw(st.sampled_from(["plain", "cross", "difference"]))
    if kind == "cross":
        y = RationalFunction(_mul(y.num, x.den), y.den)
    elif kind == "difference":
        s = one()
        y = RationalFunction(_add(_mul(s.num, x.den), _neg(_mul(x.num, s.den))), _mul(s.den, x.den))
    return x, y


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rational_function_pairs())
def test_henrici_arithmetic_matches_the_normalising_constructor(pair):
    x, y = pair
    a, b, c, d = x.num, x.den, y.num, y.den
    cases = [(x + y, _add(_mul(a, d), _mul(c, b)), _mul(b, d)),
             (x - y, _add(_mul(a, d), _neg(_mul(c, b))), _mul(b, d)),
             (x * y, _mul(a, c), _mul(b, d))]
    if y:
        cases.append((x / y, _mul(a, d), _mul(b, c)))
    for got, num, den in cases:
        full = RationalFunction(num, den)
        assert (got.num, got.den) == (full.num, full.den)
        _assert_lowest_terms(got, num, den)


def test_expand_in_center_examples():
    # the coefficients c_i of p(k) = sum c_i (k - gamma)^i are those of p(k + gamma)
    half = Fraction(-1, 2)
    assert (K ** 2 + K).shift(half).coeffs == (Fraction(-1, 4), 0, 1)
    p = 3 * K ** 3 - K + 7
    assert p.shift(0).coeffs == p.coeffs
    assert (-8 * (2 * K + 1) ** 3).shift(half).coeffs == (0, 0, 0, -64)


def test_expand_in_center_roundtrip_to_degree_25():
    rng = random.Random(2025)
    for _ in range(40):
        deg = rng.randint(0, 25)
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(deg + 1)])
        gamma = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        assert p.shift(gamma).shift(-gamma) == p


def test_parity_support():
    assert parity_support([0, 5, 0, 7]) == "odd"
    assert parity_support([0, 0, 0, 0]) == "zero"
    assert parity_support([1, 1]) == "mixed"
    assert parity_support([2, 0, 1]) == "even"
    assert parity_support([]) == "zero"


_ZPOLY = st.lists(st.integers(-6, 6), max_size=4).map(_trim)


@st.composite
def _zpoly_pairs(draw):
    """Two polynomials in Z[z] that may share a factor and an integer content, with
    either sign of leading coefficient; zero and constant operands included."""
    shared, a, b = draw(_ZPOLY), draw(_ZPOLY), draw(_ZPOLY)
    if draw(st.booleans()):
        a, b = _mul(a, shared), _mul(b, shared)
    return (_scale(a, draw(st.sampled_from([1, -1, 2, -6, 12]))),
            _scale(b, draw(st.sampled_from([1, -1, 3, -4, 6]))))


def _content(a):
    return math.gcd(*a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_zpoly_pairs())
def test_integer_gcd_and_exact_division_match_field_euclid(pair):
    a, b = pair
    if b:
        assert _exquo(_mul(a, b), b) == a
    g = _gcd(a, b)
    assert g == _gcd(b, a)
    if not (a or b):
        assert g == ()
        return
    # g is the field gcd, with the gcd of the contents and a positive leading coefficient
    assert g[-1] > 0 and _content(g) == math.gcd(_content(a), _content(b))
    assert _scale(g, Fraction(1, g[-1])) == _field_gcd(a, b)
    qa, qb = _exquo(a, g), _exquo(b, g)
    assert _mul(qa, g) == a and _mul(qb, g) == b
    if a and b:
        assert _gcd(qa, qb) == (1,)
        # cancel_common: the same quotients, signed so that the first leads positively
        x, y = cancel_common(RationalFunction(a), RationalFunction(b))
        sign = 1 if a[-1] > 0 else -1
        assert (x.num, y.num) == (_scale(qa, sign), _scale(qb, sign)) and x.den == y.den == (1,)
    # clear_denominators: values = nums / D, D the least common multiple in Z[z] of the
    # denominators, with a positive leading coefficient
    dens = [d for d in (a, b) if d]
    values = [RationalFunction(_add(d, (1,)), d) for d in dens] + [Fraction(3, 4), 5]
    nums, D = clear_denominators(values)
    assert [n * (1 / D) for n in nums] == values
    assert all(n.den == (1,) for n in nums) and D.den == (1,) and D.num[-1] > 0
    quotients = [_exquo(D.num, v.den) for v in map(RationalFunction._coerce, values)]
    assert all(_mul(q, v.den) == D.num for q, v in zip(quotients, map(RationalFunction._coerce, values)))
    assert functools.reduce(_gcd, quotients) == (1,)


def test_parse_basic_forms():
    assert parse_polynomial("(k+2)^3") == (K + 2) ** 3
    got = parse_polynomial("-(2*k+3)*(2*z+1)", "Q(z)")
    expected = -(2 * K + 3) * Polynomial.constant(2 * Z + 1)
    assert got == expected
    assert parse_polynomial("k^2 - 1/2*k + 3/4") == K ** 2 - Fraction(1, 2) * K + Fraction(3, 4)
    assert parse_polynomial("0") == Polynomial()
    assert parse_polynomial(" 17 ") == Polynomial.constant(17)


def test_parse_errors_carry_column():
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial("k + q")
    assert info.value.column == 5
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("(k+1")
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("z + 1")  # z not available over Q
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("k/ (k+1)")
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1/0")
    # a number is a run of decimal digits: a superscript digit is an unexpected character
    for text, column in (("k^²", 3), ("3²*k", 2), ("²", 1)):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_polynomial(text)
        assert info.value.column == column


@pytest.mark.parametrize("text, field, message, column", [
    ("1/0", "Q", "division by zero", 3),  # just after the '/'
    ("k /  0", "Q", "division by zero", 4),
    ("3*k + 2/(z - z)", "Q(z)", "division by zero", 9),
    ("k/ (k+1)", "Q", "division by a non-constant polynomial", 3),
    ("z + 1", "Q", "variable 'z' is not available over Q", 1),
    ("k + (k+1", "Q", "expected ')'", 9),
    ("k +", "Q", "unexpected end of input", 4),
    ("k + 1 /", "Q", "unexpected end of input", 8),
    ("k^", "Q", "missing exponent", 3),
    ("k^-1", "Q", "expected an integer", 3),
    ("(k+1))", "Q", "unexpected ')'", 6),
    ("k  k", "Q", "unexpected 'k'", 4),
    ("k^1001", "Q", "exponent or power degree above 1000", 3),
    ("(2^1000)^1000", "Q", "power with numbers above 1000000 bits", 10),
    ("(2^900*k+1)^999", "Q", "power above 10000000 bits in all", 13),
    ("(z^999)^2", "Q(z)", "exponent or power degree above 1000", 9),
    ("(2^1000*z)^1000", "Q(z)", "power with numbers above 1000000 bits", 12),
    ("(k+z)^1000", "Q(z)", "power above 10000000 bits in all", 7),
    ("k + " + "(" * 101 + "k" + ")" * 101, "Q", "parentheses nested deeper than 100", 105),
])
def test_every_parse_error_names_its_column(text, field, message, column):
    # columns are found only when an error is raised, by a rescan of the text
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text, field)
    assert str(info.value) == f"{message} (column {column})" and info.value.column == column


def test_numbers_past_the_int_digit_limit_are_syntax_errors(int_digit_limit):
    for text, column in (("1" * 4301, 1), ("k^" + "1" * 4301, 3)):
        with pytest.raises(PolynomialSyntaxError, match="4300") as info:
            parse_polynomial(text)
        assert info.value.column == column


def test_exponent_limit():
    assert parse_polynomial("k^1000") == K ** 1000
    assert parse_polynomial("(k^2)^500").degree == 1000
    for text, column in (("k^1001", 3), ("k ^ 100000000", 5), ("2*(k^2)^501", 9),
                         ("(k^999)^999", 9)):
        with pytest.raises(PolynomialSyntaxError, match="above 1000") as info:
            parse_polynomial(text)
        assert info.value.column == column
    with pytest.raises(PolynomialSyntaxError, match="above 1000") as info:
        parse_polynomial("(z^999)^2", "Q(z)")  # the degree in z counts too
    assert info.value.column == 9
    assert parse_polynomial("(9^999)^300") == Polynomial.constant(9 ** 299700)


def test_power_size_limit():
    # degree and per-number bits both within bounds, but too many big numbers in all
    for text, field, column in (("(2^900*k+1)^999", "Q", 13), ("(k+z)^1000", "Q(z)", 7),
                                ("(z*k+1)^1000", "Q(z)", 9)):
        with pytest.raises(PolynomialSyntaxError, match="bits in all") as info:
            parse_polynomial(text, field)
        assert info.value.column == column
    assert parse_polynomial("(k+1)^1000").coefficient(500) == math.comb(1000, 500)


def test_rational_function_powers_match_repeated_products():
    rng = random.Random(77)
    for _ in range(30):
        a = RationalFunction([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))],
                             [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))] + [1])
        product = RationalFunction((1,))
        for n in range(5):
            assert (a ** n).num == product.num and (a ** n).den == product.den
            product = product * a


def test_text_roundtrip():
    rng = random.Random(31)
    for _ in range(60):
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(rng.randint(0, 7))])
        assert parse_polynomial(poly_to_text(p)) == p
    # Q(z) coefficients
    p = Polynomial([2 * Z + 1, RationalFunction((1,), (0, 1)), Fraction(-3, 2)])
    assert parse_polynomial(poly_to_text(p), "Q(z)") == p


def test_rational_function_normalization():
    # gcd removed, denominator monic
    a = RationalFunction((0, 2), (0, 0, 4))  # 2z / 4z^2 = 1/(2z), printed (1/2)/z
    assert (a.num, a.den) == ((1,), (0, 2))
    assert _lowest_terms(a.num, a.den) == ((Fraction(1, 2),), (0, 1))
    assert str(a) == "(1/2)/(z)" == _lowest_terms_text(*_lowest_terms(a.num, a.den))
    assert RationalFunction((Fraction(1, 2), 1), (-3,)).num == (-1, -2)  # (1/2 + z)/(-3)
    assert RationalFunction((Fraction(1, 2), 1), (-3,)).den == (6,)
    assert a * Z == Fraction(1, 2)
    assert (Z - Z).num == ()
    with pytest.raises(ZeroDivisionError):
        RationalFunction((1,), ())
    assert Fraction(1, 2) + Z == (2 * Z + 1) / 2


def _schoolbook(a, b):
    """The product as the kernel's loop forms it, with no branch for a factor of one entry."""
    if not a or not b:
        return ()
    out = [a[-1] * 0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


@pytest.mark.parametrize("long", [(3, 0, -2, 5), (Fraction(1, 2), Fraction(0), Fraction(-3, 4)),
                                  (Z + 1, RationalFunction(), 2 * Z, Z ** 2 / (Z - 1))],
                         ids=["int", "Fraction", "RationalFunction"])
def test_mul_by_one_entry_matches_the_schoolbook_product(long):
    for one in [(7,), (-1,), (Fraction(2, 3),), (Z - 2,), ((Z + 1) / (Z - 3),)]:
        for a, b in ((long, one), (one, long)):
            got, want = _mul(a, b), _schoolbook(a, b)
            assert got == want and list(map(type, got)) == list(map(type, want)), (a, b)
    for other in (long, (5,)):
        assert _mul(other, ()) == _mul((), other) == ()


# -- int coefficients against the all-Fraction kernel ---------------------------


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@st.composite
def _expressions(draw, over_qz, depth=4):
    """Parser text, with the polynomial it denotes built beside it by Polynomial arithmetic:
    sums, products, negations, powers and divisions by constants."""
    small = st.integers(-9, 9)
    kind = draw(st.sampled_from(["atom", "+", "-", "*", "/", "^", "neg"])) if depth else "atom"
    if kind == "atom":
        linear = st.tuples(small, small).map(lambda t: (f"({t[0]}*k + {t[1]})", t[0] * K + t[1]))
        variables = [("k", K), ("z", Polynomial.constant(Z))][:1 + over_qz]
        return draw(st.one_of(st.integers(0, 40).map(lambda n: (str(n), Polynomial.constant(n))),
                              st.sampled_from(variables), linear))
    text, value = draw(_expressions(over_qz, depth - 1))
    if kind == "/":
        over_z = over_qz and draw(st.booleans())
        divisor = draw(st.integers(-3, 3).map(lambda b: (f"(z + {b})", Z + b)) if over_z
                       else st.integers(1, 12).map(lambda b: (str(b), b)))
        return f"{text}/{divisor[0]}", value * (Fraction(1) / divisor[1])
    if kind == "^":
        n = draw(st.integers(0, 5))
        return f"({text})^{n}", value ** n
    if kind == "neg":
        return f"-{text}", -value
    other_text, other = draw(_expressions(over_qz, depth - 1))
    return f"({text} {kind} {other_text})", _ARITHMETIC[kind](value, other)


_EXPRESSION_CASES = st.sampled_from(["Q", "Q(z)"]).flatmap(
    lambda field: st.tuples(_expressions(field == "Q(z)"), st.just(field)))
_PARSER_CASES = _EXPRESSION_CASES.map(lambda case: (case[0][0], case[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_EXPRESSION_CASES)
def test_parse_matches_polynomial_arithmetic(case):
    # the parser works on coefficient tuples, so its intermediate values bypass Polynomial; the
    # same expression built by Polynomial arithmetic must give the same stored coefficients
    (text, want), field = case
    try:
        got = parse_polynomial(text, field)
    except PolynomialSyntaxError as exc:
        assert "above" in str(exc)  # a size bound of the parser, which the arithmetic does not have
        return
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def _parsed(text, field):
    """The polynomial and its text, or the parser's error message."""
    try:
        p = parse_polynomial(text, field)
    except (PolynomialSyntaxError, ZeroDivisionError) as exc:
        return repr(exc)
    return p, str(p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_PARSER_CASES)
def test_parse_matches_the_all_fraction_kernel(case, all_fractions):
    want = _parsed(*case)
    with all_fractions():
        assert not any(type(c) is int for c in parse_polynomial("3*k + 2").coeffs)
        got = _parsed(*case)
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_PARSER_CASES)
@example(("z/z*k + (z+1)/(z+1)", "Q(z)"))
@example(("(z*k - (z - 1)*k)^2 + (z^2 - 1)/(z + 1) - z", "Q(z)"))
def test_parsed_coefficients_are_int_fraction_or_rational_function(case):
    # a RationalFunction only where the value depends on z
    result = _parsed(*case)
    for c in result[0].coeffs if isinstance(result, tuple) else ():
        assert (type(c) is int or type(c) is Fraction and c.denominator != 1
                or type(c) is RationalFunction and max(len(c.num), len(c.den)) > 1), c


def test_float_coefficients_are_rejected():
    for value in (1.5, 2.0):
        with pytest.raises(TypeError, match="unsupported coefficient type float"):
            Polynomial([value])
    with pytest.raises(TypeError):
        K + 0.5


def test_parser_division_gives_a_fraction():
    # the divisor is inverted over Fraction: 1 / 2 with two ints would be 0.5
    (c,) = parse_polynomial("1/2").coeffs
    assert type(c) is Fraction and c == Fraction(1, 2)
    assert parse_polynomial("k/4 + 6/3").coeffs == (2, Fraction(1, 4))
    assert type(parse_polynomial("6/3").coeffs[0]) is int
    (c,) = parse_polynomial("1/(z + 1)", "Q(z)").coeffs
    assert c == 1 / (Z + 1)


def test_integral_coefficients_are_stored_as_int():
    p = Polynomial([Fraction(4, 2), True, 3, Fraction(1, 3)])
    assert [type(c) for c in p.coeffs] == [int, int, int, Fraction]
    assert p.coeffs == (2, 1, 3, Fraction(1, 3))
    # equal, and equal in hash, to the all-Fraction tuple stored before
    assert hash(p) == hash((Fraction(2), Fraction(1), Fraction(3), Fraction(1, 3)))
    assert type(K.coefficient(5)) is int and K.coefficient(5) == 0
    assert [type(c) for c in (Polynomial([Fraction(1, 2)]) * 2 * K).coeffs] == [int, int]
