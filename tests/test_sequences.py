"""Sequence generators, built-in annihilators, recurrence guessing."""

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partible import sequences
from partible.cli import main
from partible.operators import InsufficientTerms, ShiftOperator, annihilates
from partible.poly import Polynomial
from partible.ratfunc import RationalFunction, Z
from partible.sequences import (
    UnknownFamily,
    apery_operator,
    apery_signed_terms,
    apery_terms,
    binomial_rows,
    builtin,
    delannoy_operator,
    delannoy_poly_terms,
    guess_annihilator,
)

K = Polynomial.variable()


def test_apery_terms():
    assert apery_terms(3) == [1, 5, 73]
    assert apery_terms(1) == [1]
    assert apery_terms(4)[3] == 1445
    # independent recomputation of A_3 term by term
    from math import comb
    a3 = sum(comb(3, k) ** 2 * comb(3 + k, k) ** 2 for k in range(4))
    assert a3 == 1445


def test_apery_signed_terms():
    signed = apery_signed_terms(5)
    plain = apery_terms(5)
    assert signed == [plain[0], -plain[1], plain[2], -plain[3], plain[4]]


def test_delannoy_poly_terms():
    d2 = delannoy_poly_terms(3, Z)[2]
    assert d2 == 6 * Z ** 2 + 6 * Z + 1
    assert delannoy_poly_terms(6, 0) == [1] * 6
    assert delannoy_poly_terms(3, 1)[2] == 13
    assert delannoy_poly_terms(4, 1) == [1, 3, 13, 63]


def test_ratio_generators_match_comb_definitions():
    from math import comb
    n = 151
    apery = [sum(comb(m, j) ** 2 * comb(m + j, j) ** 2 for j in range(m + 1))
             for m in range(n)]
    assert apery_terms(n) == apery
    assert apery_signed_terms(n) == [(-1) ** m * a for m, a in enumerate(apery)]
    for z in (0, 1, -7, Fraction(3, 2)):
        assert delannoy_poly_terms(n, z) == [
            sum(comb(m, i) * comb(m + i, i) * z ** i for i in range(m + 1))
            for m in range(n)
        ]
    assert delannoy_poly_terms(n, Z) == [
        RationalFunction([comb(m, i) * comb(m + i, i) for i in range(m + 1)])
        for m in range(n)
    ]


def test_binomial_rows_match_comb():
    for squared, e in ((False, 1), (True, 2)):
        for n in (0, 1, 2, 200):
            rows = list(binomial_rows(n, squared=squared))
            assert len(rows) == n
            for m, row in enumerate(rows):
                assert row == [(math.comb(m, j) * math.comb(m + j, j)) ** e
                               for j in range(m + 1)]


@pytest.mark.parametrize("squared", [False, True])
def test_a_start_row_stepped_in_j_is_the_comb_row(squared):
    # the first row of a forked child's block, at every small start and at three large ones
    for start in [*range(80), 476, 794, 1587]:
        assert next(binomial_rows(start + 1, squared, start)) == _comb_row(start, squared), start


def _fake_cpus(monkeypatch, cpus):
    """Make the affinity mask hold `cpus` CPUs; the list returned gets one entry per fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, real_fork = [], os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _comb_row(m, squared=False):
    return [(math.comb(m, j) * math.comb(m + j, j)) ** (2 if squared else 1) for j in range(m + 1)]


ZS = [3, -2]


def _at_zs(row):
    return [sequences._horner(row, z) for z in ZS]


# the real block size around its first split, and a smaller one that gives up to 4 blocks on few rows
BLOCK_SIZES = [(sequences.ROWS_PER_BLOCK, [2 * sequences.ROWS_PER_BLOCK + d for d in (-1, 0, 1)]),
               (25, [49, 50, 51, 101, 130])]


@pytest.mark.parametrize("per, sizes", BLOCK_SIZES)
def test_blocks_give_the_one_block_terms(monkeypatch, per, sizes):
    monkeypatch.setattr(sequences, "ROWS_PER_BLOCK", per)
    for n in sizes:
        apery = sequences._row_values(sum, n, squared=True, work=0)
        delannoy = [list(d) for d in zip(*sequences._row_values(_at_zs, n, work=0))]
        for cpus in (1, 2, 3, 4):
            forks = _fake_cpus(monkeypatch, cpus)
            assert apery_terms(n) == apery
            assert apery_signed_terms(n) == [a if m % 2 == 0 else -a for m, a in enumerate(apery)]
            assert sequences.delannoy_poly_term_lists(n, ZS) == delannoy
            blocks = min(cpus, n // per) if n >= 2 * per else 1
            assert len(forks) == 3 * (blocks - 1), (n, cpus)
    assert _no_child_left()


@pytest.mark.parametrize("per, sizes", BLOCK_SIZES)
def test_blocks_partition_the_rows_and_meet_the_comb_rows(monkeypatch, per, sizes):
    monkeypatch.setattr(sequences, "ROWS_PER_BLOCK", per)
    blocks = set()
    for cpus in (1, 2, 3, 4, 64):
        _fake_cpus(monkeypatch, cpus)
        assert sequences._block_stops(0) == [0, 0]
        for n in [1, per, *sizes, 20 * per]:
            stops = sequences._block_stops(n)
            assert stops[0] == 0 and stops[-1] == n
            assert len(stops) - 1 == (min(cpus, n // per) if n >= 2 * per else 1)
            assert all(a < b for a, b in zip(stops, stops[1:]))
            if n < 20 * per:
                blocks.update(zip(stops, stops[1:]))
    for start, stop in blocks:
        for squared in (False, True):
            rows = list(binomial_rows(stop, squared, start))
            assert len(rows) == stop - start
            # the rows on each side of a boundary: a block's first row, from math.comb, and its
            # last row, stepped
            assert rows[0] == _comb_row(start, squared) and rows[-1] == _comb_row(stop - 1, squared)


def test_stops_partition_the_rows_at_every_work(monkeypatch):
    for cpus in (2, 3, 8):
        _fake_cpus(monkeypatch, cpus)
        for work in (0, 1, 2, 3):
            for n in (0, 1, 66, 67, 199, 200, 201, 293, 399, 400, 1000, 4999):
                stops = sequences._block_stops(n, work)
                count = n * work // sequences.ROWS_PER_BLOCK
                assert len(stops) - 1 == (min(cpus, count) if count > 1 else 1), (cpus, work, n)
                assert stops[0] == 0 and stops[-1] == n
                assert list(range(n)) == [m for a, b in zip(stops, stops[1:]) for m in range(a, b)]
                assert n == 0 or all(a < b for a, b in zip(stops, stops[1:]))


def test_three_z_at_293_rows_fork_once(monkeypatch):
    zs = [-3, 5, 7]
    expected = [[sequences._horner(row, z) for row in binomial_rows(293)] for z in zs]
    forks = _fake_cpus(monkeypatch, 2)
    assert sequences.delannoy_poly_term_lists(293, zs) == expected
    assert len(forks) == 1
    assert _no_child_left()


def test_a_raising_block_here_kills_and_reaps_every_child(monkeypatch):
    monkeypatch.setattr(sequences, "ROWS_PER_BLOCK", 25)
    _fake_cpus(monkeypatch, 4)
    stops = sequences._block_stops(120)
    assert len(stops) == 5

    def f(row):
        if len(row) - 1 in stops[1:-1]:  # a child's first row: it would outlast the test unless killed
            time.sleep(30)
        if len(row) == stops[1]:  # the last row of this process's block
            raise ZeroDivisionError("row")
        return sum(row)

    started = time.monotonic()
    with pytest.raises(ZeroDivisionError, match="row"):
        sequences._row_values(f, 120)
    assert time.monotonic() - started < 15
    assert _no_child_left()


@pytest.mark.parametrize("leave", [
    pytest.param(lambda: os._exit(0), id="exit 0 with nothing sent"),
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), id="killed"),
    pytest.param(lambda: 1 // 0, id="raised"),
])
def test_a_child_without_its_values_is_an_error_naming_its_rows(monkeypatch, leave):
    monkeypatch.setattr(sequences, "ROWS_PER_BLOCK", 25)
    _fake_cpus(monkeypatch, 3)
    stops = sequences._block_stops(90)

    def f(row):
        if len(row) == stops[2] + 1:  # the first row of the last block
            leave()
        return sum(row)

    with pytest.raises(RuntimeError, match=f"rows {stops[2]} to 89 sent"):
        sequences._row_values(f, 90)
    assert _no_child_left()


def test_no_fork_below_two_blocks_or_beside_another_thread(monkeypatch):
    # a fork copies only the calling thread, and Python 3.12+ warns on a fork beside another thread
    _fake_cpus(monkeypatch, 4)

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    n = 2 * sequences.ROWS_PER_BLOCK
    assert len(apery_terms(n - 1)) == n - 1
    # two blocks pay from about the same length at one z as for Apery rows (ROWS_PER_BLOCK's note),
    # so one or two z keep the Apery threshold; three z split from half of it
    assert len(sequences.delannoy_poly_term_lists(n - 1, [5])[0]) == n - 1
    assert len(sequences.delannoy_poly_term_lists(n - 1, [5, -3])[0]) == n - 1
    assert len(sequences.delannoy_poly_term_lists(n // 2 - 1, [5, -3, 7])[0]) == n // 2 - 1
    # z that marshal does not send take one block at any length
    assert len(sequences.delannoy_poly_term_lists(n, [5, Fraction(1, 2)])[0]) == n
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(apery_terms(n)) == n
        assert len(sequences.delannoy_poly_term_lists(n, ZS)[0]) == n
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_blocks_survive_a_frequent_alarm(monkeypatch):
    # a SIGALRM handler every 2 ms, as a sampling profiler or the benchmark's speed probe runs,
    # interrupts the reads and waits of the parent; the children start with no timer
    forks = _fake_cpus(monkeypatch, 2)
    n = 2 * sequences.ROWS_PER_BLOCK + 50
    expected = sequences._row_values(sum, n, squared=True, work=0)
    fired = []
    previous = signal.signal(signal.SIGALRM, lambda *_: fired.append(None))
    signal.setitimer(signal.ITIMER_REAL, 0.002, 0.002)
    try:
        terms = apery_terms(n)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert terms == expected and forks and fired
    assert _no_child_left()


def test_delannoy_parameter_consistency():
    rng = random.Random(9)
    symbolic = delannoy_poly_terms(12, Z)
    for _ in range(5):
        z0 = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        concrete = delannoy_poly_terms(12, z0)
        assert [t.evaluate(z0) for t in symbolic] == concrete


def test_builtin_families():
    fam = builtin("apery")
    assert fam.annihilator.coeffs[2] == (K + 2) ** 3
    assert fam.terms(3) == [1, 5, 73]
    fam = builtin("delannoy_poly")
    assert fam.annihilator.order == 2
    assert fam.annihilator.field == "Q(z)"
    signed = builtin("apery_signed")
    plain = builtin("apery")
    assert signed.annihilator.coeffs[1] == -1 * plain.annihilator.coeffs[1]
    assert signed.annihilator.coeffs[0] == plain.annihilator.coeffs[0]
    with pytest.raises(UnknownFamily):
        builtin("fibonacci")
    with pytest.raises(UnknownFamily):
        builtin("apery", 3)


def test_term_lists_evaluate_one_row_pass_at_every_z():
    zs = [3, Z, Fraction(-3, 2), None]
    assert sequences.term_lists("delannoy_poly", 40, zs) == [
        builtin("delannoy_poly", z).terms(40) for z in zs]
    assert sequences.term_lists("delannoy_poly", 0, [2, 5]) == [[], []]
    assert sequences.term_lists("apery_signed", 20, [None]) == [apery_signed_terms(20)]
    assert sequences.term_lists("delannoy_number", 20, [None]) == [delannoy_poly_terms(20, 1)]
    for name, zs in (("fibonacci", [None]), ("apery", [None, 3])):
        with pytest.raises(UnknownFamily):
            sequences.term_lists(name, 5, zs)


@pytest.mark.parametrize("name,parameter", [
    ("apery", None),
    ("apery_signed", None),
    ("delannoy_number", None),
    ("delannoy_poly", None),
    ("delannoy_poly", 5),
    ("delannoy_poly", Fraction(-3, 2)),
])
def test_annihilator_kills_50_definition_terms(name, parameter):
    fam = builtin(name, parameter)
    assert annihilates(fam.annihilator, fam.terms(50))


def test_guess_geometric():
    L = guess_annihilator([1, 2, 4, 8, 16], 1, 0)
    assert L.coeffs == (Polynomial.constant(-2), Polynomial.constant(1))


def test_guess_recovers_apery_operator():
    L = guess_annihilator(apery_terms(30), 2, 3)
    assert L == apery_operator()


def test_guess_recovers_delannoy_operator_at_one():
    L = guess_annihilator(delannoy_poly_terms(30, 1), 2, 1)
    assert L == delannoy_operator(1)


def test_guess_random_noise_returns_none():
    rng = random.Random(1234)
    terms = [rng.randint(1, 10 ** 6) for _ in range(30)]
    assert guess_annihilator(terms, 1, 1) is None


def test_guess_requires_enough_terms():
    with pytest.raises(InsufficientTerms):
        guess_annihilator([1, 2, 3], 2, 3)


def test_guess_output_always_annihilates():
    rng = random.Random(88)
    # sequences with known low-order recurrences
    fib = [1, 1]
    for _ in range(28):
        fib.append(fib[-1] + fib[-2])
    for terms, order, deg in [
        (fib, 2, 0),
        ([n ** 2 for n in range(30)], 1, 2),
        ([2 ** n * (n + 1) for n in range(30)], 1, 1),
    ]:
        L = guess_annihilator(terms, order, deg)
        assert L is not None
        assert annihilates(L, terms)
        # normalization: coprime integers, positive leading coefficient
        flat = [c for p in L.coeffs for c in p.coeffs]
        assert all(Fraction(c).denominator == 1 for c in flat)
        from math import gcd
        assert gcd(*(int(c) for c in flat)) == 1
        assert L.coeffs[-1].coeffs[-1] > 0


def _oracle_guess(terms, max_order, max_deg):
    """The guess search on a Fraction Gauss-Jordan solve, as the library did it before Bareiss."""
    terms = [Fraction(t) for t in terms]
    for order in range(max_order + 1):
        for deg in range(max_deg + 1):
            ncols = (order + 1) * (deg + 1)
            rows = [[Fraction(k) ** t * terms[k + i] for i in range(order + 1)
                     for t in range(deg + 1)] for k in range(len(terms) - order)]
            pivots = []
            for col in range(ncols):
                r = len(pivots)
                pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
                if pr is None:
                    continue
                rows[r], rows[pr] = rows[pr], rows[r]
                rows[r] = [v / rows[r][col] for v in rows[r]]
                for i in range(len(rows)):
                    if i != r and rows[i][col]:
                        f = rows[i][col]
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                pivots.append(col)
            # the first free column of the top block: one of a lower block gives a_order = 0
            free = next((c for c in range(order * (deg + 1), ncols) if c not in pivots), None)
            if free is None:
                continue
            sol = [Fraction(0)] * ncols
            sol[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                sol[pc] = -rows[r][free]
            scale = Fraction(math.lcm(*(c.denominator for c in sol)),
                             math.gcd(*(c.numerator for c in sol)))
            if next(c for c in reversed(sol) if c) < 0:
                scale = -scale
            cand = ShiftOperator([Polynomial([c * scale for c in sol[j : j + deg + 1]])
                                  for j in range(0, ncols, deg + 1)])
            if annihilates(cand, terms):
                return cand
    return None


@st.composite
def _guess_cases(draw):
    """Term lists of every kind the solver meets, with bounds that fit them."""
    kind = draw(st.sampled_from(["integers", "small", "sparse", "rationals", "recurrence"]))
    order = draw(st.integers(1, 2))
    top = 3 if kind == "sparse" else 2
    max_order = draw(st.integers(order if kind == "recurrence" else 0, top))
    max_deg = draw(st.integers(1 if kind == "recurrence" else 0, top))
    n = (max_order + 1) * (max_deg + 2) + max_order + draw(st.integers(0, 4))
    if kind == "integers":  # full rank as a rule
        terms = draw(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=n, max_size=n))
    elif kind == "small":  # zeros and repeated terms
        terms = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    elif kind == "sparse":  # about 75% zeros: null vectors that depend on the column order
        terms = draw(st.lists(st.integers(-12, 12).map(lambda v: v if abs(v) <= 3 else 0),
                              min_size=n, max_size=n))
    elif kind == "rationals":
        terms = draw(st.lists(st.fractions(-20, 20, max_denominator=6), min_size=n, max_size=n))
    else:  # F(k+J) = sum_i (a_i k + b_i) F(k+i): rank deficient at order J, degree 1
        coeffs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                               min_size=order, max_size=order))
        terms = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
        while len(terms) < n:
            k = len(terms) - order
            terms.append(sum((a * k + b) * terms[k + i] for i, (a, b) in enumerate(coeffs)))
    return terms, max_order, max_deg


@settings(max_examples=200, deadline=2000, derandomize=True)
@given(_guess_cases())
# a sparse list whose first free column at order 2, degree 3 is in a lower block, so the null vector
# read from it has a_2 = 0; the one read from the top block's first free column is an operator
@example(([0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1], 2, 3))
def test_guess_matches_the_fraction_gauss_jordan_oracle(case):
    terms, max_order, max_deg = case
    got = guess_annihilator(terms, max_order, max_deg)
    assert repr(got) == repr(_oracle_guess(terms, max_order, max_deg))


def test_guess_reads_the_null_vector_from_the_top_block():
    terms = [0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1]
    L = guess_annihilator(terms, 2, 3)
    assert L is not None and L.order == 2 and annihilates(L, terms)
    assert guess_annihilator(terms, 1, 3) is None


def test_guess_rejects_a_wrong_nullspace_vector(monkeypatch):
    solve = sequences._nullspace_solution

    def perturbed(terms, order, deg):
        sol = solve(terms, order, deg)
        if sol is not None:
            sol[0] += 1
        return sol

    monkeypatch.setattr(sequences, "_nullspace_solution", perturbed)
    fib = [1, 1]
    for _ in range(28):
        fib.append(fib[-1] + fib[-2])
    for terms, order, deg in [(apery_terms(30), 2, 3), (fib, 2, 0), ([2 ** n for n in range(9)], 1, 0)]:
        L = guess_annihilator(terms, order, deg)
        assert L is None or annihilates(L, terms)
    # every candidate of the Apery search is off by one term F(k): all are refused
    assert guess_annihilator(apery_terms(30), 2, 3) is None


def test_guess_at_a_larger_size_is_quick():
    code = (
        "import random\n"
        "from partible.sequences import apery_operator, apery_terms, guess_annihilator\n"
        "assert guess_annihilator(apery_terms(120), 3, 5) == apery_operator()\n"
        "rng = random.Random(12)\n"
        "terms = [rng.randint(10 ** 11, 10 ** 12 - 1) for _ in range(40)]\n"
        "assert guess_annihilator(terms, 3, 5) is None\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_guess_work_is_bounded_before_any_elimination(monkeypatch, tmp_path, capsys):
    def eliminate(rows, ncols):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(sequences, "_eliminate", eliminate)
    rng = random.Random(12)
    for digits, admitted in ((12, True), (200, False)):
        terms = [rng.randint(10 ** (digits - 1), 10 ** digits - 1) for _ in range(65)]
        with pytest.raises(AssertionError if admitted else ValueError):
            guess_annihilator(terms, 5, 8)
    path = tmp_path / "terms.json"
    path.write_text(json.dumps([str(t) for t in terms]))
    assert main(["guess", "--terms", str(path), "--order", "5", "--deg", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "above the work bound" in captured.err
