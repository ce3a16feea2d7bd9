"""Shared test set-up.

The `pythonpath` setting in pyproject.toml puts `src` on the import path
of the pytest process only.  Some tests start `python3 -m partible.cli`
in a subprocess; prepending `src` to PYTHONPATH makes those run this
tree's code too, with or without an install.
"""

import contextlib
import os
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from partible import operators, poly, ratfunc, reduction

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def all_fractions():
    """A context manager under which Polynomial stores every coefficient over Q
    as a Fraction, integral ones included, as it did before int coefficients;
    a constant RationalFunction is demoted to its rational as in the library.

    The operator caches are cleared on entry and exit, so neither side is
    served results computed on the other.
    """

    def fraction_scalar(c):
        c = ratfunc.scalar(c)
        return Fraction(c) if type(c) is int else c

    @contextlib.contextmanager
    def manager():
        caches = (operators.profile, reduction.is_partible, reduction.adjoint_basis)
        for cache in caches:
            cache.cache_clear()
        try:
            with mock.patch.object(poly, "scalar", fraction_scalar):
                yield
        finally:
            for cache in caches:
                cache.cache_clear()

    return manager


@pytest.fixture
def int_digit_limit():
    """CPython's default cap of 4,300 digits on int/str conversion, restored afterwards.

    cli.main lifts the cap for its own run and restores it on return; a
    test that needs the default cap sets it here, whatever ran before.  A
    Python without the cap skips the test.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no cap on int/str conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)
