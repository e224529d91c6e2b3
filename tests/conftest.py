"""Shared fixtures.

The representations are session-scoped, so each one is built once per
pytest run.
"""

from fractions import Fraction

import pytest

from vircut import fields, verma


@pytest.fixture(scope="session")
def ising8():
    return verma.truncated_rep(Fraction(1, 2), 0, 8)


@pytest.fixture(scope="session")
def ising8_float():
    return verma.truncated_rep(Fraction(1, 2), 0, 8, "float")


@pytest.fixture(scope="session")
def ising12():
    return verma.truncated_rep(Fraction(1, 2), 0, 12)


@pytest.fixture(scope="session")
def ising_half_8():
    return verma.truncated_rep(Fraction(1, 2), Fraction(1, 2), 8)


@pytest.fixture(scope="session")
def piecewise():
    return fields.build_piecewise_mobius()
