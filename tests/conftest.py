"""Session-scoped tables shared across test modules (sieves are cheap but
not free, and the enumerated sets are reused everywhere).

thinprimes.cli is imported first: it pins numpy's environment before numpy
loads, so the tests run under the same SIMD dispatch as the command line.
"""

import thinprimes.cli  # noqa: F401  (first: numpy's environment)

import pytest

from thinprimes.sieve import build_prime_table, enumerate_thin_primes
from thinprimes.thinfn import make_thin_function

LIMIT = 1 << 20


@pytest.fixture(scope="session")
def pt20():
    return build_prime_table(LIMIT)


@pytest.fixture(scope="session")
def tf_identity():
    return make_thin_function("power", gamma=1.0)


@pytest.fixture(scope="session")
def tf95():
    return make_thin_function("power", gamma=0.95)


@pytest.fixture(scope="session")
def tf99():
    return make_thin_function("power", gamma=0.99)


@pytest.fixture(scope="session")
def tps_identity(pt20, tf_identity):
    return enumerate_thin_primes(tf_identity, pt20, LIMIT)


@pytest.fixture(scope="session")
def tps95(pt20, tf95):
    return enumerate_thin_primes(tf95, pt20, LIMIT)


@pytest.fixture(scope="session")
def tps99(pt20, tf99):
    return enumerate_thin_primes(tf99, pt20, LIMIT)
