import os

import pytest

from rees import gradedlin, linalg
from rees.cli import load_instance
from rees.field import PrimeField
from rees.ring import parse_poly, ring_R

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def span_dim(polys, ring, xdeg, tdeg=0):
    """Dimension of the span of polys inside one bigraded piece.

    The tests' reference count.  Zero polynomials contribute nothing; anything
    nonzero must lie in the stated piece.
    """
    rows = [gradedlin.coordinates(p, xdeg, tdeg) for p in polys
            if not p.is_zero()]
    return linalg.rank(rows, gradedlin.piece_dim(ring, xdeg, tdeg), ring.field)


@pytest.fixture(scope="session")
def F():
    return PrimeField(32003)


@pytest.fixture(scope="session")
def R(F):
    return ring_R(F)


@pytest.fixture(scope="session")
def poly(R):
    def parse(s):
        return parse_poly(s, R)
    return parse


@pytest.fixture(scope="session")
def quadric_cubic():
    # n=3, d=(2,3): first column is the quadric triple, second a cubic pair
    return load_instance(fixture_path("quadric_cubic.json"))


@pytest.fixture(scope="session")
def table1():
    # n=3, d=(3,16), sigma=(3,0): split first column (two entries + zero)
    return load_instance(fixture_path("table1.json"))


@pytest.fixture(scope="session")
def table2():
    # n=3, d=(5,16), sigma=(3,2)
    return load_instance(fixture_path("table2.json"))


@pytest.fixture(scope="session")
def table3():
    # n=3, d=(4,16), sigma=(2,2)
    return load_instance(fixture_path("table3.json"))


@pytest.fixture(scope="session")
def final_example():
    # n=3, d=(4,7): the boundary-column showcase instance
    return load_instance(fixture_path("final_example.json"))


@pytest.fixture(scope="session")
def final_variant():
    # same shape with x0^4 + x0^3*x1 in the corner
    return load_instance(fixture_path("final_variant.json"))


@pytest.fixture(scope="session")
def almost_linear():
    # n=4, d=(1,1,2): presentation of (x0^4, x0^3*x1, x0*x1^3, x1^4)
    return load_instance(fixture_path("almost_linear.json"))
