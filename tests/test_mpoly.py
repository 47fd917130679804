"""Integer polynomials with half-integer exponents."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from topopoly.mpoly import (MPolynomial, assemble, compose_laurent,
                            laurent_to_poly)

X = MPolynomial.variable("x")
Y = MPolynomial.variable("y")
Z = MPolynomial.variable("z")
ONE = MPolynomial.one()


def test_canonical_string():
    p = ONE + Z * 3 + Z * Z * 2 + X * Z * Z
    assert str(p) == "1 + 3z + 2z^2 + xz^2"


def test_half_power_string():
    p = MPolynomial.variable_half("a", 1) + MPolynomial.variable_half("b", 3)
    assert str(p) == "b^(3/2) + a^(1/2)"


def test_negative_coefficient_string():
    assert str(ONE - X) == "1 - x"
    assert str(X * -2) == "-2x"


def test_zero_handling():
    assert str(MPolynomial.zero()) == "0"
    assert not MPolynomial.zero()
    assert (X - X).is_zero()
    assert X - X == MPolynomial.zero()
    assert X - X == 0


def test_int_equality():
    assert ONE + ONE == 2
    assert ONE != 2


def test_coeff_lookup():
    p = ONE + Z * 3 + X * Z * Z
    assert p.coeff() == 1
    assert p.coeff(z=1) == 3
    assert p.coeff(x=1, z=2) == 1
    assert p.coeff(y=5) == 0


def test_pow():
    p = (X + ONE) ** 3
    assert p == X * X * X + X * X * 3 + X * 3 + ONE
    assert (X ** 0) == ONE


def test_evaluate():
    p = X * X + Y * 2 - ONE
    assert p.evaluate({"x": Fraction(3), "y": Fraction(1, 2)}) == Fraction(9)


def test_evaluate_half_powers_need_square_roots():
    p = MPolynomial.variable_half("a", 1)
    assert p.evaluate({"a": Fraction(9)}, sqrts={"a": Fraction(3)}) == 3
    with pytest.raises(ValueError):
        p.evaluate({"a": Fraction(9)}, sqrts={"a": Fraction(2)})
    with pytest.raises(ValueError):
        p.evaluate({"a": Fraction(9)})


def test_substitute():
    p = X * X + X * Y
    q = p.substitute("x", Y + ONE)
    assert q == (Y + ONE) * (Y + ONE) + (Y + ONE) * Y


def test_substitute_rejects_half_powers():
    p = MPolynomial.variable_half("a", 1)
    with pytest.raises(ValueError):
        p.substitute("a", X)


def test_compose_laurent():
    # x -> t+1, y -> t, z -> 1/t on 1 + xz: gives 1 + (t+1)/t
    p = ONE + X * Z
    lau = compose_laurent(p, {"x": {0: 1, 1: 1}, "y": {1: 1}, "z": {-1: 1}})
    assert lau == {0: 2, -1: 1}


def test_laurent_to_poly():
    assert laurent_to_poly({0: 2, 1: 3}) == ONE * 2 + MPolynomial.variable("t") * 3
    with pytest.raises(ValueError):
        laurent_to_poly({-1: 1})
    assert laurent_to_poly({-1: 0, 0: 1}) == ONE


st_poly = hst.lists(
    hst.tuples(hst.integers(-3, 3), hst.integers(0, 3), hst.integers(0, 3)),
    min_size=0, max_size=5)


def _build(spec):
    p = MPolynomial.zero()
    for coeff, ex, ey in spec:
        p = p + MPolynomial.monomial(coeff, x=2 * ex, y=2 * ey)
    return p


@given(a=st_poly, b=st_poly, c=st_poly)
@settings(max_examples=30, deadline=None)
def test_ring_laws(a, b, c):
    pa, pb, pc = _build(a), _build(b), _build(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@settings(max_examples=60, deadline=None)
@given(hst.dictionaries(
    hst.tuples(hst.integers(0, 4), hst.integers(0, 4), hst.integers(0, 5)),
    hst.integers(-5, 5), max_size=6))
def test_assemble_matches_products(buckets):
    # (x-1)^i y^(h/2) z^(k/2) over whole i, half-unit h and k.
    keys = {(2 * i, h, k): c for (i, h, k), c in buckets.items()}
    want = MPolynomial.zero()
    for (i, h, k), c in buckets.items():
        want = want + c * (X - 1) ** i * MPolynomial.monomial(1, y=h, z=k)
    assert assemble("xyz", keys, shifted="x") == want


def test_assemble_rejects_half_powers_of_shifted_variables():
    assert str(assemble("yx", {(2, 4): 3}, shifted="x")) == "3y - 6xy + 3x^2y"
    with pytest.raises(ValueError):
        assemble("x", {(1,): 1}, shifted="x")
