"""Integer polynomials with half-integer exponents."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import oracles
from topopoly.mpoly import VARS, MPolynomial, assemble

X = MPolynomial.variable("x")
Y = MPolynomial.variable("y")
Z = MPolynomial.variable("z")
ONE = MPolynomial.one()


def test_canonical_string():
    p = ONE + Z * 3 + Z * Z * 2 + X * Z * Z
    assert str(p) == "1 + 3z + 2z^2 + xz^2"


# Half-unit exponents: mostly small, some odd (half powers), some past
# the printer's tables of 64.
_st_exponent = hst.one_of(hst.integers(0, 6), hst.integers(0, 63), hst.integers(60, 400))


@settings(max_examples=200, deadline=None)
@given(terms=hst.one_of(
    hst.dictionaries(hst.tuples(*[_st_exponent] * len(VARS)),
                     hst.integers(-50, 50), max_size=12),
    hst.dictionaries(hst.just((0,) * len(VARS)), hst.integers(-50, 50))))
def test_string_matches_the_generator_printer(terms):
    # Random term maps, the constants and the zero polynomial among them
    # (a zero coefficient drops its term): str builds each monomial from
    # per-variable tables, the oracle spells it out variable by variable.
    p = MPolynomial(terms)
    assert str(p) == oracles.polynomial_text(p)


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


def test_evaluate_errors_name_the_missing_input():
    p = MPolynomial.monomial(1, x=2, a=1)
    with pytest.raises(ValueError, match=r"^sqrts\['a'\] is not a square root "
                                         r"of the value$"):
        p.evaluate({"x": 1, "a": Fraction(9)}, sqrts={"a": Fraction(2)})
    with pytest.raises(ValueError, match=r"^sqrts\['b'\] is not a square root "
                                         r"of the value$"):
        p.evaluate({"x": 1}, sqrts={"b": 1})
    with pytest.raises(ValueError, match=r"^odd half-power of a needs sqrts$"):
        p.evaluate({"x": 1, "a": Fraction(9)})
    with pytest.raises(ValueError, match=r"^no value for x$"):
        p.evaluate({"a": Fraction(9)}, sqrts={"a": 3})
    # The first term, in term order, that lacks an input names it.
    q = MPolynomial.monomial(1, y=2) + MPolynomial.monomial(1, x=1)
    with pytest.raises(ValueError, match=r"^no value for y$"):
        q.evaluate({})
    with pytest.raises(ValueError, match=r"^odd half-power of x needs sqrts$"):
        q.evaluate({"y": 2})
    # A variable no term uses needs no value.
    assert (X * 2).evaluate({"x": 3}) == 6


def test_evaluate_zero_and_a_constant_at_a_zero_base():
    # The empty sum is Fraction(0), and a base no term reads, 0 included,
    # leaves a constant as it is.
    got = MPolynomial.zero().evaluate({"x": Fraction(2)})
    assert type(got) is Fraction and got == 0
    got = MPolynomial.constant(5).evaluate({"x": Fraction(0)})
    assert type(got) is Fraction and got == 5


def test_substitute():
    p = X * X + X * Y
    q = p.substitute("x", Y + ONE)
    assert q == (Y + ONE) * (Y + ONE) + (Y + ONE) * Y


def test_substitute_rejects_half_powers():
    p = MPolynomial.variable_half("a", 1)
    with pytest.raises(ValueError):
        p.substitute("a", X)


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


@hst.composite
def _assemble_args(draw):
    """Random names, a random shifted subset of them, and buckets with
    zero, negative and cancelling counts."""
    names = "".join(draw(hst.lists(hst.sampled_from(VARS), min_size=1,
                                   max_size=4, unique=True)))
    shifted = "".join(draw(hst.sets(hst.sampled_from(names))))
    key = hst.tuples(*(hst.integers(0, 4).map(lambda n: 2 * n) if v in shifted
                       else hst.integers(0, 5) for v in names))
    return names, draw(hst.dictionaries(key, hst.integers(-3, 3), max_size=8)), shifted


@settings(max_examples=80, deadline=None)
@given(args=_assemble_args())
# (x - 1) + 1 = x: the constants cancel, and a zero count adds nothing.
@example(args=("xy", {(2, 0): 1, (0, 0): 1, (4, 1): 0}, "x"))
# 2(z - 1)(x - 1) - 2(z - 1) + 2(x - 1) - 2 = 2zx - 4z: x and 1 cancel.
@example(args=("zx", {(2, 2): 2, (2, 0): -2, (0, 2): 2, (0, 0): -2}, "zx"))
def test_assemble_matches_powers_of_v_minus_one(args):
    names, buckets, shifted = args
    want = MPolynomial.zero()
    for key, count in buckets.items():
        term = MPolynomial.constant(count)
        for v, h in zip(names, key):
            term = term * ((MPolynomial.variable(v) - 1) ** (h // 2) if v in shifted
                           else MPolynomial.variable_half(v, h))
        want = want + term
    assert assemble(names, buckets, shifted) == want


def test_assemble_names_the_first_bad_bucket():
    # Two bad buckets in different variables: the first in iteration
    # order raises, whichever variable it is in; zero counts are skipped.
    for buckets, message in (
            ({(2, 2): 1, (0, 3): 2, (1, 0): 5}, "half-power of the shifted y"),
            ({(2, 2): 1, (1, 0): 5, (0, 3): 2}, "half-power of the shifted x"),
            ({(1, 0): 0, (0, -2): 1, (-2, 0): 1}, "negative power of the shifted y"),
            ({(-2, 0): 1, (0, -2): 1}, "negative power of the shifted x")):
        with pytest.raises(ValueError, match=rf"^{message} - 1$"):
            assemble("xy", buckets, shifted="xy")
    with pytest.raises(ValueError, match=r"^negative or non-integer exponent "
                                         r"in \(0, -2\)$"):
        assemble("xy", {(0, -2): 1, (-2, 0): 1}, shifted="x")
    # A key needs one entry per name, and a shifted power must be an int.
    with pytest.raises(ValueError, match=r"^bucket key \(2, 0, 2\) needs 2 "):
        assemble("xy", {(2, 0, 2): 1}, shifted="x")
    with pytest.raises(ValueError, match=r"^negative or non-integer "):
        assemble("xy", {(2.0, 0): 1}, shifted="x")


def _first_bucket_error(names, buckets, shifted):
    """The message of the first bad bucket, one bucket at a time: what
    assemble raised before its columns were checked at once."""
    for key, count in buckets.items():
        if not count:
            continue
        if len(key) != len(names):
            return f"bucket key {key} needs {len(names)} entries"
        for v, h in zip(names, key):
            if not isinstance(h, int):
                return f"negative or non-integer exponent in {key}"
            if v in shifted and h % 2:
                return f"half-power of the shifted {v} - 1"
            if v in shifted and h < 0:
                return f"negative power of the shifted {v} - 1"
            if h < 0:
                return f"negative or non-integer exponent in {key}"
    return None


@settings(max_examples=150, deadline=None)
@given(names=hst.sampled_from(["x", "xy", "yzx"]), shifted=hst.sampled_from(["", "x", "xy"]),
       buckets=hst.dictionaries(
           hst.lists(hst.one_of(hst.integers(-3, 4), hst.sampled_from((2.0, "a"))),
                     min_size=1, max_size=4).map(tuple),
           hst.integers(-1, 2), max_size=6))
def test_assemble_checks_columns_with_the_same_messages(names, shifted, buckets):
    # The column check finds what the bucket walk finds, and the walk
    # then names the same first bad bucket.
    want = _first_bucket_error(names, buckets, shifted)
    if want is None:
        assemble(names, buckets, shifted)
        return
    with pytest.raises(ValueError) as raised:
        assemble(names, buckets, shifted)
    assert str(raised.value) == want


def test_assemble_rejects_half_powers_of_shifted_variables():
    assert str(assemble("yx", {(2, 4): 3}, shifted="x")) == "3y - 6xy + 3x^2y"
    with pytest.raises(ValueError):
        assemble("x", {(1,): 1}, shifted="x")


def test_assemble_rejects_negative_powers_of_shifted_variables():
    # (y - 1)^-1 is no polynomial: the bucket raises instead of vanishing.
    for key in ((0, -2), (-4, 2)):
        with pytest.raises(ValueError, match=r"^negative power of the shifted "):
            assemble("xy", {key: 5}, shifted="xy")


def test_constructor_messages():
    with pytest.raises(ValueError,
                       match=r"^exponent tuple \(2, 0\) needs 6 entries$"):
        MPolynomial({(2, 0): 1})
    for exps in ((0, -2, 0, 0, 0, 0), (0, 0, 1.0, 0, 0, 0)):
        with pytest.raises(ValueError, match=r"^negative or non-integer "
                                             r"exponent in \(0, "):
            MPolynomial({exps: 1})


def test_exponents_of_another_type_raise_value_error():
    # The type is tested before the sign and the parity, which would
    # raise TypeError on a string or None.
    with pytest.raises(ValueError, match=r"^negative or non-integer exponent "
                                         r"in \('a', 0, 0, 0, 0, 0\)$"):
        MPolynomial({("a", 0, 0, 0, 0, 0): 1})
    for key, shifted in ((("a", 0), ""), (("a", 0), "x"), ((None, 0), "")):
        with pytest.raises(ValueError, match=r"^negative or non-integer exponent "
                                             rf"in \({key[0]!r}, 0\)$"):
            assemble("xy", {key: 1}, shifted=shifted)


def test_assemble_rejects_negative_or_non_integer_keys():
    # The check moved from every term to each bucket key; zero counts
    # are skipped before it, as they always were.
    assert assemble("xy", {(2, -2): 0}) == 0
    for key in ((2, -2), (2, 1.0), (-1, 0)):
        with pytest.raises(ValueError, match=r"^negative or non-integer "
                                             r"exponent in \("):
            assemble("xy", {key: 1})
        with pytest.raises(ValueError, match=r"^negative or non-integer "):
            assemble("xyz", {key + (2,): 1}, shifted="z")


st_rational = hst.builds(Fraction, hst.integers(-6, 6), hst.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(terms=hst.dictionaries(
           hst.tuples(*(hst.integers(0, 5) for _ in VARS)),
           hst.integers(-4, 4), max_size=6),
       points=hst.tuples(*(st_rational for _ in VARS)),
       rooted=hst.tuples(*(hst.booleans() for _ in VARS)))
def test_evaluate_matches_a_naive_product(terms, points, rooted):
    # A rooted variable is given as the square of its root and may take
    # odd half-powers; any other takes whole powers of its value.
    terms = {tuple(h if on else h - h % 2 for h, on in zip(e, rooted)): c
             for e, c in terms.items()}
    p = MPolynomial(terms)
    values = {v: r * r if on else r for v, r, on in zip(VARS, points, rooted)}
    sqrts = {v: r for v, r, on in zip(VARS, points, rooted) if on} or None
    want = Fraction(0)
    for exps, coeff in p.terms().items():
        prod = Fraction(coeff)
        for v, h, r, on in zip(VARS, exps, points, rooted):
            prod *= r ** h if on else r ** (h // 2)
        want += prod
    got = p.evaluate(values, sqrts)
    assert isinstance(got, Fraction)
    assert got == want


def _naive_value(p, points, rooted):
    want = Fraction(0)
    for exps, coeff in p.terms().items():
        prod = Fraction(coeff)
        for h, r, on in zip(exps, points, rooted):
            prod *= r ** h if on else r ** (h // 2)
        want += prod
    return want


@settings(max_examples=60, deadline=None)
@given(terms=hst.dictionaries(
           hst.tuples(*(hst.integers(0, 5) for _ in VARS)),
           hst.integers(-4, 4), max_size=6),
       whole=hst.booleans(),
       calls=hst.lists(hst.tuples(hst.tuples(*(st_rational for _ in VARS)),
                                  hst.tuples(*(hst.booleans() for _ in VARS))),
                       min_size=2, max_size=5))
def test_repeated_evaluate_matches_a_naive_product(terms, whole, calls):
    # One polynomial, evaluated again and again: every mix of rooted
    # variables, points and sqrts or none gives the naive product.
    if whole:
        terms = {tuple(h - h % 2 for h in e): c for e, c in terms.items()}
    p = MPolynomial(terms)
    odd = [any(e[i] % 2 for e in p.terms()) for i in range(len(VARS))]
    for points, flags in calls:
        rooted = [on or o for on, o in zip(flags, odd)]
        values = {v: r * r if on else r for v, r, on in zip(VARS, points, rooted)}
        sqrts = {v: r for v, r, on in zip(VARS, points, rooted) if on} or None
        got = p.evaluate(values, sqrts)
        assert isinstance(got, Fraction)
        assert got == _naive_value(p, points, rooted)


def test_evaluate_errors_survive_an_earlier_evaluate():
    p = MPolynomial.monomial(1, y=2) + MPolynomial.monomial(1, x=1)
    assert p.evaluate({"x": 4, "y": 3}, sqrts={"x": 2}) == 5
    with pytest.raises(ValueError, match=r"^no value for y$"):
        p.evaluate({})
    with pytest.raises(ValueError, match=r"^odd half-power of x needs sqrts$"):
        p.evaluate({"x": 4, "y": 3})
    with pytest.raises(ValueError, match=r"^sqrts\['x'\] is not a square root "
                                         r"of the value$"):
        p.evaluate({"x": 4, "y": 3}, sqrts={"x": 3})
    assert p.evaluate({"x": Fraction(1, 4), "y": 1},
                      sqrts={"x": Fraction(-1, 2)}) == Fraction(1, 2)


def test_evaluate_takes_any_rational_input():
    # ints and Fractions are read as they are; anything Fraction() takes
    # still works, and the value is always a Fraction.
    p = X * X * 3 + Y - 1
    for x0, y0 in ((2, Fraction(1, 2)), (2.0, "1/2"), (Decimal("2"), 0.5),
                   (True + 1, Fraction(2, 4))):
        got = p.evaluate({"x": x0, "y": y0})
        assert type(got) is Fraction and got == Fraction(23, 2)
    assert type(MPolynomial.constant(3).evaluate({})) is Fraction
    assert MPolynomial.variable_half("a", 3).evaluate(
        {"a": 0.25}, sqrts={"a": "1/2"}) == Fraction(1, 8)


st_poly = hst.dictionaries(hst.tuples(*(hst.integers(0, 4) for _ in VARS)),
                           hst.integers(-3, 3), max_size=5).map(MPolynomial)


@settings(max_examples=60, deadline=None)
@given(p=st_poly, image=st_poly, var=hst.sampled_from(VARS))
def test_substitute_matches_powers_of_the_image(p, image, var):
    i = VARS.index(var)
    p = MPolynomial({e[:i] + (e[i] - e[i] % 2,) + e[i + 1:]: c
                     for e, c in p.terms().items()})
    want = MPolynomial.zero()
    for exps, coeff in p.terms().items():
        rest = MPolynomial({exps[:i] + (0,) + exps[i + 1:]: coeff})
        want = want + rest * image ** (exps[i] // 2)
    got = p.substitute(var, image)
    assert got == want and str(got) == str(want)
