from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entatlas.poly import NonHomogeneousError, Polynomial, VariableId, t, x
from entatlas.scalars import GaussianRational, exact_quotient

from omega_oracle import Poly, PolynomialError, primed

# Ring arithmetic lives in the test oracle: X10 etc. are ``Poly``s.
X10 = Poly.monomial(1, {x(1, 0): 1})
X11 = Poly.monomial(1, {x(1, 1): 1})
X20 = Poly.monomial(1, {x(2, 0): 1})


def poly_strategy():
    coeff = st.integers(min_value=-6, max_value=6)
    exps = st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    )
    def build(terms):
        p = Poly()
        for c, ex in terms:
            mono = {}
            for site, comp, e in ex:
                v = x(site, comp)
                mono[v] = mono.get(v, 0) + e
            p = p + Poly.monomial(c, mono)
        return p
    return st.lists(st.tuples(coeff, exps), max_size=4).map(build)


def test_add_cancellation():
    assert (X10 + (-X10)).is_zero()


def test_add_merges():
    assert X10 + X11 + X11 == X10 + 2 * X11


def test_add_zero_identity():
    p = 3 * X10 * X11 - 2 * X20
    assert p + Poly() == p


def test_mul_difference_of_squares():
    assert (X10 + X11) * (X10 - X11) == X10 * X10 - X11 * X11


def test_mul_one_identity():
    p = 5 * X10 * X20 - X11
    assert p * Poly.constant(1) == p


def test_square_expansion():
    assert (X10 + X11) ** 2 == X10 ** 2 + 2 * X10 * X11 + X11 ** 2


def test_derivative_basic():
    assert (X10 ** 2 * X11).diff(x(1, 0)) == 2 * X10 * X11
    assert (X11 ** 3).diff(x(1, 0)).is_zero()
    assert Poly.constant(7).diff(x(1, 0)).is_zero()


def test_exponent_bound_enforced():
    # A 16th power would carry into the next variable's 4-bit field.
    assert (X10 ** 15).terms == {15: 1}
    with pytest.raises(PolynomialError):
        X10 ** 8 * X10 ** 8
    with pytest.raises(PolynomialError):
        X10 ** 16
    assert (X10 ** 15 * X11 ** 15).multidegree() == (30, 0, 0, 0)
    assert (X10 ** 15 * Polynomial()).is_zero()
    # Monomial keys share the bound: unchecked, x1_0^16 would name x1_1.
    for e in (-1, 16):
        with pytest.raises(ValueError):
            X11.coefficient({x(1, 0): e})
        with pytest.raises(ValueError):
            Polynomial.monomial(1, {x(1, 0): e})
    assert X11.coefficient({x(1, 1): 1}) == 1
    assert X11.coefficient({x(1, 0): 15}) == 0


def test_is_zero():
    assert (X10 - X10).is_zero()
    assert not X10.is_zero()


def test_multidegree_sitewise():
    p = Polynomial.monomial(1, {x(1, 0): 2, x(2, 1): 1, x(2, 0): 1})
    assert p.multidegree() == (2, 2, 0, 0)
    assert Polynomial().multidegree() is None


def test_multidegree_rejects_inhomogeneous():
    with pytest.raises(NonHomogeneousError):
        (X10 + X20).multidegree()


def test_multidegree_rejects_working_copies():
    """The oracle's primed copies are keys shifted past the site fields, as
    are the t variables: neither has a sitewise multidegree."""
    for p in (primed(X10), Polynomial.monomial(1, {t(0): 1}), X10 * Poly.monomial(1, {t(1): 1})):
        with pytest.raises(NonHomogeneousError):
            p.multidegree()


def test_variable_ids():
    assert x(1, 0).index == 0
    assert x(4, 1).index == 7
    assert t(0).index == 8
    assert t(1).index == 9
    with pytest.raises(ValueError):
        VariableId(5, 0)
    with pytest.raises(ValueError):
        VariableId(1, 2)
    with pytest.raises(ValueError):
        x(1, 0)._replace(site=9)
    with pytest.raises(ValueError):
        VariableId._make((1, 2))
    assert x(1, 0)._replace(component=1) == x(1, 1)


def test_gaussian_coefficients():
    i = GaussianRational(0, 1)
    p = i * X10
    assert p * p == -1 * X10 ** 2
    conj = Poly({k: GaussianRational(c.re, -c.im) for k, c in p.terms.items()})
    assert (p + conj).is_zero()


def test_fraction_normalization():
    p = Fraction(1, 2) * (2 * X10)
    assert p.terms[next(iter(p.terms))] == 1
    assert isinstance(p.terms[next(iter(p.terms))], int)


def test_exact_quotient_is_simplest_scalar():
    """int/int is an int when exact and a Fraction otherwise; any other
    quotient is collapsed as ``normalize_scalar`` collapses it, so a
    Gaussian with zero imaginary part comes back rational; floats pass
    through."""
    for a, b, want in ((6, 3, 2), (-6, 3, -2), (0, 5, 0), (True, 1, 1)):
        got = exact_quotient(a, b)
        assert got == want and type(got) is int
    for a, b in ((1, 3), (-7, 2), (2, -4)):
        got = exact_quotient(a, b)
        assert got == Fraction(a, b) and type(got) is Fraction
    assert type(exact_quotient(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_quotient(Fraction(1, 2), 3) == Fraction(1, 6)
    i = GaussianRational(0, 1)
    half = exact_quotient(GaussianRational(2, 4), 4)
    assert isinstance(half, GaussianRational) and half == GaussianRational(Fraction(1, 2), 1)
    for real in (exact_quotient(GaussianRational(3, 0), 2), exact_quotient(2 * i, 4 * i)):
        assert type(real) in (int, Fraction)
    assert exact_quotient(GaussianRational(3, 0), 2) == Fraction(3, 2)
    assert exact_quotient(2 * i, 4 * i) == Fraction(1, 2)
    assert exact_quotient(3 * i, i) == 3 and type(exact_quotient(3 * i, i)) is int
    for a, b in ((1.0, 3), (0.5, 1), (7, 2.0)):
        got = exact_quotient(a, b)
        assert got == a / b and type(got) is float
    with pytest.raises(ZeroDivisionError):
        exact_quotient(1, 0)


def test_str_deterministic_graded_lex():
    p = X11 + X10 + X10 * X11
    assert str(p) == "x1_0*x1_1 + x1_0 + x1_1"
    assert str(Polynomial()) == "0"
    assert str(Polynomial.monomial(-3, {t(0): 2, t(1): 1})) == "-3*t0^2*t1"


def _exceeds_field(*ps):
    """Whether the largest exponents of some base variable in ``ps`` sum past
    15, the only case in which their products may raise PolynomialError."""
    return any(
        sum(max(((k >> 4 * v) & 15 for k in p.terms), default=0) for p in ps) > 15
        for v in range(8)
    )


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
@example(X10 ** 8, X10 ** 8, X10)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    try:
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
    except PolynomialError:
        assert _exceeds_field(p, q, r)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy())
@example(X10 ** 8, X10 ** 8)
def test_leibniz_rule(p, q):
    v = x(1, 0)
    try:
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)
    except PolynomialError:
        assert _exceeds_field(p, q)


@settings(max_examples=40, deadline=None)
@given(poly_strategy())
def test_derivative_linear(p):
    v = x(2, 1)
    assert (3 * p).diff(v) == 3 * p.diff(v)
