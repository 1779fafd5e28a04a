import pytest

from entatlas.catalog import CovariantId
from entatlas.poly import COPY_DPRIMED, COPY_PRIMED, Polynomial, x
from entatlas.qstate import apply_local, random_sl2_tuple, random_state, to_ground_form
from entatlas.transvect import TransvectionError, omega_power, transvect

from conftest import ket_state


def test_zero_index_is_product():
    p = to_ground_form(random_state(1))
    q = to_ground_form(random_state(2))
    assert transvect(p, q, (0, 0, 0, 0)) == p * q


def test_full_transvection_on_ghz(ghz):
    # per-site contraction of x0x0x0x0 + x1x1x1x1 with itself: the two
    # cross terms each contribute (-1)^4 and (+1)^4, total 2
    A = to_ground_form(ghz)
    assert transvect(A, A, (1, 1, 1, 1)) == Polynomial.constant(2)


def test_full_transvection_on_separable():
    A = to_ground_form(ket_state((0, 0, 0, 0)))
    assert transvect(A, A, (1, 1, 1, 1)).is_zero()


def test_omega_single_derivatives():
    xp = Polynomial.variable(x(1, 0, COPY_PRIMED))
    xdp = Polynomial.variable(x(1, 1, COPY_DPRIMED))
    assert omega_power(xp * xdp, 1, 1) == Polynomial.constant(1)
    same = Polynomial.variable(x(1, 0, COPY_PRIMED)) * Polynomial.variable(x(1, 0, COPY_DPRIMED))
    assert omega_power(same, 1, 1).is_zero()


def test_omega_square_degree_bookkeeping():
    xp0 = Polynomial.variable(x(1, 0, COPY_PRIMED))
    xp1 = Polynomial.variable(x(1, 1, COPY_PRIMED))
    xd0 = Polynomial.variable(x(1, 0, COPY_DPRIMED))
    xd1 = Polynomial.variable(x(1, 1, COPY_DPRIMED))
    p = (xp0 + xp1) ** 2 * (xd0 - 2 * xd1) ** 2
    assert omega_power(p, 1, 2) == Polynomial.constant(36)


def test_degree_law_on_random_forms():
    p = to_ground_form(random_state(3))
    q = to_ground_form(random_state(4))
    r = transvect(p, q, (1, 1, 0, 0))
    assert r.is_zero() or r.multidegree() == (0, 0, 2, 2)


def test_symmetry_sign():
    p = to_ground_form(random_state(5))
    q = to_ground_form(random_state(6))
    for idx in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)):
        sign = (-1) ** sum(idx)
        assert transvect(p, q, idx) == sign * transvect(q, p, idx)


def test_bilinearity():
    a = to_ground_form(random_state(7))
    b = to_ground_form(random_state(8))
    c = to_ground_form(random_state(9))
    idx = (0, 1, 1, 0)
    assert transvect(a + b, c, idx) == transvect(a, c, idx) + transvect(b, c, idx)
    assert transvect(3 * a, c, idx) == 3 * transvect(a, c, idx)


def test_index_exceeding_degree_errors():
    p = to_ground_form(random_state(10))
    with pytest.raises(TransvectionError):
        transvect(p, p, (2, 0, 0, 0))
    with pytest.raises(TransvectionError):
        transvect(p, p, (0, 0, 0, 2))


def test_zero_operand_gives_zero():
    p = to_ground_form(random_state(11))
    assert transvect(p, Polynomial.zero(), (1, 1, 1, 1)).is_zero()
    assert transvect(Polynomial.zero(), p, (3, 3, 3, 3)).is_zero()


def test_fast_agrees_on_higher_degree_operands(catalog):
    s = random_state(21)
    sess = catalog.session(s)
    A = to_ground_form(s)
    e = sess.eval("E1_3111")
    for idx in ((0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0)):
        assert transvect(A, e, idx).terms == sess._transvect_ground(e.terms, idx)


def test_ground_specialization_agrees(catalog):
    """The production kernel equals the literal Omega process on every
    catalog term, evaluated on two random states."""
    for seed in (22, 25):
        sess = catalog.session(random_state(seed))
        terms = 0
        for cid in catalog.order:
            for coef, lhs, rhs, idx in catalog.defs[cid].terms:
                lit = transvect(sess.eval(lhs), sess.eval(rhs), idx)
                assert sess._transvect_ground(sess.eval(rhs).terms, idx) == lit.terms, (cid, idx)
                terms += 1
        assert terms == 293


def test_equivariance_of_nullity(catalog):
    s = random_state(23)
    g = random_sl2_tuple(24)
    gs = apply_local(g, s)
    ids = [CovariantId.parse(n) for n in ("B_0000", "B_2200", "C_3111", "D_4000", "F1_2220", "L_6000")]
    assert catalog.signature(s, ids) == catalog.signature(gs, ids)


def test_transvect_rejects_marked_operands():
    marked = Polynomial.variable(x(1, 0, COPY_PRIMED))
    with pytest.raises(TransvectionError):
        transvect(marked, marked, (0, 0, 0, 0))
