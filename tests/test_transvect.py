from fractions import Fraction

import pytest

from entatlas import catalog as catalog_module
from entatlas.catalog import CovariantId
from entatlas.poly import _exponents, _monomial_key, t, x
from entatlas.qstate import (
    State,
    _sparse_image,
    apply_local,
    decode_form,
    random_sl2_tuple,
    random_state,
)
from entatlas.scalars import GaussianRational

from conftest import ket_state
from omega_oracle import (
    Poly,
    TransvectionError,
    dprimed,
    omega_power,
    primed,
    to_ground_form,
    transvect,
)


def test_zero_index_is_product():
    p = to_ground_form(random_state(1))
    q = to_ground_form(random_state(2))
    assert transvect(p, q, (0, 0, 0, 0)) == p * q


def test_full_transvection_on_ghz(ghz):
    # per-site contraction of x0x0x0x0 + x1x1x1x1 with itself: the two
    # cross terms each contribute (-1)^4 and (+1)^4, total 2
    A = to_ground_form(ghz)
    assert transvect(A, A, (1, 1, 1, 1)) == Poly.constant(2)


def test_full_transvection_on_separable():
    A = to_ground_form(ket_state((0, 0, 0, 0)))
    assert transvect(A, A, (1, 1, 1, 1)).is_zero()


def test_omega_single_derivatives():
    x10, x11 = Poly.monomial(1, {x(1, 0): 1}), Poly.monomial(1, {x(1, 1): 1})
    assert omega_power(primed(x10) * dprimed(x11), 1, 1) == Poly.constant(1)
    assert omega_power(primed(x11) * dprimed(x10), 1, 1) == Poly.constant(-1)
    assert omega_power(primed(x10) * dprimed(x10), 1, 1).is_zero()


def test_omega_square_degree_bookkeeping():
    x10, x11 = Poly.monomial(1, {x(1, 0): 1}), Poly.monomial(1, {x(1, 1): 1})
    p = primed((x10 + x11) ** 2) * dprimed((x10 - 2 * x11) ** 2)
    assert omega_power(p, 1, 2) == Poly.constant(36)


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
    assert transvect(p, Poly(), (1, 1, 1, 1)).is_zero()
    assert transvect(Poly(), p, (3, 3, 3, 3)).is_zero()


def _kernel_term(sess, rhs: dict, idx) -> dict:
    """(A, rhs)^idx by the session's kernel, added into an empty dict with
    coefficient 1; exact sums that cancel are dropped here, as ``_value``
    drops them."""
    return {k: c for k, c in sess._transvect_ground({}, rhs, idx, 1).items() if c}


def test_fast_agrees_on_higher_degree_operands(catalog):
    s = random_state(21)
    sess = catalog.session(s)
    A = to_ground_form(s)
    e = sess.eval("E1_3111")
    for idx in ((0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0)):
        assert transvect(A, e, idx).terms == _kernel_term(sess, e.terms, idx)


def _states_of_every_kind():
    """(kind, state): int, ``Fraction``, Gaussian and float amplitudes, and
    the sparse integer image the census evaluates for form 65257."""
    i = GaussianRational(0, 1)
    for seed in (22, 25):
        yield "int", random_state(seed)
    base = random_state(26).amps
    yield "Fraction", State([Fraction(a, 1 + b % 3) for b, a in enumerate(base)])
    yield "Gaussian", State([a + i * (b % 3 - 1) for b, a in enumerate(base)])
    yield "float", State([a / 3 for a in base])
    yield "sparse", State(_sparse_image(decode_form(65257).amps))


def test_ground_specialization_agrees(catalog):
    """The production kernel equals the literal Omega process exactly on
    every catalog term, on states of every scalar kind.  Both run on the
    session's cleared amplitudes and its memoized right operand, lam_X * X,
    which on a float state are exact integers."""
    for kind, s in _states_of_every_kind():
        sess = catalog.session(s)
        A = to_ground_form(State(s.cleared))
        terms = 0
        for cid in catalog.order:
            for coef, lhs, rhs, idx in catalog.defs[cid].terms:
                X = Poly(sess._value(rhs))
                got = _kernel_term(sess, X.terms, idx)
                assert got == transvect(A, X, idx).terms, (kind, cid, idx)
                terms += 1
        assert terms == 293


def _site_rule_table(idx, pattern) -> tuple:
    """(b, offset, +-f) with f != 0, in increasing (bits of b on the index
    sites, b), derived site by site from the Omega expansion: A's monomial
    a_b * prod_k x_{k,b_k} loses x_{k,b_k} at every index site, where the
    rhs loses x_{k,1-b_k} with its exponent as factor and sign -1 if
    b_k = 1; at every other site the product gains x_{k,b_k}."""
    exps = _exponents(pattern)
    sites = [k for k in range(4) if idx[k]]
    rows = []
    for b in sorted(range(16), key=lambda b: ([(b >> k) & 1 for k in reversed(sites)], b)):
        bits = [(b >> k) & 1 for k in range(4)]
        offset = sum(_monomial_key({x(k + 1, bits[k]): 1}) for k in range(4) if not idx[k])
        offset -= sum(_monomial_key({x(k + 1, 1 - bits[k]): 1}) for k in sites)
        f = (-1) ** sum(bits[k] for k in sites)
        for k in sites:
            f *= exps[2 * k + 1 - bits[k]]
        if f:
            rows.append((b, offset, f))
    return tuple(rows)


def test_feed_tables_match_site_rule(catalog):
    """The process-wide feed tables are state-free: the full catalog on
    three generic states builds one table per (idx, pattern) pair that its
    terms meet, 730, and the ground form's; a fourth state adds none; and
    every table equals the per-site derivation, entries and order."""
    tables = catalog_module._FEED_TABLES
    tables.clear()
    for seed in (1, 2, 3):
        sess = catalog.session(random_state(seed))
        for cid in catalog.order:
            sess._value(cid)
    assert len(tables) == 730 + 1
    assert ((0, 0, 0, 0), 0) in tables
    kept = dict(tables)
    sess = catalog.session(random_state(4))
    for cid in catalog.order:
        sess._value(cid)
    assert tables == kept
    for (idx, pattern), table in tables.items():
        assert table == _site_rule_table(idx, pattern), (idx, pattern)


def test_equivariance_of_nullity(catalog):
    s = random_state(23)
    g = random_sl2_tuple(24)
    gs = apply_local(g, s)
    ids = [CovariantId.parse(n) for n in ("B_0000", "B_2200", "C_3111", "D_4000", "F1_2220", "L_6000")]
    assert catalog.signature(s, ids) == catalog.signature(gs, ids)


def test_transvect_rejects_marked_operands():
    """Operands must be base-only: a primed copy and a t variable both sit
    past the base block, where the oracle's own copies go."""
    base = Poly.monomial(1, {x(1, 0): 1})
    for marked in (primed(base), dprimed(base), Poly.monomial(1, {t(0): 1})):
        with pytest.raises(TransvectionError):
            transvect(marked, base, (0, 0, 0, 0))
        with pytest.raises(TransvectionError):
            transvect(base, marked, (0, 0, 0, 0))
