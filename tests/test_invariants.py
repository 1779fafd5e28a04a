import math
import random
from fractions import Fraction

import pytest

from entatlas.atlas import _flip_images
from entatlas.invariants import (
    _DET_SPLITS,
    PAIRS,
    SITE_OF,
    _gram,
    all_invariants,
    delta_via_sextic,
    hyperdet_delta,
    in_third_secant,
    inv_B,
    inv_D,
    inv_I2,
    inv_L,
    inv_M,
    inv_N,
    inv_Z,
    is_nilpotent,
    quartic_coeffs,
    quartic_delta,
    sextic_coeffs,
    verstraete_quartic,
    verstraete_quartic_coeffs,
)
from entatlas.poly import t as t_var
from entatlas.poly import x as x_var
from entatlas.qstate import (
    LocalOperator,
    State,
    StateError,
    apply_local,
    decode_form,
    random_sl2_tuple,
    random_state,
)
from entatlas.scalars import GaussianRational, exact_quotient, normalize_scalar

from conftest import ket_state
from omega_oracle import Poly, inv_B_transvectant, to_ground_form


# -- the polynomial route, kept as the oracle of the Gram tables -------------


def b_form(s: State, pair: str) -> Poly:
    """Pair form b_uv: second-derivative determinant over the complement sites,
    a bidegree-(2,2) polynomial in the two retained sites."""
    keep = [SITE_OF[ch] for ch in pair]
    other = [k for k in (1, 2, 3, 4) if k not in keep]
    f = to_ground_form(s)
    d = [
        [f.diff(x_var(other[0], i)).diff(x_var(other[1], j)) for j in (0, 1)]
        for i in (0, 1)
    ]
    return d[0][0] * d[1][1] - d[0][1] * d[1][0]


def _gram_via_b_form(s: State, pair: str):
    b = b_form(s, pair)
    u, v = (SITE_OF[ch] for ch in pair)
    return [
        [
            b.coefficient({x_var(u, 0): 2 - p, x_var(u, 1): p, x_var(v, 0): 2 - q, x_var(v, 1): q})
            for q in range(3)
        ]
        for p in range(3)
    ]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _quartic_via_b_form(s: State):
    """R(t) = det Hess_x(b_xt) built as a polynomial, in binomial coefficients."""
    b = b_form(s, "xt")
    d = [[b.diff(x_var(1, i)).diff(x_var(1, j)) for j in (0, 1)] for i in (0, 1)]
    r = d[0][0] * d[1][1] - d[0][1] * d[1][0]
    raws = [r.coefficient({x_var(4, 0): 4 - i, x_var(4, 1): i}) for i in range(5)]
    return tuple(
        Fraction(raw, math.comb(4, i)) if isinstance(raw, int) else raw / math.comb(4, i)
        for i, raw in enumerate(raws)
    )


def _table_and_oracle(s: State):
    """(table route, b_form route) for the six Gram matrices, the six D_uv
    and the quartic, each flattened to one list of scalars."""
    table, oracle = [], []
    for pair in PAIRS:
        table += [exact_quotient(c, s.scale ** 2) for row in _gram(s.cleared, pair) for c in row]
        m = _gram_via_b_form(s, pair)
        oracle += [c for row in m for c in row]
        table.append(inv_D(s, pair))
        oracle.append(_det3(m))
    table += quartic_coeffs(s)
    oracle += _quartic_via_b_form(s)
    return table, oracle


def _gram_test_states():
    rng = random.Random(41)
    ints = [random_state(k) for k in range(4)]
    ints += [apply_local(random_sl2_tuple(k), decode_form(65257)) for k in range(2)]
    fracs = [
        State([Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(16)])
        for _ in range(6)
    ]
    gauss = [
        State([GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 3)), rng.randint(-2, 2))
               for _ in range(16)])
        for _ in range(3)
    ]
    i_shear = ((1, GaussianRational(0, 1)), (0, 1))
    gauss.append(apply_local(LocalOperator(i_shear, i_shear, ((1, 0), (1, 1)), i_shear),
                             decode_form(65529)))
    return ints, fracs, gauss


def test_gram_tables_match_b_form_exactly():
    """Gram matrices, all six D_uv and the quartic from the amplitude index
    tables equal the polynomial b_form route exactly on int, Fraction and
    Gaussian-rational states."""
    ints, fracs, gauss = _gram_test_states()
    for s in ints + fracs + gauss:
        table, oracle = _table_and_oracle(s)
        assert table == oracle, s
        assert any(oracle), s
    assert any(isinstance(v, GaussianRational) for s in gauss for v in _table_and_oracle(s)[0])


def test_gram_tables_match_b_form_on_floats():
    ints, fracs, _ = _gram_test_states()
    for s in ints + fracs:
        fs = State([float(a) * 0.37 for a in s.amps])
        table, oracle = _table_and_oracle(fs)
        for deg, got, want in zip(_GRAM_DEGREES, table, oracle):
            scale = max(abs(a) for a in fs.amps) ** deg
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9 * scale), (s, got, want)


# Amplitude degree of each entry of _table_and_oracle: per pair nine Gram
# entries (2) and D_uv (6), then the five quartic coefficients (4).
_GRAM_DEGREES = ([2] * 9 + [6]) * 6 + [4] * 5


def _flattening(amps, row_sites, col_sites, row_order, col_order):
    """A 4x4 flattening assembled site by site: the oracle of the index
    tables that L, M and N read."""

    def amp(assign):
        b = 0
        for site, bit in assign:
            b |= bit << (site - 1)
        return amps[b]

    return [
        [amp(((row_sites[0], ra), (row_sites[1], rb), (col_sites[0], ca), (col_sites[1], cb)))
         for ca, cb in col_order]
        for ra, rb in row_order
    ]


def _det4(m):
    """Exact 4x4 determinant by cofactor expansion: the oracle of the Laplace
    tables that L, M and N read."""
    total = 0
    for j in range(4):
        a = m[0][j]
        if not a:
            continue
        cols = [c for c in range(4) if c != j]
        sub = 0
        for jj in range(3):
            b = m[1][cols[jj]]
            if not b:
                continue
            c2 = [c for c in cols if c != cols[jj]]
            minor = m[2][c2[0]] * m[3][c2[1]] - m[2][c2[1]] * m[3][c2[0]]
            sub = sub + (b * minor if jj % 2 == 0 else -b * minor)
        total = total + (a * sub if j % 2 == 0 else -a * sub)
    return total


def _pairing(amps):
    """B's signed pairing with the parity of each index computed in place."""
    total = 0
    for b in range(16):
        a = amps[b]
        if a:
            sign = -1 if bin(b).count("1") & 1 else 1
            total = total + sign * a * amps[15 - b]
    return total


def test_flattening_tables_match_site_assembly(catalog):
    """L, M, N and B from the fixed index tables equal, with the same repr
    and type, the determinants of the site-assembled flattenings and the
    pairing with per-index parity: on int, Fraction and float states
    (through the cleared amplitudes; a float state's exact quotient n/d is
    rounded once) and on Gaussian-rational states.  So do the sextic
    coefficients d_i, each the exact coefficient of L_6000 over comb(6, i),
    rounded once on a float state, and I2 from them: on the all-ones float
    state L_6000 vanishes, and I2 is the float 0.0."""
    ints, fracs, gauss = _gram_test_states()
    floats = [State([float(a) * 0.37 for a in s.amps]) for s in ints + fracs]
    floats.append(State([1.0] * 16))
    seen_nonzero = [False] * 4
    for s in ints + fracs + gauss + floats:
        q, amps = s.scale, s.cleared
        over = (lambda n, d: n / d) if s.float_mode else exact_quotient
        want = [over(_det4(_flattening(amps, *_DET_SPLITS[name])), q ** 4) for name in "LMN"]
        want.append(over(_pairing(amps), 2 * q * q))
        exact = State([Fraction(a) for a in s.amps]) if s.float_mode else s
        sextic = catalog.eval_covariant("L_6000", exact)
        ds = [exact_quotient(sextic.coefficient({x_var(1, 0): 6 - i, x_var(1, 1): i}),
                             math.comb(6, i)) for i in range(7)]
        if s.float_mode:
            ds = [float(Fraction(d)) for d in ds]
        d0, d1, d2, d3, d4, d5, d6 = ds
        want += ds + [normalize_scalar(d0 * d6 - 6 * d1 * d5 + 15 * d2 * d4 - 10 * d3 * d3)]
        got = [inv_L(s), inv_M(s), inv_N(s), inv_B(s), *sextic_coeffs(s), inv_I2(s)]
        assert [(repr(v), type(v)) for v in got] == [(repr(v), type(v)) for v in want], s
        seen_nonzero = [seen or bool(v) for seen, v in zip(seen_nonzero, want)]
    assert all(seen_nonzero)


def test_quartic_dets_match_cofactor_oracle_on_flip_leaders():
    """L, M and N from the Laplace tables equal the cofactor determinants of
    the site-assembled flattenings on the least member of each of the 4336
    bit-flip orbits of {0,1} forms, the states the census filter reads."""
    leaders = sorted({min(_flip_images(n)) for n in range(65536)})
    assert len(leaders) == 4336
    nonzero = 0
    for n in leaders:
        s = decode_form(n)
        want = [_det4(_flattening(s.amps, *_DET_SPLITS[name])) for name in "LMN"]
        assert [inv_L(s), inv_M(s), inv_N(s)] == want, n
        nonzero += any(want)
    assert 0 < nonzero < len(leaders)


def test_ghz_determinants(ghz):
    assert inv_L(ghz) == 0
    assert inv_M(ghz) == 0
    assert inv_B(ghz) == 1


def test_nullcone_representative_kills_generators():
    s = decode_form(59520)
    assert inv_B(s) == 0 and inv_L(s) == 0 and inv_M(s) == 0 and inv_D(s, "xy") == 0


def test_N_definitional_identity():
    for seed in range(20):
        s = random_state(seed)
        assert inv_N(s) == -inv_L(s) - inv_M(s)


def test_B_matches_transvectant():
    for seed in range(8):
        s = random_state(seed)
        assert inv_B(s) == inv_B_transvectant(s)


def test_pair_form_degenerates_on_monomial():
    s = ket_state((0, 0, 0, 0))
    assert b_form(s, "xy").is_zero()
    assert inv_D(s, "xy") == 0


def test_Dxy_on_secant_groupings():
    s = decode_form(59777)
    assert inv_B(s) == 0 and inv_D(s, "xy") != 0
    s = decode_form(65259)
    assert inv_B(s) != 0 and inv_D(s, "xy") == 0


def test_bad_pair_name():
    with pytest.raises(ValueError):
        inv_D(decode_form(3), "xq")


def test_delta_zero_on_nullcone():
    for n in (59520, 65511, 65535, 65520):
        assert hyperdet_delta(decode_form(n)) == 0


def test_delta_sl_invariant():
    s = random_state(3)
    g = random_sl2_tuple(99)
    assert hyperdet_delta(apply_local(g, s)) == hyperdet_delta(s)


def test_delta_routes_agree():
    for seed in range(10):
        s = random_state(seed)
        assert hyperdet_delta(s) == delta_via_sextic(s)


def test_delta_routes_vanish_on_nullcone():
    s = decode_form(59520)
    assert hyperdet_delta(s) == 0
    assert delta_via_sextic(s) == 0


def test_proportionality_constant_exact():
    s = random_state(6)
    i2 = inv_I2(s)
    assert i2 != 0
    assert hyperdet_delta(s) == Fraction(3, 2 ** 19 * 5 ** 2) * i2


def test_homogeneity_degrees():
    s = random_state(8)
    lam = Fraction(5, 3)
    scaled = s.scaled(lam)
    assert inv_B(scaled) == lam ** 2 * inv_B(s)
    assert inv_L(scaled) == lam ** 4 * inv_L(s)
    assert inv_M(scaled) == lam ** 4 * inv_M(s)
    assert inv_N(scaled) == lam ** 4 * inv_N(s)
    assert inv_D(scaled, "xy") == lam ** 6 * inv_D(s, "xy")
    assert inv_Z(scaled) == lam ** 6 * inv_Z(s)
    assert hyperdet_delta(scaled) == lam ** 24 * hyperdet_delta(s)
    assert inv_I2(scaled) == lam ** 24 * inv_I2(s)


def test_all_pair_invariants_sl_invariant():
    s = random_state(12)
    g = random_sl2_tuple(13)
    gs = apply_local(g, s)
    for pair in ("xy", "xz", "xt", "yz", "yt", "zt"):
        assert inv_D(s, pair) == inv_D(gs, pair)


def test_Z_values_on_extended_branch():
    assert inv_Z(decode_form(65257)) != 0
    assert inv_Z(decode_form(6014)) == 0


def test_secant_factorization_computed_identity():
    # the degree-consistent form of the secant factorization: on L = M = 0,
    # -256 * Delta = 6912 * D_xy^3 * Z, i.e. Delta = -27 * D_xy^3 * Z
    for n in (65257, 59777, 59510, 6014, 61305, 65534, 65529):
        s = decode_form(n)
        assert inv_L(s) == 0 and inv_M(s) == 0
        d = inv_D(s, "xy")
        assert hyperdet_delta(s) == -27 * d ** 3 * inv_Z(s)
        assert -256 * hyperdet_delta(s) == 6912 * d ** 3 * inv_Z(s)


def test_quartic_degenerates_on_nullcone():
    q = verstraete_quartic(decode_form(59520))
    t0 = t_var(0)
    assert q.coefficient({t0: 4}) == 1
    assert len(q.terms) == 1


def test_verstraete_quartic_text():
    """The printed quartic, in the t variables that follow the eight site
    variables, highest power of t0 first."""
    q = verstraete_quartic(random_state(3))
    assert str(q) == "t0^4 + 36*t0^3*t1 + 1624*t0^2*t1^2 - 8964*t0*t1^3 + 141376*t1^4"


def test_quartic_discriminant_is_delta():
    for seed in range(12):
        s = random_state(seed)
        assert quartic_delta(verstraete_quartic_coeffs(s)) == hyperdet_delta(s)


def _verstraete_via_products(s: State) -> Poly:
    """The assembled quartic as a sum of scalars times powers of t0 and t1,
    the oracle of the closed form in verstraete_quartic(_coeffs)."""
    B, L, M, Dxy = inv_B(s), inv_L(s), inv_M(s), inv_D(s, "xy")
    t0, t1 = Poly.monomial(1, {t_var(0): 1}), Poly.monomial(1, {t_var(1): 1})
    return (
        t0 ** 4
        - (2 * B) * t0 ** 3 * t1
        + (B * B + 2 * L + 4 * M) * t0 ** 2 * t1 ** 2
        - (4 * (B * (M + Fraction(1, 2) * L) + Dxy)) * t0 * t1 ** 3
        + (L * L) * t1 ** 4
    )


def test_verstraete_closed_form_matches_products():
    ints, fracs, gauss = _gram_test_states()
    forms = [decode_form(n) for n in (59520, 65257, 65534, 65218)]
    # Float images of secant forms have L = 0.0, and those of 65534 a
    # t0^2 t1^2 scale of exactly 1.0: both must still come back as floats.
    floats = [State([float(a) for a in apply_local(random_sl2_tuple(k), f).amps])
              for k, f in enumerate(forms)]
    floats += [State([float(a) * 0.37 for a in s.amps]) for s in ints]
    cases = [(s, True) for s in ints + forms + fracs + gauss] + [(s, False) for s in floats]
    for s, exact in cases:
        q = _verstraete_via_products(s)
        assert verstraete_quartic(s).terms == q.terms
        expected = [
            normalize_scalar(exact_quotient(q.coefficient({t_var(0): 4 - i, t_var(1): i}),
                                            math.comb(4, i)))
            for i in range(5)
        ]
        got = verstraete_quartic_coeffs(s)
        if exact:
            assert [(type(c), c) for c in got] == [(type(c), c) for c in expected], s
        else:
            # The oracle keeps a scale of exactly 1.0 as the int 1, so its
            # c2 may be Fraction(1, 6) where the closed form has 1.0 / 6.
            assert [float(c) for c in got] == [float(c) for c in expected], s
            # Only the constant c0 = 1 is exact; no coefficient is -0.0.
            assert got[0] == 1 and type(got[0]) is int, s
            assert all(type(c) is float for c in got[1:]), s
            assert all(math.copysign(1.0, c) > 0 for c in got[1:] if c == 0), s
    # The cases the float branch is about do occur.
    assert any(c == 0 for s in floats for c in verstraete_quartic_coeffs(s)[1::2])
    assert any(verstraete_quartic(s).coefficient({t_var(0): 2, t_var(1): 2}) == 1
               for s in floats)


def test_quartic_roots_on_diagonal_family():
    a, b, c, d = 1, 2, 3, 5
    h = Fraction(1, 2)
    amps = [0] * 16
    for bits, v in (
        ((0, 0, 0, 0), h * (a + d)), ((1, 1, 1, 1), h * (a + d)),
        ((0, 0, 1, 1), h * (a - d)), ((1, 1, 0, 0), h * (a - d)),
        ((0, 1, 0, 1), h * (b + c)), ((1, 0, 1, 0), h * (b + c)),
        ((0, 1, 1, 0), h * (b - c)), ((1, 0, 0, 1), h * (b - c)),
    ):
        amps[bits[0] + 2 * bits[1] + 4 * bits[2] + 8 * bits[3]] = v
    s = State(amps)
    cs = verstraete_quartic_coeffs(s)
    for r in (a, b, c, d):
        # R(r^2, 1) = sum comb(4, i) c_i (r^2)^(4 - i)
        assert sum(math.comb(4, i) * c * r ** (2 * (4 - i)) for i, c in enumerate(cs)) == 0


def test_nilpotency_predicates(w_state, ghz):
    assert is_nilpotent(w_state)
    assert in_third_secant(ghz) and not is_nilpotent(ghz)
    s = random_state(33)
    assert inv_L(s) != 0
    assert not is_nilpotent(s) and not in_third_secant(s)


def test_zero_state_rejected():
    with pytest.raises(StateError):
        is_nilpotent(State([0] * 16))
    with pytest.raises(StateError):
        in_third_secant(State([0] * 16))


def test_all_invariants_dict():
    inv = all_invariants(decode_form(65534), pairs=True)
    assert inv["L"] == 0 and inv["M"] == 0 and inv["B"] != 0
    assert set(inv) >= {"B", "L", "M", "N", "Dxy", "S", "T", "Delta", "Z", "I2",
                        "Dxz", "Dxt", "Dyz", "Dyt", "Dzt"}


def test_sextic_and_quartic_coeff_conventions(catalog):
    s = decode_form(65218)
    ds = sextic_coeffs(s)
    p = catalog.eval_covariant("L_6000", s)
    from math import comb
    from entatlas.poly import x as x_var
    for i in range(7):
        assert p.coefficient({x_var(1, 0): 6 - i, x_var(1, 1): i}) == comb(6, i) * ds[i]
    cs = quartic_coeffs(s)
    assert len(cs) == 5
