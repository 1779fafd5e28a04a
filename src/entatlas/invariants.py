"""The invariant generators and everything derived from them.

Generators: the quadratic form B, the quartic determinants L and M (and
N = -L - M), and the sextic D_xy built from the 3x3 Gram matrix of the
pair form b_xy.  From these: the hyperdeterminant Delta via the quartic
R(t) (apolar S and catalecticant T, Delta = S^3 - 27 T^2), the same
Delta via the degree-2 invariant I_2 of the sextic covariant L_6000,
the secant invariant Z = D_xy - B^3/27, and the degree-4 binary form
whose discriminant is proportional to Delta.

Site naming follows (x, y, z, t) = sites (1, 2, 3, 4); pair forms retain
the two named sites and take the second-derivative determinant over the
other two.

Gram tables.  For a pair uv with complement sites w < z, the pair form is
b_uv = det [d^2 A / dw_i dz_j]_{i,j in {0,1}}.  A is multilinear, so
d^2 A / dw_i dz_j = sum_{al,be} a(u=al, v=be, w=i, z=j) u_al v_be, and
expanding the 2x2 determinant, the coefficient of
u0^(2-p) u1^p v0^(2-q) v1^q (the Gram entry m[p][q]) is

    m[p][q] = sum over al + al' = p, be + be' = q of
              a(al, be, 0, 0) a(al', be', 1, 1) - a(al, be, 0, 1) a(al', be', 1, 0),

with (al, al', be, be') running over {0,1}^4.  ``_GRAM`` stores these
products as (i, j, sign) triples of amplitude indices, built once at
import: 32 per pair (2 at the corners of the 3x3 matrix, 8 at its
centre), so no polynomial is formed.

Quartic.  Write b_xt = m0(t) x0^2 + m1(t) x0 x1 + m2(t) x1^2 with
m_p(t) = sum_q m[p][q] t0^(2-q) t1^q, m the xt Gram matrix.  The Hessian
of b_xt in the site-1 variables is [[2 m0, m1], [m1, 2 m2]], so
R(t) = det Hess_x(b_xt) = 4 m0(t) m2(t) - m1(t)^2.

Cleared denominators.  B, L, M, N, the Gram entries, D_uv and R are
homogeneous in the amplitudes, of degree 2, 4, 4, 4, 2, 6 and 4.  On a
state with rational amplitudes each is computed on the integers q*a
(``qstate.cleared_amplitudes``) and divided once by q^degree:
f(a) = f(q a) / q^deg.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .catalog import build_catalog
from .poly import Polynomial, t as t_var, x as x_var
from .qstate import State, StateError, cleared_amplitudes
from .scalars import exact_quotient, normalize_scalar

SITE_OF = {"x": 1, "y": 2, "z": 3, "t": 4}
PAIRS = ("xy", "xz", "xt", "yz", "yt", "zt")

# Row/column index orders of the three quartic determinants, transcribed
# verbatim; rows and columns list (bit_a, bit_b) pairs for the site pairs
# named in _DET_SPLITS.
_DET_SPLITS = {
    "L": ((1, 2), (3, 4), ((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 0), (1, 0), (0, 1), (1, 1))),
    "M": ((1, 3), (2, 4), ((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 0), (0, 1), (1, 0), (1, 1))),
    "N": ((2, 3), (1, 4), ((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 0), (1, 0), (0, 1), (1, 1))),
}


def _gram_table(pair: str):
    """The 3x3 cells of (i, j, sign) triples with m[p][q] = sum sign*a_i*a_j."""
    u, v = (SITE_OF[ch] - 1 for ch in pair)
    w, z = (k for k in range(4) if k not in (u, v))

    def index(al, be, i, j):
        return (al << u) | (be << v) | (i << w) | (j << z)

    cells = [[[] for _ in range(3)] for _ in range(3)]
    for al, al2, be, be2 in product((0, 1), repeat=4):
        cell = cells[al + al2][be + be2]
        cell.append((index(al, be, 0, 0), index(al2, be2, 1, 1), 1))
        cell.append((index(al, be, 0, 1), index(al2, be2, 1, 0), -1))
    return tuple(tuple(tuple(cell) for cell in row) for row in cells)


_GRAM = {pair: _gram_table(pair) for pair in PAIRS}


def _cleared(s: State):
    """(q, amplitudes to compute on): q*a for a rational state, else (1, a)."""
    return cleared_amplitudes(s) or (1, s.amps)


def _over(v, d):
    """v / d as the simplest exact scalar (v is an int on cleared states)."""
    if d == 1:
        return normalize_scalar(v)
    return normalize_scalar(exact_quotient(v, d))


def _gram(amps, pair: str):
    """The 3x3 Gram matrix of b_uv on the amplitudes ``amps``."""
    table = _GRAM.get(pair)
    if table is None:
        raise ValueError(f"pair must be one of {PAIRS}, got {pair!r}")
    return [
        [sum(sign * amps[i] * amps[j] for i, j, sign in cell) for cell in row]
        for row in table
    ]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _det4(m):
    """Exact 4x4 determinant by cofactor expansion."""
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


def _flattening(amps, row_sites, col_sites, row_order, col_order):
    def amp(assign):
        b = 0
        for site, bit in assign:
            b |= bit << (site - 1)
        return amps[b]

    m = []
    for ra, rb in row_order:
        row = []
        for ca, cb in col_order:
            row.append(
                amp(
                    (
                        (row_sites[0], ra),
                        (row_sites[1], rb),
                        (col_sites[0], ca),
                        (col_sites[1], cb),
                    )
                )
            )
        m.append(row)
    return m


def _quartic_det(s: State, name: str):
    q, amps = _cleared(s)
    return _over(_det4(_flattening(amps, *_DET_SPLITS[name])), q ** 4)


def inv_L(s: State):
    return _quartic_det(s, "L")


def inv_M(s: State):
    return _quartic_det(s, "M")


def inv_N(s: State):
    return _quartic_det(s, "N")


def inv_B(s: State):
    """The quadratic invariant as the signed pairing sum_I (-1)^|I| a_I a_Ibar / 2."""
    q, amps = _cleared(s)
    total = 0
    for b in range(16):
        a = amps[b]
        if a:
            sign = -1 if bin(b).count("1") & 1 else 1
            total = total + sign * a * amps[15 - b]
    return _over(total, 2 * q * q)


def inv_B_transvectant(s: State):
    """B via (1/2)(A,A)^{1111}; equals inv_B (pinned by tests)."""
    p = build_catalog().eval_covariant("B_0000", s)
    return p.terms.get(0, 0)


def pair_gram_matrix(s: State, pair: str):
    """The 3x3 matrix of b_uv in the bases [u0^2, u0 u1, u1^2] x [v0^2, v0 v1, v1^2]."""
    q, amps = _cleared(s)
    return [[_over(c, q * q) for c in row] for row in _gram(amps, pair)]


def inv_D(s: State, pair: str = "xy"):
    """The degree-6 invariant D_uv = det of the 3x3 Gram matrix of b_uv."""
    q, amps = _cleared(s)
    return _over(_det3(_gram(amps, pair)), q ** 6)


def quartic_coeffs(s: State):
    """Binomial coefficients (c0..c4) of R(t) = det Hess_x(b_xt), so that
    R = sum comb(4,i) c_i t0^(4-i) t1^i in the site-4 variables."""
    q, amps = _cleared(s)
    m0, m1, m2 = _gram(amps, "xt")
    r = [0] * 5
    for i in range(3):
        for j in range(3):
            r[i + j] = r[i + j] + 4 * m0[i] * m2[j] - m1[i] * m1[j]
    # Built from a list, as in qstate.State.__init__.
    return tuple([_over(r[i], comb(4, i) * q ** 4) for i in range(5)])


def quartic_S_T(cs):
    c0, c1, c2, c3, c4 = cs
    S = c0 * c4 - 4 * c1 * c3 + 3 * c2 * c2
    T = c0 * c2 * c4 - c0 * c3 * c3 + 2 * c1 * c2 * c3 - c1 * c1 * c4 - c2 ** 3
    return normalize_scalar(S), normalize_scalar(T)


def quartic_delta(cs):
    """S^3 - 27 T^2 of a binary quartic given by its binomial coefficients."""
    S, T = quartic_S_T(cs)
    return normalize_scalar(S ** 3 - 27 * T * T)


def hyperdet_delta(s: State):
    """The hyperdeterminant Delta = S^3 - 27 T^2 of the quartic R(t)."""
    return quartic_delta(quartic_coeffs(s))


def sextic_coeffs(s: State):
    """Binomial coefficients (d0..d6) of the evaluated sextic L_6000."""
    p = build_catalog().eval_covariant("L_6000", s)
    ds = []
    for i in range(7):
        raw = p.coefficient({x_var(1, 0): 6 - i, x_var(1, 1): i})
        ds.append(_over(raw, comb(6, i)))
    return tuple(ds)


def inv_I2(s: State):
    """Degree-2 invariant of the sextic: d0 d6 - 6 d1 d5 + 15 d2 d4 - 10 d3^2.

    The source prints the last two terms as "15 d3 d4 - 10 d^2", which is
    dimensionally inconsistent; this corrected form is validated by the
    exact proportionality to the hyperdeterminant.
    """
    d0, d1, d2, d3, d4, d5, d6 = sextic_coeffs(s)
    return normalize_scalar(d0 * d6 - 6 * d1 * d5 + 15 * d2 * d4 - 10 * d3 * d3)


DELTA_I2_FACTOR = Fraction(3, 2 ** 19 * 5 ** 2)


def delta_via_sextic(s: State):
    """Delta from the sextic route; equals hyperdet_delta exactly."""
    return normalize_scalar(DELTA_I2_FACTOR * inv_I2(s))


def inv_Z(s: State):
    """Z = D_xy - B^3/27, the extra invariant of the extended secant atlas."""
    B = inv_B(s)
    return normalize_scalar(inv_D(s, "xy") - Fraction(1, 27) * B ** 3)


def all_invariants(s: State, pairs: bool = False) -> dict:
    """Every scalar invariant in one dict (CLI surface)."""
    B = inv_B(s)
    L = inv_L(s)
    M = inv_M(s)
    Dxy = inv_D(s, "xy")
    cs = quartic_coeffs(s)
    S, T = quartic_S_T(cs)
    out = {
        "B": B,
        "L": L,
        "M": M,
        "N": inv_N(s),
        "Dxy": Dxy,
        "S": S,
        "T": T,
        "Delta": normalize_scalar(S ** 3 - 27 * T * T),
        "Z": normalize_scalar(Dxy - Fraction(1, 27) * B ** 3),
        "I2": inv_I2(s),
    }
    if pairs:
        for pair in PAIRS[1:]:
            out["D" + pair] = inv_D(s, pair)
    return out


def _verstraete_raw(s: State):
    """Coefficients of t0^4, t0^3 t1, ..., t1^4 in the assembled quartic.

    Each is a sign times a scale.  A scale equal to 0 or 1 enters as that
    int, also on float states, so the coefficients keep the Python types of
    the scale-times-monomial expansion (the tests' oracle)."""
    B = inv_B(s)
    L = inv_L(s)
    M = inv_M(s)
    Dxy = inv_D(s, "xy")
    scales = (1, 2 * B, B * B + 2 * L + 4 * M, 4 * (B * (M + Fraction(1, 2) * L) + Dxy), L * L)
    scales = [0 if not c else 1 if c == 1 else c for c in scales]
    return tuple([-c if i % 2 else c for i, c in enumerate(scales)])


def verstraete_quartic(s: State) -> Polynomial:
    """The degree-4 binary form in (t0, t1) assembled from B, L, M, D_xy:

        t0^4 - 2B t0^3 t1 + (B^2 + 2L + 4M) t0^2 t1^2
             - 4(B(M + L/2) + D_xy) t0 t1^3 + L^2 t1^4.

    Its discriminant (S^3 - 27 T^2 of its binomial coefficients) equals
    hyperdet_delta exactly, and on the four-parameter diagonal family its
    roots are the squared parameters.  The cubic coefficient carries +D_xy;
    the printed source has -D_xy there, which breaks both properties.
    """
    t0, t1 = t_var(0), t_var(1)
    q = Polynomial.zero()
    for i, raw in enumerate(_verstraete_raw(s)):
        q = q + Polynomial.monomial(raw, {t0: 4 - i, t1: i})
    return q


def verstraete_quartic_coeffs(s: State):
    """Binomial coefficients (c0..c4) of the assembled quartic."""
    return tuple([_over(raw, comb(4, i)) for i, raw in enumerate(_verstraete_raw(s))])


def is_nilpotent(s: State) -> bool:
    """All four invariant generators vanish (nullcone membership)."""
    if s.is_zero():
        raise StateError("the zero state is rejected by classifiers")
    return not (inv_B(s) or inv_L(s) or inv_M(s) or inv_D(s, "xy"))


def in_third_secant(s: State) -> bool:
    """L = M = 0 (third secant variety membership)."""
    if s.is_zero():
        raise StateError("the zero state is rejected by classifiers")
    return not (inv_L(s) or inv_M(s))
