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

Flattening tables.  L, M and N are determinants of 4x4 flattenings:
rows set the bits of one site pair, columns those of the other pair, in
the orders of ``_DET_SPLITS``.  ``_FLAT`` stores each as a 4x4 tuple of
amplitude indices.  ``_LAPLACE`` turns each into its Laplace expansion
along the first two rows: 6 rows, one per column pair j1 < j2, of the
sign (-1)^(1 + j1 + j2), the 4 indices of the top 2x2 minor on columns
j1, j2 and the 4 of the complementary minor on rows 2, 3 and the other
two columns.  The determinant is the sum of sign * top * complement, and
a row whose top minor is 0 is skipped; on a {0,1} form most are.
``_B_SIGNS`` holds the sign (-1)^|b| of each index in B's pairing.  All
are built once at import.

Quartic.  Write b_xt = m0(t) x0^2 + m1(t) x0 x1 + m2(t) x1^2 with
m_p(t) = sum_q m[p][q] t0^(2-q) t1^q, m the xt Gram matrix.  The Hessian
of b_xt in the site-1 variables is [[2 m0, m1], [m1, 2 m2]], so
R(t) = det Hess_x(b_xt) = 4 m0(t) m2(t) - m1(t)^2.

Cleared denominators.  B, L, M, N, the Gram entries, D_uv and R are
homogeneous in the amplitudes, of degree 2, 4, 4, 4, 2, 6 and 4.  On a
state with rational or float amplitudes each is computed on the integers
q*a that the state holds (``State.cleared``, q = ``State.scale``) and
divided once by q^degree: f(a) = f(q a) / q^deg (``State.unscaled``).
On a float state that quotient is exact and then rounded once, so each
of these values is the nearest float to its exact value.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .catalog import FLOAT_TOLERANCE, CovariantId, build_catalog
from .poly import Polynomial, _monomial_key, t as t_var, x as x_var
from .qstate import State, check_nonzero
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


def _flat_table(row_sites, col_sites, row_order, col_order):
    """The 4x4 amplitude indices of a flattening, as named in _DET_SPLITS."""
    r1, r2, c1, c2 = (site - 1 for site in row_sites + col_sites)
    return tuple(
        tuple(ra << r1 | rb << r2 | ca << c1 | cb << c2 for ca, cb in col_order)
        for ra, rb in row_order
    )


_FLAT = {name: _flat_table(*split) for name, split in _DET_SPLITS.items()}


def _laplace_table(flat):
    """The Laplace rows of one flattening (see "Flattening tables")."""
    rows = []
    for j1, j2 in combinations(range(4), 2):
        k1, k2 = (k for k in range(4) if k not in (j1, j2))
        sign = 1 if (j1 + j2) & 1 else -1
        top = (flat[0][j1], flat[0][j2], flat[1][j1], flat[1][j2])
        bottom = (flat[2][k1], flat[2][k2], flat[3][k1], flat[3][k2])
        rows.append((sign, *top, *bottom))
    return tuple(rows)


_LAPLACE = {name: _laplace_table(flat) for name, flat in _FLAT.items()}

_B_SIGNS = tuple((b, -1 if bin(b).count("1") & 1 else 1) for b in range(16))


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


def _quartic_det(s: State, name: str):
    """The determinant of flattening ``name`` from its ``_LAPLACE`` rows."""
    a = s.cleared
    total = 0
    for sign, i, j, k, l, p, q, r, u in _LAPLACE[name]:
        top = a[i] * a[l] - a[j] * a[k]
        if top:
            total = total + sign * top * (a[p] * a[u] - a[q] * a[r])
    return s.unscaled(total, s.scale ** 4)


def inv_L(s: State):
    return _quartic_det(s, "L")


def inv_M(s: State):
    return _quartic_det(s, "M")


def inv_N(s: State):
    return _quartic_det(s, "N")


def inv_B(s: State):
    """The quadratic invariant as the signed pairing sum_I (-1)^|I| a_I a_Ibar / 2."""
    amps = s.cleared
    total = 0
    for b, sign in _B_SIGNS:
        a = amps[b]
        if a:
            total = total + sign * a * amps[15 - b]
    return s.unscaled(total, 2 * s.scale ** 2)


def inv_D(s: State, pair: str = "xy"):
    """The degree-6 invariant D_uv = det of the 3x3 Gram matrix of b_uv."""
    return s.unscaled(_det3(_gram(s.cleared, pair)), s.scale ** 6)


def quartic_coeffs(s: State):
    """Binomial coefficients (c0..c4) of R(t) = det Hess_x(b_xt), so that
    R = sum comb(4,i) c_i t0^(4-i) t1^i in the site-4 variables."""
    m0, m1, m2 = _gram(s.cleared, "xt")
    r = [0] * 5
    for i in range(3):
        for j in range(3):
            r[i + j] = r[i + j] + 4 * m0[i] * m2[j] - m1[i] * m1[j]
    # Built from a list, as in qstate.State.__init__.
    return tuple([s.unscaled(r[i], comb(4, i) * s.scale ** 4) for i in range(5)])


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


_SEXTIC_ID = CovariantId.parse("L_6000")
_SEXTIC_KEYS = tuple(_monomial_key({x_var(1, 0): 6 - i, x_var(1, 1): i}) for i in range(7))


def sextic_coeffs(s: State):
    """Binomial coefficients (d0..d6) of the evaluated sextic L_6000.

    Each is the session's exact value of lam * q^adeg * L_6000 at its
    monomial, divided once by comb(6, i) * lam * q^adeg, so a float
    state's d_i is rounded once."""
    session = build_catalog().session(s)
    value = session._value(_SEXTIC_ID)
    div = session._divisor(_SEXTIC_ID)
    return tuple([
        s.unscaled(value.get(key, 0), comb(6, i) * div) for i, key in enumerate(_SEXTIC_KEYS)
    ])


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


def _z(B, Dxy):
    return normalize_scalar(Dxy - Fraction(1, 27) * B ** 3)


def inv_Z(s: State):
    """Z = D_xy - B^3/27, the extra invariant of the extended secant atlas."""
    return _z(inv_B(s), inv_D(s, "xy"))


# The degree of each generator in the amplitudes, which scales the float rule.
_DEGREE = {"B": 2, "L": 4, "M": 4, "Dxy": 6, "Z": 6}


class Generators(namedtuple("Generators", "state B L M Dxy")):
    """B, L, M and D_xy of one state, each computed once, and Z from them.
    Every membership decision tests them by ``nonzero``, the one rule."""

    __slots__ = ()

    def __new__(cls, s: State):
        return super().__new__(cls, s, inv_B(s), inv_L(s), inv_M(s), inv_D(s, "xy"))

    @property
    def Z(self):
        return _z(self.B, self.Dxy)

    def nonzero(self, name: str) -> bool:
        """``name`` is tested exactly, except that a float is nonzero when it
        exceeds ``FLOAT_TOLERANCE`` scaled by max(1, max |a|^degree) (a
        scale past the float range raises ``OverflowError``)."""
        value = getattr(self, name)
        if isinstance(value, float):
            scale = max((abs(float(a)) for a in self.state.amps), default=1.0)
            bound = FLOAT_TOLERANCE * max(1.0, scale ** _DEGREE[name])
            return abs(value) > bound
        return bool(value)

    def bits(self) -> tuple:
        """The (B, L, M, D_xy) nullity bits, as 0 and 1."""
        return tuple([int(self.nonzero(name)) for name in ("B", "L", "M", "Dxy")])


def all_invariants(s: State, pairs: bool = False) -> dict:
    """Every scalar invariant in one dict (CLI surface)."""
    g = Generators(s)
    cs = quartic_coeffs(s)
    S, T = quartic_S_T(cs)
    out = {
        "B": g.B,
        "L": g.L,
        "M": g.M,
        "N": inv_N(s),
        "Dxy": g.Dxy,
        "S": S,
        "T": T,
        "Delta": quartic_delta(cs),
        "Z": g.Z,
        "I2": inv_I2(s),
    }
    if pairs:
        for pair in PAIRS[1:]:
            out["D" + pair] = inv_D(s, pair)
    return out


def _verstraete_raw(s: State):
    """Coefficients of t0^4, t0^3 t1, ..., t1^4 in the assembled quartic.

    Each is a sign times a scale.  The odd ones are negated as ``0 - c``,
    so a vanishing float scale gives 0.0, not -0.0."""
    _, B, L, M, Dxy = Generators(s)
    scales = (1, 2 * B, B * B + 2 * L + 4 * M, 4 * (B * (M + Fraction(1, 2) * L) + Dxy), L * L)
    return tuple([0 - c if i % 2 else c for i, c in enumerate(scales)])


# The monomial keys of t0^4, t0^3 t1, ..., t1^4.
_QUARTIC_KEYS = tuple(_monomial_key({t_var(0): 4 - i, t_var(1): i}) for i in range(5))


def verstraete_quartic(s: State) -> Polynomial:
    """The degree-4 binary form in (t0, t1) assembled from B, L, M, D_xy:

        t0^4 - 2B t0^3 t1 + (B^2 + 2L + 4M) t0^2 t1^2
             - 4(B(M + L/2) + D_xy) t0 t1^3 + L^2 t1^4.

    Its discriminant (S^3 - 27 T^2 of its binomial coefficients) equals
    hyperdet_delta exactly, and on the four-parameter diagonal family its
    roots are the squared parameters.  The cubic coefficient carries +D_xy;
    the printed source has -D_xy there, which breaks both properties.
    """
    coeffs = [normalize_scalar(raw) for raw in _verstraete_raw(s)]
    return Polynomial({key: c for key, c in zip(_QUARTIC_KEYS, coeffs) if c})


def verstraete_quartic_coeffs(s: State):
    """Binomial coefficients (c0..c4) of the assembled quartic."""
    return tuple([exact_quotient(raw, comb(4, i)) for i, raw in enumerate(_verstraete_raw(s))])


def is_nilpotent(s: State) -> bool:
    """B, L, M and D_xy all vanish (nullcone membership)."""
    return not any(Generators(check_nonzero(s)).bits())


def in_third_secant(s: State) -> bool:
    """L = M = 0 (third secant variety membership)."""
    return not any(Generators(check_nonzero(s)).bits()[1:3])
