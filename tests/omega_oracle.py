"""The literal Cayley Omega process and polynomial ring arithmetic, kept as
the test oracle of the package's one transvection kernel.

The package evaluates every catalog term (A, X)^idx, idx in {0,1}^4, with
``catalog.EvalSession._transvect_ground`` and ships ``Polynomial`` only as
an output map.  This module recomputes the same values the long way:

* ``Poly`` is a ``Polynomial`` with the ring operations (``+``, ``-``,
  ``*``, ``**``, ``diff``).  A product whose exponent in some variable
  would exceed 15 raises ``PolynomialError`` instead of carrying into the
  next 4-bit field.
* ``transvect`` follows the defining recipe: rename the left operand's
  variables to primed copies and the right operand's to double-primed
  copies, multiply, apply the determinant-of-derivatives operator Omega
  at each site the requested number of times, and erase the marks
  (substitute both copies back to the base variables).

The copies live only here, as key shifts: the base block occupies bits
0..31 of a packed key, so priming is a shift by 32 bits, double priming a
shift by 64, and the erasure is integer addition of the three blocks.  The
t pair also sits at bits 32..39, so an operand must be base-only, and
``transvect`` rejects any other.
"""

from __future__ import annotations

from entatlas.catalog import build_catalog
from entatlas.poly import _FIELD, _W, Polynomial
from entatlas.qstate import State
from entatlas.scalars import normalize_scalar

_BASE_BITS = _W * 8
_BASE_MASK = (1 << _BASE_BITS) - 1
# Base, primed and double-primed blocks of 8 fields (t shares the primed
# block's first two).
_FIELDS = 24


class PolynomialError(Exception):
    """A product would overflow a 4-bit exponent field."""


class TransvectionError(Exception):
    """An index exceeded an operand degree, or an operand was not base-only."""


def _add_raw(a: dict, b: dict) -> dict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    get = out.get
    for k, c in b.items():
        s = get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _mul_raw(a: dict, b: dict) -> dict:
    """The product of two {key: coefficient} dicts, with no check of the
    exponent bound: ``Poly.__mul__`` checks it first, and ``transvect``
    multiplies a primed block by a double-primed one."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = get(k, 0) + ca * cb
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def _scale_raw(a: dict, c) -> dict:
    """c * a, each coefficient in its simplest form, zeros dropped."""
    out = {}
    for k, v in a.items():
        s = normalize_scalar(v * c)
        if s:
            out[k] = s
    return out


def _diff_raw(a: dict, index: int) -> dict:
    """d/dx_index of a {key: coefficient} dict."""
    shift = _W * index
    out = {}
    for k, c in a.items():
        e = (k >> shift) & _FIELD
        if e:
            out[k - (1 << shift)] = c * e
    return out


def _exponent_maxima(terms: dict) -> list:
    """Per field, the largest exponent among the keys of ``terms`` ([] if none)."""
    columns = zip(*([(k >> (_W * v)) & _FIELD for v in range(_FIELDS)] for k in terms))
    return [max(column) for column in columns]


class Poly(Polynomial):
    """A ``Polynomial`` with ring operations and derivatives."""

    __slots__ = ()

    def __add__(self, other):
        return Poly(_add_raw(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            # Some pair of monomials overflows exactly when the two maxima do.
            pairs = zip(_exponent_maxima(self.terms), _exponent_maxima(other.terms))
            if any(ea + eb > _FIELD for ea, eb in pairs):
                raise PolynomialError(f"an exponent would exceed {_FIELD}")
            return Poly(_mul_raw(self.terms, other.terms))
        return Poly(_scale_raw(self.terms, normalize_scalar(other)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, v) -> "Poly":
        return Poly(_diff_raw(self.terms, v.index))


def primed(p: Polynomial) -> Poly:
    """p in the primed copies of its base variables."""
    return Poly({k << _BASE_BITS: c for k, c in p.terms.items()})


def dprimed(p: Polynomial) -> Poly:
    """p in the double-primed copies of its base variables."""
    return Poly({k << (2 * _BASE_BITS): c for k, c in p.terms.items()})


def to_ground_form(s: State) -> Poly:
    """The multilinear form A = sum a_{i1..i4} x^(1)_{i1} ... x^(4)_{i4}."""
    terms = {}
    for b, a in enumerate(s.amps):
        if a:
            key = 0
            for site in range(4):
                key |= 1 << (_W * (2 * site + ((b >> site) & 1)))
            terms[key] = a
    return Poly(terms)


def omega_power(p: Polynomial, site: int, times: int) -> Poly:
    """Apply Omega at one site `times` times to a primed/double-primed product."""
    if not 1 <= site <= 4:
        raise ValueError(f"site must be 1..4, got {site}")
    terms = p.terms
    s_p0 = _W * (8 + 2 * (site - 1))       # x'_{site,0}
    s_p1 = s_p0 + _W                       # x'_{site,1}
    s_d0 = _W * (16 + 2 * (site - 1))      # x''_{site,0}
    s_d1 = s_d0 + _W                       # x''_{site,1}
    for _ in range(times):
        out: dict = {}
        get = out.get
        for key, c in terms.items():
            e_p0 = (key >> s_p0) & _FIELD
            e_p1 = (key >> s_p1) & _FIELD
            e_d0 = (key >> s_d0) & _FIELD
            e_d1 = (key >> s_d1) & _FIELD
            if e_p0 and e_d1:
                k = key - (1 << s_p0) - (1 << s_d1)
                v = get(k, 0) + c * (e_p0 * e_d1)
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
            if e_p1 and e_d0:
                k = key - (1 << s_p1) - (1 << s_d0)
                v = get(k, 0) - c * (e_p1 * e_d0)
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        terms = out
        if not terms:
            break
    return Poly(terms)


def _erase_marks(terms: dict) -> dict:
    """tr: send primed and double-primed variables back to base."""
    out: dict = {}
    get = out.get
    for key, c in terms.items():
        k = (key & _BASE_MASK) + ((key >> _BASE_BITS) & _BASE_MASK) + (
            key >> (2 * _BASE_BITS)
        )
        v = get(k, 0) + c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def _check_degrees(B: Polynomial, C: Polynomial, idx) -> tuple | None:
    """Validate the index against operand degrees; return the expected
    multidegree of a nonzero result (None when an operand is zero)."""
    if len(idx) != 4:
        raise TransvectionError(f"transvection index must have 4 entries: {idx}")
    for p, label in ((B, "left"), (C, "right")):
        if any(key >> _BASE_BITS for key in p.terms):
            raise TransvectionError(f"{label} operand must involve base variables only")
    if B.is_zero() or C.is_zero():
        return None
    db = B.multidegree()
    dc = C.multidegree()
    for k in range(4):
        if idx[k] < 0 or idx[k] > min(db[k], dc[k]):
            raise TransvectionError(
                f"index {idx} exceeds operand degrees {db} x {dc} at site {k + 1}"
            )
    return tuple(db[k] + dc[k] - 2 * idx[k] for k in range(4))


def transvect(B: Polynomial, C: Polynomial, idx) -> Poly:
    """(B, C)^{i1 i2 i3 i4}: the transvection of two multibinary forms."""
    expected = _check_degrees(B, C, idx)
    if expected is None:
        return Poly()
    product = Poly(_mul_raw(primed(B).terms, dprimed(C).terms))
    for site in range(1, 5):
        if idx[site - 1]:
            product = omega_power(product, site, idx[site - 1])
            if product.is_zero():
                return Poly()
    result = Poly(_erase_marks(product.terms))
    if not result.is_zero() and result.multidegree() != expected:
        raise TransvectionError(
            f"degree law violated: got {result.multidegree()}, expected {expected}"
        )
    return result


def inv_B_transvectant(s: State):
    """B via (1/2)(A,A)^{1111}, the catalog's B_0000; equals inv_B."""
    return build_catalog().eval_covariant("B_0000", s).terms.get(0, 0)
