"""Transvection of multibinary forms via the Cayley Omega process.

``transvect`` follows the defining recipe literally: rename the left
operand's variables to primed copies and the right operand's to
double-primed copies, multiply, apply the determinant-of-derivatives
operator Omega at each site the requested number of times, and finally
erase the marks (substitute both copies back to the base variables).

This literal route is the test oracle.  Catalog evaluation uses one
kernel, ``EvalSession._transvect_ground``: every catalog term is
(A, X)^idx with idx in {0,1}^4 (checked when the catalog is loaded), so
Omega^idx expands into signed products of ground-form slices and
first derivatives of X.  Tests pin exact agreement between the two.

In the packed monomial keys the base block occupies bits 0..31, so
renaming to primed / double-primed copies is a shift by 32 / 64 bits and
the erasure is integer addition of the two blocks.
"""

from __future__ import annotations

from .poly import _FIELD, _W, Polynomial, _mul_raw

_BASE_BITS = _W * 8
_BASE_MASK = (1 << _BASE_BITS) - 1


class TransvectionError(Exception):
    """An index exceeded an operand degree: the catalog entry is malformed."""


def _require_base_only(p: Polynomial, label: str):
    for key in p.terms:
        if key >> _BASE_BITS:
            raise TransvectionError(
                f"{label} operand must involve base variables only"
            )


def omega_power(p: Polynomial, site: int, times: int) -> Polynomial:
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
    return Polynomial(terms)


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
    _require_base_only(B, "left")
    _require_base_only(C, "right")
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


def transvect(B: Polynomial, C: Polynomial, idx) -> Polynomial:
    """(B, C)^{i1 i2 i3 i4}: the transvection of two multibinary forms."""
    expected = _check_degrees(B, C, idx)
    if expected is None:
        return Polynomial.zero()
    primed = {key << _BASE_BITS: c for key, c in B.terms.items()}
    dprimed = {key << (2 * _BASE_BITS): c for key, c in C.terms.items()}
    product = Polynomial(_mul_raw(primed, dprimed))
    for site in range(1, 5):
        if idx[site - 1]:
            product = omega_power(product, site, idx[site - 1])
            if product.is_zero():
                return Polynomial.zero()
    result = Polynomial(_erase_marks(product.terms))
    if result and result.multidegree() != expected:
        raise TransvectionError(
            f"degree law violated: got {result.multidegree()}, expected {expected}"
        )
    return result

