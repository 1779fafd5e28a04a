"""Exact sparse multivariate polynomial arithmetic.

The variables are the four pairs of binary variables x^(k) = (x^(k)_0,
x^(k)_1) attached to the four tensor sites, their primed and double-primed
working copies (which exist only while a transvection is being evaluated),
and one auxiliary pair (t_0, t_1) for binary forms produced by coefficient
extraction.  That is 26 variables in a fixed order:

    index 0..7    base      x^(1)_0, x^(1)_1, ..., x^(4)_1
    index 8..15   primed    same order
    index 16..23  double-primed
    index 24..25  auxiliary t_0, t_1

A monomial is stored as a single Python integer holding one 4-bit exponent
field per variable (index v occupies bits 4v..4v+3).  Multiplying two
monomials is then integer addition, so an exponent of 16 would carry
into the next variable's field (``x1_0**16`` would read as ``x1_1``).
``Polynomial.__mul__`` (and so ``**``) raises ``PolynomialError`` instead;
the raw kernels below are unchecked (see ``_mul_raw``).
A polynomial is a dict mapping monomial keys to nonzero coefficients; the
zero polynomial is the empty dict.  Coefficients are ints when possible,
otherwise Fraction or GaussianRational (or float in approximate mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import GaussianRational, normalize_scalar

COPY_BASE = 0
COPY_PRIMED = 1
COPY_DPRIMED = 2

N_VARS = 26

# Exponent field width in the packed monomial key.
_W = 4
_FIELD = (1 << _W) - 1


class PolynomialError(Exception):
    pass


class NonHomogeneousError(PolynomialError):
    """Raised when a sitewise multidegree is requested for a polynomial
    that is not multihomogeneous (a catalog bug, never a user error)."""


@dataclass(frozen=True, order=True)
class VariableId:
    """One binary variable: site 1..4 (0 = the auxiliary t pair),
    component 0|1, and which working copy it belongs to."""

    site: int
    component: int
    copy: int = COPY_BASE

    def __post_init__(self):
        if self.site == 0:
            if self.copy != COPY_BASE:
                raise ValueError("auxiliary t variables have no primed copies")
        elif not (1 <= self.site <= 4):
            raise ValueError(f"site must be 0..4, got {self.site}")
        if self.component not in (0, 1):
            raise ValueError(f"component must be 0 or 1, got {self.component}")
        if self.copy not in (COPY_BASE, COPY_PRIMED, COPY_DPRIMED):
            raise ValueError(f"bad copy tag {self.copy}")

    @property
    def index(self) -> int:
        if self.site == 0:
            return 24 + self.component
        return 8 * self.copy + 2 * (self.site - 1) + self.component


def var_name(index: int) -> str:
    if index >= 24:
        return f"t{index - 24}"
    copy, rest = divmod(index, 8)
    site, comp = divmod(rest, 2)
    marks = ("", "'", "''")
    return f"x{site + 1}_{comp}{marks[copy]}"


def x(site: int, component: int, copy: int = COPY_BASE) -> VariableId:
    return VariableId(site, component, copy)


def t(component: int) -> VariableId:
    return VariableId(0, component)


# ---------------------------------------------------------------------------
# Raw-dict kernels.  These operate on {key: coeff} dicts and are shared by
# the Polynomial wrapper and the transvection hot path.


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


def _scale_raw(a: dict, c) -> dict:
    if not c:
        return {}
    if c == 1:
        return dict(a)
    out = {}
    for k, v in a.items():
        s = normalize_scalar(v * c)
        if s:
            out[k] = s
    return out


def _mul_raw(a: dict, b: dict) -> dict:
    """The product, with no check of the exponent bound: the catalog's site
    degrees are at most 6, so its keys stay in range."""
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


def _exponents(key: int) -> list:
    """The N_VARS exponents packed in a monomial key, in variable order."""
    return [(key >> (_W * v)) & _FIELD for v in range(N_VARS)]


def _exponent_maxima(a: dict) -> list:
    """Per variable, the largest exponent among the keys of ``a`` ([] if none)."""
    return [max(column) for column in zip(*map(_exponents, a))]


def _diff_raw(a: dict, index: int) -> dict:
    shift = _W * index
    out = {}
    for k, c in a.items():
        e = (k >> shift) & _FIELD
        if e:
            out[k - (1 << shift)] = c * e
    return out


# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable-by-convention sparse polynomial over exact scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = normalize_scalar(c)
        return cls({0: c} if c else {})

    @classmethod
    def variable(cls, v: VariableId) -> "Polynomial":
        return cls({1 << (_W * v.index): 1})

    @classmethod
    def monomial(cls, coeff, exponents: dict) -> "Polynomial":
        """Build c * prod(v^e) from a {VariableId: exponent} map."""
        coeff = normalize_scalar(coeff)
        if not coeff:
            return cls({})
        key = 0
        for v, e in exponents.items():
            if e < 0:
                raise ValueError("negative exponent")
            if e > _FIELD:
                raise ValueError(f"exponent {e} exceeds field width")
            key += e << (_W * v.index)
        return cls({key: coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return Polynomial(_add_raw(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            # Some pair of monomials overflows exactly when the two maxima do.
            pairs = zip(_exponent_maxima(self.terms), _exponent_maxima(other.terms))
            if any(ea + eb > _FIELD for ea, eb in pairs):
                raise PolynomialError(f"an exponent would exceed {_FIELD}")
            return Polynomial(_mul_raw(self.terms, other.terms))
        return Polynomial(_scale_raw(self.terms, normalize_scalar(other)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def diff(self, v: VariableId) -> "Polynomial":
        return Polynomial(_diff_raw(self.terms, v.index))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def multidegree(self):
        """Sitewise degrees (d1, d2, d3, d4) over the base variables.

        Returns None for the zero polynomial.  Raises NonHomogeneousError
        if monomials disagree sitewise or if any primed / double-primed /
        auxiliary variable is present.
        """
        if not self.terms:
            return None
        result = None
        for key in self.terms:
            if key >> (_W * 8):
                raise NonHomogeneousError(
                    "multidegree is defined on base variables only"
                )
            degs = (
                ((key >> 0) & _FIELD) + ((key >> 4) & _FIELD),
                ((key >> 8) & _FIELD) + ((key >> 12) & _FIELD),
                ((key >> 16) & _FIELD) + ((key >> 20) & _FIELD),
                ((key >> 24) & _FIELD) + ((key >> 28) & _FIELD),
            )
            if result is None:
                result = degs
            elif result != degs:
                raise NonHomogeneousError(
                    f"not multihomogeneous: sitewise degrees {result} vs {degs}"
                )
        return result

    def coefficient(self, exponents: dict):
        """Coefficient of the monomial given as {VariableId: exponent}."""
        key = 0
        for v, e in exponents.items():
            key += e << (_W * v.index)
        return self.terms.get(key, 0)

    def sorted_terms(self):
        """Terms in graded-lexicographic order over the fixed variable order
        (highest total degree first; ties broken lexicographically)."""

        def gradekey(item):
            exps = _exponents(item[0])
            return (sum(exps), exps)

        return sorted(self.terms.items(), key=gradekey, reverse=True)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            factors = []
            for idx, e in enumerate(_exponents(key)):
                if e:
                    name = var_name(idx)
                    factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(_coeff_str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{_coeff_str(coeff)}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def _coeff_str(c) -> str:
    if isinstance(c, (Fraction, GaussianRational)):
        s = str(c)
        return f"({s})" if "/" in s or "i" in s else s
    return str(c)

