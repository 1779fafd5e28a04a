"""Exact sparse multivariate polynomials: the output map of evaluation.

The variables are the four pairs of binary variables x^(k) = (x^(k)_0,
x^(k)_1) attached to the four tensor sites and one auxiliary pair
(t_0, t_1) for binary forms produced by coefficient extraction.  That is
10 variables in a fixed order:

    index 0..7   x^(1)_0, x^(1)_1, ..., x^(4)_1
    index 8..9   t_0, t_1

A monomial is stored as a single Python integer holding one 4-bit exponent
field per variable (index v occupies bits 4v..4v+3), so an exponent of 16
would carry into the next variable's field (``x1_0**16`` would read as
``x1_1``).  ``monomial`` and ``coefficient`` reject an exponent outside
0..15 with ``ValueError``; the catalog's evaluation kernel, which owns the
raw dict arithmetic, is unchecked (see
``catalog.EvalSession._transvect_ground``).
A polynomial is a dict mapping monomial keys to nonzero coefficients; the
zero polynomial is the empty dict.  Coefficients are ints when possible,
otherwise Fraction or GaussianRational (or float in approximate mode).
``Polynomial`` wraps such a dict for printing and queries; it has no ring
operations.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalars import GaussianRational, normalize_scalar

N_VARS = 10

# Exponent field width in the packed monomial key.
_W = 4
_FIELD = (1 << _W) - 1


class NonHomogeneousError(Exception):
    """Raised when a sitewise multidegree is requested for a polynomial
    that is not multihomogeneous (a catalog bug, never a user error)."""


class VariableId(namedtuple("VariableId", "site component")):
    """One binary variable: site 1..4 (0 = the auxiliary t pair) and
    component 0|1."""

    __slots__ = ()

    def __new__(cls, site: int, component: int):
        if not 0 <= site <= 4:
            raise ValueError(f"site must be 0..4, got {site}")
        if component not in (0, 1):
            raise ValueError(f"component must be 0 or 1, got {component}")
        return super().__new__(cls, site, component)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: both check the range too.
        return cls(*iterable)

    @property
    def index(self) -> int:
        if self.site == 0:
            return 8 + self.component
        return 2 * (self.site - 1) + self.component


def var_name(index: int) -> str:
    if index >= 8:
        return f"t{index - 8}"
    site, comp = divmod(index, 2)
    return f"x{site + 1}_{comp}"


def x(site: int, component: int) -> VariableId:
    return VariableId(site, component)


def t(component: int) -> VariableId:
    return VariableId(0, component)


def _monomial_key(exponents: dict) -> int:
    """The packed key of {VariableId: exponent}; an exponent outside 0..15
    would not fit its field, so it raises instead of naming another key."""
    key = 0
    for v, e in exponents.items():
        if not 0 <= e <= _FIELD:
            raise ValueError(f"exponent {e} is outside 0..{_FIELD}")
        key += e << (_W * v.index)
    return key


def _exponents(key: int) -> list:
    """The N_VARS exponents packed in a monomial key, in variable order."""
    return [(key >> (_W * v)) & _FIELD for v in range(N_VARS)]


# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable-by-convention sparse polynomial over exact scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = normalize_scalar(c)
        return cls({0: c} if c else {})

    @classmethod
    def monomial(cls, coeff, exponents: dict) -> "Polynomial":
        """Build c * prod(v^e) from a {VariableId: exponent} map."""
        coeff = normalize_scalar(coeff)
        if not coeff:
            return cls({})
        return cls({_monomial_key(exponents): coeff})

    # -- queries -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def multidegree(self):
        """Sitewise degrees (d1, d2, d3, d4) over the site variables.

        Returns None for the zero polynomial.  Raises NonHomogeneousError
        if monomials disagree sitewise or if a key has bits past the eight
        site fields (a t variable).
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
        return self.terms.get(_monomial_key(exponents), 0)

    def sorted_terms(self):
        """Terms in graded-lexicographic order over the fixed variable order
        (highest total degree first; ties broken lexicographically)."""

        def gradekey(item):
            exps = _exponents(item[0])
            return (sum(exps), exps)

        return sorted(self.terms.items(), key=gradekey, reverse=True)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        """Terms in ``sorted_terms`` order, joined by " + ", or by " - " when
        an int, float or Fraction coefficient is negative.  A Gaussian
        coefficient keeps its "(a+bi)" form after " + ": a complex number
        has no sign to fold."""
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
    if isinstance(c, Fraction) and c < 0:
        return f"-{_coeff_str(-c)}"
    if isinstance(c, (Fraction, GaussianRational)):
        s = str(c)
        return f"({s})" if "/" in s or "i" in s else s
    return str(c)
