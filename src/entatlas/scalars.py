"""Exact scalar coefficients: rationals and Gaussian rationals.

All exact computation in this package runs over the rationals (Python ints
and ``fractions.Fraction``) or, for complex amplitudes, over Gaussian
rationals a + b*i with rational a, b.  Floats are accepted only in the
opt-in approximate evaluation mode: a float state is cleared to the exact
integers of its dyadic amplitudes (``qstate.State``), and only its
results are rounded to floats.

``normalize_scalar`` keeps the integer fast path hot: a Fraction with
denominator 1 collapses back to int, and a Gaussian rational with zero
imaginary part collapses to its real part.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        """Power by a non-negative integer exponent (repeated squaring)."""
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            return NotImplemented
        result, base = GaussianRational(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, GaussianRational):
            n = other.re * other.re + other.im * other.im
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return self * GaussianRational(other.re / n, -other.im / n)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) / self
        return NotImplemented

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"


def normalize_scalar(c):
    """Collapse a scalar to its simplest exact representation."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, GaussianRational):
        if c.im == 0:
            return normalize_scalar(c.re)
        return c
    return c


def exact_quotient(a, b):
    """a / b as the simplest scalar: int/int gives an int when b divides a
    and a ``Fraction`` otherwise, any other pair uses its own ``/`` and is
    collapsed by ``normalize_scalar`` (a Gaussian quotient with zero
    imaginary part comes back rational); floats pass through."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return normalize_scalar(a / b)


def format_rational(c) -> str:
    """Render an exact rational as "p" or "p/q"."""
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"

