"""4-qubit states: amplitudes, encoding, cleared denominators, group actions.

A state is a tuple of 16 exact amplitudes a_{i1 i2 i3 i4} stored at index
b = i1 + 2*i2 + 4*i3 + 8*i4.  This index convention is frozen; every file
format and CLI surface documents it.  States are treated projectively by
the classifiers (global scale is ignored), so no normalization happens
anywhere.

Every one-site operation reads one table of site pairs (``_SITE_PAIRS``):
the local action, the census's GL2^4 reduction to a sparse integer image
(``_sparse_image``), and, in ``classify``, the Lie-algebra generators,
separable factors and tangent spaces.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isfinite, lcm

from .scalars import GaussianRational, exact_quotient, normalize_scalar


class StateError(Exception):
    pass


# Floats and Gaussian rationals do not multiply (``GaussianRational`` is
# exact), so no state, operator or action may mix them.
_FLOAT_GAUSSIAN = "float mode does not support complex amplitudes"


def _check_no_mix(scalars) -> None:
    """Raise ``StateError`` if ``scalars`` hold both a float and a
    GaussianRational."""
    scalars = tuple(scalars)
    if any(isinstance(a, float) for a in scalars) and any(
        isinstance(a, GaussianRational) for a in scalars
    ):
        raise StateError(_FLOAT_GAUSSIAN)


def _bits(b: int):
    return (b & 1, (b >> 1) & 1, (b >> 2) & 1, (b >> 3) & 1)


def _index(i1, i2, i3, i4) -> int:
    return i1 + 2 * i2 + 4 * i3 + 8 * i4


class State:
    """16 amplitudes of a 4-qubit state, indexed by b = i1+2*i2+4*i3+8*i4,
    cleared once, when built: ``scale`` is q, the lcm of the exact
    denominators of the ``Fraction`` and float amplitudes, and ``cleared``
    the integers q*a (``amps`` itself if every amplitude is an int, or if
    one is a Gaussian rational).  A finite float is a dyadic rational, so
    its denominator is a power of two and clearing it is exact.
    ``float_mode`` is set when an amplitude is a float; a float must be
    finite, since no nullity test can read NaN or inf.  Floats and
    Gaussian rationals cannot mix."""

    __slots__ = ("amps", "scale", "cleared", "float_mode")

    def __init__(self, amplitudes):
        # A list first: a tuple built from a generator grows by resizing, so
        # it never reuses CPython's free list of 16-tuples, yet each one
        # joins that list when freed.  The list then fills to its cap of
        # 2000 (about 0.3 MB) after a few thousand states.
        amps = tuple([a if type(a) is int else normalize_scalar(a) for a in amplitudes])
        if len(amps) != 16:
            raise StateError(f"need 16 amplitudes, got {len(amps)}")
        q = 1
        floats = gaussian = False
        for a in amps:
            if type(a) is int:
                continue
            _check_scalar(a, "amplitude")
            if isinstance(a, Fraction):
                q = lcm(q, a.denominator)
            elif isinstance(a, float):
                floats = True
                q = lcm(q, a.as_integer_ratio()[1])
            elif isinstance(a, GaussianRational):
                gaussian = True
        if floats and gaussian:
            raise StateError(_FLOAT_GAUSSIAN)
        self.amps = amps
        self.float_mode = floats
        if gaussian or (q == 1 and not floats):
            self.scale, self.cleared = 1, amps
        else:
            self.scale = q
            self.cleared = tuple([n * (q // d) for n, d in (a.as_integer_ratio() for a in amps)])

    def unscaled(self, x, div: int):
        """x / div, for an x computed on ``cleared``: exact, and on a float
        state rounded once to the nearest float, since int true division
        rounds correctly (past the float range it raises ``OverflowError``)."""
        if not self.float_mode:
            return exact_quotient(x, div)
        return x / div

    def __eq__(self, other):
        return isinstance(other, State) and self.amps == other.amps

    def __hash__(self):
        return hash(self.amps)

    def is_zero(self) -> bool:
        return not any(self.amps)

    def scaled(self, c) -> "State":
        return State(a * c for a in self.amps)

    def is_binary(self) -> bool:
        return all(a == 0 or a == 1 for a in self.amps)

    def __repr__(self):
        kets = []
        for b, a in enumerate(self.amps):
            if a:
                i = _bits(b)
                ket = f"|{i[0]}{i[1]}{i[2]}{i[3]}>"
                kets.append(ket if a == 1 else f"{a}*{ket}")
        return "State(" + (" + ".join(kets) or "0") + ")"

    # -- JSON format (see README for the schema) ----------------------------

    def to_json(self) -> str:
        if any(isinstance(a, GaussianRational) for a in self.amps):
            ser = []
            for a in self.amps:
                g = a if isinstance(a, GaussianRational) else GaussianRational(a)
                ser.append(
                    [
                        [g.re.numerator, g.re.denominator],
                        [g.im.numerator, g.im.denominator],
                    ]
                )
            return json.dumps({"amplitudes_c": ser})
        ser = [[Fraction(a).numerator, Fraction(a).denominator] for a in self.amps]
        return json.dumps({"amplitudes": ser})

    @classmethod
    def from_json(cls, text: str) -> "State":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
            raise StateError(f"malformed state JSON: {e}") from e
        if not isinstance(doc, dict):
            raise StateError("state JSON must be an object")
        if "form" in doc:
            return decode_form(doc["form"])
        if "amplitudes" in doc:
            return cls(_fraction(p) for p in _entries(doc, "amplitudes"))
        if "amplitudes_c" in doc:
            return cls(
                GaussianRational(*map(_fraction, _pair(p, "[re, im]")))
                for p in _entries(doc, "amplitudes_c")
            )
        raise StateError('state JSON needs "form", "amplitudes" or "amplitudes_c"')


def _check_scalar(a, what: str):
    """Raise unless ``a`` is an int (bools too), a Fraction, a finite float
    or a GaussianRational; a Python complex would compute in floats."""
    if isinstance(a, float):
        if not isfinite(a):
            raise StateError(f"{what} {a!r} is not finite")
    elif not isinstance(a, (int, Fraction, GaussianRational)):
        raise StateError(f"{what} {a!r} is not an int, Fraction, float or GaussianRational")


def _entries(doc: dict, key: str) -> list:
    raw = doc[key]
    if not isinstance(raw, list) or len(raw) != 16:
        raise StateError(f"{key} must list 16 entries")
    return raw


def _pair(p, what: str) -> list:
    if not isinstance(p, list) or len(p) != 2:
        raise StateError(f"amplitude entry {p!r} is not a {what} pair")
    return p


def _fraction(p) -> Fraction:
    """An exact rational from a JSON [numerator, denominator] pair."""
    num, den = _pair(p, "[numerator, denominator]")
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (num, den)):
        raise StateError(f"amplitude entry {p!r} is not a pair of integers")
    if den == 0:
        raise StateError(f"amplitude entry {p!r} has denominator 0")
    return Fraction(num, den)


def check_nonzero(s: State) -> State:
    """s itself, unless it is the zero state, which has no orbit to name."""
    if s.is_zero():
        raise StateError("the zero state is rejected")
    return s


def check_form(n) -> int:
    """n itself, if it names a {0,1} form: an int (not a bool) in 0..65535."""
    if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= 65535:
        raise StateError(f"form number must be in 0..65535, got {n!r}")
    return n


# The 8 bits of each byte value, least significant first.
_BYTE_BITS = tuple(tuple([(m >> b) & 1 for b in range(8)]) for m in range(256))


def decode_form(n: int) -> State:
    """The {0,1}-coefficient form named by n: amplitude at index b is bit b."""
    check_form(n)
    return State(_BYTE_BITS[n & 255] + _BYTE_BITS[n >> 8])


def encode_form(s: State) -> int:
    """Inverse of decode_form on {0,1} states."""
    if not s.is_binary():
        raise StateError("encode_form needs a {0,1}-amplitude state")
    return sum(1 << b for b, a in enumerate(s.amps) if a)


class LocalOperator:
    """One invertible 2x2 matrix per site, of the scalar kinds a ``State``
    accepts.  As in a ``State``, no matrix holds both a float and a
    Gaussian rational; different sites may, and ``apply_local`` rejects
    the mix when it acts."""

    __slots__ = ("factors",)

    def __init__(self, g1, g2, g3, g4):
        factors = []
        for k, g in enumerate((g1, g2, g3, g4), start=1):
            m = tuple(tuple(normalize_scalar(e) for e in row) for row in g)
            if len(m) != 2 or any(len(r) != 2 for r in m):
                raise StateError(f"factor {k} is not a 2x2 matrix")
            for e in m[0] + m[1]:
                _check_scalar(e, f"factor {k} entry")
            _check_no_mix(m[0] + m[1])
            if not _det2(m):
                raise StateError(f"factor {k} is singular")
            factors.append(m)
        self.factors = tuple(factors)

    def determinants(self):
        return tuple(_det2(g) for g in self.factors)

    def compose(self, other: "LocalOperator") -> "LocalOperator":
        """Sitewise matrix product self . other."""
        for a, b in zip(self.factors, other.factors):
            _check_no_mix(a[0] + a[1] + b[0] + b[1])
        return LocalOperator(*(
            _matmul2(a, b) for a, b in zip(self.factors, other.factors)
        ))

    @classmethod
    def identity(cls) -> "LocalOperator":
        eye = ((1, 0), (0, 1))
        return cls(eye, eye, eye, eye)


def _det2(m):
    return normalize_scalar(m[0][0] * m[1][1] - m[0][1] * m[1][0])


def _matmul2(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
        for i in range(2)
    )


def apply_local(g: LocalOperator, s: State) -> State:
    """Tensor action (g1 (x) g2 (x) g3 (x) g4)|s>, one site at a time; a
    float operator on a Gaussian state, or the reverse, is rejected as a
    ``State`` with both kinds is."""
    _check_no_mix((*(e for m in g.factors for e in m[0] + m[1]), *s.amps))
    amps = list(s.amps)
    for k, m in enumerate(g.factors):
        _act_on_site(amps, k, m)
    return State(amps)


# The index pairs (b, b | 2**k), bit k of b clear, in increasing b: the
# amplitudes that a 2x2 matrix at site k+1 mixes.
_SITE_PAIRS = tuple(
    tuple((b, b | 1 << k) for b in range(16) if not b >> k & 1) for k in range(4)
)


def _act_on_site(amps: list, k: int, m) -> None:
    """Apply the 2x2 matrix m at site k+1 of the 16-list amps, in place."""
    (m00, m01), (m10, m11) = m
    for i, j in _SITE_PAIRS[k]:
        a0, a1 = amps[i], amps[j]
        amps[i] = m00 * a0 + m01 * a1
        amps[j] = m10 * a0 + m11 * a1


# The shears of the census reduction (``atlas.signatures_for``): on each
# site, add or subtract the x_{k,1} slice into the x_{k,0} slice, or the
# reverse, as (target, source) index pairs of the changed slice.
_SHEARS = tuple(
    shear for pairs in _SITE_PAIRS for shear in (pairs, tuple((s, t) for t, s in pairs))
)
_FLIP_PERMS = tuple(tuple(b ^ m for b in range(16)) for m in range(16))


def _sparse_image(amps) -> tuple:
    """A sparse integer image of the state under SL2(Z)^4, keyed by flips.

    Greedy descent on (nonzero count, sum of |a|): of the 16 moves
    ``a[t] += c * a[s]`` for (t, s) in one shear slice and c = +-1, take the
    first best one that strictly lowers that pair, until none does; the pair
    lies in N x N, so this stops.  The result is the least of its 16 bit-flip
    images.  Each move is the site matrix [[1, c], [0, 1]] or
    [[1, 0], [c, 1]], of det 1, and each flip has det -1.
    """
    a = list(amps)
    while True:
        best = None
        for pairs in _SHEARS:
            for c in (1, -1):
                dn = ds = 0
                for t, s in pairs:
                    old, new = a[t], a[t] + c * a[s]
                    dn += (new != 0) - (old != 0)
                    ds += abs(new) - abs(old)
                if (dn, ds) < (0, 0) and (best is None or (dn, ds) < best[0]):
                    best = ((dn, ds), pairs, c)
        if best is None:
            break
        _, pairs, c = best
        for t, s in pairs:
            a[t] += c * a[s]
    return min(tuple([a[b] for b in perm]) for perm in _FLIP_PERMS)


def _tensor(vectors) -> list:
    """v1 (x) v2 (x) v3 (x) v4 as a 16-list: site k+1 of |0000> goes to v_k."""
    amps = [1] + [0] * 15
    for k, (v0, v1) in enumerate(vectors):
        _act_on_site(amps, k, ((v0, 0), (v1, 0)))
    return amps


class QubitPermutation:
    """A permutation of the four tensor sites, stored as the image tuple
    (sigma(1), ..., sigma(4))."""

    __slots__ = ("images",)

    def __init__(self, images):
        img = tuple(images)
        if sorted(img) != [1, 2, 3, 4]:
            raise StateError(f"not a permutation of 1..4: {img}")
        self.images = img

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def compose(self, other: "QubitPermutation") -> "QubitPermutation":
        """self after other."""
        return QubitPermutation(tuple(self.images[other.images[k] - 1] for k in range(4)))

    @classmethod
    def identity(cls):
        return cls((1, 2, 3, 4))

    def __eq__(self, other):
        return isinstance(other, QubitPermutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"QubitPermutation{self.images}"


def permute_qubits(sigma: QubitPermutation, s: State) -> State:
    """Move amplitude a_{i1 i2 i3 i4} to index (i_{sigma^-1(1)}, ...)."""
    out = [0] * 16
    for jb in range(16):
        j = _bits(jb)
        src = _index(j[sigma(1) - 1], j[sigma(2) - 1], j[sigma(3) - 1], j[sigma(4) - 1])
        out[jb] = s.amps[src]
    return State(out)


def random_state(seed) -> State:
    """Reproducible pseudo-random state with small integer amplitudes."""
    rng = random.Random(seed)
    while True:
        amps = tuple(rng.randint(-4, 4) for _ in range(16))
        if any(amps):
            return State(amps)


def random_sl2_tuple(seed) -> LocalOperator:
    """Random SL2^4 element built from unit-triangular factors, det = 1."""
    rng = random.Random(seed)
    mats = []
    for _ in range(4):
        m = ((1, 0), (0, 1))
        for _ in range(3):
            b = rng.randint(-3, 3)
            upper = ((1, b), (0, 1)) if rng.random() < 0.5 else ((1, 0), (b, 1))
            m = _matmul2(m, upper)
        mats.append(m)
    return LocalOperator(*mats)
