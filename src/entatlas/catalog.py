"""The covariant catalog: a data-driven dependency DAG of transvections.

The catalog ships as ``data/covariants.txt`` (hash-pinned) and is parsed
and validated once, at load (``Catalog._validate``): every term must have
the shape (A, X)^idx with idx in {0,1}^4, each index must fit the degrees
of its operands, every entry's declared multidegree must match the
sitewise degree law of each of its summands, references must point to
already-defined entries, and the per-degree census must match the known
counts (170 covariants in degrees 1..12).

``EvalSession`` evaluates covariants on one concrete state, memoizing
every intermediate value as a plain ``{monomial key: coefficient}`` dict
(the ``poly`` packing); a ``Polynomial`` is built only by the public
``eval``.  Amplitudes are substituted first, so all intermediates are
small polynomials in the 8 base variables.  Rational and float
amplitudes are first scaled to integers (a finite float is a dyadic
rational), and the session memoizes lam_C * C, where the integer lam_C
(1 for A, 2 or 6 for the rest) is derived at load together with integer
term coefficients, so int, ``Fraction`` and float states are evaluated in
``int`` arithmetic only, and a float state's results are rounded once, at
the end (see ``EvalSession`` for the proofs).  Because of the validated
term shape, one kernel evaluates every term, and it is the package's only
transvection: the ground-form-specialized ``EvalSession._transvect_ground``.
The ground form is multilinear, so a term (key, c) of rhs and an amplitude
a_b give a_b * f * c at a fixed offset from key, where f reads only the
exponents of key at the index sites (the per-site rule, proved there).
The state-free part, (b, offset, +-f) with f != 0 per index and exponent
pattern, is built once per process (``_feed_table``); each session
memoizes, per index and pattern, the (offset, +-a_b * f) pairs it gives
with the cleared amplitudes, and the kernel adds them straight into the
covariant's one sum.  Only the order of exact sums and of a value's keys
changes, which no output reads.  The tests pin the kernel against the
literal Omega process (``tests/omega_oracle.py``) on every scalar kind.
The kernel trusts the load-time checks and repeats none of them; the one
check left at evaluation runs once per covariant, where its value is
memoized (``EvalSession._value``): every key lies in the eight site
fields and has the declared multidegree, compared as packed site degrees,
and a value that fails raises ``CatalogError``.
``Catalog.session`` hands out a new session on every call and the catalog
keeps none, so a caller that reads one state several times holds its
session.  States evaluate independently in parallel: what sessions share
is the feed tables, immutable tuples that read no state.  The composite
vectors V, V'' and W are tables of covariant groups (``V_SPEC``,
``VPP_SPEC``, ``W_SPEC``) decided by one rule, ``EvalSession.bits``, which
builds no sum or product polynomial: the summands of a group have distinct
multidegrees, and a product's bit is the conjunction of its factors' bits.

The basis is not closed under qubit permutations, so nullities need not
follow one.  The degree-4 D_{2200} family is (A, C1_1111)^idx, and
C1_1111 = (A, B_2200)^{1100} + (A, B_0022)^{0011} pairs sites 1 with 2 and
3 with 4.  Swapping sites 2 and 4 sends C1_1111 to C2_1111, so it sends
D_0220 = (A, C1_1111)^{1001} to (A, C2_1111)^{1100}, not to
D_0022 = (A, C1_1111)^{1100}.  On form 7720, D_0220 vanishes while D_0022
of its image does not.  The census therefore quotients by bit flips,
which act inside GL2^4 (see ``atlas.signatures_for``), and not by qubit
permutations.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .poly import _FIELD, _W, Polynomial
from .qstate import State

CATALOG_SHA256 = "463be493fd9067b5eed551d7b06d3fb79c7d86bcf32a20ed053606ac8ec537f6"

_CENSUS = {1: 1, 2: 7, 3: 6, 4: 20, 5: 13, 6: 27, 7: 22, 8: 24, 9: 24, 10: 12, 11: 10, 12: 4}

_ID_RE = re.compile(r"^([A-L])([123]?)_(\d)(\d)(\d)(\d)$")

# Float mode: a value is nonzero when its largest coefficient magnitude
# exceeds this absolute bound (the invariants scale it, see
# ``invariants.Generators.nonzero``; the covariant bits do not).
FLOAT_TOLERANCE = 1e-9


class CatalogError(Exception):
    pass


class CovariantId(namedtuple("CovariantId", "letter multidegree variant", defaults=(0,))):
    __slots__ = ()

    def __str__(self):
        if self.letter == "A" and self.multidegree == (1, 1, 1, 1):
            return "A"
        v = str(self.variant) if self.variant else ""
        return f"{self.letter}{v}_" + "".join(str(d) for d in self.multidegree)

    @classmethod
    def parse(cls, text: str) -> "CovariantId":
        if text == "A":
            return cls("A", (1, 1, 1, 1), 0)
        m = _ID_RE.match(text)
        if not m:
            raise CatalogError(f"bad covariant id {text!r}")
        letter, variant = m.group(1), m.group(2)
        mdeg = tuple(int(m.group(i)) for i in range(3, 7))
        return cls(letter, mdeg, int(variant) if variant else 0)


GROUND_ID = CovariantId("A", (1, 1, 1, 1), 0)


class CovariantDef(
    namedtuple("CovariantDef", "cid adeg terms lam int_coefs packed", defaults=(1, (), 0))
):
    """One catalog entry: a rational combination of transvections.

    ``adeg`` is the degree in the state coefficients and ``terms`` holds
    (Fraction coef, lhs CovariantId, rhs CovariantId, idx) tuples.
    ``Catalog._validate`` sets the last three fields in the catalog's own
    copy: lam * C has integer coefficients on integer amplitudes,
    int_coefs[t] = lam * coef_t / lam_rhs_t is the coefficient of term t
    in that sum, and packed is ``_packed(cid.multidegree)``, which
    ``_check_multidegree`` compares with."""

    __slots__ = ()

    @property
    def is_ground(self):
        return not self.terms


def _parse_line(line: str, ids: dict | None = None):
    """One catalog entry from one line; ``ids`` memoizes the parsed ids
    across the lines of one file."""
    if ids is None:
        ids = {}

    def parse(text):
        cid = ids.get(text)
        if cid is None:
            cid = ids[text] = CovariantId.parse(text)
        return cid

    fields = line.split()
    cid = parse(fields[0])
    if len(fields) < 3:
        raise CatalogError(f"{cid}: need an id, a multidegree and terms")
    terms, term = [], None
    # A ValueError from int(), Fraction or a term's split names the field
    # it was raised on: the multidegree field, or else the current term.
    try:
        mdeg = tuple(int(ch) for ch in fields[1])
        if len(fields[1]) != 4:
            raise CatalogError(f"{cid}: bad multidegree field {fields[1]!r}")
        if mdeg != cid.multidegree:
            raise CatalogError(f"{cid}: id and multidegree field disagree")
        if fields[2] == "GROUND":
            return CovariantDef(cid, 1, ())
        for term in fields[2:]:
            coef_s, lhs_s, rhs_s, idx_s = term.split(":")
            idx = tuple(int(ch) for ch in idx_s)
            if len(idx) != 4:
                raise CatalogError(f"{cid}: bad index {idx_s!r}")
            terms.append((Fraction(coef_s), parse(lhs_s), parse(rhs_s), idx))
    except ValueError as e:
        field = f"multidegree field {fields[1]!r}" if term is None else f"term {term!r}"
        raise CatalogError(f"{cid}: bad {field}") from e
    return CovariantDef(cid, 0, tuple(terms))


class Catalog:
    """All covariant definitions, validated and topologically ordered."""

    def __init__(self, defs):
        self.order = [d.cid for d in defs]
        self.defs = {d.cid: d for d in defs}
        self._validate()

    def __contains__(self, cid):
        return cid in self.defs

    def __len__(self):
        return len(self.defs)

    def _validate(self):
        """Every check the evaluation kernel relies on, run once at load."""
        if len(self.order) != len(set(self.order)):
            raise CatalogError("duplicate catalog ids")
        resolved = {}
        for cid in self.order:
            d = self.defs[cid]
            if d.is_ground:
                resolved[cid] = 1
                if cid != GROUND_ID:
                    raise CatalogError(f"unexpected ground entry {cid}")
                self.defs[cid] = d._replace(packed=_packed(cid.multidegree))
                continue
            adegs = set()
            lam = 1
            for coef, lhs, rhs, idx in d.terms:
                if lhs != GROUND_ID or max(idx) > 1:
                    raise CatalogError(
                        f"{cid}: term ({lhs},{rhs})^{idx} is not of the form "
                        f"(A, X)^idx with idx in {{0,1}}^4"
                    )
                for ref in (lhs, rhs):
                    if ref not in resolved:
                        raise CatalogError(
                            f"{cid}: reference {ref} not defined earlier (DAG break)"
                        )
                ldeg = self.defs[lhs].cid.multidegree
                rdeg = self.defs[rhs].cid.multidegree
                for k in range(4):
                    if idx[k] > min(ldeg[k], rdeg[k]):
                        raise CatalogError(
                            f"{cid}: index {idx} exceeds degrees {ldeg} x {rdeg}"
                        )
                law = tuple(ldeg[k] + rdeg[k] - 2 * idx[k] for k in range(4))
                if law != cid.multidegree:
                    raise CatalogError(
                        f"{cid}: degree law gives {law} for term "
                        f"({lhs},{rhs})^{idx}, declared {cid.multidegree}"
                    )
                adegs.add(resolved[lhs] + resolved[rhs])
                # lam is the lcm of the reduced denominators of coef / lam_rhs.
                den = coef.denominator * self.defs[rhs].lam
                lam = lcm(lam, den // gcd(coef.numerator, den))
            if len(adegs) != 1:
                raise CatalogError(f"{cid}: terms disagree on coefficient degree")
            resolved[cid] = adegs.pop()
            self.defs[cid] = d._replace(adeg=resolved[cid], lam=lam, int_coefs=tuple(
                lam * coef.numerator // (coef.denominator * self.defs[rhs].lam)
                for coef, _, rhs, _ in d.terms
            ), packed=_packed(cid.multidegree))
        census = {}
        for cid in self.order:
            census[self.defs[cid].adeg] = census.get(self.defs[cid].adeg, 0) + 1
        if census != _CENSUS:
            raise CatalogError(f"per-degree census {census} != expected {_CENSUS}")

    # -- evaluation ----------------------------------------------------------

    # The methods below taking a state are one-shot helpers: each opens a
    # new session, which rebuilds its values and feeds memo (only the
    # state-free feed tables outlive it), so a caller reading one state
    # several times should hold ``session(state)`` instead.

    def session(self, state: State) -> "EvalSession":
        """A new evaluation session on ``state``."""
        return EvalSession(self, state)

    def eval_covariant(self, cid, state: State) -> Polynomial:
        return self.session(state).eval(cid)

    def signature(self, state: State, cids) -> tuple:
        return self.session(state).signature(cids)

    def vector_T(self, state: State) -> tuple:
        return self.signature(state, T_IDS)

    def vector_V(self, state: State) -> tuple:
        return self.session(state).vector_V()

    def vector_Vp(self, state: State) -> tuple:
        return self.signature(state, VPRIME_IDS)

    def vector_Vpp(self, state: State) -> tuple:
        return self.session(state).vector_Vpp()

    def vector_W(self, state: State) -> tuple:
        return self.session(state).vector_W()


def _read_data(name: str) -> str:
    """The text of ``data/<name>`` next to this module (not in a zip)."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


_cached = None


def build_catalog() -> Catalog:
    """Check the pinned hash, parse, validate and return the catalog
    (cached per process)."""
    global _cached
    if _cached is not None:
        return _cached
    text = _read_data("covariants.txt")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != CATALOG_SHA256:
        raise CatalogError(
            f"catalog file hash {digest} does not match pinned {CATALOG_SHA256}"
        )
    defs = []
    ids = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            defs.append(_parse_line(line, ids))
    _cached = Catalog(defs)
    return _cached


# Both exponent fields of site 1, and the x_{k,0} field of every site: the
# packed site degrees of a key k are (k & _LOW) + ((k >> _W) & _LOW), one
# byte per site (see ``_check_multidegree``).
_SITE_FIELDS = (1 << (2 * _W)) - 1
_LOW = sum(_FIELD << (2 * _W * k) for k in range(4))

# Per index, the mask of both exponent fields of every index site: ``key &
# _KEY_MASKS[idx]`` is the key's exponent pattern on the index sites.
_KEY_MASKS = {
    idx: sum(_SITE_FIELDS << (2 * _W * k) for k in range(4) if idx[k])
    for idx in (tuple((m >> k) & 1 for k in range(4)) for m in range(16))
}

# (idx, pattern) -> ``_feed_table(idx, pattern)``, filled on first use and
# kept for the process.
_FEED_TABLES = {}


def _feed_table(idx, pattern) -> tuple:
    """The state-free part of what an rhs key with the index-site exponent
    pattern ``pattern`` feeds under the index ``idx``: one (b, offset, +-f)
    per amplitude index b with f != 0, in increasing (selector, b), where
    the selector is the bits of b on the index sites.

    By the per-site rule (``EvalSession._transvect_ground``), the offset is
    +x_{k,b_k} on the other sites and -x_{k,1-b_k} on the index sites, f is
    the product of the pattern's exponents of x_{k,1-b_k} over the index
    sites, and the sign is -1 to the number of index sites with b_k = 1.
    None of these read the state, so the table is built once per process,
    on first use, and kept in ``_FEED_TABLES``: at most 730 (idx, pattern)
    pairs for the catalog's terms, and the ground form's (0, 0, 0, 0), 0.
    It is an immutable tuple, so threads that race on a pair only build an
    equal table twice."""
    table = _FEED_TABLES.get((idx, pattern))
    if table is not None:
        return table
    mask = sum(1 << k for k in range(4) if idx[k])
    rows = []
    for b in sorted(range(16), key=lambda b: (b & mask, b)):
        offset, f = 0, 1
        for k in range(4):
            bit = (b >> k) & 1
            if idx[k]:
                shift = _W * (2 * k + 1 - bit)
                offset -= 1 << shift
                f *= (pattern >> shift) & _FIELD
                if bit:
                    f = -f
            else:
                offset += 1 << (_W * (2 * k + bit))
        if f:
            rows.append((b, offset, f))
    table = _FEED_TABLES[(idx, pattern)] = tuple(rows)
    return table


def _packed(multidegree) -> int:
    """A multidegree packed as the site degrees of a key are: one byte per
    site."""
    return sum(d << (2 * _W * k) for k, d in enumerate(multidegree))


def _unpacked(packed: int) -> tuple:
    return tuple((packed >> (2 * _W * k)) & _SITE_FIELDS for k in range(4))


def _check_multidegree(d: CovariantDef, value: dict) -> None:
    """Raise ``CatalogError`` unless every key of the nonzero ``value`` lies
    in the eight site fields and has the sitewise degrees of
    ``d.cid.multidegree``, packed once at load as ``d.packed``.

    This is as strict as ``Polynomial.multidegree`` and cheaper: it builds
    no polynomial and no tuple per key.  A key in 0..2^32 - 1 holds only
    the site fields, and for it (key & _LOW) + ((key >> _W) & _LOW) holds
    in byte j the degree e_{j,0} + e_{j,1} of site j + 1.  That degree is
    at most 30, so no byte carries into the next, and two keys' packed
    degrees are equal exactly when all four site degrees are."""
    cid = d.cid
    if min(value) < 0 or max(value) >> (8 * _W):
        raise CatalogError(
            f"{cid}: evaluated multidegree undefined: a key lies outside the eight site fields"
        )
    degrees = {(k & _LOW) + ((k >> _W) & _LOW) for k in value}
    if degrees != {d.packed}:
        found = ", ".join(str(_unpacked(p)) for p in sorted(degrees))
        raise CatalogError(f"{cid}: evaluated multidegree {found} != declared {cid.multidegree}")


class EvalSession:
    """Memoized evaluation of catalog covariants on one state.

    Values are plain ``{monomial key: coefficient}`` dicts; only ``eval``
    wraps one in a ``Polynomial``.

    Cleared denominators: on a state whose amplitudes are all rational
    (``int``, ``Fraction`` or float, since a finite float is a dyadic
    rational), the session evaluates the catalog on the integer amplitudes
    q*A, q the lcm of their exact denominators, which the state computed
    when it was built (``State.scale`` and ``State.cleared``).  This is
    exact.  Every covariant C is homogeneous of degree ``adeg`` in the
    amplitudes: a term (A, X)^idx is bilinear in A and X, and
    ``Catalog._validate`` checks at load that all terms of an entry have
    the same degree, so by induction over the DAG C(qA) = q^adeg * C(A).
    Gaussian states are evaluated as given (``scale`` 1).

    Integer-scaled values: on every state the memoized value of C is
    lam_C * C, with lam_C and the term coefficients
    k_t = lam_C * coef_t / lam_X from
    ``Catalog._validate``, so the catalog's 1/2 and 1/3 never enter and an
    integer state never builds a ``Fraction``.  Each k_t is an integer,
    because lam_C is the lcm of the reduced denominators of the
    coef_t / lam_X.  By induction over the DAG: lam_A * A = A, and if every
    earlier value is lam_X * X, then sum_t k_t * (A, lam_X * X)^idx =
    lam_C * sum_t coef_t * (A, X)^idx = lam_C * C, by bilinearity.  On
    integer amplitudes each value has integer coefficients, by the same
    induction: A does, the kernel only differentiates (multiplying by an
    exponent), multiplies, adds and negates, and each k_t is an integer.
    On this catalog every k_t is +1 or -1, so each exact value is a signed
    sum of its terms, added straight into one dict per covariant; the sums
    that cancel are dropped once, in ``_value``.  Nullity bits and
    signatures read these values directly, since a nonzero scale changes
    no zero test; ``eval`` divides by lam_C * q^adeg.

    The feeds memo (``_feeds``), the session's one kernel memo beside the
    values: per index and index-site exponent pattern, the (offset,
    +-a_b * f) pairs the kernel adds for every rhs term of that pattern,
    the process-wide ``_feed_table`` of that pair with each +-f multiplied
    by the cleared amplitude a_b, and the pairs with a_b = 0 left out.
    The table holds only immutable, state-free tuples; the memo, like the
    values, is the session's own.

    Float states: the memoized values are the exact integers
    lam_C * q^adeg * C, by the two inductions above, so the order in which
    the kernel sums them changes nothing.  Each result is rounded once:
    ``eval`` and ``_bit`` divide by lam_C * q^adeg with
    ``State.unscaled``, whose int true division rounds the exact quotient
    correctly.  A float value is therefore
    the nearest float to C on the amplitudes as given, and its bit and
    margin are ``FLOAT_TOLERANCE``'s rule applied to that value.
    """

    def __init__(self, catalog: Catalog, state: State):
        self.catalog = catalog
        self.float_mode = state.float_mode
        self.scale = state.scale
        self._amps = state.cleared
        self._unscaled = state.unscaled
        self._feeds = {}
        # With no index site every f is +1, in increasing b.
        self._values = {GROUND_ID: {
            offset: a for b, offset, _ in _feed_table((0, 0, 0, 0), 0) if (a := self._amps[b])
        }}
        self.min_margin = float("inf")

    def _transvect_ground(self, acc: dict, rhs: dict, idx, coef) -> dict:
        """acc + coef * (A, rhs)^idx with idx in {0,1}^4, by the per-site
        rule, updating acc in place.

        A is the session's ground form, the one on the cleared amplitudes;
        its coefficients are integers on int, ``Fraction`` and float
        states, and Gaussian rationals on Gaussian states.
        The caller guarantees what ``Catalog._validate`` proves for every
        catalog term: idx fits the degrees of A and rhs, and the result,
        when nonzero, has the multidegree the degree law gives.

        Per-site rule.  Omega at an index site k is
        d/dx'_{k,0} d/dx''_{k,1} - d/dx'_{k,1} d/dx''_{k,0}.  A is
        multilinear, so its monomial a_b * prod_k x_{k,b_k} survives only
        the derivative in x_{k,b_k}, which removes that variable with
        factor 1, and only the term of Omega in which rhs takes the
        derivative in x_{k,1-b_k}, with sign -1 if b_k = 1.  On a monomial
        of rhs with m_k = deg x_{k,1} at a site of degree d_k, that is:
        m_k goes down with factor m_k if b_k = 0, and stays with factor
        d_k - m_k if b_k = 1.  So the term (key, c) of rhs and the amplitude
        a_b give a_b * f * c at key + offset_b, where f is the product of
        the exponents of x_{k,1-b_k} in key over the index sites, and
        offset_b and the sign are those of ``_feed_table``.

        One loop over the terms of rhs.  f reads only the exponents of key
        at the index sites, ``key & key_mask``, so that pattern fixes the
        (offset_b, +-a_b * f) pairs for every b.  The session keeps them
        per idx and pattern, built on the first key of the pattern from the
        process-wide ``_feed_table`` and the cleared amplitudes, and each
        term adds a_b * f * coef * c at key + offset_b straight into acc,
        coef being +1 or -1.  These are
        the products of the Omega expansion summed in another order: exact
        sums do not depend on it, a sum that cancels stays in acc as a zero
        until ``_value`` drops it, and only the order of the keys in acc
        changes, which no output reads (``Polynomial`` prints its terms
        sorted, and every bit is a zero test)."""
        memo = self._feeds.get(idx)
        if memo is None:
            memo = self._feeds[idx] = {}
        key_mask = _KEY_MASKS[idx]
        amps = self._amps
        get = acc.get
        for key, c in rhs.items():
            pattern = key & key_mask
            feeds = memo.get(pattern)
            if feeds is None:
                feeds = memo[pattern] = tuple([
                    (offset, a * f) for b, offset, f in _feed_table(idx, pattern) if (a := amps[b])
                ])
            if coef != 1:
                c = coef * c
            for offset, af in feeds:
                k = key + offset
                acc[k] = get(k, 0) + af * c
        return acc

    def eval(self, cid) -> Polynomial:
        """The covariant ``cid`` on the session's state, in a new dict (the
        memo is not handed out).  On a float state each coefficient is
        rounded once, one that rounds to 0.0 is dropped, and one past the
        float range raises ``OverflowError``."""
        if isinstance(cid, str):
            cid = CovariantId.parse(cid)
        value = self._value(cid)
        div = self._divisor(cid)
        unscaled = self._unscaled
        return Polynomial({k: r for k, c in value.items() if (r := unscaled(c, div))})

    def _divisor(self, cid) -> int:
        """lam_C * q^adeg: the memoized value of ``cid`` over the covariant
        itself (see the class docstring)."""
        d = self.catalog.defs[cid]
        return self.scale ** d.adeg * d.lam

    def _value(self, cid) -> dict:
        """The memoized terms of covariant ``cid`` on the cleared amplitudes:
        lam_C times the covariant (see the class docstring).

        Every term adds into one dict (``_transvect_ground``), and the sums
        that cancelled are dropped here, once per covariant.  The kernel
        repeats none of the load-time checks, so this is the one place a
        value is checked: once per covariant, a nonzero value must be
        multihomogeneous of the declared multidegree
        (``_check_multidegree``), or ``CatalogError`` is raised."""
        value = self._values.get(cid)
        if value is not None:
            return value
        d = self.catalog.defs.get(cid)
        if d is None:
            raise CatalogError(f"unknown covariant id {cid}")
        value = {}
        # validated: every term is (A, rhs)^idx
        for coef, (_, _, rhs, idx) in zip(d.int_coefs, d.terms):
            value = self._transvect_ground(value, self._value(rhs), idx, coef)
        if 0 in value.values():
            value = {k: c for k, c in value.items() if c}
        if value:
            _check_multidegree(d, value)
        self._values[cid] = value
        return value

    def _bit(self, group) -> int:
        """1 if the sum of the covariants in ``group`` is nonzero, else 0.

        The group's multidegrees are pairwise distinct (see ``bits``), so
        exact mode tests whether any value has terms.  Float mode: the
        largest coefficient magnitude over the values, rounded once as
        ``eval`` rounds it, is compared with ``FLOAT_TOLERANCE``, and the
        ratio is recorded as a margin; a magnitude past the float range
        reads as inf."""
        values = [self._value(cid) for cid in group]
        if not self.float_mode:
            return 1 if any(values) else 0
        mag = 0.0
        for cid, terms in zip(group, values):
            if terms:
                top = max(map(abs, terms.values()))
                try:
                    mag = max(mag, self._unscaled(top, self._divisor(cid)))
                except OverflowError:
                    mag = float("inf")
        if mag > FLOAT_TOLERANCE:
            self.min_margin = min(self.min_margin, mag / FLOAT_TOLERANCE)
            return 1
        if mag:
            self.min_margin = min(self.min_margin, FLOAT_TOLERANCE / mag)
        return 0

    def signature(self, cids) -> tuple:
        return tuple(self._bit((cid,)) for cid in cids)

    def confidence(self) -> str:
        """Approximate-mode decision margin ("exact" in exact mode)."""
        if not self.float_mode:
            return "exact"
        return "high" if self.min_margin > 1e3 else "low"

    # -- composite vectors ---------------------------------------------------

    def bits(self, spec) -> tuple:
        """The bits of a composite vector, one per entry of ``spec``.

        An entry is a tuple of groups of catalog ids (see ``V_SPEC``): a
        group stands for the sum of its covariants and the entry for the
        product of its groups.  Neither is formed.

        Sums.  Within a group the multidegrees are pairwise distinct, and a
        nonzero value is multihomogeneous of its declared multidegree
        (checked in ``_value``), so the summands have disjoint supports.
        The sum is therefore zero if and only if every summand is zero, and
        its largest coefficient magnitude is the largest over the summands:
        ``_bit`` over all coefficients of the group's values is the bit of
        the sum, float margin included.

        Products.  Exact mode: Q[x] and Q(i)[x] are integral domains, so a
        product is nonzero if and only if every factor is, and its bit is
        the minimum of the group bits.  Float mode: the bit is that same
        minimum, each group decided by ``_bit`` at ``FLOAT_TOLERANCE`` (and
        each recording its margin).
        """
        return tuple(min(self._bit(group) for group in entry) for entry in spec)

    def vector_V(self) -> tuple:
        return self.bits(V_SPEC)

    def vector_Vpp(self) -> tuple:
        return self.bits(VPP_SPEC)

    def vector_W(self) -> tuple:
        return self.bits(W_SPEC)


def _ids(*names):
    return tuple(CovariantId.parse(n) for n in names)


T_IDS = _ids(
    "A",
    "B_2200", "B_2020", "B_2002", "B_0220", "B_0202", "B_0022",
    "C_3111", "C_1311", "C_1131", "C_1113",
    "D_4000", "D_0400", "D_0040", "D_0004",
    "D_2200", "D_2020", "D_2002", "D_0220", "D_0202", "D_0022",
    "F1_2220", "F1_2202", "F1_2022", "F1_0222",
    "L_6000", "L_0600", "L_0060", "L_0006",
)

T_ROW_LENGTHS = (1, 6, 4, 4, 6, 4, 4)


def split_T(signature) -> list:
    """Split a 29-bit T signature into its seven printed rows."""
    rows = []
    pos = 0
    for n in T_ROW_LENGTHS:
        rows.append(list(signature[pos : pos + n]))
        pos += n
    return rows


_A, _B, _C, _D4, _D22, _F1, _L = (tuple(row) for row in split_T(T_IDS))

VPRIME_IDS = _L

# The six bold-F pairs F_{**00} .. F_{00**}; pairs i and 5 - i cover
# complementary sites.
_BOLD_F = (
    _ids("F_4200", "F_2400"), _ids("F_4020", "F_2040"), _ids("F_4002", "F_2004"),
    _ids("F_0420", "F_0240"), _ids("F_0402", "F_0204"), _ids("F_0042", "F_0024"),
)

# Extended discovery basis: the T list plus the degree-6 covariants feeding
# V'' and the catalog's own degree-2 invariant.  These are exactly the bits
# the golden evaluation tables summarize, and the partition they induce
# coincides with the full catalog's on both census runs; a Tier-1 test
# compares it with the full catalog's partition on every secant orbit.
EXTENDED_T_IDS = T_IDS + _ids("B_0000") + sum(_BOLD_F, ())

# The composite vectors, one entry per bit, decided by ``EvalSession.bits``:
# an entry is a tuple of groups, a group stands for the sum of its
# covariants and the entry for the product of its groups.
# V: the sum of each T row, and as bit 3 the product of the C row.
V_SPEC = ((_A,), (_B,), (_C,), tuple((c,) for c in _C), (_D4,), (_D22,), (_F1,), (_L,))
# V'': the six bold-F sums, then each sextic L on its own.
VPP_SPEC = tuple((pair,) for pair in _BOLD_F) + tuple(((c,),) for c in _L)
# W: F_42, the sum of all six pairs; the product of over_0, over_1 and
# over_2, where over_i is F_42 without pairs i and 5 - i; the product of
# the six pairs.
W_SPEC = (
    (sum(_BOLD_F, ()),),
    tuple(sum((_BOLD_F[j] for j in range(6) if j not in (i, 5 - i)), ()) for i in range(3)),
    _BOLD_F,
)
