"""Decision procedures: nullcone and third-secant classification.

The nullcone classifier computes the 29-bit T signature and looks it up
in the golden evaluation table; the secant classifier branches on the
nullity of L, M, B and D_xy, read once per state from
``invariants.Generators``, then separates classes with the V' and V''
vectors; the extended variant matches V' in the same table and splits
its B != 0, D_xy != 0 branch with Z.  Table matching is exact: an
in-domain signature that matches no golden row, or a V or W vector that
contradicts the matched label's stratum, raises rather than guessing.
In exact mode that is an integrity error (a broken catalog); in float
mode it is a low-confidence failure, since a float bit may be wrong.

A result's stratum is always its label's orbit record ``group``.  That
changes no answer: V's bits are a function of T's bits and W's of the
first six bits of V'' (in both modes a group's bit is the OR of its
members' bits, a product's the minimum of its factors'), and
``verify_tables`` shows that V and W name the group of every golden row.
The V and W checks stay, as runtime checks of the tables.

Also here: orbit dimensions from the rank of the local Lie-algebra
action, tangent-space ranks at separable points (secant defectivity),
and the frozen qubit-permutation type map.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .catalog import T_IDS, VPRIME_IDS, EvalSession, _read_data, build_catalog
# The inv_* names are unread here: the benchmark's tracer patches them on this module.
from .invariants import Generators, inv_B, inv_D, inv_L, inv_M, inv_Z, is_nilpotent
from .qstate import _SITE_PAIRS, State, StateError, _act_on_site, _tensor, check_nonzero, decode_form
from .scalars import GaussianRational, exact_quotient


class ClassifyFail(Exception):
    """The state is outside the algorithm's domain (the printed FAIL)."""


class IntegrityError(Exception):
    """An in-domain signature matched no golden table row: catalog bug."""


def _load_json(name):
    return json.loads(_read_data(name))


class OrbitRecord:
    __slots__ = ("label", "variety", "group", "normal_form", "dim", "quasihomogeneous")

    def __init__(self, rec):
        self.label = rec["label"]
        self.variety = rec["variety"]
        self.group = rec["group"]
        if rec["kets"] is None:
            self.normal_form = decode_form(rec["label"])
        else:
            amps = [0] * 16
            for i1, i2, i3, i4 in rec["kets"]:
                amps[i1 + 2 * i2 + 4 * i3 + 8 * i4] = 1
            self.normal_form = State(amps)
        self.dim = rec["dim"]
        self.quasihomogeneous = rec["quasihomogeneous"]


def _memoized(build):
    """A read-only property whose value ``build`` computes once per instance.

    It stays a plain ``property`` (a data descriptor on the class), so code
    that wraps the class's properties, such as the benchmark's tracer, sees
    every access.
    """
    slot = "_" + build.__name__

    def get(self):
        value = self.__dict__.get(slot)
        if value is None:
            value = self.__dict__[slot] = build(self)
        return value

    return property(get, doc=build.__doc__)


class _Golden:
    """Lazy holder for the golden tables, orbit records and their lookups."""

    @_memoized
    def tables(self) -> dict:
        return _load_json("tables.json")

    @_memoized
    def orbits(self) -> dict:
        return {
            rec["label"]: OrbitRecord(rec) for rec in _load_json("orbits.json")["records"]
        }

    @_memoized
    def t_lookup(self) -> dict:
        return {
            tuple(b for row in rows for b in row): int(label)
            for label, rows in self.tables["evaluation_blocks"].items()
        }

    @_memoized
    def v_lookup(self) -> dict:
        return {tuple(bits): name for name, bits in self.tables["strata_V"].items()}

    @_memoized
    def vp_lookup(self) -> dict:
        return {
            tuple(row["vprime"]): int(label)
            for label, row in self.tables["vprime_classes"].items()
        }

    @_memoized
    def vpp_lookup(self) -> dict:
        return {
            tuple(row["vpp"]): int(label) for label, row in self.tables["vpp_classes"].items()
        }

    @_memoized
    def w_lookup(self) -> dict:
        return {tuple(bits): name for name, bits in self.tables["strata_W"].items()}

    @_memoized
    def perm_types(self) -> dict:
        raw = _load_json("permutation_types.json")
        return {int(k): v for k, v in raw["types"].items()}


GOLDEN = _Golden()


def orbit_records() -> dict:
    """label -> OrbitRecord for the full atlas (31 + 17 + the extended class)."""
    return GOLDEN.orbits


def permutation_type(label: int) -> int:
    """The qubit-permutation equivalence type (1..15) of an atlas label."""
    types = GOLDEN.perm_types
    if label not in types:
        raise KeyError(f"label {label} is not in the atlas")
    return types[label]


class ClassificationResult(
    namedtuple("ClassificationResult", "label variety stratum signatures mode confidence")
):
    __slots__ = ()

    def to_dict(self, invariants: dict | None = None) -> dict:
        out = {
            "label": self.label,
            "variety": self.variety,
            "stratum": self.stratum,
            "permutation_type": GOLDEN.perm_types.get(self.label),
            "signatures": {k: list(v) for k, v in self.signatures.items()},
            "mode": self.mode,
        }
        if self.mode != "exact":
            out["confidence"] = self.confidence
        if invariants is not None:
            out["invariants"] = invariants
        return out


def _miss(sess: EvalSession, message: str) -> Exception:
    """The error for a signature that matches no golden row: an integrity
    error in exact mode, a low-confidence failure in float mode."""
    if sess.float_mode:
        return ClassifyFail(f"{message} (float mode: confidence low)")
    return IntegrityError(message)


def _result(label, signatures, sess: EvalSession):
    rec = GOLDEN.orbits.get(label)
    if rec is None:
        raise IntegrityError(f"label {label} missing from the orbit catalog")
    return ClassificationResult(
        label=label,
        variety=rec.variety,
        stratum=rec.group,
        signatures=signatures,
        mode="float" if sess.float_mode else "exact",
        confidence=sess.confidence(),
    )


def classify_nullcone(s: State) -> ClassificationResult:
    """Match the T signature of a nilpotent state against the golden blocks."""
    if not is_nilpotent(s):
        raise ClassifyFail("state is not nilpotent")
    return _nullcone_lookup(build_catalog().session(s))


def _nullcone_lookup(sess: EvalSession) -> ClassificationResult:
    """The T/V table lookup for a state already known to be nilpotent: T
    names the label, its orbit record the stratum, and V, a function of
    T's bits, only checks the tables (see the module docstring).  Label 0
    is a miss too: the zero state is rejected before any lookup, and a
    nonzero state has A's bit set, so only float underflow names it."""
    sig = sess.signature(T_IDS)
    label = GOLDEN.t_lookup.get(sig)
    if not label:
        raise _miss(sess, f"nilpotent state with unknown T signature {sig}")
    v = sess.vector_V()
    result = _result(label, {"T": sig, "V": v}, sess)
    if GOLDEN.v_lookup.get(v) != result.stratum:
        raise _miss(sess, f"V signature {v} does not match stratum {result.stratum}")
    return result


def classify(s: State, extended: bool = False) -> ClassificationResult:
    """The third-secant decision procedure, refined by Z when ``extended``."""
    g = Generators(check_nonzero(s))
    if g.nonzero("L") or g.nonzero("M"):
        raise ClassifyFail("L or M does not vanish (outside the third secant)")
    sess = build_catalog().session(s)
    B, Dxy = g.nonzero("B"), g.nonzero("Dxy")
    if not B:
        if not Dxy:
            # L, M, B and D_xy all vanish: the state is nilpotent.
            return _nullcone_lookup(sess)
        return _result(59777, {"B": (0,), "Dxy": (1,)}, sess)
    if not Dxy:
        vpp = sess.vector_Vpp()
        label = GOLDEN.vpp_lookup.get(vpp)
        if label is None:
            raise _miss(sess, f"V'' signature {vpp} matches no golden row")
        w = sess.vector_W()
        result = _result(label, {"Vpp": vpp, "W": w}, sess)
        if GOLDEN.w_lookup.get(w) != result.stratum:
            raise _miss(sess, f"W signature {w} does not match stratum {result.stratum}")
        return result
    vp = sess.signature(VPRIME_IDS)
    label = GOLDEN.vp_lookup.get(vp)
    if label is None:
        raise _miss(sess, f"V' signature {vp} matches no golden row")
    if not extended:
        return _result(label, {"Vp": vp}, sess)
    if g.nonzero("Z"):
        return _result(65257, {"Vp": vp, "Z": (1,)}, sess)
    # Z = 0 splits the extended class 6014 off the generic row 65257.
    return _result(6014 if label == 65257 else label, {"Vp": vp, "Z": (0,)}, sess)


def classify_secant3_extended(s: State) -> ClassificationResult:
    """The refinement that tests Z after V', separating the extended class 6014."""
    return classify(s, extended=True)


# ---------------------------------------------------------------------------
# Exact linear algebra for dimensions.


def exact_rank(rows) -> int:
    """Rank of a matrix over the rationals (or Gaussian rationals)."""
    exact = (int, Fraction, GaussianRational)
    m = [[c if isinstance(c, exact) else Fraction(c) for c in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    nrows = len(m)
    while rank < nrows and col < ncols:
        pivot = None
        for r in range(rank, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nrows):
            if m[r][col]:
                factor = exact_quotient(m[r][col], pv)
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def _gl_generator_image(s: State, site: int, a: int, b: int):
    """(E_ab acting on one site) applied to s, as a 16-vector."""
    unit = [[0, 0], [0, 0]]
    unit[a][b] = 1
    out = list(s.amps)
    _act_on_site(out, site, unit)
    return out


def orbit_dimension(s: State) -> int:
    """Projective dimension of the local-group orbit through [s]:
    rank of the 16 elementary one-site generator images, minus 1."""
    check_nonzero(s)
    rows = [
        _gl_generator_image(s, site, a, b)
        for site in range(4)
        for a in (0, 1)
        for b in (0, 1)
    ]
    return exact_rank(rows) - 1


def factor_separable(s: State):
    """Recover the four tensor factors of a rank-one state, each read from
    the fiber through the first nonzero amplitude as (1, lambda), (0, 1) or
    (1, 0), the first one times that amplitude; raises on non-separable
    input."""
    amps = check_nonzero(s).amps
    p = next(b for b, a in enumerate(amps) if a)
    factors = []
    for pairs in _SITE_PAIRS:
        a0, a1 = next((amps[i], amps[j]) for i, j in pairs if p in (i, j))
        factors.append((0, 1) if not a0 else (1, exact_quotient(a1, a0)) if a1 else (1, 0))
    factors[0] = tuple(c * amps[p] for c in factors[0])
    if _tensor(factors) != list(amps):
        raise StateError("state is not separable")
    return factors


def tangent_space_rows(point):
    """The eight spanning vectors of the affine tangent space to the
    separable variety at v1 (x) v2 (x) v3 (x) v4."""
    return [
        _tensor([*point[:site], e, *point[site + 1:]])
        for site in range(4)
        for e in ((1, 0), (0, 1))
    ]


def terracini_rank(points) -> int:
    """Projective dimension of the span of the tangent spaces at the given
    separable states (Terracini): rank of the union of the tangent rows,
    minus 1."""
    rows = []
    for s in points:
        rows.extend(tangent_space_rows(factor_separable(s)))
    return exact_rank(rows) - 1
