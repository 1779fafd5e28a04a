"""Decision procedures: nullcone and third-secant classification.

The nullcone classifier computes the 29-bit T signature and looks it up
in the golden evaluation table; the secant classifier branches on the
exact vanishing of L, M, B and D_xy, then separates classes with the V'
and V'' vectors; the extended variant refines the B != 0, D_xy != 0
branch with Z before consulting V'.  Table matching is exact: an
in-domain signature that matches no golden row, or a W vector that
contradicts the stratum its V'' row names, raises rather than guessing.
In exact mode that is an integrity error (a broken catalog); in float
mode it is a low-confidence failure, since a float bit may be wrong.

Also here: orbit dimensions from the rank of the local Lie-algebra
action, tangent-space ranks at separable points (secant defectivity),
and the frozen qubit-permutation type map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .catalog import FLOAT_TOLERANCE, T_IDS, VPRIME_IDS, EvalSession, build_catalog
from .invariants import inv_B, inv_D, inv_L, inv_M, inv_Z
from .qstate import State, StateError, decode_form
from .scalars import GaussianRational, exact_quotient


class ClassifyFail(Exception):
    """The state is outside the algorithm's domain (the printed FAIL)."""


class IntegrityError(Exception):
    """An in-domain signature matched no golden table row: catalog bug."""


def _load_json(name):
    return json.loads(resources.files("entatlas.data").joinpath(name).read_text())


class OrbitRecord:
    __slots__ = ("label", "variety", "group", "normal_form", "dim", "quasihomogeneous", "note")

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
        self.note = rec.get("note")


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
            tuple(row["vprime"]): (int(label), row["stratum"])
            for label, row in self.tables["vprime_classes"].items()
        }

    @_memoized
    def vpp_lookup(self) -> dict:
        return {
            tuple(row["vpp"]): (int(label), row["stratum"])
            for label, row in self.tables["vpp_classes"].items()
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


@dataclass
class ClassificationResult:
    label: int
    variety: str
    stratum: str
    signatures: dict = field(default_factory=dict)
    mode: str = "exact"
    confidence: str = "exact"

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


def _reject_zero(s: State):
    if s.is_zero():
        raise StateError("the zero state is rejected by classifiers")


def _nonzero(value, s: State, degree: int) -> bool:
    """Exact truthiness, except float scalars compare against
    ``FLOAT_TOLERANCE`` scaled by the amplitude magnitude raised to the
    invariant's degree."""
    if isinstance(value, float):
        scale = max((abs(float(a)) for a in s.amps), default=1.0)
        return abs(value) > FLOAT_TOLERANCE * max(1.0, scale ** degree)
    return bool(value)


def _miss(sess: EvalSession, message: str) -> Exception:
    """The error for a signature that matches no golden row: an integrity
    error in exact mode, a low-confidence failure in float mode."""
    if sess.float_mode:
        return ClassifyFail(f"{message} (float mode: confidence low)")
    return IntegrityError(message)


def _result(label, signatures, sess: EvalSession, stratum=None):
    rec = GOLDEN.orbits.get(label)
    if rec is None:
        raise IntegrityError(f"label {label} missing from the orbit catalog")
    return ClassificationResult(
        label=label,
        variety=rec.variety,
        stratum=stratum if stratum is not None else rec.group,
        signatures=signatures,
        mode="float" if sess.float_mode else "exact",
        confidence=sess.confidence(),
    )


def classify_nullcone(s: State) -> ClassificationResult:
    """Match the T signature of a nilpotent state against the golden blocks."""
    _reject_zero(s)
    if (
        _nonzero(inv_B(s), s, 2)
        or _nonzero(inv_L(s), s, 4)
        or _nonzero(inv_M(s), s, 4)
        or _nonzero(inv_D(s, "xy"), s, 6)
    ):
        raise ClassifyFail("state is not nilpotent")
    return _nullcone_lookup(build_catalog().session(s))


def _nullcone_lookup(sess: EvalSession) -> ClassificationResult:
    """The T/V table lookup for a state already known to be nilpotent."""
    sig = sess.signature(T_IDS)
    label = GOLDEN.t_lookup.get(sig)
    if label is None:
        raise _miss(sess, f"nilpotent state with unknown T signature {sig}")
    v = sess.vector_V()
    gr = GOLDEN.v_lookup.get(v)
    if gr is None:
        raise _miss(sess, f"V signature {v} matches no stratum row")
    return _result(label, {"T": sig, "V": v}, sess, stratum=gr)


def _secant_branch(s, extended):
    _reject_zero(s)
    if _nonzero(inv_L(s), s, 4) or _nonzero(inv_M(s), s, 4):
        raise ClassifyFail("L or M does not vanish (outside the third secant)")
    sess = build_catalog().session(s)
    B = _nonzero(inv_B(s), s, 2)
    Dxy = _nonzero(inv_D(s, "xy"), s, 6)
    if not B:
        if not Dxy:
            # L, M, B and D_xy all vanish: the state is nilpotent.
            return _nullcone_lookup(sess)
        return _result(59777, {"B": (0,), "Dxy": (1,)}, sess)
    if not Dxy:
        vpp = sess.vector_Vpp()
        hit = GOLDEN.vpp_lookup.get(vpp)
        if hit is None:
            raise _miss(sess, f"V'' signature {vpp} matches no golden row")
        label, stratum = hit
        w = sess.vector_W()
        if GOLDEN.w_lookup.get(w) != stratum:
            raise _miss(sess, f"W signature {w} does not match stratum {stratum}")
        return _result(label, {"Vpp": vpp, "W": w}, sess, stratum=stratum)
    vp = sess.signature(VPRIME_IDS)
    if extended:
        if _nonzero(inv_Z(s), s, 6):
            return _result(65257, {"Vp": vp, "Z": (1,)}, sess)
        if not any(vp):
            return _result(59510, {"Vp": vp, "Z": (0,)}, sess)
        return _result(6014, {"Vp": vp, "Z": (0,)}, sess, stratum="secant-special")
    hit = GOLDEN.vp_lookup.get(vp)
    if hit is None:
        raise _miss(sess, f"V' signature {vp} matches no golden row")
    label, stratum = hit
    return _result(label, {"Vp": vp}, sess, stratum=stratum)


def classify_secant3(s: State) -> ClassificationResult:
    """The third-secant decision procedure (branch on B and D_xy, then V'/V'')."""
    return _secant_branch(s, extended=False)


def classify_secant3_extended(s: State) -> ClassificationResult:
    """The refinement that tests Z before V', separating the extended class 6014."""
    return _secant_branch(s, extended=True)


def classify(s: State, extended: bool = False) -> ClassificationResult:
    return _secant_branch(s, extended=extended)


def stratum(s: State) -> str:
    """Gr / Gr' / Gr'' stratum of a state in the algorithms' domain."""
    return classify(s).stratum


# ---------------------------------------------------------------------------
# Exact linear algebra for dimensions.


def _as_fraction_rows(rows):
    out = []
    for row in rows:
        out.append([c if isinstance(c, (int, Fraction, GaussianRational)) else Fraction(c) for c in row])
    return out


def exact_rank(rows) -> int:
    """Rank of a matrix over the rationals (or Gaussian rationals)."""
    m = _as_fraction_rows(rows)
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
    out = [0] * 16
    for j in range(16):
        jk = (j >> site) & 1
        if jk == a:
            out[j] = s.amps[j ^ ((a ^ b) << site)]
    return out


def orbit_dimension(s: State) -> int:
    """Projective dimension of the local-group orbit through [s]:
    rank of the 16 elementary one-site generator images, minus 1."""
    _reject_zero(s)
    rows = [
        _gl_generator_image(s, site, a, b)
        for site in range(4)
        for a in (0, 1)
        for b in (0, 1)
    ]
    return exact_rank(rows) - 1


def factor_separable(s: State):
    """Recover the four tensor factors of a rank-one state; raises on
    non-separable input."""
    _reject_zero(s)
    rest = list(s.amps)
    nsites = 4
    factors = []
    for site in range(nsites):
        half = len(rest) // 2
        r0 = [rest[i] for i in range(len(rest)) if not (i >> 0) & 1]
        r1 = [rest[i] for i in range(len(rest)) if (i >> 0) & 1]
        if not any(r0):
            factors.append((0, 1))
            rest = r1
        elif not any(r1):
            factors.append((1, 0))
            rest = r0
        else:
            j = next(i for i, c in enumerate(r0) if c)
            lam = exact_quotient(r1[j], r0[j])
            if any(r1[i] != lam * r0[i] for i in range(half)):
                raise StateError("state is not separable")
            factors.append((1, lam))
            rest = r0
    factors[0] = tuple(c * rest[0] for c in factors[0])
    return factors


def tangent_space_rows(point):
    """The eight spanning vectors of the affine tangent space to the
    separable variety at v1 (x) v2 (x) v3 (x) v4."""
    v = point
    rows = []
    for site in range(4):
        for e in ((1, 0), (0, 1)):
            vec = [0] * 16
            for b in range(16):
                c = 1
                for k in range(4):
                    comp = (b >> k) & 1
                    f = e[comp] if k == site else v[k][comp]
                    if not f:
                        c = 0
                        break
                    c = c * f
                if c:
                    vec[b] = c
            rows.append(vec)
    return rows


def terracini_rank(points) -> int:
    """Projective dimension of the span of the tangent spaces at the given
    separable states (Terracini): rank of the union of the tangent rows,
    minus 1."""
    rows = []
    for s in points:
        rows.extend(tangent_space_rows(factor_separable(s)))
    return exact_rank(rows) - 1
