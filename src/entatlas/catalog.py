"""The covariant catalog: a data-driven dependency DAG of transvections.

The catalog ships as ``data/covariants.txt`` (hash-pinned) and is parsed
and validated here: every entry's declared multidegree must match the
sitewise degree law of each of its summands, references must point to
already-defined entries, and the per-degree census must match the known
counts (170 covariants in degrees 1..12).

``EvalSession`` evaluates covariants on one concrete state, memoizing
every intermediate value.  Amplitudes are substituted first, so all
intermediates are small polynomials in the 8 base variables.  The hot
path uses a ground-form-specialized transvection (the left operand of
every catalog transvection is the ground form A); its agreement with the
literal Omega-process implementation is pinned by tests.  The composite
vectors build no product polynomial: a product's bit is the conjunction of
its factors' bits (``EvalSession._product_bit``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .poly import _FIELD, _W, Polynomial, _add_raw, _mul_raw, _scale_raw
from .qstate import State, to_ground_form
from .transvect import TransvectionError, transvect_fast

CATALOG_SHA256 = "463be493fd9067b5eed551d7b06d3fb79c7d86bcf32a20ed053606ac8ec537f6"

_CENSUS = {1: 1, 2: 7, 3: 6, 4: 20, 5: 13, 6: 27, 7: 22, 8: 24, 9: 24, 10: 12, 11: 10, 12: 4}

_ID_RE = re.compile(r"^([A-L])([123]?)_(\d)(\d)(\d)(\d)$")


class CatalogError(Exception):
    pass


@dataclass(frozen=True, order=True)
class CovariantId:
    letter: str
    multidegree: tuple
    variant: int = 0

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


@dataclass(frozen=True)
class CovariantDef:
    """One catalog entry: a rational combination of transvections."""

    cid: CovariantId
    adeg: int  # degree in the state coefficients
    terms: tuple  # ((Fraction coef, lhs CovariantId, rhs CovariantId, idx), ...)

    @property
    def is_ground(self):
        return not self.terms


def _parse_line(line: str):
    fields = line.split()
    cid = CovariantId.parse(fields[0])
    mdeg = tuple(int(ch) for ch in fields[1])
    if len(fields[1]) != 4:
        raise CatalogError(f"{cid}: bad multidegree field {fields[1]!r}")
    if mdeg != cid.multidegree:
        raise CatalogError(f"{cid}: id and multidegree field disagree")
    if fields[2] == "GROUND":
        return CovariantDef(cid, 1, ())
    terms = []
    for term in fields[2:]:
        try:
            coef_s, lhs_s, rhs_s, idx_s = term.split(":")
        except ValueError as e:
            raise CatalogError(f"{cid}: bad term {term!r}") from e
        idx = tuple(int(ch) for ch in idx_s)
        if len(idx) != 4:
            raise CatalogError(f"{cid}: bad index {idx_s!r}")
        terms.append(
            (Fraction(coef_s), CovariantId.parse(lhs_s), CovariantId.parse(rhs_s), idx)
        )
    return CovariantDef(cid, 0, tuple(terms))


class Catalog:
    """All covariant definitions, validated and topologically ordered."""

    def __init__(self, defs):
        self.order = [d.cid for d in defs]
        self.defs = {d.cid: d for d in defs}
        self._sessions = {}
        self._validate()

    def __contains__(self, cid):
        return cid in self.defs

    def __len__(self):
        return len(self.defs)

    def ids_of_degree(self, adeg: int):
        return [cid for cid in self.order if self.defs[cid].adeg == adeg]

    def _validate(self):
        if len(self.order) != len(set(self.order)):
            raise CatalogError("duplicate catalog ids")
        resolved = {}
        for cid in self.order:
            d = self.defs[cid]
            if d.is_ground:
                resolved[cid] = 1
                if cid != GROUND_ID:
                    raise CatalogError(f"unexpected ground entry {cid}")
                continue
            adegs = set()
            for coef, lhs, rhs, idx in d.terms:
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
            if len(adegs) != 1:
                raise CatalogError(f"{cid}: terms disagree on coefficient degree")
            resolved[cid] = adegs.pop()
            object.__setattr__(d, "adeg", resolved[cid])
        census = {}
        for cid in self.order:
            census[self.defs[cid].adeg] = census.get(self.defs[cid].adeg, 0) + 1
        if census != _CENSUS:
            raise CatalogError(f"per-degree census {census} != expected {_CENSUS}")

    # -- evaluation ----------------------------------------------------------

    def session(self, state: State, tolerance=None) -> "EvalSession":
        # 1.0 == 1 would let an approximate-mode state collide with the
        # exact-mode session of the same amplitudes; key the mode in.
        key = (state.amps, any(isinstance(a, float) for a in state.amps), tolerance)
        sess = self._sessions.get(key)
        if sess is None:
            sess = EvalSession(self, state, tolerance=tolerance)
            if len(self._sessions) >= 32:
                self._sessions.pop(next(iter(self._sessions)))
            self._sessions[key] = sess
        return sess

    def eval_covariant(self, cid, state: State) -> Polynomial:
        return self.session(state).eval(cid)

    def nullity(self, cid, state: State) -> int:
        return self.session(state).nullity(cid)

    def signature(self, state: State, cids) -> tuple:
        sess = self.session(state)
        return tuple(sess.nullity(cid) for cid in cids)

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


def _load_text() -> str:
    return resources.files("entatlas.data").joinpath("covariants.txt").read_text()


def catalog_file_sha256() -> str:
    return hashlib.sha256(_load_text().encode()).hexdigest()


_cached = None


def build_catalog(verify_hash: bool = True) -> Catalog:
    """Parse, validate and return the catalog (cached per process)."""
    global _cached
    if _cached is not None:
        return _cached
    text = _load_text()
    if verify_hash:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != CATALOG_SHA256:
            raise CatalogError(
                f"catalog file hash {digest} does not match pinned {CATALOG_SHA256}"
            )
    defs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            defs.append(_parse_line(line))
    _cached = Catalog(defs)
    return _cached


class EvalSession:
    """Memoized evaluation of catalog covariants on one state."""

    def __init__(self, catalog: Catalog, state: State, tolerance=None):
        self.catalog = catalog
        self.state = state
        self.tolerance = tolerance
        self.float_mode = any(isinstance(a, float) for a in state.amps)
        if self.float_mode and tolerance is None:
            self.tolerance = 1e-9
        self.ground = to_ground_form(state)
        self._values = {GROUND_ID: self.ground}
        self._slices = {}
        self._bold_F = None
        self.min_margin = float("inf")

    # Derivative slices of the multilinear ground form.  Selector per site:
    # 0 = untouched, 1 = d/dx_{k,0}, 2 = d/dx_{k,1}.
    def _ground_slice(self, sel) -> dict:
        cached = self._slices.get(sel)
        if cached is not None:
            return cached
        amps = self.state.amps
        free = [k for k in range(4) if sel[k] == 0]
        terms = {}
        for m in range(1 << len(free)):
            b = 0
            key = 0
            for pos, k in enumerate(free):
                bit = (m >> pos) & 1
                b += bit << k
                key += 1 << (_W * (2 * k + bit))
            for k in range(4):
                if sel[k] == 2:
                    b += 1 << k
            a = amps[b]
            if a:
                terms[key] = a
        return self._slices.setdefault(sel, terms)

    def _transvect_ground(self, rhs: Polynomial, idx) -> Polynomial:
        """(A, rhs)^idx with idx in {0,1}^4, via cached ground-form slices."""
        if rhs.is_zero() or not self.ground:
            return Polynomial.zero()
        rdeg = rhs.multidegree()
        for k in range(4):
            if idx[k] > min(1, rdeg[k]):
                raise TransvectionError(
                    f"index {idx} exceeds degrees (1,1,1,1) x {rdeg} at site {k + 1}"
                )
        sites = [k for k in range(4) if idx[k]]
        acc: dict = {}
        for m in range(1 << len(sites)):
            sel = [0, 0, 0, 0]
            sign = 1
            dR = rhs.terms
            for pos, k in enumerate(sites):
                j = (m >> pos) & 1
                # Omega expansion: A takes d/dx0 when j=0 (sign +), d/dx1
                # when j=1 (sign -); rhs takes the opposite component.
                sel[k] = 1 + j
                if j:
                    sign = -sign
                shift = _W * (2 * k + (1 - j))
                nxt = {}
                for key, c in dR.items():
                    e = (key >> shift) & _FIELD
                    if e:
                        nxt[key - (1 << shift)] = c * e
                dR = nxt
                if not dR:
                    break
            if not dR:
                continue
            dA = self._ground_slice(tuple(sel))
            if not dA:
                continue
            term = _mul_raw(dA, dR)
            if sign < 0:
                term = {k2: -c for k2, c in term.items()}
            acc = _add_raw(acc, term)
        result = Polynomial(acc)
        if result:
            expected = tuple(1 + rdeg[k] - 2 * idx[k] for k in range(4))
            if result.multidegree() != expected:
                raise TransvectionError(
                    f"degree law violated in ground transvection: "
                    f"{result.multidegree()} != {expected}"
                )
        return result

    def eval(self, cid) -> Polynomial:
        if isinstance(cid, str):
            cid = CovariantId.parse(cid)
        value = self._values.get(cid)
        if value is not None:
            return value
        d = self.catalog.defs.get(cid)
        if d is None:
            raise CatalogError(f"unknown covariant id {cid}")
        acc: dict = {}
        for coef, lhs, rhs, idx in d.terms:
            rhs_val = self.eval(rhs)
            if lhs == GROUND_ID and all(i <= 1 for i in idx):
                tv = self._transvect_ground(rhs_val, idx)
            else:
                tv = transvect_fast(self.eval(lhs), rhs_val, idx)
            if coef != 1:
                if coef == -1:
                    acc = _add_raw(acc, {k: -c for k, c in tv.terms.items()})
                    continue
                tv = Polynomial(_scale_raw(tv.terms, coef))
            acc = _add_raw(acc, tv.terms)
        value = Polynomial(acc)
        if value:
            md = value.multidegree()
            if md != cid.multidegree:
                raise CatalogError(
                    f"{cid}: evaluated multidegree {md} != declared {cid.multidegree}"
                )
        self._values[cid] = value
        return value

    def _poly_bit(self, p: Polynomial) -> int:
        if not self.float_mode:
            return 0 if p.is_zero() else 1
        mag = p.max_abs_coefficient()
        tol = self.tolerance
        if mag > tol:
            self.min_margin = min(self.min_margin, mag / tol)
            return 1
        self.min_margin = min(self.min_margin, tol / mag if mag else float("inf"))
        return 0

    def nullity(self, cid) -> int:
        return self._poly_bit(self.eval(cid))

    def confidence(self) -> str:
        """Approximate-mode decision margin ("exact" in exact mode)."""
        if not self.float_mode:
            return "exact"
        return "high" if self.min_margin > 1e3 else "low"

    # -- composite vectors ---------------------------------------------------

    def _sum(self, names) -> Polynomial:
        acc: dict = {}
        for name in names:
            acc = _add_raw(acc, self.eval(name).terms)
        return Polynomial(acc)

    def _product_bit(self, factors) -> int:
        """The bit of the product of ``factors``, decided without forming it.

        Exact mode: the bit is the conjunction of the factor bits.  Q[x] and
        Q(i)[x] are integral domains, so a product is nonzero if and only if
        every factor is nonzero; the conjunction therefore equals the exact
        nonzero test of the literal product.  Float mode: the bit is the
        minimum of the factor bits, each decided by ``_poly_bit`` at the
        session tolerance (and each recording its margin).
        """
        return min(self._poly_bit(p) for p in factors)

    def vector_V(self) -> tuple:
        cs = ["C_3111", "C_1311", "C_1131", "C_1113"]
        bit = self._poly_bit
        return (
            bit(self.eval("A")),
            bit(self._sum(["B_2200", "B_2020", "B_2002", "B_0220", "B_0202", "B_0022"])),
            bit(self._sum(cs)),
            self._product_bit([self.eval(c) for c in cs]),
            bit(self._sum(["D_4000", "D_0400", "D_0040", "D_0004"])),
            bit(self._sum(["D_2200", "D_2020", "D_2002", "D_0220", "D_0202", "D_0022"])),
            bit(self._sum(["F1_2220", "F1_2202", "F1_2022", "F1_0222"])),
            bit(self._sum(["L_6000", "L_0600", "L_0060", "L_0006"])),
        )

    def bold_F(self) -> list:
        """The six paired degree-6 sums F_{**00} .. F_{00**} (built once)."""
        if self._bold_F is None:
            self._bold_F = [
                self._sum(["F_4200", "F_2400"]),
                self._sum(["F_4020", "F_2040"]),
                self._sum(["F_4002", "F_2004"]),
                self._sum(["F_0420", "F_0240"]),
                self._sum(["F_0402", "F_0204"]),
                self._sum(["F_0042", "F_0024"]),
            ]
        return self._bold_F

    def vector_Vpp(self) -> tuple:
        bits = [self._poly_bit(p) for p in self.bold_F()]
        bits += [self.nullity(n) for n in ("L_6000", "L_0600", "L_0060", "L_0006")]
        return tuple(bits)

    def vector_W(self) -> tuple:
        bf = self.bold_F()
        f42 = Polynomial({})
        for p in bf:
            f42 = f42 + p
        # F_42 minus the named pair and its complementary pair.
        over_0 = f42 - bf[0] - bf[5]
        over_1 = f42 - bf[1] - bf[4]
        over_2 = f42 - bf[2] - bf[3]
        return (
            self._poly_bit(f42),
            self._product_bit([over_0, over_1, over_2]),
            self._product_bit(bf),
        )


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

VPRIME_IDS = _ids("L_6000", "L_0600", "L_0060", "L_0006")

# Extended discovery basis: the T list plus the degree-6 covariants feeding
# V'' and the catalog's own degree-2 invariant.  These are exactly the bits
# the golden evaluation tables summarize, and the partition they induce
# coincides with the full catalog's on both census runs; the slow
# cross-check test compares against full-catalog signatures on a sample.
EXTENDED_T_IDS = T_IDS + _ids(
    "B_0000",
    "F_4200", "F_2400", "F_4020", "F_2040", "F_4002", "F_2004",
    "F_0420", "F_0240", "F_0402", "F_0204", "F_0042", "F_0024",
)


def split_T(signature) -> list:
    """Split a 29-bit T signature into its seven printed rows."""
    rows = []
    pos = 0
    for n in T_ROW_LENGTHS:
        rows.append(list(signature[pos : pos + n]))
        pos += n
    return rows
