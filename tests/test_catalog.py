import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

import entatlas.catalog as catalog_module
from entatlas.catalog import (
    CATALOG_SHA256,
    FLOAT_TOLERANCE,
    GROUND_ID,
    Catalog,
    CatalogError,
    CovariantId,
    EXTENDED_T_IDS,
    EvalSession,
    T_IDS,
    V_SPEC,
    VPP_SPEC,
    W_SPEC,
    _parse_line,
    _read_data,
    build_catalog,
    split_T,
)
from entatlas.classify import GOLDEN, classify, orbit_records
from entatlas.invariants import sextic_coeffs
from entatlas.qstate import (
    State,
    apply_local,
    decode_form,
    random_sl2_tuple,
    random_state,
)
from entatlas.poly import _W, Polynomial, x
from entatlas.scalars import GaussianRational

from conftest import ket_state
from omega_oracle import Poly, _add_raw, _diff_raw, _mul_raw, _scale_raw, to_ground_form, transvect


def test_census(catalog):
    assert len(catalog) == 170
    deg2 = [str(c) for c in catalog.order if catalog.defs[c].adeg == 2]
    assert deg2 == ["B_0000", "B_2200", "B_2020", "B_2002", "B_0220", "B_0202", "B_0022"]
    deg12 = [str(c) for c in catalog.order if catalog.defs[c].adeg == 12]
    assert deg12 == ["L_6000", "L_0600", "L_0060", "L_0006"]


def test_declared_multidegrees(catalog):
    c = CovariantId.parse("C_3111")
    assert c.multidegree == (3, 1, 1, 1)
    assert c in catalog


def test_id_parse_roundtrip():
    for text in ("A", "B_0000", "C1_1111", "F2_2220", "L_6000", "H2_0222"):
        assert str(CovariantId.parse(text)) == text
    with pytest.raises(CatalogError):
        CovariantId.parse("Q_1111")
    with pytest.raises(CatalogError):
        CovariantId.parse("B_12")


def test_hash_pinned():
    text = _read_data("covariants.txt")
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256


def _defs_with_first_term_altered(catalog, name, alter):
    """Fresh copies of the real catalog definitions, with ``alter`` applied
    to the first term of ``name``."""
    target = CovariantId.parse(name)
    defs = []
    for cid in catalog.order:
        d = catalog.defs[cid]
        terms = d.terms
        if cid == target:
            terms = (alter(*terms[0]),) + terms[1:]
        defs.append(d._replace(terms=terms))
    return defs


def test_parse_rejects_degree_law_violation(catalog):
    """The load-time checks the evaluation kernel relies on and does not
    repeat: an index must fit the operand degrees, and the degree law must
    give the declared multidegree."""
    with pytest.raises(CatalogError, match="exceeds degrees"):
        defs = [
            _parse_line("A 1111 GROUND"),
            _parse_line("B_2200 2200 1/2:A:A:0011"),
            _parse_line("C_3111 3111 1:A:B_2200:0010"),
        ]
        Catalog(defs)
    # C_3111's first term is (A, B_2200)^{0100}; B_2200 has degree 0 at site 3.
    site3 = _defs_with_first_term_altered(
        catalog, "C_3111", lambda coef, lhs, rhs, idx: (coef, lhs, rhs, (0, 0, 1, 0))
    )
    with pytest.raises(CatalogError, match="exceeds degrees"):
        Catalog(site3)
    # Index {1000} fits, but the law gives (1, 3, 1, 1), not (3, 1, 1, 1).
    site1 = _defs_with_first_term_altered(
        catalog, "C_3111", lambda coef, lhs, rhs, idx: (coef, lhs, rhs, (1, 0, 0, 0))
    )
    with pytest.raises(CatalogError, match=r"degree law gives \(1, 3, 1, 1\)"):
        Catalog(site1)


def test_catalog_rejects_terms_not_on_the_ground_form(catalog):
    """Every term must be (A, X)^idx with idx in {0,1}^4; the load fails
    on a swapped left operand and on an index entry of 2."""
    unchanged = _defs_with_first_term_altered(catalog, "C_3111", lambda *term: term)
    assert len(Catalog(unchanged)) == 170
    swapped = _defs_with_first_term_altered(
        catalog, "C_3111", lambda coef, lhs, rhs, idx: (coef, rhs, lhs, idx)
    )
    with pytest.raises(CatalogError, match="not of the form"):
        Catalog(swapped)
    doubled = _defs_with_first_term_altered(
        catalog, "B_2200", lambda coef, lhs, rhs, idx: (coef, lhs, rhs, (0, 0, 1, 2))
    )
    with pytest.raises(CatalogError, match="not of the form"):
        Catalog(doubled)


def test_catalog_leaves_its_definitions_untouched(catalog):
    """``Catalog(defs)`` keeps validated copies and changes none of the
    entries it is given.  Built from the cached catalog's own entries with
    B_2200's coefficient 1/2 changed to 1/3, it derives other lam and
    integer coefficients for B_2200 and the entries above it; the cached
    catalog keeps its fields and its values on form 65257."""
    s = decode_form(65257)
    target = CovariantId.parse("B_2200")
    fields = {cid: (d.adeg, d.lam, d.int_coefs) for cid, d in catalog.defs.items()}
    values = {cid: catalog.eval_covariant(cid, s) for cid in catalog.order}
    defs = [catalog.defs[cid] for cid in catalog.order]
    (coef, lhs, rhs, idx), = catalog.defs[target].terms
    assert coef == Fraction(1, 2)
    defs[catalog.order.index(target)] = catalog.defs[target]._replace(
        terms=((Fraction(1, 3), lhs, rhs, idx),)
    )
    altered = Catalog(defs)
    assert altered.defs[target].lam == 3
    assert altered.eval_covariant(target, s) == Poly(values[target].terms) * Fraction(2, 3)
    assert {cid: (d.adeg, d.lam, d.int_coefs) for cid, d in catalog.defs.items()} == fields
    assert {cid: catalog.eval_covariant(cid, s) for cid in catalog.order} == values


def test_parse_rejects_forward_reference():
    """C_3111 refers to B_2200, a valid id defined only on the next line:
    the load fails on the DAG check, not on the id."""
    with pytest.raises(CatalogError, match=r"reference B_2200 not defined earlier \(DAG break\)"):
        Catalog([
            _parse_line("A 1111 GROUND"),
            _parse_line("C_3111 3111 1:A:B_2200:1000"),
            _parse_line("B_2200 2200 1/2:A:A:0011"),
        ])


_B_2200 = "B_2200 2200 1/2:A:A:0011"
_C1_1111 = ("B_0022 0022 1/2:A:A:1100", "C1_1111 1111 1:A:B_2200:1100 1:A:B_0022:0011")


@pytest.mark.parametrize(
    "lines, message",
    [
        (["B_2200 220 1/2:A:A:0011"], r"B_2200: bad multidegree field '220'"),
        (["B_2200 22x0 1/2:A:A:0011"], r"B_2200: bad multidegree field '22x0'"),
        (["B_2200 2020 1/2:A:A:0011"], "B_2200: id and multidegree field disagree"),
        (["B_2200 2200 1/2:A:A"], r"B_2200: bad term '1/2:A:A'"),
        (["B_2200 2200 1/2:A:A:001"], r"B_2200: bad index '001'"),
        (["B_2200 2200 1/2:A:A:0x11"], r"B_2200: bad term '1/2:A:A:0x11'"),
        (["B_2200 2200 x:A:A:0011"], r"B_2200: bad term 'x:A:A:0011'"),
        (["A 1111 GROUND", _B_2200, _B_2200], "duplicate catalog ids"),
        (["A 1111 GROUND", "B_2200 2200 GROUND"], "unexpected ground entry B_2200"),
        (
            ["A 1111 GROUND", _B_2200, *_C1_1111, "D_2200 2200 1:A:C1_1111:0011 1:A:A:0011"],
            "D_2200: terms disagree on coefficient degree",
        ),
        (["A 1111 GROUND", _B_2200], r"per-degree census \{1: 1, 2: 1\} != expected"),
        (None, "catalog file hash [0-9a-f]{64} does not match pinned " + CATALOG_SHA256),
    ],
    ids=["multidegree", "multidegree-digit", "id-multidegree", "term", "index", "index-digit",
         "coefficient", "duplicate", "ground", "coefficient-degree", "census", "file-hash"],
)
def test_loader_rejects_malformed_catalogs(monkeypatch, lines, message):
    """Each load-time check names what it found.  The entries are parsed by
    ``_parse_line`` and validated by ``Catalog``; ``None`` stands for the
    real file with one byte added, which ``build_catalog`` refuses on its
    pinned hash (the cached catalog is set aside and restored)."""
    if lines is None:
        text = _read_data("covariants.txt") + "\n"
        monkeypatch.setattr(catalog_module, "_read_data", lambda name: text)
        monkeypatch.setattr(catalog_module, "_cached", None)
        load = build_catalog
    else:
        def load():
            return Catalog([_parse_line(line) for line in lines])
    with pytest.raises(CatalogError, match=message):
        load()


def test_eval_ground_on_basis_ket(catalog):
    p = catalog.eval_covariant("A", ket_state((0, 0, 0, 0)))
    assert p == Polynomial.monomial(1, {x(1, 0): 1, x(2, 0): 1, x(3, 0): 1, x(4, 0): 1})


def test_eval_sextics_on_65511(catalog):
    s = decode_form(65511)
    # the printed evaluation block for 65511 ends 0,0,0,1 in the
    # (L_6000, L_0600, L_0060, L_0006) order
    assert catalog.eval_covariant("L_6000", s).is_zero()
    assert catalog.eval_covariant("L_0600", s).is_zero()
    assert catalog.eval_covariant("L_0060", s).is_zero()
    assert not catalog.eval_covariant("L_0006", s).is_zero()


def test_eval_sextic_multidegree(catalog):
    p = catalog.eval_covariant("L_6000", decode_form(65218))
    assert p.multidegree() == (6, 0, 0, 0)


def test_eval_b2200_on_basis_ket(catalog):
    assert catalog.eval_covariant("B_2200", ket_state((0, 0, 0, 0))).is_zero()


def test_unknown_id(catalog):
    with pytest.raises(CatalogError):
        catalog.eval_covariant("B_1111", decode_form(3))


def test_signature_vectors(catalog):
    t59520 = catalog.vector_T(decode_form(59520))
    assert split_T(t59520) == [[1], [1, 1, 1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0],
                               [0, 0, 0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert catalog.vector_T(decode_form(0)) == (0,) * 29
    t65535 = catalog.vector_T(decode_form(65535))
    assert t65535[0] == 1 and not any(t65535[1:])


def test_vector_V_stratum_rows(catalog):
    assert catalog.vector_V(decode_form(59520)) == (1, 1, 1, 1, 0, 0, 0, 0)
    assert catalog.vector_V(decode_form(64700)) == (1, 1, 1, 1, 1, 1, 0, 0)
    assert catalog.vector_V(decode_form(65520)) == (1, 1, 0, 0, 0, 0, 0, 0)


def test_vector_Vp(catalog):
    assert catalog.vector_Vp(decode_form(65257)) == (1, 1, 1, 1)
    assert catalog.vector_Vp(decode_form(59510)) == (0, 0, 0, 0)


def test_vector_Vpp(catalog):
    assert catalog.vector_Vpp(decode_form(65529)) == (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)


def test_vector_W(catalog):
    assert catalog.vector_W(decode_form(65534)) == (0, 0, 0)
    assert catalog.vector_W(decode_form(65259)) == (1, 1, 1)
    assert catalog.vector_W(decode_form(65529)) == (1, 0, 0)


def _literal_values(catalog, s):
    """Every catalog covariant on s by the literal Omega process, with no
    clearing of denominators."""
    values = {GROUND_ID: to_ground_form(s)}
    for cid in catalog.order:
        if cid != GROUND_ID:
            acc = Poly()
            for coef, lhs, rhs, idx in catalog.defs[cid].terms:
                acc = acc + coef * transvect(values[lhs], values[rhs], idx)
            values[cid] = acc
    return values


@pytest.mark.parametrize("q", [2, 3, 6])
def test_cleared_denominators_match_literal_evaluation(catalog, q):
    """On a Fraction state with denominators of lcm q the session evaluates
    on q*A; ``eval`` must still give every covariant of A itself, as the
    literal Omega process computes it on the uncleared amplitudes."""
    rng = random.Random(q)
    dens = [d for d in (1, 2, 3, 6) if q % d == 0]
    amps = [Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice(dens)) for _ in range(16)]
    amps[0] = Fraction(1, q)
    s = State(amps)
    sess = catalog.session(s)
    assert sess.scale == s.scale == q
    literal = _literal_values(catalog, s)
    nonzero = 0
    for cid in catalog.order:
        assert sess.eval(cid) == literal[cid], cid
        nonzero += not literal[cid].is_zero()
    assert nonzero > 150
    sextic = literal[CovariantId.parse("L_6000")]
    assert sextic_coeffs(s) == tuple(
        Fraction(sextic.coefficient({x(1, 0): 6 - i, x(1, 1): i})) / comb(6, i)
        for i in range(7)
    )


def test_float_states_are_cleared_and_gaussian_states_are_not(catalog):
    """Float states are cleared like Fraction states: here each a/3 in
    floats is a dyadic rational whose denominator divides 2^54, so the
    session evaluates the integers 2^54 * a/3.  Gaussian states are
    evaluated as given.  Both keep their labels."""
    i = GaussianRational(0, Fraction(1, 2))
    for label in (59520, 65257, 65529, 65534):
        nf = orbit_records()[label].normal_form
        gauss = State([i * a for a in nf.amps])
        floats = State([float(a) / 3 for a in nf.amps])
        assert catalog.session(gauss).scale == 1
        assert catalog.session(floats).scale == floats.scale == 2 ** 54
        assert floats.cleared == tuple(int(Fraction(a) * 2 ** 54) for a in floats.amps)
        assert all(Fraction(a) * 2 ** 54 == c for a, c in zip(floats.amps, floats.cleared))
        for s in (gauss, floats):
            assert classify(s, extended=True).label == label


def test_memoization(catalog):
    s = decode_form(59520)
    sess = catalog.session(s)
    # C_3111 is nonzero on the W state and D_4000 vanishes; both memoize.
    for name, nonzero in (("C_3111", True), ("D_4000", False)):
        cid = CovariantId.parse(name)
        first = sess._value(cid)
        assert bool(first) == nonzero
        assert sess._value(cid) is first
        # The memo holds lam_C * C on an exact state; eval divides it out.
        lam = catalog.defs[cid].lam
        assert sess.eval(name).terms == {k: Fraction(c, lam) for k, c in first.items()}


def test_eval_returns_a_copy_of_the_memo(catalog):
    """Editing what eval returns leaves the session's memo alone, on a
    float state too, where eval rounds each coefficient."""
    nf = apply_local(random_sl2_tuple(1), decode_form(65257))
    sess = catalog.session(State([float(a) for a in nf.amps]))
    sess.eval("B_2200").terms.clear()
    assert sess.signature((CovariantId.parse("B_2200"),)) == (1,)


def test_evaluated_multihomogeneity(catalog):
    s = random_state(17)
    sess = catalog.session(s)
    for cid in list(catalog.order)[:60]:
        p = sess.eval(cid)
        assert p.is_zero() or p.multidegree() == cid.multidegree


def test_value_rejects_wrong_multidegree(catalog, monkeypatch):
    # The kernel checks nothing, so _value's per-covariant check is what
    # stops a value of the wrong multidegree, and it raises CatalogError,
    # never NonHomogeneousError, on each kind of bad value: shift every
    # kernel result by x1_0, which makes B_0000 = (1/2)(A, A)^1111 of
    # multidegree (1, 0, 0, 0); add an x1_0 term beside its constant, which
    # mixes two multidegrees; add a t_0 term, which lies outside the eight
    # site fields.
    kernel = EvalSession._transvect_ground
    bad_values = {
        "shifted": (
            lambda v: {k + 1: c for k, c in v.items()},
            r"B_0000: evaluated multidegree \(1, 0, 0, 0\) != declared \(0, 0, 0, 0\)",
        ),
        "mixed": (
            lambda v: {**v, 1: 1},
            r"B_0000: evaluated multidegree \(0, 0, 0, 0\), \(1, 0, 0, 0\) != declared",
        ),
        "t variable": (
            lambda v: {**v, 1 << (8 * _W): 1},
            r"B_0000: evaluated multidegree undefined: a key lies outside the eight site fields",
        ),
    }
    for edit, message in bad_values.values():
        def edited(self, acc, terms, idx, coef, edit=edit):
            return edit(kernel(self, acc, terms, idx, coef))

        monkeypatch.setattr(EvalSession, "_transvect_ground", edited)
        sess = catalog.session(random_state(17))
        with pytest.raises(CatalogError, match=message):
            sess.eval("B_0000")


def test_signature_sl_invariance(catalog):
    s = random_state(19)
    g = random_sl2_tuple(20)
    ids = EXTENDED_T_IDS
    assert catalog.signature(s, ids) == catalog.signature(apply_local(g, s), ids)


def test_signature_scale_invariance(catalog):
    s = random_state(23)
    assert catalog.signature(s, T_IDS) == catalog.signature(s.scaled(Fraction(-7, 3)), T_IDS)


def test_b0000_matches_parity_formula(catalog):
    # redundancy cross-check: the evaluated degree-2 invariant equals the
    # explicit signed pairing sum_I (-1)^|I| a_I a_Ibar / 2
    for seed in range(5):
        s = random_state(seed)
        val = catalog.eval_covariant("B_0000", s).coefficient({})
        explicit = sum(
            (-1 if bin(b).count("1") & 1 else 1) * s.amps[b] * s.amps[15 - b]
            for b in range(16)
        )
        assert 2 * val == explicit


SPECS = {"V": V_SPEC, "Vpp": VPP_SPEC, "W": W_SPEC}


def test_spec_groups_have_distinct_multidegrees(catalog):
    """``EvalSession.bits`` decides a group's sum from its summands alone,
    which holds because their multidegrees, hence their supports, are
    pairwise distinct."""
    for name, spec in SPECS.items():
        for entry in spec:
            assert entry, name
            for group in entry:
                assert group and all(cid in catalog for cid in group), (name, group)
                degrees = [cid.multidegree for cid in group]
                assert len(set(degrees)) == len(degrees), (name, group)


def _literal_bits(sess, spec):
    """Each bit of ``spec`` from the literal sums and products of the
    evaluated covariants."""
    bits = []
    for entry in spec:
        product = Poly.constant(1)
        for group in entry:
            product = product * sum((sess.eval(cid) for cid in group), Poly())
        bits.append(int(not product.is_zero()))
    return tuple(bits)


def test_product_bits_match_literal_products(catalog):
    """Every bit of V, V'' and W, decided from the spec tables without
    forming a sum or product, equals the nonzero test of the literal sums
    and products.  States: the normal form of every T_V-branch (nilpotent)
    class, checked on V, and of every Vpp_W-branch class, checked on V''
    and W, each with two SL2^4 images.  Site degrees of these products stay
    <= 12, inside the 4-bit exponent field."""
    records = orbit_records()
    branches = [(label, ("V",)) for label in GOLDEN.tables["nullcone_class_list"] if label]
    branches += [(int(label), ("Vpp", "W")) for label in GOLDEN.tables["vpp_classes"]]
    seen = {("V", 3): set(), ("W", 1): set(), ("W", 2): set()}
    for label, names in branches:
        nf = records[label].normal_form
        for s in [nf] + [apply_local(random_sl2_tuple(label * 100 + i), nf) for i in range(2)]:
            sess = catalog.session(s)
            for name in names:
                got = getattr(sess, f"vector_{name}")()
                assert got == _literal_bits(sess, SPECS[name]), (label, name, s)
                for (vector, pos), bits in seen.items():
                    if vector == name:
                        bits.add(got[pos])
    # Each product bit is exercised both ways, so the comparison cannot pass
    # vacuously.
    assert all(bits == {0, 1} for bits in seen.values()), seen


LAM6 = ("C_3111", "C_1311", "C_1131", "C_1113", "D_4000", "D_0400", "D_0040", "D_0004")


def test_integer_scale_table(catalog):
    """lam_A = 1, lam_C = 6 on exactly the C_3111 and D_4000 families and
    2 elsewhere, and every scaled term coefficient lam_C * coef / lam_X is
    the int +1 or -1, which makes each exact value a signed sum of its
    terms."""
    lams = {str(cid): catalog.defs[cid].lam for cid in catalog.order}
    assert lams.pop("A") == 1
    assert {name for name, lam in lams.items() if lam == 6} == set(LAM6)
    assert set(lams.values()) == {2, 6}
    for cid in catalog.order:
        d = catalog.defs[cid]
        assert len(d.int_coefs) == len(d.terms)
        for k, (coef, _, rhs, _) in zip(d.int_coefs, d.terms):
            assert type(k) is int and k in (1, -1)
            assert k == d.lam * coef / catalog.defs[rhs].lam


class _OracleSession(EvalSession):
    """The Omega expansion of (A, rhs)^idx taken literally, before integer
    scaling and the per-site rule: every selector differentiates a slice of
    A and rhs afresh, and its product is added with a copying ``_add_raw``;
    every state sums the catalog's own ``Fraction`` coefficients."""

    def _ground_slice(self, sel):
        """The derivative of A given per site by ``sel``: 0 = untouched,
        1 = d/dx_{k,0}, 2 = d/dx_{k,1}."""
        free = [k for k in range(4) if sel[k] == 0]
        terms = {}
        for m in range(1 << len(free)):
            b = sum(1 << k for k in range(4) if sel[k] == 2)
            key = 0
            for pos, k in enumerate(free):
                bit = (m >> pos) & 1
                b += bit << k
                key += 1 << (_W * (2 * k + bit))
            if self._amps[b]:
                terms[key] = self._amps[b]
        return terms

    def _omega_term(self, rhs, idx):
        sites = [k for k in range(4) if idx[k]]
        acc = {}
        for m in range(1 << len(sites)):
            sel = [0, 0, 0, 0]
            sign = 1
            dR = rhs
            for pos, k in enumerate(sites):
                j = (m >> pos) & 1
                sel[k] = 1 + j
                if j:
                    sign = -sign
                dR = _diff_raw(dR, 2 * k + 1 - j)
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
        return acc

    def _value(self, cid):
        value = self._values.get(cid)
        if value is None:
            value = {}
            for coef, _, rhs, idx in self.catalog.defs[cid].terms:
                tv = self._omega_term(self._value(rhs), idx)
                if coef == -1:
                    tv = {k: -c for k, c in tv.items()}
                elif coef != 1:
                    tv = _scale_raw(tv, coef)
                value = _add_raw(value, tv)
            self._values[cid] = value
        return value

    def eval(self, cid):
        value = self._value(cid)
        if self.scale == 1 or not value:
            return Polynomial(value)
        return Polynomial(_scale_raw(value, Fraction(1, self.scale ** self.catalog.defs[cid].adeg)))


def test_sessions_keep_their_own_memo(catalog):
    """The exact kernel's memo of feeds (offsets and signed amplitudes per
    index-site exponent pattern) reads the session's amplitudes, so it must
    be the session's own: two sessions on states of one scalar kind,
    evaluated covariant by covariant in turn, give every value a fresh
    session gives, key for key and in the same key order, and the fresh
    session gives the oracle's value, which no memo shared between
    sessions could.  Int, Fraction and Gaussian states."""
    i = GaussianRational(0, 1)
    records = orbit_records()
    w, secant = records[59520].normal_form, records[65257].normal_form
    pairs = {
        "int": (random_state(1), random_state(2)),
        "Fraction": tuple(
            State([Fraction(a, 1 + b % 3) for b, a in enumerate(random_state(seed).amps)])
            for seed in (3, 4)
        ),
        "Gaussian": (
            State([i * a for a in w.amps]),
            State([i * a + b % 2 for b, a in enumerate(secant.amps)]),
        ),
    }
    for kind, states in pairs.items():
        sessions = [catalog.session(s) for s in states]
        for cid in catalog.order:
            for sess in sessions:
                sess._value(cid)
        for s, sess in zip(states, sessions):
            fresh, oracle = catalog.session(s), _OracleSession(catalog, s)
            for cid in catalog.order:
                got, want = sess._value(cid), fresh._value(cid)
                assert list(got.items()) == list(want.items()), (kind, s, cid)
                assert fresh.eval(cid) == oracle.eval(cid), (kind, s, cid)


def _read_all(sess):
    """Every bit the classifier reads, which also sets ``min_margin``."""
    return (sess.signature(EXTENDED_T_IDS), sess.vector_V(), sess.vector_Vpp(), sess.vector_W())


class _RoundedOnce(EvalSession):
    """An exact session whose bits apply the float tolerance rule to its
    exact values, each coefficient rounded once by ``float``."""

    def _bit(self, group):
        mag = max(
            (abs(float(c)) for cid in group for c in self.eval(cid).terms.values()), default=0.0
        )
        if mag > FLOAT_TOLERANCE:
            self.min_margin = min(self.min_margin, mag / FLOAT_TOLERANCE)
            return 1
        if mag:
            self.min_margin = min(self.min_margin, FLOAT_TOLERANCE / mag)
        return 0


def test_float_values_match_unscaled_oracle(catalog):
    """A float state's values are its exact values rounded once: its
    memoized values are ints, every ``eval`` value equals ``float`` of the
    oracle's value on the same amplitudes as ``Fraction``s, and the bits
    and ``min_margin`` are the tolerance rule applied to those rounded
    exact values.  States: an SL2^4
    image of each of the 48 nonzero normal forms, in floats, at scales
    1e-3, 1 and 1e3 (the scaled amplitudes are not all integers)."""
    margins = set()
    for label, rec in sorted(orbit_records().items()):
        if not label:
            continue
        image = apply_local(random_sl2_tuple(label * 100), rec.normal_form)
        for scale in (1e-3, 1.0, 1e3):
            s = State([float(a) * scale for a in image.amps])
            exact = State([Fraction(a) for a in s.amps])
            sess, oracle = catalog.session(s), _OracleSession(catalog, exact)
            for cid in catalog.order:
                want = {k: float(c) for k, c in oracle.eval(cid).terms.items()}
                assert sess.eval(cid).terms == want, (label, scale, cid)
                assert all(type(c) is int for c in sess._value(cid).values())
            rounded = _RoundedOnce(catalog, exact)
            assert _read_all(sess) == _read_all(rounded), (label, scale)
            assert sess.min_margin == rounded.min_margin, (label, scale)
            margins.add(sess.min_margin)
    assert len(margins) > 100


def test_exact_values_match_unscaled_oracle(catalog):
    """All 170 ``eval`` values equal the oracle's on int, ``Fraction`` and
    Gaussian states, the integer states' memoized values are ints, and no
    memoized value holds a zero coefficient (``_value`` drops the sums
    that cancel, and the exact ``_bit`` reads ``any(values)``)."""
    i = GaussianRational(0, Fraction(1, 2))
    records = orbit_records()
    for label in (59520, 6014, 65257, 64704, 65534, 59777, 59510):
        nf = records[label].normal_form
        states = [nf, random_state(label), apply_local(random_sl2_tuple(label * 100), nf)]
        for s in states:
            sess, oracle = catalog.session(s), _OracleSession(catalog, s)
            for cid in catalog.order:
                assert sess.eval(cid) == oracle.eval(cid), (label, s, cid)
                assert all(type(c) is int and c for c in sess._value(cid).values())
        if label in (6014, 65257):
            # Gaussian states are slow (Fraction parts), so only two.
            gauss = State([i * a + Fraction(b % 3, 2) for b, a in enumerate(nf.amps)])
            sess, oracle = catalog.session(gauss), _OracleSession(catalog, gauss)
            for cid in catalog.order:
                assert sess.eval(cid) == oracle.eval(cid), (label, gauss, cid)
                assert all(sess._value(cid).values()), (label, gauss, cid)
