import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from entatlas.catalog import (
    CATALOG_SHA256,
    GROUND_ID,
    Catalog,
    CatalogError,
    CovariantId,
    EXTENDED_T_IDS,
    EvalSession,
    T_IDS,
    _parse_line,
    catalog_file_sha256,
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
    to_ground_form,
)
from entatlas.poly import Polynomial, x
from entatlas.scalars import GaussianRational
from entatlas.transvect import transvect

from conftest import ket_state


def test_census(catalog):
    assert len(catalog) == 170
    deg2 = [str(c) for c in catalog.ids_of_degree(2)]
    assert deg2 == ["B_0000", "B_2200", "B_2020", "B_2002", "B_0220", "B_0202", "B_0022"]
    deg12 = [str(c) for c in catalog.ids_of_degree(12)]
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
    assert catalog_file_sha256() == CATALOG_SHA256


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
        defs.append(dataclasses.replace(d, terms=terms))
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


def test_parse_rejects_forward_reference():
    with pytest.raises(CatalogError):
        from entatlas.catalog import Catalog

        Catalog([_parse_line("A 1111 GROUND"), _parse_line("B_2200 2200 1/2:A:Z_0000:0011")])


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
            acc = Polynomial.zero()
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
    assert sess.scale == q
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


def test_gaussian_and_float_states_are_not_cleared(catalog):
    """Only int/Fraction states are cleared; Gaussian and float states are
    evaluated as given and keep their labels."""
    i = GaussianRational(0, Fraction(1, 2))
    for label in (59520, 65257, 65529, 65534):
        nf = orbit_records()[label].normal_form
        gauss = State([i * a for a in nf.amps])
        floats = State([float(a) / 3 for a in nf.amps])
        for s in (gauss, floats):
            assert catalog.session(s).scale == 1
            assert classify(s, extended=True).label == label


def test_memoization(catalog):
    s = decode_form(59520)
    sess = catalog.session(s)
    # C_3111 is nonzero on the W state and D_4000 vanishes; both memoize.
    for name, nonzero in (("C_3111", True), ("D_4000", False)):
        first = sess._value(name)
        assert bool(first) == nonzero
        assert sess._value(name) is first
        assert sess.eval(name).terms is first


def test_evaluated_multihomogeneity(catalog):
    s = random_state(17)
    sess = catalog.session(s)
    for cid in list(catalog.order)[:60]:
        p = sess.eval(cid)
        assert p.is_zero() or p.multidegree() == cid.multidegree


def test_value_rejects_wrong_multidegree(catalog, monkeypatch):
    # The kernel checks nothing, so _value's per-covariant check is what
    # stops a value of the wrong multidegree: shift every kernel result by
    # x1_0, which makes B_0000 = (1/2)(A, A)^1111 of multidegree (1, 0, 0, 0).
    kernel = EvalSession._transvect_ground

    def shifted(self, terms, idx):
        return {k + 1: c for k, c in kernel(self, terms, idx).items()}

    monkeypatch.setattr(EvalSession, "_transvect_ground", shifted)
    sess = catalog.session(random_state(17))
    with pytest.raises(CatalogError, match=r"B_0000: evaluated multidegree \(1, 0, 0, 0\)"):
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


def _literal_product(polys):
    acc = Polynomial.constant(1)
    for p in polys:
        acc = acc * p
    return acc


def test_product_bits_match_literal_products(catalog):
    """The V bit of C_3111·C_1311·C_1131·C_1113 and the W bits of
    over_0·over_1·over_2 and of the six bold-F sums are decided as the
    conjunction of the factor bits; each must equal the nonzero test of the
    literal product.  States: the normal form of every T_V-branch (nilpotent)
    and Vpp_W-branch class, and two SL2^4 images of each.  Site degrees of
    these products stay <= 12, inside the 4-bit exponent field."""
    records = orbit_records()
    branches = [(label, "V") for label in GOLDEN.tables["nullcone_class_list"] if label]
    branches += [(int(label), "W") for label in GOLDEN.tables["vpp_classes"]]
    seen = {"V": set(), "W_over": set(), "W_F": set()}
    for label, vector in branches:
        nf = records[label].normal_form
        for s in [nf] + [apply_local(random_sl2_tuple(label * 100 + i), nf) for i in range(2)]:
            sess = catalog.session(s)
            if vector == "V":
                cs = [sess.eval(c) for c in ("C_3111", "C_1311", "C_1131", "C_1113")]
                literal = int(not _literal_product(cs).is_zero())
                assert sess.vector_V()[3] == literal, (label, s)
                seen["V"].add(literal)
                continue
            bf = [Polynomial(terms) for terms in sess.bold_F()]
            f42 = sum(bf, Polynomial.zero())
            overs = [f42 - bf[0] - bf[5], f42 - bf[1] - bf[4], f42 - bf[2] - bf[3]]
            literal = (
                int(not _literal_product(overs).is_zero()),
                int(not _literal_product(bf).is_zero()),
            )
            assert sess.vector_W()[1:] == literal, (label, s)
            seen["W_over"].add(literal[0])
            seen["W_F"].add(literal[1])
    # Each bit is exercised both ways, so the comparison cannot pass vacuously.
    assert all(bits == {0, 1} for bits in seen.values()), seen
