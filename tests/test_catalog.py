from fractions import Fraction

import pytest

from entatlas.catalog import (
    CATALOG_SHA256,
    CatalogError,
    CovariantId,
    EXTENDED_T_IDS,
    T_IDS,
    _parse_line,
    catalog_file_sha256,
    split_T,
)
from entatlas.classify import GOLDEN, orbit_records
from entatlas.qstate import apply_local, decode_form, random_sl2_tuple, random_state
from entatlas.poly import Polynomial, x

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


def test_parse_rejects_degree_law_violation():
    with pytest.raises(CatalogError):
        from entatlas.catalog import Catalog

        defs = [
            _parse_line("A 1111 GROUND"),
            _parse_line("B_2200 2200 1/2:A:A:0011"),
            _parse_line("C_3111 3111 1:A:B_2200:0010"),
        ]
        Catalog(defs)


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


def test_memoization(catalog):
    s = decode_form(59520)
    sess = catalog.session(s)
    assert sess.eval("D_4000") is sess.eval("D_4000")


def test_evaluated_multihomogeneity(catalog):
    s = random_state(17)
    sess = catalog.session(s)
    for cid in list(catalog.order)[:60]:
        p = sess.eval(cid)
        assert p.is_zero() or p.multidegree() == cid.multidegree


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
            bf = sess.bold_F()
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
