"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints one PASS/FAIL line (visible with -s or -rA).  Criterion 8
concerns the secant factorization of the hyperdeterminant, recorded as
Delta == 6912 * D_xy * Z.  That form is degree-inconsistent (24 against 12)
and cannot hold where both sides are nonzero, so the criterion checks the
degree-consistent identity -256 * Delta == 6912 * D_xy**3 * Z, which its
docstring derives from the discriminant of the assembled quartic, and
asserts Delta != 0 where it must be so that the check cannot pass vacuously.
"""

import json
import random
from fractions import Fraction

from entatlas.atlas import _GR3PP, ClassTable, adherence_order, verify_tables
from entatlas.catalog import VPRIME_IDS, _read_data, build_catalog, split_T
from entatlas.classify import (
    GOLDEN,
    classify,
    classify_secant3_extended,
    orbit_dimension,
    orbit_records,
    permutation_type,
    terracini_rank,
)
from entatlas.invariants import (
    hyperdet_delta,
    inv_B,
    inv_D,
    inv_I2,
    inv_L,
    inv_M,
    inv_N,
    inv_Z,
    quartic_delta,
    verstraete_quartic_coeffs,
)
from entatlas.qstate import (
    QubitPermutation,
    State,
    apply_local,
    decode_form,
    permute_qubits,
    random_sl2_tuple,
    random_state,
)

NULLCONE_31 = GOLDEN.tables["nullcone_class_list"]
SECANT_17 = GOLDEN.tables["secant_class_list"]
NONZERO_DELTA = (59777, 65257)  # the secant classes on which Delta != 0


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    return ok


def _nullcone_partition(table):
    """Classes of the shared census whose invariant bits all vanish."""
    return {
        sig: members
        for sig, members in table.classes.items()
        if sig[:4] == (0, 0, 0, 0)
    }


def test_criterion_01_nullcone_census(secant_table):
    forms, table = secant_table
    nil = _nullcone_partition(table)
    count = sum(len(m) for m in nil.values())
    reps = {table.representatives[sig] for sig in nil}
    ok = count == 11662 and len(nil) == 31 and reps == set(NULLCONE_31)
    assert _report(
        1, "nullcone census", ok,
        f"count={count} classes={len(nil)} reps-diff={sorted(reps ^ set(NULLCONE_31))}",
    )


def test_criterion_02_evaluation_blocks(catalog):
    bad = []
    for label_s, rows in GOLDEN.tables["evaluation_blocks"].items():
        n = int(label_s)
        got = split_T(catalog.vector_T(decode_form(n)))
        if got != [list(r) for r in rows]:
            bad.append(n)
    assert _report(2, "29-entry evaluation blocks (31 representatives)", not bad, f"bad={bad}")


def test_criterion_03_strata_table(catalog):
    strata_rows = GOLDEN.tables["strata_V"]
    bad = []
    for label in NULLCONE_31:
        group = GOLDEN.orbits[label].group
        if list(catalog.vector_V(decode_form(label))) != strata_rows[group]:
            bad.append(label)
    assert _report(3, "nullcone strata vector on all nine strata", not bad, f"bad={bad}")


def test_criterion_04_secant_census(secant_table, catalog):
    forms, table = secant_table
    secant_reps = set(table.representatives.values()) - set(NULLCONE_31)
    ok = secant_reps == set(SECANT_17)
    detail = f"reps-diff={sorted(secant_reps ^ set(SECANT_17))}"
    t4 = all(
        list(catalog.vector_Vp(decode_form(int(l)))) == row["vprime"]
        for l, row in GOLDEN.tables["vprime_classes"].items()
    )
    t5 = all(
        list(catalog.vector_Vpp(decode_form(int(l)))) == row["vpp"]
        for l, row in GOLDEN.tables["vpp_classes"].items()
    )
    t6 = all(
        list(catalog.vector_W(decode_form(int(l)))) == GOLDEN.tables["strata_W"][row["stratum"]]
        for l, row in GOLDEN.tables["vpp_classes"].items()
    )
    ok = ok and t4 and t5 and t6
    assert _report(4, "17 secant classes + V'/V''/W tables", ok,
                   detail + f" t4={t4} t5={t5} t6={t6}")


def _restricted(table, labels):
    """``table`` keeping only the representatives in ``labels``: the
    subposet that ``adherence_order`` then orders, since it reads nothing
    else of the table."""
    keep = set(labels)
    return ClassTable(
        representatives={sig: rep for sig, rep in table.representatives.items() if rep in keep}
    )


def test_criterion_05_adherence_graphs(secant_table):
    forms, table = secant_table
    graphs = json.loads(_read_data("graphs.json"))
    g1 = adherence_order(_restricted(table, NULLCONE_31))
    nullcone_ok = {(u, l) for u, l, _ in g1.edges} == {tuple(e) for e in graphs["nullcone_edges"]}
    cross_ok = True
    details = []
    nullcone = set(NULLCONE_31)
    for fig in ("cross_gr8", "cross_gr7", "cross_gr6", "cross_gr45"):
        nodes = graphs[f"{fig}_nodes"]
        g = adherence_order(_restricted(table, nodes), drop_caveats=True)
        got = {
            (u, l)
            for u, l, _ in g.edges
            if (u in nullcone) != (l in nullcone)
        }
        want = {tuple(e) for e in graphs[f"{fig}_edges"]}
        if got != want:
            cross_ok = False
            details.append(f"{fig}: {sorted(got ^ want)}")
    assert _report(5, "adherence graphs (nullcone diagram + cross-strata figures)",
                   nullcone_ok and cross_ok, f"nullcone={nullcone_ok} {details}")


def test_secant_graph_transcriptions(secant_table):
    """The secant-only diagram and its caveats, as transcribed: the covers
    of the census order between secant classes, and the edges that
    ``adherence_order`` flags, whose lower ends are the six Gr''_3 classes
    that 59510 does not contain."""
    _, table = secant_table
    graphs = json.loads(_read_data("graphs.json"))
    secant = set(SECANT_17)
    g = adherence_order(table)
    edges = {(u, l) for u, l, _ in g.edges if u in secant and l in secant}
    assert len(graphs["secant_edges"]) == 51
    assert edges == {tuple(e) for e in graphs["secant_edges"]}
    caveats = {(u, l) for u, l, caveat in g.edges if caveat}
    assert caveats == {tuple(e) for e in graphs["secant_caveat"]}
    assert {l for _, l in caveats} == _GR3PP


def test_extended_graph_transcription(secant_table):
    """The extended chain 65257 > 6014 > 59510: with the Z bit appended to
    the census signatures, 6014 (in census class 65257, with Z = 0) sits
    between the two classes it separates."""
    _, table = secant_table
    sig = {rep: s for s, rep in table.representatives.items()}
    assert 6014 in table.classes[sig[65257]]
    census_sig = {6014: sig[65257], 65257: sig[65257], 59510: sig[59510]}
    extended = ClassTable(representatives={
        s + (int(inv_Z(orbit_records()[label].normal_form) != 0),): label
        for label, s in census_sig.items()
    })
    graphs = json.loads(_read_data("graphs.json"))
    edges = {(u, l) for u, l, _ in adherence_order(extended).edges}
    assert edges == {tuple(e) for e in graphs["extended_edges"]}


def test_secant_table_transcriptions():
    """The V' of 6014 equals the generic row 65257's: Z alone separates
    them.  Each V' and V'' row's stratum is its orbit record's group, the
    one source of a classification's stratum."""
    tables = GOLDEN.tables
    vp_6014 = build_catalog().session(decode_form(6014)).signature(VPRIME_IDS)
    assert list(vp_6014) == tables["vprime_6014"] == tables["vprime_classes"]["65257"]["vprime"]
    for key in ("vprime_classes", "vpp_classes"):
        for label_s, row in tables[key].items():
            assert row["stratum"] == orbit_records()[int(label_s)].group, (key, label_s)


def test_quartic_disc_delta_ratio_transcription():
    """The assembled quartic's discriminant is the transcribed ratio times
    Delta, on random states where Delta is nonzero."""
    ratio = Fraction(*GOLDEN.tables["quartic_disc_delta_ratio"])
    for seed in range(5):
        s = random_state(seed)
        delta = hyperdet_delta(s)
        assert delta != 0
        assert quartic_delta(verstraete_quartic_coeffs(s)) == ratio * delta


def test_criterion_06_normal_form_round_trip():
    bad = []
    for label, rec in sorted(orbit_records().items()):
        if label == 0:
            continue
        if classify_secant3_extended(rec.normal_form).label != label:
            bad.append((label, "nf"))
            continue
        for i in range(20):
            g = random_sl2_tuple(label * 100 + i)
            if classify_secant3_extended(apply_local(g, rec.normal_form)).label != label:
                bad.append((label, i))
                break
    assert _report(6, "normal forms fixed under 20 local conjugations each", not bad, f"bad={bad}")


def test_criterion_07_invariant_identities():
    factor = Fraction(3, 2 ** 19 * 5 ** 2)
    lam = Fraction(3, 2)
    bad = []
    for seed in range(100):
        s = random_state(seed)
        if inv_N(s) != -inv_L(s) - inv_M(s):
            bad.append((seed, "N"))
        delta = hyperdet_delta(s)
        if delta != factor * inv_I2(s):
            bad.append((seed, "I2"))
        if hyperdet_delta(s.scaled(lam)) != lam ** 24 * delta:
            bad.append((seed, "hom24"))
        g = random_sl2_tuple(10_000 + seed)
        gs = apply_local(g, s)
        if not (
            inv_B(gs) == inv_B(s)
            and inv_L(gs) == inv_L(s)
            and inv_M(gs) == inv_M(s)
            and inv_N(gs) == inv_N(s)
            and inv_D(gs, "xy") == inv_D(s, "xy")
            and inv_Z(gs) == inv_Z(s)
            and hyperdet_delta(gs) == delta
        ):
            bad.append((seed, "SL"))
    assert _report(7, "invariant identities on 100 random states", not bad, f"bad={bad[:4]}")


def _secant_sides(st):
    """Both sides of the secant factorization: (-256 Delta, 6912 D_xy^3 Z)."""
    return -256 * hyperdet_delta(st), 6912 * inv_D(st, "xy") ** 3 * inv_Z(st)


def test_criterion_08_secant_factorization_as_stated():
    """The secant factorization of Delta on L = M = 0, in degree-consistent form.

    The relation is recorded as stated, Delta == 6912 * D_xy * Z.  As written
    it cannot hold where both sides are nonzero: Delta has amplitude-degree
    24, D_xy * Z only 6 + 6 = 12.  The identity that does hold is

        -256 * Delta == 6912 * D_xy**3 * Z      (Delta == -27 * D_xy**3 * Z).

    Proof.  Write D = D_xy.  On L = M = 0 the quartic of verstraete_quartic
    is q = t0 * (t0^3 - 2B t0^2 t1 + B^2 t0 t1^2 - 4D t1^3).  For a product,
    Disc(g h) = Disc(g) Disc(h) Res(g, h)^2.  The resultant of t0 with the
    cubic is the cubic's value at (t0, t1) = (0, 1), -4D up to sign, so its
    square is 16 D^2.  The discriminant of the cubic (1, b, c, d) is
    b^2 c^2 - 4 c^3 - 4 b^3 d - 27 d^2 + 18 b c d; at (b, c, d) =
    (-2B, B^2, -4D) it is 16 B^3 D - 432 D^2 = -432 D Z, since
    Z = D - B^3/27.  Hence Disc(q) = -6912 D^3 Z.  For a quartic in binomial
    coefficients Disc = 256 (S^3 - 27 T^2), and S^3 - 27 T^2 of q is Delta
    (quartic_delta(verstraete_quartic_coeffs(s)) == hyperdet_delta(s)).  So
    256 Delta = -6912 D^3 Z.

    The 6912 of the stated relation is the constant of Disc(q); the stated
    form drops the cube on D_xy and the factor -1/256 that takes Disc(q) to
    Delta.  The test checks the identity on the 17 secant normal forms and
    ten SL2^4 images of each.  Delta is nonzero only on the classes 59777
    and 65257 (on the others D_xy or Z vanishes), so a check that passed
    with Delta == 0 everywhere would show nothing.  The test therefore also
    asserts, on those two classes, Delta != 0 and the quartic link the proof
    rests on, and, on one such state, that both sides scale as lambda^24
    while D_xy * Z scales as lambda^12.
    """
    assert set(NONZERO_DELTA) <= set(SECANT_17)
    bad = []
    for label in SECANT_17:
        rec = orbit_records()[label]
        states = [rec.normal_form] + [
            apply_local(random_sl2_tuple(label * 10 + i), rec.normal_form)
            for i in range(10)
        ]
        for i, st in enumerate(states):
            lhs, rhs = _secant_sides(st)
            if lhs != rhs:
                bad.append((label, i, "identity"))
            if label in NONZERO_DELTA:
                if lhs == 0:
                    bad.append((label, i, "Delta=0"))
                if quartic_delta(verstraete_quartic_coeffs(st)) != hyperdet_delta(st):
                    bad.append((label, i, "quartic"))
    lam = Fraction(3, 2)
    st = orbit_records()[NONZERO_DELTA[0]].normal_form
    sc = st.scaled(lam)
    if _secant_sides(sc) != tuple(lam ** 24 * v for v in _secant_sides(st)):
        bad.append((NONZERO_DELTA[0], "degree 24"))
    if inv_D(sc, "xy") * inv_Z(sc) != lam ** 12 * inv_D(st, "xy") * inv_Z(st):
        bad.append((NONZERO_DELTA[0], "degree 12"))
    assert _report(8, "secant factorization -256*Delta == 6912*Dxy^3*Z on 187 states",
                   not bad, f"bad={bad[:4]}")


def test_criterion_09_dimensions():
    bad = []
    for label, rec in sorted(orbit_records().items()):
        if rec.dim is None:
            continue
        d = orbit_dimension(rec.normal_form)
        if rec.quasihomogeneous:
            if d != rec.dim:
                bad.append((label, d, rec.dim))
        elif d > rec.dim:
            bad.append((label, d, rec.dim))
    rng = random.Random(7)

    def sep():
        while True:
            v = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(4)]
            if all(any(c) for c in v):
                amps = [0] * 16
                for b in range(16):
                    c = 1
                    for k in range(4):
                        c *= v[k][(b >> k) & 1]
                    amps[b] = c
                if any(amps):
                    return State(amps)

    pts = [sep() for _ in range(3)]
    ranks = (terracini_rank(pts[:1]), terracini_rank(pts[:2]), terracini_rank(pts))
    ok = not bad and ranks == (4, 9, 13)
    assert _report(9, "orbit dimensions + tangent ranks 4/9/13", ok,
                   f"bad={bad} ranks={ranks}")


def test_criterion_10_permutation_grouping():
    labels = sorted(l for l in orbit_records() if l != 0)
    parent = {l: l for l in labels}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    gens = [QubitPermutation(p) for p in ((2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3))]
    for label in labels:
        for sigma in gens:
            image = classify_secant3_extended(permute_qubits(sigma, decode_form(label))).label
            ra, rb = find(label), find(image)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    entangled = [l for l in labels if l != 65535]
    types = {find(l) for l in entangled}
    frozen_consistent = all(
        permutation_type(a) == permutation_type(b)
        for a in entangled
        for b in (find(a),)
    )
    ok = len(entangled) == 47 and len(types) == 15 and frozen_consistent
    assert _report(10, "47 classes fall into 15 permutation types", ok,
                   f"classes={len(entangled)} types={len(types)} frozen={frozen_consistent}")


def test_criterion_11_extended_branch():
    s = decode_form(6014)
    data_ok = (
        inv_L(s) == 0
        and inv_M(s) == 0
        and inv_B(s) != 0
        and inv_D(s, "xy") != 0
        and inv_Z(s) == 0
    )
    labels_ok = (
        classify_secant3_extended(s).label == 6014
        and classify_secant3_extended(decode_form(59510)).label == 59510
        and classify_secant3_extended(decode_form(65257)).label == 65257
    )
    assert _report(11, "extended branch through the vanishing of Z", data_ok and labels_ok)


def test_golden_tables_all_reproduce():
    report = verify_tables()
    assert _report(0, "golden table recomputation (supporting check)", report.ok,
                   str(report) if not report.ok else "")
