import importlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from entatlas import catalog, cli, invariants
from entatlas.atlas import _flip_images
from entatlas.catalog import VPRIME_IDS, EvalSession
from entatlas.classify import (
    GOLDEN,
    ClassifyFail,
    IntegrityError,
    classify,
    classify_nullcone,
    classify_secant3_extended,
    exact_rank,
    factor_separable,
    orbit_dimension,
    orbit_records,
    permutation_type,
    terracini_rank,
)
from entatlas.invariants import all_invariants, in_third_secant, is_nilpotent
from entatlas.qstate import (
    QubitPermutation,
    State,
    StateError,
    _sparse_image,
    apply_local,
    decode_form,
    permute_qubits,
    random_sl2_tuple,
    random_state,
)
from entatlas.scalars import GaussianRational, exact_quotient

from conftest import ket_state


def test_w_state_is_tangential(w_state):
    r = classify_nullcone(w_state)
    assert r.label == 59520
    assert r.variety == "Tau(P1xP1xP1xP1)"
    assert r.stratum == "Gr_5"


def test_partial_pair_class():
    r = classify_nullcone(ket_state((0, 0, 0, 0), (1, 1, 1, 0)))
    assert r.label == 65278
    assert r.variety == "P7xP1"


def test_separable_class():
    r = classify_nullcone(ket_state((0, 0, 0, 0)))
    assert r.label == 65535


def test_nullcone_rejects_non_nilpotent(ghz):
    with pytest.raises(ClassifyFail):
        classify_nullcone(ghz)


def test_zero_state_rejected():
    with pytest.raises(StateError):
        classify_nullcone(State([0] * 16))
    with pytest.raises(StateError):
        classify(State([0] * 16))


def test_secant_representatives():
    r = classify(ket_state((1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert (r.label, r.variety) == (59777, "Sigma3^(1)(X)")
    r = classify(ket_state((0, 0, 0, 0), (1, 1, 1, 1)))
    assert (r.label, r.variety, r.stratum) == (65534, "Sigma(X)", "Gr''_1")
    r = classify(ket_state((1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)))
    assert (r.label, r.variety) == (65529, "J(X,P3xP1xP1)")


def test_secant_fails_outside():
    s = random_state(33)  # has L != 0
    with pytest.raises(ClassifyFail):
        classify(s)


def test_secant_delegates_to_nullcone(w_state):
    assert classify(w_state).label == 59520


def test_extended_branch():
    assert classify_secant3_extended(decode_form(6014)).label == 6014
    assert classify_secant3_extended(decode_form(59510)).label == 59510
    assert classify_secant3_extended(decode_form(65257)).label == 65257
    # without the Z refinement the 6014 representative matches the generic row
    assert classify(decode_form(6014)).label == 65257


def test_each_generator_computed_once_per_classification(monkeypatch, capsys):
    """One classification computes each of B, L, M and D_xy once, on every
    branch, read through either module's names: on SL2^4 images of 59520
    (T/V), 65257 and 6014 (V'/Z), 59777 (B/D_xy) and 65231 (V''/W).  The
    CLI's classify, which also prints them, computes each twice."""
    names = ("inv_B", "inv_L", "inv_M", "inv_D")
    classify_mod = importlib.import_module("entatlas.classify")  # the package's classify is a function
    calls = Counter()
    for name in names:
        def counted(*args, name=name, orig=getattr(invariants, name)):
            calls[name] += 1
            return orig(*args)

        for mod in (invariants, classify_mod):
            monkeypatch.setattr(mod, name, counted)
    branches = {59520: "T V", 65257: "Vp Z", 6014: "Vp Z", 59777: "B Dxy", 65231: "Vpp W"}
    for label, keys in branches.items():
        image = apply_local(random_sl2_tuple(label), orbit_records()[label].normal_form)
        calls.clear()
        r = classify_secant3_extended(image)
        assert (r.label, sorted(r.signatures)) == (label, sorted(keys.split())), label
        assert calls == dict.fromkeys(names, 1), label
    calls.clear()
    assert cli.main(["classify", "--form", "65257", "--extended"]) == 0
    assert '"label": 65257' in capsys.readouterr().out
    assert calls == dict.fromkeys(names, 2)


def test_all_records_roundtrip_with_sl_images():
    """Each normal form and one SL2^4 image of it get the form's label, and
    the result's stratum is the orbit record's group on every branch."""
    for label, rec in sorted(orbit_records().items()):
        if label == 0:
            continue
        r = classify_secant3_extended(rec.normal_form)
        assert (r.label, r.stratum) == (label, rec.group)
        g = random_sl2_tuple(1000 + label)
        assert classify_secant3_extended(apply_local(g, rec.normal_form)).label == label


def test_scale_invariance(w_state):
    assert classify(w_state.scaled(Fraction(-3, 7))).label == 59520


def test_flipped_59520_class_unchanged():
    flip = ((0, 1), (1, 0))
    from entatlas.qstate import LocalOperator

    g = LocalOperator(flip, flip, flip, flip)
    s = decode_form(59520)
    assert classify(apply_local(g, s)).label == classify(s).label == 59520


def _vpp_normal_forms():
    for label_s, row in sorted(GOLDEN.tables["vpp_classes"].items()):
        yield int(label_s), row["stratum"], orbit_records()[int(label_s)].normal_form


def test_w_vector_matches_vpp_stratum():
    """Each V''/W normal form passes the W check: its W vector is the
    strata_W row of the stratum its V'' row names."""
    for label, gr, s in _vpp_normal_forms():
        r = classify(s)
        assert (r.label, r.stratum) == (label, gr)
        assert list(r.signatures["W"]) == GOLDEN.tables["strata_W"][gr]


def test_w_vector_mismatch_raises(monkeypatch):
    """A W vector that contradicts the V'' stratum is an integrity error,
    whether it is another stratum's row or no row at all."""
    rows = GOLDEN.tables["strata_W"]
    forms = list(_vpp_normal_forms())
    for wrong in [tuple(bits) for bits in rows.values()] + [(0, 1, 1)]:
        monkeypatch.setattr(EvalSession, "vector_W", lambda self, w=wrong: w)
        for label, gr, s in forms:
            if wrong == tuple(rows[gr]):
                continue
            with pytest.raises(IntegrityError, match="W signature"):
                classify(s)


def test_unknown_vprime_raises_in_both_branches(monkeypatch):
    """Both secant procedures match V' against the same golden rows: a V'
    that matches none is an integrity error, also in the extended branch,
    whatever Z is (nonzero on 65257, zero on 6014 and 59510)."""
    signature = EvalSession.signature

    def fake(self, cids):
        return (1, 0, 1, 0) if cids == VPRIME_IDS else signature(self, cids)

    monkeypatch.setattr(EvalSession, "signature", fake)
    for label in (65257, 6014, 59510):
        s = orbit_records()[label].normal_form
        for classifier in (classify, classify_secant3_extended):
            with pytest.raises(IntegrityError, match="V' signature"):
                classifier(s)


def test_permutation_covariance():
    sigma = QubitPermutation((2, 3, 4, 1))
    z1 = orbit_records()[65508].normal_form  # a second-derivative Z class
    lbl = classify(permute_qubits(sigma, z1)).label
    assert lbl in {65508, 64762, 65506, 65482}
    assert permutation_type(lbl) == permutation_type(65508)


def test_stratum_examples():
    assert classify(decode_form(64700)).stratum == "Gr_6"
    assert classify(decode_form(65534)).stratum == "Gr''_1"
    assert classify(decode_form(65520)).stratum == "Gr_2"
    assert classify(decode_form(65257)).stratum == "Gr'_2"


def test_permutation_type_totals():
    labels = [l for l in orbit_records() if l not in (0, 65535)]
    assert len(labels) == 47
    assert len({permutation_type(l) for l in labels}) == 15
    assert len({permutation_type(l) for l in (65511, 65218, 65271, 65247)}) == 1
    assert permutation_type(59520) != permutation_type(65534)
    with pytest.raises(KeyError):
        permutation_type(123456)


def test_orbit_dimensions_examples(w_state, ghz):
    assert orbit_dimension(ket_state((0, 0, 0, 0))) == 4
    assert orbit_dimension(w_state) == 8
    assert orbit_dimension(ghz) == 9


def test_orbit_dimension_matches_tables():
    for label, rec in orbit_records().items():
        if rec.dim is None:
            continue
        d = orbit_dimension(rec.normal_form)
        if rec.quasihomogeneous:
            assert d == rec.dim, label
        else:
            assert d <= rec.dim, label


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[Fraction(1, 2), 0], [0, 1]]) == 2
    assert exact_rank([]) == 0
    i = GaussianRational(0, 1)
    assert exact_rank([[1, i], [i, -1]]) == 1


def test_factor_separable():
    """Integer, Fraction and Gaussian factors, some with a zero component:
    the recovered factors rebuild the state, and all but the first are
    scaled to (1, lambda), (0, 1) or (1, 0)."""
    i = GaussianRational(0, 1)
    for v in (
        [(1, 2), (3, -1), (0, 1), (2, 5)],
        [(Fraction(1, 2), 0), (0, -3), (1, 1), (Fraction(-2, 3), 4)],
        [(i, 1), (1, 0), (GaussianRational(1, -2), Fraction(1, 2)), (0, i)],
        [(0, GaussianRational(Fraction(1, 3), 1)), (2 * i, 3), (5, 0), (1, -i)],
    ):
        amps = [0] * 16
        for b in range(16):
            c = 1
            for k in range(4):
                c = c * v[k][(b >> k) & 1]
            amps[b] = c
        fs = factor_separable(State(amps))
        rebuilt = [0] * 16
        for b in range(16):
            c = 1
            for k in range(4):
                c = c * fs[k][(b >> k) & 1]
            rebuilt[b] = c
        assert State(rebuilt) == State(amps), v
        for f, w in zip(fs[1:], v[1:]):
            want = (0, 1) if not w[0] else (1, exact_quotient(w[1], w[0])) if w[1] else (1, 0)
            assert f == want, v


def test_factor_separable_rejects_entangled(ghz):
    with pytest.raises(StateError):
        factor_separable(ghz)


def test_terracini_ranks():
    import random

    rng = random.Random(4)

    def sep():
        while True:
            v = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
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
    assert terracini_rank(pts[:1]) == 4
    assert terracini_rank(pts[:2]) == 9
    assert terracini_rank(pts) == 13


def test_terracini_rejects_entangled(ghz):
    with pytest.raises(StateError):
        terracini_rank([ghz])


def test_float_mode_classification():
    s = decode_form(59520)
    noisy = State([float(a) + (2e-16 if a else -1e-16) for a in s.amps])
    r = classify(noisy)
    assert r.label == 59520
    assert r.mode == "float"
    assert r.confidence in ("high", "low")


def test_float_mode_normal_forms():
    """Every nonzero normal form, with float amplitudes, gets its exact label
    from the extended classifier; this pins the float-mode product bits (the
    minimum of the factor bits) on every branch."""
    bad = []
    for label, rec in sorted(orbit_records().items()):
        if label == 0:
            continue
        s = State([float(a) for a in rec.normal_form.amps])
        r = classify_secant3_extended(s)
        if r.label != label or r.mode != "float":
            bad.append((label, r.label, r.mode))
    assert not bad


def test_float_and_gaussian_amplitudes_rejected():
    """A state with both float and Gaussian amplitudes fits neither the
    exact nor the float mode, so no entry point can receive one: building
    it raises ``StateError``, whatever the order of its amplitudes."""
    i = GaussianRational(0, 1)
    amps = [1.5] + [i if a else 0 for a in decode_form(65257).amps[1:]]
    for order in (amps, amps[::-1], [i, Fraction(1, 2), 0.25] + [0] * 13):
        with pytest.raises(StateError, match="float mode does not support complex amplitudes"):
            State(order)


def test_complex_amplitudes_rejected():
    """A Python ``complex`` amplitude is none of the four scalar kinds, so
    ``State`` rejects it: form 59520 times 1j never reaches ``classify`` or
    ``all_invariants``, while times the Gaussian i it classifies exactly."""
    nf = decode_form(59520)
    for call in (classify, all_invariants):
        with pytest.raises(StateError, match="not an int, Fraction, float or GaussianRational"):
            call(nf.scaled(1j))
    result = classify(nf.scaled(GaussianRational(0, 1)))
    assert (result.label, result.mode) == (59520, "exact")


def _float_miss_images():
    """SL2^4 images of four normal forms whose float bits, decided at the
    absolute FLOAT_TOLERANCE, match no golden row; with their labels."""
    for label in (6014, 59510, 59777, 65257):
        nf = orbit_records()[label].normal_form
        yield label, apply_local(random_sl2_tuple(label * 100), nf)


def test_float_lookup_miss_fails_closed():
    """In float mode a golden-table miss is a low-confidence ClassifyFail,
    not an IntegrityError; the exact image keeps its label."""
    for label, img in _float_miss_images():
        assert classify_secant3_extended(img).label == label
        with pytest.raises(ClassifyFail, match="confidence low"):
            classify_secant3_extended(State([float(a) for a in img.amps]))


def _admits(classifier, s) -> bool:
    """Whether the classifier's membership test admits s: it gives a result,
    or fails only later, at a float-mode golden-table miss."""
    try:
        classifier(s)
    except ClassifyFail as e:
        return "confidence low" in str(e)
    return True


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3, 1e6])
def test_predicates_agree_with_classifiers_in_float_mode(scale):
    """``is_nilpotent`` and ``in_third_secant`` decide membership by the same
    invariant-nullity rule as ``classify_nullcone`` and
    ``classify_secant3_extended``, on a float SL2^4 image of each of the 48
    nonzero normal forms.  All of them lie in the third secant, and some in
    the nullcone."""
    answers = set()
    for label, rec in sorted(orbit_records().items()):
        if not label:
            continue
        image = apply_local(random_sl2_tuple(label * 100), rec.normal_form)
        s = State([float(a) * scale for a in image.amps])
        nilpotent, secant = is_nilpotent(s), in_third_secant(s)
        assert nilpotent == _admits(classify_nullcone, s), label
        assert secant == _admits(classify_secant3_extended, s), label
        answers |= {("nilpotent", nilpotent), ("secant", secant)}
    assert answers == {("nilpotent", False), ("nilpotent", True), ("secant", True)}


def _float_corpus_outcomes(scale) -> list:
    """(label, outcome) on the 144 float states made of each of the 48
    nonzero normal forms and its images under random_sl2_tuple(label*100 + i),
    i < 2, scaled by ``scale``: the outcome is the extended classifier's
    label, or None for a ``ClassifyFail``."""
    out = []
    for label, rec in sorted(orbit_records().items()):
        if not label:
            continue
        nf = rec.normal_form
        for s in [nf] + [apply_local(random_sl2_tuple(label * 100 + i), nf) for i in range(2)]:
            try:
                got = classify_secant3_extended(State([float(a) * scale for a in s.amps])).label
            except ClassifyFail:
                got = None
            out.append((label, got))
    return out


def test_float_labels_keep_under_large_scales():
    """A float state is evaluated on its exact dyadic values and each result
    is rounded once, so scaling the float corpus up by 1e3 or 1e6 changes
    no label and no ``ClassifyFail``: at every scale, 138 states get their
    own label, none a wrong one, and 6 fail.  (Scales below 1 meet the
    absolute tolerances, ROADMAP item 10.)"""
    at_one = _float_corpus_outcomes(1.0)
    assert sum(got == label for label, got in at_one) == 138
    assert sum(got is None for _, got in at_one) == 6
    for scale in (1e3, 1e6):
        assert _float_corpus_outcomes(scale) == at_one, scale


def test_threads_classify_like_serial():
    """Four threads classifying the 48 nonzero normal forms and one SL2^4
    image of each give the serial labels: each call evaluates in its own
    session, and what sessions share is the process-wide feed tables,
    immutable state-free tuples.  The tables start empty, so the threads
    race to fill them; a race only builds an equal tuple twice."""
    catalog._FEED_TABLES.clear()
    states = []
    for label, rec in sorted(orbit_records().items()):
        if label:
            nf = rec.normal_form
            states += [nf, apply_local(random_sl2_tuple(label * 100), nf)]
    assert len(states) == 96

    def label_of(s):
        return classify_secant3_extended(s).label

    serial = [label_of(s) for s in states]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(label_of, states))
    assert threaded == serial
    assert serial[::2] == serial[1::2] == sorted(orbit_records())[1:]


def test_gaussian_amplitudes_classify(ghz):
    s = State([GaussianRational(0, 1) * a for a in ghz.amps])
    assert classify(s).label == 65534


def test_result_to_dict(w_state):
    doc = classify(w_state).to_dict(invariants={"B": "0"})
    assert doc["label"] == 59520
    assert doc["permutation_type"] == permutation_type(59520)
    assert doc["invariants"] == {"B": "0"}
    assert doc["signatures"]["T"][0] == 1


def test_nullcone_classifier_matches_census_on_every_orbit(secant_table):
    """``classify_nullcone`` against the census, on the least member of
    each of the 852 nonzero nullcone bit-flip orbits (the signatures that
    start with the four invariant bits (0,0,0,0)); one member stands for
    its orbit, as in the secant test below."""
    _, table = secant_table
    census = {
        min(_flip_images(n)): rep
        for sig, rep in table.representatives.items()
        if sig[:4] == (0, 0, 0, 0)
        for n in table.classes[sig]
        if n
    }
    assert len(census) == 852
    for n, rep in sorted(census.items()):
        assert classify_nullcone(decode_form(n)).label == rep, n


def test_classifiers_match_census_on_every_image(secant_table):
    """Both decision procedures against the census on all 2223 nonzero
    secant3 bit-flip orbits, one classification per sparse image.

    Each orbit's least member is mapped to its ``_sparse_image``, as the
    census does, and one state per image is classified.  The image is
    reached by flips and shears, each shear of det 1, so it lies in the
    GL2^4 orbit of every form that maps to it, and both procedures, which
    read only invariant and covariant nullities, give it their label.
    The expected labels are those of the per-orbit test below."""
    forms, table = secant_table
    census = {n: rep for sig, rep in table.representatives.items() for n in table.classes[sig]}
    orbits_of = {}
    for n in sorted({min(_flip_images(n)) for n in forms} - {0}):
        orbits_of.setdefault(_sparse_image(decode_form(n).amps), []).append(n)
    assert sum(map(len, orbits_of.values())) == 2223
    assert len(orbits_of) == 762
    moved = {}
    for image, orbits in orbits_of.items():
        s = State(image)
        label, extended = classify(s).label, classify_secant3_extended(s).label
        for n in orbits:
            assert label == census[n], n
            if extended != census[n]:
                moved[n] = (census[n], extended)
    assert len(moved) == 39
    assert set(moved.values()) == {(65257, 6014)}


@pytest.mark.slow
def test_classifiers_match_census_on_every_orbit(secant_table):
    """Both decision procedures against the census, on one member of each
    of the 2223 nonzero secant3 bit-flip orbits (a flip is in GL2^4, so one
    member stands for its orbit, see ``atlas.signatures_for``).
    ``classify`` gives the census class everywhere.  The extended
    procedure differs on exactly 39 orbits, all in census class 65257,
    which it labels 6014: Z separates them, and Z is not a covariant
    nullity, so the census cannot."""
    forms, table = secant_table
    census = {n: rep for sig, rep in table.representatives.items() for n in table.classes[sig]}
    orbits = sorted({min(_flip_images(n)) for n in forms} - {0})
    assert len(orbits) == 2223
    moved = {}
    for n in orbits:
        s = decode_form(n)
        assert classify(s).label == census[n], n
        label = classify_secant3_extended(s).label
        if label != census[n]:
            moved[n] = (census[n], label)
    assert len(moved) == 39
    assert set(moved.values()) == {(65257, 6014)}
