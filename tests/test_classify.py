from fractions import Fraction

import pytest

from entatlas.classify import (
    ClassifyFail,
    classify,
    classify_nullcone,
    classify_secant3,
    classify_secant3_extended,
    exact_rank,
    factor_separable,
    orbit_dimension,
    orbit_records,
    permutation_type,
    stratum,
    terracini_rank,
)
from entatlas.qstate import (
    QubitPermutation,
    State,
    StateError,
    apply_local,
    decode_form,
    permute_qubits,
    random_sl2_tuple,
    random_state,
)
from entatlas.scalars import GaussianRational

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
        classify_secant3(State([0] * 16))


def test_secant_representatives():
    r = classify_secant3(ket_state((1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert (r.label, r.variety) == (59777, "Sigma3^(1)(X)")
    r = classify_secant3(ket_state((0, 0, 0, 0), (1, 1, 1, 1)))
    assert (r.label, r.variety, r.stratum) == (65534, "Sigma(X)", "Gr''_1")
    r = classify_secant3(ket_state((1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)))
    assert (r.label, r.variety) == (65529, "J(X,P3xP1xP1)")


def test_secant_fails_outside():
    s = random_state(33)  # has L != 0
    with pytest.raises(ClassifyFail):
        classify_secant3(s)


def test_secant_delegates_to_nullcone(w_state):
    assert classify_secant3(w_state).label == 59520


def test_extended_branch():
    assert classify_secant3_extended(decode_form(6014)).label == 6014
    assert classify_secant3_extended(decode_form(59510)).label == 59510
    assert classify_secant3_extended(decode_form(65257)).label == 65257
    # without the Z refinement the 6014 representative matches the generic row
    assert classify_secant3(decode_form(6014)).label == 65257


def test_all_records_roundtrip_with_sl_images():
    for label, rec in sorted(orbit_records().items()):
        if label == 0:
            continue
        assert classify_secant3_extended(rec.normal_form).label == label
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


def test_permutation_covariance():
    sigma = QubitPermutation((2, 3, 4, 1))
    z1 = orbit_records()[65508].normal_form  # a second-derivative Z class
    lbl = classify(permute_qubits(sigma, z1)).label
    assert lbl in {65508, 64762, 65506, 65482}
    assert permutation_type(lbl) == permutation_type(65508)


def test_stratum_examples():
    assert stratum(decode_form(64700)) == "Gr_6"
    assert stratum(decode_form(65534)) == "Gr''_1"
    assert stratum(decode_form(65520)) == "Gr_2"
    assert stratum(decode_form(65257)) == "Gr'_2"


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
    v = [(1, 2), (3, -1), (0, 1), (2, 5)]
    amps = [0] * 16
    for b in range(16):
        c = 1
        for k in range(4):
            c *= v[k][(b >> k) & 1]
        amps[b] = c
    fs = factor_separable(State(amps))
    rebuilt = [0] * 16
    for b in range(16):
        c = 1
        for k in range(4):
            c = c * fs[k][(b >> k) & 1]
        rebuilt[b] = c
    assert State(rebuilt) == State(amps)


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


def test_gaussian_amplitudes_classify(ghz):
    s = State([GaussianRational(0, 1) * a for a in ghz.amps])
    assert classify(s).label == 65534


def test_result_to_dict(w_state):
    doc = classify(w_state).to_dict(invariants={"B": "0"})
    assert doc["label"] == 59520
    assert doc["permutation_type"] == permutation_type(59520)
    assert doc["invariants"] == {"B": "0"}
    assert doc["signatures"]["T"][0] == 1
