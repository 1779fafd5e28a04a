import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entatlas.poly import Polynomial, x
from entatlas.qstate import (
    LocalOperator,
    QubitPermutation,
    State,
    StateError,
    _bits,
    apply_local,
    decode_form,
    encode_form,
    permute_qubits,
    random_sl2_tuple,
    random_state,
)
from entatlas.scalars import GaussianRational

from conftest import ket_state
from omega_oracle import Poly, to_ground_form


def test_decode_basis_ket():
    assert decode_form(1) == ket_state((0, 0, 0, 0))


def test_decode_all_ones_is_full_superposition():
    s = decode_form(65535)
    assert all(a == 1 for a in s.amps)


def test_decode_59520_bits():
    s = decode_form(59520)
    assert [b for b in range(16) if s.amps[b]] == [7, 11, 13, 14, 15]


def test_decode_matches_the_state_of_its_bits():
    """For every n, decode_form(n) equals the State built from the 16 bits
    of n in amps, scale, cleared and float_mode, and every amplitude is an
    int."""
    for n in range(65536):
        s, want = decode_form(n), State([(n >> b) & 1 for b in range(16)])
        assert (s.amps, s.scale, s.cleared, s.float_mode) == (
            want.amps, want.scale, want.cleared, want.float_mode
        ), n
        assert {type(a) for a in s.amps + s.cleared} == {int}, n


def test_decode_out_of_range():
    with pytest.raises(StateError):
        decode_form(65536)
    with pytest.raises(StateError):
        decode_form(-1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=65535))
def test_encode_decode_roundtrip(n):
    assert encode_form(decode_form(n)) == n


def test_ground_form_monomial():
    p = to_ground_form(ket_state((0, 0, 0, 0)))
    expected = Polynomial.monomial(1, {x(1, 0): 1, x(2, 0): 1, x(3, 0): 1, x(4, 0): 1})
    assert p == expected


def test_ground_form_ghz(ghz):
    p = to_ground_form(ghz)
    assert len(p.terms) == 2
    assert p.multidegree() == (1, 1, 1, 1)


def test_ground_form_full_superposition_factors():
    p = to_ground_form(decode_form(65535))
    prod = Poly.constant(1)
    for site in range(1, 5):
        prod = prod * (Poly.monomial(1, {x(site, 0): 1}) + Poly.monomial(1, {x(site, 1): 1}))
    assert p == prod


def test_apply_identity():
    s = random_state(5)
    assert apply_local(LocalOperator.identity(), s) == s


def test_apply_bitflip_all():
    flip = ((0, 1), (1, 0))
    g = LocalOperator(flip, flip, flip, flip)
    assert apply_local(g, ket_state((0, 0, 0, 0))) == ket_state((1, 1, 1, 1))


def test_apply_flip_on_59520():
    flip = ((0, 1), (1, 0))
    g = LocalOperator(flip, flip, flip, flip)
    out = apply_local(g, decode_form(59520))
    assert out == ket_state((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0))


def test_apply_composition():
    g = random_sl2_tuple(1)
    h = random_sl2_tuple(2)
    s = random_state(3)
    assert apply_local(g.compose(h), s) == apply_local(g, apply_local(h, s))


def _literal_apply_local(g, s):
    """The action by its definition, sum_b a_b prod_k g_k[j_k][b_k]: the
    reference for ``apply_local``, which acts one site at a time."""
    out = [0] * 16
    for b, a in enumerate(s.amps):
        if not a:
            continue
        i = _bits(b)
        for jb in range(16):
            j = _bits(jb)
            c = a
            for k in range(4):
                f = g.factors[k][j[k]][i[k]]
                if not f:
                    c = 0
                    break
                c = c * f
            if c:
                out[jb] = out[jb] + c
    return State(out)


def _random_scalar(rng, kind, zero_share):
    if rng.random() < zero_share:
        return 0
    if kind is int:
        return rng.randint(-3, 3)
    if kind is Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), rng.randint(-2, 2))


def _random_operator(rng, kind) -> LocalOperator:
    factors = []
    while len(factors) < 4:
        m = [[_random_scalar(rng, kind, 0.25) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
            factors.append(m)
    return LocalOperator(*factors)


@pytest.mark.parametrize("kind", [int, Fraction, GaussianRational])
def test_apply_local_matches_literal_action(kind):
    """Seeded operators with int, Fraction or Gaussian entries, on dense
    and sparse states of each kind: the amplitudes agree, types included."""
    rng = random.Random(f"apply_local:{kind.__name__}")
    for _ in range(20):
        g = _random_operator(rng, kind)
        for state_kind in (int, Fraction, GaussianRational):
            for zero_share in (0.1, 0.75):
                s = State([_random_scalar(rng, state_kind, zero_share) for _ in range(16)])
                want = _literal_apply_local(g, s).amps
                got = apply_local(g, s).amps
                assert [(type(a), a) for a in got] == [(type(a), a) for a in want]


def test_singular_factor_rejected():
    with pytest.raises(StateError):
        LocalOperator(((1, 0), (0, 1)), ((1, 1), (1, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 1)))


def test_permutation_identity():
    s = random_state(7)
    assert permute_qubits(QubitPermutation.identity(), s) == s


def test_permutation_transposition_34():
    sigma = QubitPermutation((1, 2, 4, 3))
    assert permute_qubits(sigma, ket_state((0, 0, 1, 0))) == ket_state((0, 0, 0, 1))


def test_permutation_group_action():
    a = QubitPermutation((2, 3, 1, 4))
    b = QubitPermutation((1, 4, 2, 3))
    s = random_state(11)
    assert permute_qubits(a, permute_qubits(b, s)) == permute_qubits(a.compose(b), s)


def test_permutation_commutes_with_local_action():
    sigma = QubitPermutation((2, 1, 4, 3))
    g = random_sl2_tuple(9)
    s = random_state(13)
    lhs = permute_qubits(sigma, apply_local(g, s))
    perm_factors = [g.factors[sigma(k) - 1] for k in range(1, 5)]
    rhs = apply_local(LocalOperator(*perm_factors), permute_qubits(sigma, s))
    assert lhs == rhs


def test_random_state_deterministic():
    assert random_state(42) == random_state(42)


def test_random_sl2_unit_determinants():
    for seed in range(5):
        assert random_sl2_tuple(seed).determinants() == (1, 1, 1, 1)


def test_json_roundtrip_rational():
    s = State([Fraction(1, 3), -2] + [0] * 14)
    assert State.from_json(s.to_json()) == s


def test_json_roundtrip_complex():
    s = State([GaussianRational(1, 2)] + [0] * 14 + [Fraction(-1, 5)])
    back = State.from_json(s.to_json())
    assert back == s


def test_json_form_shorthand():
    assert State.from_json('{"form": 59520}') == decode_form(59520)


def test_json_malformed():
    with pytest.raises(StateError):
        State.from_json("not json")
    with pytest.raises(StateError, match="malformed state JSON"):
        State.from_json("[" * 200_000)
    with pytest.raises(StateError):
        State.from_json('{"amplitudes": [[1,1]]}')
    with pytest.raises(StateError):
        State.from_json('{"something": 1}')


def test_cleared_amplitudes():
    """A state is cleared when built: a state of Fraction or float
    amplitudes holds q, the lcm of their exact denominators (a float's is a
    power of two), and the integers q*a; an int or Gaussian state holds
    ``scale`` 1 and its own amplitude tuple."""
    s = State([Fraction(1, 2), Fraction(-2, 3), 5, True] + [0] * 12)
    assert (s.scale, s.cleared, s.float_mode) == (6, (3, -4, 30, 6) + (0,) * 12, False)
    floats = State([0.5, Fraction(1, 3), 0.1, -3.0] + [0] * 12)
    assert floats.float_mode and floats.scale == 3 * 2 ** 55
    assert floats.cleared[:4] == (3 * 2 ** 54, 2 ** 55, 3 * 3602879701896397, -9 * 2 ** 55)
    assert Fraction(0.1) == Fraction(3602879701896397, 2 ** 55)
    whole = State([2.0, -1.0] + [0.0] * 14)
    assert (whole.scale, whole.cleared) == (1, (2, -1) + (0,) * 14)
    for s in (s, floats, whole):
        assert all(type(a) is int for a in s.cleared)
        assert s.cleared == tuple(Fraction(a) * s.scale for a in s.amps)
    bools = State([True, False] * 8)
    gauss = State([GaussianRational(1, 1), Fraction(1, 2)] + [0] * 14)
    for s in (random_state(1), bools, gauss):
        assert s.scale == 1 and s.cleared is s.amps and not s.float_mode
    assert [type(a) for a in bools.amps[:2]] == [bool, bool]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=str)
def test_non_finite_float_amplitudes_rejected(bad):
    """NaN and +-inf are no amplitudes: no nullity test can read them, and
    each once made a non-nilpotent state read as nilpotent.  They are
    rejected when a state is built, and a non-finite operator entry, which
    ``apply_local`` would spread into the amplitudes, when the operator is
    built."""
    amps = [float(a) for a in random_state(5).amps]
    with pytest.raises(StateError, match="not finite"):
        State([bad] + amps[1:])
    with pytest.raises(StateError, match="not finite"):
        LocalOperator(((1.0, bad), (0.0, 1.0)), ((1, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 1)))


_EYE = ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "bad, message",
    [
        (float("nan"), "not finite"),
        (float("inf"), "not finite"),
        (float("-inf"), "not finite"),
        (1j, "not an int, Fraction, float or GaussianRational"),
        (complex(1, 0), "not an int, Fraction, float or GaussianRational"),
        ("1", "not an int, Fraction, float or GaussianRational"),
    ],
    ids=["nan", "inf", "-inf", "1j", "complex-real", "str"],
)
def test_local_operator_rejects_non_scalar_entries(bad, message):
    """An operator entry must be one of the kinds a ``State`` accepts.  A NaN
    determinant is truthy, so the singularity test alone let a NaN entry
    through, and a Python ``complex`` would compute in floats.  Each is
    rejected at any entry of any site, when the operator is built."""
    for site in range(4):
        for row, col in ((0, 0), (0, 1), (1, 0), (1, 1)):
            m = [[1, 0], [0, 1]]
            m[row][col] = bad
            factors = [_EYE] * 4
            factors[site] = m
            with pytest.raises(StateError, match=f"factor {site + 1} entry .*{message}"):
                LocalOperator(*factors)


def test_local_operator_accepts_state_scalar_kinds():
    """int, bool, Fraction, finite float and GaussianRational entries build an
    operator, as they build a state."""
    i = GaussianRational(0, 1)
    g = LocalOperator(
        ((1, 2), (0, 1)), ((Fraction(1, 2), 0), (0, 2)), ((0.5, 0.25), (0.0, 2.0)), ((1, i), (0, 1))
    )
    assert g.determinants() == (1, 1, 1.0, 1)
    bools = ((True, False), (False, True))
    assert LocalOperator(bools, _EYE, _EYE, _EYE).determinants() == (1, 1, 1, 1)


def test_local_operator_rejects_float_beside_gaussian():
    """A float and a Gaussian entry in one matrix do not multiply, so the
    operator is rejected when built, with the message of a ``State`` that
    mixes them, and not by a ``TypeError`` from its determinant."""
    i = GaussianRational(0, 1)
    with pytest.raises(StateError, match="float mode does not support complex amplitudes"):
        LocalOperator(((1.0, i), (0, 1)), _EYE, _EYE, _EYE)
    with pytest.raises(StateError, match="float mode does not support complex amplitudes"):
        LocalOperator(((1.0, 0), (0, 1)), _EYE, _EYE, _EYE).compose(
            LocalOperator(((1, i), (0, 1)), _EYE, _EYE, _EYE)
        )


def test_apply_local_rejects_float_beside_gaussian():
    """A float operator on a Gaussian state, a Gaussian operator on a float
    state, and an operator with float and Gaussian sites (which builds) all
    raise ``StateError`` when they act, as a ``State`` with both kinds
    does, and not a ``TypeError`` from the arithmetic."""
    i = GaussianRational(0, 1)
    w = decode_form(59520)
    gauss = State([i * a for a in w.amps])
    floats = State([float(a) for a in w.amps])
    diag = LocalOperator(((2.0, 0.0), (0.0, 1.0)), _EYE, _EYE, _EYE)
    shear = LocalOperator(((1, i), (0, 1)), _EYE, _EYE, _EYE)
    both = LocalOperator(((2.0, 0.0), (0.0, 1.0)), ((1, i), (0, 1)), _EYE, _EYE)
    for g, s in ((diag, gauss), (shear, floats), (both, w)):
        with pytest.raises(StateError, match="float mode does not support complex amplitudes"):
            apply_local(g, s)
    assert apply_local(diag, floats).float_mode
    assert apply_local(shear, gauss) == State([i * a for a in apply_local(shear, w).amps])


def test_permute_form():
    sigma = QubitPermutation((1, 2, 4, 3))
    n = encode_form(ket_state((0, 0, 1, 0)))
    assert encode_form(permute_qubits(sigma, decode_form(n))) == encode_form(ket_state((0, 0, 0, 1)))
