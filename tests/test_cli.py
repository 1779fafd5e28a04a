import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entatlas
from entatlas.classify import classify
from entatlas.cli import main
from entatlas.invariants import all_invariants, inv_L
from entatlas.qstate import FLOAT_OVERFLOW, LocalOperator, apply_local, decode_form, random_sl2_tuple
from entatlas.scalars import GaussianRational


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_loads_no_introspection_modules():
    """``import entatlas``, loading the catalog and reading every golden
    table in a fresh interpreter load none of ``dataclasses``, ``inspect``,
    ``ast`` or ``dis``: each CLI run would pay their import time and memory.
    The package data is read next to the modules, not through
    ``importlib.resources``, which imports ``inspect`` from Python 3.12 on."""
    banned = {"dataclasses", "inspect", "ast", "dis"}
    src = str(Path(entatlas.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, entatlas; "
        "entatlas.build_catalog(); entatlas.classify(entatlas.decode_form(59520)); "
        "entatlas.orbit_records(); entatlas.permutation_type(59520); "
        f"print(sorted({sorted(banned)!r} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_classify_form(capsys):
    code, out, _ = run(capsys, "classify", "--form", "59520")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == 59520
    assert doc["variety"] == "Tau(P1xP1xP1xP1)"
    assert doc["stratum"] == "Gr_5"
    assert doc["invariants"] == {"B": "0", "L": "0", "M": "0", "Dxy": "0", "Delta": "0", "Z": "0"}


def test_classify_outside_secant_fails_exit_2(capsys):
    n = next(n for n in range(1, 65536) if inv_L(decode_form(n)) != 0)
    code, _, err = run(capsys, "classify", "--form", str(n))
    assert code == 2
    assert "FAIL" in err


def test_classify_zero_state_input_error(capsys):
    code, _, err = run(capsys, "classify", "--form", "0")
    assert code == 1
    assert "zero state" in err


def test_float_mode_rejects_a_state_that_underflows_to_zero(tmp_path, capsys):
    """The zero-state check runs after the float conversion: amplitudes
    that all round to 0.0 are an input error, as the zero state is."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": [[1, 10 ** 400]] + [[0, 1]] * 15}))
    code, out, err = run(capsys, "invariants", "--mode", "float", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "zero state" in err
    code, out, _ = run(capsys, "invariants", "--in", str(path))
    assert code == 0 and json.loads(out)["B"] == "0"


def _big_then_one(a):
    return [[a, 1], [1, 1]] + [[0, 1]] * 14


def _ghz_at(a):
    return [[a, 1]] + [[0, 1]] * 14 + [[a, 1]]


@pytest.mark.parametrize(
    "command, amplitudes",
    [
        ("classify", _big_then_one(10 ** 400)),
        ("invariants", _big_then_one(10 ** 400)),
        ("classify", _big_then_one(10 ** 60)),
        ("classify", _ghz_at(10 ** 300)),
        ("invariants", _ghz_at(10 ** 300)),
        ("eval --covariant B_0000", _ghz_at(10 ** 300)),
    ],
    ids=["classify-1e400", "invariants-1e400", "classify-1e60",
         "classify-ghz-1e300", "invariants-ghz-1e300", "eval-ghz-1e300"],
)
def test_float_mode_overflow_is_an_input_error(tmp_path, capsys, command, amplitudes):
    """An amplitude past the float range, one whose sixth power is (the
    scale of the D_xy and Z nullity tests), or a value that is
    (|0000> + |1111> at 1e300, where B is about 1e600), is an input error
    in the program's own words."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": amplitudes}))
    code, out, err = run(capsys, *command.split(), "--mode", "float", "--in", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {FLOAT_OVERFLOW}\n" and "1.8e308" in err


def test_float_eval_prints_the_exact_value_rounded_once(tmp_path, capsys):
    """``eval --mode float`` prints each exact coefficient rounded once.
    L_6000 of 1e200|0000> + |1100> + |0011> + |1111> is exactly 0, and
    prints 0 (summed in floats, it read nan*x1_0^3*x1_1^3).  B_0000 of
    1e200 (|0000> + |1111>) is about 1e400, past the float range, which is
    an input error (in floats, it read inf)."""
    big = 10 ** 200
    cases = {
        "L_6000": [big, 0, 0, 1] + [0] * 8 + [1, 0, 0, 1],
        "B_0000": [big] + [0] * 14 + [big],
    }
    for name, amps in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"amplitudes": [[a, 1] for a in amps]}))
        cases[name] = run(capsys, "eval", "--mode", "float", "--covariant", name, "--in", str(path))
    code, out, err = cases["L_6000"]
    assert code == 0, err
    assert json.loads(out) == {
        "covariant": "L_6000", "value": "0", "is_zero": True, "multidegree": None
    }
    code, out, err = cases["B_0000"]
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_classify_extended(capsys):
    code, out, _ = run(capsys, "classify", "--form", "6014", "--extended")
    assert code == 0
    assert json.loads(out)["label"] == 6014
    code, out, _ = run(capsys, "classify", "--form", "6014")
    assert json.loads(out)["label"] == 65257


def test_classify_stdin_and_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "state.json"
    path.write_text(decode_form(65534).to_json())
    code, out, _ = run(capsys, "classify", "--in", str(path))
    assert code == 0 and json.loads(out)["label"] == 65534

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"form": 65534}'))
    code, out, _ = run(capsys, "classify")
    assert code == 0 and json.loads(out)["label"] == 65534


def test_classify_float_mode(capsys):
    code, out, _ = run(capsys, "classify", "--form", "59520", "--mode", "float")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == 59520 and doc["mode"] == "float" and "confidence" in doc


def test_classify_float_lookup_miss_exits_2(tmp_path, capsys):
    """A float state whose bits match no golden row is a FAIL (exit 2),
    not an integrity error, and prints no traceback."""
    img = apply_local(random_sl2_tuple(6014 * 100), decode_form(6014))
    path = tmp_path / "state.json"
    path.write_text(img.to_json())
    code, out, err = run(capsys, "classify", "--extended", "--mode", "float", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("FAIL:") and "confidence low" in err
    assert "Traceback" not in err


def test_float_underflow_to_the_zero_row_fails(tmp_path, capsys):
    """|0000> + |1111> scaled by 1e-300 is nonzero, but in float mode every
    T bit underflows to 0, the row of label 0.  Only the zero state, which
    is rejected first, has that label, so the lookup misses: FAIL (exit 2)
    with confidence low, not label 0 with confidence high."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": [[1, 10 ** 300]] + [[0, 1]] * 14 + [[1, 10 ** 300]]}))
    code, out, err = run(capsys, "classify", "--mode", "float", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("FAIL:") and "confidence low" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "classify", "--in", str(path))
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [("classify", "--in", "{dir}"), ("atlas", "nullcone", "--out", "{file}")],
    ids=["classify-in-directory", "atlas-out-existing-file"],
)
def test_os_errors_exit_1(tmp_path, capsys, argv):
    """A path the OS refuses gives an error line and exit 1; the atlas case
    fails when it makes its output directory, before any census work."""
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, *(a.format(dir=tmp_path, file=taken) for a in argv))
    assert code == 1 and not out
    assert err.startswith("error:") and "Traceback" not in err


def _amplitudes(entry, rest=(0, 1)):
    return json.dumps({"amplitudes": [entry] + [list(rest)] * 15})


@pytest.mark.parametrize(
    "text",
    [
        '{"form": true}',
        _amplitudes([1, 0]),
        '{"amplitudes": 5}',
        _amplitudes([1.5, 2]),
        _amplitudes("1/2"),
        _amplitudes([1, 2, 3]),
        _amplitudes([True, 1]),
        json.dumps({"amplitudes_c": [[[1, 1], [0, 1]]] * 15 + [[1, 1]]}),
    ],
    ids=["form-bool", "zero-denominator", "amplitudes-not-list", "float-entry",
         "string-entry", "triple-entry", "bool-entry", "complex-entry-not-pairs"],
)
def test_classify_malformed_state_json(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "classify", "--in", str(path))
    assert code == 1 and not out
    assert err.startswith("error:")


def test_deeply_nested_state_json_is_an_input_error(tmp_path, capsys, monkeypatch):
    """JSON nested deeper than the parser's recursion limit is malformed
    input, from a file or from stdin: an error line and exit 1, no
    traceback."""
    import io

    text = "[" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "classify", "--in", str(path))
    assert code == 1 and not out
    assert err.startswith("error: malformed state JSON") and "Traceback" not in err
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "classify")
    assert code == 1 and not out
    assert err.startswith("error: malformed state JSON") and "Traceback" not in err


def test_invariants_ghz_style(capsys):
    code, out, _ = run(capsys, "invariants", "--form", "65534")
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] != "0" and doc["L"] == "0" and doc["M"] == "0"
    assert doc["S"] == "1/12"


def _int_cap():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_long_exact_values_print(tmp_path, capsys):
    """Exact values and JSON amplitudes past CPython's 4300-digit cap on
    int <-> str conversion go through: ``invariants --pairs`` on 16 random
    40-digit fractions prints values longer than the cap, a 5000-digit
    amplitude is read (B of N|0000> + |1111> + |0110> + |1001> is N + 1),
    and the caller's cap is the same after each run."""
    cap = _int_cap()
    rng = random.Random(18)
    amps = [[rng.choice((1, -1)) * rng.randrange(10 ** 39, 10 ** 40),
             rng.randrange(10 ** 39, 10 ** 40)] for _ in range(16)]
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({"amplitudes": amps}))
    code, out, err = run(capsys, "invariants", "--pairs", "--in", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc) == 15 and max(len(v) for v in doc.values()) > 4300
    assert _int_cap() == cap
    entries = ["[0, 1]"] * 16
    entries[0] = "[" + "7" * 5000 + ", 1]"
    for b in (6, 9, 15):
        entries[b] = "[1, 1]"
    path.write_text('{"amplitudes": [' + ", ".join(entries) + "]}")
    code, out, err = run(capsys, "invariants", "--in", str(path))
    assert code == 0, err
    assert json.loads(out)["B"] == "7" * 4999 + "8"
    assert _int_cap() == cap


L_6000_ON_65218 = (
    '{"covariant": "L_6000", "is_zero": false, "multidegree": [6, 0, 0, 0], "value": '
    '"10240*x1_0^6 + 61440*x1_0^5*x1_1 + 153600*x1_0^4*x1_1^2 + 204800*x1_0^3*x1_1^3 '
    '+ 153600*x1_0^2*x1_1^4 + 61440*x1_0*x1_1^5 + 10240*x1_1^6"}\n'
)

# C_3111 on a Fraction state: a negative Fraction prints as "- (1/18)*...".
C_3111_ON_FRACTIONS = (
    '{"covariant": "C_3111", "is_zero": false, "multidegree": [3, 1, 1, 1], "value": '
    '"(1/12)*x1_0^2*x1_1*x2_0*x3_0*x4_0 - (1/18)*x1_0^2*x1_1*x2_0*x3_1*x4_1 '
    '+ (1/6)*x1_0*x1_1^2*x2_1*x3_0*x4_0 - (1/6)*x1_0*x1_1^2*x2_1*x3_1*x4_1"}\n'
)


def _fraction_state_json() -> str:
    """The state |0000>/2 + |1100> + |0011>/3 + |1111> as JSON."""
    amps = [[0, 1]] * 16
    amps[0], amps[3], amps[12], amps[15] = [1, 2], [1, 1], [1, 3], [1, 1]
    return json.dumps({"amplitudes": amps})


def _gaussian_state():
    """(1+i) times an SL2^4 image of the 65529 normal form under shears by i."""
    i_shear = ((1, GaussianRational(0, 1)), (0, 1))
    g = LocalOperator(i_shear, i_shear, ((1, 0), (1, 1)), i_shear)
    return apply_local(g, decode_form(65529)).scaled(GaussianRational(1, 1))


def test_eval_command(capsys, tmp_path):
    """The printed polynomial is pinned term by term, in graded-lex order,
    with integer and Fraction coefficients."""
    code, out, _ = run(capsys, "eval", "--covariant", "L_6000", "--form", "65218")
    assert code == 0
    assert out == L_6000_ON_65218
    path = tmp_path / "state.json"
    path.write_text(_fraction_state_json())
    code, out, _ = run(capsys, "eval", "--covariant", "C_3111", "--in", str(path))
    assert code == 0
    assert out == C_3111_ON_FRACTIONS
    code, _, err = run(capsys, "eval", "--covariant", "Q_9999", "--form", "3")
    assert code == 1
    code, _, err = run(capsys, "eval", "--covariant", "B_1111", "--form", "3")
    assert code == 1


def test_verify_command(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--out", str(tmp_path))
    assert code == 0
    assert out.strip().endswith("(92 checks)")
    assert (tmp_path / "verify_report.txt").exists()


def test_atlas_and_graph_wiring(capsys, tmp_path, monkeypatch):
    # patch the heavy discovery with a miniature form set; the real numbers
    # are covered by the acceptance suite
    import entatlas.cli as cli

    def tiny_discovery(which, args):
        from entatlas.atlas import discover_classes

        forms = [0, 1, 59520, 65534]
        return forms, discover_classes(forms, processes=1)

    monkeypatch.setattr(cli, "_discovery", tiny_discovery)
    code, out, _ = run(capsys, "atlas", "nullcone", "--out", str(tmp_path))
    assert code == 0
    assert "4 forms, 4 classes" in out
    classes = json.loads((tmp_path / "nullcone_classes.json").read_text())
    assert classes["class_count"] == 4
    assert (tmp_path / "nullcone_graph.dot").exists()

    out_file = tmp_path / "g.dot"
    code, _, _ = run(capsys, "graph", "nullcone", "--dot", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("digraph")

    code, out, _ = run(capsys, "graph", "nullcone")
    assert code == 0
    doc = json.loads(out)
    assert {"nodes", "edges"} <= set(doc)


def test_complex_state_classify_and_invariants(tmp_path, capsys):
    """An ``amplitudes_c`` state: (1+i) times an SL2^4 image of the 65529
    normal form under shears by i.  Its B is not real, so Z needs B**3 of a
    Gaussian rational."""
    s = _gaussian_state()
    assert any(isinstance(a, GaussianRational) for a in s.amps)
    path = tmp_path / "state.json"
    path.write_text(s.to_json())
    assert "amplitudes_c" in path.read_text()
    label = classify(s).label
    assert label == 65529
    for extra in ([], ["--extended"]):
        code, out, err = run(capsys, "classify", "--in", str(path), *extra)
        assert code == 0, err
        assert json.loads(out)["label"] == label
    code, out, err = run(capsys, "invariants", "--in", str(path), "--pairs")
    assert code == 0, err
    doc = json.loads(out)
    assert doc == {k: str(v) for k, v in all_invariants(s, pairs=True).items()}
    assert "i" in doc["B"] and "i" in doc["Z"]


# sha256 of the stdout of ``entatlas <command> --in <state> --mode <mode>``,
# recorded before states held their own cleared amplitudes: each state's
# sextic L_6000, its degree-11 K_5111 (lam 6, so eval divides by 6 q^11)
# and all of its invariants.  L_6000 vanishes on the first two states.
_CLI_PINS = {
    ("gaussian", "eval --covariant L_6000"):
        "d7132954d82ee02f8a4bcf48510313723992872442c2329aef8cf10aeb0145ea",
    ("gaussian", "eval --covariant K_5111"):
        "2d89d7c59d3553c5c2dedf696c175a3a92e6ec80eb4e2417265a5a3d65874825",
    ("gaussian", "invariants --pairs"):
        "b922c408e98dcac011497871d27d64239a49b886bac785126c2d757a067b7158",
    ("fractions", "eval --covariant L_6000"):
        "d7132954d82ee02f8a4bcf48510313723992872442c2329aef8cf10aeb0145ea",
    ("fractions", "eval --covariant K_5111"):
        "f1cb870997ca7986a768be397d04bd23002e2af71695e5d181e51af6afd0950f",
    ("fractions", "invariants --pairs"):
        "639b64363b68386ffb5dc5c5af61ea2238dcacc14053946f3d58630b0189afaa",
    ("float", "eval --covariant L_6000"):
        "487b69c86d664744eec2ad6c324958d228773b0fed0eed0ddffe1dae84b7bc5b",
    ("float", "eval --covariant K_5111"):
        "bbf44d67e77db92773e3ae963a808cae0d1e2e346dfbb307fd7e7973bc3502cb",
    ("float", "invariants --pairs"):
        "379368821faf7e87a84d23f8bbfd1014e5d80a061109f7601456de6069dd4e99",
}


def test_eval_and_invariants_output_pinned(capsys, tmp_path):
    """``eval`` and ``invariants --pairs`` print the recorded text on a
    Gaussian state, on the Fraction state of ``test_eval_command`` and, in
    float mode, on the SL2^4 image that the float oracle tests use."""
    states = {
        "gaussian": (_gaussian_state().to_json(), "exact"),
        "fractions": (_fraction_state_json(), "exact"),
        "float": (apply_local(random_sl2_tuple(6525700), decode_form(65257)).to_json(), "float"),
    }
    for (name, command), want in _CLI_PINS.items():
        text, mode = states[name]
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, *command.split(), "--in", str(path), "--mode", mode)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == want, (name, command, out)


def test_exact_golden_miss_exits_3(capsys, monkeypatch):
    """An exact signature that matches no golden row is an integrity error:
    with the T lookup emptied, the nilpotent form 59520 exits 3 with one
    ``integrity error:`` line on stderr and no traceback."""
    from entatlas.classify import GOLDEN

    monkeypatch.setitem(vars(GOLDEN), "_t_lookup", {})
    code, out, err = run(capsys, "classify", "--form", "59520")
    assert code == 3 and out == ""
    assert err.startswith("integrity error: nilpotent state with unknown T signature")
    assert err.count("\n") == 1 and "Traceback" not in err


# 0, or a fraction with numerator and denominator of up to 60 digits.
_TALL_AMPLITUDES = st.one_of(
    st.just([0, 1]),
    st.tuples(st.integers(-10 ** 60 + 1, 10 ** 60 - 1), st.integers(1, 10 ** 60 - 1)).map(list),
)

# 0, or m * 10**e with |m| < 1000 and |e| <= 300, as an exact [num, den]
# pair that float mode rounds once.
_WIDE_AMPLITUDES = st.one_of(
    st.just([0, 1]),
    st.builds(
        lambda m, e: [m * 10 ** e, 1] if e >= 0 else [m, 10 ** -e],
        st.integers(-999, 999),
        st.integers(-300, 300),
    ),
)

_HEIGHT_COMMANDS = st.sampled_from([
    ("classify",),
    ("classify", "--extended"),
    ("invariants", "--pairs"),
    ("eval", "--covariant", "B_0000"),
    ("eval", "--covariant", "C_3111"),
    ("eval", "--covariant", "L_6000"),
])


def _state_json(amplitudes):
    return st.lists(amplitudes, min_size=16, max_size=16).map(
        lambda amps: json.dumps({"amplitudes": amps})
    )


# (argv, JSON state text): an exact state of tall fractions, or a
# float-mode state of wide exponents.
_HEIGHT_CASES = st.one_of(
    st.tuples(_HEIGHT_COMMANDS, _state_json(_TALL_AMPLITUDES)),
    st.tuples(_HEIGHT_COMMANDS.map(lambda c: c + ("--mode", "float")),
              _state_json(_WIDE_AMPLITUDES)),
)


def _check_height_case(argv, text):
    """One CLI run on a state read from stdin: exit 0, 1 or 2; on failure
    one line on stderr and nothing on stdout; never an exception."""
    import contextlib
    import io
    from unittest import mock

    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, text, err)
    if code:
        assert out == "" and err.count("\n") == 1, (argv, text, err)
    else:
        assert err == "" and json.loads(out)


def _dense_state(seed, amplitude):
    rng = random.Random(seed)
    return json.dumps({"amplitudes": [amplitude(rng) for _ in range(16)]})


# Every amplitude a 60-digit fraction; every amplitude 1e300 or 1e-300.
_TALL = _dense_state(60, lambda rng: [rng.randrange(-10 ** 60, 10 ** 60), rng.randrange(1, 10 ** 60)])
_WIDE = _dense_state(300, lambda rng: rng.choice(([10 ** 300, 1], [-1, 10 ** 300])))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_HEIGHT_CASES)
@example((("invariants", "--pairs"), _TALL))
@example((("classify", "--mode", "float"), _WIDE))
@example((("invariants", "--pairs", "--mode", "float"), _WIDE))
def test_states_of_any_height_exit_cleanly(case):
    """Tall exact states (numerators and denominators of up to 60 digits)
    and float states with amplitudes from 1e-300 to 1e300 give exit 0, 1
    or 2 through ``classify``, ``invariants --pairs`` and ``eval``, with
    one stderr line on failure and no traceback.  A few derandomized cases
    here; ``test_states_of_any_height_exit_cleanly_deep`` runs more."""
    _check_height_case(*case)


@pytest.mark.slow
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_HEIGHT_CASES)
def test_states_of_any_height_exit_cleanly_deep(case):
    """The same property over 1000 derandomized cases."""
    _check_height_case(*case)
