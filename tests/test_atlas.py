import ast
import importlib.util
import json
import os
import random
import types
from pathlib import Path

import pytest

import entatlas
from entatlas import atlas
from entatlas.atlas import (
    AdherenceGraph,
    Report,
    _flip_images,
    _flip_keys,
    adherence_order,
    discover_classes,
    enumerate_forms,
    export_graph,
    nullcone_filter,
    secant3_filter,
    signatures_for,
    verify_tables,
)
from entatlas.catalog import EXTENDED_T_IDS
from entatlas.invariants import Generators, hyperdet_delta, inv_B, inv_D, inv_L, inv_M
from entatlas.qstate import (
    LocalOperator,
    State,
    StateError,
    _sparse_image,
    apply_local,
    decode_form,
    encode_form,
)


@pytest.mark.parametrize("name", ["secant", "", "Nullcone", "all"])
def test_unknown_filter_rejected(name):
    with pytest.raises(ValueError, match="nullcone, secant3"):
        enumerate_forms(name)


def test_filters_on_known_forms():
    assert nullcone_filter(decode_form(59520))
    assert not nullcone_filter(decode_form(65534))
    assert secant3_filter(decode_form(65534))
    assert secant3_filter(decode_form(59777))
    outside = next(n for n in range(1, 65536) if inv_L(decode_form(n)) != 0)
    assert not secant3_filter(decode_form(outside))


def test_flip_key_orbits():
    """The 65536 forms fall into 4336 bit-flip orbits; each key is the least
    member of its orbit, and the masks act as the local flips X_k."""
    key_of = _flip_keys(range(65536))
    assert len(set(key_of.values())) == 4336
    assert key_of[1 << 15] == 1 and key_of[65535] == 65535
    flip, eye = ((0, 1), (1, 0)), ((1, 0), (0, 1))
    n = 59520
    for k in range(4):
        g = LocalOperator(*(flip if j == k else eye for j in range(4)))
        assert encode_form(apply_local(g, decode_form(n))) == _flip_images(n)[1 << k]
    images = set(_flip_images(n))
    assert {key_of[m] for m in images} == {min(images)}
    for bad in (-1, 65536, True, 1.0):
        with pytest.raises(StateError):
            _flip_keys((bad,))
    with pytest.raises(StateError):  # True equals the key 1 seen before it
        _flip_keys([1, True])


def _whole_orbits(count, seed):
    keys = sorted(set(_flip_keys(range(65536)).values()))
    picked = random.Random(seed).sample(keys, count)
    return [m for key in picked for m in sorted(set(_flip_images(key)))]


def test_signatures_for_quotient_matches_direct(catalog):
    """One signature per sparse image equals the per-form signature, in the
    order of first occurrence, on forms 1, 3, 6, 7, every member of a
    seeded sample of whole flip orbits, part of the orbit of 59520 without
    its least member, and repeats, all shuffled; the orbit keys computed
    once per orbit equal the per-form ``min(_flip_images(n))``.  Distinct
    flip orbits share an image, and each image stays in its form's GL2^4
    orbit: L, M and Delta are equal, and B and D_xy are equal up to the
    sign of the flips (det -1) in the reduction."""
    rng = random.Random(4)
    partial = sorted(set(_flip_images(59520)))[1:6]
    forms = [1, 3, 6, 7] + _whole_orbits(6, seed=3) + partial
    forms += rng.sample(forms, 8)
    rng.shuffle(forms)
    got = signatures_for(forms, processes=1)
    key_of = _flip_keys(forms)
    assert [key_of[n] for n in forms] == [min(_flip_images(n)) for n in forms]
    direct = {}
    for n in forms:
        if n not in direct:
            s = decode_form(n)
            direct[n] = Generators(s).bits() + catalog.signature(s, EXTENDED_T_IDS)
    assert list(got.items()) == list(direct.items())
    assert len(direct) < len(forms) and len(set(got.values())) > 1
    image_of = {key: _sparse_image(decode_form(key).amps) for key in map(key_of.get, forms)}
    assert image_of[1] == image_of[key_of[3]] and image_of[key_of[6]] == image_of[key_of[7]]
    assert len(set(image_of.values())) < len(image_of)
    for key, image in image_of.items():
        s, r = decode_form(key), State(image)
        assert any(r.amps) == any(s.amps)
        assert (inv_L(r), inv_M(r), hyperdet_delta(r)) == (inv_L(s), inv_M(s), hyperdet_delta(s))
        assert abs(inv_B(r)) == abs(inv_B(s)) and abs(inv_D(r)) == abs(inv_D(s)), key


def test_discover_singleton_zero():
    table = discover_classes([0], processes=1)
    assert len(table.classes) == 1
    assert set(table.representatives.values()) == {0}
    sig = next(iter(table.classes))
    assert not any(sig)


def test_discover_small_set():
    table = discover_classes([0, 1, 65535, 59520], processes=1)
    # 1 (a basis ket) and 65535 (full superposition) are both separable
    assert set(table.representatives.values()) == {0, 65535, 59520}
    sig_of = {rep: sig for sig, rep in table.representatives.items()}
    assert table.classes[sig_of[65535]] == [1, 65535]
    assert sig_of[59520] == signatures_for([59520], processes=1)[59520]


@pytest.mark.parametrize("basis", ["extnded", "", ("A", "B_0000"), "T"])
def test_unknown_basis_rejected(basis):
    """Only the two basis names are accepted, and an unknown one fails
    with a ValueError naming them before any signature is computed."""
    with pytest.raises(ValueError, match="extended, full"):
        discover_classes([59520], basis=basis, processes=1)


def test_public_surface():
    """The names the package exports and the census bases are pinned, so a
    change to either is made on purpose.  Submodules are left out: which
    of them the package holds depends on what was imported before."""
    exported = sorted(
        n for n, v in vars(entatlas).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert exported == [
        "Catalog", "ClassificationResult", "ClassifyFail", "CovariantId", "IntegrityError",
        "LocalOperator", "Polynomial", "QubitPermutation", "State", "VariableId",
        "all_invariants", "apply_local", "build_catalog", "classify", "classify_nullcone",
        "classify_secant3_extended", "decode_form", "delta_via_sextic",
        "encode_form", "hyperdet_delta", "in_third_secant", "inv_B", "inv_D", "inv_I2",
        "inv_L", "inv_M", "inv_N", "inv_Z", "is_nilpotent", "orbit_dimension",
        "orbit_records", "permutation_type", "permute_qubits", "random_sl2_tuple",
        "random_state", "terracini_rank", "verstraete_quartic",
    ]
    assert atlas.BASES == ("extended", "full")


def _bench_module(monkeypatch, stem):
    """``bench/<stem>.py`` loaded as a module, with ``bench/`` on the path."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", bench / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_patch_targets_exist(monkeypatch):
    """Every name the benchmark's tracer patches (``install_tracing`` in
    ``bench/run.py``) still exists, and ``unpatch`` restores each original,
    so a rename that drops one fails here and not only in ``pytest bench``."""
    run = _bench_module(monkeypatch, "run")
    tr = run.Tracer()

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    try:
        run.install_tracing(tr)
        patches = list(tr._patches)
        assert patches
        assert all(current(owner, attr) is not orig for owner, attr, orig in patches)
    finally:
        tr.unpatch()
    assert all(current(owner, attr) is orig for owner, attr, orig in patches)


def test_bench_workloads_run_one_item(monkeypatch):
    """Each benchmark workload (``bench/workloads.py``), built at seed 1
    with one process, runs its operation on the first item of round 0 with
    no wrong output, so dropping a name the workloads call fails here and
    not only in ``pytest bench``."""
    workloads = _bench_module(monkeypatch, "workloads")
    for name, workload in workloads.WORKLOADS.items():
        w = workload(1, 1)
        item = w.round_items(0)[0]
        assert w.check(item, w.op(item)) == 0, name


def _unread_imports(path) -> set:
    """The names that module-level imports of ``path`` bind and no code in
    the module reads."""
    tree = ast.parse(path.read_text())
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


def test_unread_imports_are_tracer_targets(monkeypatch):
    """A module-level import in ``src/entatlas`` (``__init__`` aside) that
    no code of its module reads is there only for the benchmark's tracer:
    ``install_tracing`` patches that name on that module."""
    run = _bench_module(monkeypatch, "run")
    tr = run.Tracer()
    try:
        run.install_tracing(tr)
        patched = {
            (owner.__name__, attr) for owner, attr, _ in tr._patches
            if isinstance(owner, types.ModuleType)
        }
    finally:
        tr.unpatch()
    for path in sorted(Path(entatlas.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            for name in sorted(_unread_imports(path)):
                assert (f"entatlas.{path.stem}", name) in patched, (path.name, name)


def test_adherence_on_small_table():
    table = discover_classes([0, 65535, 59520, 65534, 65520], processes=1)
    graph = adherence_order(table)
    pairs = {(u, l) for u, l, _ in graph.edges}
    assert (65535, 0) in pairs
    assert (65520, 65535) in pairs
    assert (65534, 59520) in pairs
    # transitive edge absent
    assert (59520, 65535) not in pairs and (65534, 0) not in pairs


def test_export_graph_roundtrip():
    g = AdherenceGraph(nodes=[1, 2], edges=[(2, 1, False)])
    doc = json.loads(export_graph(g, "json"))
    assert doc == {"nodes": [1, 2], "edges": [{"upper": 2, "lower": 1, "caveat": False}]}
    dot = export_graph(g, "dot")
    assert '"2" -> "1";' in dot
    empty = export_graph(AdherenceGraph(nodes=[], edges=[]), "dot")
    assert empty == "digraph adherence {\n}\n"
    with pytest.raises(ValueError):
        export_graph(g, "xml")


def test_verify_tables_all_pass():
    report = verify_tables()
    assert report.ok, str(report)
    assert len(report.lines) == 92
    assert str(report).endswith("(92 checks)")


def test_report_formatting():
    r = Report()
    r.add("alpha", True)
    r.add("beta", False, "1 != 2")
    assert not r.ok
    text = str(r)
    assert "PASS alpha" in text and "FAIL beta: 1 != 2" in text


def test_pool_size_capped_at_usable_cores():
    """The pool never outgrows the cores this process may run on; the
    function is tested alone, so no pool is started."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert atlas._pool_size(10**6) == atlas._pool_size(None) == cores
    assert atlas._pool_size(0) == atlas._pool_size(-3) == atlas._pool_size(1) == 1


def test_full_catalog_basis_agrees_on_every_secant_orbit(secant_table):
    """Full-catalog signatures induce the census partition, with the same
    representatives, on all 33040 secant forms."""
    forms, table = secant_table
    full = discover_classes(forms, basis="full")
    assert sorted(full.classes.values()) == sorted(table.classes.values())
    assert sorted(full.representatives.values()) == sorted(table.representatives.values())


@pytest.mark.slow
def test_orbit_census_matches_direct_census(secant_table, catalog, monkeypatch):
    """The census over flip orbits and sparse images equals the per-form
    census on all 65536 forms: both filters, then the partition and
    representatives of the secant3 forms, each form evaluated itself."""
    bits = {n: Generators(decode_form(n)).bits() for n in range(65536)}
    assert enumerate_forms("nullcone") == [n for n, b in bits.items() if b == (0, 0, 0, 0)]
    direct_forms = [n for n, b in bits.items() if b[1] == b[2] == 0]
    forms, table = secant_table
    assert forms == direct_forms

    def direct_signatures(forms, basis="extended", processes=None):
        sig_of = {}
        for n in forms:
            s = decode_form(n)
            sig_of[n] = Generators(s).bits() + catalog.signature(s, EXTENDED_T_IDS)
        return sig_of

    monkeypatch.setattr(atlas, "signatures_for", direct_signatures)
    direct = discover_classes(forms)
    assert direct.classes == table.classes
    assert direct.representatives == table.representatives
