import json
import random

import pytest

from entatlas import atlas
from entatlas.atlas import (
    AdherenceGraph,
    Report,
    _flip_images,
    _flip_key,
    _invariant_bits,
    _signature_worker,
    adherence_order,
    discover_classes,
    enumerate_forms,
    export_graph,
    graph_from_json,
    nullcone_filter,
    secant3_filter,
    signatures_for,
    verify_tables,
)
from entatlas.catalog import EXTENDED_T_IDS
from entatlas.qstate import LocalOperator, StateError, apply_local, decode_form, encode_form


def test_enumerate_all():
    assert len(enumerate_forms("all")) == 65536


def test_filters_on_known_forms():
    assert nullcone_filter(decode_form(59520))
    assert not nullcone_filter(decode_form(65534))
    assert secant3_filter(decode_form(65534))
    assert secant3_filter(decode_form(59777))
    from entatlas.invariants import inv_L
    outside = next(n for n in range(1, 65536) if inv_L(decode_form(n)) != 0)
    assert not secant3_filter(decode_form(outside))


def test_flip_key_orbits():
    """The 65536 forms fall into 4336 bit-flip orbits; each key is the least
    member of its orbit, and the masks act as the local flips X_k."""
    keys = {_flip_key(n) for n in range(65536)}
    assert len(keys) == 4336
    assert _flip_key(1 << 15) == 1 and _flip_key(65535) == 65535
    flip, eye = ((0, 1), (1, 0)), ((1, 0), (0, 1))
    n = 59520
    for k in range(4):
        g = LocalOperator(*(flip if j == k else eye for j in range(4)))
        assert encode_form(apply_local(g, decode_form(n))) == _flip_images(n)[1 << k]
    images = set(_flip_images(n))
    assert {_flip_key(m) for m in images} == {min(images)}
    for bad in (-1, 65536, True, 1.0):
        with pytest.raises(StateError):
            _flip_key(bad)


def _whole_orbits(count, seed):
    keys = sorted({_flip_key(n) for n in range(65536)})
    picked = random.Random(seed).sample(keys, count)
    return [m for key in picked for m in sorted(set(_flip_images(key)))]


def test_signatures_for_quotient_matches_direct(catalog):
    """One signature per flip orbit equals the per-form signature on every
    member of a seeded sample of whole orbits."""
    forms = _whole_orbits(6, seed=3)
    random.Random(4).shuffle(forms)
    got = signatures_for(forms, processes=1)
    assert list(got) == forms
    for n in forms:
        s = decode_form(n)
        assert got[n] == _invariant_bits(s) + catalog.signature(s, EXTENDED_T_IDS), n
    assert len(set(got.values())) > 1


def test_discover_singleton_zero():
    table = discover_classes([0], processes=1)
    assert len(table.classes) == 1
    assert table.representative_set == {0}
    sig = next(iter(table.classes))
    assert not any(sig)


def test_discover_small_set():
    table = discover_classes([0, 1, 65535, 59520], processes=1)
    # 1 (a basis ket) and 65535 (full superposition) are both separable
    assert table.representative_set == {0, 65535, 59520}
    assert table.class_of_form(1) == 65535
    assert table.members_of(65535) == [1, 65535]
    assert table.signature_of(59520) == signatures_for([59520], processes=1)[59520]


def test_adherence_on_small_table():
    table = discover_classes([0, 65535, 59520, 65534, 65520], processes=1)
    graph = adherence_order(table)
    pairs = graph.cover_pairs()
    assert (65535, 0) in pairs
    assert (65520, 65535) in pairs
    assert (65534, 59520) in pairs
    # transitive edge absent
    assert (59520, 65535) not in pairs and (65534, 0) not in pairs


def test_export_graph_roundtrip():
    g = AdherenceGraph(nodes=[1, 2], edges=[(2, 1, False)])
    text = export_graph(g, "json")
    back = graph_from_json(text)
    assert back.nodes == [1, 2] and back.edges == [(2, 1, False)]
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


@pytest.mark.slow
def test_full_catalog_basis_agrees_on_sample(secant_table):
    """Full-catalog signatures induce the same partition as the default
    basis on a sample of the census forms."""
    import random

    forms, table = secant_table
    sample = random.Random(0).sample(forms, 250)
    full = discover_classes(sample, basis="full")
    default_partition = {}
    for n in sample:
        default_partition.setdefault(table.class_of_form(n), set()).add(n)
    full_partition = {}
    for sig, members in full.classes.items():
        full_partition[min(members)] = set(members)
    assert set(map(frozenset, default_partition.values())) == set(
        map(frozenset, full_partition.values())
    )


@pytest.mark.slow
def test_orbit_census_matches_direct_census(secant_table, monkeypatch):
    """The census over flip orbits equals the per-form census on all 65536
    forms: both filters, then the partition and representatives of the
    secant3 forms."""
    import multiprocessing as mp

    bits = {n: _invariant_bits(decode_form(n)) for n in range(65536)}
    assert enumerate_forms("nullcone") == [n for n, b in bits.items() if b == (0, 0, 0, 0)]
    direct_forms = [n for n, b in bits.items() if b[1] == b[2] == 0]
    forms, table = secant_table
    assert forms == direct_forms

    def direct_signatures(forms, basis="extended", processes=None):
        with mp.get_context("spawn").Pool(2) as pool:
            parts = pool.map(_signature_worker, [(forms[i::2], basis) for i in range(2)])
        return {n: sig for part in parts for n, sig in part}

    monkeypatch.setattr(atlas, "signatures_for", direct_signatures)
    direct = discover_classes(forms)
    assert direct.classes == table.classes
    assert direct.representatives == table.representatives
