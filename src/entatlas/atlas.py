"""Atlas machinery: enumerate the {0,1} forms, discover signature classes,
build adherence graphs, and verify every golden evaluation table.

Class discovery evaluates a covariant signature on each filtered form and
partitions by signature.  The default basis is the summary list that the
printed evaluation tables use (the T vector extended with the invariant
bits and the degree-6 covariants feeding V''); the full 170-entry catalog
is available behind ``basis="full"``.

Both census steps work on bit-flip orbits: a flip X_k swaps |0> and |1>
on site k, the 16 products of flips split the 65536 forms into 4336
orbits, and every invariant bit and covariant nullity is constant on an
orbit (proof in ``signatures_for``).  So ``enumerate_forms`` runs its
filter and ``signatures_for`` computes a signature once per orbit.
Signatures of 256 or more orbits are spread over a process pool of
``processes`` workers (default: the cpu count).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .catalog import EXTENDED_T_IDS, T_IDS, VPRIME_IDS, build_catalog, split_T
from .classify import GOLDEN, IntegrityError
from .invariants import inv_B, inv_D, inv_L, inv_M
from .qstate import check_form, decode_form

_GR3PP = frozenset({65267, 65509, 65507, 65269, 65510, 65231})


def _invariant_bits(s):
    return (
        0 if not inv_B(s) else 1,
        0 if not inv_L(s) else 1,
        0 if not inv_M(s) else 1,
        0 if not inv_D(s, "xy") else 1,
    )


def nullcone_filter(s) -> bool:
    return _invariant_bits(s) == (0, 0, 0, 0)


def secant3_filter(s) -> bool:
    return not inv_L(s) and not inv_M(s)


_FILTERS = {"nullcone": nullcone_filter, "secant3": secant3_filter}


def enumerate_forms(filter_spec="all") -> list:
    """All n in 0..65535 whose decoded state passes the named filter
    ("all", "nullcone" or "secant3").

    The filter runs once per bit-flip orbit, on its least member, and the
    verdict holds for the whole orbit: both filters test only the nullity
    of B, L, M and D_xy, which flips preserve (see ``signatures_for``).
    """
    if filter_spec == "all":
        return list(range(65536))
    pred = _FILTERS[filter_spec]
    verdict = bytearray(65536)  # 0 not yet seen, 1 dropped, 2 kept
    for n in range(65536):
        if not verdict[n]:  # n is the least member of a new orbit
            v = 2 if pred(decode_form(n)) else 1
            for m in _flip_images(n):
                verdict[m] = v
    return [n for n in range(65536) if verdict[n] == 2]


_FLIP_MASKS = ((0x5555, 1), (0x3333, 2), (0x0F0F, 4), (0x00FF, 8))


def _flip_images(n: int) -> list:
    """The images of form n under the 16 products of bit flips, one per
    product (with repeats when n is fixed by some flip).  Flipping site k
    moves the amplitude at index b to b ^ 2**(k-1), which swaps the bit
    groups that the k-th mask selects."""
    images = [n]
    for mask, shift in _FLIP_MASKS:
        images += [((m & mask) << shift) | ((m >> shift) & mask) for m in images]
    return images


def _flip_key(n: int) -> int:
    """The least member of the bit-flip orbit of form n."""
    return min(_flip_images(check_form(n)))


@dataclass
class ClassTable:
    """Signature-keyed partition of a form set."""

    classes: dict = field(default_factory=dict)  # signature -> sorted members
    representatives: dict = field(default_factory=dict)  # signature -> rep label

    @property
    def representative_set(self) -> set:
        return set(self.representatives.values())

    def members_of(self, rep: int) -> list:
        for sig, r in self.representatives.items():
            if r == rep:
                return self.classes[sig]
        raise KeyError(rep)

    def signature_of(self, rep: int) -> tuple:
        for sig, r in self.representatives.items():
            if r == rep:
                return sig
        raise KeyError(rep)

    def class_of_form(self, n: int):
        for sig, members in self.classes.items():
            if n in members:
                return self.representatives[sig]
        raise KeyError(n)


def _resolve_basis(basis):
    if basis == "extended":
        return EXTENDED_T_IDS
    if basis == "T":
        return T_IDS
    if basis == "full":
        cat = build_catalog()
        return tuple(cat.order)
    return tuple(basis)


def _signature_worker(args):
    ns, basis_key = args
    cat = build_catalog()
    ids = _resolve_basis(basis_key)
    out = []
    for n in ns:
        s = decode_form(n)
        out.append((n, _invariant_bits(s) + cat.signature(s, ids)))
    return out


def _pool_size(processes):
    if processes is not None:
        return max(1, processes)
    return os.cpu_count() or 1


def signatures_for(forms, basis="extended", processes: int | None = None) -> dict:
    """n -> (invariant bits + covariant signature) for every form.

    The forms are grouped by bit-flip orbit; the signature is computed on
    the first member of each group and copied to the others.  The process
    pool is used when there are 256 or more groups.

    Why the copy is exact.  Every catalog covariant C is built by
    transvection from the ground form A, so it is an SL2^4 covariant,
    homogeneous of some degree d in the amplitudes.  Over the complex
    numbers, any g in GL2^4 factors sitewise as g_k = l_k h_k with
    l_k^2 = det g_k and h_k in SL2, so g.A = l (h.A) with
    l = l_1 l_2 l_3 l_4, and C(g.A) = l^d C(h.A) = l^d C(A) o h^-1:
    transvection is GL2^4-equivariant up to a power of det.  l^d is
    nonzero and o h^-1 is an invertible linear change of variables, so
    C(g.A) is zero exactly when C(A) is.  The invariants B, L, M and D_xy
    are the order-zero case.  A flip X_k is in GL2, so every bit of the
    signature is constant on a flip orbit.  (Qubit permutations are not
    used: see the catalog notes.)
    """
    forms = list(forms)
    keys = [_flip_key(n) for n in forms]
    first = {}
    for n, key in zip(forms, keys):
        first.setdefault(key, n)
    reps = list(first.values())
    nproc = _pool_size(processes)
    if nproc <= 1 or len(reps) < 256:
        sig_of = dict(_signature_worker((reps, basis)))
    else:
        import multiprocessing as mp

        chunks = [reps[i::nproc] for i in range(nproc)]
        with mp.Pool(nproc) as pool:
            parts = pool.map(_signature_worker, [(c, basis) for c in chunks])
        sig_of = {}
        for part in parts:
            sig_of.update(part)
    return {n: sig_of[first[key]] for n, key in zip(forms, keys)}


def discover_classes(forms, basis="extended", processes: int | None = None) -> ClassTable:
    """Partition forms by signature; the representative is the known class
    label when one lies in the class, else the maximal member."""
    sigs = signatures_for(forms, basis, processes)
    table = ClassTable()
    for n, sig in sigs.items():
        table.classes.setdefault(sig, []).append(n)
    known = set(GOLDEN.tables["nullcone_class_list"]) | set(
        GOLDEN.tables["secant_class_list"]
    )
    for sig, members in table.classes.items():
        members.sort()
        labels = [m for m in members if m in known]
        if len(labels) > 1:
            raise IntegrityError(
                f"distinct class labels {labels} share one signature"
            )
        table.representatives[sig] = labels[0] if labels else members[-1]
    return table


@dataclass
class AdherenceGraph:
    """Hasse diagram of the signature partial order (upper covers lower)."""

    nodes: list
    edges: list  # (upper, lower, caveat)

    def cover_pairs(self) -> set:
        return {(u, l) for u, l, _ in self.edges}


def adherence_order(table: ClassTable, restrict_to=None, drop_caveats: bool = False) -> AdherenceGraph:
    """Covers of the partial order "lower's nonzero set inside upper's".

    ``restrict_to`` induces the subposet on the given representative labels.
    Edges between the second-derivative class 59510 and the join classes it
    does not actually contain are flagged (caveat=True): the order reports
    adherence of signatures there, not inclusion of varieties.  With
    ``drop_caveats`` those relations are removed before cover computation,
    which yields the geometry-vetted diagrams of the printed figures.
    """
    sigs = {rep: sig for sig, rep in table.representatives.items()}
    if restrict_to is not None:
        keep = set(restrict_to)
        sigs = {rep: sig for rep, sig in sigs.items() if rep in keep}
    nodes = sorted(sigs)

    def leq(a, b):  # a below b
        if drop_caveats and b == 59510 and a in _GR3PP:
            return False
        sa, sb = sigs[a], sigs[b]
        return all(x <= y for x, y in zip(sa, sb))

    below = {b: [a for a in nodes if a != b and leq(a, b)] for b in nodes}
    edges = []
    for upper in nodes:
        direct = set(below[upper])
        for mid in below[upper]:
            direct -= set(below[mid])
        for lower in sorted(direct):
            caveat = (upper == 59510 and lower in _GR3PP) or (
                lower == 59510 and upper in _GR3PP
            )
            edges.append((upper, lower, caveat))
    return AdherenceGraph(nodes=nodes, edges=sorted(edges))


def export_graph(graph: AdherenceGraph, fmt: str = "dot") -> str:
    if fmt == "dot":
        lines = ["digraph adherence {"]
        for n in sorted(graph.nodes):
            lines.append(f'  "{n}";')
        for u, l, caveat in sorted(graph.edges):
            style = " [style=dashed]" if caveat else ""
            lines.append(f'  "{u}" -> "{l}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(
            {
                "nodes": sorted(graph.nodes),
                "edges": [
                    {"upper": u, "lower": l, "caveat": c}
                    for u, l, c in sorted(graph.edges)
                ],
            },
            indent=2,
        ) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")


def graph_from_json(text: str) -> AdherenceGraph:
    doc = json.loads(text)
    return AdherenceGraph(
        nodes=list(doc["nodes"]),
        edges=[(e["upper"], e["lower"], e["caveat"]) for e in doc["edges"]],
    )


# ---------------------------------------------------------------------------
# Golden-table verification.


@dataclass
class Report:
    lines: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.lines.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.lines)

    def __str__(self):
        out = []
        for name, ok, detail in self.lines:
            mark = "PASS" if ok else "FAIL"
            out.append(f"{mark} {name}" + (f": {detail}" if detail else ""))
        out.append(("OK" if self.ok else "MISMATCHES FOUND") + f" ({len(self.lines)} checks)")
        return "\n".join(out)


def verify_tables() -> Report:
    """Recompute every printed evaluation block and diff against the golden
    transcriptions; mismatches become report content, not exceptions."""
    catalog = build_catalog()
    sessions = {}

    def session(n):
        """The one evaluation session of form n, shared by all its checks."""
        if n not in sessions:
            sessions[n] = catalog.session(decode_form(n))
        return sessions[n]

    tables = GOLDEN.tables
    report = Report()
    for label_s, rows in tables["evaluation_blocks"].items():
        n = int(label_s)
        got = split_T(session(n).signature(T_IDS))
        want = [list(r) for r in rows]
        report.add(f"blocks[{n}]", got == want, "" if got == want else f"{got} != {want}")
    strata = {}
    for rec in GOLDEN.orbits.values():
        strata.setdefault(rec.group, []).append(rec.label)
    for gr, want in tables["strata_V"].items():
        for label in sorted(strata.get(gr, [])):
            if label == 0:
                continue
            got = list(session(label).vector_V())
            report.add(f"strata_V[{gr}][{label}]", got == list(want),
                       "" if got == list(want) else f"{got} != {list(want)}")
    got = list(session(0).vector_V())
    report.add("strata_V[Gr_0][0]", got == tables["strata_V"]["Gr_0"])
    for label_s, row in tables["vprime_classes"].items():
        n = int(label_s)
        got = list(session(n).signature(VPRIME_IDS))
        report.add(f"vprime[{n}]", got == row["vprime"],
                   "" if got == row["vprime"] else f"{got} != {row['vprime']}")
    for label_s, row in tables["vpp_classes"].items():
        n = int(label_s)
        got = list(session(n).vector_Vpp())
        report.add(f"vpp[{n}]", got == row["vpp"],
                   "" if got == row["vpp"] else f"{got} != {row['vpp']}")
    for label_s, row in tables["vpp_classes"].items():
        n = int(label_s)
        want = tables["strata_W"][row["stratum"]]
        got = list(session(n).vector_W())
        report.add(f"W[{row['stratum']}][{n}]", got == want,
                   "" if got == want else f"{got} != {want}")
    return report
