"""The three benchmark workloads: census, classify and invariants.

Each workload makes its inputs from the seed alone, splits them into rounds,
runs one operation at a time in a closed loop with one client, and checks
every output exactly outside the timed region.  Round 0 is the prefix that
every run completes, traced or not; the output digest covers it.

- ``census``: batches of whole bit-flip orbits of {0,1} forms through
  ``secant3_filter``, ``discover_classes`` (process pool) and
  ``adherence_order``.  One round is one batch.
- ``classify``: ``classify_secant3_extended`` on SL2^4 images of the 48
  nonzero atlas normal forms, one image of each class per round.
- ``invariants``: ``all_invariants(s, pairs=True)`` on random states with
  small ``Fraction`` amplitudes, 50 states per round.

Twists.  Several inputs are images of others under a seeded element of the
signed-permutation subgroup of SL2^4 (each site matrix is +-I or
+-[[0, 1], [-1, 0]]).  Such an element moves amplitudes to other indices and
flips signs, so every invariant is unchanged and every covariant of the image
has exactly the term count and coefficient sizes of the original: the image
costs the same, yet it is a new state, so no cache in the program can serve it.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

from entatlas import atlas, qstate
from entatlas import invariants as inv_mod
from entatlas.catalog import (
    EXTENDED_T_IDS,
    T_IDS,
    VPRIME_IDS,
    CovariantId,
    EvalSession,
    build_catalog,
)
from entatlas.classify import GOLDEN
from entatlas.scalars import format_rational

# The package exports a function named ``classify`` that hides the module.
classify_mod = importlib.import_module("entatlas.classify")

_SIGNED_PERMUTATIONS = (
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((0, 1), (-1, 0)),
    ((0, -1), (1, 0)),
)

_F_IDS = tuple(c for c in EXTENDED_T_IDS if c.letter == "F" and not c.variant)

# Covariants each extended-classifier branch reads, keyed by the branch name
# derived from the signatures in its result.
BRANCHES = {
    ("T", "V"): ("T_V", T_IDS),
    ("Vpp", "W"): ("Vpp_W", _F_IDS + VPRIME_IDS),
    ("Vp", "Z"): ("Vp_Z", VPRIME_IDS),
    ("B", "Dxy"): ("B_Dxy", ()),
}


def _twist(rng) -> qstate.LocalOperator:
    return qstate.LocalOperator(*(rng.choice(_SIGNED_PERMUTATIONS) for _ in range(4)))


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def prepare():
    """The set-up a user pays once per process, done before any timing."""
    build_catalog()
    GOLDEN.tables, GOLDEN.orbits, GOLDEN.perm_types


def closure(cat, targets) -> list:
    """The targets and everything they depend on, in catalog (topological) order."""
    need, stack = set(), list(targets)
    while stack:
        cid = stack.pop()
        if cid not in need:
            need.add(cid)
            for _, lhs, rhs, _ in cat.defs[cid].terms:
                stack += (lhs, rhs)
    return [cid for cid in cat.order if cid in need]


def eval_probe(tracer, cat, state, ids) -> EvalSession:
    """Evaluate ``ids`` (topologically ordered) one by one on a cold session.

    ``EvalSession.eval`` is what ``Catalog.eval_covariant`` delegates to; a
    fresh session guarantees that nothing is cached, and because every
    dependency is evaluated before its dependants, each span is the self time
    of one covariant.
    """
    sess = EvalSession(cat, state)
    with tracer.root("probe.eval"):
        for cid in ids:
            deg = cat.defs[cid].adeg
            idx = tracer.begin(f"catalog.eval.deg{deg}")
            value = sess.eval(cid)
            tracer.end(idx)
            tracer.count(f"catalog.terms.deg{deg}", len(value.terms))
            tracer.count(f"catalog.covariant.{cid}")
    return sess


class Census:
    """Seeded batches of whole bit-flip orbits of the nonzero {0,1} forms.

    A flip X_k maps form bit b to bit b ^ (1 << k); the 65536 forms fall into
    4336 orbits.  A flip is in GL2, which scales L and M by a nonzero
    factor, so an orbit passes the secant3 filter as a whole.  Each batch takes passing orbits until it holds
    PASSING forms and failing ones until it holds FAILING forms, so every
    batch does the same mix of work and ``discover_classes`` always takes
    its pool path (>= 256 passing forms).
    """

    name = "census"
    PASSING = 512
    FAILING = 512
    EVAL_SAMPLE = 64  # passing forms of the traced batch, in its seeded order
    min_items = 1

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        orbits = flip_orbits()
        if len(orbits) != 4336:
            raise RuntimeError(f"expected 4336 flip orbits, got {len(orbits)}")
        self.orbits = [o for o in orbits if o != [0]]
        self._queues = {True: [], False: []}
        self._refills = {True: 0, False: 0}
        self._pass_of = {}
        cat = build_catalog()
        # Reference signatures: invariant bits then the extended basis, the
        # layout discover_classes uses, on each nonzero normal form.
        self.nf_sigs = set()
        self.label_sigs = {}
        for label, rec in GOLDEN.orbits.items():
            if label:
                sig = _signature(cat, rec.normal_form)
                self.nf_sigs.add(sig)
                self.label_sigs[label] = sig
        self.labels = set(GOLDEN.tables["nullcone_class_list"]) | set(
            GOLDEN.tables["secant_class_list"]
        )
        self._batches = []

    def _passes(self, orbit) -> bool:
        passes = self._pass_of.get(orbit[0])
        if passes is None:
            passes = self._pass_of[orbit[0]] = inv_mod.in_third_secant(
                qstate.decode_form(orbit[0])
            )
        return passes

    def _take(self, passing: bool, quota: int) -> list:
        """Whole orbits of one kind, in a seeded order, until ``quota`` forms."""
        queue = self._queues[passing]
        forms = []
        while len(forms) < quota:
            if not queue:
                self._refills[passing] += 1
                order = list(self.orbits)
                _rng("census", self.seed, self._refills[passing]).shuffle(order)
                queue.extend(o for o in reversed(order) if self._passes(o) == passing)
            forms += queue.pop()
        return forms

    def round_items(self, r: int) -> list:
        while len(self._batches) <= r:
            passing = self._take(True, self.PASSING)
            failing = self._take(False, self.FAILING)
            forms = passing + failing
            _rng("census-order", self.seed, len(self._batches)).shuffle(forms)
            self._batches.append((forms, frozenset(passing)))
        return [self._batches[r]]

    def op(self, batch):
        forms, _ = batch
        passing = []
        for n in forms:
            if atlas.secant3_filter(qstate.decode_form(n)):
                passing.append(n)
        table = atlas.discover_classes(passing, processes=self.nproc)
        graph = atlas.adherence_order(table)
        return table, graph

    def ops_in(self, batch) -> int:
        return len(batch[0])

    def check(self, batch, out) -> int:
        """Number of forms of the batch whose output is wrong."""
        forms, expect_pass = batch
        table, graph = out
        if graph.nodes != sorted(table.representatives.values()):
            return len(forms)
        sig_of = {n: sig for sig, members in table.classes.items() for n in members}
        bad = 0
        for n in forms:
            sig = sig_of.get(n)
            ok = (sig is not None) == (n in expect_pass)
            if ok and sig is not None:
                ok = sig in self.nf_sigs
                if ok and n in self.labels:
                    ok = table.representatives[sig] == n and sig == self.label_sigs[n]
            bad += not ok
        return bad

    def canonical(self, batch, out):
        table, _ = out
        return sorted(
            [n, list(sig)] for sig, members in table.classes.items() for n in members
        )

    def traced_items(self) -> list:
        return self.round_items(0)

    def probes(self, tracer, items, outs):
        """Serial signatures of the traced batch (for signature time and pool
        efficiency) and the per-degree evaluation of the basis closure."""
        cat = build_catalog()
        ((forms, expect_pass),), ((table, _),) = items, outs
        passing = [n for n in forms if n in expect_pass]
        tracer.count("atlas.filter_calls", len(forms))
        tracer.count("atlas.filter_passed", sum(len(m) for m in table.classes.values()))
        with tracer.root("probe.serial"):
            atlas.signatures_for(passing, processes=1)
        ids = closure(cat, EXTENDED_T_IDS)
        for n in passing[: self.EVAL_SAMPLE]:
            eval_probe(tracer, cat, qstate.decode_form(n), ids)


def _signature(cat, s) -> tuple:
    bits = (inv_mod.inv_B(s), inv_mod.inv_L(s), inv_mod.inv_M(s), inv_mod.inv_D(s, "xy"))
    return tuple(1 if b else 0 for b in bits) + cat.signature(s, EXTENDED_T_IDS)


def flip_orbits() -> list:
    """The orbits of {0,1} forms under the 16 products of bit flips X_k,
    each sorted, in order of their least member."""
    masks = ((0x5555, 1), (0x3333, 2), (0x0F0F, 4), (0x00FF, 8))
    seen = bytearray(65536)
    orbits = []
    for n in range(65536):
        if seen[n]:
            continue
        orbit = {n}
        for mask, shift in masks:
            orbit |= {((m & mask) << shift) | ((m >> shift) & mask) for m in orbit}
        for m in orbit:
            seen[m] = 1
        orbits.append(sorted(orbit))
    return orbits


class Classify:
    """SL2^4 images of the 48 nonzero atlas normal forms.

    The images are fixed: image i of class ``label`` is
    ``random_sl2_tuple(label * 100 + i)`` applied to the normal form, the
    first IMAGES of the corpus test_criterion_06 uses.  The seed sets the
    class order of every round and a twist per state.  Per-state cost spans
    0.4 ms to 4 s and depends on the image, so independently drawn images
    would change the workload's cost from seed to seed; twisting keeps the
    cost fixed while every state is new.
    """

    name = "classify"
    IMAGES = 5
    min_items = 200

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.records = sorted(
            (label, rec.normal_form) for label, rec in GOLDEN.orbits.items() if label
        )

    def _round(self, r: int, tag: str) -> list:
        rng = _rng("classify", self.seed, tag, r)
        items = []
        for label, nf in self.records:
            g = qstate.random_sl2_tuple(label * 100 + r % self.IMAGES)
            items.append((label, qstate.apply_local(_twist(rng).compose(g), nf)))
        rng.shuffle(items)
        return items

    def round_items(self, r: int) -> list:
        return self._round(r, "")

    def op(self, item):
        return classify_mod.classify_secant3_extended(item[1])

    def ops_in(self, item) -> int:
        return 1

    def check(self, item, out) -> int:
        return int(out.label != item[0])

    def canonical(self, item, out):
        return [out.label, {k: list(v) for k, v in out.signatures.items()}]

    def traced_items(self) -> list:
        return self._round(0, "traced")

    def probes(self, tracer, items, outs):
        """Cold evaluation of the covariants each state's branch reads, then
        the composite vectors on top of them."""
        cat = build_catalog()
        for (_, s), out in zip(items, outs):
            branch, targets = BRANCHES[tuple(sorted(out.signatures))]
            tracer.count(f"classify.branch.{branch}")
            if not targets:
                continue
            sess = eval_probe(tracer, cat, s, closure(cat, targets))
            if branch in ("T_V", "Vpp_W"):
                with tracer.root("probe.composite"):
                    if branch == "T_V":
                        sess.vector_V()
                    else:
                        sess.vector_Vpp()
                        sess.vector_W()


class Invariants:
    """Random states with amplitudes p/q, |p| <= 3, 1 <= q <= 3."""

    name = "invariants"
    ROUND = 50
    min_items = 200

    def __init__(self, seed: int, nproc: int):
        self.seed = seed

    def round_items(self, r: int) -> list:
        rng = _rng("invariants", self.seed, r)
        items = []
        while len(items) < self.ROUND:
            amps = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(16)]
            if any(amps):
                items.append(qstate.State(amps))
        return items

    def op(self, s):
        return inv_mod.all_invariants(s, pairs=True)

    def ops_in(self, s) -> int:
        return 1

    def check(self, s, out) -> int:
        ok = (
            out["N"] == -out["L"] - out["M"]
            and out["Delta"] == inv_mod.hyperdet_delta(s) == inv_mod.delta_via_sextic(s)
        )
        return int(not ok)

    def canonical(self, s, out):
        return {k: format_rational(v) for k, v in out.items()}

    def traced_items(self) -> list:
        rng = _rng("invariants", self.seed, "traced")
        return [qstate.apply_local(_twist(rng), s) for s in self.round_items(0)]

    def probes(self, tracer, items, outs):
        """Cold evaluation of the closure of L_6000, the sextic behind I2."""
        cat = build_catalog()
        ids = closure(cat, [CovariantId.parse("L_6000")])
        for s in items:
            eval_probe(tracer, cat, s, ids)


WORKLOADS = {w.name: w for w in (Census, Classify, Invariants)}
