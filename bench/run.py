"""Benchmark of entatlas: census, classify and invariants workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout; nothing needs
building.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run (its spans are
written to ``bench/out/``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/NOTES.md`` for the workloads, the metrics and what each later
change is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

_clock = time.perf_counter

# Runs in a fresh interpreter: the set-up a user of the library pays once.
_SETUP = """
import sys, time
t0 = time.perf_counter()
import entatlas
from entatlas.classify import GOLDEN
entatlas.build_catalog()
GOLDEN.tables, GOLDEN.orbits, GOLDEN.perm_types
elapsed = time.perf_counter() - t0
if not entatlas.__file__.startswith(sys.argv[1]):
    sys.exit("entatlas was imported from outside the checkout")
print(repr(elapsed))
"""
SETUP_REPEATS = 9

MAX_DEGREE = 12


def _import_program():
    if not (SRC / "entatlas" / "__init__.py").is_file():
        sys.exit(f"error: no entatlas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entatlas

    if not entatlas.__file__.startswith(str(SRC)):
        sys.exit(f"error: entatlas was imported from {entatlas.__file__}, not {SRC}")


def setup_seconds() -> float:
    """Median over fresh processes of import + build_catalog + golden tables."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP, str(SRC)],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        values.append(float(done.stdout))
    return statistics.median(values)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024


def sha256_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def quantile(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with the weights of a
    Beta(p(n+1), (1-p)(n+1)) distribution over the ranks, integrated by the
    midpoint rule.  Unlike a single order statistic it does not jump when
    states with far-apart latencies swap ranks, which a heavy tail makes
    common near the p95.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logs = []
    for i in range(n * steps):
        x = (i + 0.5) / (n * steps)
        logs.append(a * math.log(x) + b * math.log1p(-x))
    top = max(logs)
    weights = [0.0] * n
    for i, lw in enumerate(logs):
        weights[i // steps] += math.exp(lw - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class Tally:
    """Operations attempted and failed, and the timed wall clock."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.latencies = []

    def run(self, item, timed):
        """Run one operation through ``timed`` (which returns (output,
        seconds)) and check its output; the output or None on an error."""
        try:
            out, seconds = timed(item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out, seconds = None, None
        n = self.w.ops_in(item)
        self.attempted += n
        if out is None:
            self.failed += n
            return None
        self.wall += seconds
        self.latencies.append(seconds)
        bad = self.w.check(item, out)
        if bad:
            print(f"wrong output on {bad} of {n} operations", file=sys.stderr)
        self.failed += bad
        return out

    def canonical(self, items, outs) -> list:
        return [
            None if out is None else self.w.canonical(item, out)
            for item, out in zip(items, outs)
        ]


def _plain(w):
    def timed(item):
        t0 = _clock()
        out = w.op(item)
        return out, _clock() - t0

    return timed


def run_untraced(w, seconds: float):
    """Whole rounds until ``seconds`` have passed and ``w.min_items`` ran."""
    tally = Tally(w)
    timed = _plain(w)
    start = _clock()
    r = done = 0
    while True:
        items = w.round_items(r)
        outs = [tally.run(item, timed) for item in items]
        if r == 0:
            digest = sha256_of(tally.canonical(items, outs))
        r += 1
        done += len(items)
        if _clock() - start >= seconds and done >= w.min_items:
            return tally, digest, r


def end_to_end(tally, setup_s: float, workers: int) -> dict:
    ok = tally.attempted - tally.failed
    lat = tally.latencies or [math.nan]
    return {
        "throughput_ops_per_s": (ok / tally.wall if tally.wall else 0.0, "ops/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "latency_p95_ms": (quantile(lat, 0.95) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
        "correct_share": (ok / tally.attempted, "share"),
    }


def install_tracing(tr):
    """Wrap the public functions of each entatlas module in spans."""
    from entatlas import atlas, invariants, qstate
    from entatlas.catalog import EXTENDED_T_IDS, Catalog, EvalSession
    from workloads import classify_mod as classify

    def inv_D_name(s, pair="xy"):
        return "invariants.inv_D" if pair == "xy" else "invariants.pair_D"

    def signature_name(self, state, cids):
        extended = tuple(cids) == EXTENDED_T_IDS
        return "catalog.signature.extended" if extended else "catalog.signature"

    for mod in (qstate, atlas):
        tr.patch(mod, "decode_form", "qstate.decode_form")
    for mod in (invariants, atlas, classify):
        for name in ("inv_B", "inv_L", "inv_M"):
            tr.patch(mod, name, f"invariants.{name}")
        tr.patch(mod, "inv_D", inv_D_name)
    for mod in (invariants, classify):
        tr.patch(mod, "inv_Z", "invariants.inv_Z")
    for name in ("inv_N", "quartic_coeffs", "inv_I2", "all_invariants"):
        tr.patch(invariants, name, f"invariants.{name}")
    for name in ("secant3_filter", "signatures_for", "discover_classes", "adherence_order"):
        tr.patch(atlas, name, f"atlas.{name}")
    for name in ("classify_secant3_extended", "classify_nullcone"):
        tr.patch(classify, name, f"classify.{name}")
    tr.patch(Catalog, "signature", signature_name)
    for name in ("vector_T", "vector_V", "vector_Vp", "vector_Vpp", "vector_W"):
        tr.patch(Catalog, name, f"catalog.{name}")
    for name in ("vector_V", "vector_Vpp", "vector_W"):
        tr.patch(EvalSession, name, f"catalog.session.{name}")
    for name in ("t_lookup", "v_lookup", "vp_lookup", "vpp_lookup", "w_lookup"):
        tr.patch(type(classify.GOLDEN), name, "classify.golden_lookup")


def run_traced(w, workers: int):
    """Round 0 untraced, then a cost-equal round traced, then the probes."""
    tally = Tally(w)
    items = w.round_items(0)
    outs = [tally.run(item, _plain(w)) for item in items]
    untraced = tally.wall
    want = tally.canonical(items, outs)

    tr = Tracer()
    install_tracing(tr)
    try:
        titems = w.traced_items()

        def timed(item):
            with tr.root("op", op=len(touts)) as span:
                out = w.op(item)
            return out, span.seconds

        touts = []
        for item in titems:
            touts.append(tally.run(item, timed))
        traced = tally.wall - untraced
        got = tally.canonical(titems, touts)
        if sorted(map(json.dumps, got)) != sorted(map(json.dumps, want)):
            print("traced outputs differ from untraced ones", file=sys.stderr)
            tally.failed = tally.attempted
        if None not in touts:
            w.probes(tr, titems, touts)
    finally:
        tr.unpatch()
    OUT.mkdir(parents=True, exist_ok=True)
    tr.dump(OUT / f"trace-{w.name}-{w.seed}.json")
    return tally, sha256_of(want), tr, traced / untraced - 1


def per_layer(tr, workers: int, overhead: float) -> dict:
    ops = tr.summary("op")
    probes = tr.summary("probe")
    counts = tr.counts

    def mean(summary, name, scale):
        calls, total, _ = summary.get(name, (0, 0.0, 0.0))
        return total / calls * scale if calls else 0.0

    def total(summary, name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    evals = probes.get("probe.eval", (0,))[0]
    m = {
        "qstate.decode_form_us": (mean(ops, "qstate.decode_form", 1e6), "us"),
        "atlas.secant3_filter_us": (mean(ops, "atlas.secant3_filter", 1e6), "us"),
        "atlas.filter_pass_ratio": (
            counts["atlas.filter_passed"] / counts["atlas.filter_calls"]
            if counts["atlas.filter_calls"] else 0.0,
            "share",
        ),
    }
    for name in ("inv_B", "inv_L", "inv_M", "inv_D", "pair_D"):
        m[f"invariants.{name}_us"] = (mean(ops, f"invariants.{name}", 1e6), "us")
    m["invariants.quartic_us"] = (mean(ops, "invariants.quartic_coeffs", 1e6), "us")
    m["invariants.I2_ms"] = (mean(ops, "invariants.inv_I2", 1e3), "ms")
    m["catalog.signature_ms"] = (mean(probes, "catalog.signature.extended", 1e3), "ms")
    for d in range(1, MAX_DEGREE + 1):
        self_s = probes.get(f"catalog.eval.deg{d}", (0, 0.0, 0.0))[2]
        m[f"catalog.eval_ms.deg{d}"] = (self_s / evals * 1e3 if evals else 0.0, "ms")
    for d in range(1, MAX_DEGREE + 1):
        m[f"catalog.terms.deg{d}"] = (counts[f"catalog.terms.deg{d}"], "count")
    distinct = sum(1 for k in counts if k.startswith("catalog.covariant."))
    m["catalog.covariants_evaluated"] = (distinct, "count")
    m["catalog.component_eval_ms"] = (mean(probes, "probe.eval", 1e3), "ms")
    m["catalog.composite_ms"] = (mean(probes, "probe.composite", 1e3), "ms")
    m["classify.golden_lookup_us"] = (mean(ops, "classify.golden_lookup", 1e6), "us")
    for branch in ("T_V", "Vpp_W", "Vp_Z", "B_Dxy"):
        m[f"classify.branch.{branch}"] = (counts[f"classify.branch.{branch}"], "count")
    pool = total(ops, "atlas.signatures_for")
    m["atlas.signatures_for_s"] = (mean(ops, "atlas.signatures_for", 1), "s")
    m["atlas.pool_efficiency"] = (
        total(probes, "probe.serial") / (workers * pool) if pool else 0.0, "share"
    )
    m["atlas.adherence_ms"] = (mean(ops, "atlas.adherence_order", 1e3), "ms")
    m["trace.overhead_share"] = (overhead, "share")
    return m


def print_self_times(tr):
    print("span                                  calls    total_ms     self_ms")
    for scope in ("op", "probe"):
        for name, (calls, total, self_s) in sorted(tr.summary(scope).items()):
            print(f"{scope:>5} {name:<32} {calls:6d} {total * 1e3:11.1f} {self_s * 1e3:11.1f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("census", "classify", "invariants"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, prepare

    prepare()
    workers = len(os.sched_getaffinity(0))
    pool_workers = workers if args.workload == "census" else 0
    if args.trace:
        w = WORKLOADS[args.workload](args.seed, workers)
        tally, digest, tr, overhead = run_traced(w, workers)
        metrics = per_layer(tr, workers, overhead)
        print_self_times(tr)
    else:
        setup_s = setup_seconds()
        w = WORKLOADS[args.workload](args.seed, workers)
        tally, digest, rounds = run_untraced(w, args.seconds)
        metrics = end_to_end(tally, setup_s, pool_workers)
        print(f"{rounds} rounds, {len(tally.latencies)} timed operations")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:14.6g} {unit}")
    print(f"{'failed_share':<32} {tally.failed / tally.attempted:14.6g} share")
    print(f"digest {args.workload} seed {args.seed} sha256 {digest}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
