"""Command-line surface.

Commands: classify, invariants, eval, atlas, verify, graph.  All output
is JSON (or DOT for graphs) and deterministic in exact mode.  Exit codes:
0 success, 1 usage or input error (also any float-mode value past the
float range: every ``OverflowError`` prints ``FLOAT_OVERFLOW``), 2 FAIL
(the state is outside the algorithm's domain, or a float-mode signature
matches no golden row), 3 internal integrity failure (an exact golden
table mismatch, which indicates a broken catalog rather than bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .atlas import (
    BASES,
    adherence_order,
    discover_classes,
    enumerate_forms,
    export_graph,
    verify_tables,
)
from .catalog import CatalogError, CovariantId, build_catalog
from .classify import ClassifyFail, IntegrityError, classify
from .invariants import Generators, all_invariants, hyperdet_delta
from .qstate import _FLOAT_GAUSSIAN, State, StateError, check_nonzero, decode_form
from .scalars import GaussianRational, format_rational

EXIT_OK, EXIT_INPUT, EXIT_FAIL, EXIT_INTEGRITY = 0, 1, 2, 3
# The wording of every OverflowError: exact values never become floats, so
# only a float-mode value past the float range raises one.
FLOAT_OVERFLOW = "float mode: a value is past the float range (about 1.8e308)"


def _read_state(args) -> State:
    if args.form is not None:
        s = decode_form(args.form)
    elif args.infile is not None:
        s = State.from_json(Path(args.infile).read_text())
    else:
        s = State.from_json(sys.stdin.read())
    if getattr(args, "mode", "exact") == "float":
        s = State(tuple(_to_float(a) for a in s.amps))
    return check_nonzero(s)


def _to_float(a):
    if isinstance(a, GaussianRational):
        raise StateError(_FLOAT_GAUSSIAN)
    return float(a)


def _fmt_scalar(v) -> str:
    if isinstance(v, GaussianRational):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return format_rational(v)


def cmd_classify(args) -> int:
    s = _read_state(args)
    result = classify(s, extended=args.extended)
    g = Generators(s)  # printed beside the result, without I2 (it needs L_6000)
    inv = {"B": g.B, "L": g.L, "M": g.M, "Dxy": g.Dxy, "Delta": hyperdet_delta(s), "Z": g.Z}
    print(json.dumps(result.to_dict({k: _fmt_scalar(v) for k, v in inv.items()}), sort_keys=True))
    return EXIT_OK


def cmd_invariants(args) -> int:
    s = _read_state(args)
    inv = all_invariants(s, pairs=args.pairs)
    print(json.dumps({k: _fmt_scalar(v) for k, v in inv.items()}, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    s = _read_state(args)
    cat = build_catalog()
    try:
        cid = CovariantId.parse(args.covariant)
    except CatalogError as e:
        raise ValueError(str(e)) from e
    if cid not in cat:
        raise ValueError(f"unknown covariant id {cid}")
    p = cat.eval_covariant(cid, s)
    doc = {
        "covariant": str(cid),
        "value": str(p),
        "is_zero": p.is_zero(),
        "multidegree": None if p.is_zero() else list(cid.multidegree),
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _discovery(which, args):
    forms = enumerate_forms(which)
    table = discover_classes(forms, basis=args.basis, processes=args.processes)
    return forms, table


def cmd_atlas(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    forms, table = _discovery(args.variety, args)
    reps = sorted(table.representatives.values())
    classes_doc = {
        "variety": args.variety,
        "form_count": len(forms),
        "class_count": len(table.classes),
        "classes": [
            {
                "representative": table.representatives[sig],
                "size": len(members),
                "signature": "".join(map(str, sig)),
            }
            for sig, members in sorted(
                table.classes.items(), key=lambda kv: table.representatives[kv[0]]
            )
        ],
    }
    (out / f"{args.variety}_classes.json").write_text(
        json.dumps(classes_doc, indent=1) + "\n"
    )
    graph = adherence_order(table)
    (out / f"{args.variety}_graph.dot").write_text(export_graph(graph, "dot"))
    (out / f"{args.variety}_graph.json").write_text(export_graph(graph, "json"))
    print(f"{len(forms)} forms, {len(table.classes)} classes")
    print(f"representatives: {reps}")
    print(f"wrote {out}/{args.variety}_classes.json and graphs")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_tables()
    text = str(report)
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "verify_report.txt").write_text(text + "\n")
    return EXIT_OK if report.ok else EXIT_INTEGRITY


def cmd_graph(args) -> int:
    forms, table = _discovery(args.variety, args)
    graph = adherence_order(table, drop_caveats=args.drop_caveats)
    text = export_graph(graph, "dot" if args.dot else "json")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _add_state_args(p):
    p.add_argument("--form", type=int, help="integer name of a {0,1} form (0..65535)")
    p.add_argument("--in", dest="infile", help="JSON state file")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="entatlas",
        description="Exact entanglement-class atlas for 4-qubit states "
        "(amplitude index convention: b = i1 + 2*i2 + 4*i3 + 8*i4)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="name the orbit of a state")
    _add_state_args(p)
    p.add_argument("--extended", action="store_true",
                   help="refine the generic secant branch with Z (extended atlas)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("invariants", help="print all scalar invariants")
    _add_state_args(p)
    p.add_argument("--pairs", action="store_true", help="include all D_uv pair invariants")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("eval", help="evaluate one catalog covariant")
    _add_state_args(p)
    p.add_argument("--covariant", required=True, help="catalog id, e.g. L_6000 or F1_2220")
    p.set_defaults(fn=cmd_eval)

    for name, help_text in (
        ("atlas", "enumerate forms, discover classes, write graphs"),
        ("graph", "export an adherence graph"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("variety", choices=("nullcone", "secant3"))
        p.add_argument("--basis", default="extended", choices=BASES)
        p.add_argument("--processes", type=int, default=None,
                       help="worker count, at most the usable cores (default: all)")
        if name == "atlas":
            p.add_argument("--out", default="atlas-out")
            p.set_defaults(fn=cmd_atlas)
        else:
            p.add_argument("--dot", action="store_true", help="DOT output (default JSON)")
            p.add_argument("--drop-caveats", action="store_true",
                           help="remove adherence-only relations before reduction")
            p.add_argument("--out", default=None)
            p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("verify", help="recompute and diff every golden table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    # An exact value, or an amplitude read from JSON, may have more digits
    # than CPython's cap on int <-> str conversion (4300 by default from
    # 3.10.7 on).  The cap is lifted while a command runs and restored on
    # return, so a caller's own setting is kept.
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def _run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (StateError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError:
        print(f"error: {FLOAT_OVERFLOW}", file=sys.stderr)
        return EXIT_INPUT
    except ClassifyFail as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (IntegrityError, CatalogError) as e:
        print(f"integrity error: {e}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
