"""Command-line front end.

Deterministic JSON on stdout (sorted keys, stable list order), diagnostics
on stderr.  Exit codes: 0 yes/success, 3 no-verdict, 2 bad input or unmet
hypothesis, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from . import jsonio
from .catalog import run_all
from .cocycles import (
    class_order,
    classes_equivalent,
    extend_class,
    h2_over_Fstar,
    is_cocycle,
    restrict,
)
from .config import DEFAULT_ORDER_CAP, load_config
from .embed import (
    as_matrix_algebra,
    build_tower,
    matrix_embed,
    matrix_iso,
    product_embed,
    twisted_embed,
    twisted_iso,
)
from .errors import ExtensionFailed, GradalgError, HypothesisError, UsageError, ValidationError
from .groups import Subgroup, parse_spec
from .identities import DegreeAssignment, identity_space, multilinear_containment
from .matalg import lambda_membership
from .twisted import TwistedGroupAlgebra

def _read_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None


def _ws_lookup(ws, section, name, what):
    if ws is None:
        raise UsageError(f"{what} 'ws:{name}' needs --workspace")
    table = getattr(ws, section)
    if name not in table:
        raise UsageError(f"workspace has no {what} named {name!r}")
    return table[name]


def parse_group_spec(spec, ws=None, order_cap=DEFAULT_ORDER_CAP):
    """A group from 'C4', 'C2xC2', 'D4', 'Q8', 'S3', 'table:@file.json',
    or 'ws:name' against a loaded workspace."""
    if spec.startswith("ws:"):
        return _ws_lookup(ws, "groups", spec[3:], "group")
    if spec.startswith("table:@"):
        return jsonio.parse_group(jsonio.loads(_read_file(spec[len("table:@"):])), order_cap)
    return parse_spec(spec, order_cap=order_cap)


def _load_cocycle(value, ws, cfg):
    if value.startswith("ws:"):
        return _ws_lookup(ws, "cocycles", value[3:], "cocycle")
    groups = ws.groups if ws is not None else None
    return jsonio.parse_cocycle(jsonio.loads(_read_file(value)), groups, cfg.order_cap)


def _load_algebra(value, ws, cfg):
    if value.startswith("ws:"):
        return _ws_lookup(ws, "algebras", value[3:], "algebra")
    groups = ws.groups if ws is not None else None
    return jsonio.parse_algebra(jsonio.loads(_read_file(value)), groups, cfg.order_cap)


def _ints(text, what):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not re.fullmatch(r"-?\d+", tok or ""):
            raise UsageError(f"{what}: {tok!r} is not an integer")
        out.append(int(tok))
    return out


def _require_twisted(A, what):
    if not isinstance(A, TwistedGroupAlgebra):
        raise ValidationError(f"{what} needs a twisted-kind algebra")
    return A


def _emit(obj):
    sys.stdout.write(jsonio.dumps(obj) + "\n")


def _report_exit(rep):
    _emit(jsonio.report_to_json(rep))
    return 0 if rep.verdict else 3


# -- handlers -----------------------------------------------------------------


def _cmd_group(args, cfg, ws):
    G = parse_group_spec(args.group, ws, cfg.order_cap)
    _emit(jsonio.group_to_json(G))
    return 0


def _cmd_h2(args, cfg, ws):
    G = parse_group_spec(args.group, ws, cfg.order_cap)
    _emit(jsonio.h2_to_json(h2_over_Fstar(G)))
    return 0


def _cmd_cocycle(args, cfg, ws):
    if args.action == "check":
        sig = _load_cocycle(args.cocycle, ws, cfg)
        ok = is_cocycle(sig)
        _emit({"is_cocycle": ok})
        return 0 if ok else 3
    if args.action == "equiv":
        a = _load_cocycle(args.a, ws, cfg)
        b = _load_cocycle(args.b, ws, cfg)
        f = classes_equivalent(a, b)
        if f is None:
            _emit({"equivalent": False})
            return 3
        _emit({"equivalent": True, "witness": jsonio.expfunction_to_json(f)})
        return 0
    if args.action == "restrict":
        sig = _load_cocycle(args.cocycle, ws, cfg)
        H = Subgroup(sig.domain.parent, _ints(args.subgroup, "--subgroup"))
        _emit(jsonio.cocycle_to_json(restrict(sig, H)))
        return 0
    if args.action == "extend":
        sig = _load_cocycle(args.cocycle, ws, cfg)
        ext = extend_class(sig, sig.domain.parent)
        if ext is None:
            _emit({"extends": False})
            return 3
        _emit(jsonio.cocycle_to_json(ext))
        return 0
    sig = _load_cocycle(args.cocycle, ws, cfg)
    _emit({"class_order": class_order(sig)})
    return 0


def _cmd_embed(args, cfg, ws):
    if args.action == "product":
        sources = [_load_algebra(v, ws, cfg) for v in args.sources.split(",")]
        targets = [_load_algebra(v, ws, cfg) for v in args.targets.split(",")]
        return _report_exit(product_embed(sources, targets))
    A = _load_algebra(args.a, ws, cfg)
    B = _load_algebra(args.b, ws, cfg)
    if args.action == "tga":
        rep = twisted_embed(_require_twisted(A, "embed tga"),
                            _require_twisted(B, "embed tga"))
    else:
        rep = matrix_embed(as_matrix_algebra(A), as_matrix_algebra(B))
    return _report_exit(rep)


def _cmd_iso(args, cfg, ws):
    A = _load_algebra(args.a, ws, cfg)
    B = _load_algebra(args.b, ws, cfg)
    if args.action == "tga":
        rep = twisted_iso(_require_twisted(A, "iso tga"),
                          _require_twisted(B, "iso tga"))
    else:
        rep = matrix_iso(as_matrix_algebra(A), as_matrix_algebra(B))
    return _report_exit(rep)


def _cmd_lambda(args, cfg, ws):
    A = as_matrix_algebra(_load_algebra(args.algebra, ws, cfg))
    target = tuple(_ints(args.target, "--target"))
    w = lambda_membership(target, A)
    if w is None:
        _emit({"member": False})
        return 3
    _emit({"member": True, "witness": jsonio.witness_to_json(w)})
    return 0


def _cmd_pi(args, cfg, ws):
    if args.action == "space":
        A = _load_algebra(args.algebra, ws, cfg)
        degs = DegreeAssignment(_ints(args.degs, "--degs"))
        _emit(jsonio.space_to_json(identity_space(A, degs, cfg)))
        return 0
    A = _load_algebra(args.a, ws, cfg)
    B = _load_algebra(args.b, ws, cfg)
    rep = multilinear_containment(A, B, args.nmax, cfg)
    _emit(jsonio.containment_to_json(rep))
    return 0 if rep.contained else 3


def _cmd_tower(args, cfg, ws):
    B = _require_twisted(_load_algebra(args.algebra, ws, cfg), "tower")
    chain = [Subgroup(B.ambient, _ints(part, "--chain"))
             for part in args.chain.split(";")]
    try:
        rep = build_tower(B, chain, k=args.k, t=args.t)
    except ExtensionFailed as e:
        _emit({"built": False, "reason": str(e)})
        return 3
    _emit(jsonio.tower_to_json(rep))
    return 0


def _cmd_sweep(args, cfg, ws):
    numbers = _ints(args.only, "--only") if args.only else None
    results = run_all(numbers)
    for r in results:
        sys.stdout.write(r.line() + "\n")
        sys.stdout.write(f"    {r.detail}\n")
    return 0 if all(r.passed for r in results) else 3


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser, and every subparser it makes, that takes flags only as
    spelled: an abbreviation such as --deg for --degs is a usage error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _parser():
    top = _Parser(
        prog="gradalg",
        description="graded algebra embeddings, cohomology, and identities")
    top.add_argument("--workspace", metavar="FILE",
                     help="JSON workspace; ws:NAME references resolve against it")
    top.add_argument("--config", metavar="FILE",
                     help="config JSON (default: the GRADALG_CONFIG file, if set)")
    top.add_argument("--order-cap", type=int, metavar="N",
                     help="largest accepted group order")
    top.add_argument("--budget", type=int, metavar="W",
                     help="work budget for identity-space sweeps")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="build and print a group")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("h2", help="second cohomology over the multiplicative group")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_h2)

    p = sub.add_parser("cocycle", help="cocycle table operations")
    act = p.add_subparsers(dest="action", required=True)
    q = act.add_parser("check")
    q.add_argument("--cocycle", required=True)
    q = act.add_parser("equiv")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q = act.add_parser("restrict")
    q.add_argument("--cocycle", required=True)
    q.add_argument("--subgroup", required=True, metavar="IDS")
    q = act.add_parser("extend")
    q.add_argument("--cocycle", required=True)
    q = act.add_parser("order")
    q.add_argument("--cocycle", required=True)
    p.set_defaults(handler=_cmd_cocycle)

    p = sub.add_parser("embed", help="graded embedding decisions")
    act = p.add_subparsers(dest="action", required=True)
    for name in ("tga", "matrix"):
        q = act.add_parser(name)
        q.add_argument("--a", required=True)
        q.add_argument("--b", required=True)
    q = act.add_parser("product")
    q.add_argument("--sources", required=True, metavar="FILES")
    q.add_argument("--targets", required=True, metavar="FILES")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("iso", help="graded isomorphism decisions")
    act = p.add_subparsers(dest="action", required=True)
    for name in ("tga", "matrix"):
        q = act.add_parser(name)
        q.add_argument("--a", required=True)
        q.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("lambda", help="regrading-orbit membership")
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", required=True, metavar="IDS")
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("pi", help="multilinear graded identities")
    act = p.add_subparsers(dest="action", required=True)
    q = act.add_parser("space")
    q.add_argument("--algebra", required=True)
    q.add_argument("--degs", required=True, metavar="IDS")
    q = act.add_parser("contain")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--nmax", type=int, default=3)
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("tower", help="iterated central extensions with corner squares")
    p.add_argument("--algebra", required=True)
    p.add_argument("--chain", required=True, metavar="IDS;IDS;...")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(handler=_cmd_tower)

    p = sub.add_parser("sweep", help="run the acceptance battery")
    p.add_argument("--only", metavar="NUMS", help="comma-separated criterion numbers")
    p.set_defaults(handler=_cmd_sweep)

    return top


# the flags that take element ids; argparse reads a value such as "-1,2" as
# an option, so main joins it to its flag ("--degs=-1,2") before parsing
_IDS_FLAGS = ("--degs", "--target", "--subgroup", "--chain")


def _join_ids(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _IDS_FLAGS and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _make_config(args):
    cfg = load_config(args.config)
    over = {}
    if args.order_cap is not None:
        over["order_cap"] = args.order_cap
    if args.budget is not None:
        over["work_budget"] = args.budget
    return dataclasses.replace(cfg, **over)


def main(argv=None):
    try:
        args = _parser().parse_args(_join_ids(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        cfg = _make_config(args)
        ws = None
        if args.workspace:
            ws = jsonio.parse_workspace(_read_file(args.workspace), cfg.order_cap)
        return args.handler(args, cfg, ws)
    except (ValidationError, HypothesisError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GradalgError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
