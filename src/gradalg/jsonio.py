"""JSON codecs for the public object types.

Output is deterministic: keys are sorted, indentation is fixed, and
integers whose magnitude exceeds 2^53 - 1 are emitted as decimal strings
so consumers that read JSON numbers as doubles cannot silently lose
precision.  Parsers accept both spellings everywhere an integer appears.
"""

from __future__ import annotations

import json

from .cyclo import cyclo_field
from .errors import ParseError, ValidationError
from .groups import Subgroup, from_table
from .cocycles import ExpCocycle, is_cocycle
from .twisted import TwistedGroupAlgebra
from .matalg import GradedMatrixAlgebra, LambdaWitness
from .embed import MatrixEmbedWitness, TgaEmbedWitness

_INT_LIMIT = 2**53 - 1


def encode_int(v):
    v = int(v)
    return v if -_INT_LIMIT <= v <= _INT_LIMIT else str(v)


def decode_int(v, what="integer"):
    if isinstance(v, bool):
        raise ValidationError(f"{what}: expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            raise ValidationError(f"{what}: {v!r} is not a decimal integer") from None
    raise ValidationError(f"{what}: expected an integer, got {type(v).__name__}")


def dumps(obj):
    """Canonical text form; byte-identical for equal inputs."""
    return json.dumps(obj, sort_keys=True, indent=2)


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _expect(obj, what):
    if not isinstance(obj, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    return obj


def _field(obj, key, what):
    if key not in obj:
        raise ValidationError(f"{what}: missing required key {key!r}")
    return obj[key]


def _int_matrix(mat, what, n=None):
    """The entries of a square JSON matrix of integers, n x n if n is given."""
    if not isinstance(mat, list) or any(not isinstance(row, list) for row in mat):
        raise ValidationError(f"{what} must be a list of rows")
    n = len(mat) if n is None else n
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValidationError(f"{what} must be a square matrix of side {n}")
    return [[decode_int(v, f"{what} entry") for v in row] for row in mat]


# -- groups -------------------------------------------------------------------


def group_to_json(G):
    return {
        "name": G.name,
        "order": G.order,
        "labels": list(G.labels),
        "table": [list(row) for row in G.mul_table],
    }


def parse_group(obj):
    obj = _expect(obj, "group")
    rows = _int_matrix(_field(obj, "table", "group"), "group: table")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or not all(isinstance(x, str) for x in labels)):
        raise ValidationError("group: labels must be a list of strings")
    name = obj.get("name", "G")
    return from_table(rows, name=name, labels=labels)


def _resolve_group(ref, groups, what):
    if isinstance(ref, str):
        if groups is None or ref not in groups:
            raise ValidationError(f"{what}: unknown group reference {ref!r}")
        return groups[ref]
    return parse_group(ref)


def _parse_subgroup(G, members, what):
    if not isinstance(members, list):
        raise ValidationError(f"{what}: subgroup must be a list of element ids")
    return Subgroup(G, [decode_int(m, f"{what} member") for m in members])


# -- cocycles -----------------------------------------------------------------


def _exponents_to_json(sig):
    """The modulus and exponent matrix of a cocycle."""
    return {
        "modulus": encode_int(sig.modulus),
        "exponents": [[encode_int(v) for v in row] for row in sig.mat.tolist()],
    }


def _parse_exponents(obj, H, what):
    """The cocycle on H with the modulus and exponent matrix in obj."""
    modulus = decode_int(_field(obj, "modulus", what), f"{what} modulus")
    rows = _int_matrix(_field(obj, "exponents", what), f"{what}: exponents", H.order)
    return ExpCocycle(H, modulus, rows)


def cocycle_to_json(sig, group_ref=None):
    out = {"subgroup": list(sig.domain.members), **_exponents_to_json(sig)}
    out["group"] = group_ref if group_ref is not None else group_to_json(sig.domain.parent)
    return out


def parse_cocycle(obj, groups=None):
    """Exponent cocycle from JSON; the cocycle identity is not enforced here
    so invalid tables can still be loaded and checked."""
    obj = _expect(obj, "cocycle")
    G = _resolve_group(_field(obj, "group", "cocycle"), groups, "cocycle")
    H = _parse_subgroup(G, _field(obj, "subgroup", "cocycle"), "cocycle")
    return _parse_exponents(obj, H, "cocycle")


def expfunction_to_json(f):
    return {
        "subgroup": list(f.domain.members),
        "modulus": encode_int(f.modulus),
        "values": [encode_int(v) for v in f.vec.tolist()],
    }


def h2_to_json(desc):
    return {
        "group": desc.group.name,
        "group_order": desc.group.order,
        "order": encode_int(desc.order),
        "base_modulus": encode_int(desc.base_modulus),
        "working_modulus": encode_int(desc.working_modulus),
        "invariant_factors": [encode_int(v) for v in desc.invariant_factors],
        "representatives": [_exponents_to_json(rep) for rep in desc.representatives],
    }


# -- scalars and algebras ------------------------------------------------------


def cyclo_to_json(c):
    return {
        "M": c.field.modulus,
        "coeffs": [[encode_int(q.numerator), encode_int(q.denominator)]
                   for q in c.coeffs],
    }


def algebra_to_json(A, group_ref=None):
    if isinstance(A, GradedMatrixAlgebra):
        out = algebra_to_json(A.base, group_ref)
        out["kind"] = "matrix"
        out["k"] = A.k
        out["theta"] = list(A.theta)
        return out
    if isinstance(A, TwistedGroupAlgebra):
        return {
            "kind": "twisted",
            "group": group_ref if group_ref is not None else group_to_json(A.ambient),
            "subgroup": list(A.subgroup.members),
            "cocycle": _exponents_to_json(A.sigma),
            "field": A.field.modulus,
        }
    raise TypeError(f"not a graded algebra: {type(A).__name__}")


def parse_algebra(obj, groups=None):
    obj = _expect(obj, "algebra")
    kind = _field(obj, "kind", "algebra")
    if kind not in ("twisted", "matrix"):
        raise ValidationError(f"algebra: unknown kind {kind!r}")
    G = _resolve_group(_field(obj, "group", "algebra"), groups, "algebra")
    H = _parse_subgroup(G, _field(obj, "subgroup", "algebra"), "algebra")
    cfg = _expect(_field(obj, "cocycle", "algebra"), "algebra cocycle")
    sigma = _parse_exponents(cfg, H, "algebra cocycle")
    field = cyclo_field(decode_int(_field(obj, "field", "algebra"), "field modulus"))
    base = TwistedGroupAlgebra(H, sigma, field)
    if kind == "twisted":
        return base
    theta = _field(obj, "theta", "algebra")
    if not isinstance(theta, list):
        raise ValidationError("algebra: theta must be a list")
    A = GradedMatrixAlgebra(base, [decode_int(t, "theta entry") for t in theta])
    if "k" in obj and decode_int(obj["k"], "algebra k") != A.k:
        raise ValidationError("algebra: k does not match the theta length")
    return A


# -- polynomials and identity spaces -------------------------------------------


def poly_to_json(poly):
    return {
        "degs": [encode_int(g) for g in poly.assignment.degs],
        "field": poly.field.modulus,
        "coeffs": [
            {"perm": list(perm), "c": cyclo_to_json(c)}
            for perm, c in sorted(poly.coeffs.items())
        ],
    }


def space_to_json(space):
    return {
        "assignment": [encode_int(g) for g in space.assignment.degs],
        "dimension": space.dimension,
        "basis": [poly_to_json(p) for p in space.basis],
    }


# -- reports --------------------------------------------------------------------


def witness_to_json(w):
    if w is None:
        return None
    if isinstance(w, TgaEmbedWitness):
        return {"type": "twisted", "f": expfunction_to_json(w.f)}
    if isinstance(w, MatrixEmbedWitness):
        return {
            "type": "matrix",
            "f": expfunction_to_json(w.tga.f),
            "delta": w.delta,
            "alpha": list(w.alpha),
            "xis": list(w.xis),
        }
    if isinstance(w, LambdaWitness):
        return {
            "type": "lambda",
            "delta": w.delta,
            "alpha": list(w.alpha),
            "xis": list(w.xis),
        }
    if isinstance(w, tuple):
        return {"type": "product", "components": [witness_to_json(x) for x in w]}
    raise TypeError(f"not a witness: {type(w).__name__}")


def report_to_json(rep):
    return {
        "verdict": "yes" if rep.verdict else "no",
        "verified": rep.verified,
        "reasons": list(rep.reasons),
        "notes": list(rep.notes),
        "assignment": list(rep.assignment) if rep.assignment is not None else None,
        "witness": witness_to_json(rep.witness),
    }


def containment_to_json(rep):
    return {
        "n_max": rep.n_max,
        "contained": rep.contained,
        "assignments": [
            {
                "degs": list(v.degs),
                "contained": v.contained,
                "dim_source": v.dim_source,
                "dim_target": v.dim_target,
                "separating": poly_to_json(v.separating) if v.separating else None,
                "witness_substitution": (
                    [list(k) if isinstance(k, tuple) else k
                     for k in v.witness_substitution]
                    if v.witness_substitution is not None else None),
            }
            for v in rep.verdicts
        ],
        "skipped": [list(d) for d in rep.skipped],
    }


def tower_to_json(rep):
    return {
        "subgroups": [list(H.members) for H in rep.subgroups],
        "cocycles": [
            {"subgroup": list(c.domain.members), **_exponents_to_json(c)}
            for c in rep.cocycles
        ],
        "steps": [report_to_json(s) for s in rep.steps],
        "squares": [
            {
                "top": report_to_json(sq.top),
                "left": report_to_json(sq.left),
                "right": report_to_json(sq.right),
                "bottom": report_to_json(sq.bottom),
                "commutes": sq.commutes,
            }
            for sq in rep.squares
        ],
    }


# -- workspaces ------------------------------------------------------------------


class Workspace:
    """Named groups, cocycles, and algebras."""

    def __init__(self, groups=None, cocycles=None, algebras=None):
        self.groups = dict(groups or {})
        self.cocycles = dict(cocycles or {})
        self.algebras = dict(algebras or {})


def parse_workspace(text):
    """Workspace from JSON text.  Unknown keys and dangling group references
    fail, and cocycles are re-validated."""
    raw = loads(text) if isinstance(text, str) else text
    raw = _expect(raw, "workspace")
    known = {"groups", "cocycles", "algebras"}
    bad = sorted(set(raw) - known)
    if bad:
        raise ValidationError(f"workspace: unknown keys {bad}")
    groups = {}
    for name, obj in _expect(raw.get("groups", {}), "workspace groups").items():
        groups[name] = parse_group(obj)
    cocycles = {}
    for name, obj in _expect(raw.get("cocycles", {}), "workspace cocycles").items():
        sig = parse_cocycle(obj, groups)
        if not is_cocycle(sig):
            raise ValidationError(f"workspace cocycle {name!r} fails the cocycle identity")
        cocycles[name] = sig
    algebras = {}
    for name, obj in _expect(raw.get("algebras", {}), "workspace algebras").items():
        algebras[name] = parse_algebra(obj, groups)
    return Workspace(groups=groups, cocycles=cocycles, algebras=algebras)
