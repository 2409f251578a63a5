"""End-to-end command-line tests, run in process through gradalg.cli.main.

Exit code contract: 0 success / yes, 3 clean no-verdict, 2 bad input or
unmet hypothesis, 1 internal error.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gradalg
from gradalg import embed, jsonio
from gradalg.catalog import catalog_group, klein_sign_cocycle
from gradalg.cli import main, parse_group_spec
from gradalg.cocycles import ExpCocycle, ExpFunction, coboundary_from, trivial_cocycle
from gradalg.errors import OrderCapExceeded, SpecMalformed
from gradalg.groups import Subgroup, cyclic, parse_spec, product
from gradalg.matalg import GradedMatrixAlgebra
from gradalg.twisted import TwistedGroupAlgebra


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """On-disk JSON inputs shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    klein = catalog_group("C2xC2")
    full = klein.full_subgroup()
    sign = klein_sign_cocycle(full)
    line = Subgroup(klein, [0, 1])

    plain = TwistedGroupAlgebra(full, trivial_cocycle(full, 2))
    signed = TwistedGroupAlgebra(full, sign)
    line_alg = TwistedGroupAlgebra(line, trivial_cocycle(line, 2))

    # same class as sign, shifted by the coboundary of f = [0,1,1,0]
    shifted = ExpCocycle(
        full, 2,
        (sign.mat + coboundary_from(ExpFunction(full, 2, [0, 1, 1, 0])).mat) % 2)

    broken = jsonio.cocycle_to_json(trivial_cocycle(full, 2))
    broken["exponents"][1][2] = 1

    g8 = product(cyclic(2), cyclic(2), cyclic(2))
    v4_in_g8 = Subgroup(g8, (0, 1, 2, 3))
    g16 = parse_spec("C2xC2xC2xC2")
    v4_in_g16 = Subgroup(g16, (0, 1, 2, 3))
    c2c4 = product(cyclic(2), cyclic(4))
    v4_in_c2c4 = Subgroup(c2c4, (0, 2, 4, 6))

    s3 = catalog_group("S3")
    a3 = Subgroup(s3, [0, 3, 4])

    objects = {
        "plain": jsonio.algebra_to_json(plain),
        "signed": jsonio.algebra_to_json(signed),
        "line": jsonio.algebra_to_json(line_alg),
        "mat1": jsonio.algebra_to_json(GradedMatrixAlgebra(signed, (0,))),
        "mat2": jsonio.algebra_to_json(GradedMatrixAlgebra(signed, (0, 3))),
        "mat_s3": jsonio.algebra_to_json(
            GradedMatrixAlgebra(TwistedGroupAlgebra(a3, trivial_cocycle(a3, 2)), (0, 3))),
        "sig": jsonio.cocycle_to_json(sign),
        "sig_shifted": jsonio.cocycle_to_json(shifted),
        "triv": jsonio.cocycle_to_json(trivial_cocycle(full, 2)),
        "broken": broken,
        "ext_ok": jsonio.cocycle_to_json(trivial_cocycle(line, 2)),
        "ext_fail": jsonio.cocycle_to_json(klein_sign_cocycle(v4_in_c2c4)),
        "tower_ok": jsonio.algebra_to_json(
            TwistedGroupAlgebra(v4_in_g8, klein_sign_cocycle(v4_in_g8))),
        "tower_c2_4": jsonio.algebra_to_json(
            TwistedGroupAlgebra(v4_in_g16, klein_sign_cocycle(v4_in_g16))),
        "tower_fail": jsonio.algebra_to_json(
            TwistedGroupAlgebra(v4_in_c2c4, klein_sign_cocycle(v4_in_c2c4))),
        "klein_table": jsonio.group_to_json(klein),
        "ws": {
            "groups": {"K": jsonio.group_to_json(klein)},
            "cocycles": {"sig": jsonio.cocycle_to_json(sign, group_ref="K")},
            "algebras": {name: jsonio.algebra_to_json(a, group_ref="K")
                         for name, a in (("plain", plain), ("signed", signed))},
        },
    }
    paths = {}
    for name, obj in objects.items():
        p = root / f"{name}.json"
        p.write_text(jsonio.dumps(obj), encoding="utf-8")
        paths[name] = str(p)
    paths["root"] = str(root)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- group and h2 ----------------------------------------------------------------


def test_group_command_builds_products(capsys):
    code, obj, _ = run_json(capsys, "group", "--group", "C2xC4")
    assert code == 0
    assert obj["order"] == 8
    assert len(obj["table"]) == 8


def test_group_command_reads_table_files(capsys, files):
    code, obj, _ = run_json(capsys, "group", "--group", "table:@" + files["klein_table"])
    assert code == 0
    assert obj["order"] == 4


def test_h2_command(capsys):
    code, obj, _ = run_json(capsys, "h2", "--group", "C2xC2")
    assert code == 0
    assert obj["order"] == 2
    assert obj["invariant_factors"] == [2]


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "h2", "--group", "C4xC4")
    _, second, _ = run(capsys, "h2", "--group", "C4xC4")
    assert first == second


# SHA-256 of the `gradalg h2 --group G` stdout, pinned when the Howell
# elimination still ran over Z/N itself: the canonical form must not move
# when the elimination changes. The ten stdouts concatenated in this order
# hash to fcfa086b2bdaaffff4a87849033b53cce2907ea69a6e11726f55a4fb9090f9f1.
H2_STDOUT_SHA256 = {
    "C2xC2": "a34ef12d43a4009e33155322a38a0fdc2b3643bbef883d2ae27643c96721a261",
    "Q8": "b0d77a8fc80b600613318d2d3f674b44115022dbddf6f477c5b288ba5e2d4d0a",
    "D4": "5acd67542591a1166318916b1b9cdd860517ba34a48f1743fa303832b38e9c33",
    "C4xC4": "392b848b22dcdb8b02414aeef88e87567de94adcce4184b752076848a8bb0577",
    "S4": "4acd34ecfc149e1aca49045b18227e17cdde1da33486ea9d7733f125815e8c8a",
    "C2xC4xC4": "246d3362d36b685b1e494ccae6b8062535107c0c8401451a5bd567e3adf96bc4",
    "C3xS3": "32925ef4062093fa30a1e7245255a221abffcd3b4b633edc8134d92ddc7888f1",
    "C12": "571a0b86543353e092cc8092888ef7178f11b8943c28f056b30f0bc899206533",
    "D6": "6968604fc49e1e63ed1e89e07fcdffc39e6ab0f4a757e2b9a30bd9db96d5c70a",
    "C2xQ8": "805039c4f460f4e052eb9da0b31e0e5a57f15133b9288474ae191f54f8a14564",
}


@pytest.mark.parametrize("spec", list(H2_STDOUT_SHA256))
def test_h2_stdout_bytes_are_pinned(capsys, spec):
    code, out, _ = run(capsys, "h2", "--group", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == H2_STDOUT_SHA256[spec]


# -- bad inputs exit 2 --------------------------------------------------------------


def test_unknown_group_spec_exits_2(capsys):
    code, out, err = run(capsys, "group", "--group", "Zoo")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "cocycle", "check", "--cocycle", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in err


def test_workspace_reference_without_workspace_exits_2(capsys):
    code, _, err = run(capsys, "group", "--group", "ws:K")
    assert code == 2
    assert "--workspace" in err


def test_order_cap_flag_exits_2(capsys):
    code, _, err = run(capsys, "--order-cap", "8", "group", "--group", "C4xC4")
    assert code == 2
    assert "error:" in err


@pytest.fixture(scope="module")
def capped(tmp_path_factory):
    """JSON inputs over C4xC4 (order 16) and C8xC9 (order 72, above the
    default cap of 64): the table, a cocycle and an algebra on the trivial
    subgroup, and a workspace holding the group."""
    root = tmp_path_factory.mktemp("cap")
    paths = {}
    for order, G in ((16, product(cyclic(4), cyclic(4))),
                     (72, product(cyclic(8), cyclic(9), order_cap=None))):
        one = G.trivial_subgroup()
        objects = {
            "table": jsonio.group_to_json(G),
            "cocycle": jsonio.cocycle_to_json(trivial_cocycle(one, 2)),
            "algebra": jsonio.algebra_to_json(TwistedGroupAlgebra(one)),
            "ws": {"groups": {"G": jsonio.group_to_json(G)}},
        }
        for name, obj in objects.items():
            p = root / f"{name}{order}.json"
            p.write_text(jsonio.dumps(obj), encoding="utf-8")
            paths[name, order] = str(p)
    return paths


# every way a command loads a group from JSON: the input file, then the
# arguments with {} for its path
CAP_ARGV = {
    "table": ("table", ("group", "--group", "table:@{}")),
    "h2 table": ("table", ("h2", "--group", "table:@{}")),
    "cocycle equiv": ("cocycle", ("cocycle", "equiv", "--a", "{}", "--b", "{}")),
    "cocycle extend": ("cocycle", ("cocycle", "extend", "--cocycle", "{}")),
    "algebra": ("algebra", ("embed", "tga", "--a", "{}", "--b", "{}")),
    "workspace": ("ws", ("--workspace", "{}", "group", "--group", "ws:G")),
}


def _cap_argv(capped, case, order):
    name, argv = CAP_ARGV[case]
    return [a.replace("{}", capped[name, order]) for a in argv]


@pytest.mark.parametrize("case", list(CAP_ARGV))
def test_order_cap_applies_to_groups_loaded_from_json(capsys, capped, case):
    code, out, err = run(capsys, "--order-cap", "8", *_cap_argv(capped, case, 16))
    assert (code, out) == (2, "")
    assert "exceeds cap 8" in err
    code, out, err = run(capsys, *_cap_argv(capped, case, 72))
    assert (code, out) == (2, "")
    assert "exceeds cap 64" in err
    code, out, _ = run(capsys, "--order-cap", "128", *_cap_argv(capped, case, 72))
    assert code == 0 and out


def test_over_cap_spec_exits_2_before_building(capsys):
    for spec in ("C2000", "C2xC2000"):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "group", "--group", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert peak < 1 << 20, spec


def test_argparse_rejections(capsys):
    assert run(capsys, "--no-such-flag")[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_parse_group_spec_direct():
    assert parse_group_spec("D4").order == 8
    with pytest.raises(SpecMalformed):
        parse_group_spec("Q16")
    with pytest.raises(OrderCapExceeded):
        parse_group_spec("C100")
    assert parse_group_spec("C100", order_cap=None).order == 100


# -- cocycle subcommands --------------------------------------------------------------


def test_cocycle_check(capsys, files):
    code, obj, _ = run_json(capsys, "cocycle", "check", "--cocycle", files["sig"])
    assert (code, obj) == (0, {"is_cocycle": True})
    code, obj, _ = run_json(capsys, "cocycle", "check", "--cocycle", files["broken"])
    assert (code, obj) == (3, {"is_cocycle": False})


def test_cocycle_equiv_yes(capsys, files):
    # the two files carry separate copies of the Klein table
    code, obj, _ = run_json(
        capsys, "cocycle", "equiv", "--a", files["sig"], "--b", files["sig_shifted"])
    assert code == 0
    assert obj["equivalent"] is True
    assert obj["witness"]["subgroup"] == [0, 1, 2, 3]


def test_cocycle_equiv_no(capsys, files):
    code, obj, _ = run_json(
        capsys, "cocycle", "equiv", "--a", files["sig"], "--b", files["triv"])
    assert code == 3
    assert obj == {"equivalent": False}


def _write_cocycles(tmp_path, **cocycles):
    paths = []
    for name, sig in cocycles.items():
        path = tmp_path / f"{name}.json"
        path.write_text(jsonio.dumps(jsonio.cocycle_to_json(sig)), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_cocycle_equiv_bad_modulus_override(capsys, tmp_path):
    """The coboundary of f = (1, i, 1, i) on C2xC2, at modulus 2, against
    the zero cocycle: equivalent at the working modulus 4. A --modulus of 2
    or 6 once printed "equivalent": false; the flag is gone and exits 2."""
    full = catalog_group("C2xC2").full_subgroup()
    sig = ExpCocycle(full, 2, [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1]])
    a, b = _write_cocycles(tmp_path, sig=sig, zero=trivial_cocycle(full, 2))
    code, obj, _ = run_json(capsys, "cocycle", "equiv", "--a", a, "--b", b)
    assert code == 0 and obj["equivalent"] is True
    for modulus in ("2", "6"):
        code, out, err = run(capsys, "--modulus", modulus, "cocycle", "equiv", "--a", a, "--b", b)
        assert (code, out) == (2, "")
        assert "usage:" in err


def test_cocycle_equiv_overflowing_modulus_exits_2(capsys, tmp_path):
    """Cocycles at modulus 8 * 3**18 on C2xC4 have working modulus
    32 * 3**18, which overflows int64 in the solver; an overflow once
    printed "equivalent": false."""
    full = product(cyclic(2), cyclic(4)).full_subgroup()
    vec = [0, 3, 1, 5, 2, 7, 6, 4]
    a, b = _write_cocycles(tmp_path, rho=coboundary_from(ExpFunction(full, 8, vec)),
                           zero=trivial_cocycle(full, 8))
    code, obj, _ = run_json(capsys, "cocycle", "equiv", "--a", a, "--b", b)
    assert code == 0 and obj["equivalent"] is True
    big = 8 * 3 ** 18
    a, b = _write_cocycles(
        tmp_path, rho=coboundary_from(ExpFunction(full, big, [v * 3 ** 18 for v in vec])),
        zero=trivial_cocycle(full, big))
    code, out, err = run(capsys, "cocycle", "equiv", "--a", a, "--b", b)
    assert (code, out) == (2, "")
    assert "2**63" in err


@pytest.mark.parametrize("modulus", ["0", "-8"])
def test_cocycle_equiv_nonpositive_modulus_exits_2(capsys, files, tmp_path, modulus):
    """A nonpositive cocycle modulus is refused where the file is read. As
    a working modulus, 0 was once dropped for the default and -8 never
    returned from snf_mod's pivot loop."""
    obj = json.loads(Path(files["sig"]).read_text(encoding="utf-8"))
    obj["modulus"] = int(modulus)
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "cocycle", "equiv", "--a", str(bad), "--b", files["sig"])
    assert (code, out) == (2, "")
    assert "positive" in err


# (kind, key path, value): one malformed field in an otherwise valid file
_MALFORMED = {
    "table_row": ("group", ("table", 1), 5),
    "labels": ("group", ("labels",), 5),
    "exponents_row": ("cocycle", ("exponents", 1), 5),
    "modulus_0": ("cocycle", ("modulus",), 0),
    "modulus_negative": ("cocycle", ("modulus",), -2),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_json_exits_2(capsys, tmp_path, case):
    kind, path, value = _MALFORMED[case]
    klein = catalog_group("C2xC2")
    if kind == "group":
        obj = jsonio.group_to_json(klein)
    else:
        obj = jsonio.cocycle_to_json(klein_sign_cocycle(klein.full_subgroup()))
    holder = obj[path[0]] if len(path) == 2 else obj
    holder[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(obj), encoding="utf-8")
    if kind == "group":
        argv = ("group", "--group", f"table:@{bad}")
    else:
        argv = ("cocycle", "order", "--cocycle", str(bad))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_cocycle_restrict(capsys, files):
    code, obj, _ = run_json(capsys, "cocycle", "restrict",
                            "--cocycle", files["sig"], "--subgroup", "0,1")
    assert code == 0
    assert obj["subgroup"] == [0, 1]
    assert obj["exponents"] == [[0, 0], [0, 0]]


def test_cocycle_extend_yes(capsys, files):
    code, obj, _ = run_json(capsys, "cocycle", "extend", "--cocycle", files["ext_ok"])
    assert code == 0
    assert obj["subgroup"] == [0, 1, 2, 3]


def test_cocycle_extend_no(capsys, files):
    code, obj, _ = run_json(capsys, "cocycle", "extend", "--cocycle", files["ext_fail"])
    assert code == 3
    assert obj == {"extends": False}


def test_cocycle_order(capsys, files):
    code, obj, _ = run_json(capsys, "cocycle", "order", "--cocycle", files["sig"])
    assert (code, obj) == (0, {"class_order": 2})


# -- embed / iso / lambda ---------------------------------------------------------------


def test_embed_tga_yes(capsys, files):
    code, obj, _ = run_json(capsys, "embed", "tga",
                            "--a", files["line"], "--b", files["signed"])
    assert code == 0
    assert obj["verdict"] == "yes"
    assert obj["verified"] is True


# Replaces the witness check by one that refuses everything, then runs the
# CLI: the argv after -c is the gradalg command line.
_REFUSING_VERIFIER = """
import sys
import gradalg.embed
gradalg.embed.verify_graded_monomorphism = lambda *args: False
from gradalg.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_unverified_witness_exits_1(capsys, files, monkeypatch):
    argv = ("embed", "tga", "--a", files["line"], "--b", files["signed"])
    with monkeypatch.context() as m:
        m.setattr(embed, "verify_graded_monomorphism", lambda *args: False)
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "internal error" in err
    # the check must survive python -O, which strips asserts
    src = str(Path(gradalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _REFUSING_VERIFIER, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "verified" not in proc.stdout


def test_embed_tga_no_both_directions(capsys, files):
    for a, b in ((files["plain"], files["signed"]), (files["signed"], files["plain"])):
        code, obj, _ = run_json(capsys, "embed", "tga", "--a", a, "--b", b)
        assert code == 3
        assert obj["verdict"] == "no"
        assert obj["reasons"] == ["class mismatch"]


def test_embed_matrix_grows_size(capsys, files):
    code, obj, _ = run_json(capsys, "embed", "matrix",
                            "--a", files["mat1"], "--b", files["mat2"])
    assert code == 0
    assert obj["witness"]["type"] == "matrix"
    code, obj, _ = run_json(capsys, "iso", "matrix",
                            "--a", files["mat1"], "--b", files["mat2"])
    assert code == 3
    assert "size" in obj["reasons"]


def test_embed_accepts_twisted_inputs_for_matrix_mode(capsys, files):
    # a twisted algebra is its own 1x1 matrix algebra
    code, obj, _ = run_json(capsys, "embed", "matrix",
                            "--a", files["signed"], "--b", files["mat2"])
    assert code == 0
    assert obj["verdict"] == "yes"


def test_embed_product(capsys, files):
    code, obj, _ = run_json(capsys, "embed", "product",
                            "--sources", ",".join([files["mat1"], files["line"]]),
                            "--targets", ",".join([files["mat2"], files["plain"]]))
    assert code == 0
    assert obj["assignment"] == [1, 1]
    code, obj, _ = run_json(capsys, "embed", "product",
                            "--sources", files["signed"], "--targets", files["plain"])
    assert code == 3
    assert obj["reasons"] == ["component 1 embeds into no target"]


def test_iso_tga(capsys, files):
    code, obj, _ = run_json(capsys, "iso", "tga",
                            "--a", files["signed"], "--b", files["signed"])
    assert code == 0
    assert obj["verdict"] == "yes"
    code, obj, _ = run_json(capsys, "iso", "tga",
                            "--a", files["line"], "--b", files["signed"])
    assert code == 3


def test_lambda_membership(capsys, files):
    code, obj, _ = run_json(capsys, "lambda", "--algebra", files["mat_s3"],
                            "--target", "3,4")
    assert code == 0
    assert obj["member"] is True
    assert obj["witness"]["type"] == "lambda"
    code, obj, _ = run_json(capsys, "lambda", "--algebra", files["mat_s3"],
                            "--target", "2,0")
    assert (code, obj) == (3, {"member": False})


# -- identities ----------------------------------------------------------------------


def test_pi_space(capsys, files):
    code, obj, _ = run_json(capsys, "pi", "space", "--algebra", files["signed"],
                            "--degs", "1,2")
    assert code == 0
    assert obj["dimension"] == 1


@pytest.mark.parametrize("degs, bad", [("1,99", 99), ("-1,2", -1)])
def test_pi_space_degree_outside_the_group_exits_2(capsys, files, degs, bad):
    for flag in ([f"--degs={degs}"], ["--degs", degs]):
        code, out, err = run(capsys, "pi", "space", "--algebra", files["signed"], *flag)
        assert code == 2
        assert out == ""
        assert f"degree {bad} is not" in err
    # an abbreviated flag is a usage error, whatever its value
    for flag in (["--deg", degs], [f"--deg={degs}"]):
        code, out, err = run(capsys, "pi", "space", "--algebra", files["signed"], *flag)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "is not" not in err


@pytest.mark.parametrize("argv", [
    ("--work", "ws", "h2", "--group", "C2"),
    ("h2", "--gr", "C2"),
    ("pi", "contain", "--a", "plain", "--b", "plain", "--nm", "1"),
])
def test_abbreviated_flags_exit_2(capsys, files, argv):
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert "usage:" in err


@pytest.mark.parametrize("argv, message", [
    (("cocycle", "restrict", "--cocycle", "sig", "--subgroup", "-1,0"), "neutral element"),
    (("lambda", "--algebra", "mat_s3", "--target", "-1,0"), "entry -1 is not"),
    (("tower", "--algebra", "tower_ok", "--chain", "-1,0"), "neutral element"),
])
def test_negative_ids_as_their_own_argument_reach_the_library(capsys, files, argv, message):
    """A value that starts with a negative id is read as the flag's value,
    not as an option, for every flag that takes ids."""
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert message in err and "usage" not in err


def test_pi_contain_separates(capsys, files):
    code, obj, _ = run_json(capsys, "pi", "contain", "--a", files["plain"],
                            "--b", files["signed"], "--nmax", "2")
    assert code == 3
    assert obj["contained"] is False
    separated = [v for v in obj["assignments"] if not v["contained"]]
    assert separated
    assert separated[0]["separating"]["coeffs"]


def test_pi_contain_reflexive(capsys, files):
    code, obj, _ = run_json(capsys, "pi", "contain", "--a", files["signed"],
                            "--b", files["signed"], "--nmax", "2")
    assert code == 0
    assert obj["contained"] is True
    assert obj["skipped"] == []


def test_pi_contain_budget_skips_everything_multilinear(capsys, files):
    code, obj, _ = run_json(capsys, "--budget", "1", "pi", "contain",
                            "--a", files["plain"], "--b", files["signed"],
                            "--nmax", "2")
    # every degree-2 assignment was skipped: the report is undecided, not
    # contained, and exits 4, apart from a separation's 3
    assert code == 4
    assert obj["contained"] is False
    assert all(v["contained"] for v in obj["assignments"])
    assert len(obj["skipped"]) == 16


def test_pi_contain_separation_with_skipped_work_exits_3(capsys, files):
    """A separation decides "no" even when other work was skipped: at budget
    2 the degree-3 assignments are skipped, and degree 2 separates."""
    code, obj, _ = run_json(capsys, "--budget", "2", "pi", "contain",
                            "--a", files["plain"], "--b", files["signed"],
                            "--nmax", "3")
    assert code == 3
    assert len(obj["skipped"]) == 64
    assert sum(not v["contained"] for v in obj["assignments"]) == 6


# -- towers ---------------------------------------------------------------------------


def test_tower_command(capsys, files):
    code, obj, _ = run_json(capsys, "tower", "--algebra", files["tower_ok"],
                            "--chain", "0,1,2,3;0,1,2,3,4,5,6,7", "--t", "2")
    assert code == 0
    assert len(obj["steps"]) == 1
    assert obj["steps"][0]["verdict"] == "yes"
    assert obj["squares"][0]["commutes"] is True


# SHA-256 of `gradalg tower` stdout for the sign class on {0,1,2,3} of
# C2xC2xC2xC2 climbed to order 8 and 16 with 2x2 corner squares: each step
# extends the class to a proper subgroup of the ambient group
TOWER_STDOUT_SHA256 = "e9d266511fb72686a31ac3d01663da2309ee911598242e76934277b1ff633146"


def test_tower_stdout_bytes_are_pinned(capsys, files):
    code, out, _ = run(capsys, "tower", "--algebra", files["tower_c2_4"],
                       "--chain", "0,1,2,3;0,1,2,3,4,5,6,7;" + ",".join(map(str, range(16))),
                       "--k", "2", "--t", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TOWER_STDOUT_SHA256


def test_tower_extension_failure(capsys, files):
    code, obj, _ = run_json(capsys, "tower", "--algebra", files["tower_fail"],
                            "--chain", "0,2,4,6;0,1,2,3,4,5,6,7")
    assert code == 3
    assert obj["built"] is False
    assert obj["reason"]


# -- workspaces and config -------------------------------------------------------------


def test_workspace_references(capsys, files):
    code, obj, _ = run_json(capsys, "--workspace", files["ws"],
                            "h2", "--group", "ws:K")
    assert code == 0
    assert obj["order"] == 2
    code, obj, _ = run_json(capsys, "--workspace", files["ws"], "embed", "tga",
                            "--a", "ws:plain", "--b", "ws:signed")
    assert code == 3
    code, _, err = run(capsys, "--workspace", files["ws"], "cocycle", "order",
                       "--cocycle", "ws:nope")
    assert code == 2
    assert "no cocycle named" in err


def test_config_file_flag(capsys, files, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"work_budget": 1}), encoding="utf-8")
    code, obj, _ = run_json(capsys, "--config", str(cfg), "pi", "contain",
                            "--a", files["plain"], "--b", files["signed"],
                            "--nmax", "2")
    assert code == 4
    assert obj["skipped"]


def test_config_env_var(capsys, files, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order_cap": 4}), encoding="utf-8")
    monkeypatch.setenv("GRADALG_CONFIG", str(cfg))
    code, _, err = run(capsys, "group", "--group", "C8")
    assert code == 2
    assert "error:" in err


def test_workspace_with_a_config_exits_2(capsys, files, tmp_path):
    obj = json.loads(Path(files["ws"]).read_text(encoding="utf-8"))
    obj["config"] = {"work_budget": 1, "order_cap": 2}
    ws = tmp_path / "ws_config.json"
    ws.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "--workspace", str(ws), "h2", "--group", "ws:K")
    assert (code, out) == (2, "")
    assert "unknown keys ['config']" in err


def test_config_unknown_keys_exit_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verbosity": 2}), encoding="utf-8")
    code, _, err = run(capsys, "--config", str(cfg), "group", "--group", "C2")
    assert code == 2
    assert "unknown keys" in err


@pytest.mark.parametrize("key, argv", [
    ("degree_cap", ("pi", "contain", "--nmax", "2")),
    ("work_budget", ("pi", "contain", "--nmax", "2")),
    ("order_cap", ("h2", "--group", "C2xC2")),
])
def test_config_null_exits_2(capsys, files, tmp_path, key, argv):
    """null is not an integer: it neither crashes a cap comparison nor lifts
    the cap."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}), encoding="utf-8")
    if argv[0] == "pi":
        argv += ("--a", files["plain"], "--b", files["signed"])
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (2, "")
    assert f"{key} must be an integer" in err


# -- sweep ------------------------------------------------------------------------------


def test_sweep_only_fast_criteria(capsys):
    code, out, _ = run(capsys, "sweep", "--only", "3,6,11")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("criterion")]
    assert len(lines) == 3
    assert all("PASS" in ln for ln in lines)


# SHA-256 of the full `gradalg sweep` stdout: the battery's lines and
# details must not move when the engine changes underneath
SWEEP_STDOUT_SHA256 = "ca84c2d9c43642e6d52c7e50d0bba1dcf4b23668a4d65ed562ae43503ac85335"


def test_sweep_stdout_bytes_are_pinned(capsys):
    code, out, _ = run(capsys, "sweep")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_STDOUT_SHA256


def test_sweep_unknown_criterion_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--only", "3,99")
    assert (code, out) == (2, "")
    assert "[99]" in err
