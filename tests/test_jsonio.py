"""Serialization tests: canonical text form, big-integer encoding, and
round trips for every object kind the CLI reads or writes."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradalg import jsonio
from gradalg.cocycles import ExpFunction, h2_over_Fstar, is_cocycle, trivial_cocycle
from gradalg.cyclo import cyclo_field
from gradalg.embed import product_embed, twisted_embed
from gradalg.errors import ParseError, ValidationError
from gradalg.groups import Subgroup
from gradalg.identities import DegreeAssignment, GradedMultilinearPoly, identity_space
from gradalg.matalg import GradedMatrixAlgebra, MatBasisElt
from gradalg.twisted import TwistedGroupAlgebra


# -- canonical text form -------------------------------------------------------


def test_dumps_is_key_order_independent():
    a = jsonio.dumps({"b": 1, "a": [2, 3]})
    b = jsonio.dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_loads_reports_line_and_column():
    with pytest.raises(ParseError, match=r"line 2 column \d+"):
        jsonio.loads('{\n  "a" 1\n}')


def test_loads_round_trips_dumps():
    obj = {"x": [1, "2", {"y": None}]}
    assert jsonio.loads(jsonio.dumps(obj)) == obj


# -- integers beyond double precision -------------------------------------------


def test_small_ints_stay_ints():
    assert jsonio.encode_int(2**53 - 1) == 2**53 - 1
    assert jsonio.encode_int(-(2**53) + 1) == -(2**53) + 1


def test_big_ints_become_decimal_strings():
    big = 2**53
    assert jsonio.encode_int(big) == str(big)
    assert jsonio.encode_int(-big) == str(-big)
    assert jsonio.decode_int(str(big)) == big


@given(st.integers(min_value=-(2**80), max_value=2**80))
def test_int_encoding_round_trips(v):
    assert jsonio.decode_int(jsonio.encode_int(v)) == v


def test_decode_int_rejects_junk():
    with pytest.raises(ValidationError):
        jsonio.decode_int(True)
    with pytest.raises(ValidationError):
        jsonio.decode_int("12x")
    with pytest.raises(ValidationError):
        jsonio.decode_int(3.5)


# -- groups ----------------------------------------------------------------------


def test_group_round_trip(s3):
    obj = jsonio.group_to_json(s3)
    back = jsonio.parse_group(obj)
    assert back.name == s3.name
    assert list(back.labels) == list(s3.labels)
    assert back.mul_table == s3.mul_table
    assert jsonio.dumps(jsonio.group_to_json(back)) == jsonio.dumps(obj)


def test_parse_group_requires_table():
    with pytest.raises(ValidationError, match="table"):
        jsonio.parse_group({"name": "G"})
    with pytest.raises(ValidationError):
        jsonio.parse_group({"table": "nope"})
    with pytest.raises(ValidationError):
        jsonio.parse_group([1, 2])


# -- cocycles and exponent functions ---------------------------------------------


def test_cocycle_round_trip_with_inline_group(klein, sign_cocycle):
    obj = jsonio.cocycle_to_json(sign_cocycle)
    back = jsonio.parse_cocycle(obj)
    assert back.modulus == sign_cocycle.modulus
    assert back.mat.tolist() == sign_cocycle.mat.tolist()
    assert back.domain.members == sign_cocycle.domain.members
    assert back.domain.parent.mul_table == klein.mul_table


def test_cocycle_group_reference_resolution(klein, sign_cocycle):
    obj = jsonio.cocycle_to_json(sign_cocycle, group_ref="K")
    assert obj["group"] == "K"
    back = jsonio.parse_cocycle(obj, groups={"K": klein})
    assert back.domain.parent is klein
    with pytest.raises(ValidationError, match="unknown group reference"):
        jsonio.parse_cocycle(obj, groups={})
    with pytest.raises(ValidationError, match="unknown group reference"):
        jsonio.parse_cocycle(obj)


def test_parse_cocycle_does_not_enforce_the_identity(klein):
    # a loadable-but-broken table is exactly what `cocycle check` rejects
    obj = jsonio.cocycle_to_json(trivial_cocycle(klein.full_subgroup(), 2))
    obj["exponents"][0][0] = 1
    bad = jsonio.parse_cocycle(obj)
    assert not is_cocycle(bad)


def test_parse_cocycle_checks_table_shape(klein, sign_cocycle):
    obj = jsonio.cocycle_to_json(sign_cocycle)
    obj["exponents"] = obj["exponents"][:3]
    with pytest.raises(ValidationError, match="matrix"):
        jsonio.parse_cocycle(obj)
    obj = jsonio.cocycle_to_json(sign_cocycle)
    obj["exponents"][2] = obj["exponents"][2][:2]
    with pytest.raises(ValidationError, match="matrix"):
        jsonio.parse_cocycle(obj)


def test_expfunction_round_trip(klein):
    H = Subgroup(klein, [0, 1])
    f = ExpFunction(H, 4, [0, 3])
    back = jsonio.parse_expfunction(jsonio.expfunction_to_json(f), klein)
    assert back.modulus == 4
    assert back.vec.tolist() == [0, 3]
    assert back.domain.members == H.members


def test_h2_description_fields(klein):
    obj = jsonio.h2_to_json(h2_over_Fstar(klein))
    assert obj["order"] == 2
    assert obj["invariant_factors"] == [2]
    assert obj["group_order"] == 4
    assert len(obj["representatives"]) == 1
    rep = obj["representatives"][0]
    assert len(rep["exponents"]) == 4


# -- cyclotomic scalars -----------------------------------------------------------


def test_cyclo_round_trip_with_huge_numerator():
    F = cyclo_field(8)
    c = F.element([Fraction(2**60 + 1, 3), Fraction(0), Fraction(-5), Fraction(1, 7)])
    obj = jsonio.cyclo_to_json(c)
    assert obj["coeffs"][0][0] == str(2**60 + 1)
    assert jsonio.parse_cyclo(obj) == c


def test_parse_cyclo_checks_coefficient_count():
    with pytest.raises(ValidationError, match="coefficient pairs"):
        jsonio.parse_cyclo({"M": 8, "coeffs": [[1, 1]]})


# -- algebras and elements ---------------------------------------------------------


def test_twisted_algebra_round_trip(klein, sign_cocycle):
    A = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    obj = jsonio.algebra_to_json(A)
    assert obj["kind"] == "twisted"
    back = jsonio.parse_algebra(obj)
    assert back == A
    assert jsonio.dumps(jsonio.algebra_to_json(back)) == jsonio.dumps(obj)


def test_matrix_algebra_round_trip(klein, sign_cocycle):
    A = GradedMatrixAlgebra(
        TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle), (0, 3))
    obj = jsonio.algebra_to_json(A, group_ref="K")
    assert obj["kind"] == "matrix"
    assert obj["k"] == 2
    back = jsonio.parse_algebra(obj, groups={"K": klein})
    assert back == A


def test_parse_algebra_rejects_bad_kind_and_k(klein, sign_cocycle):
    A = GradedMatrixAlgebra(
        TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle), (0, 3))
    obj = jsonio.algebra_to_json(A)
    obj["k"] = 5
    with pytest.raises(ValidationError, match="does not match"):
        jsonio.parse_algebra(obj)
    obj = jsonio.algebra_to_json(A)
    obj["kind"] = "banana"
    with pytest.raises(ValidationError, match="unknown kind"):
        jsonio.parse_algebra(obj)


def test_twisted_element_round_trip(klein, sign_cocycle):
    A = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    x = A.eta(1) + 3 * A.eta(2) - A.one()
    back = jsonio.parse_element(jsonio.element_to_json(x), A)
    assert back == x


def test_matrix_element_round_trip(klein, sign_cocycle):
    A = GradedMatrixAlgebra(
        TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle), (0, 3))
    x = A.basis_element(MatBasisElt(1, 2, 3)) - 2 * A.one()
    obj = jsonio.element_to_json(x)
    assert {"i", "j", "g"} <= set(obj["terms"][-1])
    assert jsonio.parse_element(obj, A) == x


def test_parse_element_rejects_duplicate_terms(klein, sign_cocycle):
    A = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    obj = jsonio.element_to_json(A.eta(1))
    obj["terms"].append(obj["terms"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        jsonio.parse_element(obj, A)


# -- polynomials and identity spaces -----------------------------------------------


def test_poly_round_trip():
    F = cyclo_field(4)
    p = GradedMultilinearPoly(
        DegreeAssignment((1, 2)), {(1, 2): F.one(), (2, 1): -F.root()}, F)
    back = jsonio.parse_poly(jsonio.poly_to_json(p))
    assert back.field.modulus == 4
    assert back.coeffs == p.coeffs
    assert tuple(back.assignment.degs) == (1, 2)


def test_parse_poly_lifts_coefficients_to_the_header_field():
    obj = {
        "degs": [1],
        "field": 4,
        "coeffs": [{"perm": [1], "c": {"M": 2, "coeffs": [[1, 1]]}}],
    }
    p = jsonio.parse_poly(obj)
    assert p.field.modulus == 4
    assert p.coeffs[(1,)] == p.field.one()


def test_identity_space_serialization(klein, sign_cocycle):
    A = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    obj = jsonio.space_to_json(identity_space(A, DegreeAssignment((1, 2))))
    assert obj["dimension"] == 1
    assert obj["assignment"] == [1, 2]
    assert len(obj["basis"]) == 1
    assert jsonio.parse_poly(obj["basis"][0]).coeffs


# -- reports -------------------------------------------------------------------------


def test_embed_report_serialization(klein, sign_cocycle):
    line = TwistedGroupAlgebra(Subgroup(klein, [0, 1]),
                               trivial_cocycle(Subgroup(klein, [0, 1]), 2))
    full = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    obj = jsonio.report_to_json(twisted_embed(line, full))
    assert obj["verdict"] == "yes"
    assert obj["verified"] is True
    assert obj["witness"]["type"] == "twisted"
    assert obj["witness"]["f"]["subgroup"] == [0, 1]

    obj = jsonio.report_to_json(twisted_embed(full, line))
    assert obj["verdict"] == "no"
    assert obj["reasons"] == ["subgroup containment"]
    assert obj["witness"] is None


def test_product_report_serialization(klein, sign_cocycle):
    full = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    A = GradedMatrixAlgebra(full, (0,))
    obj = jsonio.report_to_json(product_embed([A], [A]))
    assert obj["verdict"] == "yes"
    assert obj["assignment"] == [1]
    assert obj["witness"]["type"] == "product"
    assert obj["witness"]["components"][0]["type"] == "matrix"


# -- workspaces ------------------------------------------------------------------------


def _sample_workspace(klein, sign_cocycle):
    full = klein.full_subgroup()
    return jsonio.Workspace(
        groups={"K": klein},
        cocycles={"sig": sign_cocycle},
        algebras={
            "plain": TwistedGroupAlgebra(full, trivial_cocycle(full, 2)),
            "mat": GradedMatrixAlgebra(
                TwistedGroupAlgebra(full, sign_cocycle), (0, 3)),
        },
    )


def test_workspace_round_trip_is_byte_identical(klein, sign_cocycle):
    ws = _sample_workspace(klein, sign_cocycle)
    text = jsonio.dumps(jsonio.workspace_to_json(ws))
    back = jsonio.parse_workspace(text)
    assert jsonio.dumps(jsonio.workspace_to_json(back)) == text
    assert back.cocycles["sig"].domain.parent is back.groups["K"]
    assert back.algebras["mat"].k == 2


def test_workspace_uses_group_references(klein, sign_cocycle):
    obj = jsonio.workspace_to_json(_sample_workspace(klein, sign_cocycle))
    assert obj["cocycles"]["sig"]["group"] == "K"
    assert obj["algebras"]["plain"]["group"] == "K"


def test_workspace_rejects_unknown_keys(klein, sign_cocycle):
    obj = jsonio.workspace_to_json(_sample_workspace(klein, sign_cocycle))
    obj["banana"] = {}
    with pytest.raises(ValidationError, match="unknown keys"):
        jsonio.parse_workspace(jsonio.dumps(obj))


def test_workspace_rejects_unknown_config_keys(klein, sign_cocycle):
    """A workspace carries no config: caps and budgets come from --config
    and the flags only, so a config section is an unknown key."""
    obj = jsonio.workspace_to_json(_sample_workspace(klein, sign_cocycle))
    assert "config" not in obj
    obj["config"] = {"order_cap": 64}
    with pytest.raises(ValidationError, match=r"unknown keys \['config'\]"):
        jsonio.parse_workspace(jsonio.dumps(obj))


def test_workspace_revalidates_cocycles(klein, sign_cocycle):
    obj = jsonio.workspace_to_json(_sample_workspace(klein, sign_cocycle))
    obj["cocycles"]["sig"]["exponents"][1][2] = 1
    with pytest.raises(ValidationError, match="cocycle identity"):
        jsonio.parse_workspace(jsonio.dumps(obj))


def test_workspace_rejects_dangling_group_reference(klein, sign_cocycle):
    obj = jsonio.workspace_to_json(_sample_workspace(klein, sign_cocycle))
    obj["cocycles"]["sig"]["group"] = "missing"
    with pytest.raises(ValidationError, match="unknown group reference"):
        jsonio.parse_workspace(jsonio.dumps(obj))


# -- randomized round trips ----------------------------------------------------------


@st.composite
def cyclo_values(draw):
    m = draw(st.sampled_from([1, 2, 3, 4, 8, 12]))
    F = cyclo_field(m)
    coeffs = [
        Fraction(draw(st.integers(-10**20, 10**20)),
                 draw(st.integers(1, 999)))
        for _ in range(F.degree)
    ]
    return F.element(coeffs)


@given(cyclo_values())
def test_cyclo_serialization_round_trips(c):
    assert jsonio.parse_cyclo(jsonio.loads(jsonio.dumps(jsonio.cyclo_to_json(c)))) == c
