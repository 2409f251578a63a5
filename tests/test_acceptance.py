"""Acceptance battery: one pass/fail line per built-in criterion.

Each criterion must both hold and finish inside its time budget.

The central-subgroup extension sweep (criterion 04) does not assert that
every class of a central subgroup extends to the ambient group: restriction
to a central subgroup is not onto in general, against the restriction claim
in the paper's abstract. The sign class on the Klein four subgroup
{0,2,4,6} of C2 x C4 has no ambient preimage: its alternating form is -1 on
a pair of generators one of which is a square in the ambient group, while
any restricted form pairs such elements trivially
(beta(u, w^2) = beta(u, w)^2 = 1). The sweep instead checks every verdict
of extend_class against an oracle built from alternating forms, and every
extension by a round trip; it lists the classes that do not extend.
"""

import pytest

from gradalg import catalog
from gradalg.catalog import _check_extension, catalog_group, criterion_numbers, run_criterion
from gradalg.cocycles import all_classes, trivial_cocycle
from gradalg.errors import ValidationError
from gradalg.groups import Subgroup, cyclic, dihedral, product


@pytest.mark.parametrize("number", criterion_numbers(),
                         ids=[f"{n:02d}" for n in criterion_numbers()])
def test_criterion(number):
    r = run_criterion(number)
    print(r.line())
    print(f"    {r.detail}")
    print(f"    runtime {r.runtime:.2f}s of {r.budget:.0f}s budget")
    assert r.runtime <= r.budget, f"runtime {r.runtime:.2f}s over the {r.budget:.0f}s budget"
    assert r.passed, r.detail


def test_run_all_refuses_unknown_numbers_before_running(monkeypatch):
    ran = []
    monkeypatch.setattr(catalog, "run_criterion", ran.append)
    with pytest.raises(ValidationError, match=r"\[99\]"):
        catalog.run_all([3, 99])
    assert ran == []


def test_extension_check_catches_wrong_answers(monkeypatch):
    G = catalog_group("C2xC4")
    miss = all_classes(Subgroup(G, (0, 2, 4, 6)))[1]
    hit = all_classes(G.full_subgroup())[1]
    assert _check_extension(miss, G, (2, 4)) == (None, [])
    ext, problems = _check_extension(hit, G, (2, 4))
    assert ext is not None and problems == []

    monkeypatch.setattr(catalog, "extend_class", lambda sig, G: None)
    assert _check_extension(miss, G, (2, 4)) == (None, [])
    assert _check_extension(hit, G, (2, 4)) == (
        None, ["extend_class disagrees with the oracle, which says it extends"])

    monkeypatch.setattr(catalog, "extend_class",
                        lambda sig, G: trivial_cocycle(G.full_subgroup()))
    _, problems = _check_extension(miss, G, (2, 4))
    assert problems == [
        "extend_class disagrees with the oracle, which says it does not extend",
        "bad round trip"]
    _, problems = _check_extension(hit, G, (2, 4))
    assert problems == ["bad round trip"]


def test_extension_check_needs_an_oracle():
    # the centre of C2 x D4 is a Klein four-group: no cyclic shortcut applies
    G = product(cyclic(2), dihedral(4))
    Z = Subgroup(G, G.center)
    assert Z.order == 4 and Z.is_central()
    for sig in all_classes(Z):
        assert _check_extension(sig, G, None) == (
            None, ["non-cyclic central subgroup of a non-abelian group has no oracle"])
