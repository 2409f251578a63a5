"""Tests of the benchmark itself: tiny runs, oracle sensitivity, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import groupgen  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gradalg import cocycles, groups  # noqa: E402
from gradalg.embed import DecisionReport  # noqa: E402
from gradalg.graded import GradedMap  # noqa: E402
from gradalg.identities import GradedMultilinearPoly  # noqa: E402


class TinyH2(workloads.H2):
    TYPES = ("C2xC2xC2", "D4", "Q8")
    min_passes = 1


class TinyExtend(workloads.Extend):
    TYPES = ("C2xC4", "D4")
    min_passes = 1


class TinyEmbed(workloads.Embed):
    TYPES = ("C2xC2", "S3")
    RANDOM_PAIRS = 4
    PLANTED = ((1, 4), (2, 2))
    min_passes = 1


class TinyIdentities(workloads.Identities):
    N_MAX = 2
    SPACE_DEGREE = 2
    min_passes = 1


TINY = {"h2": TinyH2, "extend": TinyExtend, "embed": TinyEmbed, "identities": TinyIdentities}


def group(type_name):
    return groups.FiniteGroup(groupgen.product_table(groupgen.parse_type(type_name)),
                              order_cap=None)


def run_one(job):
    return job, job.run()


# -- smoke ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_every_oracle(name):
    wl = TINY[name](seed=5)
    wl.warm_up()
    passes, problems, _ = worker.measure(wl, 0, False, tracing)
    assert problems == []
    assert len(passes) == 1 and passes[0]["jobs"] > 0 and passes[0]["failed"] == 0


def test_seed_fixes_the_inputs():
    a = [j.label for j in TinyEmbed(seed=3).generate()]
    b = [j.label for j in TinyEmbed(seed=3).generate()]
    c = [j.label for j in TinyEmbed(seed=4).generate()]
    assert a == b and a != c


def _fingerprint(alg):
    """Relabeling-invariant data of an algebra."""
    return (alg.ambient.order, alg.subgroup.order, alg.dim, getattr(alg, "k", 1),
            sorted(alg.sigma.mat.ravel().tolist()))


def test_seed_changes_only_relabelings():
    wa, wb = TinyEmbed(seed=3), TinyEmbed(seed=4)
    for type_name in TinyEmbed.TYPES:
        plan_a, plan_b = wa.plan(type_name), wb.plan(type_name)
        assert [(kind, _fingerprint(A)) for kind, A, _ in plan_a] == \
            [(kind, _fingerprint(A)) for kind, A, _ in plan_b]
        R = wa.fresh_group(type_name)
        for _, A, _ in plan_a:
            T = R.algebra(A)
            assert _fingerprint(T) == _fingerprint(A)
            x, y = A.subgroup.members[-1], A.subgroup.members[1 % A.subgroup.order]
            assert T.sigma.entry(R.perm[x], R.perm[y]) == A.sigma.entry(x, y)
    spaces = [degs for *_, degs in TinyIdentities(seed=3).plan()[1]]
    assert spaces == [degs for *_, degs in TinyIdentities(seed=4).plan()[1]]


def test_relabeling_keeps_identity_and_h2():
    base = groupgen.product_table(groupgen.parse_type("C2xD4"))
    import random
    perm = groupgen.random_relabeling(random.Random(1), len(base))
    G = groups.FiniteGroup(groupgen.relabel(base, perm), order_cap=None)
    assert perm[0] == 0
    assert cocycles.h2_over_Fstar(G).invariant_factors == (2, 2, 2)
    assert groupgen.expected_h2(groupgen.parse_type("C2xD4")) == (2, 2, 2)
    assert groupgen.expected_h2(groupgen.parse_type("C4xC4")) == (4,)
    assert groupgen.expected_h2(groupgen.parse_type("S4")) == (2,)


def test_tail_latency_keeps_ten_beyond():
    xs = list(range(1, 101))
    pct, value, beyond = worker.tail_latency(xs)
    assert (pct, value, beyond) == (90, 90, 10)
    assert sum(x > value for x in xs) == beyond
    assert worker.tail_latency([3.0, 1.0, 2.0])[1] == 1.0


def test_run_refuses_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- oracles reject corrupted answers -------------------------------------------------------

def test_h2_oracle_rejects_corruption():
    G = group("D4")
    desc = cocycles.h2_over_Fstar(G)
    expected = groupgen.expected_h2(groupgen.parse_type("D4"))
    assert oracles.check_h2(G.mul_table, expected, desc) is None
    assert oracles.check_h2(G.mul_table, expected,
                            dataclasses.replace(desc, invariant_factors=(4,)))
    rep = desc.representatives[0]
    bad = rep.mat.copy()
    bad[1, 2] = (bad[1, 2] + 1) % rep.modulus
    broken = cocycles.ExpCocycle(rep.domain, rep.modulus, bad)
    assert oracles.check_h2(G.mul_table, expected,
                            dataclasses.replace(desc, representatives=(broken,)))


def test_independence_oracle_rejects_dependent_representatives():
    for type_name in ("C2xD4", "C4xC4", "C2xC2xC2"):
        G = group(type_name)
        desc = cocycles.h2_over_Fstar(G)
        mats = [r.mat for r in desc.representatives]
        factors, M = desc.invariant_factors, desc.base_modulus
        assert oracles.classes_independent(G.mul_table, factors, mats, M) is None
        assert oracles.classes_independent(G.mul_table, factors, [2 * m for m in mats], M)
        if len(mats) > 1:
            assert oracles.classes_independent(G.mul_table, factors, [mats[0]] * len(mats), M)
        assert oracles.classes_independent(G.mul_table, factors, [0 * m for m in mats], M)


def _extend_jobs(type_name):
    wl = TinyExtend(seed=2)
    wl.TYPES = (type_name,)
    return wl.generate()


def test_extend_oracle_rejects_corruption():
    jobs = _extend_jobs("C2xC4")
    answers = [run_one(j) for j in jobs]
    no = [(j, a) for j, a in answers if a[0] is None]
    yes = [(j, a) for j, a in answers if a[0] is not None and a[0].mat.any()]
    assert no and yes
    for job, ans in answers:
        assert job.check(ans) is None
    trivial = next(j for j, a in answers if a[0] is not None and not a[0].mat.any())
    assert "restricts to it" in trivial.check((None, None))
    job, (ext, f) = yes[0]
    bad = ext.mat.copy()
    bad[1, 1] = (bad[1, 1] + 1) % ext.modulus
    assert job.check((cocycles.ExpCocycle(ext.domain, ext.modulus, bad), f))
    wrong_f = cocycles.ExpFunction(f.domain, f.modulus, (f.vec + 1) % f.modulus)
    assert job.check((ext, wrong_f))
    assert job.check((ext, None))


def test_extend_fails_every_job_on_bad_oracle_data():
    wl = TinyExtend(seed=2)
    wl.TYPES = ("C2xC4",)
    factors, mats, modulus, _ = wl.image_data("C2xC4")
    wl._image_data["C2xC4"] = (factors, mats, modulus, "representatives give 2 classes")
    jobs = wl.generate()
    problems = []
    assert worker.check_jobs(jobs, [(j.run(), None) for j in jobs], problems) == len(jobs)
    assert all("oracle raised" in p for p in problems)


def _negated(report):
    w = report.witness
    images = dict(w.map.images)
    key = next(k for k in images if images[k].terms and k != sorted(images)[0])
    images[key] = -images[key]
    bad_map = GradedMap(w.map.source, w.map.target, images)
    return dataclasses.replace(report, witness=dataclasses.replace(w, map=bad_map))


def test_embed_oracle_rejects_corruption():
    jobs = TinyEmbed(seed=1).generate()
    planted = [j for j in jobs if "planted" in j.label and "matrix" in j.label]
    job = next(j for j in planted if j.run().witness.source.dim > 1)
    report = job.run()
    assert job.check(report) is None
    assert "planted" in job.check(DecisionReport(False, reasons=("class mismatch",)))
    assert job.check(_negated(report))
    assert job.check(dataclasses.replace(report, verified=False))


def _identity_jobs():
    return TinyIdentities(seed=7).generate()


def test_identity_space_oracle_rejects_corruption():
    job = next(j for j in _identity_jobs()
               if j.label.startswith("identity_space") and j.run().dimension)
    space = job.run()
    assert job.check(space) is None
    poly = space.basis[0]
    field = poly.field
    perm = sorted(poly.coeffs)[0]
    coeffs = dict(poly.coeffs)
    coeffs[perm] = coeffs[perm] + field.one()
    bent = GradedMultilinearPoly(poly.assignment, coeffs, field)
    assert job.check(dataclasses.replace(space, basis=(bent,) + space.basis[1:]))
    assert job.check(dataclasses.replace(space, basis=space.basis[1:]))


def test_containment_oracle_rejects_corruption():
    job = next(j for j in _identity_jobs() if j.label.startswith("contain V4"))
    report = job.run()
    assert job.check(report) is None
    v = report.verdicts[-1]
    flipped = dataclasses.replace(v, contained=not v.contained, separating=None)
    assert job.check(dataclasses.replace(report, verdicts=report.verdicts[:-1] + (flipped,)))
    assert job.check(dataclasses.replace(report, verdicts=report.verdicts[:-1]))


def test_rank_mod_and_vanishing():
    p, g = oracles.prime_for(4)
    assert pow(g, 4, p) == 1 and pow(g, 2, p) != 1
    assert oracles.rank_mod([[1, 2], [2, 4]], p) == 1
    assert oracles.rank_mod([[1, 2], [0, 1]], p) == 2
    # 1 + zeta_4^2 = 0, 1 + zeta_4 != 0
    assert oracles.vanishes([1, 0, 1, 0], 4)
    assert not oracles.vanishes([1, 1, 0, 0], 4)


# -- tracing ------------------------------------------------------------------------------

def _library_bindings():
    import gradalg
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gradalg" or name.startswith("gradalg."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__.startswith("gradalg"):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = id(cvalue)
    assert gradalg
    return out


def test_untraced_pass_leaves_library_untouched():
    wl = TinyH2(seed=1)
    before = _library_bindings()
    worker.measure(wl, 0, False, tracing)
    assert _library_bindings() == before


def test_traced_pass_restores_library_and_reports_layers():
    wl = TinyH2(seed=1)
    wl.min_passes = 2
    before = _library_bindings()
    passes, problems, tracer = worker.measure(wl, 0, True, tracing)
    assert _library_bindings() == before
    assert problems == [] and [p["traced"] for p in passes] == [False, True]
    metrics = tracing.per_layer_metrics(tracer, 1, passes[1]["wall_s"][0], passes[0]["wall_s"][0])
    assert metrics["cocycles.h2_over_Fstar.calls"][0] == len(TinyH2.TYPES)
    assert metrics["modlin.add_matrix.calls"][0] > 0
    assert metrics["cocycles.cocycle_kernel.repeat_share"][0] == 0.0
    job_self = sum(v for k, (v, _, _) in metrics.items()
                   if k.startswith("job.") and k.endswith(".self_s"))
    assert 0 < job_self <= passes[1]["wall_s"][0]


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.names = ["outer", "inner"]
    tr.spans = [(0, 0.0, 10.0, -1, 0), (1, 2.0, 5.0, 0, 0), (1, 6.0, 7.0, 0, 0)]
    got = tr.self_times()
    assert got == [("outer", 0, 6.0), ("inner", 0, 3.0), ("inner", 0, 1.0)]
