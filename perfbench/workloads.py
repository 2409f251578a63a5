"""The benchmark's workloads: seeded inputs, jobs and their oracles.

Every workload draws its inputs from one random.Random(seed). Groups are
seeded relabelings of fixed isomorphism types (groupgen). The embed and
identities job lists are drawn once, on the types' base tables, from a
random.Random with a fixed seed of their own, and each pass carries that
plan over to freshly relabeled groups. So in every workload the seed
changes only relabelings and the order of jobs, never the job mix, while
the tables the library sees do change. The library is reached through
module attributes only, so the traced pass can swap in wrappers and the
untraced pass runs the library unchanged. No workload passes a modulus
override: every cocycle computation runs at the library's default working
modulus.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import groupgen
import oracles
from gradalg import cocycles, embed, groups, identities, matalg, twisted

# relabelings tried per fresh group before accepting a table seen earlier in
# the run (small types have fewer distinct relabelings than a run needs)
RELABEL_TRIES = 50


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


class Relabeled:
    """A fresh group object on a relabeling of a base group, and the maps
    that carry base subgroups, cocycles, algebras and regrading witnesses
    over to it: base element x becomes perm[x]."""

    def __init__(self, G, perm):
        self.G, self.perm = G, perm
        self._subs = {}

    def use_subgroups(self, subs):
        """Map onto these subgroup objects of G (e.g. enumerate_subgroups(G))."""
        self._subs.update((H.members, H) for H in subs)

    def subgroup(self, Hb):
        members = tuple(sorted(self.perm[x] for x in Hb.members))
        if members not in self._subs:
            self._subs[members] = groups.Subgroup(self.G, members)
        return self._subs[members]

    def cocycle(self, sig):
        H = self.subgroup(sig.domain)
        idx = np.array([H.position(self.perm[x]) for x in sig.domain.members])
        mat = np.zeros_like(sig.mat)
        mat[np.ix_(idx, idx)] = sig.mat
        return cocycles.ExpCocycle(H, sig.modulus, mat)

    def algebra(self, A):
        if isinstance(A, matalg.GradedMatrixAlgebra):
            return matalg.GradedMatrixAlgebra(self.algebra(A.base),
                                              tuple(self.perm[t] for t in A.theta))
        return twisted.TwistedGroupAlgebra(self.subgroup(A.subgroup), self.cocycle(A.sigma))

    def witness(self, w):
        return matalg.LambdaWitness(delta=self.perm[w.delta], alpha=w.alpha,
                                    xis=tuple(self.perm[x] for x in w.xis))


class Workload:
    """One workload: per-pass inputs, jobs and checks.

    warm_up runs once before measuring; prepare_oracles runs once after it,
    outside set-up and the measured window. generate builds a fresh pass of jobs
    (new group objects, so no library cache carries over between passes);
    settle runs per pass after generate and counts as set-up too.
    """

    name = ""
    min_passes = 2
    # timed runs of each pass's job list; more than one only where a run
    # leaves nothing behind that makes the next one cheaper
    timed_reps = 1

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._base = {}
        self._base_groups = {}
        self._seen = set()

    def base_table(self, type_name):
        if type_name not in self._base:
            self._base[type_name] = groupgen.product_table(groupgen.parse_type(type_name))
        return self._base[type_name]

    def base_group(self, type_name):
        """The type on its base table, for plans drawn once per run."""
        if type_name not in self._base_groups:
            self._base_groups[type_name] = groups.FiniteGroup(
                self.base_table(type_name), name=type_name, order_cap=None)
        return self._base_groups[type_name]

    def fresh_group(self, type_name):
        """A new group object on a seeded relabeling of the type's table,
        avoiding tables already handed out in this run where the type has
        enough distinct relabelings."""
        base = self.base_table(type_name)
        for _ in range(RELABEL_TRIES):
            perm = groupgen.random_relabeling(self.rng, len(base))
            table = groupgen.relabel(base, perm)
            key = tuple(map(tuple, table))
            if key not in self._seen:
                break
        self._seen.add(key)
        return Relabeled(groups.FiniteGroup(table, name=type_name, order_cap=None), perm)

    def warm_up(self):
        pass

    def prepare_oracles(self):
        pass

    def generate(self):
        raise NotImplementedError

    def settle(self, jobs):
        pass


def _warm_numpy(workload):
    # the first large elimination of a process is slower (allocator growth);
    # one order-16 H^2 outside the timed passes absorbs it
    cocycles.h2_over_Fstar(workload.fresh_group("C2xC2xC4").G)


# -- h2 ------------------------------------------------------------------------------

class H2(Workload):
    """One job: h2_over_Fstar on a fresh relabeled group of a fixed type.

    Per pass, five jobs of order 8-10 are cheaper than the six of order 12
    and four of order 16 dearer, so the median job lies inside the order-12
    block and the tail job inside the order-16 block, never on the edge
    between two blocks of different cost."""

    name = "h2"
    min_passes = 3
    TYPES = ("C2xC2xC2", "D4", "Q8", "C3xC3", "D5",
             "D6", "C2xC6", "C12", "D6", "C2xC6", "C12",
             "C4xC4", "D8", "C2xQ8", "C2xD4")

    def warm_up(self):
        _warm_numpy(self)

    def generate(self):
        order = list(self.TYPES)
        self.rng.shuffle(order)
        return [self._job(t) for t in order]

    def _job(self, type_name):
        G = self.fresh_group(type_name).G
        expected = groupgen.expected_h2(groupgen.parse_type(type_name))
        table = G.mul_table
        return Job(label=f"h2 {type_name}",
                   run=lambda: cocycles.h2_over_Fstar(G),
                   check=lambda desc: oracles.check_h2(table, expected, desc))


# -- extend --------------------------------------------------------------------------

class Extend(Workload):
    """A central-subgroup sweep: one job extends one class of one central
    subgroup to the whole group and, when it extends, round-trips it.

    Each group is swept twice in a row. In the first sweep a job is a cold
    factorization (once per group and modulus), a cold per-subgroup solve
    or a warm solve, and warm solves are only about half of it, so on its
    own the median job would sit on the edge between warm and cold solves.
    The second sweep repeats every (table, modulus) pair on the same group
    object and is all warm solves, so the median job lies well inside them
    while the tail stays the cold factorizations."""

    name = "extend"
    TYPES = ("C2xC2", "C4", "C6", "C8", "C2xC4", "C2xC2xC2", "C3xC3",
             "D4", "Q8", "C2xC2xC4", "C2xD4", "C2xQ8")

    def __init__(self, seed):
        super().__init__(seed)
        self._image_data = {}

    def warm_up(self):
        _warm_numpy(self)

    def prepare_oracles(self):
        for type_name in self.TYPES:
            self.image_data(type_name)

    def generate(self):
        jobs = []
        for type_name in self.TYPES:
            R = self.fresh_group(type_name)
            G = R.G
            image = _LazyImage(self, type_name, R.perm)
            sweep = [self._job(type_name, G, H, idx, sig, image)
                     for H in groups.enumerate_subgroups(G) if H.is_central()
                     for idx, sig in enumerate(cocycles.all_classes(H))]
            jobs += sweep + sweep
        return jobs

    def _job(self, type_name, G, H, idx, sig, image):
        def run():
            ext = cocycles.extend_class(sig, G)
            if ext is None:
                return None, None
            return ext, cocycles.classes_equivalent(cocycles.restrict(ext, H), sig)

        table, members = G.mul_table, H.members
        mat, modulus = sig.mat.copy(), sig.modulus
        return Job(label=f"extend {type_name} H={list(members)} class {idx}",
                   run=run,
                   check=lambda ans: oracles.check_extension(
                       table, members, mat, modulus, ans, image.get()))

    def image_data(self, type_name):
        """Class representatives of the type in its base labeling, from an
        H^2 computed outside the timed passes on a separate group object,
        with the oracle's verdict on them: they must have the Kuenneth/Schur
        invariant factors, be cocycles and generate classes that are
        pairwise distinct, so that they span all of H^2."""
        if type_name not in self._image_data:
            table = self.base_table(type_name)
            desc = cocycles.h2_over_Fstar(groups.FiniteGroup(table, order_cap=None))
            mats = [r.mat for r in desc.representatives]
            problem = (oracles.check_h2(table, groupgen.expected_h2(groupgen.parse_type(type_name)),
                                        desc)
                       or oracles.classes_independent(table, desc.invariant_factors, mats,
                                                      desc.base_modulus))
            self._image_data[type_name] = (desc.invariant_factors, mats, desc.base_modulus,
                                           problem)
        return self._image_data[type_name]


class _LazyImage:
    """The restriction image of one relabeled group, built on first use."""

    def __init__(self, workload, type_name, perm):
        self.workload, self.type_name, self.perm = workload, type_name, perm
        self._image = None

    def get(self):
        if self._image is None:
            factors, mats, modulus, problem = self.workload.image_data(self.type_name)
            if problem:
                raise ValueError(f"class representatives of {self.type_name}: {problem}")
            p = np.asarray(self.perm)
            relabeled = []
            for m in mats:
                out = np.zeros_like(m)
                out[np.ix_(p, p)] = m
                relabeled.append(out)
            self._image = oracles.RestrictionImage(factors, relabeled, modulus)
        return self._image


# -- embed ---------------------------------------------------------------------------

class Embed(Workload):
    """Embedding and isomorphism decisions with their witness verification.

    The pairs of each type are drawn once on its base table; each pass
    carries them over to a fresh relabeling. Set-up enumerates subgroups
    and classes, builds the algebras and the planted regradings, then
    settles the class-equivalence solvers by running the pass once
    untimed, so the timed pass measures warm decisions. Random pairs are
    drawn with the source support inside the target support, so every
    decision reaches the class comparison; planted regradings must all be
    "yes".
    """

    name = "embed"
    # the settling run already warmed every cache the decisions use; the
    # per-pass set-up takes longer than one timed run, so each pass times
    # its job list several times
    timed_reps = 6
    TYPES = ("C2xC2", "C4", "C2xC4", "Q8", "S3", "D4", "C4xC4", "C2xC2xC4")
    RANDOM_PAIRS = 32
    # (k, largest support order) of the planted regradings. Each is decided
    # by matrix_iso and matrix_embed, except the last: the k = 4 pairs (dim
    # 64 over an order-4 support) are the heaviest jobs of every group, and
    # deciding each by one function, iso and embed on alternate types, makes
    # them about 2% of the jobs, so the tail job (1% beyond it) falls in the
    # middle of that homogeneous block, not in its noisy upper end
    PLANTED = ((1, 16), (2, 8), (3, 4), (4, 4))

    def __init__(self, seed):
        super().__init__(seed)
        self._plans = {}

    def warm_up(self):
        for type_name in self.TYPES:
            self.plan(type_name)

    def generate(self):
        jobs = []
        for type_name in self.TYPES:
            jobs.extend(self._group_jobs(type_name))
        self.rng.shuffle(jobs)
        return jobs

    def settle(self, jobs):
        for job in jobs:
            try:
                job.run()
            except Exception:  # the timed pass runs it again and records the failure
                pass

    def _group_jobs(self, type_name):
        R = self.fresh_group(type_name)
        subs = groups.enumerate_subgroups(R.G)
        for H in subs:
            cocycles.all_classes(H)
        R.use_subgroups(subs)
        jobs = []
        for kind, A, B in self.plan(type_name):
            if kind[0] == "regrade":
                A = R.algebra(A)
                T, _ = matalg.regrade_iso(A, R.witness(B))
                for fn in kind[1]:
                    jobs.append(_decision_job(type_name, fn, A, T, planted=True))
            else:
                fn, planted = kind
                jobs.append(_decision_job(type_name, fn, R.algebra(A), R.algebra(B), planted))
        return jobs

    def plan(self, type_name):
        """The type's pairs on its base group: (("regrade", functions), A,
        witness) for a planted regrading, else ((function, planted), A, B)."""
        if type_name not in self._plans:
            self._plans[type_name] = self._draw_plan(type_name)
        return self._plans[type_name]

    def _draw_plan(self, type_name):
        rng = random.Random(f"perfbench embed {type_name}")
        G = self.base_group(type_name)
        subs = groups.enumerate_subgroups(G)
        classes = {H.members: cocycles.all_classes(H) for H in subs}
        norms = {H.members: groups.normalizer(G, H) for H in subs}

        def tga(H):
            cls = classes[H.members]
            return twisted.TwistedGroupAlgebra(H, cls[rng.randrange(len(cls))])

        def matrix(H, k):
            N = norms[H.members]
            theta = tuple(N.members[rng.randrange(N.order)] for _ in range(k))
            return matalg.GradedMatrixAlgebra(tga(H), theta)

        def inside(H):
            return rng.choice([K for K in subs if set(K.members) <= set(H.members)])

        both = ("matrix_iso", "matrix_embed")
        plan = []
        for i, (k, cap) in enumerate(self.PLANTED):
            top = max(H.order for H in subs if H.order <= cap)
            H = rng.choice([H for H in subs if H.order == top])
            A = matrix(H, k)
            fns = both if i + 1 < len(self.PLANTED) else (both[self.TYPES.index(type_name) % 2],)
            plan.append((("regrade", fns), A, _random_regrading(rng, A, norms[H.members])))
        H = rng.choice(subs)
        B = tga(H)
        plan.append((("twisted_iso", True), B, _cohomologous(rng, B)))
        K = inside(H)
        plan.append((("twisted_embed", True),
                     twisted.TwistedGroupAlgebra(K, cocycles.restrict(B.sigma, K)), B))
        for _ in range(self.RANDOM_PAIRS):
            fn = rng.choice(("twisted_embed", "twisted_iso", "matrix_embed", "matrix_iso"))
            H2 = rng.choice(subs)
            H1 = H2 if fn.endswith("iso") else inside(H2)
            if fn.startswith("twisted"):
                A, B = tga(H1), tga(H2)
            else:
                k2 = rng.randint(1, 2)
                k1 = k2 if fn.endswith("iso") else rng.randint(1, k2)
                A, B = matrix(H1, k1), matrix(H2, k2)
            plan.append(((fn, False), A, B))
        return plan


def _random_regrading(rng, A, N):
    alpha = list(range(1, A.k + 1))
    rng.shuffle(alpha)
    return matalg.LambdaWitness(
        delta=N.members[rng.randrange(N.order)],
        alpha=tuple(alpha),
        xis=tuple(A.subgroup.members[rng.randrange(A.subgroup.order)] for _ in range(A.k)))


def _cohomologous(rng, B):
    """B with its cocycle moved by the coboundary of a random function."""
    sig = B.sigma
    H = sig.domain
    M = sig.modulus
    f = np.array([0] + [rng.randrange(M) for _ in range(H.order - 1)], dtype=np.int64)
    mul = np.array([[H.position(H.parent.mul_table[a][b]) for b in H.members]
                    for a in H.members], dtype=np.int64)
    mat = (sig.mat + f[:, None] + f[None, :] - f[mul]) % M
    return twisted.TwistedGroupAlgebra(H, cocycles.ExpCocycle(H, M, mat))


def _decision_job(type_name, fn_name, A, B, planted):
    want_iso = fn_name.endswith("iso")

    def run():
        return getattr(embed, fn_name)(A, B)

    return Job(label=f"{fn_name} {type_name}{' planted' if planted else ''}",
               run=run,
               check=lambda report: oracles.check_decision(report, A, B, want_iso, planted))


# -- identities ----------------------------------------------------------------------

class Identities(Workload):
    """Multilinear containment up to degree 3 for twisted group algebras over
    V4, C4 and Q8 (degree 2 for M_2 over V4 and C4), and identity spaces at
    degree-4 assignments for the twisted algebras and M_2. Twists: the sign
    class on V4, coboundary twists on C4 and Q8. The algebras, pair
    directions and assignments are drawn once on the base tables; each pass
    carries them over to fresh relabelings.

    Per pass, five jobs (two identity spaces of twisted group algebras and
    three M_2 containments) are cheaper than the nine degree-3 V4 and C4
    containments, which cost about the same, and five are dearer (two M_2
    identity spaces, three Q8 containments), so the median job is the
    middle one of those nine. The three Q8 containments cost about the same
    and are the dearest, so the tail job is one of them. A run has at least
    five passes, so that the Q8 block holds at least 15 jobs and the tail
    (10 jobs beyond it) stays inside it."""

    name = "identities"
    min_passes = 5
    N_MAX = 3
    SPACE_DEGREE = 4
    TYPES = ("C2xC2", "C4", "Q8")

    def __init__(self, seed):
        super().__init__(seed)
        self._plan = None

    def warm_up(self):
        _, type_name, A, B, _ = self.plan()[0][0]
        R = self.fresh_group(type_name)
        identities.multilinear_containment(R.algebra(A), R.algebra(B), 2)

    def plan(self):
        """(containments, spaces) on the base groups: (label, type, A, B, n)
        and (label, type, B, degs)."""
        if self._plan is None:
            self._plan = self._draw_plan()
        return self._plan

    def _draw_plan(self):
        rng = random.Random("perfbench identities")
        V, C, Q = (self.base_group(t) for t in self.TYPES)
        v_plain = twisted.TwistedGroupAlgebra(V.full_subgroup())
        v_sign = _klein_sign(rng, V)
        v_sign2 = _klein_sign(rng, V)
        c_plain = twisted.TwistedGroupAlgebra(C.full_subgroup())
        c_twist = _cohomologous(rng, c_plain)
        c_twist2 = _cohomologous(rng, c_plain)
        q_plain = twisted.TwistedGroupAlgebra(Q.full_subgroup())
        q_twist = _cohomologous(rng, q_plain)
        q_other = _cohomologous(rng, q_plain)

        def m2(B):
            G = B.ambient
            return matalg.GradedMatrixAlgebra(B, (0, 1 + rng.randrange(G.order - 1)))

        def pair(a, b):
            return (a, b) if rng.random() < 0.5 else (b, a)

        n = self.N_MAX
        v, c, q = self.TYPES
        containments = [
            ("V4", v, v_plain, v_sign, n),
            ("V4", v, v_sign, v_plain, n),
            ("V4", v, v_sign, v_sign2, n),
            ("V4", v, v_sign2, v_plain, n),
            ("V4", v, v_plain, v_sign2, n),
            ("V4", v, v_sign2, v_sign, n),
            ("C4", c, c_plain, c_twist, n),
            ("C4", c, c_twist, c_plain, n),
            ("C4", c, c_twist, c_twist2, n),
            ("Q8", q, q_plain, q_twist, n),
            ("Q8", q, q_twist, q_plain, n),
            ("Q8", q, q_twist, q_other, n),
            ("M2(V4)", v, m2(v_plain), m2(v_sign), 2),
            ("M2(V4)", v, m2(v_sign), m2(v_plain), 2),
            ("M2(C4)", c, *pair(m2(c_plain), m2(c_twist)), 2),
        ]
        spaces = []
        for tag, type_name, B in (("M2(V4)", v, m2(v_sign)), ("M2(C4)", c, m2(c_twist)),
                                  ("V4", v, v_sign), ("Q8", q, q_twist)):
            support = sorted(B.support())
            degs = tuple(rng.choice(support) for _ in range(self.SPACE_DEGREE))
            spaces.append((tag, type_name, B, degs))
        return containments, spaces

    def generate(self):
        containments, spaces = self.plan()
        rel = {t: self.fresh_group(t) for t in self.TYPES}
        jobs = [_containment_job(tag, rel[t].algebra(A), rel[t].algebra(B), n)
                for tag, t, A, B, n in containments]
        for tag, t, B, degs in spaces:
            R = rel[t]
            jobs.append(_space_job(tag, R.algebra(B), tuple(R.perm[g] for g in degs)))
        self.rng.shuffle(jobs)
        return jobs


def _klein_sign(rng, V):
    """F^sigma[V4] for the sign class: r(x, y) = x_b * y_a in coordinates
    x = a^x_a b^x_b over a seeded basis a, b of V4."""
    H = V.full_subgroup()
    a, b = rng.sample(range(1, 4), 2)
    coords = {0: (0, 0), a: (1, 0), b: (0, 1), V.mul_table[a][b]: (1, 1)}
    mat = [[coords[x][1] * coords[y][0] for y in H.members] for x in H.members]
    return twisted.TwistedGroupAlgebra(H, cocycles.ExpCocycle(H, 2, mat))


def _containment_job(tag, A, B, n_max):
    return Job(label=f"contain {tag} n<={n_max}",
               run=lambda: identities.multilinear_containment(A, B, n_max),
               check=lambda report: oracles.check_containment(A, B, n_max, report))


def _space_job(tag, B, degs):
    assignment = identities.DegreeAssignment(degs)
    return Job(label=f"identity_space {tag} {degs}",
               run=lambda: identities.identity_space(B, assignment),
               check=lambda space: oracles.check_identity_space(B, degs, space))


WORKLOADS = {w.name: w for w in (H2, Extend, Embed, Identities)}
