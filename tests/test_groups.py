"""
Unit tests for the finite group layer: constructors, table validation,
and the subgroup machinery (closure, normalizers, conjugates).
"""
import tracemalloc
import unittest

from gradalg.errors import NotASubgroup, OrderCapExceeded, SpecMalformed, TableInvalid
from gradalg.groups import (
    FiniteGroup,
    Subgroup,
    closure,
    conjugate_subgroup,
    cyclic,
    dihedral,
    enumerate_subgroups,
    is_central_in,
    normalizer,
    parse_spec,
    product,
    quaternion8,
    symmetric,
)


def _abelian(G):
    return len(G.center) == G.order


def _normal(H):
    return normalizer(H.parent, H).order == H.parent.order


class TestConstructors(unittest.TestCase):
    def test_cyclic_basics(self):
        G = cyclic(6)
        self.assertEqual(G.order, 6)
        self.assertTrue(_abelian(G))
        self.assertEqual(G.exponent, 6)
        for a in range(6):
            for b in range(6):
                self.assertEqual(G.mul(a, b), (a + b) % 6)
            self.assertEqual(G.mul(a, G.inv(a)), 0)

    def test_cyclic_element_orders(self):
        G = cyclic(12)
        self.assertEqual(G.element_order(0), 1)
        self.assertEqual(G.element_order(1), 12)
        self.assertEqual(G.element_order(4), 3)
        self.assertEqual(G.element_order(6), 2)

    def test_dihedral(self):
        G = dihedral(4)
        self.assertEqual(G.order, 8)
        self.assertFalse(_abelian(G))
        self.assertEqual(len(G.center), 2)
        # rotations form an index-2 cyclic subgroup
        rot = Subgroup(G, range(4))
        self.assertTrue(_normal(rot))
        self.assertEqual(rot.exponent, 4)

    def test_dihedral_small_is_abelian(self):
        self.assertTrue(_abelian(dihedral(1)))
        self.assertTrue(_abelian(dihedral(2)))

    def test_quaternion(self):
        G = quaternion8()
        self.assertEqual(G.order, 8)
        self.assertFalse(_abelian(G))
        involutions = [x for x in range(G.order) if G.element_order(x) == 2]
        self.assertEqual(len(involutions), 1)
        self.assertEqual(G.center, (0, involutions[0]))
        self.assertTrue(all(_normal(H) for H in enumerate_subgroups(G)))

    def test_symmetric(self):
        G = symmetric(3)
        self.assertEqual(G.order, 6)
        self.assertFalse(_abelian(G))
        self.assertFalse(all(_normal(H) for H in enumerate_subgroups(G)))
        self.assertEqual(symmetric(4).order, 24)
        # composition convention: (12) then (23) maps 1 -> 2 -> 3
        t12 = G.element_by_label("(12)")
        t23 = G.element_by_label("(23)")
        prod = G.mul(t23, t12)
        self.assertIn(G.label_of(prod), ("(123)", "(132)"))

    def test_symmetric_labels_round_trip(self):
        G = symmetric(3)
        for x in range(G.order):
            self.assertEqual(G.element_by_label(G.label_of(x)), x)

    def test_product(self):
        G = product(cyclic(2), cyclic(4))
        self.assertEqual(G.order, 8)
        self.assertTrue(_abelian(G))
        self.assertEqual(G.exponent, 4)
        H = product(cyclic(2), symmetric(3))
        self.assertEqual(H.order, 12)
        self.assertFalse(_abelian(H))

    def test_parse_spec(self):
        self.assertEqual(parse_spec("C4").order, 4)
        self.assertEqual(parse_spec("C2xC2").order, 4)
        self.assertEqual(parse_spec("D4").order, 8)
        self.assertEqual(parse_spec("Q8").order, 8)
        self.assertEqual(parse_spec("S3xC2").order, 12)
        with self.assertRaises(SpecMalformed):
            parse_spec("")
        with self.assertRaises(SpecMalformed):
            parse_spec("Zoo")

    def test_order_cap(self):
        with self.assertRaises(OrderCapExceeded):
            cyclic(65)
        with self.assertRaises(OrderCapExceeded):
            product(cyclic(8), cyclic(16))
        self.assertEqual(cyclic(65, order_cap=None).order, 65)
        with self.assertRaises(OrderCapExceeded):
            parse_spec("C4xC4", order_cap=8)

    def test_parse_spec_checks_cap_before_building(self):
        # an over-cap factor must fail before its 10^6-entry table exists
        for spec in ("C1000", "C2xC1000"):
            tracemalloc.start()
            try:
                with self.assertRaises(OrderCapExceeded):
                    parse_spec(spec, order_cap=64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.assertLess(peak, 1 << 20, spec)


class TestTableValidation(unittest.TestCase):
    def test_row_not_bijective(self):
        with self.assertRaises(TableInvalid):
            FiniteGroup([[0, 1], [1, 1]])

    def test_zero_not_neutral(self):
        with self.assertRaises(TableInvalid):
            FiniteGroup([[1, 0], [0, 1]])

    def test_ragged_row(self):
        with self.assertRaises(TableInvalid):
            FiniteGroup([[0, 1], [1]])

    def test_entry_out_of_range(self):
        with self.assertRaises(TableInvalid):
            FiniteGroup([[0, 1], [1, 2]])

    def test_not_associative(self):
        # row/column latin square with 0 neutral, but not a group table
        bad = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with self.assertRaises(TableInvalid):
            FiniteGroup(bad)

    def test_empty(self):
        with self.assertRaises(TableInvalid):
            FiniteGroup([])


class TestSubgroups(unittest.TestCase):
    def setUp(self):
        self.S3 = symmetric(3)
        self.t12 = self.S3.element_by_label("(12)")
        self.t13 = self.S3.element_by_label("(13)")
        self.t23 = self.S3.element_by_label("(23)")

    def gen(self, *xs):
        return Subgroup(self.S3, closure(self.S3, xs))

    def test_not_closed(self):
        with self.assertRaises(NotASubgroup):
            Subgroup(cyclic(4), (0, 1))

    def test_missing_identity(self):
        with self.assertRaises(NotASubgroup):
            Subgroup(cyclic(4), (2,))

    def test_closure(self):
        self.assertEqual(closure(self.S3, [self.t12]), frozenset({0, self.t12}))
        self.assertEqual(len(closure(self.S3, [self.t12, self.t13])), 6)

    def test_subgroup_count_s3(self):
        subs = enumerate_subgroups(self.S3)
        self.assertEqual(len(subs), 6)
        self.assertEqual([H.order for H in subs], [1, 2, 2, 2, 3, 6])

    def test_subgroup_count_klein(self):
        V4 = product(cyclic(2), cyclic(2))
        self.assertEqual(len(enumerate_subgroups(V4)), 5)

    def test_conjugates_of_transposition_subgroup(self):
        H = self.gen(self.t12)
        seen = {conjugate_subgroup(H, d).members for d in range(self.S3.order)}
        expected = {self.gen(t).members for t in (self.t12, self.t13, self.t23)}
        self.assertEqual(seen, expected)

    def test_normalizer_of_transposition_subgroup(self):
        H = self.gen(self.t12)
        self.assertEqual(normalizer(self.S3, H).members, H.members)

    def test_normalizer_of_rotation_subgroup(self):
        A3 = self.gen(self.S3.element_by_label("(123)"))
        self.assertEqual(normalizer(self.S3, A3).order, 6)

    def test_centrality(self):
        Q8 = quaternion8()
        Z = Subgroup(Q8, Q8.center)
        self.assertTrue(Z.is_central())
        self.assertTrue(is_central_in(Z, Q8.full_subgroup()))
        H = self.gen(self.t12)
        self.assertTrue(is_central_in(H, H))
        self.assertFalse(is_central_in(H, self.S3.full_subgroup()))

    def test_containment_and_position(self):
        C8 = cyclic(8)
        H = Subgroup(C8, (0, 4))
        K = Subgroup(C8, (0, 2, 4, 6))
        self.assertTrue(H <= K)
        self.assertFalse(K <= H)
        self.assertIn(4, H)
        self.assertNotIn(2, H)
        self.assertEqual(K.position(4), 2)
        self.assertEqual(K.exponent, 4)

    def test_structural_equality(self):
        a = cyclic(4)
        b = cyclic(4)
        self.assertIsNot(a, b)
        self.assertTrue(a == b)
        self.assertTrue(a != product(cyclic(2), cyclic(2)))
        self.assertTrue(Subgroup(a, (0, 2)) == Subgroup(b, (0, 2)))
        self.assertTrue(Subgroup(a, (0, 2)) != b.full_subgroup())


class TestCachePolicy(unittest.TestCase):
    def test_build_runs_once_per_key(self):
        G = cyclic(4)
        calls = []
        build = lambda: calls.append(1) or len(calls)  # noqa: E731
        self.assertEqual(G.cached("probe", build), 1)
        self.assertEqual(G.cached("probe", build), 1)
        self.assertEqual(G.cached(("probe", 2), build), 2)
        self.assertEqual(len(calls), 2)

    def test_failed_build_stores_nothing(self):
        G = cyclic(4)
        calls = []

        def build():
            calls.append(1)
            raise ValueError("no value")

        for _ in range(2):
            with self.assertRaises(ValueError):
                G.cached("probe", build)
        self.assertEqual(len(calls), 2)
        self.assertEqual(G.cached("probe", lambda: 7), 7)

    def test_equal_subgroups_share_their_values(self):
        G = dihedral(4)
        H, K = Subgroup(G, (0, 2)), Subgroup(G, (2, 0))
        self.assertIsNot(H, K)
        self.assertIs(H.position_array, K.position_array)
        self.assertIsNot(Subgroup(cyclic(8), (0, 4)).position_array,
                         Subgroup(cyclic(8), (0, 4)).position_array)

    def test_full_and_trivial_subgroups_are_built_once(self):
        G = quaternion8()
        self.assertIs(G.full_subgroup(), G.full_subgroup())
        self.assertIs(G.trivial_subgroup(), G.trivial_subgroup())
        self.assertEqual(G.full_subgroup().members, tuple(range(8)))
        self.assertEqual(G.trivial_subgroup().members, (0,))
        self.assertEqual(G.exponent, G.full_subgroup().exponent)


if __name__ == "__main__":
    unittest.main()
