import random
from itertools import product

import pytest

from wpo.badseq import lower_set_of, shape_from_ordinal
from wpo.lowerset import GeneralLowerSet, UNBOUNDED, full_space
from wpo.monomial import (
    MonomialIdeal,
    complement_ideal,
    complement_lowerset,
    format_ideal,
    parse_ideal,
    pretty_ideal,
    unit_ideal,
    zero_ideal,
)
from wpo.oracles import brute_equal, rand_gls
from wpo.ordinal import Ordinal, from_int, parse_ordinal as o

W = UNBOUNDED


def rand_ideal(rng, dim, max_exp=5, max_gens=4):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(dim))
            for _ in range(rng.randint(0, max_gens))]
    return MonomialIdeal.make(dim, gens)


class TestMinimalGenerators:
    def test_divisible_generators_dropped(self):
        i = MonomialIdeal.make(2, [(2, 1), (3, 3), (2, 2), (0, 4)])
        assert i.gens == ((0, 4), (2, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((2, 1), (2, 2)))
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, -1),))
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 1, 1),))

    def test_make_builds_what_the_constructor_accepts(self):
        rng = random.Random(13)
        for dim in (1, 2, 3, 4):
            for _ in range(100):
                for i in (rand_ideal(rng, dim, max_gens=8),
                          complement_ideal(rand_gls(rng, dim, max_rects=8))):
                    assert MonomialIdeal(i.dim, i.gens) == i

    def test_zero_and_unit(self):
        assert zero_ideal(2).is_zero and not zero_ideal(2).is_unit
        assert unit_ideal(2).is_unit and not unit_ideal(2).is_zero
        assert unit_ideal(2).member((0, 0))
        assert not zero_ideal(2).member((5, 5))


class TestMembershipInclusion:
    def test_member_is_divisibility(self):
        i = MonomialIdeal.make(2, [(2, 0), (1, 1)])
        assert i.member((2, 0)) and i.member((2, 5)) and i.member((1, 1))
        assert not i.member((1, 0)) and not i.member((0, 9))

    def test_includes_via_generators(self):
        i = MonomialIdeal.make(2, [(1, 0)])
        j = MonomialIdeal.make(2, [(2, 3)])
        assert i.includes(j) and not j.includes(i)
        assert unit_ideal(2).includes(i) and i.includes(zero_ideal(2))

    def test_intersect_pinned(self):
        i = MonomialIdeal.make(2, [(2, 0)])
        j = MonomialIdeal.make(2, [(0, 3), (1, 1)])
        assert i.intersect(j).gens == ((2, 1),)
        assert i.intersect(zero_ideal(2)).is_zero
        assert i.intersect(unit_ideal(2)) == i

    def test_intersect_against_membership(self):
        rng = random.Random(41)
        for _ in range(150):
            dim = rng.choice([2, 3])
            i, j = rand_ideal(rng, dim), rand_ideal(rng, dim)
            k = i.intersect(j)
            for p in product(range(7), repeat=dim):
                assert k.member(p) == (i.member(p) and j.member(p))


class TestDegree:
    def test_pinned(self):
        assert MonomialIdeal.make(2, [(2, 7), (6, 2)]).degree() == 9
        assert unit_ideal(3).degree() == 0
        with pytest.raises(ValueError):
            zero_ideal(2).degree()


class TestComplement:
    def test_pinned_staircase(self):
        d = GeneralLowerSet.make(2, [(2, W), (W, 2), (6, 7)])
        ci = complement_ideal(d)
        assert ci.gens == ((2, 7), (6, 2))
        assert pretty_ideal(ci) == "X^2*Y^7, X^6*Y^2"
        assert ci.degree() == 9

    def test_empty_and_full(self):
        assert complement_ideal(GeneralLowerSet.make(2, [])).is_unit
        assert complement_ideal(full_space(2)).is_zero
        assert complement_lowerset(zero_ideal(2)) == full_space(2)
        assert complement_lowerset(unit_ideal(2)).rects == ()

    def test_membership_law(self):
        rng = random.Random(43)
        for _ in range(200):
            dim = rng.choice([1, 2, 3])
            s = rand_gls(rng, dim)
            i = complement_ideal(s)
            b = s.max_finite_extent + 1
            for p in product(range(b + 1), repeat=dim):
                assert i.member(p) != s.member(p)

    def test_round_trips(self):
        rng = random.Random(47)
        for _ in range(150):
            dim = rng.choice([2, 3])
            s = rand_gls(rng, dim)
            assert brute_equal(complement_lowerset(complement_ideal(s)), s)
            i = rand_ideal(rng, dim)
            assert complement_ideal(complement_lowerset(i)) == i

    def test_staircase_pattern(self):
        """The complement of a slab-and-steps staircase reads its
        generators straight off consecutive extents."""
        rng = random.Random(53)
        for _ in range(100):
            p, q = rng.randint(0, 4), rng.randint(0, 4)
            exps = sorted(rng.sample(range(8), rng.randint(0, 3)), reverse=True)
            terms = [(e, c) for e, c in ((o("w+1"), p), (o("w"), q)) if c]
            terms += [(from_int(a), rng.randint(1, 4)) for a in exps]
            alpha = Ordinal(tuple(terms))
            rects, _ = shape_from_ordinal(alpha, 2)
            stair = sorted((r for r in rects if W not in r), reverse=True)
            xs = [r[0] for r in stair] + [p]
            ys = [q] + [r[1] for r in stair]
            want = MonomialIdeal.make(2, list(zip(xs, ys)))
            assert complement_ideal(lower_set_of(alpha, 2)) == want


class TestTextForm:
    def test_round_trip(self):
        i = MonomialIdeal.make(2, [(2, 0), (0, 3)])
        assert format_ideal(i) == "(0,3);(2,0)"
        assert parse_ideal("(0,3);(2,0)") == i
        assert parse_ideal("0", 2).is_zero
        assert format_ideal(zero_ideal(2)) == "0"
        rng = random.Random(59)
        for _ in range(80):
            j = rand_ideal(rng, rng.choice([1, 2, 3]))
            assert parse_ideal(format_ideal(j), j.dim) == j

    def test_pretty(self):
        assert pretty_ideal(unit_ideal(2)) == "1"
        assert pretty_ideal(zero_ideal(2)) == "0"
        assert pretty_ideal(MonomialIdeal.make(3, [(1, 0, 2)])) == "X*Z^2"
        assert pretty_ideal(MonomialIdeal.make(4, [(1, 0, 0, 3)])) == "X1*X4^3"

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            parse_ideal("(1,2);bad")
        with pytest.raises(ValueError):
            parse_ideal("0")  # dimension unknown
