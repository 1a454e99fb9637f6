import ast
import random
import time
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from support import rand_point
from wpo import lowerset
from wpo.lowerset import (
    GeneralLowerSet,
    PartialSpecification,
    UNBOUNDED,
    UnboundedError,
    closure,
    complement_points,
    compose_parts,
    decompose_parts,
    enumerate_fls,
    enumerate_gls,
    format_fls,
    format_gls,
    from_complement,
    from_finite,
    full_space,
    full_specification,
    generators,
    intersection_image,
    is_compatible,
    parse_fls,
    parse_gls,
    preimage,
    project,
    read_box,
    to_finite,
    trivial_specification,
    validate_specification,
)
from wpo.linearize import MonotoneReport, RankAssignment
from wpo.monomial import MonomialIdeal
from wpo.oracles import (OracleReport, brute_equal, brute_includes, grid, grid_bound, naive_hardy,
                         rand_gls, rand_proper_gls)
from wpo.ordinal import OMEGA, ONE, DescentTrace, HardyOutcome, Ordinal
from wpo.vectors import dominates, maximal_points, minimal_points

W = UNBOUNDED


def brute_intersection_image(s, coords):
    """Pointwise fiber check over the saturated grid."""
    coords = sorted(coords)
    rest = [i for i in range(s.dim) if i not in coords]
    b = grid_bound(s)
    kept = []
    for p in grid(b, len(coords)):
        full_fiber = True
        for q in grid(b, len(rest)):
            point = [0] * s.dim
            for i, v in zip(coords, p):
                point[i] = v
            for i, v in zip(rest, q):
                point[i] = v
            if not s.member(tuple(point)):
                full_fiber = False
                break
        if full_fiber:
            kept.append(p)
    return kept


class TestFiniteLowerSet:
    def test_closure_keeps_maximal_points(self):
        f = closure([(0, 0), (2, 1), (1, 1), (2, 0)], 2)
        assert generators(f) == ((2, 1),)
        assert f.rects == ((3, 2),)
        assert closure(iter([(0, 0), (2, 1)]), 2) == f

    def test_antichain_validation(self):
        # the raw constructor takes the canonical form only; closure sorts
        # and drops dominated points, but refuses points that are not in N^dim
        with pytest.raises(ValueError):
            GeneralLowerSet(2, ((2, 2), (1, 1)))
        assert closure([(1, 1), (0, 0)], 2) == closure([(1, 1)], 2)
        # checked before the +1 shift: (1, -1) must not become the empty
        # box (2, 0) and vanish
        with pytest.raises(ValueError, match=r"bad generator \(1, -1\) for dimension 2"):
            closure([(1, -1)], 2)
        with pytest.raises(ValueError, match=r"bad generator \(1, 1, 1\) for dimension 2"):
            closure([(1, 1, 1)], 2)

    def test_closure_rejects_bad_points(self):
        for bad in [(0, 0), (1, -1)], [(3,)], [(1.0, 2)], [(1, "2")], [(None, 0)]:
            with pytest.raises(ValueError, match="bad generator"):
                closure(bad, 2)

    def test_member(self):
        f = closure([(2, 1), (0, 3)], 2)
        assert f.member((2, 1)) and f.member((0, 0)) and f.member((0, 3))
        assert not f.member((2, 2)) and not f.member((1, 2)) and not f.member((3, 0))

    def test_union_intersect_against_points(self):
        rng = random.Random(5)
        for _ in range(200):
            f = closure([rand_point(rng, 2, 4) for _ in range(rng.randint(0, 3))], 2)
            g = closure([rand_point(rng, 2, 4) for _ in range(rng.randint(0, 3))], 2)
            u, v = f.union(g), f.intersect(g)
            for p in product(range(6), repeat=2):
                assert u.member(p) == (f.member(p) or g.member(p))
                assert v.member(p) == (f.member(p) and g.member(p))

    def test_includes(self):
        small = closure([(1, 1)], 2)
        big = closure([(2, 1), (0, 3)], 2)
        assert big.includes(small)
        assert not small.includes(big)
        assert big.includes(closure([(2, 0)], 2))
        assert not closure([(2, 0)], 2).includes(big)

    def test_text_round_trip(self):
        f = closure([(0, 3), (2, 1)], 2)
        assert format_fls(f) == "{(0,3);(2,1)}"
        assert parse_fls("{(0,3);(2,1)}") == f
        assert parse_fls("{}", dim=3) == closure([], 3) == GeneralLowerSet.make(3, [])
        with pytest.raises(ValueError):
            parse_fls("{}")
        with pytest.raises(ValueError):
            parse_fls("(1,2)")


class TestCanonicalForm:
    def test_dominated_and_empty_boxes_dropped(self):
        s = GeneralLowerSet.make(2, [(1, W), (3, 2), (2, 2), (3, 1), (0, 5)])
        assert s.rects == ((1, W), (3, 2))

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(300):
            s = rand_gls(rng, rng.choice([1, 2, 3]))
            assert GeneralLowerSet.make(s.dim, s.rects).rects == s.rects

    def test_input_order_irrelevant(self):
        rects = [(3, 1), (1, 3), (2, 2)]
        a = GeneralLowerSet.make(2, rects)
        b = GeneralLowerSet.make(2, rects[::-1])
        assert a == b

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            GeneralLowerSet(2, ((3, 2), (1, W)))  # unsorted
        with pytest.raises(ValueError):
            GeneralLowerSet(2, ((1, W), (3, 2), (3, 2)))  # duplicate
        with pytest.raises(ValueError):
            GeneralLowerSet(2, ((1, 1), (2, 2)))  # (1, 1) lies inside (2, 2)
        with pytest.raises(ValueError):
            GeneralLowerSet.make(2, [(1.5, 2)])
        with pytest.raises(ValueError):
            GeneralLowerSet.make(2, [(-1, 2)])
        for rects in ([(1, 2, 3)], [(0,), (1, 2)], [(0, -1)], [(0, 1.5)]):
            with pytest.raises(ValueError):
                GeneralLowerSet.make(2, rects)

    def test_make_builds_what_the_constructor_accepts(self):
        rng = random.Random(12)
        for dim in (1, 2, 3, 4):
            for _ in range(100):
                s = rand_gls(rng, dim, max_rects=8)
                assert GeneralLowerSet(s.dim, s.rects) == s

    def test_member(self):
        s = GeneralLowerSet.make(2, [(2, W), (W, 2)])
        assert s.member((1, 10**9)) and s.member((10**9, 1))
        assert not s.member((2, 2))


class TestInclusion:
    def test_pinned(self):
        s = GeneralLowerSet.make(2, [(1, W), (3, 2)])
        t = GeneralLowerSet.make(2, [(3, W)])
        assert t.includes(s) and not s.includes(t)
        assert s.includes(s)
        assert s.includes(GeneralLowerSet.make(2, []))
        assert full_space(2).includes(s) and not s.includes(full_space(2))

    def test_against_grid(self):
        rng = random.Random(3)
        for dim in (1, 2, 3, 4):
            for _ in range(150):
                s, t = rand_gls(rng, dim), rand_gls(rng, dim)
                assert t.includes(s) == brute_includes(s, t)

    def test_same_set_is_semantic(self):
        a = GeneralLowerSet.make(2, [(2, 2), (2, 1), (1, 2)])
        b = GeneralLowerSet.make(2, [(2, 2)])
        assert a == b and a.same_set(b)

    def test_same_set_against_grid(self):
        rng = random.Random(8)
        for dim in (1, 2, 3):
            for _ in range(100):
                s = rand_gls(rng, dim, max_extent=2, max_rects=3)
                t = rand_gls(rng, dim, max_extent=2, max_rects=3)
                assert s.same_set(t) == brute_equal(s, t)
                u = s.union(s.intersect(t))  # s again, reached another way
                assert s.same_set(u) and brute_equal(s, u)

    def test_union_intersect_against_grid(self):
        rng = random.Random(4)
        for _ in range(150):
            dim = rng.choice([2, 3])
            s, t = rand_gls(rng, dim), rand_gls(rng, dim)
            u, v = s.union(t), s.intersect(t)
            b = grid_bound(s, t, u, v)
            for p in grid(b, dim):
                assert u.member(p) == (s.member(p) or t.member(p))
                assert v.member(p) == (s.member(p) and t.member(p))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GeneralLowerSet.make(2, []).includes(GeneralLowerSet.make(3, []))


class TestFiniteBridge:
    def test_round_trip_pinned(self):
        f = closure([(0, 1), (1, 0)], 2)
        g = from_finite(f)
        assert format_gls(g) == "[1,2]u[2,1]"
        assert to_finite(g) == f
        assert generators(f) == ((0, 1), (1, 0))

    def test_round_trip_enumerated(self):
        for f in enumerate_fls((3, 3)):
            assert to_finite(from_finite(f)) == f
            assert closure(generators(f), 2) == f
            assert parse_fls(format_fls(f), 2) == f

    def test_unbounded_rejected(self):
        s = GeneralLowerSet.make(2, [(1, W)])
        for convert in (to_finite, generators, format_fls):
            with pytest.raises(UnboundedError):
                convert(s)

    def test_membership_preserved(self):
        """closure against the downward closure over a grid, and its
        generators against the maximal points."""
        rng = random.Random(9)
        for _ in range(300):
            dim = rng.randint(1, 4)
            pts = [rand_point(rng, dim, 3) for _ in range(rng.randint(0, 4))]
            f = closure(pts, dim)
            assert generators(f) == tuple(maximal_points(pts, dim))
            for p in product(range(5), repeat=dim):
                below = any(all(a <= b for a, b in zip(p, g)) for g in pts)
                assert f.member(p) == below


class TestProjection:
    def test_project_drops_coordinates(self):
        s = GeneralLowerSet.make(3, [(2, 5, W), (4, 1, 3)])
        assert project(s, [0, 2]).rects == ((2, W), (4, 3))
        assert project(s, [1]).rects == ((5,),)

    def test_preimage_is_cylinder(self):
        s = GeneralLowerSet.make(1, [(3,)])
        c = preimage(s, [1], 3)
        assert c.rects == ((W, 3, W),)
        assert c.member((100, 2, 100)) and not c.member((0, 3, 0))
        with pytest.raises(ValueError):
            preimage(s, [0, 1], 3)

    def test_preimage_is_canonical_as_built(self):
        # the cylinder is built without make: it must pass the checked
        # constructor and equal make of its boxes, for every placement
        rng = random.Random(44)
        for _ in range(150):
            k, dim = rng.choice([(0, 2), (1, 1), (1, 3), (2, 3), (2, 4), (3, 5)])
            s = rand_gls(rng, k, max_rects=6)
            coords = rng.sample(range(dim), k)
            c = preimage(s, coords, dim)
            assert c == GeneralLowerSet(dim, c.rects) == GeneralLowerSet.make(dim, c.rects)
            assert project(c, coords) == s

    def test_preimage_refuses_coordinates_it_cannot_place(self):
        s = GeneralLowerSet.make(2, [(3, 1)])
        for coords in ([0, 0], [1, 3], [-1, 0], [2]):
            with pytest.raises(ValueError, match="need 2 distinct coordinates below 3"):
                preimage(s, coords, 3)

    def test_complement_points_continue_from_a_prefix(self):
        rng = random.Random(43)
        for _ in range(200):
            dim = rng.choice([1, 2, 3])
            rects = rand_gls(rng, dim, max_rects=6).rects
            k = rng.randint(0, len(rects))
            prefix = complement_points(rects[:k], dim)
            assert complement_points(rects[k:], dim, prefix) == complement_points(rects, dim)

    def test_complement_points_match_raising_every_point(self):
        # the reference raises every point at every finite extent of
        # each box, not only the points inside it
        def raise_all(rects, dim, outside):
            for r in rects:
                outside = minimal_points(
                    [p[:t] + (max(p[t], e),) + p[t + 1:]
                     for p in outside for t, e in enumerate(r) if e != W], dim)
            return outside

        rng = random.Random(47)
        for _ in range(1000):
            dim = rng.randint(0, 5)
            rects = [tuple(W if rng.random() < 0.25 else rng.randint(0, 7) for _ in range(dim))
                     for _ in range(rng.randint(0, 12))]
            k = rng.randint(0, len(rects))
            origin = [(0,) * dim]
            outside = raise_all(rects[:k], dim, origin)
            assert complement_points(rects[:k], dim) == outside
            assert complement_points(rects[k:], dim, outside) == raise_all(rects, dim, origin)
            # from_complement's direction: negated points from far below
            # everything, so coordinates -w and 0 come up too
            negated = [tuple(-rng.randint(0, 4) for _ in range(dim))
                       for _ in range(rng.randint(0, 12))]
            origin = [(-W,) * dim]
            assert complement_points(negated, dim, origin) == raise_all(negated, dim, origin)
            # the box of the least coordinates covers no point
            if dim and outside:
                low = tuple(min(p[t] for p in outside) for t in range(dim))
                assert complement_points([low], dim, outside) == outside

    def test_from_complement_against_grid(self):
        # a point lies in the set iff it dominates none of the points; a
        # grid one past the largest coordinate is conclusive
        rng = random.Random(53)
        for dim in range(5):
            zero, unit = [], [(0,) * dim]
            assert from_complement(zero, dim) == full_space(dim)
            assert from_complement(unit, dim).rects == ()
            for k in range(100):
                points = list([zero, unit, unit * 2][k]) if k < 3 else [
                    rand_point(rng, dim, 3) for _ in range(rng.randint(1, 4))]
                if points and rng.random() < 0.5:  # a repeated and a dominated point
                    points += [points[0], tuple(c + 1 for c in points[-1])]
                s = from_complement(points, dim)
                assert GeneralLowerSet(dim, s.rects) == s  # built canonical, not canonicalized
                b = 1 + max((c for g in points for c in g), default=0)
                for p in grid(b, dim):
                    assert s.member(p) == (not any(dominates(p, g) for g in points)), (points, p)

    def test_from_complement_inverts_complement_points(self):
        rng = random.Random(59)
        for _ in range(500):
            dim = rng.randint(0, 4)
            s = rand_gls(rng, dim)
            assert from_complement(complement_points(s.rects, dim), dim) == s

    def test_intersection_image_pinned(self):
        s = GeneralLowerSet.make(2, [(1, W), (3, 2)])
        assert format_gls(intersection_image(s, [0])) == "[1]"
        assert format_gls(intersection_image(GeneralLowerSet.make(2, [(3, 2)]), [0])) == "empty"
        assert format_gls(intersection_image(full_space(2), [0])) == "[w]"

    def test_intersection_image_identity_on_all_coords(self):
        rng = random.Random(21)
        for _ in range(50):
            s = rand_gls(rng, 2)
            assert brute_equal(intersection_image(s, [0, 1]), s)

    def test_intersection_image_dim0_detects_properness(self):
        assert intersection_image(GeneralLowerSet.make(2, [(1, W)]), []).rects == ()
        assert intersection_image(full_space(2), []).rects == ((),)

    def test_intersection_image_against_fibers(self):
        # dims 1-4, every coordinate subset, the empty one and all of them too
        rng = random.Random(13)
        for dim, _ in product([1, 2, 3, 4], range(30)):
            s = rand_gls(rng, dim, max_extent=4, max_rects=3,
                         unbounded_rate=rng.choice([0.3, 0.6]))
            b = grid_bound(s)
            for size in range(dim + 1):
                for coords in combinations(range(dim), size):
                    img = intersection_image(s, coords)
                    got = [p for p in grid(b, size) if img.member(p)]
                    assert got == brute_intersection_image(s, coords), (s, coords)


class TestPartsDecomposition:
    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(150):
            dim = rng.choice([1, 2, 3])
            s = rand_proper_gls(rng, dim, max_extent=4, max_rects=3)
            assert brute_equal(compose_parts(decompose_parts(s), dim), s)

    def test_compose_requires_all_parts(self):
        with pytest.raises(ValueError):
            compose_parts({frozenset([0]): closure([(1,)], 1)}, 2)

    def test_compose_checks_part_dimension(self):
        parts = {
            frozenset([0]): closure([(1, 1)], 2),
            frozenset([1]): closure([], 1),
            frozenset([0, 1]): closure([], 2),
        }
        with pytest.raises(ValueError):
            compose_parts(parts, 2)

    def test_compose_rejects_unbounded_part(self):
        parts = {
            frozenset([0]): closure([(1,)], 1),
            frozenset([1]): closure([], 1),
            frozenset([0, 1]): GeneralLowerSet.make(2, [(1, W)]),
        }
        with pytest.raises(UnboundedError):
            compose_parts(parts, 2)

    def test_decompose_rejects_full_space(self):
        with pytest.raises(ValueError):
            decompose_parts(full_space(2))

    def test_empty_set_has_empty_parts(self):
        parts = decompose_parts(GeneralLowerSet.make(2, []))
        assert set(parts) == {frozenset([0]), frozenset([1]), frozenset([0, 1])}
        assert all(generators(p) == () for p in parts.values())

    def test_parts_land_on_sorted_coordinates(self):
        # a single box bounded in x only contributes to the {0} part
        s = GeneralLowerSet.make(2, [(3, W)])
        parts = decompose_parts(s)
        assert generators(parts[frozenset([0])]) == ((2,),)
        assert generators(parts[frozenset([1])]) == ()
        assert generators(parts[frozenset([0, 1])]) == ()

    def test_compose_never_full(self):
        rng = random.Random(23)
        for _ in range(100):
            parts = {}
            for size in (1, 2):
                for c in combinations(range(2), size):
                    pts = [rand_point(rng, size, 4) for _ in range(rng.randint(0, 2))]
                    parts[frozenset(c)] = closure(pts, size)
            assert compose_parts(parts, 2).proper


class TestSpecifications:
    def test_trivial_accepts_everything_proper(self):
        triv = trivial_specification(2)
        assert validate_specification(triv) == []
        rng = random.Random(29)
        for _ in range(40):
            assert is_compatible(rand_proper_gls(rng, 2), triv)
        assert not is_compatible(full_space(2), triv)

    def test_full_specification_pins_its_source(self):
        rng = random.Random(31)
        for _ in range(30):
            s = rand_proper_gls(rng, 2)
            spec = full_specification(s)
            assert validate_specification(spec) == []
            assert is_compatible(s, spec)
            t = rand_proper_gls(rng, 2)
            assert is_compatible(t, spec) == brute_equal(t, s)

    def test_full_specification_rejects_full_space(self):
        with pytest.raises(ValueError):
            full_specification(full_space(2))

    def test_validate_flags_structural_problems(self):
        empty0 = GeneralLowerSet.make(0, [])
        seg = GeneralLowerSet.make(1, [(2,)])
        assert "empty domain" in validate_specification(
            PartialSpecification(2, frozenset(), {}))[0]
        # missing subset of a present size
        p = PartialSpecification(
            2, frozenset([frozenset(), frozenset([0, 1])]),
            {frozenset(): empty0, frozenset([0, 1]): seg})
        problems = validate_specification(p)
        assert any("not graded" in x for x in problems)
        # wrong dimension
        p = PartialSpecification(2, frozenset([frozenset()]), {frozenset(): seg})
        assert any("dimension" in x for x in validate_specification(p))
        # improper part
        p = PartialSpecification(
            2, frozenset([frozenset()]), {frozenset(): full_space(0)})
        assert any("full space" in x for x in validate_specification(p))

    def test_validate_flags_incoherence(self):
        s = GeneralLowerSet.make(2, [(2, 3)])
        spec = full_specification(s)
        broken = dict(spec.assignment)
        broken[frozenset([0])] = GeneralLowerSet.make(1, [(5,)])
        p = PartialSpecification(2, spec.domain, broken)
        assert any("incoherent" in x for x in validate_specification(p))

    def test_incompatible_on_dimension_mismatch(self):
        assert not is_compatible(full_space(3), trivial_specification(2))


class TestEnumeration:
    def test_finite_counts(self):
        assert sum(1 for _ in enumerate_fls((4, 4))) == 70
        assert sum(1 for _ in enumerate_fls((2, 2, 2))) == 20
        assert sum(1 for _ in enumerate_fls((5,))) == 6
        assert sum(1 for _ in enumerate_fls((1, 1, 1, 1))) == 2

    def test_enumerated_are_lower_sets_and_distinct(self):
        seen = set()
        for f in enumerate_fls((3, 2)):
            pts = frozenset(p for p in product(range(3), range(2)) if f.member(p))
            for (a, b) in pts:
                assert a == 0 or (a - 1, b) in pts
                assert b == 0 or (a, b - 1) in pts
            seen.add(pts)
        assert len(seen) == 10

    def test_yield_order_matches_brute_force(self):
        """Every box of volume <= 12 in up to four dimensions: the sets
        come out in the order of their membership vectors over the
        lexicographically sorted points, left out before taken."""

        def boxes(dim, volume):
            if dim == 0:
                yield ()
                return
            for e in range(1, volume + 1):
                for rest in boxes(dim - 1, volume // e):
                    yield (e,) + rest

        def reference(box):
            points = sorted(product(*[range(e) for e in box]))
            for bits in product((False, True), repeat=len(points)):
                taken = {p for p, b in zip(points, bits) if b}
                if all(p[:i] + (p[i] - 1,) + p[i + 1:] in taken
                       for p in taken for i in range(len(p)) if p[i]):
                    yield closure(list(taken), len(box))

        tried = 0
        for dim in (1, 2, 3, 4):
            for box in boxes(dim, 12):
                assert list(enumerate_fls(box)) == list(reference(box)), box
                tried += 1
        assert tried == 254

    @pytest.mark.parametrize("box,count", [
        ((2, 3, 4), 490), ((3, 3, 3), 980), ((2, 2, 2, 2), 168), ((1, 1500), 1501),
    ])
    def test_yielded_sets_are_canonical(self, box, count):
        # each set is built without the constructor's check: the checked
        # constructor takes its boxes as they are, and its generators
        # close to the same set
        sets = list(enumerate_fls(box))
        assert len(sets) == count
        for s in sets:
            assert GeneralLowerSet(len(box), s.rects) == s
            assert closure(generators(s), len(box)) == s

    @pytest.mark.parametrize("box,count", [((2, 3, 4), 490), ((3, 3, 3), 980), ((2, 2, 2, 2), 168)])
    def test_axis_permutations_commute(self, box, count):
        # the index-based search walks each axis order of the box in its
        # own lexicographic order; the sets it finds still only permute
        sets = set(enumerate_fls(box))
        assert len(sets) == count
        for order in permutations(range(len(box))):
            permuted = {GeneralLowerSet.make(len(box), [tuple(r[t] for t in order) for r in s.rects])
                        for s in sets}
            found = list(enumerate_fls(tuple(box[t] for t in order)))
            assert len(found) == count and set(found) == permuted, order

    def test_set_cap(self):
        # 3x3x4 holds 4116 lower sets, 8x8 holds 12,870
        assert lowerset.MAX_LOWER_SETS == 5000
        assert sum(1 for _ in enumerate_fls((3, 3, 4))) == 4116
        with pytest.raises(ValueError, match="more than 5000 lower sets"):
            list(enumerate_fls((8, 8)))

    def test_volume_at_the_cap_fails_fast(self):
        # a box of volume V holds at least V+1 lower sets; in 4999x1, as
        # in 1x4999, all points are one row, so each set ends at once
        for box in (1, 4999), (4999, 1):
            began = time.perf_counter()
            assert sum(1 for _ in enumerate_fls(box)) == 5000
            assert time.perf_counter() - began < 1
        for box in (1, 5000), (32, 32, 32, 32):
            began = time.perf_counter()
            with pytest.raises(ValueError, match="more than 5000 lower sets"):
                next(enumerate_fls(box))
            assert time.perf_counter() - began < 0.5

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_fls((2,) * 25))
        with pytest.raises(ValueError):
            list(enumerate_fls((0, 2)))

    def test_combination_cap(self):
        # 64 menu boxes in dimension 3: 43,745 unions of at most 3 are
        # tried; 256 in dimension 4: 2,796,417, refused before the first
        assert lowerset.MAX_BOX_COMBINATIONS == 100_000
        menu = [1, 2, 3, W]
        assert next(enumerate_gls(3, menu, 3)).rects == ()
        for dim, max_rects in (4, 3), (30, 1):
            began = time.perf_counter()
            with pytest.raises(ValueError, match="more than 100000 combinations"):
                next(enumerate_gls(dim, menu, max_rects))
            assert time.perf_counter() - began < 0.5
        # a count above the number of boxes adds no empty rounds
        began = time.perf_counter()
        assert len(list(enumerate_gls(1, [W], 10**5))) == 2
        assert time.perf_counter() - began < 0.5

    def test_general_enumeration_distinct_and_complete(self):
        sets = list(enumerate_gls(2, [1, 2, W], 2))
        for a, b in combinations(sets, 2):
            assert not a.same_set(b)
        # every canonical union of at most 2 menu boxes appears
        menu = [1, 2, W]
        seen = 0
        for count in range(3):
            for combo in combinations(sorted(product(menu, repeat=2)), count):
                c = GeneralLowerSet.make(2, combo)
                assert any(c.same_set(s) for s in sets)
                seen += 1
        assert seen == 1 + 9 + 36


class TestTextForm:
    def test_gls_round_trip(self):
        rng = random.Random(37)
        for _ in range(100):
            s = rand_gls(rng, rng.choice([1, 2, 3]))
            assert parse_gls(format_gls(s), s.dim) == s

    def test_empty_needs_dimension(self):
        assert parse_gls("empty", 2).rects == ()
        with pytest.raises(ValueError):
            parse_gls("empty")

    def test_rejects_garbage(self):
        for bad in ["", "[1,2", "1,2]", "[1,x]", "[1,2]v[2,1]", "[]"]:
            with pytest.raises(ValueError):
                parse_gls(bad, 2)

    @pytest.mark.parametrize("chunk,box", [
        ("[10,w]", (10, W)),
        ("[0,1]", (0, 1)),
        ("[01,w]", None),
        ("[w,00]", None),
    ])
    def test_read_box_refuses_leading_zeros(self, chunk, box):
        assert read_box(chunk) == box
        if box is None:
            with pytest.raises(ValueError) as exc:
                parse_gls(chunk, 2)
            assert str(exc.value) == f"bad box '{chunk}'"

    def test_spaces_tolerated(self):
        assert parse_gls(" [2, w] u [w, 2] ").rects == ((2, W), (W, 2))

    # a 0 extent empties a box of the right arity, which is then dropped;
    # a box of another arity is refused, empty or not
    @pytest.mark.parametrize("text", ["[0]u[1,2]", "[1,2]u[0]", "[2,w]u[0,5,1]", "[0,0,0]"])
    def test_empty_boxes_checked_before_dropped(self, text):
        with pytest.raises(ValueError, match="for dimension 2"):
            parse_gls(text, 2)
        assert parse_gls("[0,5]u[2,w]u[w,0]", 2).rects == ((2, W),)


def test_lowerset_does_not_import_monomial():
    """lowerset owns the complement and monomial wraps it, so imports
    run one way only."""
    tree = ast.parse(Path(lowerset.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert not [n for n in names if "monomial" in n]


# The records outside badseq, each built from its positional fields with
# the defaults left out, the same by keyword, and its repr.  The
# specification holds a dict, so it has no hash.
RECORD_CONTRACT = [
    (GeneralLowerSet(2), GeneralLowerSet(dim=2, rects=()), "GeneralLowerSet(dim=2, rects=())"),
    (MonomialIdeal(2), MonomialIdeal(gens=(), dim=2), "MonomialIdeal(dim=2, gens=())"),
    (OracleReport("phi", 3), OracleReport(name="phi", cases=3, failures=()),
     "OracleReport(name='phi', cases=3, failures=())"),
    (HardyOutcome(4), HardyOutcome(steps=4, value=None, ordinal=None, argument=None),
     "HardyOutcome(steps=4, value=None, ordinal=None, argument=None)"),
    (DescentTrace(OMEGA, 2, (OMEGA, ONE), True),
     DescentTrace(start=OMEGA, base=2, steps=(OMEGA, ONE), truncated=True, reason=None),
     "DescentTrace(start=Ordinal[w], base=2, steps=(Ordinal[w], Ordinal[1]), truncated=True, "
     "reason=None)"),
    (PartialSpecification(1, frozenset(), {}),
     PartialSpecification(dim=1, domain=frozenset(), assignment={}),
     "PartialSpecification(dim=1, domain=frozenset(), assignment={})"),
    (RankAssignment(GeneralLowerSet(2, ((1, 2),)), OMEGA, ()),
     RankAssignment(lower_set=GeneralLowerSet(2, ((1, 2),)), value=OMEGA, contributions=()),
     "RankAssignment(lower_set=GeneralLowerSet(dim=2, rects=((1, 2),)), value=Ordinal[w], "
     "contributions=())"),
    (MonotoneReport((2, 2), 6, 36, ()),
     MonotoneReport(box=(2, 2), sets_counted=6, pairs_checked=36, violations=()),
     "MonotoneReport(box=(2, 2), sets_counted=6, pairs_checked=36, violations=())"),
]


@pytest.mark.parametrize("record,by_keyword,text", RECORD_CONTRACT,
                         ids=[type(r).__name__ for r, _, _ in RECORD_CONTRACT])
def test_record_contract(record, by_keyword, text):
    assert repr(record) == repr(by_keyword) == text
    assert record == by_keyword and not record != by_keyword
    if isinstance(record, PartialSpecification):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(by_keyword)
    field = text[text.index("(") + 1:text.index("=")]
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def outcome(thunk):
    """What ``thunk()`` returns, or the type and text of what it raises."""
    try:
        return thunk()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


MISMATCH = (ValueError, "dimension mismatch")
IDEAL = MonomialIdeal.make(2, [(1, 1)])

# argument checks that no other test reaches
REFUSALS = {
    "GeneralLowerSet.member": (lambda: closure([(1, 1)], 2).member((0,)), MISMATCH),
    "MonomialIdeal.member": (lambda: IDEAL.member((0,)), MISMATCH),
    "MonomialIdeal.includes": (lambda: IDEAL.includes(MonomialIdeal.make(1, [(1,)])), MISMATCH),
    "MonomialIdeal.intersect": (lambda: IDEAL.intersect(MonomialIdeal.make(1, [(1,)])), MISMATCH),
    "validate_specification": (
        lambda: validate_specification(PartialSpecification(
            1, frozenset([frozenset(), frozenset([0])]),
            {frozenset(): GeneralLowerSet.make(0, [])})),
        ["no assignment for [0]"]),
    "enumerate_gls": (lambda: next(enumerate_gls(2, [0, 1], 1)),
                      (ValueError, "extents must be positive integers or UNBOUNDED")),
    "naive_hardy x": (lambda: naive_hardy(OMEGA, -1), (ValueError, "need x >= 0 and budget >= 1")),
    "naive_hardy budget": (lambda: naive_hardy(OMEGA, 2, budget=0),
                           (ValueError, "need x >= 0 and budget >= 1")),
    "Ordinal": (lambda: Ordinal(((1, 1),)), (TypeError, "terms must be (Ordinal, int) pairs")),
}


@pytest.mark.parametrize("thunk,want", REFUSALS.values(), ids=REFUSALS)
def test_refusal(thunk, want):
    assert outcome(thunk) == want
