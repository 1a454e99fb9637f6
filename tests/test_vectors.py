import random

import pytest

from wpo.vectors import dominance_masks, dominates, maximal_points, minimal_points, read_point

INF = float("inf")


def brute_minimal(points):
    pts = sorted(set(points))
    return [p for p in pts if not any(q != p and dominates(p, q) for q in pts)]


def test_minimal_points_matches_pairwise_filter():
    # dims 0-3 take the one sweep, dims 0-2 padded to 3, and dims >= 4
    # the prefix masks; the infinite coordinates are what maximal_points
    # feeds it, negated, and what inclusion_masks feeds the masks as w
    # extents
    rng = random.Random(2024)
    coords = [-INF, INF] + list(range(-2, 5))
    for dim in range(7):
        for _ in range(150):
            points = [tuple(rng.choice(coords) for _ in range(dim))
                      for _ in range(rng.randint(0, 40))]
            assert minimal_points(points, dim) == brute_minimal(points), (dim, points)
            distinct = list(set(points))
            masks = dominance_masks(distinct, dim)
            assert len(masks) == len(distinct)
            for m, p in zip(masks, distinct):
                for j, q in enumerate(distinct):
                    assert (m >> j & 1) == dominates(p, q), (dim, p, q)


def brute_maximal(points):
    pts = sorted(set(points))
    return [p for p in pts if not any(q != p and dominates(q, p) for q in pts)]


def test_maximal_points_matches_pairwise_filter():
    # every dim negates around minimal_points; w extents of boxes are
    # INF, and the narrow range gives ties in every coordinate and
    # repeated points
    rng = random.Random(2025)
    coords = [INF, 0] + list(range(1, 5))
    for dim in range(6):
        for _ in range(400):
            points = [tuple(rng.choice(coords) for _ in range(dim))
                      for _ in range(rng.randint(0, 40))]
            points += rng.sample(points, min(len(points), rng.randint(0, 3)))
            assert maximal_points(points, dim) == brute_maximal(points), (dim, points)


def test_dimension_zero():
    # canonicalizing a set of dim 0 asks for these
    assert minimal_points([], 0) == []
    assert minimal_points([(), ()], 0) == [()]


@pytest.mark.parametrize("chunk,point", [
    ("(0,10)", (0, 10)),
    ("(0)", (0,)),
    ("(01,3)", None),
    ("(1,00)", None),
    ("(1,2,007)", None),
])
def test_read_point_refuses_leading_zeros(chunk, point):
    assert read_point(chunk) == point
