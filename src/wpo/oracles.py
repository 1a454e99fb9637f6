"""Exhaustive and randomized cross-checks.

Everything here decides properties by grid evaluation or enumeration,
never through the clever paths it is checking.  Inclusion of lower
sets, in particular, is decided by testing membership of every grid
point up to one past the largest finite extent in sight; a
counterexample point, capped coordinatewise at that bound, stays a
counterexample, so the grid is conclusive.  Likewise ``naive_hardy``
makes one rewrite per step where ``ordinal.hardy`` jumps.
"""

import random
from collections import namedtuple
from itertools import product

from .lowerset import (
    GeneralLowerSet,
    UNBOUNDED,
    box_combinations,
    compose_parts,
    decompose_parts,
    enumerate_gls,
    full_specification,
    is_compatible,
    trivial_specification,
    validate_specification,
)
from .monomial import complement_ideal, complement_lowerset
from .ordinal import HardyOutcome, fundamental, is_successor, predecessor


class OracleReport(namedtuple("OracleReport", "name cases failures", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        out = f"{self.name}: {self.cases} cases, {status}"
        for f in self.failures[:10]:
            out += f"\n  {f}"
        return out


# Most grid points run_inclusion and run_ideal may walk.  rand_gls keeps
# extents at or below 6, so every grid axis runs 0..7: 8**dim points a case.
MAX_GRID_POINTS = 1_000_000

# Most grid points run_phi and run_spec may walk; brute_equal does less a
# point.  `wpo oracle phi --m 3` walks about 5.7M, `spec --m 5` 6.6M.
MAX_EQUALITY_GRID_POINTS = 10_000_000


def _grid_points(side: int, dim: int) -> int:
    # side**dim, or past both caps once it is (side >= 2): no 8**(10**9)
    return side ** min(dim, MAX_EQUALITY_GRID_POINTS.bit_length())


def _check_grid(points: int, cap: int, what: str) -> None:
    if points > cap:
        raise ValueError(f"more than {cap} grid points: {what}")


def grid(bound: int, dim: int):
    return product(range(bound + 1), repeat=dim)


def grid_bound(*sets) -> int:
    return 1 + max((s.max_finite_extent for s in sets), default=0)


def brute_includes(small: GeneralLowerSet, big: GeneralLowerSet) -> bool:
    """Pointwise test of small <= big over the saturated grid."""
    b = grid_bound(small, big)
    return all(big.member(p) for p in grid(b, small.dim) if small.member(p))


def brute_equal(s: GeneralLowerSet, t: GeneralLowerSet) -> bool:
    b = grid_bound(s, t)
    return all(s.member(p) == t.member(p) for p in grid(b, s.dim))


def rand_gls(rng: random.Random, dim: int, max_extent: int = 6,
             max_rects: int = 4, unbounded_rate: float = 0.3) -> GeneralLowerSet:
    rects = []
    for _ in range(rng.randint(0, max_rects)):
        rects.append(tuple(
            UNBOUNDED if rng.random() < unbounded_rate
            else rng.randint(1, max_extent)
            for _ in range(dim)
        ))
    return GeneralLowerSet.make(dim, rects)


def rand_proper_gls(rng: random.Random, dim: int, **kw) -> GeneralLowerSet:
    while True:
        s = rand_gls(rng, dim, **kw)
        if s.proper:
            return s


def naive_hardy(alpha, x: int, budget: int = 1_000_000) -> HardyOutcome:
    """H_alpha(x) by one rewrite per step: the reference for ordinal.hardy."""
    if x < 0 or budget < 1:
        raise ValueError("need x >= 0 and budget >= 1")
    steps = 0
    while alpha:
        if steps == budget:
            return HardyOutcome(steps=steps, ordinal=alpha, argument=x)
        alpha = predecessor(alpha) if is_successor(alpha) else fundamental(alpha, x)
        x += 1
        steps += 1
    return HardyOutcome(steps=steps, value=x)


def run_inclusion(dim: int = 2, pairs: int = 1000, seed: int = 0) -> OracleReport:
    """Inclusion (``lowerset.inclusion_masks``, by box dominance), union
    and intersection against the grid."""
    _check_grid(pairs * _grid_points(8, dim), MAX_GRID_POINTS, f"{pairs} cases of 8^{dim}")
    rng = random.Random(seed)
    failures = []
    for k in range(pairs):
        s = rand_gls(rng, dim)
        t = rand_gls(rng, dim)
        if t.includes(s) != brute_includes(s, t):
            failures.append(f"pair {k}: includes disagrees for {s} vs {t}")
        if s.includes(t) != brute_includes(t, s):
            failures.append(f"pair {k}: includes disagrees for {t} vs {s}")
        u = s.union(t)
        v = s.intersect(t)
        b = grid_bound(s, t, u, v)
        for p in grid(b, dim):
            if u.member(p) != (s.member(p) or t.member(p)):
                failures.append(f"pair {k}: union wrong at {p}")
                break
            if v.member(p) != (s.member(p) and t.member(p)):
                failures.append(f"pair {k}: intersection wrong at {p}")
                break
    return OracleReport(f"inclusion dim={dim}", pairs, tuple(failures))


def run_ideal(dim: int = 2, samples: int = 500, seed: int = 0) -> OracleReport:
    """Membership law, round trip, antitonicity and the degree envelope."""
    _check_grid(samples * _grid_points(8, dim), MAX_GRID_POINTS, f"{samples} cases of 8^{dim}")
    rng = random.Random(seed)
    failures = []
    prev = None
    for k in range(samples):
        s = rand_gls(rng, dim)
        i = complement_ideal(s)
        b = grid_bound(s)
        for p in grid(b, dim):
            if i.member(p) == s.member(p):
                failures.append(f"sample {k}: membership law fails at {p} for {s}")
                break
        if not brute_equal(complement_lowerset(i), s):
            failures.append(f"sample {k}: complement round trip fails for {s}")
        if not i.is_zero and i.degree() > dim * (s.max_finite_extent + 1):
            failures.append(f"sample {k}: degree {i.degree()} above envelope for {s}")
        if prev is not None:
            t, j = prev
            if brute_includes(t, s) != j.includes(i):
                failures.append(f"sample {k}: antitonicity fails for {t} vs {s}")
        prev = (s, i)
    return OracleReport(f"ideal dim={dim}", samples, tuple(failures))


def run_phi(dim: int = 2, max_extent: int = 3, max_rects: int = 3,
            seed: int = 0, samples: int = 200) -> OracleReport:
    """Decompose/compose round trips, enumerated and randomized."""
    # a union walks a grid of side at most max_extent+2, a sample two of 8
    side = max(max_extent, 0) + 2
    unions = box_combinations(dim, side - 1, max_rects)
    _check_grid(unions * _grid_points(side, dim) + samples * 2 * _grid_points(8, dim),
                MAX_EQUALITY_GRID_POINTS,
                f"{unions} unions of {side}^{dim} and {samples} samples of 2*8^{dim}")
    rng = random.Random(seed)
    failures = []
    cases = 0
    menu = list(range(1, max_extent + 1)) + [UNBOUNDED]
    for s in enumerate_gls(dim, menu, max_rects):
        if not s.proper:
            continue
        cases += 1
        back = compose_parts(decompose_parts(s), dim)
        if not brute_equal(back, s):
            failures.append(f"enumerated: round trip fails for {s}")
    for k in range(samples):
        s = rand_proper_gls(rng, dim)
        cases += 1
        parts = decompose_parts(s)
        back = compose_parts(parts, dim)
        if not brute_equal(back, s):
            failures.append(f"sample {k}: round trip fails for {s}")
            continue
        again = compose_parts(decompose_parts(back), dim)
        if not brute_equal(again, back):
            failures.append(f"sample {k}: second round trip fails for {s}")
    return OracleReport(f"phi dim={dim}", cases, tuple(failures))


def run_spec(dim: int = 2, samples: int = 200, seed: int = 0) -> OracleReport:
    """Induced specifications validate, pin down their source, and the
    trivial specification accepts everything proper."""
    _check_grid(samples * _grid_points(8, dim), MAX_EQUALITY_GRID_POINTS,
                f"{samples} samples of 8^{dim}")
    rng = random.Random(seed)
    failures = []
    triv = trivial_specification(dim)
    for k in range(samples):
        s = rand_proper_gls(rng, dim)
        spec = full_specification(s)
        problems = validate_specification(spec)
        if problems:
            failures.append(f"sample {k}: induced spec invalid for {s}: {problems[0]}")
            continue
        if not is_compatible(s, spec):
            failures.append(f"sample {k}: {s} incompatible with its own spec")
        if not is_compatible(s, triv):
            failures.append(f"sample {k}: trivial spec rejects {s}")
        t = rand_proper_gls(rng, dim)
        if is_compatible(t, spec) != brute_equal(t, s):
            failures.append(f"sample {k}: spec fails to pin down {s} against {t}")
    return OracleReport(f"spec dim={dim}", samples, tuple(failures))
