"""Ranking finite (bounded) lower sets by an ordinal.

Each generator (v_1,...,v_m) of a finite lower set (a maximal point,
``lowerset.generators``) contributes w^(position of (v_1,...,v_{m-1})
in the lexicographic well-order of N^(m-1), ``ordinal.lex_ordinal``)
times v_m.  That exponent lies in the level-m block, the one of all m
coordinates, of the exponent of general_type(m): the one decoder of
that layout, ``ordinal.type_block``, reads it back as (range(m),
(v_1,...,v_{m-1})).  The rank is the natural sum of the
contributions plus one, and the empty set ranks 0.  The map is
monotone for inclusion but deliberately not injective, which
check_monotone witnesses by exhausting every pair inside a finite
grid, ranking through a memo of ``contribution`` made fresh for each
call.  The memo is keyed by the box g+1 that a set holds for
its generator g, so each grid box's term is worked out once a call.
"""

from collections import namedtuple
from functools import cache
from itertools import product

from .lowerset import UNBOUNDED, GeneralLowerSet, UnboundedError, enumerate_fls
from .ordinal import ONE, ZERO, _trusted, add, lex_ordinal


class RankAssignment(namedtuple("RankAssignment", "lower_set value contributions")):
    __slots__ = ()  # contributions: (generator, ordinal term) pairs, zero terms dropped


def contribution(r) -> tuple:
    """(g, w^lex(g[:-1]) * g[-1]) for the generator g = r-1 of a bounded
    box r with r[-1] >= 2: a term of the level-m block of the general
    type's exponent (see the module docstring)."""
    g = tuple([e - 1 for e in r])
    return g, _trusted(((lex_ordinal(g[:-1]), g[-1]),))


def ordinal_rank(f: GeneralLowerSet, contribution=contribution) -> RankAssignment:
    """The rank of a bounded set; UnboundedError on a w extent.  Each
    generator's pair comes from ``contribution`` of its box, which may
    be a memo.

    The generators are an antichain, so no two share their first m-1
    coordinates: the exponents of the contributions are distinct and,
    as the sorted generators rise, rise.  Their natural sum is then the
    contributions' terms from the last, as they stand.
    """
    if f.dim == 0:
        raise ValueError("ranking needs at least one coordinate")
    if any(UNBOUNDED in r for r in f.rects):
        raise UnboundedError(f"{f} is unbounded")
    if not f.rects:
        return RankAssignment(f, ZERO, ())
    contribs = tuple([contribution(r) for r in f.rects if r[-1] > 1])
    total = _trusted([term[0] for _, term in reversed(contribs)])
    return RankAssignment(f, add(total, ONE), contribs)


class MonotoneReport(namedtuple("MonotoneReport", "box sets_counted pairs_checked violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def check_monotone(box) -> MonotoneReport:
    """Exhaustive monotonicity check of ordinal_rank inside ``box``.

    Every ordered pair (i, j) of lower sets of the grid is decided, and
    a violation is one where sets[i] <= sets[j] but rank i > rank j;
    they are reported in row-major order.  Inclusion is decided on
    membership, independently of the rank construction: a bounded set
    lies inside another exactly when each of its generators does.  The
    ranks share one ``cache(contribution)``, built on each call and
    dropped after it: one term per grid box, none kept across calls.

    ``within[r]`` has bit j set when sets[j] holds the corner r-1 of
    grid box r.  One sweep from the top of the grid fills it: a grid
    point lies in a set when it is one of the set's generators or when
    a point one step above it lies in the set.  Walking the sets from
    the lowest rank up, the partners of set i are those ranked strictly
    below it ANDed with ``within`` of each of its boxes.
    """
    box = tuple(box)
    sets = list(enumerate_fls(box))
    memo = cache(contribution)
    ranks = [ordinal_rank(f, memo).value for f in sets]
    n = len(sets)
    within = {}
    for j, s in enumerate(sets):
        for r in s.rects:
            within[r] = within.get(r, 0) | 1 << j
    # reverse lexicographic order: every point one step above r comes first
    for r in product(*[range(e, 0, -1) for e in box]):
        w = within.get(r, 0)
        for t, e in enumerate(box):
            if r[t] < e:
                w |= within[r[:t] + (r[t] + 1,) + r[t + 1:]]
        within[r] = w
    partners = [0] * n  # bit j of partners[i]: (i, j) is a violation
    below = 0  # the sets ranked strictly below the current rank
    level = 0  # the sets of the current rank seen so far
    prev = None
    for i in sorted(range(n), key=ranks.__getitem__):
        if prev is not None and ranks[prev] != ranks[i]:
            below |= level
            level = 0
        level |= 1 << i
        prev = i
        m = below
        for r in sets[i].rects:
            if not m:
                break
            m &= within[r]
        partners[i] = m
    violations = []
    for i, m in enumerate(partners):
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            violations.append((sets[i], sets[j], ranks[i], ranks[j]))
    return MonotoneReport(box, n, n * n, tuple(violations))
