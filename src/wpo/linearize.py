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

``box_term`` extends the rank to every lower set, w extents too: each
box gets a term in the block of its bounded coordinates, and the rank
is again the natural sum of the terms of the maximal boxes plus one.
``badseq.verify_bad`` reads it on consecutive records.
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


def box_term(r) -> tuple:
    """The term t(B) = (key, c) of a box B = r of any lower set: w^x * c
    for an exponent x below or equal to the exponent E of
    general_type(m), named by ``key``, which orders as x does.

    For bounded coordinates S = (s_1 < ... < s_j), j >= 1, and finite
    extents v_1, ..., v_j there, x is the offset of S's block plus
    lex(v_1-1, ..., v_(j-1)-1) in ``ordinal.lex_ordinal``'s layout (the
    one ``ordinal.type_block`` decodes), and c is v_j - 1 when j = m and
    v_j when j < m; a term with c = 0 counts as 0.  The blocks of lower
    levels j lie higher, and within a level so does the block of a
    lexicographically smaller S, so the key is (-j, -s_1, ..., -s_j,
    v_1, ..., v_(j-1)).  At j = m it orders as ``contribution``'s
    exponent does.  The box that is w in every coordinate gets the top
    term, w^E * 1, keyed (0,).

    The rank r(D) of a lower set D is 0 for D empty, else the natural
    sum of the terms of its maximal boxes plus one.  It is monotone:
    D <= D' implies r(D) <= r(D').  That is clear for D empty; else map
    each box B of D to a box f(B) of D' that holds it (the one-box lemma
    of ``lowerset.inclusion_masks``).  The natural sum is monotone in
    each argument, so it is enough that for each box B' of D' the terms
    of the boxes mapped to it sum to at most t(B').  Those boxes are an
    antichain inside B', finite wherever B' is: S(B) contains S(B').
    - B' all w: every other term has an exponent below E, so a sum of
      them is below w^E; and B' itself is alone, as it holds the rest.
    - |S(B)| > |S(B')|: the block of B lies wholly below that of B',
      so t(B) has the smaller exponent.
    - S(B) = S(B'): v <= v' coordinatewise.  If the first j-1 extents
      differ, B's position is lexicographically smaller, and so is its
      exponent.  If they agree, v_j < v'_j unless B = B'.
    At most one box of the antichain agrees with B' on S and the first
    j-1 extents; if that box is B' itself, it is alone.  So the sum is
    t(B') exactly, or w^x' * c'' plus terms of smaller exponent with
    c'' < c', which is below t(B') whenever c' >= 1 (at j' < m, c' =
    v'_j >= 1).  When c' = 0 (j' = m, v'_m = 1), every box inside B'
    has j = m and v_m = 1, so every term is 0.
    """
    key, v = [], []  # -s_1, ..., -s_j and v_1, ..., v_j
    for t, e in enumerate(r):
        if e != UNBOUNDED:
            key.append(-t)
            v.append(e)
    if not v:
        return (0,), 1
    last = v.pop()
    return (-len(key), *key, *v), last - (len(key) == len(r))


def rank_falls(here: set, there: set, term=box_term) -> bool:
    """Whether r(D) > r(D') for the lower sets D and D' whose maximal
    boxes are ``here`` and ``there``, each box's term taken from
    ``term``, which may be a memo.

    r of the empty set is 0, below every other rank.  Otherwise both
    ranks are the natural sum of their terms plus one, and the natural
    sum is cancellative: the boxes the two share drop out.  The terms
    of the boxes only D holds, less those of the boxes only D' holds,
    are summed per key; keys order as exponents do, so the largest key
    whose sum is not 0 decides, by that sum's sign."""
    if not (here and there):
        return bool(here)
    diff = {}
    for b in here - there:
        key, c = term(b)
        diff[key] = diff.get(key, 0) + c
    for b in there - here:
        key, c = term(b)
        diff[key] = diff.get(key, 0) - c
    for key in sorted(diff, reverse=True):
        if c := diff[key]:
            return c > 0
    return False


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
