"""Ranking finite (bounded) lower sets by an ordinal.

Each generator (v_1,...,v_m) of a finite lower set (a maximal point,
``lowerset.generators``) contributes w^(position of (v_1,...,v_{m-1})
in the lexicographic well-order of N^(m-1)) times v_m; the rank is
the natural sum of the contributions plus one, and the empty set ranks
0.  The map is monotone for inclusion but deliberately not injective,
which check_monotone witnesses by exhausting every pair inside a
finite grid.
"""

from dataclasses import dataclass
from functools import cmp_to_key

from .lowerset import GeneralLowerSet, enumerate_fls, generators, inclusion_masks
from .ordinal import ONE, ZERO, Ordinal, add, compare, from_int, natural_sum


def lex_ordinal(vec) -> Ordinal:
    """Position of vec in the lexicographic well-order of N^len(vec)."""
    k = len(vec)
    terms = []
    for i, v in enumerate(vec):
        if v:
            terms.append((from_int(k - 1 - i), v))
    return Ordinal(tuple(terms))


@dataclass(frozen=True)
class RankAssignment:
    lower_set: GeneralLowerSet
    value: Ordinal
    contributions: tuple  # (generator, ordinal term) pairs, zero terms dropped


def ordinal_rank(f: GeneralLowerSet) -> RankAssignment:
    """The rank of a bounded set; UnboundedError on a w extent."""
    if f.dim == 0:
        raise ValueError("ranking needs at least one coordinate")
    gens = generators(f)
    if not gens:
        return RankAssignment(f, ZERO, ())
    total = ZERO
    contribs = []
    for g in gens:
        if g[-1] == 0:
            continue
        term = Ordinal(((lex_ordinal(g[:-1]), g[-1]),))
        total = natural_sum(total, term)
        contribs.append((g, term))
    return RankAssignment(f, add(total, ONE), tuple(contribs))


@dataclass(frozen=True)
class MonotoneReport:
    box: tuple
    sets_counted: int
    pairs_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_monotone(box) -> MonotoneReport:
    """Exhaustive monotonicity check of ordinal_rank inside ``box``.

    Every ordered pair of lower sets of the grid is examined; for the
    included ones the ranks must not reverse.  Inclusion is decided on
    box-dominance bitmasks (``inclusion_masks``), independently of the
    rank construction.
    """
    box = tuple(box)
    sets = list(enumerate_fls(box))
    masks = inclusion_masks(sets)
    ranks = [ordinal_rank(f).value for f in sets]
    # each rank's place in the sorted distinct ranks: one int comparison per pair
    order = {r: k for k, r in enumerate(sorted(set(ranks), key=cmp_to_key(compare)))}
    places = [order[r] for r in ranks]
    violations = []
    n = len(sets)
    for i in range(n):
        mi = masks[i]
        pi = places[i]
        for j in range(n):
            if pi > places[j] and not mi & ~masks[j]:
                violations.append((sets[i], sets[j], ranks[i], ranks[j]))
    return MonotoneReport(box, n, n * n, tuple(violations))
