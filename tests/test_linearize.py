import math
import random
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from wpo import linearize
from wpo.linearize import (MonotoneReport, RankAssignment, box_term, check_monotone, contribution,
                           lex_ordinal, ordinal_rank, rank_falls)
from wpo.lowerset import (UNBOUNDED, GeneralLowerSet, UnboundedError, closure, enumerate_fls,
                          enumerate_gls, full_space, generators, inclusion_masks)
from wpo.oracles import rand_gls
from wpo.ordinal import (ONE, ZERO, Ordinal, add, compare, from_int, general_type, natural_sum,
                         omega_pow, parse_ordinal, type_block)

W = UNBOUNDED


def o(text):
    return parse_ordinal(text)


def folded_rank(f):
    """``ordinal_rank`` as the natural sum of the contributions, folded
    one generator at a time."""
    gens = generators(f)
    if not gens:
        return RankAssignment(f, ZERO, ())
    total, contribs = ZERO, []
    for g in gens:
        if g[-1]:
            term = Ordinal(((lex_ordinal(g[:-1]), g[-1]),))
            total = natural_sum(total, term)
            contribs.append((g, term))
    return RankAssignment(f, add(total, ONE), tuple(contribs))


class TestLexOrdinal:
    def test_pinned(self):
        assert lex_ordinal(()) == ZERO
        assert lex_ordinal((0,)) == ZERO
        assert lex_ordinal((5,)) == from_int(5)
        assert lex_ordinal((2, 3)) == o("w*2+3")
        assert lex_ordinal((1, 0, 4)) == o("w^2+4")

    def test_orders_like_lex(self):
        pts = sorted(product(range(4), repeat=3))
        vals = [lex_ordinal(p) for p in pts]
        for a, b in zip(vals, vals[1:]):
            assert compare(a, b) == -1

    @pytest.mark.parametrize("box", [(5,), (3, 4), (2, 3, 4), (2, 2, 2, 3)])
    def test_contribution_is_a_term_of_the_level_m_block(self, box):
        # the exponent of a generator g's term lies in the block of all m
        # coordinates of the general type's exponent, at positions g[:-1]
        m = len(box)
        for r in product(*[range(1, e + 1) for e in box]):
            if r[-1] > 1:
                g, term = contribution(r)
                assert type_block(term[0][0], m) == (tuple(range(m)), list(g[:-1]))


class TestOrdinalRank:
    def test_pinned(self):
        assert ordinal_rank(closure([], 2)).value == ZERO
        assert ordinal_rank(closure([(0, 0)], 2)).value == ONE
        assert ordinal_rank(closure([(0, 1)], 2)).value == from_int(2)
        assert ordinal_rank(closure([(1, 1)], 2)).value == o("w+1")
        assert ordinal_rank(closure([(2, 3)], 2)).value == o("w^2*3+1")

    def test_non_strictness_witness(self):
        a = ordinal_rank(closure([(0, 1)], 2)).value
        b = ordinal_rank(closure([(0, 1), (1, 0)], 2)).value
        assert a == b == from_int(2)

    def test_chain_rank_is_cardinality(self):
        for n in range(8):
            f = closure([(n,)], 1)
            assert ordinal_rank(f).value == from_int(n + 1)
        assert ordinal_rank(closure([], 1)).value == ZERO

    def test_contributions_sum_to_value(self):
        rng = random.Random(61)
        for _ in range(100):
            pts = [tuple(rng.randint(0, 5) for _ in range(3))
                   for _ in range(rng.randint(1, 4))]
            r = ordinal_rank(closure(pts, 3))
            total = ZERO
            for _, term in r.contributions:
                total = natural_sum(total, term)
            assert add(total, ONE) == r.value

    def test_matches_natural_sum_fold(self):
        boxes = [(2, 3, 4), (4, 4), (2, 2, 2, 2), (6,), (3, 3, 3), (2, 3, 2, 2)]
        sets = [f for box in boxes for f in enumerate_fls(box)]
        assert len(sets) == 2602
        for f in sets:
            assert ordinal_rank(f) == folded_rank(f)

    def test_memo_matches_unmemoised(self):
        """Every set of every box of volume <= 12 in dims 1-4, ranked
        through one memo shared by all the boxes, so that a memo holding
        the terms of other dimensions is covered too."""
        memo = cache(contribution)
        boxes = [b for dim in (1, 2, 3, 4) for b in product(range(1, 13), repeat=dim)
                 if math.prod(b) <= 12]
        assert len(boxes) == 254
        for box in boxes:
            for f in enumerate_fls(box):
                # the set, its value and its contributions all equal
                assert ordinal_rank(f, memo) == ordinal_rank(f)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            ordinal_rank(closure([()], 0))

    def test_rejects_unbounded_set(self):
        with pytest.raises(UnboundedError):
            ordinal_rank(GeneralLowerSet.make(2, [(1, UNBOUNDED)]))


class TestMonotone:
    def test_tiny_boxes_exhaustive(self):
        rep = check_monotone((2, 2))
        assert rep.sets_counted == 6
        assert rep.pairs_checked == 36
        assert rep.ok

    def test_rectangular_box(self):
        rep = check_monotone((3, 2))
        assert rep.sets_counted == 10 and rep.ok

    def test_three_dimensional(self):
        rep = check_monotone((2, 2, 2))
        assert rep.sets_counted == 20 and rep.ok

    def test_one_term_per_grid_point_each_call(self, monkeypatch):
        # the memo computes each generator's term once, and lives for one
        # call only: the second call works the terms out again
        calls = []
        real = linearize.lex_ordinal
        monkeypatch.setattr(linearize, "lex_ordinal", lambda v: calls.append(v) or real(v))
        counts = []
        for _ in range(2):
            calls.clear()
            assert check_monotone((2, 3, 4)).ok
            counts.append(len(calls))
        assert 0 < counts[0] <= 2 * 3 * 4 and counts[1] == counts[0]

    def test_reversed_pair_reported(self, monkeypatch):
        # the chain {} < a1 < a2 < a3 of the 1x3 box, with the ranks of
        # a1 and a3 swapped: every included pair among the three reverses
        a1, a2, a3 = (closure([(0, k)], 2) for k in range(3))
        swap = {a1: a3, a3: a1}
        real = linearize.ordinal_rank
        monkeypatch.setattr(linearize, "ordinal_rank", lambda f, *memo: real(swap.get(f, f), *memo))
        rep = check_monotone((1, 3))
        assert rep.sets_counted == 4 and rep.pairs_checked == 16
        assert rep.violations == (
            (a1, a2, from_int(3), from_int(2)),
            (a1, a3, from_int(3), from_int(1)),
            (a2, a3, from_int(2), from_int(1)),
        )

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 4),
           st.integers(0, 2**32))
    def test_matches_pairwise_reference(self, box, pool_size, seed):
        """Ranks drawn from a pool of a few ordinals, ties included, so
        that violations occur, and the sets in a shuffled order: the
        report equals a row-major loop over every ordered pair,
        inclusion decided on ``inclusion_masks``."""
        box = tuple(box)
        pool = [o(t) for t in ("0", "1", "2", "w", "w+1", "w^2")[:pool_size + 2]]
        rng = random.Random(seed)
        sets = list(enumerate_fls(box))
        rng.shuffle(sets)
        drawn = {f: rng.choice(pool) for f in sets}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linearize, "enumerate_fls", lambda b: iter(sets))
            mp.setattr(linearize, "ordinal_rank",
                       lambda f, *memo: RankAssignment(f, drawn[f], ()))
            rep = check_monotone(box)
        masks = inclusion_masks(sets)
        ranks = [drawn[f] for f in sets]
        n = len(sets)
        violations = tuple(
            (sets[i], sets[j], ranks[i], ranks[j])
            for i in range(n) for j in range(n)
            if not masks[i] & ~masks[j] and compare(ranks[i], ranks[j]) > 0
        )
        assert rep == MonotoneReport(box, n, n * n, violations)


def box_exponent(r):
    """The exponent of ``box_term(r)``'s term, built digit by digit in
    the layout of ``ordinal.lex_ordinal``: the level digits C(m,m), ...
    of the levels above j = |S| as they stand, C(m,j)-1-(lex rank of S)
    at level j, then v_1-1, ..., v_(j-1)-1.  The all-w box has E itself."""
    m = len(r)
    s = tuple(t for t, e in enumerate(r) if e != W)
    levels = [math.comb(m, i) for i in range(m, len(s), -1)]
    if not s:
        return lex_ordinal(levels)
    rank = list(combinations(range(m), len(s))).index(s)
    v = [r[t] - 1 for t in s[:-1]]
    e = lex_ordinal(levels + [math.comb(m, len(s)) - 1 - rank] + v)
    # the one decoder reads the box's block and position back
    assert type_block(e, m) == (s, v)
    return e


def mutant_term(r):
    """``box_term`` with c = v_j - 1 at every level, as at j = m."""
    key, c = box_term(r)
    return key, c - (0 < sum(e != W for e in r) < len(r))


def rank_violations(sets, term):
    """The included pairs D <= E of ``sets``, each ordered pair once, and
    how many of them ``rank_falls`` says r(D) > r(E) of, with ``term``."""
    term = cache(term)
    masks = inclusion_masks(sets)
    boxes = [set(f.rects) for f in sets]
    pairs = falls = 0
    for a, ma in zip(boxes, masks):
        for b, mb in zip(boxes, masks):
            if not ma & ~mb:
                pairs += 1
                falls += rank_falls(a, b, term)
    return pairs, falls


# menus of enumerate_gls: (dim, extents, most boxes a union)
MENUS = [(1, (1, 2, 3, 4, 5, W), 3), (2, (1, 2, 3, 4, W), 3), (3, (1, 2, W), 3)]


def random_box_sets(dim):
    rng = random.Random(4400 + dim)
    return ([rand_gls(rng, dim, max_extent=4) for _ in range(250)]
            + [GeneralLowerSet.make(dim, []), full_space(dim)])


class TestBoxTerm:
    def test_pinned(self):
        assert box_term((3,)) == ((-1, 0), 2)
        assert box_term((W,)) == ((0,), 1)
        assert box_term((2, W)) == ((-1, 0), 2)
        assert box_term((W, 5)) == ((-1, -1), 5)
        assert box_term((4, 5)) == ((-2, 0, -1, 4), 4)
        assert box_term((2, W, 3)) == ((-2, 0, -2, 2), 3)
        assert box_term(()) == ((0,), 1)

    def test_rank_falls_pinned(self):
        # [w] is all of N: w^w, above [2]'s w^0*1
        assert rank_falls({(W,)}, {(2,)}) and not rank_falls({(2,)}, {(W,)})
        # w^(w+1)*2 against w^w*5 + w^3*6: the higher block decides
        assert rank_falls({(2, W)}, {(W, 5), (4, 7)})
        # one key on both sides: the coefficients decide, then the rest
        assert rank_falls({(W, 4)}, {(W, 3)}) and not rank_falls({(W, 3)}, {(W, 4)})
        assert not rank_falls({(W, 3), (5, 4)}, {(W, 4)})
        # a term with c = 0 counts as 0: [2,1] and [1,1] both rank 1
        assert not rank_falls({(2, 1)}, {(1, 1)}) and not rank_falls({(1, 1)}, {(2, 1)})
        # the empty set ranks 0, below every other set
        assert rank_falls({(1, 1)}, set()) and not rank_falls(set(), {(1, 1)})
        assert not rank_falls(set(), set())

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_key_orders_as_the_exponent(self, m):
        # every box shape of extents <= 4: the exponent is built in
        # lex_ordinal's layout and read back by type_block; sorted by
        # key, the exponents rise, strictly exactly where the keys do
        boxes = list(product([1, 2, 3, 4, W], repeat=m))
        boxes.sort(key=lambda r: box_term(r)[0])
        exps = [box_exponent(r) for r in boxes]
        for a, b, x, y in zip(boxes, boxes[1:], exps, exps[1:]):
            assert compare(x, y) == (-1 if box_term(a)[0] < box_term(b)[0] else 0), (a, b)
        # the all-w box has the exponent of general_type itself
        assert add(omega_pow(exps[-1]), ONE) == general_type(m)

    @pytest.mark.parametrize("box", [(2, 3, 4), (3, 3, 3)])
    def test_agrees_with_ordinal_rank_on_bounded_sets(self, box):
        # the rank through box_term orders the bounded sets of the box
        # as ordinal_rank does, ties included; and rank_falls, on each
        # set against the next in a shuffled order, says what the
        # ranks' comparison says
        sets = list(enumerate_fls(box))
        ranks = {f: ordinal_rank(f).value for f in sets}

        def rank(f):
            # the natural sum of the terms, keys falling, zero ones dropped
            total = {}
            for r in f.rects:
                key, c = box_term(r)
                total[key] = total.get(key, 0) + c
            return bool(f.rects), sorted([t for t in total.items() if t[1]], reverse=True)

        ordered = sorted(sets, key=rank)
        for f, g in zip(ordered, ordered[1:]):
            assert compare(ranks[f], ranks[g]) == (-1 if rank(f) < rank(g) else 0), (f, g)
        random.Random(len(sets)).shuffle(sets)
        for f, g in zip(sets, sets[1:] + sets[:1]):
            assert rank_falls(set(f.rects), set(g.rects)) == (compare(ranks[f], ranks[g]) > 0)

    @pytest.mark.parametrize("dim,extents,most", MENUS)
    def test_monotone_on_menus(self, dim, extents, most):
        pairs, falls = rank_violations(list(enumerate_gls(dim, extents, most)), box_term)
        assert pairs > 20 and falls == 0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_monotone_on_random_box_sets(self, dim):
        pairs, falls = rank_violations(random_box_sets(dim), box_term)
        assert pairs > 15000 and falls == 0

    def test_mutant_term_fails(self):
        # c = v_j - 1 below level m breaks monotonicity: a bounded box
        # with c = 0 is no longer above the boxes of higher levels in it
        for dim, extents, most in MENUS[1:]:
            assert rank_violations(list(enumerate_gls(dim, extents, most)), mutant_term)[1] > 0
        for dim in (2, 3, 4, 5):
            assert rank_violations(random_box_sets(dim), mutant_term)[1] > 0
