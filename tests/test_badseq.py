import hashlib
import random
import re
import time
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from support import rand_ordinal, rand_staircase_ordinal
from wpo import badseq
from wpo.badseq import (
    BadSequenceRecord,
    BadnessReport,
    DescentRun,
    audit_file,
    audit_run,
    descent_start,
    generate,
    lower_set_of,
    read_run,
    run_lines,
    shape_from_ordinal,
    symbolic_length_bound,
    verify_bad,
    write_run,
)
from wpo.lowerset import (
    UNBOUNDED,
    GeneralLowerSet,
    format_box,
    format_gls,
    full_space,
    inclusion_masks,
    parse_gls,
)
from wpo.monomial import (
    MonomialIdeal,
    complement_ideal,
    format_ideal,
    parse_ideal,
    unit_ideal,
)
from wpo.cli import main
from wpo.vectors import format_point
from wpo.oracles import brute_includes, rand_gls
from wpo.ordinal import (
    ONE,
    Ordinal,
    ZERO,
    add,
    common_prefix,
    compare,
    format_ordinal,
    fundamental,
    omega_pow,
    parse_ordinal,
)

W = UNBOUNDED


def o(text):
    return parse_ordinal(text)


def run_of(dim, sets):
    """A run whose records carry ``sets``; only the lower sets are real."""
    records = tuple(
        BadSequenceRecord(k + 1, ZERO, s, 0, s.max_finite_extent, None, 0, 0)
        for k, s in enumerate(sets)
    )
    return DescentRun(dim, 1, ZERO, records)


def includes_scan(sets, included=None):
    """Reference verifier: the row-major pair scan with one inclusion
    test a pair, stopping at the first D_i <= D_j."""
    if included is None:
        def included(small, big):
            return big.includes(small)
    pairs = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            pairs += 1
            if included(sets[i], sets[j]):
                return BadnessReport(len(sets), pairs, (i + 1, j + 1))
    return BadnessReport(len(sets), pairs, None)


def record_text(r):
    """The record line of ``r``, formatted column by column from scratch."""
    return "|".join([str(r.index), format_ordinal(r.alpha), format_gls(r.lower_set),
                     str(r.norm), str(r.extent), format_ideal(r.ideal), str(r.degree),
                     str(r.bound)])


# first records of the dimension-2 base-2 run, derived by hand
FROZEN_RUN2 = [
    (1, "w^(w+1)*2", "[2,w]", 2, 2, 9),
    (2, "w^(w+1)+w^w*3", "[1,w]u[w,3]", 4, 3, 16),
    (3, "w^(w+1)+w^w*2+w^4", "[1,w]u[7,5]u[w,2]", 8, 7, 25),
    (4, "w^(w+1)+w^w*2+w^3*5", "[1,w]u[6,9]u[w,2]", 11, 9, 36),
    (5, "w^(w+1)+w^w*2+w^3*4+w^2*6", "[1,w]u[5,14]u[6,8]u[w,2]", 16, 14, 49),
    (6, "w^(w+1)+w^w*2+w^3*4+w^2*5+w*7", "[1,w]u[4,20]u[5,13]u[6,8]u[w,2]", 22, 20, 64),
    (7, "w^(w+1)+w^w*2+w^3*4+w^2*5+w*6+8", "[1,w]u[3,27]u[4,19]u[5,13]u[6,8]u[w,2]", 29, 27, 81),
    (8, "w^(w+1)+w^w*2+w^3*4+w^2*5+w*6+7", "[1,w]u[3,26]u[4,19]u[5,13]u[6,8]u[w,2]", 28, 26, 100),
]


class TestShape2:
    """The staircase of dimension 2: slabs w^(w+1)*c and w^w*c, then
    steps w^a*c."""

    def test_pinned_staircase(self):
        alpha = o("w^(w+1)+w^w+w^2*3")
        rects, norm = shape_from_ordinal(alpha, 2)
        assert format_gls(lower_set_of(alpha, 2)) == "[1,w]u[5,6]u[w,1]"
        assert norm == 7
        assert lower_set_of(alpha, 2).max_finite_extent == 6
        assert rects == [(1, W), (W, 1), (5, 6)]

    def test_zero_shape(self):
        assert shape_from_ordinal(ZERO, 2) == ([], 0)
        assert format_gls(lower_set_of(ZERO, 2)) == "empty"

    def test_rejects_outside_fragment(self):
        for bad in ["w^(w+2)", "w^(w*2)", "w^(w^2)", "w^(w+1)+w^(w*9)"]:
            with pytest.raises(ValueError):
                shape_from_ordinal(o(bad), 2)

    def test_all_boxes_survive_canonicalization(self):
        rng = random.Random(71)
        for _ in range(200):
            rects, _ = shape_from_ordinal(rand_staircase_ordinal(rng, 2), 2)
            assert len(GeneralLowerSet.make(2, rects).rects) == len(rects)


class TestShape3:
    """The staircase of dimension 3: slabs, the faces of the three
    coordinate pairs, then corners bounded in all three."""

    def test_slab_only(self):
        alpha = o("w^(w^2+w*3+2)*2")
        assert format_gls(lower_set_of(alpha, 3)) == "[2,w,w]"
        assert shape_from_ordinal(alpha, 3)[1] == 2

    def test_rejects_outside_fragment(self):
        for bad in ["w^(w^2+w*3+3)", "w^(w^2*2)", "w^(w^3)", "w^(w^2+w*4)"]:
            with pytest.raises(ValueError):
                shape_from_ordinal(o(bad), 3)

    def test_corner_boxes_cleared_past_faces(self):
        # slab x of 1, slab z of 2, face xy at offset 3 with coefficient
        # 2, and one corner at position (0, 0)
        alpha = o("w^(w^2+w*3+2)+w^(w^2+w*3)*2+w^(w^2+w*2+3)*2+1")
        rects, _ = shape_from_ordinal(alpha, 3)
        # the empty y-slab is left out; faces reach x=6, y=4 and the
        # z-slab z=2, so the corner box must start beyond all three
        assert rects[:2] == [(1, W, W), (W, W, 2)]
        assert rects[2] == (6, 4, W)
        assert rects[3] == (6 + 2, 4 + 2, 2 + 1 + 2)
        assert len(lower_set_of(alpha, 3).rects) == len(rects)

    def test_all_boxes_survive_canonicalization(self):
        rng = random.Random(79)
        for _ in range(200):
            rects, _ = shape_from_ordinal(rand_staircase_ordinal(rng, 3), 3)
            assert len(GeneralLowerSet.make(3, rects).rects) == len(rects)

    def test_shape_from_ordinal_dispatch(self):
        assert shape_from_ordinal(o("w^w"), 2) == ([(W, 1)], 1)
        assert shape_from_ordinal(o("w^(w^2)"), 3) == ([(W, 2, 3)], 1)
        assert shape_from_ordinal(o("w"), 4) == ([(2, 2, 3, 3)], 2)
        with pytest.raises(ValueError):
            shape_from_ordinal(o("w^(w^4)"), 4)


class TestStaircase:
    """The rule in any dimension."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_descent_start_is_the_first_ordinal_left_out(self, dim):
        with pytest.raises(ValueError, match="is not below"):
            shape_from_ordinal(descent_start(dim), dim)
        rects, _ = shape_from_ordinal(fundamental(descent_start(dim), 3), dim)
        assert rects == [(3,) + (W,) * (dim - 1)]

    def test_one_dimension(self):
        assert shape_from_ordinal(o("5"), 1) == ([(5,)], 5)
        for bad in ["w", "w^2", "w+1"]:
            with pytest.raises(ValueError):
                shape_from_ordinal(o(bad), 1)

    def test_blocks_in_four_dimensions(self):
        # one term of each level: a slab in coordinate 1, the face of
        # coordinates (2, 3) at offset 4, the 3-block (0, 1, 3) at
        # position (1, 2), and the corner at position (0, 1, 0)
        alpha = o("w^(w^3+w^2*4+w*6+2)*3+w^(w^3+w^2*4+4)*2"
                  "+w^(w^3+w^2*2+w+2)+w^w*5")
        rects, norm = shape_from_ordinal(alpha, 4)
        assert rects == [
            (W, 3, W, W),
            (W, W, 0 + 4 + 2, 0 + 2 + 2),
            (0 + 1 + 2, 3 + 2 + 2, W, 4 + 1 + 2),
            (3 + 0 + 2, 7 + 1 + 2, 6 + 0 + 2, 7 + 5 + 2),
        ]
        assert norm == 3 + 2 + 1 + 5 + 4

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_all_boxes_survive_canonicalization(self, dim):
        rng = random.Random(400 + dim)
        for _ in range(150):
            rects, _ = shape_from_ordinal(rand_staircase_ordinal(rng, dim), dim)
            assert len(GeneralLowerSet.make(dim, rects).rects) == len(rects)


def ordinal_walk(rng, dim, length):
    """Ordinals below descent_start(dim) in the orders a run and an
    audit of a tampered file meet them: descent steps, repeats (the same
    object, or an equal one parsed anew), jumps to an unrelated ordinal,
    and a kept prefix of the ordinal before with a new tail."""
    alpha = rand_staircase_ordinal(rng, dim, max_terms=6)
    walk = [alpha]
    for _ in range(length):
        move = rng.random()
        if move < 0.4 and alpha:
            alpha = badseq._step(alpha, rng.randint(1, 4))
        elif move < 0.5:
            alpha = parse_ordinal(format_ordinal(alpha))
        elif move < 0.6:
            pass
        elif move < 0.75:
            alpha = rand_staircase_ordinal(rng, dim, max_terms=6)
        else:
            head = alpha.terms[:rng.randint(0, len(alpha.terms))]
            tail = [t for t in rand_staircase_ordinal(rng, dim, max_terms=6).terms
                    if not head or compare(t[0], head[-1][0]) < 0]
            alpha = Ordinal(head + tuple(tail))
        walk.append(alpha)
    return walk


def check_derivations(dim, alphas):
    """Derive ``alphas`` through one fold and compare each record, and
    its line in ``run_lines``, with a derivation from scratch."""
    fold = badseq._IdealFold(dim)
    records = []
    for alpha in alphas:
        try:
            rects, norm = shape_from_ordinal(alpha, dim)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                fold.derive(alpha, common_prefix(fold.terms, alpha))
            continue
        lset = GeneralLowerSet.make(dim, rects)
        derived = fold.derive(alpha, common_prefix(fold.terms, alpha))
        rec = badseq._derive(2, len(records) + 1, alpha, derived)
        assert (rec.lower_set, rec.norm, rec.ideal) == (lset, norm, complement_ideal(lset))
        # the fold takes its lower set and ideal as built: the checked
        # constructors accept them
        assert GeneralLowerSet(dim, rec.lower_set.rects) == rec.lower_set
        assert MonomialIdeal(dim, rec.ideal.gens) == rec.ideal
        # the running extent of the staircase state: every box is in the set
        assert rec.extent == lset.max_finite_extent
        records.append(rec)
    lines = run_lines(DescentRun(dim, 2, descent_start(dim), tuple(records)))
    assert lines[7:] == [record_text(r) for r in records]


class TestDeriver:
    """The fold derives each record from the one before it exactly as
    from scratch, whatever the previous ordinal was."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_walks_match_derivation_from_scratch(self, dim):
        rng = random.Random(900 + dim)
        for _ in range(25):
            check_derivations(dim, ordinal_walk(rng, dim, 30))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_ordinal_not_below_the_start_leaves_the_fold_whole(self, dim):
        rng = random.Random(950 + dim)
        top = omega_pow(omega_pow(dim))
        for _ in range(10):
            walk = ordinal_walk(rng, dim, 12)
            k = rng.randint(1, len(walk) - 1)
            bad = rng.choice([descent_start(dim), top, top + walk[k]])
            check_derivations(dim, walk[:k] + [bad] + walk[k:])


class TestCursor:
    """A descent step rewrites only the last term of a normal form, so
    ``_descent`` steps that term alone and says how many terms it kept:
    the fold and the writer take that count instead of comparing an
    ordinal with the one before."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_last_term_step_is_the_step(self, dim):
        rng = random.Random(1700 + dim)
        start = descent_start(dim)
        alphas = [rand_staircase_ordinal(rng, dim, max_terms=6) for _ in range(150)]
        alphas += [a for a in (rand_ordinal(rng, 5) for _ in range(150)) if a < start]
        for alpha in filter(None, alphas):
            head, last = alpha.terms[:-1], Ordinal(alpha.terms[-1:])
            for x in range(6):
                step = badseq._step(alpha, x)
                assert Ordinal(head + badseq._step(last, x).terms) == step, (alpha, x)
                assert common_prefix(alpha, step) == len(head)

    @pytest.mark.parametrize("dim,n", [(1, 10), (2, 300), (3, 120), (4, 60), (5, 40)])
    def test_descent_says_what_each_step_kept(self, dim, n):
        steps = list(islice(badseq._descent(dim, 2), n))
        alpha = descent_start(dim)
        for rec, kept in steps:
            assert rec.alpha == badseq._step(alpha, 2 + rec.index - 1)
            assert kept == common_prefix(alpha, rec.alpha) == len(alpha) - 1
            alpha = rec.alpha
        assert [line for _, line in badseq._record_lines(steps)] == \
            [record_text(r) for r, _ in steps]

    @pytest.mark.parametrize("dim,n", [(1, 10), (2, 60), (3, 40), (4, 20)])
    def test_common_prefix_only_where_the_origin_is_unknown(self, dim, n, tmp_path,
                                                             monkeypatch):
        calls = []
        real = badseq.common_prefix

        def counted(xs, ys):
            calls.append(len(ys))
            return real(xs, ys)
        monkeypatch.setattr(badseq, "common_prefix", counted)
        run = generate(dim, 2, n)
        assert calls == []
        path = tmp_path / "run.rec"
        write_run(run, str(path))
        # run_lines formats a run of any origin: one comparison a record
        assert len(calls) == len(run.records)
        calls.clear()
        assert audit_file(str(path)) == (run, [])
        assert calls == []
        # the reference derives every stored ordinal through the fold
        assert audit_run(run) == []
        assert len(calls) == len(run.records)


class TestGenerate:
    def test_start_ordinals(self):
        assert format_ordinal(descent_start(2)) == "w^(w+2)"
        assert format_ordinal(descent_start(3)) == "w^(w^2+w*3+3)"
        assert format_ordinal(descent_start(1)) == "w"
        assert format_ordinal(descent_start(4)) == "w^(w^3+w^2*4+w*6+4)"
        with pytest.raises(ValueError):
            descent_start(0)

    def test_frozen_prefix(self):
        run = generate(2, 2, 8)
        assert len(run.records) == 8
        for rec, (i, alpha, lset, n, m, bound) in zip(run.records, FROZEN_RUN2):
            assert rec.index == i
            assert format_ordinal(rec.alpha) == alpha
            assert format_gls(rec.lower_set) == lset
            assert rec.norm == n
            assert rec.extent == m
            assert rec.bound == bound

    def test_ordinals_strictly_decrease(self):
        for dim, n in ((2, 120), (3, 80)):
            run = generate(dim, 2, n)
            assert compare(descent_start(dim), run.records[0].alpha) == 1
            for a, b in zip(run.records, run.records[1:]):
                assert compare(a.alpha, b.alpha) == 1

    def test_degree_matches_ideal(self):
        run = generate(3, 2, 40)
        for rec in run.records:
            assert rec.degree == rec.ideal.degree()
            assert rec.ideal == rec.ideal.make(3, rec.ideal.gens)

    def test_extent_norm_boundary(self):
        # the very first record meets the norm exactly: a single slab
        # of width 2; every record stays at or under it
        for dim in (2, 3):
            run = generate(dim, 2, 120)
            first = run.records[0]
            assert first.extent == first.norm == 2
            for rec in run.records:
                assert rec.extent <= rec.norm

    @pytest.mark.parametrize("dim,n", [(2, 150), (3, 50)])
    @pytest.mark.parametrize("base", range(1, 9))
    def test_gauges_on_every_base(self, dim, n, base):
        run = generate(dim, base, n)
        assert len(run.records) == n
        for i, rec in enumerate(run.records, start=1):
            assert rec.extent <= rec.norm, rec.index
            assert rec.norm <= (base + i) ** 2, rec.index
            assert rec.degree <= (base + i) ** 2, rec.index
        assert verify_bad(run).ok

    @pytest.mark.parametrize("dim,n,base,digest", [
        (2, 300, 1, "b342b85bcd6762b20beed27740aeadb58f06d4f93d89cc7eaa863aeb3134e966"),
        (2, 300, 2, "42e783af15b218aaee431567d9194ad9ae4930533e97cbd899096cf38302728f"),
        (2, 300, 3, "92b41604220a43529754d40e355d18b82bd2caad03f67745595fa4ea5c0e06ef"),
        (3, 120, 1, "3d0cc97b5c71a4cb83849e24359dddf73cae42255bce2ee181565ca94910c1ec"),
        (3, 120, 2, "ea7c88dceed722b3b2a1e981e474f7d2470ecb57ea2262061e4fa33703ffa824"),
        (3, 120, 3, "cc5912fdd0d79df8fbe7a30a64890e6f5a278ef992ec750b47c4780214859f2c"),
        (1, 10, 3, "c12e9862181dfb1f117be6a1650c858479edfaeadb3ffeaaf8b7c82e138ade1e"),
        (4, 100, 2, "3cf722a10948d29fc31c20ab316753af80f69978002c6a664829763de64b32e8"),
        (5, 40, 2, "69c33ca21c1c5caf5e50a21a9863858a024eb74554ad2e82a991dfa319b7f1a0"),
    ])
    def test_pinned_record_files(self, dim, n, base, digest):
        # sha256 of the `wpo badseq -m dim -K base -n n` output: dims 2
        # and 3 taken from the shapes the staircase rule replaced, dims
        # 1, 4 and 5 from the writer before the descent said which terms
        # each step kept
        text = "\n".join(run_lines(generate(dim, base, n))) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("base", range(1, 6))
    def test_one_dimension_counts_down(self, base):
        run = generate(1, base, 50)
        assert [format_ordinal(r.alpha) for r in run.records] == \
            [str(k) for k in range(base, -1, -1)]
        assert [format_gls(r.lower_set) for r in run.records][-2:] == ["[1]", "empty"]
        assert verify_bad(run).ok
        assert audit_run(run) == []

    @pytest.mark.parametrize("base", [1, 2, 3])
    def test_four_dimensions(self, base):
        n = 60
        run = generate(4, base, n)
        assert len(run.records) == n
        for i, rec in enumerate(run.records, start=1):
            assert rec.extent <= rec.norm <= (base + i) ** 2, rec.index
        assert verify_bad(run).ok
        assert audit_run(run) == []

    def test_four_dimensions_scale(self):
        # the complement fold canonicalizes up to about 500 raised
        # points a box here, too many for a pairwise minimal_points
        began = time.perf_counter()
        run = generate(4, 1, 100)
        assert time.perf_counter() - began < 10
        assert len(run.records) == 100
        assert audit_run(run) == []

    def test_audit_clean(self):
        assert audit_run(generate(2, 2, 60)) == []
        assert audit_run(generate(3, 2, 30)) == []

    def test_membership_law_on_records(self):
        rng = random.Random(83)
        run = generate(2, 2, 50)
        for rec in run.records[::7]:
            b = rec.lower_set.max_finite_extent + 1
            for _ in range(50):
                p = (rng.randint(0, b), rng.randint(0, b))
                assert rec.ideal.member(p) != rec.lower_set.member(p)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            generate(2, 0, 5)
        with pytest.raises(ValueError):
            generate(0, 2, 5)
        with pytest.raises(ValueError, match="base has 2001 digits"):
            generate(2, 10**2000, 5)
        assert generate(2, 2, 0).records == ()


class TestVerifyBad:
    def test_generated_runs_are_bad(self):
        run = generate(2, 2, 100)
        rep = verify_bad(run)
        assert rep.ok and rep.pairs_checked == 4950

    def test_constant_sequence_flagged(self):
        run = generate(2, 2, 2)
        dup = replace(run.records[0], index=2)
        rep = verify_bad(DescentRun(2, 2, run.start, (run.records[0], dup)))
        assert rep.first_violation == (1, 2)

    def test_inclusion_direction(self):
        # a strictly growing pair is caught immediately
        a = lower_set_of(o("w^w"), 2)
        b = lower_set_of(o("w^w*2"), 2)
        run = generate(2, 2, 2)
        r1 = replace(run.records[0], lower_set=a)
        r2 = replace(run.records[1], lower_set=b)
        rep = verify_bad(DescentRun(2, 2, run.start, (r1, r2)))
        assert rep.first_violation == (1, 2)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_includes_scan_on_random_runs(self, dim):
        rng = random.Random(3000 + dim)
        empty = GeneralLowerSet.make(dim, [])
        for _ in range(150):
            sets = []
            for _ in range(rng.randint(0, 8)):
                pick = rng.random()
                if pick < 0.1:
                    sets.append(empty)
                elif pick < 0.15:
                    sets.append(full_space(dim))
                elif pick < 0.35 and sets:
                    sets.append(rng.choice(sets))
                else:
                    sets.append(rand_gls(rng, dim, max_extent=4))
            rep = verify_bad(run_of(dim, sets))
            assert rep == includes_scan(sets)
            assert rep == includes_scan(sets, brute_includes)

    @pytest.mark.parametrize("dim,count", [(2, 60), (3, 30)])
    def test_matches_includes_scan_on_tampered_runs(self, dim, count):
        run = generate(dim, 2, count)
        sets = [r.lower_set for r in run.records]
        assert verify_bad(run) == includes_scan(sets)
        rng = random.Random(dim)
        for _ in range(25):
            i, j = sorted(rng.sample(range(count), 2))
            tampered = sets[:j] + [sets[i]] + sets[j + 1:]
            records = list(run.records)
            records[j] = replace(records[j], lower_set=sets[i])
            rep = verify_bad(DescentRun(dim, 2, run.start, tuple(records)))
            assert rep == includes_scan(tampered)
            assert rep.first_violation is not None

    def test_masks_decide_every_pair(self):
        rng = random.Random(17)
        for dim in (0, 1, 2, 3, 4, 5):
            sets = [rand_gls(rng, dim, max_extent=4) for _ in range(12)]
            sets += [GeneralLowerSet.make(dim, []), full_space(dim)]
            masks = inclusion_masks(sets)
            for a, ma in zip(sets, masks):
                for b, mb in zip(sets, masks):
                    assert (ma & ~mb == 0) == brute_includes(a, b)

    def test_order_reversal_spot_check(self):
        """Strict order reversal between arbitrary shapes, not only
        descent neighbors: alpha' < alpha means D(alpha) never fits
        inside D(alpha')."""
        rng = random.Random(89)
        for dim in (1, 2, 3, 4):
            for _ in range(500):
                s, t = rand_staircase_ordinal(rng, dim), rand_staircase_ordinal(rng, dim)
                c = compare(s, t)
                if c == 0:
                    continue
                big, small = (s, t) if c == 1 else (t, s)
                assert not lower_set_of(small, dim).includes(lower_set_of(big, dim))


class TestAudit:
    def test_detects_tampered_fields(self):
        run = generate(2, 2, 10)
        rec = run.records[4]
        top = "w^(w+1)+w^w*2+w^3*4"
        cases = {
            "norm": (replace(rec, norm=rec.norm + 1), ["record 5: norm 17 != 16"]),
            "extent": (replace(rec, extent=rec.extent + 1), ["record 5: extent 15 != 14"]),
            "degree": (replace(rec, degree=rec.degree - 1), ["record 5: degree 14 != 15"]),
            "bound": (replace(rec, bound=rec.bound + 1), ["record 5: bound 50 != 49"]),
            "ordinal": (replace(rec, alpha=o("w^w")), [
                f"record 5: ordinal w^w is not the descent value {top}+w^2*6",
                "record 5: lower set mismatch",
                "record 5: norm 16 != 1",
                "record 5: extent 14 != 1",
                "record 5: ideal mismatch",
                "record 5: degree 15 != 1",
                f"record 6: ordinal {top}+w^2*5+w*7 is not the descent value w^7",
            ]),
            "lower set": (replace(rec, lower_set=lower_set_of(o("w^w"), 2)),
                          ["record 5: lower set mismatch"]),
            "ideal": (replace(rec, ideal=unit_ideal(2)), ["record 5: ideal mismatch"]),
            "index": (replace(rec, index=11), [
                "record 5: index says 11",
                f"record 6: ordinal {top}+w^2*5+w*7 is not the descent value {top}+w^2*7",
            ]),
        }
        for label, (bad, expected) in cases.items():
            records = list(run.records)
            records[4] = bad
            problems = audit_run(DescentRun(2, 2, run.start, tuple(records)))
            assert problems == expected, label

    def test_detects_wrong_start(self):
        run = generate(2, 2, 5)
        problems = audit_run(DescentRun(2, 2, o("w^(w+1)"), run.records))
        assert any("starts at" in p for p in problems)

    def test_norm_and_degree_envelopes_checked(self):
        run = generate(2, 2, 5)
        records = list(run.records)
        records[2] = replace(records[2], norm=10**6, bound=10**6 - 1)
        problems = audit_run(DescentRun(2, 2, run.start, tuple(records)))
        assert any("exceeds bound" in p for p in problems)

    def test_extent_over_norm_checked(self):
        run = generate(2, 2, 5)
        records = list(run.records)
        records[3] = replace(records[3], norm=records[3].extent - 1)
        problems = audit_run(DescentRun(2, 2, run.start, tuple(records)))
        assert f"record 4: extent {records[3].extent} exceeds norm " \
               f"{records[3].extent - 1}" in problems


class TestRecordFiles:
    def test_round_trip(self, tmp_path):
        run = generate(3, 2, 25)
        path = tmp_path / "run.rec"
        write_run(run, str(path))
        back = read_run(str(path))
        assert back == run

    def test_text_column_on_a_run_read_back(self, tmp_path):
        path = tmp_path / "run.rec"
        write_run(generate(3, 2, 40), str(path))
        back = read_run(str(path))
        assert run_lines(back) == path.read_text().splitlines()
        # each ordinal parsed on its own: equal terms that are never the
        # same objects as the terms of the record before
        alone = replace(back, records=tuple(
            replace(r, alpha=parse_ordinal(format_ordinal(r.alpha))) for r in back.records))
        for run in (back, alone):
            assert run_lines(run)[7:] == [record_text(r) for r in run.records]

    def test_bit_exact(self, tmp_path):
        run = generate(2, 2, 30)
        p1, p2 = tmp_path / "a.rec", tmp_path / "b.rec"
        write_run(run, str(p1))
        write_run(read_run(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_contents(self, tmp_path):
        run = generate(3, 2, 3)
        path = tmp_path / "run.rec"
        write_run(run, str(path))
        text = path.read_text()
        assert "# length-bound: H_{w^(w^2+w*3+3)}(2)-2" in text
        assert "# dim: 3" in text

    def test_malformed_line_reported_with_number(self, tmp_path):
        run = generate(2, 2, 3)
        path = tmp_path / "run.rec"
        write_run(run, str(path))
        lines = path.read_text().splitlines()
        lines[8] = "not|enough|columns"
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="line 9"):
            read_run(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "run.rec"
        path.write_text("# dim: 2\n# base: 2\n")
        with pytest.raises(ValueError, match="start"):
            read_run(str(path))

    def test_record_count_must_match_header(self, tmp_path):
        run = generate(2, 2, 10)
        path = tmp_path / "run.rec"
        write_run(run, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="header says 10 records but the file holds 7"):
            read_run(str(path))
        path.write_text("\n".join(l for l in lines if not l.startswith("# records:")))
        with pytest.raises(ValueError, match="records"):
            read_run(str(path))

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.rec"
        write_run(generate(2, 2, 10), str(path))
        old = path.read_bytes()

        def broken(run):
            raise RuntimeError("disk full")

        monkeypatch.setattr(badseq, "run_lines", broken)
        with pytest.raises(RuntimeError):
            write_run(generate(2, 2, 20), str(path))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["run.rec"]

    def test_failed_rename_removes_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.rec"
        write_run(generate(2, 2, 10), str(path))
        old = path.read_bytes()

        def broken(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(badseq.os, "replace", broken)
        with pytest.raises(OSError, match="rename refused"):
            write_run(generate(2, 2, 20), str(path))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["run.rec"]


def tampered(rng, text, texts, sep, fmt, empty, malformed):
    """``text``, a lower-set or ideal column of a record, as a tampered
    file may hold it.  Its items are shuffled, one is repeated, changed,
    dropped or joined by one of the ``malformed`` chunks, or the whole
    text becomes ``empty`` (the text of no items) or another of the
    run's ``texts``.  ``fmt`` formats an item."""
    items = [] if text == empty else text.split(sep)
    move = rng.randrange(7)
    if move == 0:
        rng.shuffle(items)
    elif move == 1 and items:
        items.insert(rng.randrange(len(items) + 1), rng.choice(items))
    elif move == 2 and items:
        # an item changed, in place of the old one or beside it: a box
        # one smaller or a generator one larger, which the old one
        # dominates; a 0 extent; one coordinate more or less
        k = rng.randrange(len(items))
        p = (parse_gls if sep == "u" else parse_ideal)(items[k])
        v = list(p.rects[0] if sep == "u" else p.gens[0])
        t = rng.randrange(len(v))
        change = rng.randrange(4)
        if change == 0 and sep == "u":
            v[t] = 1 if v[t] == UNBOUNDED else max(v[t] - 1, 1)
        elif change == 0:
            v[t] += 1
        elif change == 1:
            v[t] = 0
        elif change == 2:
            v.append(v[t])
        else:
            del v[t]
        new = fmt(tuple(v))
        items[k:k + 1] = rng.choice([[new], [items[k], new], [new, items[k]]])
    elif move == 3 and items:
        del items[rng.randrange(len(items))]
    elif move == 4:
        items.insert(rng.randrange(len(items) + 1), rng.choice(malformed))
    elif move == 5:
        items = []
    elif move == 6:
        items = rng.choice(texts).split(sep)
    return sep.join(items) if items else empty


COLUMN_TAMPERING = {
    # "[0,0,0,0,0]" is empty, but of the wrong arity in dims 1-4
    2: ("u", format_box, "empty",
        ["[1,,2]", "[", "", " [1]", "[2,x]", "(1)", "[-1]", "[01]", "[0,0,0,0,0]"]),
    5: (";", format_point, "0", ["(1,,2)", "(", "", " (1)", "(2,x)", "[1]", "(-1)", "empty"]),
}


def tampered_files(rng, dim, lines):
    """(what, lines) of copies of the record file ``lines``: clean, one
    lower-set or ideal column tampered, an ordinal, index or norm
    changed, an ordinal written with spaces, a 4300-digit index, a
    record dropped, repeated, swapped with the next or copied after the
    last, a wrong ``records`` header, CRLF line endings, blank lines,
    another start or base, and headers after the first record, in the
    cases whose names end "the records", which the readers refuse.
    ``VERDICTS`` has the exit status of ``wpo verify`` on the cases
    whose tampering decides it."""
    head, body = lines[:7], lines[7:]
    rows = [line.split("|") for line in body]

    def with_cell(k, column, text):
        cols = list(rows[k])
        cols[column] = text
        return head + body[:k] + ["|".join(cols)] + body[k + 1:]

    yield "clean", lines
    yield "blank lines between records", head + [x for line in body for x in ("", line)]
    # a record in the middle: a degree past its bound; the ordinal of the
    # record before; a malformed box or generator after its own, read
    # after the items before it; an empty box of the wrong arity first
    k = len(rows) // 2
    yield (f"record {k + 1} degree past its bound",
           with_cell(k, 6, str(int(rows[k][7]) + 1)))
    yield f"record {k + 1} with record {k}'s ordinal", with_cell(k, 1, rows[k - 1][1])
    yield (f"record {k + 1} with a malformed box after its own",
           with_cell(k, 2, rows[k][2] + "u[1,,2]"))
    yield (f"record {k + 1} with a malformed generator after its own",
           with_cell(k, 5, rows[k][5] + ";(1,,2)"))
    yield (f"record {k + 1} with an empty box of the wrong arity first",
           with_cell(k, 2, f"[{','.join(['0'] * (dim + 1))}]u{rows[k][2]}"))
    # the last record holds the first one's lower set, so contains it
    yield f"record {len(rows)} holds record 1's lower set", with_cell(len(rows) - 1, 2, rows[0][2])
    for _ in range(8):
        k = rng.randrange(len(rows))
        for column, (sep, fmt, empty, malformed) in COLUMN_TAMPERING.items():
            text = tampered(rng, rows[k][column], [r[column] for r in rows],
                            sep, fmt, empty, malformed)
            yield f"record {k + 1} column {column} {text}", with_cell(k, column, text)
    for _ in range(3):
        k = rng.randrange(len(rows))
        for column, text in [
            (1, rng.choice(rows)[1]),
            (1, format_ordinal(rand_staircase_ordinal(rng, dim))),
            (1, format_ordinal(omega_pow(omega_pow(dim)))),  # not below the start
            (1, rows[k][1] + "+"),
            (0, rng.choice([str(k), str(k + 2), "x"])),
            (3, str(int(rows[k][3]) + 1)),
        ]:
            yield f"record {k + 1} column {column} {text}", with_cell(k, column, text)
        yield f"record {k + 1} dropped", head + body[:k] + body[k + 1:]
    def one_more(head):
        return [f"# records: {len(rows) + 1}" if line.startswith("# records:") else line
                for line in head]

    yield "records header", one_more(lines)
    # records out of place: the lines from the shift on are parsed, and
    # past the record of 0 no record is regenerated
    k = rng.randrange(len(rows))
    yield f"record {k + 1} repeated", one_more(head) + body[:k + 1] + body[k:]
    if len(rows) > 1:
        k = rng.randrange(len(rows) - 1)
        yield (f"records {k + 1} and {k + 2} swapped",
               head + body[:k] + [body[k + 1], body[k]] + body[k + 2:])
    last = "|".join([str(len(rows) + 1)] + rows[-1][1:])
    yield "last record copied after it", one_more(head) + body + [last]
    yield "CRLF line endings", [line + "\r" for line in lines]
    # the headers are the "#" lines before the first record, and the
    # readers refuse a file with a header after it: a header block
    # without all of dim, base, start and records is missing one, and a
    # "#" line after a record is a bad record line
    yield "headers after the records", body + head
    yield "start after the records", head[1:2] + body + head[:1] + head[2:]
    start = head.index(f"# start: {format_ordinal(descent_start(dim))}")
    for text in ("w", format_ordinal(omega_pow(omega_pow(dim))), "w^w+"):
        yield f"start {text}", head[:start] + [f"# start: {text}"] + head[start + 1:] + body
    # a run's start before the records, and one of the same form after
    text = format_ordinal(omega_pow(add(descent_start(dim).terms[0][0], ONE)))
    yield f"start {text} after the records", lines + [f"# start: {text}"]
    # the same ordinal with spaces around each '+': parsed, not stepped
    k = rng.randrange(len(rows))
    text = " " + rows[k][1].replace("+", " + ")
    yield f"record {k + 1} ordinal with spaces around each '+'", with_cell(k, 1, text)
    # an index whose step argument has too many digits for str()
    yield f"record {k + 1} index of 4300 digits", with_cell(k, 0, "9" * 4300)
    # another base: a regenerated run whose every line differs, or a
    # base that no run takes, too small or of too many digits
    at = next(i for i, line in enumerate(head) if line.startswith("# base:"))
    base = int(head[at].partition(":")[2])
    for text in (str(base + 1), "0", "9" * 2200):
        yield f"base {text}", head[:at] + [f"# base: {text}"] + head[at + 1:] + body
    # the base header alone after the records, another one after them,
    # or another base before them and the file's own after them
    yield "base after the records", head[:at] + head[at + 1:] + body + head[at:at + 1]
    yield f"base {base + 1} after the records", lines + [f"# base: {base + 1}"]
    for text in (str(base + 1), "0", "9" * 2200):
        yield (f"base {text} before the records",
               head[:at] + [f"# base: {text}"] + head[at + 1:] + body + head[at:at + 1])


# `wpo verify`'s exit status on the cases of tampered_files whose
# tampering decides it, by name with each number written N
VERDICTS = {
    "clean": 0,
    "blank lines between records": 0,
    "CRLF line endings": 0,
    "record N ordinal with spaces around each '+'": 0,
    "record N degree past its bound": 1,
    "record N with record N's ordinal": 1,
    "record N holds record N's lower set": 1,
    "record N repeated": 1,
    "record N with a malformed box after its own": 2,
    "record N with a malformed generator after its own": 2,
    "record N with an empty box of the wrong arity first": 2,
}


def reference_audit(path):
    """``audit_file``'s reference: read_run, every column parsed in full,
    then audit_run."""
    run = read_run(path)
    return run, audit_run(run)


def verified(audit, path, monkeypatch, capsys):
    """``wpo verify path`` with ``audit`` in place of ``audit_file``:
    the outcome of the one call to ``audit``, the exit status and the
    captured output."""
    seen = []

    def recorded(p):
        try:
            got = audit(p)
        except ValueError as exc:
            seen.append((type(exc), str(exc)))
            raise
        seen.append(got)
        return got

    with monkeypatch.context() as patch:
        patch.setattr(badseq, "audit_file", recorded)
        status = main(["verify", str(path)])
    return seen, status, capsys.readouterr()


class TestAuditFile:
    """``audit_file``, the one pass of ``wpo verify``, gives what read_run
    and audit_run give: the same run and problems, or the same error."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_read_run_and_audit_run(self, dim, tmp_path, capsys, monkeypatch):
        rng = random.Random(1300 + dim)
        path = tmp_path / "run.rec"
        kinds, pinned = set(), set()
        for base in (2, 3):
            lines = run_lines(generate(dim, base, 20))
            for what, tampered_lines in tampered_files(rng, dim, lines):
                path.write_text("\n".join(tampered_lines) + "\n")
                # the same outcome, and so wpo verify prints and exits as before
                got = verified(audit_file, path, monkeypatch, capsys)
                assert got == verified(reference_audit, path, monkeypatch, capsys), what
                [result] = got[0]
                kinds.add("error" if isinstance(result[0], type) else bool(result[1]))
                name = re.sub(r"\d+", "N", what)
                if name in VERDICTS:
                    assert got[1] == VERDICTS[name], what
                    pinned.add(name)
        assert kinds == {"error", True, False}
        assert pinned == set(VERDICTS)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_header_after_a_record_refused(self, dim, tmp_path, capsys):
        # the header block is checked at the first record, so one that
        # lacks a header or says a base no run takes is refused there;
        # else the "#" line after the records is a bad record line
        path = tmp_path / "run.rec"
        lines = run_lines(generate(dim, 2, 20))
        first = {"headers after the records": "missing header 'dim'",
                 "start after the records": "missing header 'base'",
                 "base after the records": "missing header 'base'",
                 "base 0 before the records": "header says base 0, which is not an integer >= 1",
                 f"base {'9' * 2200} before the records":
                     "base has 2200 digits, more than the 2000 a run takes"}
        late = [(what, tampered_lines)
                for what, tampered_lines in tampered_files(random.Random(dim), dim, lines)
                if what.endswith("the records")]
        assert len(late) == 8
        for what, tampered_lines in late:
            path.write_text("\n".join(tampered_lines) + "\n")
            want = first.get(what) or (
                f"line {len(tampered_lines)}: bad record line: {tampered_lines[-1]!r}")
            for read in (read_run, audit_file):
                with pytest.raises(ValueError) as exc:
                    read(str(path))
                assert str(exc.value) == want, what
            assert main(["verify", str(path)]) == 2, what
            assert capsys.readouterr() == ("", f"error: {want}\n"), what

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_clean_records_are_taken_as_derived(self, dim, tmp_path, monkeypatch):
        path = tmp_path / "run.rec"
        write_run(generate(dim, 2, 40), str(path))
        parsed = {"ordinal": [], "gls": [], "ideal": []}

        def counted(name, parse):
            def call(text, *args):
                parsed[name].append(text)
                return parse(text, *args)
            monkeypatch.setattr(badseq, f"parse_{name}", call)

        counted("ordinal", parse_ordinal)
        counted("gls", parse_gls)
        counted("ideal", parse_ideal)
        start = format_ordinal(descent_start(dim))
        lines = path.read_text().splitlines()
        # read_run, the reference, parses the start header once, before
        # the records, then every column
        run = read_run(str(path))
        rows = [line.split("|") for line in lines[7:]]
        assert parsed == {"ordinal": [start] + [r[1] for r in rows],
                          "gls": [r[2] for r in rows], "ideal": [r[5] for r in rows]}
        # every line is the regenerated record's: only the start header
        # is parsed, once, and each record is the regenerated one
        for texts in parsed.values():
            texts.clear()
        got, regenerated = badseq._read(str(path), derive=True)
        assert got == run
        assert parsed == {"ordinal": [start], "gls": [], "ideal": []}
        assert all(r is d for r, d in zip(got.records, regenerated))
        # a record whose ordinal is written with spaces is the one line
        # parsed, to the same run and the same regenerated records
        k = 7 + len(run.records) // 2
        cols = lines[k].split("|")
        cols[1] = " " + cols[1].replace("+", " + ")
        lines[k] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        for texts in parsed.values():
            texts.clear()
        run2, regenerated2 = badseq._read(str(path), derive=True)
        assert run2 == run and regenerated2 == regenerated
        assert parsed == {"ordinal": [start, cols[1]], "gls": [cols[2]],
                          "ideal": [cols[5]]}
        # a list with a repeated box is parsed, to the same value
        lines = path.read_text().splitlines()
        cols = lines[7].split("|")
        cols[2] += "u" + cols[2].split("u")[0]
        lines[7] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        run2, regenerated2 = badseq._read(str(path), derive=True)
        assert run2 == run and regenerated2 == regenerated
        assert run2.records[0].lower_set is not regenerated2[0].lower_set

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_clean_file_steps_and_degrees_once_a_record(self, dim, tmp_path, monkeypatch):
        path = tmp_path / "run.rec"
        write_run(generate(dim, 2, 40), str(path))
        calls = Counter()

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, call)

        for name in ("fundamental", "predecessor", "descent_start"):
            counted(badseq, name)
        counted(MonomialIdeal, "degree")
        run, problems = audit_file(str(path))
        assert problems == [] and run == read_run(str(path))
        # the regeneration's, which the audit takes as its own; each
        # descent_start is one predecessor call
        n = len(run.records)
        assert calls["degree"] == n
        assert calls["fundamental"] + calls["predecessor"] == n + calls["descent_start"]


class TestSymbolicBound:
    def test_strings(self):
        assert symbolic_length_bound(2, 2) == "H_{w^(w+2)}(2)-2"
        assert symbolic_length_bound(3, 5) == "H_{w^(w^2+w*3+3)}(5)-5"
