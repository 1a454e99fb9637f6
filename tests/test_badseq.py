import random
from dataclasses import replace

import pytest

from wpo import badseq
from wpo.badseq import (
    BadSequenceRecord,
    BadnessReport,
    DescentRun,
    Shape2,
    Shape3,
    audit_run,
    descent_start,
    generate,
    lower_set_of,
    read_run,
    shape_from_ordinal,
    symbolic_length_bound,
    verify_bad,
    write_run,
)
from wpo.lowerset import (
    UNBOUNDED,
    GeneralLowerSet,
    format_gls,
    full_space,
    inclusion_masks,
)
from wpo.monomial import unit_ideal
from wpo.oracles import brute_includes, rand_gls
from wpo.ordinal import ZERO, compare, format_ordinal, parse_ordinal

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


def rand_shape2(rng):
    exps = sorted(rng.sample(range(9), rng.randint(0, 3)), reverse=True)
    return Shape2(
        rng.randint(0, 3),
        rng.randint(0, 3),
        tuple((a, rng.randint(1, 4)) for a in exps),
    )


def rand_shape3(rng):
    def fam():
        offs = sorted(rng.sample(range(7), rng.randint(0, 2)), reverse=True)
        return tuple((v, rng.randint(1, 3)) for v in offs)

    hs = sorted(
        rng.sample([(h, i) for h in range(5) for i in range(5)], rng.randint(0, 3)),
        reverse=True,
    )
    return Shape3(
        tuple(rng.randint(0, 3) for _ in range(3)),
        fam(), fam(), fam(),
        tuple((h, i, rng.randint(1, 3)) for h, i in hs),
    )


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
    def test_pinned_staircase(self):
        sh = Shape2(1, 1, ((2, 3),))
        assert format_gls(sh.lower_set()) == "[1,w]u[5,6]u[w,1]"
        assert sh.norm() == 7
        assert sh.lower_set().max_finite_extent == 6
        assert format_ordinal(sh.to_ordinal()) == "w^(w+1)+w^w+w^2*3"

    def test_zero_shape(self):
        sh = Shape2(0, 0)
        assert sh.to_ordinal() == ZERO
        assert sh.norm() == 0
        assert format_gls(sh.lower_set()) == "empty"

    def test_ordinal_round_trip(self):
        rng = random.Random(67)
        for _ in range(300):
            sh = rand_shape2(rng)
            assert Shape2.from_ordinal(sh.to_ordinal()) == sh

    def test_rejects_outside_fragment(self):
        for bad in ["w^(w+2)", "w^(w*2)", "w^(w^2)", "w^(w+1)+w^(w*9)"]:
            with pytest.raises(ValueError):
                Shape2.from_ordinal(o(bad))

    def test_validation(self):
        with pytest.raises(ValueError):
            Shape2(-1, 0)
        with pytest.raises(ValueError):
            Shape2(0, 0, ((2, 0),))
        with pytest.raises(ValueError):
            Shape2(0, 0, ((2, 1), (2, 1)))
        with pytest.raises(ValueError):
            Shape2(0, 0, ((1, 1), (2, 1)))

    def test_all_boxes_survive_canonicalization(self):
        rng = random.Random(71)
        for _ in range(200):
            sh = rand_shape2(rng)
            assert len(sh.lower_set().rects) == len(sh.rects())


class TestShape3:
    def test_slab_only(self):
        sh = Shape3((2, 0, 0))
        assert format_gls(sh.lower_set()) == "[2,w,w]"
        assert sh.norm() == 2

    def test_ordinal_round_trip(self):
        rng = random.Random(73)
        for _ in range(300):
            sh = rand_shape3(rng)
            assert Shape3.from_ordinal(sh.to_ordinal()) == sh

    def test_rejects_outside_fragment(self):
        for bad in ["w^(w^2+w*3+3)", "w^(w^2*2)", "w^(w^3)", "w^(w^2+w*4)"]:
            with pytest.raises(ValueError):
                Shape3.from_ordinal(o(bad))

    def test_corner_boxes_cleared_past_faces(self):
        sh = Shape3((1, 0, 2), faces_xy=((3, 2),), corners=((0, 0, 1),))
        rects = sh.rects()
        # the empty y-slab is left out; faces reach x=6, y=4 and the
        # z-slab z=2, so the corner box must start beyond all three
        assert rects[:2] == [(1, W, W), (W, W, 2)]
        assert rects[2] == (6, 4, W)
        assert rects[3] == (6 + 2, 4 + 2, 2 + 1 + 2)
        assert len(sh.lower_set().rects) == len(rects)

    def test_all_boxes_survive_canonicalization(self):
        rng = random.Random(79)
        for _ in range(200):
            sh = rand_shape3(rng)
            assert len(sh.lower_set().rects) == len(sh.rects())

    def test_shape_from_ordinal_dispatch(self):
        assert isinstance(shape_from_ordinal(o("w^w"), 2), Shape2)
        assert isinstance(shape_from_ordinal(o("w^(w^2)"), 3), Shape3)
        with pytest.raises(ValueError):
            shape_from_ordinal(o("w"), 4)


class TestGenerate:
    def test_start_ordinals(self):
        assert format_ordinal(descent_start(2)) == "w^(w+2)"
        assert format_ordinal(descent_start(3)) == "w^(w^2+w*3+3)"
        with pytest.raises(ValueError):
            descent_start(1)

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
            generate(4, 2, 5)
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
        for dim in (1, 2, 3):
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
        for dim, mk in ((2, rand_shape2), (3, rand_shape3)):
            for _ in range(500):
                s, t = mk(rng), mk(rng)
                c = compare(s.to_ordinal(), t.to_ordinal())
                if c == 0:
                    continue
                big, small = (s, t) if c == 1 else (t, s)
                assert not small.lower_set().includes(big.lower_set())


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


class TestSymbolicBound:
    def test_strings(self):
        assert symbolic_length_bound(2, 2) == "H_{w^(w+2)}(2)-2"
        assert symbolic_length_bound(3, 5) == "H_{w^(w^2+w*3+3)}(5)-5"
