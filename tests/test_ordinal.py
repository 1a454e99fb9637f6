import hashlib
import random
from functools import cmp_to_key
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from support import rand_limit, rand_ordinal, ref_compare, ref_step
from wpo.badseq import descent_start, generate
from wpo.oracles import naive_hardy
from wpo.ordinal import (
    HardyOutcome,
    MAX_NESTING,
    NotALimitError,
    OMEGA,
    ONE,
    Ordinal,
    OrdinalParseError,
    ZERO,
    _rewrite,
    _subset,
    add,
    bounded_type,
    compare,
    descend,
    format_ordinal,
    from_int,
    fundamental,
    general_type,
    hardy,
    is_limit,
    is_successor,
    lex_ordinal,
    natural_product,
    natural_sum,
    omega_pow,
    parse_ordinal,
    pow2,
    predecessor,
    step,
    type_block,
)


def o(text):
    return parse_ordinal(text)


def revalidated(a):
    """a rebuilt through the public constructor at every level."""
    return Ordinal(tuple((revalidated(e), c) for e, c in a.terms))


# frozen values, derived by hand before the implementation existed
TYPE_STRINGS = {
    (1, 1): "w",
    (2, 1): "w^w",
    (3, 1): "w^(w^2)",
    (4, 1): "w^(w^3)",
    (3, 2): "w^(w^2*2)",
}
GENERAL_STRINGS = {1: "w+1", 2: "w^(w+2)+1", 3: "w^(w^2+w*3+3)+1"}
HARDY_VALUES = [("w", 3, 7), ("w^2", 2, 15), ("w^w", 1, 5), ("0", 5, 5), ("7", 2, 9)]


class TestConstruction:
    def test_validation_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 0),))

    def test_validation_rejects_nondecreasing_exponents(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 1), (ONE, 1)))
        with pytest.raises(ValueError):
            Ordinal(((ONE, 1), (ONE, 2)))

    @settings(max_examples=300, derandomize=True)
    @given(st.integers(0, 2**32))
    def test_internal_results_pass_public_validation(self, seed):
        # the arithmetic builds its results without validation
        rng = random.Random(seed)
        a, b = rand_ordinal(rng), rand_ordinal(rng)
        lam, x = rand_limit(rng), rng.randint(0, 5)
        succ = add(a, from_int(rng.randint(1, 3)))
        results = [
            add(a, b), natural_sum(a, b), natural_product(a, b),
            fundamental(lam, x), predecessor(succ), predecessor(from_int(1)),
            parse_ordinal(format_ordinal(a)),
        ]
        residual = hardy(succ, x, budget=rng.randint(1, 50)).ordinal
        if residual is not None:
            results.append(residual)
        for r in results:
            assert revalidated(r) == r

    def test_int_round_trip(self):
        for n in range(10):
            assert from_int(n).as_int() == n
        with pytest.raises(ValueError):
            OMEGA.as_int()
        with pytest.raises(ValueError):
            from_int(-1)
        with pytest.raises(TypeError):
            from_int(2.5)

    def test_comparison_operators(self):
        assert ZERO < ONE < OMEGA < omega_pow(OMEGA)
        assert from_int(5) > from_int(3)
        assert o("w*2") > o("w+100")
        assert o("w^2") > o("w*1000+5")
        assert max(o("w+1"), o("w"), o("w+2")) == o("w+2")


def assert_ordered(a, b):
    """The order, equality and hash of a and b are as ref_compare has them."""
    c = ref_compare(a, b)
    assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == (
        c < 0, c <= 0, c == 0, c != 0, c >= 0, c > 0)
    assert compare(a, b) == c
    if c == 0:
        assert hash(a) == hash(b)


class TestOrder:
    """An Ordinal is the tuple of its terms, and tuple order is the
    order of normal forms."""

    @settings(max_examples=300, derandomize=True)
    @given(st.integers(0, 2**32))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        xs = [rand_ordinal(rng, 4) for _ in range(6)]
        xs += [revalidated(x) for x in xs]  # equal, and distinct objects
        for a in xs:
            for b in xs:
                assert_ordered(a, b)
        assert sorted(xs) == sorted(xs, key=cmp_to_key(ref_compare))

    @pytest.mark.parametrize("x,y", [("w^2", "w"), ("w+1", "w"), ("w*2", "w*3"), ("w", "w")])
    def test_nested_to_the_limit(self, x, y):
        # differ, if at all, only at the innermost exponent
        a, b = (parse_ordinal("w^(" * MAX_NESTING + t + ")" * MAX_NESTING) for t in (x, y))
        assert_ordered(a, b)
        assert_ordered(a, revalidated(a))

    def test_plus_adds_and_slices_concatenate(self):
        a = o("w^2+w*3+4")
        assert a + o("w*2") == o("w^2+w*5") and a + 3 == o("w^2+w*3+7")
        assert o("w+5") + o("w^2") == o("w^2")
        assert a[:-1] + ((ZERO, 9),) == ((from_int(2), 1), (ONE, 3), (ZERO, 9))
        assert type(a[:-1]) is tuple and type(a.terms) is tuple and a.terms == a


class TestFormatParse:
    def test_pinned_strings(self):
        for (m, k), s in TYPE_STRINGS.items():
            assert format_ordinal(bounded_type(m, k)) == s
        for m, s in GENERAL_STRINGS.items():
            assert format_ordinal(general_type(m)) == s

    def test_round_trip_pinned(self):
        for s in ["0", "1", "42", "w", "w*3", "w+1", "w^2", "w^w", "w^w*2+w^2*3+w+7",
                  "w^(w+2)", "w^(w^2+w*3+3)+1", "w^(w^2*2)", "w^(w^w)"]:
            assert format_ordinal(parse_ordinal(s)) == s

    @settings(max_examples=300, derandomize=True)
    @given(st.integers(0, 2**32))
    def test_round_trip_random(self, seed):
        a = rand_ordinal(random.Random(seed))
        assert parse_ordinal(format_ordinal(a)) == a

    def test_parse_whitespace_tolerant(self):
        assert parse_ordinal(" w^2 + w*3 + 4 ") == o("w^2+w*3+4")

    @pytest.mark.parametrize("bad", [
        "", "+", "w^", "w^()", "w*", "w*0", "0*3", "w+0", "3+w",
        "w+w*2", "w^2+w^2", "w^2+w^3", "x", "w^(w", "w)", "1+", "w++1", "00w",
        "00", "01", "w*03", "w^02", "w^(w*01)", "w+010",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal(bad)
        assert exc.value.position >= 0

    def test_parse_accepts_redundant_forms(self):
        # lenient superset of the printer's image, in the ordinal form
        # only: a number is written without a leading zero
        assert parse_ordinal("0") == ZERO
        assert parse_ordinal("w^0") == ONE
        assert parse_ordinal("w^1*3") == o("w*3")
        assert parse_ordinal("w^(2)") == o("w^2")

    def test_parse_error_position(self):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal("w^2+x")
        assert exc.value.position == 4

    @pytest.mark.parametrize("text,position", [
        ("03", 0), ("w*03", 2), ("w^02*3", 2), ("w^(w+01)", 5), ("w^2+w*10+007", 9),
    ])
    def test_leading_zero_position(self, text, position):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal(text)
        assert str(exc.value) == f"leading zero (at position {position})"

    # SUPERSCRIPT TWO and ARABIC-INDIC DIGIT THREE: str.isdigit takes both
    @pytest.mark.parametrize("text,message", [
        ("w^\u00b2", "expected a digit (at position 2)"),
        ("w*\u0663", "expected a digit (at position 2)"),
        ("\u0663", "expected 'w' or a number (at position 0)"),
        ("w+1\u00b2", "trailing input (at position 3)"),
        ("0\u0663", "trailing input (at position 1)"),
    ])
    def test_only_ascii_digits(self, text, message):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal(text)
        assert str(exc.value) == message

    def test_nesting_limit(self):
        def nested(depth):
            return "w^(" * depth + "w" + ")" * depth

        tower = OMEGA
        for _ in range(MAX_NESTING):
            tower = omega_pow(tower)
        assert parse_ordinal(nested(MAX_NESTING)) == tower
        with pytest.raises(OrdinalParseError, match=f"nesting deeper than {MAX_NESTING}"):
            parse_ordinal(nested(MAX_NESTING + 1))


def parse_outcome(parse, text):
    """parse(text), or the type, message and position of its error."""
    try:
        return parse(text)
    except OrdinalParseError as exc:
        return type(exc), str(exc), exc.position


def column_outcomes(texts):
    """parse_ordinal of each text; each ordinal that parses reads back
    from its format_ordinal text."""
    got = [parse_outcome(parse_ordinal, t) for t in texts]
    for a in got:
        if isinstance(a, Ordinal):
            assert parse_ordinal(format_ordinal(a)) == a
    return got


DEEP = "w^(" * (MAX_NESTING + 1) + "w" + ")" * (MAX_NESTING + 1)
# two towers 98 exponents deep that differ only innermost: as exponents
# of a sum's terms they nest to the limit, and the larger must come first
TALL, SHORT = ("w^(" * 98 + t + ")" * 98 for t in ("w^2", "w"))

# tails spliced onto a reused prefix: sums that may or may not decrease
# from it, trailing input, zeros, stray '+' and nesting past the limit
TAILS = st.one_of(
    st.integers(0, 2**32).map(lambda seed: format_ordinal(rand_ordinal(random.Random(seed), 5))),
    st.sampled_from(["", "0", "+", "1+", "w)", "5w", "w*0", "w*01", "00", "w^(w^2*3+1)", DEEP]),
)


class TestOrdinalColumn:
    """A column of ordinal texts, as a record file holds one, read by
    parse_ordinal: consecutive texts share a prefix of terms."""

    @pytest.mark.parametrize("m,base,n", [
        (1, 2, 10), (1, 5, 10), (2, 2, 200), (2, 3, 200), (2, 5, 200),
        (3, 2, 100), (3, 3, 100), (3, 5, 100),
    ])
    def test_descent_column(self, m, base, n):
        records = generate(m, base, n).records
        assert column_outcomes([format_ordinal(r.alpha) for r in records]) == [
            r.alpha for r in records
        ]

    @settings(max_examples=300, derandomize=True)
    @given(st.data())
    def test_spliced_texts(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        texts = [format_ordinal(rand_ordinal(rng, 5))]
        for _ in range(data.draw(st.integers(1, 6))):
            prev = texts[-1]
            cuts = [0, len(prev)] + [i + 1 for i, ch in enumerate(prev) if ch == "+"]
            cut = data.draw(st.sampled_from(cuts) | st.integers(0, len(prev)))
            text = prev[:cut] + data.draw(TAILS)
            for i in sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=3)),
                            reverse=True):
                text = text[:i] + " " + text[i:]
            texts.append(text)
        column_outcomes(texts)

    def test_each_kind_of_tail(self):
        head = "w^(w^2+w*3)*2+w^(w+1)+w^3*4+"
        texts = [
            head + "w*2+7",
            head + "w^(w+1)*5",       # no smaller than the term before it
            head + "w*2+7)",          # trailing input
            " w^(w^2+w*3)*2 + w^(w+1)+w^3*4+w",
            "w^2+w",                  # shares no term with the text before
            "0",                      # after a non-zero text
            head + "0",
            head + "w*02+7",          # a leading zero
            "w^2+" + DEEP,
            head + "w^2",
            f"w^({TALL})+w^({SHORT})",
            f"w^({SHORT})+w^({TALL})",
        ]
        got = column_outcomes(texts)
        errors = [(g[1], g[2]) for g in got if not isinstance(g, Ordinal)]
        assert errors == [
            ("exponents must strictly decrease (at position 37)", 37),
            ("trailing input (at position 33)", 33),
            ("zero term in a sum (at position 29)", 29),
            ("leading zero (at position 30)", 30),
            (f"exponent nesting deeper than {MAX_NESTING} (at position 306)", 306),
            ("exponents must strictly decrease (at position 797)", 797),
        ]
        assert got[0] == o("w^(w^2+w*3)*2+w^(w+1)+w^3*4+w*2+7") and got[5] == ZERO
        assert isinstance(got[10], Ordinal) and len(got[10]) == 2


class TestArithmetic:
    def test_add_left_absorption(self):
        assert add(o("w+5"), o("w^2")) == o("w^2")
        assert add(o("w^2+3"), o("w")) == o("w^2+w")
        assert add(o("w*2"), o("w*3+1")) == o("w*5+1")
        assert add(from_int(4), from_int(5)) == from_int(9)

    def test_natural_sum_merges_coefficients(self):
        assert natural_sum(o("w^2+1"), o("w")) == o("w^2+w+1")
        assert natural_sum(o("w*3"), o("w*4+2")) == o("w*7+2")
        assert natural_sum(ZERO, o("w")) == o("w")

    def test_natural_product_pinned(self):
        assert natural_product(o("w+1"), o("w+1")) == o("w^2+w*2+1")
        assert natural_product(o("w"), o("w")) == o("w^2")
        assert natural_product(o("w+2"), from_int(3)) == o("w*3+6")
        assert natural_product(a := o("w^w+w"), ZERO) == ZERO and a is not None

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(0, 2**32))
    def test_algebra_laws_random(self, seed):
        rng = random.Random(seed)
        a, b, c = (rand_ordinal(rng) for _ in range(3))
        assert natural_sum(a, b) == natural_sum(b, a)
        assert natural_sum(natural_sum(a, b), c) == natural_sum(a, natural_sum(b, c))
        assert natural_product(a, b) == natural_product(b, a)
        assert natural_product(natural_product(a, b), c) == \
            natural_product(a, natural_product(b, c))
        assert natural_product(a, natural_sum(b, c)) == \
            natural_sum(natural_product(a, b), natural_product(a, c))

    def test_pow2(self):
        assert pow2(ZERO) == ONE
        assert pow2(from_int(5)) == from_int(32)
        assert pow2(OMEGA) == OMEGA
        assert pow2(o("w+2")) == o("w*4")
        assert pow2(o("w*2")) == o("w^2")
        for m in range(1, 6):
            assert pow2(omega_pow(from_int(m))) == omega_pow(omega_pow(from_int(m - 1)))

    def test_omega_pow(self):
        assert omega_pow(ZERO) == ONE
        assert omega_pow(ONE) == OMEGA
        assert format_ordinal(omega_pow(o("w+2"))) == "w^(w+2)"


class TestSuccessorLimit:
    def test_classification(self):
        assert not is_limit(ZERO) and not is_successor(ZERO)
        assert is_successor(ONE) and is_successor(o("w+3"))
        assert is_limit(OMEGA) and is_limit(o("w^2+w*5"))

    def test_predecessor(self):
        assert predecessor(ONE) == ZERO
        assert predecessor(o("w+3")) == o("w+2")
        assert predecessor(o("w+1")) == o("w")
        with pytest.raises(ValueError):
            predecessor(OMEGA)
        with pytest.raises(ValueError):
            predecessor(ZERO)


class TestFundamental:
    def test_pinned(self):
        assert fundamental(o("w"), 4) == from_int(4)
        assert fundamental(o("w^(w+2)"), 3) == o("w^(w+1)*3")
        assert fundamental(o("w^w"), 2) == o("w^2")
        assert fundamental(o("w^(w+1)+w^w*3"), 4) == o("w^(w+1)+w^w*2+w^4")
        assert fundamental(o("w^2"), 0) == ZERO
        assert fundamental(o("w*3"), 5) == o("w*2+5")

    def test_rejects_non_limits(self):
        for bad in [ZERO, ONE, o("w+1"), o("w^2+7")]:
            with pytest.raises(NotALimitError):
                fundamental(bad, 2)

    def test_rejects_non_natural_index(self):
        # the result is built unvalidated, so the index is checked up front
        for bad in [-1, 2.0, "2"]:
            with pytest.raises(ValueError, match="natural number"):
                fundamental(o("w^2"), bad)

    def test_strictly_below(self):
        rng = random.Random(7)
        for _ in range(2000):
            lam = rand_limit(rng)
            assert compare(fundamental(lam, rng.randint(0, 6)), lam) == -1

    def test_increasing_in_argument(self):
        rng = random.Random(8)
        for _ in range(500):
            lam = rand_limit(rng)
            x = rng.randint(0, 5)
            assert compare(fundamental(lam, x), fundamental(lam, x + 1)) <= 0

    def test_step_matches_whole_rebuild(self):
        # fundamental at a limit, predecessor at a successor, and the
        # normal form rebuilt whole through the checked constructor
        rng = random.Random(9)
        for _ in range(2000):
            alpha = add(rand_ordinal(rng, 5), from_int(rng.choice([0, 0, 1, 3])))
            for x in (0, 1, rng.randint(2, 9)) if alpha else ():
                want = ref_step(alpha, x)
                assert step(alpha, x) == want, (alpha, x)
                terms = list(alpha)
                assert _rewrite(terms, x) == len(alpha) - 1
                assert revalidated(Ordinal(terms)) == want
                if is_limit(alpha):
                    assert fundamental(alpha, x) == want
                else:
                    assert predecessor(alpha) == want


class TestHardy:
    @pytest.mark.parametrize("text,x,value", HARDY_VALUES)
    def test_pinned_values(self, text, x, value):
        out = hardy(o(text), x)
        assert out.finished and out.value == value

    def test_budget_residual(self):
        out = hardy(o("w^(w+2)"), 2, budget=10000)
        assert not out.finished
        assert out.steps == 10000
        assert out.value is None
        assert out.argument == 10002
        assert compare(out.ordinal, o("w^(w+2)")) == -1

    def test_finite_tail_in_one_pass(self):
        # H_{w+10}(0) = H_w(10): ten unit steps, cut short by the budget
        assert hardy(o("w+10"), 0, budget=3) == HardyOutcome(3, None, o("w+7"), 3)
        assert hardy(o("w+10"), 0, budget=10) == HardyOutcome(10, None, OMEGA, 10)
        # H_{b+w}(x) = H_b(2x+1) in x+1 steps
        assert hardy(o("w^2+w"), 4, budget=5) == HardyOutcome(5, None, o("w^2"), 9)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 5), st.integers(1, 5000))
    def test_matches_naive_stepper(self, seed, x, budget):
        rng = random.Random(seed)
        alpha = add(rand_ordinal(rng), from_int(rng.randint(0, 50)))
        assert hardy(alpha, x, budget) == naive_hardy(alpha, x, budget)

    def test_long_residual_matches_naive_stepper(self):
        # the dim-3 start grows by about a term a step; the digest is of
        # naive_hardy's residual text, computed once
        out = hardy(predecessor(general_type(3)), 2, budget=30000)
        assert (out.steps, out.argument, len(out.ordinal)) == (30000, 30002, 29986)
        assert hashlib.sha256(str(out.ordinal).encode()).hexdigest() == \
            "3b4e7dfe0211b6253d6e01d5df0179191d744d08e01b9da92184f328b24136ca"

    def test_residual_resumes_to_same_value(self):
        # splitting the budget must not change the result
        full = hardy(o("w^2"), 3)
        part = hardy(o("w^2"), 3, budget=7)
        resumed = hardy(part.ordinal, part.argument)
        assert full.finished and not part.finished and resumed.finished
        assert resumed.value == full.value
        assert part.steps + resumed.steps == full.steps


class TestDescend:
    def test_pinned_prefix(self):
        t = descend(o("w^(w+2)"), 2, 3)
        assert [format_ordinal(s) for s in t.steps] == \
            ["w^(w+2)", "w^(w+1)*2", "w^(w+1)+w^w*3"]
        assert t.truncated and t.reason == "step limit"

    def test_stops_at_successor(self):
        t = descend(OMEGA, 1, 10)
        assert [format_ordinal(s) for s in t.steps] == ["w", "1"]
        assert t.truncated and t.reason == "successor"

    def test_zero_start(self):
        t = descend(ZERO, 5, 10)
        assert list(t.steps) == [ZERO] and not t.truncated

    def test_reaches_zero(self):
        t = descend(o("w^2"), 0, 50)
        assert t.steps[-1] == ZERO and not t.truncated

    def test_rejects_successor_start(self):
        with pytest.raises(NotALimitError):
            descend(o("w+1"), 2, 5)

    def test_strictly_decreasing(self):
        t = descend(o("w^w"), 3, 40)
        for a, b in zip(t.steps, t.steps[1:]):
            assert compare(a, b) == 1


class TestTypeFormulas:
    def test_bounded_requires_positive_arguments(self):
        with pytest.raises(ValueError):
            bounded_type(0, 1)
        with pytest.raises(ValueError):
            bounded_type(2, 0)

    def test_general_exponent_matches_descent_index(self):
        # the +1 strips off and leaves the descent start ordinal
        for m in (2, 3):
            assert is_successor(general_type(m))
            start = predecessor(general_type(m))
            assert is_limit(start)
            assert len(start.terms) == 1 and start.terms[0][1] == 1

    def test_one_block_per_coordinate_subset(self):
        # each nonempty S of the m coordinates adds w^(|S|-1) to the
        # exponent of descent_start(m), and the general type is 1 plus
        # the natural product over S of the bounded types w^(w^(|S|-1))
        for m in range(1, 9):
            exponent, product = ZERO, ONE
            for size in range(1, m + 1):
                for _ in combinations(range(m), size):
                    exponent = natural_sum(exponent, omega_pow(from_int(size - 1)))
                    product = natural_product(product, bounded_type(size))
            assert omega_pow(exponent) == descent_start(m)
            assert general_type(m) == natural_sum(ONE, product)


def test_general_type_texts_pinned():
    # sha256 of the texts of general_type(m) for m = 1..1000, run
    # together, from the formula before it read the level digits
    digest = hashlib.sha256()
    for m in range(1, 1001):
        digest.update(str(general_type(m)).encode())
    assert digest.hexdigest() == "38cfef5cc380c6cc30e07851f0744661245878861de90548e83a2e247a7fbced"


class TestTypeBlock:
    @staticmethod
    def levels(m):
        return [comb(m, j) for j in range(m, 0, -1)]

    def test_level_digits_are_the_exponent(self):
        for m in range(1, 30):
            assert lex_ordinal(self.levels(m)) == general_type(m)[0][0]

    def test_decodes_every_block(self):
        # the digits equal to C(m,k) for every level k above j, then
        # C(m,j)-1-rank, then j-1 positions: the j-subset of that rank in
        # lexicographic order, and the positions
        rng = random.Random(31)
        for m in range(1, 8):
            for j in range(m, 0, -1):
                passes, size = self.levels(m)[:m - j], comb(m, j)
                subsets = list(combinations(range(m), j))
                for rank in range(size):
                    assert _subset(m, j, rank) == subsets[rank]
                    for _ in range(3):
                        pos = [rng.choice([0, 1, 2, 7, 10 ** 20]) for _ in range(j - 1)]
                        e = lex_ordinal(passes + [size - 1 - rank] + pos)
                        assert type_block(e, m) == (subsets[rank], pos)

    def test_none_when_not_below_the_exponent(self):
        for m in range(1, 8):
            levels = self.levels(m)
            exponent = lex_ordinal(levels)
            assert type_block(exponent, m) is None
            for i in range(m):
                # a digit above C(m, m-i) after passing the levels above it
                above = levels[:i] + [levels[i] + 1] + [0] * (m - 1 - i)
                assert type_block(lex_ordinal(above), m) is None
                # a term at w^m or above, whatever follows it
                for top in (from_int(m), from_int(m + i + 1), OMEGA, o("w+1"), o("w^w*2")):
                    assert type_block(omega_pow(top), m) is None
                    assert type_block(add(omega_pow(top), lex_ordinal(above[:i] + [0] * (m - i))), m) is None
