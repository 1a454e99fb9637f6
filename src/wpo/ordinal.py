"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with ordinal
exponents e1 > ... > ek and positive integer coefficients.  The empty
sum is 0.  On top of the arithmetic this module provides fundamental
sequences, the Hardy hierarchy, step-down descents, the two
closed-form order types used by the rest of the package, and the one
digit layout of the general type's exponent (``lex_ordinal``,
``type_block``), through which the staircase and the rank read it.

A descent step rewrites only the last term of a normal form, in place
on a list of terms (``_rewrite``): every stepping loop goes through it.

Text form: ``w^(w+2)+w^2*3+5`` (see parse_ordinal / format_ordinal).
"""

from collections import namedtuple
from functools import cache, lru_cache
from itertools import accumulate
from math import comb

from .vectors import read_natural


class OrdinalParseError(ValueError):
    """Raised on malformed ordinal text; carries the failure position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotALimitError(ValueError):
    """Raised when a fundamental sequence is requested for 0 or a successor."""


class Ordinal(tuple):
    """An ordinal below epsilon_0: the tuple of its (exponent, coefficient)
    terms.

    Exponents are Ordinals themselves, strictly decreasing; coefficients
    are positive ints.  Normal forms compare term by term from the
    highest, exponent first and then coefficient, and a proper prefix is
    smaller: that is tuple order, so <, <=, == and hash are tuple's.
    Slices are plain tuples of terms, and ``+`` is ordinal addition.
    """

    __slots__ = ()

    def __new__(cls, terms=()):
        self = tuple.__new__(cls, terms)
        for exp, coeff in self:
            if not isinstance(exp, Ordinal) or not isinstance(coeff, int):
                raise TypeError("terms must be (Ordinal, int) pairs")
            if coeff < 1:
                raise ValueError("coefficients must be positive")
        for (a, _), (b, _) in zip(self, self[1:]):
            if a <= b:
                raise ValueError("exponents must be strictly decreasing")
        return self

    # the terms as a plain tuple, which concatenates where an Ordinal adds
    terms = property(tuple)

    def __add__(self, other) -> "Ordinal":
        return add(self, other)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"

    @property
    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and not self[0][0])

    def as_int(self) -> int:
        """The value of a finite ordinal as an int; error if infinite."""
        if not self:
            return 0
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self[0][1]


def _trusted(terms) -> Ordinal:
    """An Ordinal over ``terms`` without the validation of ``Ordinal(...)``.

    Only for terms already in normal form by construction: the results
    of the arithmetic below and of the parser, which checks its own
    input.
    """
    return tuple.__new__(Ordinal, terms)


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if not isinstance(n, int):
        raise TypeError(f"{n!r} is not an int")
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return _trusted(((ZERO, n),)) if n else ZERO


def _as_ordinal(x) -> Ordinal:
    return from_int(x) if isinstance(x, int) else x


def compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison: -1, 0, or 1."""
    return (a > b) - (a < b)


def add(a, b) -> Ordinal:
    """Ordinary (left-absorbing) ordinal addition."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    if not b:
        return a
    lead, lead_coeff = b[0]
    kept = tuple([t for t in a if t[0] > lead])
    if len(kept) < len(a) and a[len(kept)][0] == lead:
        return _trusted(kept + ((lead, a[len(kept)][1] + lead_coeff),) + b[1:])
    return _trusted(kept + b)


def natural_sum(a, b) -> Ordinal:
    """Hessenberg sum: merge the normal forms coefficient-wise."""
    acc = dict(_as_ordinal(a))
    for e, c in _as_ordinal(b):
        acc[e] = acc.get(e, 0) + c
    return _trusted(sorted(acc.items(), reverse=True))


def natural_product(a, b) -> Ordinal:
    """Hessenberg product: distribute terms, natural-sum the exponents."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    acc: dict = {}
    for ea, ca in a:
        for eb, cb in b:
            e = natural_sum(ea, eb)
            acc[e] = acc.get(e, 0) + ca * cb
    exps = sorted(acc, reverse=True)
    return Ordinal(tuple((e, acc[e]) for e in exps))


def omega_pow(a) -> Ordinal:
    """w raised to the ordinal a."""
    return Ordinal(((_as_ordinal(a), 1),))


def pow2(a) -> Ordinal:
    """Base-2 exponentiation.  Writing a = w*beta + n with n finite,
    the value is w^beta * 2^n; in particular 2^(w^m) = w^(w^(m-1))."""
    a = _as_ordinal(a)
    n = 0
    beta_terms = []
    for exp, coeff in a:
        if not exp:
            n = coeff
            continue
        # solve 1 + e' = e: subtract one for finite e, identity otherwise
        e = from_int(exp.as_int() - 1) if exp.is_finite else exp
        beta_terms.append((e, coeff))
    beta = Ordinal(tuple(beta_terms))
    return Ordinal(((beta, 2 ** n),))


def is_successor(a: Ordinal) -> bool:
    return bool(a) and not a[-1][0]


def is_limit(a: Ordinal) -> bool:
    return bool(a) and bool(a[-1][0])


def _rewrite(terms: list, x: int) -> int:
    """Step the nonzero normal form ``terms`` once with argument x, in
    place, and return how many leading terms it kept: all but the last.

    The last term w^e*c loses one copy, which becomes w^(e[x]) for a
    limit e, w^b*x for e = b+1, or nothing for e = 0.
    """
    exp, coeff = terms.pop()
    kept = len(terms)
    if coeff > 1:
        terms.append((exp, coeff - 1))
    if exp:
        sub = list(exp)
        _rewrite(sub, x)
        n = 1 if exp[-1][0] else x
        if n:
            terms.append((_trusted(sub), n))
    return kept


def step(alpha: Ordinal, x: int) -> Ordinal:
    """The descent step of a nonzero alpha with argument x, unchecked:
    alpha[x] at a limit, the predecessor at a successor."""
    terms = list(alpha)
    _rewrite(terms, x)
    return _trusted(terms)


def predecessor(a: Ordinal) -> Ordinal:
    if not is_successor(a):
        raise ValueError(f"{a} is not a successor")
    return step(a, 0)


def fundamental(lam: Ordinal, x: int) -> Ordinal:
    """The x-th member of the fundamental sequence of a limit ordinal:
    ``_rewrite`` has the rules."""
    if not is_limit(lam):
        raise NotALimitError(f"{lam} has no fundamental sequence")
    if not isinstance(x, int) or x < 0:
        raise ValueError("index must be a natural number")
    return step(lam, x)


class HardyOutcome(namedtuple("HardyOutcome", "steps value ordinal argument",
                              defaults=(None, None, None))):
    """Result of a budgeted Hardy evaluation.

    Either ``value`` is set (the run reached 0), or ``ordinal`` and
    ``argument`` hold the residual state after the budget ran out.
    ``steps`` counts rule applications either way.
    """

    __slots__ = ()

    @property
    def finished(self) -> bool:
        return self.value is not None


def hardy(alpha, x: int, budget: int = 1_000_000) -> HardyOutcome:
    """Evaluate the Hardy function H_alpha(x) with a step budget.

    H_0(x) = x, H_{a+1}(x) = H_a(x+1), and at limits
    H_l(x) = H_{l[x]}(x+1).  Each rewrite costs one budget unit.

    A finite tail is taken in one jump, H_{b+n}(x) = H_b(x+n) for n
    rewrites, cut short where the budget runs out, so ``steps``, the
    value and the residual are those of one rewrite at a time.  The
    terms are rewritten in place: only a residual is built as an Ordinal.
    """
    terms = list(_as_ordinal(alpha))
    if x < 0 or budget < 1:
        raise ValueError("need x >= 0 and budget >= 1")
    steps = 0
    while terms:
        if steps == budget:
            return HardyOutcome(steps=steps, ordinal=_trusted(terms), argument=x)
        exp, coeff = terms[-1]
        if exp:
            _rewrite(terms, x)
            n = 1
        else:
            n = min(coeff, budget - steps)
            terms[-1:] = [(ZERO, coeff - n)] if n < coeff else []
        x += n
        steps += n
    return HardyOutcome(steps=steps, value=x)


class DescentTrace(namedtuple("DescentTrace", "start base steps truncated reason",
                              defaults=(None,))):
    """A fundamental-sequence descent alpha, alpha[K], alpha[K][K+1], ...

    ``truncated`` is False only when the trace ends at 0; otherwise
    ``reason`` says whether the step limit or a successor stopped it.
    """

    __slots__ = ()


def descend(alpha0, base: int, limit: int) -> DescentTrace:
    """Iterate steps[i+1] = fundamental(steps[i], base+i) from alpha0.

    Stops at 0, at a successor (which has no fundamental sequence), or
    once ``limit`` ordinals have been emitted.
    """
    alpha0 = _as_ordinal(alpha0)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if alpha0 and not is_limit(alpha0):
        raise NotALimitError(f"{alpha0} is neither 0 nor a limit")
    steps = [alpha0]
    while is_limit(steps[-1]) and len(steps) < limit:
        steps.append(step(steps[-1], base + len(steps) - 1))
    end = steps[-1]
    reason = None if not end else "successor" if is_successor(end) else "step limit"
    return DescentTrace(alpha0, base, tuple(steps), reason is not None, reason)


def bounded_type(m: int, k: int = 1) -> Ordinal:
    """Maximal order type of inclusion on bounded lower sets of k stacked
    copies of the m-dimensional grid: w^(w^(m-1) * k)."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    return omega_pow(Ordinal(((from_int(m - 1), k),)))


# Largest m general_type builds; I(N^10000) already costs 60 times I(N^1000).
MAX_GENERAL_DIM = 1000


def general_type(m: int) -> Ordinal:
    """Maximal order type of inclusion on all lower sets of the
    m-dimensional grid: w^E + 1 with E = sum of w^(m-k) * C(m, k-1), the
    ``lex_ordinal`` of the level digits C(m,m), ..., C(m,1)."""
    if not 1 <= m <= MAX_GENERAL_DIM:
        raise ValueError(f"need 1 <= m <= {MAX_GENERAL_DIM}")
    return add(omega_pow(lex_ordinal(_level_digits(m))), ONE)


# ---------------------------------------------------------------------------
# the block layout of the exponent of general_type
#
# E has one block w^(j-1) for each set S of j of the m coordinates,
# j = 1..m.  Read as a digit vector, most significant first, E is the
# level digits C(m,m), ..., C(m,1); an exponent below E agrees with
# them down to some level j, where its digit is below C(m,j), and that
# digit and the j-1 digits after it place it in one block.  The lower
# bound (``badseq``'s staircase) and the upper bound (``linearize``'s
# rank, whose terms lie in the level-m block) both read exponents so.


def lex_ordinal(vec) -> Ordinal:
    """Position of vec, a point of N^len(vec), in the lexicographic
    well-order: w^(k-1-i) times v_i summed over the nonzero v_i.  The
    exponents fall with i and the coefficients are positive, so the
    terms are in normal form as built."""
    k = len(vec)
    return _trusted([(from_int(k - 1 - i), v) for i, v in enumerate(vec) if v])


@lru_cache(maxsize=16)
def _level_digits(m: int) -> tuple:
    """C(m,m), C(m,m-1), ..., C(m,1): the number of j-subsets of the m
    coordinates for level j = m down to 1, by C(m,j-1) = C(m,j) * j /
    (m-j+1).  The decoder reads them once a term, so they are kept for
    the last 16 m; no more, since general_type reads them for every m up
    to 1000."""
    return tuple(accumulate(range(m, 1, -1), lambda c, j: c * j // (m - j + 1), initial=1))


@cache
def _subset(m: int, j: int, rank: int) -> tuple:
    """The j-subset of range(m) at ``rank`` in lexicographic order.
    Kept once worked out: a run decodes a few blocks once a term."""
    out, x = [], 0
    for left in range(j, 0, -1):
        while rank >= (n := comb(m - x - 1, left - 1)):
            rank -= n
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def type_block(e: Ordinal, m: int):
    """(S, positions) for an exponent e below the exponent E of
    general_type(m): the block e lies in and its digits there; None for
    any other e.

    The digit v_i of e is its coefficient of w^(m-1-i), as in
    ``lex_ordinal``.  Read from the top, level j = m down to 1, a digit
    equal to C(m,j) passes on to level j-1; one below it picks the
    j-subset S of lexicographic rank C(m,j)-1-v_i, and the j-1 digits
    after it are the positions.  A term at w^m or above, a digit above
    C(m,j), and E itself are not below E.
    """
    digits = [0] * m
    for f, d in e:
        if f and (len(f) > 1 or f[0][0] or f[0][1] >= m):
            return None
        digits[m - 1 - (f[0][1] if f else 0)] = d
    for i, (d, size) in enumerate(zip(digits, _level_digits(m))):
        if d != size:
            return (_subset(m, m - i, size - 1 - d), digits[i + 1:]) if d < size else None
    return None


# ---------------------------------------------------------------------------
# text form


def format_term(exp: Ordinal, coeff: int) -> str:
    """The text of one term w^exp*coeff of a normal form."""
    if not exp:
        return str(coeff)
    if exp == ONE:
        head = "w"
    elif exp.is_finite:
        head = f"w^{exp.as_int()}"
    elif exp == OMEGA:
        head = "w^w"
    else:
        head = f"w^({format_ordinal(exp)})"
    return head if coeff == 1 else f"{head}*{coeff}"


def format_ordinal(a: Ordinal) -> str:
    if not a:
        return "0"
    return "+".join([format_term(exp, coeff) for exp, coeff in a])


def common_prefix(xs, ys) -> int:
    """How many leading items the sequences ``xs`` and ``ys`` share."""
    k, limit = 0, min(len(xs), len(ys))
    while k < limit and xs[k] == ys[k]:
        k += 1
    return k


# Deepest exponent nesting parse_ordinal accepts.  The parser and the
# arithmetic recurse once per level, so text nested past this is
# rejected as malformed instead of overflowing the interpreter stack.
MAX_NESTING = 100


def _digit(ch: str) -> bool:
    """ASCII 0-9 only: ``str.isdigit`` also takes '²' and '٣'."""
    return "0" <= ch <= "9"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise OrdinalParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def natural(self) -> int:
        start = self.pos
        while _digit(self.peek()):
            self.pos += 1
        if start == self.pos:
            self.error("expected a digit")
        if self.text[start] == "0" and self.pos - start > 1:
            self.pos = start
            self.error("leading zero")
        try:
            return read_natural(self.text[start:self.pos])
        except ValueError as exc:
            self.pos = start
            self.error(str(exc))

    def term(self) -> tuple:
        if self.peek() == "w":
            self.pos += 1
            exp = ONE
            if self.peek() == "^":
                self.pos += 1
                if self.peek() == "(":
                    self.depth += 1
                    if self.depth > MAX_NESTING:
                        self.error(f"exponent nesting deeper than {MAX_NESTING}")
                    self.pos += 1
                    exp = self.ordinal()
                    self.eat(")")
                    self.depth -= 1
                elif self.peek() == "w":
                    self.pos += 1
                    exp = OMEGA
                else:
                    exp = from_int(self.natural())
            coeff = 1
            if self.peek() == "*":
                self.pos += 1
                coeff = self.natural()
                if coeff == 0:
                    self.error("zero coefficient")
            return exp, coeff
        if _digit(self.peek()):
            n = self.natural()
            if n == 0:
                self.error("zero term in a sum")
            return ZERO, n
        self.error("expected 'w' or a number")

    def ordinal(self) -> Ordinal:
        if self.peek() == "0":
            self.natural()  # 0, or a leading zero error
            return ZERO
        terms = [self.term()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.term())
        for (ea, _), (eb, _) in zip(terms, terms[1:]):
            if ea <= eb:
                self.error("exponents must strictly decrease")
        return _trusted(terms)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the canonical text form; rejects non-decreasing exponents.
    Spaces are dropped first, and an error's position counts in the text
    without them."""
    p = _Parser(text.replace(" ", ""))
    result = p.ordinal()
    if p.pos != len(p.text):
        p.error("trailing input")
    return result
