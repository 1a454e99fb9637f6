"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with ordinal
exponents e1 > ... > ek and positive integer coefficients.  The empty
sum is 0.  On top of the arithmetic this module provides fundamental
sequences, the Hardy hierarchy, step-down descents, and the two
closed-form order types used by the rest of the package.

Text form: ``w^(w+2)+w^2*3+5`` (see parse_ordinal / format_ordinal).
"""

from dataclasses import dataclass
from functools import cmp_to_key
from math import comb


class OrdinalParseError(ValueError):
    """Raised on malformed ordinal text; carries the failure position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotALimitError(ValueError):
    """Raised when a fundamental sequence is requested for 0 or a successor."""


@dataclass(frozen=True)
class Ordinal:
    """An ordinal below epsilon_0, as a tuple of (exponent, coefficient) terms.

    Exponents are Ordinals themselves, strictly decreasing; coefficients
    are positive ints.  Instances are immutable and structurally unique,
    so == and hash agree with ordinal equality.
    """

    terms: tuple = ()

    def __post_init__(self):
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal) or not isinstance(coeff, int):
                raise TypeError("terms must be (Ordinal, int) pairs")
            if coeff < 1:
                raise ValueError("coefficients must be positive")
        exps = [e for e, _ in self.terms]
        for a, b in zip(exps, exps[1:]):
            if compare(a, b) <= 0:
                raise ValueError("exponents must be strictly decreasing")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __lt__(self, other: "Ordinal") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "Ordinal") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "Ordinal") -> bool:
        return compare(self, other) >= 0

    def __add__(self, other) -> "Ordinal":
        return add(self, other)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def as_int(self) -> int:
        """The value of a finite ordinal as an int; error if infinite."""
        if not self.terms:
            return 0
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1]


def _trusted(terms: tuple) -> Ordinal:
    """An Ordinal over ``terms`` without the validation of ``Ordinal(...)``.

    Only for terms already in normal form by construction: the results
    of the arithmetic below and of the parser, which checks its own
    input.  Skipping ``__post_init__`` saves one recursive comparison
    per adjacent pair of exponents.
    """
    a = object.__new__(Ordinal)
    object.__setattr__(a, "terms", terms)
    return a


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
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def add(a, b) -> Ordinal:
    """Ordinary (left-absorbing) ordinal addition."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    if not b.terms:
        return a
    lead, lead_coeff = b.terms[0]
    kept = [t for t in a.terms if compare(t[0], lead) > 0]
    if len(kept) < len(a.terms) and compare(a.terms[len(kept)][0], lead) == 0:
        merged = (lead, a.terms[len(kept)][1] + lead_coeff)
        return _trusted(tuple(kept) + (merged,) + b.terms[1:])
    return _trusted(tuple(kept) + b.terms)


def natural_sum(a, b) -> Ordinal:
    """Hessenberg sum: merge the normal forms coefficient-wise."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    out = []
    i = j = 0
    ta, tb = a.terms, b.terms
    while i < len(ta) and j < len(tb):
        c = compare(ta[i][0], tb[j][0])
        if c > 0:
            out.append(ta[i])
            i += 1
        elif c < 0:
            out.append(tb[j])
            j += 1
        else:
            out.append((ta[i][0], ta[i][1] + tb[j][1]))
            i += 1
            j += 1
    out.extend(ta[i:])
    out.extend(tb[j:])
    return _trusted(tuple(out))


def natural_product(a, b) -> Ordinal:
    """Hessenberg product: distribute terms, natural-sum the exponents."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    acc: dict = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = natural_sum(ea, eb)
            acc[e] = acc.get(e, 0) + ca * cb
    exps = sorted(acc, key=cmp_to_key(compare), reverse=True)
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
    for exp, coeff in a.terms:
        if not exp:
            n = coeff
            continue
        # solve 1 + e' = e: subtract one for finite e, identity otherwise
        e = from_int(exp.as_int() - 1) if exp.is_finite else exp
        beta_terms.append((e, coeff))
    beta = Ordinal(tuple(beta_terms))
    return Ordinal(((beta, 2 ** n),))


def is_successor(a: Ordinal) -> bool:
    return bool(a.terms) and not a.terms[-1][0]


def is_limit(a: Ordinal) -> bool:
    return bool(a.terms) and bool(a.terms[-1][0])


def predecessor(a: Ordinal) -> Ordinal:
    if not is_successor(a):
        raise ValueError(f"{a} is not a successor")
    exp, coeff = a.terms[-1]
    if coeff == 1:
        return _trusted(a.terms[:-1])
    return _trusted(a.terms[:-1] + ((exp, coeff - 1),))


def fundamental(lam: Ordinal, x: int) -> Ordinal:
    """The x-th member of the fundamental sequence of a limit ordinal.

    Rules on the last normal-form term w^e (coefficient > 1 splits off
    one copy first):  e = b+1 gives w^b*x, and limit e recurses into
    the exponent, w^e[x] = w^(e[x]).
    """
    if not is_limit(lam):
        raise NotALimitError(f"{lam} has no fundamental sequence")
    if not isinstance(x, int) or x < 0:
        raise ValueError("index must be a natural number")
    exp, coeff = lam.terms[-1]
    prefix = lam.terms[:-1] if coeff == 1 else lam.terms[:-1] + ((exp, coeff - 1),)
    if is_limit(exp):
        step = ((fundamental(exp, x), 1),)
    else:
        step = ((predecessor(exp), x),) if x else ()
    return _trusted(prefix + step)


@dataclass(frozen=True)
class HardyOutcome:
    """Result of a budgeted Hardy evaluation.

    Either ``value`` is set (the run reached 0), or ``ordinal`` and
    ``argument`` hold the residual state after the budget ran out.
    ``steps`` counts rule applications either way.
    """

    steps: int
    value: int | None = None
    ordinal: Ordinal | None = None
    argument: int | None = None

    @property
    def finished(self) -> bool:
        return self.value is not None


def hardy(alpha, x: int, budget: int = 1_000_000) -> HardyOutcome:
    """Evaluate the Hardy function H_alpha(x) with a step budget.

    H_0(x) = x, H_{a+1}(x) = H_a(x+1), and at limits
    H_l(x) = H_{l[x]}(x+1).  Each rewrite costs one budget unit.

    A finite tail is taken in one jump, H_{b+n}(x) = H_b(x+n) for n
    rewrites, cut short where the budget runs out, so ``steps``, the
    value and the residual are those of one rewrite at a time.
    """
    alpha = _as_ordinal(alpha)
    if x < 0 or budget < 1:
        raise ValueError("need x >= 0 and budget >= 1")
    steps = 0
    while alpha.terms:
        if steps == budget:
            return HardyOutcome(steps=steps, ordinal=alpha, argument=x)
        exp, coeff = alpha.terms[-1]
        if exp:
            alpha = fundamental(alpha, x)
            n = 1
        else:
            n = min(coeff, budget - steps)
            rest = alpha.terms[:-1]
            alpha = _trusted(rest if n == coeff else rest + ((ZERO, coeff - n),))
        x += n
        steps += n
    return HardyOutcome(steps=steps, value=x)


@dataclass(frozen=True)
class DescentTrace:
    """A fundamental-sequence descent alpha, alpha[K], alpha[K][K+1], ...

    ``truncated`` is False only when the trace ends at 0; otherwise
    ``reason`` says whether the step limit or a successor stopped it.
    """

    start: Ordinal
    base: int
    steps: tuple
    truncated: bool
    reason: str | None = None


def descend(alpha0, base: int, limit: int) -> DescentTrace:
    """Iterate steps[i+1] = fundamental(steps[i], base+i) from alpha0.

    Stops at 0, at a successor (which has no fundamental sequence), or
    once ``limit`` ordinals have been emitted.
    """
    alpha0 = _as_ordinal(alpha0)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if alpha0.terms and not is_limit(alpha0):
        raise NotALimitError(f"{alpha0} is neither 0 nor a limit")
    steps = [alpha0]
    truncated, reason = False, None
    while True:
        cur = steps[-1]
        if not cur.terms:
            break
        if is_successor(cur):
            truncated, reason = True, "successor"
            break
        if len(steps) == limit:
            truncated, reason = True, "step limit"
            break
        steps.append(fundamental(cur, base + len(steps) - 1))
    return DescentTrace(alpha0, base, tuple(steps), truncated, reason)


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
    m-dimensional grid: w^(sum of w^(m-k) * C(m, k-1)) + 1."""
    if not 1 <= m <= MAX_GENERAL_DIM:
        raise ValueError(f"need 1 <= m <= {MAX_GENERAL_DIM}")
    exponent = Ordinal(tuple((from_int(m - k), comb(m, k - 1)) for k in range(1, m + 1)))
    return add(omega_pow(exponent), ONE)


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
    if not a.terms:
        return "0"
    return "+".join([format_term(exp, coeff) for exp, coeff in a.terms])


def common_prefix(xs, ys) -> int:
    """How many leading items the sequences ``xs`` and ``ys`` share."""
    k, limit = 0, min(len(xs), len(ys))
    while k < limit and xs[k] == ys[k]:
        k += 1
    return k


class OrdinalTexts:
    """``format_ordinal`` of one ordinal after another, formatting only
    the terms after those an ordinal shares with the one before it, as
    consecutive records of a descent do."""

    def __init__(self):
        self._terms, self._texts = (), []

    def text(self, a: Ordinal) -> str:
        k = common_prefix(self._terms, a.terms)
        # formatted before either field changes, so a term whose text
        # raises leaves the formatter as it was
        tail = [format_term(exp, coeff) for exp, coeff in a.terms[k:]]
        del self._texts[k:]
        self._texts += tail
        self._terms = a.terms
        return "+".join(self._texts) if self._texts else "0"


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
        return int(self.text[start:self.pos])

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
            if compare(ea, eb) <= 0:
                self.error("exponents must strictly decrease")
        return _trusted(tuple(terms))


def parse_ordinal(text: str) -> Ordinal:
    """Parse the canonical text form; rejects non-decreasing exponents.
    Spaces are dropped first, and an error's position counts in the text
    without them."""
    p = _Parser(text.replace(" ", ""))
    result = p.ordinal()
    if p.pos != len(p.text):
        p.error("trailing input")
    return result
