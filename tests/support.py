"""Shared generators and pointwise oracles for the test suite.

Random ordinals stay below w^(w^3): top-level exponents are CNF
combinations of the finite exponents 0..2.  Random staircase ordinals
stay below the dimension's descent start, drawn block by block.  Everything is driven by an
explicit random.Random so failures reproduce exactly.
"""

import random
from functools import cmp_to_key
from math import comb

from wpo.ordinal import OMEGA, Ordinal, ZERO, from_int


def ref_compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison of normal forms term by term from the
    highest, exponent first (recursively), then coefficient, with a
    proper prefix smaller: the slow reference for Ordinal's order."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ref_compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def ref_step(alpha: Ordinal, x: int) -> Ordinal:
    """The descent step of a nonzero alpha with argument x, the whole
    normal form rebuilt through the checked constructor: the last term
    w^e*c loses one copy, which becomes w^(e[x]) for a limit e, w^b*x
    for e = b+1, or nothing for e = 0.  The slow reference for
    ordinal.step."""
    exp, coeff = alpha.terms[-1]
    head = alpha.terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ())
    if not exp.terms:
        return Ordinal(head)
    if exp.terms[-1][0].terms:
        return Ordinal(head + ((ref_step(exp, x), 1),))
    return Ordinal(head + (((ref_step(exp, x), x),) if x else ()))


def rand_exponent(rng: random.Random) -> Ordinal:
    terms = []
    for e in (2, 1, 0):
        if rng.random() < 0.4:
            terms.append((from_int(e), rng.randint(1, 3)))
    return Ordinal(tuple(terms))


def rand_ordinal(rng: random.Random, max_terms: int = 3) -> Ordinal:
    exps = [rand_exponent(rng) for _ in range(rng.randint(0, max_terms))]
    exps.sort(key=cmp_to_key(ref_compare), reverse=True)
    terms = []
    for e in exps:
        if terms and ref_compare(terms[-1][0], e) == 0:
            continue
        terms.append((e, rng.randint(1, 5)))
    return Ordinal(tuple(terms))


def rand_limit(rng: random.Random) -> Ordinal:
    a = rand_ordinal(rng)
    if a.terms and a.terms[-1][0] == ZERO:
        a = Ordinal(a.terms[:-1])
    return a if a.terms else OMEGA


def rand_point(rng: random.Random, dim: int, top: int = 6) -> tuple:
    return tuple(rng.randint(0, top) for _ in range(dim))


def rand_staircase_ordinal(rng: random.Random, dim: int, max_terms: int = 4,
                           max_pos: int = 6, max_coeff: int = 4) -> Ordinal:
    """An ordinal below the dimension-``dim`` descent start: each term
    picks a level j, a j-subset digit below C(dim, j) behind the digits
    that pass the higher levels, and a position of j-1 digits."""
    digits = set()
    for _ in range(rng.randint(0, max_terms)):
        j = rng.randint(1, dim)
        passed = [comb(dim, i) for i in range(dim, j, -1)]
        pos = [rng.randint(0, max_pos) for _ in range(j - 1)]
        digits.add(tuple(passed + [rng.randrange(comb(dim, j))] + pos))
    # digit tuples run from w^(dim-1) down, so their order is the
    # order of the exponents
    terms = []
    for ds in sorted(digits, reverse=True):
        exp = Ordinal(tuple((from_int(dim - 1 - i), d) for i, d in enumerate(ds) if d))
        terms.append((exp, rng.randint(1, max_coeff)))
    return Ordinal(tuple(terms))
