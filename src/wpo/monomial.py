"""Monomial ideals as finite sets of exponent vectors.

An ideal is identified with the upper set of exponent vectors of its
member monomials; it is stored by its unique minimal generating set.
The unit ideal has the single generator 0, the zero ideal has none.

Complementation exchanges these ideals with the lower sets of
lowerset.py: x is in the ideal of D exactly when x is not in D.  The
complement itself is computed in lowerset.py (complement_points,
from_complement); this module wraps its points in ideals.
"""

from dataclasses import dataclass

from .lowerset import GeneralLowerSet, _trusted, complement_points, from_complement
from .vectors import dominates, format_points, minimal_points, parse_points

_VARS = ("X", "Y", "Z")


def _check_gens(gens, dim: int) -> None:
    for g in gens:
        if len(g) != dim or any(c < 0 or not isinstance(c, int) for c in g):
            raise ValueError(f"bad exponent vector {g} for dimension {dim}")


@dataclass(frozen=True)
class MonomialIdeal:
    dim: int
    gens: tuple = ()

    def __post_init__(self):
        _check_gens(self.gens, self.dim)
        if list(self.gens) != minimal_points(self.gens, self.dim):
            raise ValueError("generators must be a sorted antichain")

    @classmethod
    def make(cls, dim: int, gens) -> "MonomialIdeal":
        gens = [tuple(g) for g in gens]
        _check_gens(gens, dim)
        return _trusted(cls, dim=dim, gens=tuple(minimal_points(gens, dim)))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == (tuple([0] * self.dim),)

    def member(self, x: tuple) -> bool:
        """Monomial membership: some generator divides x."""
        if len(x) != self.dim:
            raise ValueError("dimension mismatch")
        return any(dominates(x, g) for g in self.gens)

    def includes(self, other: "MonomialIdeal") -> bool:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return all(self.member(g) for g in other.gens)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        joins = [tuple(map(max, g, h)) for g in self.gens for h in other.gens]
        return MonomialIdeal.make(self.dim, joins)

    def degree(self) -> int:
        """Largest total degree among the minimal generators."""
        if self.is_zero:
            raise ValueError("the zero ideal has no generating degree")
        return max(sum(g) for g in self.gens)

    def __str__(self) -> str:
        return format_ideal(self)


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, (tuple([0] * dim),))


def zero_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ())


def complement_ideal(s: GeneralLowerSet) -> MonomialIdeal:
    """The ideal whose monomials are exactly the points outside s."""
    return MonomialIdeal(s.dim, tuple(complement_points(s.rects, s.dim)))


def complement_lowerset(i: MonomialIdeal) -> GeneralLowerSet:
    """The lower set of points outside i; inverse of complement_ideal."""
    return from_complement(i.gens, i.dim)


def format_ideal(i: MonomialIdeal) -> str:
    return "0" if i.is_zero else format_points(i.gens)


def parse_ideal(text: str, dim: int | None = None) -> MonomialIdeal:
    text = text.strip().replace(" ", "")
    if text == "0":
        if dim is None:
            raise ValueError("cannot infer dimension of the zero ideal")
        return zero_ideal(dim)
    gens = parse_points(text, dim, "bad exponent vector")
    return MonomialIdeal.make(len(gens[0]), gens)


def _var(t: int, dim: int) -> str:
    return _VARS[t] if dim <= len(_VARS) else f"X{t + 1}"


def pretty_ideal(i: MonomialIdeal) -> str:
    """Human form, e.g. (2,0);(0,3) in two variables prints X^2, Y^3."""
    if i.is_zero:
        return "0"
    parts = []
    for g in i.gens:
        factors = []
        for t, e in enumerate(g):
            if e == 1:
                factors.append(_var(t, i.dim))
            elif e > 1:
                factors.append(f"{_var(t, i.dim)}^{e}")
        parts.append("*".join(factors) if factors else "1")
    return ", ".join(parts)
