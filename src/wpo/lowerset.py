"""Lower (downward closed) sets of N^m.

A lower set is a GeneralLowerSet: a finite union of half-open boxes,
each given by per-coordinate extents from N union {w}; a point p lies
in a box when p[i] < extent[i] for every i.  The canonical form keeps
exactly the maximal boxes, sorted, and it is unique: a box inside a
union of boxes is inside a single one (the saturated-corner lemma of
``inclusion_masks``), so a redundant box is one whose extents another
box dominates.  The constructor accepts only the canonical form;
``make`` canonicalizes any list of boxes.

A finite lower set is a bounded one, with no w extent: the downward
closure of its generators, the points e-1 of its boxes e (``closure``,
``generators``), written in braces as ``{(0,1);(1,0)}``.

Unbounded extents are float("inf"), exported as UNBOUNDED, written "w".
The complement of a lower set, given by the minimal points outside it,
is computed here too (complement_points, from_complement); monomial.py
wraps those points in ideals.
"""

import math
import re
from dataclasses import dataclass
from itertools import combinations, product

from .vectors import format_points, maximal_points, minimal_points, parse_points

UNBOUNDED = float("inf")

Point = tuple
Rect = tuple


class UnboundedError(ValueError):
    """Raised when a finite representation of an unbounded set is requested."""


def _check_dim(a, b):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _trusted(cls, **fields):
    """``cls(**fields)`` minus its ``__post_init__`` check: canonical fields only."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # frozen: plain attribute assignment raises
    return obj


def _check_boxes(rects, dim: int) -> None:
    for r in rects:
        if len(r) != dim or not all(
            (isinstance(e, int) and e >= 1) or e == UNBOUNDED for e in r
        ):
            raise ValueError(f"bad box {r} for dimension {dim}")


@dataclass(frozen=True)
class GeneralLowerSet:
    """A finite union of boxes in canonical form: the maximal boxes, sorted."""

    dim: int
    rects: tuple = ()

    def __post_init__(self):
        _check_boxes(self.rects, self.dim)
        if list(self.rects) != maximal_points(self.rects, self.dim):
            raise ValueError("boxes must be the sorted maximal ones")

    @classmethod
    def make(cls, dim: int, rects) -> "GeneralLowerSet":
        """Canonicalize: drop empty boxes, keep only maximal extent tuples."""
        live = [tuple(r) for r in rects if all(e != 0 for e in r)]
        _check_boxes(live, dim)
        return _trusted(cls, dim=dim, rects=tuple(maximal_points(live, dim)))

    @property
    def max_finite_extent(self) -> int:
        return max((e for r in self.rects for e in r if e != UNBOUNDED), default=0)

    @property
    def proper(self) -> bool:
        """True unless the set is all of N^dim."""
        return self.rects != (tuple([UNBOUNDED] * self.dim),)

    def member(self, p: Point) -> bool:
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        return any(all(a < e for a, e in zip(p, r)) for r in self.rects)

    def includes(self, other: "GeneralLowerSet") -> bool:
        """Inclusion other <= self, decided as in ``inclusion_masks``."""
        mine, theirs = inclusion_masks((self, other))
        return not theirs & ~mine

    def same_set(self, other: "GeneralLowerSet") -> bool:
        """Equality of the sets: the canonical form of each is unique."""
        _check_dim(self, other)
        return self == other

    def union(self, other: "GeneralLowerSet") -> "GeneralLowerSet":
        _check_dim(self, other)
        return GeneralLowerSet.make(self.dim, self.rects + other.rects)

    def intersect(self, other: "GeneralLowerSet") -> "GeneralLowerSet":
        _check_dim(self, other)
        mins = [tuple(map(min, r, s)) for r in self.rects for s in other.rects]
        return GeneralLowerSet.make(self.dim, mins)

    def __str__(self) -> str:
        return format_gls(self)


def inclusion_masks(sets) -> list:
    """One int per set, with sets[i] <= sets[j] iff
    ``masks[i] & ~masks[j] == 0``.

    This is the saturated-corner lemma.  Fix B above every finite extent
    in sight; the corner of a box r is e-1 at each finite extent e and B
    at each unbounded one.  The corner is a point of r, and it lies in a
    box s only when r fits inside s: e-1 < s[t] gives e <= s[t], and
    B < s[t] forces s[t] = w.  So r lies inside a lower set iff its
    corner does, and D <= E iff E holds the corner of every box of D.
    One global B, 1 plus the largest finite extent of all the sets, is
    exact for every pair at once.

    Each distinct box of ``sets`` gives one probe bit at its corner.
    Bit k of a set's mask says whether probe k lies in the set: the OR
    over the set's boxes of the AND over the axes of the prefix masks
    "corner coordinate t below extent t".
    """
    sets = list(sets)
    if not sets:
        return []
    for s in sets:
        _check_dim(sets[0], s)
    boxes = sorted({r for s in sets for r in s.rects})
    if not boxes:
        return [0] * len(sets)
    bound = 1 + max(s.max_finite_extent for s in sets)
    full = (1 << len(boxes)) - 1
    prefix = []
    for t in range(sets[0].dim):
        corners = sorted((bound if r[t] == UNBOUNDED else r[t] - 1, k)
                         for k, r in enumerate(boxes))
        below = {UNBOUNDED: full}
        acc = pos = 0
        for v in sorted({r[t] for r in boxes} - {UNBOUNDED}):
            while pos < len(corners) and corners[pos][0] < v:
                acc |= 1 << corners[pos][1]
                pos += 1
            below[v] = acc
        prefix.append(below)
    box_mask = {}
    for r in boxes:
        m = full
        for below, e in zip(prefix, r):
            m &= below[e]
        box_mask[r] = m
    out = []
    for s in sets:
        m = 0
        for r in s.rects:
            m |= box_mask[r]
        out.append(m)
    return out


def canonicalize(dim: int, rects) -> GeneralLowerSet:
    return GeneralLowerSet.make(dim, rects)


def full_space(dim: int) -> GeneralLowerSet:
    return GeneralLowerSet.make(dim, [tuple([UNBOUNDED] * dim)])


def closure(points, dim: int) -> GeneralLowerSet:
    """The downward closure of ``points``: a box g+1 for each point g."""
    points = list(points)
    for g in points:
        if len(g) != dim or any(not isinstance(c, int) or c < 0 for c in g):
            raise ValueError(f"bad generator {g} for dimension {dim}")
    return GeneralLowerSet.make(dim, [tuple(c + 1 for c in g) for g in points])


def generators(s: GeneralLowerSet) -> tuple:
    """The maximal points of a bounded set, sorted: e-1 for each box e."""
    if any(UNBOUNDED in r for r in s.rects):
        raise UnboundedError(f"{s} is unbounded")
    return tuple(tuple(e - 1 for e in r) for r in s.rects)


def from_finite(s: GeneralLowerSet) -> GeneralLowerSet:
    """``s`` itself: a finite lower set already is a GeneralLowerSet."""
    return s


def to_finite(s: GeneralLowerSet) -> GeneralLowerSet:
    """``s`` itself once it is known to be bounded."""
    generators(s)
    return s


def project(s: GeneralLowerSet, coords) -> GeneralLowerSet:
    """Image of s under dropping all coordinates outside ``coords``."""
    coords = sorted(coords)
    return GeneralLowerSet.make(len(coords), [tuple(r[i] for i in coords) for r in s.rects])


def preimage(s: GeneralLowerSet, coords, dim: int) -> GeneralLowerSet:
    """Cylinder over s: full preimage under the projection to ``coords``."""
    coords = sorted(coords)
    if len(coords) != s.dim:
        raise ValueError("coordinate count must match the set's dimension")
    rects = []
    for r in s.rects:
        ext = [UNBOUNDED] * dim
        for i, e in zip(coords, r):
            ext[i] = e
        rects.append(tuple(ext))
    return GeneralLowerSet.make(dim, rects)


# The complement of a lower set is an upper set generated by finitely many
# points (a monomial ideal), and projecting an upper set projects its
# generators.  That gives intersection_image = complement . project .
# complement without any search.

def complement_points(rects, dim: int, outside=None) -> list:
    """Minimal points outside the union of ``rects``, sorted.

    ``outside`` holds the minimal points outside some earlier boxes
    (default: the origin, outside no box) and the result continues from
    it: a point stays outside box r exactly when it reaches r's extent
    in some finite coordinate, so each box raises one finite coordinate
    of every point kept so far.  A box unbounded everywhere leaves
    nothing outside.
    """
    points = [(0,) * dim] if outside is None else list(outside)
    for r in rects:
        raised = [p[:t] + (max(p[t], e),) + p[t + 1:]
                  for p in points for t, e in enumerate(r) if e != UNBOUNDED]
        points = minimal_points(raised, dim)
    return points


def from_complement(points, dim: int) -> GeneralLowerSet:
    """The lower set of points that dominate none of ``points``."""
    out = full_space(dim)
    for g in points:
        slabs = [
            tuple(g[t] if i == t else UNBOUNDED for i in range(dim))
            for t in range(dim)
            if g[t] > 0
        ]
        out = out.intersect(GeneralLowerSet.make(dim, slabs))
    return out


def intersection_image(s: GeneralLowerSet, coords) -> GeneralLowerSet:
    """The points p of the projected space whose whole fiber lies in s."""
    coords = sorted(coords)
    points = [tuple(g[i] for i in coords) for g in complement_points(s.rects, s.dim)]
    return from_complement(minimal_points(points, len(coords)), len(coords))


def _nonempty_subsets(dim: int):
    for size in range(1, dim + 1):
        yield from (frozenset(c) for c in combinations(range(dim), size))


def compose_parts(parts, dim: int) -> GeneralLowerSet:
    """Union of the cylinders of one bounded part per coordinate subset.

    ``parts`` maps every nonempty frozenset C of coordinates to a
    bounded lower set living on the coordinates of C in sorted order.
    The result is always a proper lower set of N^dim.
    """
    out = GeneralLowerSet.make(dim, [])
    for coords in _nonempty_subsets(dim):
        if coords not in parts:
            raise ValueError(f"missing part for coordinates {sorted(coords)}")
        part = parts[coords]
        if part.dim != len(coords):
            raise ValueError(f"part for {sorted(coords)} has dimension {part.dim}")
        generators(part)  # an unbounded part raises UnboundedError
        out = out.union(preimage(part, coords, dim))
    if not out.proper:
        raise AssertionError("cylinders of bounded parts cannot cover the space")
    return out


def decompose_parts(t: GeneralLowerSet) -> dict:
    """Split a proper lower set into per-subset bounded parts.

    Each box contributes its bounded face (its finite extents) to the
    part indexed by its finite coordinates; compose_parts inverts this
    up to semantic equality.
    """
    if not t.proper:
        raise ValueError("the full space has no bounded decomposition")
    buckets: dict = {c: [] for c in _nonempty_subsets(t.dim)}
    for r in t.rects:
        face = tuple(e for e in r if e != UNBOUNDED)
        buckets[frozenset(i for i, e in enumerate(r) if e != UNBOUNDED)].append(face)
    return {c: GeneralLowerSet.make(len(c), faces) for c, faces in buckets.items()}


# ---------------------------------------------------------------------------
# partial specifications


@dataclass(frozen=True)
class PartialSpecification:
    """An assignment of a proper lower set to each coordinate subset in a
    graded downward closed family of subsets of {0..dim-1}."""

    dim: int
    domain: frozenset
    assignment: dict

    def part(self, coords) -> GeneralLowerSet:
        return self.assignment[frozenset(coords)]


def trivial_specification(dim: int) -> PartialSpecification:
    empty0 = GeneralLowerSet.make(0, [])
    return PartialSpecification(dim, frozenset([frozenset()]), {frozenset(): empty0})


def full_specification(s: GeneralLowerSet) -> PartialSpecification:
    """The specification induced by s on every coordinate subset."""
    if not s.proper:
        raise ValueError("the induced parts of the full space are not proper")
    subsets = [frozenset(c) for size in range(s.dim + 1)
               for c in combinations(range(s.dim), size)]
    assignment = {c: intersection_image(s, c) for c in subsets}
    return PartialSpecification(s.dim, frozenset(subsets), assignment)


def validate_specification(p: PartialSpecification) -> list:
    """Structural and coherence checks; returns a list of problems."""
    problems = []
    if not p.domain:
        problems.append("empty domain")
        return problems
    sizes = {len(c) for c in p.domain}
    top = max(sizes)
    for size in range(top):
        for c in combinations(range(p.dim), size):
            if frozenset(c) not in p.domain:
                problems.append(f"domain not graded: missing {sorted(c)}")
    for c in p.domain:
        x = p.assignment.get(c)
        if x is None:
            problems.append(f"no assignment for {sorted(c)}")
            continue
        if x.dim != len(c):
            problems.append(f"assignment for {sorted(c)} has dimension {x.dim}")
        elif not x.proper:
            problems.append(f"assignment for {sorted(c)} is the full space")
    if problems:
        return problems
    for c in p.domain:
        order = sorted(c)
        for d in p.domain:
            if d < c:
                positions = [order.index(i) for i in sorted(d)]
                derived = intersection_image(p.assignment[c], positions)
                if not derived.same_set(p.assignment[d]):
                    problems.append(
                        f"incoherent: part {sorted(d)} differs from the fiber "
                        f"image of part {sorted(c)}"
                    )
    return problems


def is_compatible(s: GeneralLowerSet, p: PartialSpecification) -> bool:
    """True when s is proper and induces exactly the specified parts."""
    if s.dim != p.dim or not s.proper:
        return False
    return all(
        intersection_image(s, sorted(c)).same_set(p.assignment[c]) for c in p.domain
    )


# ---------------------------------------------------------------------------
# enumeration

ENUMERATION_GUARD = 2 ** 20

# Most lower sets enumerate_fls yields before it gives up.  Callers pair
# every set with every other, so this caps them at 25M pairs.
MAX_LOWER_SETS = 5000


def enumerate_fls(box):
    """Yield every lower set inside the finite grid ``box``, as
    bounded GeneralLowerSets, by depth-first order-ideal search.

    Walks the grid points in lexicographic (linear-extension) order;
    a point may be present only when all its immediate predecessors are,
    so leaving a point out ends its row (the points differing from it in
    the last coordinate only).  Raises ValueError on a volume above
    ENUMERATION_GUARD, at once on a volume of MAX_LOWER_SETS or more,
    and once more than MAX_LOWER_SETS sets have turned up.
    """
    box = tuple(box)
    if not all(isinstance(e, int) and e >= 1 for e in box):
        raise ValueError("box extents must be positive integers")
    size = math.prod(box)
    if size > ENUMERATION_GUARD:
        raise ValueError(f"box volume {size} exceeds guard {ENUMERATION_GUARD}")
    # volume V: at least V+1 lower sets, one per prefix of the point order
    if size >= MAX_LOWER_SETS:
        raise ValueError(f"box {box} holds more than {MAX_LOWER_SETS} lower sets")
    dim = len(box)
    row = box[-1]
    points = sorted(product(*[range(e) for e in box]))

    preds = [
        [p[:i] + (p[i] - 1,) + p[i + 1:] for i in range(dim) if p[i] > 0]
        for p in points
    ]

    chosen: set = set()
    # the maximal chosen points, and how many chosen points cover each
    covers = dict.fromkeys(points, 0)
    tops: set = set()
    found = 0
    # explicit stack, deepest action last: ("visit", k) decides point k
    # with it left out first, which ends its row; ("add", k) and
    # ("drop", k) bracket the branch that takes it.
    stack = [("visit", 0)]
    while stack:
        action, k = stack.pop()
        if action == "add":
            chosen.add(points[k])
            tops.add(points[k])
            for q in preds[k]:
                covers[q] += 1
                tops.discard(q)
        elif action == "drop":
            chosen.remove(points[k])
            tops.remove(points[k])
            for q in preds[k]:
                covers[q] -= 1
                if not covers[q]:
                    tops.add(q)
        elif k == len(points):
            found += 1
            if found > MAX_LOWER_SETS:
                raise ValueError(f"box {box} holds more than {MAX_LOWER_SETS} lower sets")
            yield closure(list(tops), dim)
        else:
            if all(q in chosen for q in preds[k]):
                stack += [("drop", k), ("visit", k + 1), ("add", k)]
            stack.append(("visit", (k // row + 1) * row))


def enumerate_gls(dim: int, extents, max_rects: int):
    """Yield every distinct union of at most ``max_rects`` boxes whose
    extents come from ``extents``, canonicalized, each set once."""
    menu = sorted(set(extents), key=lambda e: (e == UNBOUNDED, e))
    if not all((isinstance(e, int) and e >= 1) or e == UNBOUNDED for e in menu):
        raise ValueError("extents must be positive integers or UNBOUNDED")
    boxes = sorted(product(menu, repeat=dim))
    seen = set()
    for count in range(max_rects + 1):
        for combo in combinations(boxes, count):
            s = GeneralLowerSet.make(dim, combo)
            if s.rects not in seen:
                seen.add(s.rects)
                yield s


# ---------------------------------------------------------------------------
# text form


def format_fls(s: GeneralLowerSet) -> str:
    """The generator form ``{(0,1);(1,0)}`` of a bounded set."""
    return "{" + format_points(generators(s)) + "}"


def parse_fls(text: str, dim: int | None = None) -> GeneralLowerSet:
    text = text.strip().replace(" ", "")
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad lower set literal: {text!r}")
    body = text[1:-1]
    if not body:
        if dim is None:
            raise ValueError("cannot infer dimension of an empty literal")
        return closure([], dim)
    gens = parse_points(body, dim, "bad generator")
    return closure(gens, len(gens[0]))


def _extent_str(e) -> str:
    return "w" if e == UNBOUNDED else str(e)


def format_gls(s: GeneralLowerSet) -> str:
    if not s.rects:
        return "empty"
    return "u".join("[" + ",".join(_extent_str(e) for e in r) + "]" for r in s.rects)


def parse_gls(text: str, dim: int | None = None) -> GeneralLowerSet:
    text = text.strip().replace(" ", "")
    if text == "empty":
        if dim is None:
            raise ValueError("cannot infer dimension of an empty literal")
        return GeneralLowerSet.make(dim, [])
    rects = []
    for chunk in text.split("u"):
        m = re.fullmatch(r"\[((?:[0-9]+|w)(?:,(?:[0-9]+|w))*)\]", chunk)
        if not m:
            raise ValueError(f"bad box {chunk!r}")
        rect = tuple(UNBOUNDED if c == "w" else int(c) for c in m.group(1).split(","))
        rects.append(rect)
    if dim is None:
        dim = len(rects[0])
    return GeneralLowerSet.make(dim, rects)
