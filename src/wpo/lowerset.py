"""Lower (downward closed) sets of N^m.

A lower set is a GeneralLowerSet: a finite union of half-open boxes,
each given by per-coordinate extents from N union {w}; a point p lies
in a box when p[i] < extent[i] for every i.  The canonical form keeps
exactly the maximal boxes, sorted, and it is unique: a box inside a
union of boxes is inside a single one (the lemma of
``inclusion_masks``), so a redundant box is one whose extents another
box dominates.  The constructor accepts only the canonical form;
``make`` canonicalizes any list of boxes.

A finite lower set is a bounded one, with no w extent: the downward
closure of its generators, the points e-1 of its boxes e (``closure``,
``generators``), written in braces as ``{(0,1);(1,0)}``.

Unbounded extents are float("inf"), exported as UNBOUNDED, written "w".
The complement of a lower set, given by the minimal points outside it,
is computed here too, one routine for both directions: from_complement
is complement_points negated; it serves the ideals of monomial.py.  The
coordinate-subset layer (parts, fiber images, specifications) reads boxes.
"""

import math
import re
from bisect import bisect_left, insort
from collections import namedtuple
from itertools import accumulate, combinations, product
from operator import ge, mul

from .vectors import (
    NATURAL,
    dominance_masks,
    format_points,
    maximal_points,
    minimal_points,
    parse_points,
    read_natural,
    shown,
)

UNBOUNDED = float("inf")

Point = tuple
Rect = tuple


class UnboundedError(ValueError):
    """Raised when a finite representation of an unbounded set is requested."""


def _check_dim(a, b):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _trusted(cls, *fields):
    """``cls(*fields)`` minus its ``__new__`` check, for canonical fields
    only: the tuple of the fields, as ``ordinal._trusted`` builds an Ordinal."""
    return tuple.__new__(cls, fields)


def _check_boxes(rects, dim: int, least: int = 1) -> None:
    for r in rects:
        if len(r) != dim or not all(
            (isinstance(e, int) and e >= least) or e == UNBOUNDED for e in r
        ):
            raise ValueError(f"bad box {shown(format_box(r), str)} for dimension {dim}")


class GeneralLowerSet(namedtuple("GeneralLowerSet", "dim rects")):
    """A finite union of boxes in canonical form: the maximal boxes, sorted."""

    __slots__ = ()

    def __new__(cls, dim: int, rects: tuple = ()):
        _check_boxes(rects, dim)
        if list(rects) != maximal_points(rects, dim):
            raise ValueError("boxes must be the sorted maximal ones")
        return tuple.__new__(cls, (dim, rects))

    @classmethod
    def make(cls, dim: int, rects) -> "GeneralLowerSet":
        """Canonicalize: check every box, drop the empty ones (an extent
        0), keep only maximal extent tuples."""
        boxes = [tuple(r) for r in rects]
        _check_boxes(boxes, dim, least=0)
        live = [r for r in boxes if 0 not in r]
        return _trusted(cls, dim, tuple(maximal_points(live, dim)))

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

    A box lies inside a union of boxes only if it lies inside one of
    them: its corner, e-1 at each finite extent e and far out at each
    w, is one of its points and lies only in the boxes whose extents
    dominate its own.  So D <= E iff every box of D lies below some box
    of E, extent by extent.

    Bit k of a set's mask says that the k-th distinct box of ``sets``
    lies below one of the set's boxes: the OR over its boxes of their
    ``dominance_masks``.
    """
    sets = list(sets)
    if not sets:
        return []
    for s in sets:
        _check_dim(sets[0], s)
    boxes = sorted({r for s in sets for r in s.rects})
    below = dict(zip(boxes, dominance_masks(boxes, sets[0].dim)))
    out = []
    for s in sets:
        m = 0
        for r in s.rects:
            m |= below[r]
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
    """Cylinder over s: full preimage under the projection to ``coords``,
    s.dim distinct coordinates below ``dim``.

    Each box of s gives one box, with s's extents on ``coords`` in
    sorted order and w on every other coordinate.  The added
    coordinates are w in every box, so two of the new boxes compare, in
    tuple order and in dominance, as the boxes of s they come from: kept
    in s's order they are the sorted maximal boxes, the canonical form,
    with no ``make``.
    """
    coords = sorted(set(coords))
    if len(coords) != s.dim or coords and not 0 <= coords[0] <= coords[-1] < dim:
        raise ValueError(f"need {s.dim} distinct coordinates below {dim}, not {coords}")
    rects = []
    for r in s.rects:
        ext = [UNBOUNDED] * dim
        for i, e in zip(coords, r):
            ext[i] = e
        rects.append(tuple(ext))
    return _trusted(GeneralLowerSet, dim, tuple(rects))


def complement_points(rects, dim: int, outside=None) -> list:
    """Minimal points outside the union of ``rects``, sorted.  It serves
    both directions of the complement: see ``from_complement``.

    ``outside`` holds the minimal points outside some earlier boxes, a
    sorted antichain as this function returns (default: the origin,
    outside no box), and the result continues from it.  A box r changes
    only the points it covers, so it costs about what it covers.  A
    point outside r stays, and stays minimal: no point left lies below
    it.  A point p inside r has p[0] < r[0], so it lies in the prefix
    of the points that sort before ``r[:1]`` (all of them when r is
    ``()``); the rest stay as they are, and a box that covers no point
    leaves the list unchanged.  p leaves, and each finite extent e of r,
    in coordinate t, raises it to q = p with e at t.  A box unbounded
    everywhere leaves nothing outside.

    A point that stays and lies below q holds e at t, since p is inside
    r in every other coordinate, so q is checked only against that
    level.  For t = 0 the level is the points just after the prefix that
    hold e first; for t > 0 it lies in the prefix, for a point below q
    holds at most p[0] < r[0] first.  Points raised on different axes
    never compare: q raised at t holds e at t, where q' raised at t'
    from p' holds p'[t] < e.  So ``minimal_points`` drops the repeated
    and dominated raised points one axis at a time, and only where two
    or more are left; one point inside r needs no pass at all.  The new
    points go into the sorted list one by one, by ``insort``.

    The result is a sorted antichain when ``outside`` is: the kept
    points stay an antichain; a raised point q lies above no kept point
    (the level check) and below none, since q lies above its p and p
    below no other old point.  It is canonical, as ``MonomialIdeal``
    accepts it, when ``_check_boxes`` also accepts every box, for then
    every coordinate is an old point's or a finite extent.  The
    staircase's extents are all such (``badseq._staircase``), so
    ``badseq._IdealFold.record`` takes the result as built, and
    ``from_complement`` takes it so too.
    """
    points = [(0,) * dim] if outside is None else list(outside)
    for r in rects:
        end = bisect_left(points, r[:1]) if r else len(points)
        kept, inside = [], []
        for p in points[:end]:
            (kept if any(map(ge, p, r)) else inside).append(p)
        if not inside:
            continue
        new = []
        for t, e in enumerate(r):
            if e != UNBOUNDED:
                raised = [p[:t] + (e,) + p[t + 1:] for p in inside]
                level = (points[end:bisect_left(points, (e + 1,), end)] if t == 0
                         else [g for g in kept if g[t] == e])
                if level:
                    raised = [q for q in raised if not any(all(map(ge, q, g)) for g in level)]
                new += minimal_points(raised, dim) if len(raised) > 1 else raised
        points[:end] = kept
        for q in new:
            insort(points, q)
    return points


def from_complement(points, dim: int) -> GeneralLowerSet:
    """The lower set of points that dominate none of ``points``.

    Box r holds point g when g < r in every coordinate, that is when
    -r < -g: the point -r lies in the box -g.  So the negated minimal
    points outside the boxes -g, from the one point far below
    everything, are the maximal boxes that hold no point.  They come
    back a sorted antichain, which negation reverses; a box raised to 0
    somewhere is empty.  The boxes are checked as ``make`` checks them,
    but not canonicalized again, which at dim 1000 would cost as much.
    """
    outside = complement_points([tuple(-c for c in g) for g in points], dim,
                                [(-UNBOUNDED,) * dim])
    boxes = [tuple(-c for c in q) for q in reversed(outside) if 0 not in q]
    _check_boxes(boxes, dim)
    return _trusted(GeneralLowerSet, dim, tuple(boxes))


def intersection_image(s: GeneralLowerSet, coords) -> GeneralLowerSet:
    """The points p of the projected space whose whole fiber lies in s.
    That fiber is the box p+1 on ``coords``, w elsewhere, and it lies in
    s only inside one box of s (the lemma of ``inclusion_masks``), one
    that is w off ``coords``.  So the image projects those boxes."""
    coords = sorted(coords)
    rest = [i for i in range(s.dim) if i not in coords]
    boxes = tuple(r for r in s.rects if all(r[i] == UNBOUNDED for i in rest))
    return project(_trusted(GeneralLowerSet, s.dim, boxes), coords)


def _nonempty_subsets(dim: int):
    for size in range(1, dim + 1):
        yield from (frozenset(c) for c in combinations(range(dim), size))


def compose_parts(parts, dim: int) -> GeneralLowerSet:
    """Union of the cylinders of one bounded part per coordinate subset.

    ``parts`` maps every nonempty frozenset C of coordinates to a
    bounded lower set living on the coordinates of C in sorted order.
    The result is always a proper lower set of N^dim.
    """
    boxes = []
    for coords in _nonempty_subsets(dim):
        if coords not in parts:
            raise ValueError(f"missing part for coordinates {sorted(coords)}")
        part = parts[coords]
        if part.dim != len(coords):
            raise ValueError(f"part for {sorted(coords)} has dimension {part.dim}")
        generators(part)  # an unbounded part raises UnboundedError
        boxes += preimage(part, coords, dim).rects
    out = GeneralLowerSet.make(dim, boxes)
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


class PartialSpecification(namedtuple("PartialSpecification", "dim domain assignment")):
    """An assignment of a proper lower set to each coordinate subset in a
    graded downward closed family of subsets of {0..dim-1}."""

    __slots__ = ()


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

# Most lower sets enumerate_fls yields before it gives up.  Callers pair
# every set with every other, so this caps them at 25M pairs.
MAX_LOWER_SETS = 5000

# Most unions of boxes enumerate_gls tries.  Each is canonicalized; the
# 43,745 of `wpo oracle phi --m 3` take about 7 s with their checks on a
# 2-CPU x86-64 VM.
MAX_BOX_COMBINATIONS = 100_000


def enumerate_fls(box):
    """Yield every lower set inside the finite grid ``box``, as
    bounded GeneralLowerSets, by depth-first order-ideal search.

    Walks the grid points in lexicographic (linear-extension) order;
    a point may be present only when all its immediate predecessors are,
    so leaving a point out ends its row (the points differing from it in
    the last coordinate wider than 1 only; extent-1 coordinates are
    always 0).  Raises ValueError at once on a volume of
    MAX_LOWER_SETS or more, and once more than MAX_LOWER_SETS sets have
    turned up.

    ``chosen``, ``tops`` and ``preds[k]`` hold indices into the sorted
    ``points``, so index order is lexicographic order.  Each set is built
    from ``tops`` without a check, as its canonical boxes: ``boxes[k]``,
    point k plus 1, for each k of tops, sorted.  ``chosen`` is a lower
    set, since a point is taken only after its immediate predecessors,
    and ``tops`` stays exactly its maximal points.  A point p is taken
    after every chosen point in lexicographic order, a linear extension
    of the product order, so no chosen point lies above p and p is
    maximal.  A maximal point q < p is one of p's immediate
    predecessors: q lies at or below some p - e_t, which is chosen, and
    q < p - e_t would make q not maximal.  So taking point k removes
    from ``tops`` exactly the indices of ``preds[k]`` in it and adds k.
    """
    box = tuple(box)
    if not all(isinstance(e, int) and e >= 1 for e in box):
        raise ValueError("box extents must be positive integers")
    # volume V: at least V+1 lower sets, one per prefix of the point order
    if math.prod(box) >= MAX_LOWER_SETS:
        raise ValueError(f"box {box} holds more than {MAX_LOWER_SETS} lower sets")
    dim = len(box)
    row = next((e for e in reversed(box) if e > 1), 1)
    points = sorted(product(*[range(e) for e in box]))
    # point k less e_t is point k - strides[t], the volume after axis t
    strides = list(accumulate(reversed(box[1:]), mul, initial=1))[::-1]
    preds = [[k - s for s, c in zip(strides, p) if c] for k, p in enumerate(points)]
    boxes = [tuple([c + 1 for c in p]) for p in points]

    chosen: set = set()
    tops: frozenset = frozenset()  # the indices of the maximal chosen points
    found = 0
    # explicit stack, deepest action last: ("visit", k) decides point k
    # with it left out first, which ends its row; ("add", k) and
    # ("drop", k, saved) bracket the branch that takes it.  The left-out
    # branch unwinds before "add" pops, so ``saved``, the maximal points
    # when the branch was scheduled, is what "drop" restores.
    stack = [("visit", 0, None)]
    while stack:
        action, k, saved = stack.pop()
        if action == "add":
            chosen.add(k)
            tops = tops.difference(preds[k]) | {k}
        elif action == "drop":
            chosen.remove(k)
            tops = saved
        elif k == len(points):
            found += 1
            if found > MAX_LOWER_SETS:
                raise ValueError(f"box {box} holds more than {MAX_LOWER_SETS} lower sets")
            yield _trusted(GeneralLowerSet, dim, tuple([boxes[i] for i in sorted(tops)]))
        else:
            if chosen.issuperset(preds[k]):
                stack += [("drop", k, tops), ("visit", k + 1, None), ("add", k, None)]
            stack.append(("visit", (k // row + 1) * row, None))


def box_combinations(dim: int, menu_size: int, max_rects: int) -> int:
    """How many unions of at most ``max_rects`` of the ``menu_size**dim``
    boxes ``enumerate_gls`` tries, refused past MAX_BOX_COMBINATIONS.

    A box count that the bit length of ``menu_size`` puts at 2**3322
    (over 10**1000) or more is not built, since one box is past the cap
    already, and a refusal names it as ``menu_size^dim``."""
    huge = dim * (menu_size.bit_length() - 1) >= 3322
    size = MAX_BOX_COMBINATIONS + 1 if huge else menu_size ** dim
    combos = 0
    for count in range(min(max_rects, size) + 1):
        combos += math.comb(size, count)
        if combos > MAX_BOX_COMBINATIONS:
            boxes = f"{menu_size}^{dim}" if huge else size
            raise ValueError(
                f"more than {MAX_BOX_COMBINATIONS} combinations of at most "
                f"{max_rects} of {boxes} boxes"
            )
    return combos


def enumerate_gls(dim: int, extents, max_rects: int):
    """Yield every distinct union of at most ``max_rects`` boxes whose
    extents come from ``extents``, canonicalized, each set once.

    Raises ValueError before yielding anything when there are more than
    MAX_BOX_COMBINATIONS combinations of boxes to try."""
    menu = sorted(set(extents), key=lambda e: (e == UNBOUNDED, e))
    if not all((isinstance(e, int) and e >= 1) or e == UNBOUNDED for e in menu):
        raise ValueError("extents must be positive integers or UNBOUNDED")
    box_combinations(dim, len(menu), max_rects)
    boxes = sorted(product(menu, repeat=dim))
    seen = set()
    for count in range(min(max_rects, len(boxes)) + 1):
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
        raise ValueError(f"bad lower set literal: {shown(text)}")
    body = text[1:-1]
    if not body:
        if dim is None:
            raise ValueError("cannot infer dimension of an empty literal")
        return closure([], dim)
    gens = parse_points(body, dim, "bad generator")
    return closure(gens, len(gens[0]))


def _extent_str(e) -> str:
    return "w" if e == UNBOUNDED else str(e)


def format_box(r: Rect) -> str:
    return "[" + ",".join(_extent_str(e) for e in r) + "]"


def format_gls(s: GeneralLowerSet, box=format_box) -> str:
    """``[1,w]u[3,2]``, with ``box`` giving each box's text: a memo of
    ``format_box`` formats each box of a run once."""
    if not s.rects:
        return "empty"
    return "u".join(map(box, s.rects))


def read_box(chunk: str):
    """The extents of the box ``[3,w,5]`` in ``chunk``, None when it is not one."""
    m = re.fullmatch(rf"\[((?:{NATURAL}|w)(?:,(?:{NATURAL}|w))*)\]", chunk)
    return m and tuple(UNBOUNDED if c == "w" else read_natural(c) for c in m.group(1).split(","))


def parse_gls(text: str, dim: int | None = None) -> GeneralLowerSet:
    text = text.strip().replace(" ", "")
    if text == "empty":
        if dim is None:
            raise ValueError("cannot infer dimension of an empty literal")
        return GeneralLowerSet.make(dim, [])
    rects = []
    for chunk in text.split("u"):
        rect = read_box(chunk)
        if rect is None:
            raise ValueError(f"bad box {shown(chunk)}")
        rects.append(rect)
    if dim is None:
        dim = len(rects[0])
    return GeneralLowerSet.make(dim, rects)
