"""Componentwise dominance helpers for integer vectors.

Everything here works on plain tuples.  Coordinates may be ints or
float("inf"); all comparisons are componentwise.  The text form of a
point list, shared by finite lower sets and monomial ideals, is also
here: ``(0,1);(1,0)``, with the one grammar of the numbers that record
files and the command line are written in (``NATURAL``, ``integer``).
"""

import re
from bisect import bisect_left, bisect_right


def dominates(u: tuple, v: tuple) -> bool:
    """True when u >= v in every coordinate."""
    return all(a >= b for a, b in zip(u, v))


def minimal_points(points, dim: int) -> list:
    """Componentwise-minimal elements of ``points``, sorted.

    Dims 0 to 3 take an O(n log n) sweep in lexicographic order: a
    dominating (smaller) vector always sorts before the vectors it
    dominates, so one forward pass over a staircase of the last two
    coordinates suffices.  Points of dims below 3 go through it padded
    with zeros, which keeps their order and dominance, and come back
    cut.  In other dims p is minimal exactly when its
    ``dominance_masks`` mask holds its own bit alone (the points are
    distinct).
    """
    if dim < 3:
        pad = (0,) * (3 - dim)
        return [p[:dim] for p in minimal_points([p + pad for p in points], 3)]
    pts = sorted(set(points))
    if not pts:
        return []
    if dim == 3:
        kept = []
        ys: list = []  # pareto front over (y, z) of kept points: y asc, z desc
        zs: list = []
        for p in pts:
            _, y, z = p
            k = bisect_right(ys, y)
            if k and zs[k - 1] <= z:
                continue  # some kept point has x<=, y<=, z<=
            kept.append(p)
            # fold p into the (y, z) front; evict entries it dominates
            i = bisect_left(ys, y)
            j = i
            while j < len(ys) and zs[j] >= z:
                j += 1
            ys[i:j] = [y]
            zs[i:j] = [z]
        return kept
    masks = dominance_masks(pts, dim)
    return [p for i, p in enumerate(pts) if masks[i] == 1 << i]


def dominance_masks(points: list, dim: int) -> list:
    """One int per point of the distinct ``points``: bit j of mask i is
    set when points[j] <= points[i] in every coordinate.

    The points at or below p in coordinate t are a prefix of the sort
    on t; p's mask is the AND over t of those prefixes.  No points give
    [] before any axis is read, so a huge ``dim`` costs nothing.
    """
    if not points:
        return []
    masks = [(1 << len(points)) - 1] * len(points)  # not -1: in dim 0, () keeps only its bit
    for t in range(dim):
        at_or_below = {}
        acc = 0
        for v, i in sorted((p[t], i) for i, p in enumerate(points)):
            acc |= 1 << i
            at_or_below[v] = acc  # the last of equal values wins: ties are in
        masks = [m & at_or_below[p[t]] for m, p in zip(masks, points)]
    return masks


def maximal_points(points, dim: int) -> list:
    """Componentwise-maximal elements of ``points``, sorted.

    Negating every coordinate reverses the order, so the maximal points
    are the negated ``minimal_points`` of the negated points.
    """
    neg = [tuple(-c for c in p) for p in points]
    return sorted(tuple(-c for c in p) for p in minimal_points(neg, dim))


NATURAL = "(?:0|[1-9][0-9]*)"  # a coordinate of a box or point: ASCII, no leading 0


def integer(text: str) -> int:
    """``text`` as an int when it is ASCII and ``str`` gives it back:
    an optional ``-`` and digits without a leading zero.  ``int`` alone
    also takes spaces, ``+``, ``_``, leading zeros, ``-0`` and non-ASCII
    digits such as ``٣``."""
    if text.isascii() and str(n := int(text)) == text:
        return n
    raise ValueError(f"not an integer: {text!r}")


def shown(text: str, form=repr) -> str:
    """``form(text)`` for an error line, or, for a text longer than the
    4300 digits ``int`` reads, its length: such a text is not echoed."""
    return form(text) if len(text) <= 4300 else f"<{len(text)} characters>"


def read_natural(digits: str) -> int:
    """``int(digits)``, or for more digits than ``int`` reads a ValueError
    that names them as ``shown`` does."""
    if len(digits) > 4300:
        raise ValueError(f"number {shown(digits)} has more than 4300 digits")
    return int(digits)


def format_point(p: tuple) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def format_points(points, point=format_point) -> str:
    """``(0,1);(1,0)``, with ``point`` giving each point's text: a
    memo of ``format_point`` formats each point of a run once."""
    return ";".join(map(point, points))


def read_point(chunk: str):
    """The point ``(a,b,...)`` of ``chunk``, None when it is not one."""
    m = re.fullmatch(rf"\(({NATURAL}(?:,{NATURAL})*)\)", chunk)
    return m and tuple(map(read_natural, m.group(1).split(",")))


def parse_points(text: str, dim: int | None, what: str) -> list:
    """Read ``(a,b,...);(c,d,...)`` into a list of int tuples.

    Every vector must have ``dim`` coordinates, or as many as the first
    one when ``dim`` is None; ``what`` names a vector in the errors.
    """
    points = []
    for chunk in text.split(";"):
        p = read_point(chunk)
        if p is None:
            raise ValueError(f"{what} {shown(chunk)}")
        points.append(p)
    if dim is None:
        dim = len(points[0])
    for p in points:
        if len(p) != dim:
            raise ValueError(f"{what} {shown(str(p), str)} for dimension {dim}")
    return points
