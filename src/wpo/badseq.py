"""Long bad sequences of lower sets from ordinal descent.

A descent run starts at the largest ordinal the staircase shapes cover
(w^(w+2) in two dimensions, w^(w^2+w*3+3) in three), then repeatedly
steps down: fundamental-sequence member at limits, predecessor at
successors, with the step argument increasing by one each time.  Every
ordinal on the way is translated into a union-of-boxes lower set whose
geometry reverses the ordinal order strictly, so the resulting list of
lower sets is bad: no earlier set is contained in a later one.

Records carry two size gauges.  ``norm`` is read off the ordinal
(all its coefficients plus the largest finite exponent offset) and is
capped by (base+index)^2 along a run.  ``extent`` is the largest
finite box extent of the lower set.  The shapes emit no box larger
than the ordering needs (a slab is as wide as its coefficient, every
other box sits 2 past what it builds on), so along a run the lower
sets stay within the norm of their ordinals: extent <= norm at every
record.
"""

import os
from contextlib import suppress
from dataclasses import dataclass

from .lowerset import (
    GeneralLowerSet,
    UNBOUNDED,
    complement_points,
    format_gls,
    inclusion_masks,
    parse_gls,
)
from .monomial import MonomialIdeal, format_ideal, parse_ideal
from .ordinal import (
    OMEGA,
    ONE,
    Ordinal,
    ZERO,
    add,
    format_ordinal,
    from_int,
    fundamental,
    general_type,
    is_limit,
    parse_ordinal,
    predecessor,
)

_EXP_X2 = add(OMEGA, ONE)  # w+1
_EXP_Y2 = OMEGA


def descent_start(dim: int) -> Ordinal:
    """The ordinal the dimension-``dim`` run descends from."""
    if dim not in (2, 3):
        raise ValueError("descent runs are built for dimensions 2 and 3")
    return predecessor(general_type(dim))


def _strictly_decreasing(xs) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


@dataclass(frozen=True)
class Shape2:
    """An ordinal below w^(w+2) split into slab and step data.

    slab_x and slab_y are the coefficients of w^(w+1) and w^w; steps
    holds (exponent, coefficient) pairs for the finite-exponent terms,
    exponents strictly decreasing.
    """

    slab_x: int
    slab_y: int
    steps: tuple = ()

    def __post_init__(self):
        if min(self.slab_x, self.slab_y, 0) < 0:
            raise ValueError("negative slab coefficient")
        if any(a < 0 or b < 1 for a, b in self.steps):
            raise ValueError("bad step term")
        if not _strictly_decreasing([a for a, _ in self.steps]):
            raise ValueError("step exponents must decrease strictly")

    @classmethod
    def from_ordinal(cls, alpha: Ordinal) -> "Shape2":
        slab_x = slab_y = 0
        steps = []
        for e, c in alpha.terms:
            if e == _EXP_X2:
                slab_x = c
            elif e == _EXP_Y2:
                slab_y = c
            elif e.is_finite:
                steps.append((e.as_int(), c))
            else:
                raise ValueError(f"{alpha} is not below w^(w+2)")
        return cls(slab_x, slab_y, tuple(steps))

    def to_ordinal(self) -> Ordinal:
        terms = []
        if self.slab_x:
            terms.append((_EXP_X2, self.slab_x))
        if self.slab_y:
            terms.append((_EXP_Y2, self.slab_y))
        terms.extend((from_int(a), b) for a, b in self.steps)
        return Ordinal(tuple(terms))

    def norm(self) -> int:
        top = max((a for a, _ in self.steps), default=0)
        return self.slab_x + self.slab_y + sum(b for _, b in self.steps) + top

    def rects(self) -> list:
        """Boxes of the staircase, in construction order.

        A slab with coefficient c is the box of width c, left out when
        c is 0; step l adds a box whose width is slab_x + l + 2 and
        whose height is slab_y plus the accumulated coefficients plus
        2, which keeps every box maximal and makes each descent step
        shrink the staircase somewhere.  Along a descent run these
        extents stay at or under the norm.
        """
        out = []
        if self.slab_x:
            out.append((self.slab_x, UNBOUNDED))
        if self.slab_y:
            out.append((UNBOUNDED, self.slab_y))
        acc = 0
        for a, b in self.steps:
            acc += b
            out.append((self.slab_x + a + 2, self.slab_y + acc + 2))
        return out

    def lower_set(self) -> GeneralLowerSet:
        return GeneralLowerSet.make(2, self.rects())


def _exp3(s: int, u: int, v: int) -> Ordinal:
    terms = []
    if s:
        terms.append((from_int(2), s))
    if u:
        terms.append((from_int(1), u))
    if v:
        terms.append((ZERO, v))
    return Ordinal(tuple(terms))


def _split3(e: Ordinal):
    """Exponent e as (s, u, v) with e = w^2*s + w*u + v, else None."""
    s = u = v = 0
    for f, c in e.terms:
        if not f.is_finite:
            return None
        k = f.as_int()
        if k == 2:
            s = c
        elif k == 1:
            u = c
        elif k == 0:
            v = c
        else:
            return None
    return s, u, v


@dataclass(frozen=True)
class Shape3:
    """An ordinal below w^(w^2+w*3+3) split into slab, face and corner data.

    slabs are the coefficients of w^(w^2+w*3+2), w^(w^2+w*3+1) and
    w^(w^2+w*3).  Each face family holds (offset, coefficient) pairs:
    faces_xy for exponents w^2+w*2+offset, faces_xz for w^2+w+offset,
    faces_yz for w^2+offset, offsets strictly decreasing.  corners
    holds (h, i, coefficient) triples for exponents w*h+i, the pairs
    (h, i) strictly decreasing lexicographically.
    """

    slabs: tuple
    faces_xy: tuple = ()
    faces_xz: tuple = ()
    faces_yz: tuple = ()
    corners: tuple = ()

    def __post_init__(self):
        if len(self.slabs) != 3 or min(self.slabs) < 0:
            raise ValueError("slabs must be three nonnegative coefficients")
        for fam in (self.faces_xy, self.faces_xz, self.faces_yz):
            if any(v < 0 or c < 1 for v, c in fam):
                raise ValueError("bad face term")
            if not _strictly_decreasing([v for v, _ in fam]):
                raise ValueError("face offsets must decrease strictly")
        if any(h < 0 or i < 0 or c < 1 for h, i, c in self.corners):
            raise ValueError("bad corner term")
        if not _strictly_decreasing([(h, i) for h, i, _ in self.corners]):
            raise ValueError("corner positions must decrease lexicographically")

    @classmethod
    def from_ordinal(cls, alpha: Ordinal) -> "Shape3":
        slabs = [0, 0, 0]
        xy, xz, yz, corners = [], [], [], []
        for e, c in alpha.terms:
            parts = _split3(e)
            if parts is None:
                raise ValueError(f"{alpha} is not below w^(w^2+w*3+3)")
            s, u, v = parts
            if s == 1 and u == 3 and v <= 2:
                slabs[2 - v] = c
            elif s == 1 and u <= 2:
                (xy, xz, yz)[2 - u].append((v, c))
            elif s == 0:
                corners.append((u, v, c))
            else:
                raise ValueError(f"{alpha} is not below w^(w^2+w*3+3)")
        return cls(tuple(slabs), tuple(xy), tuple(xz), tuple(yz), tuple(corners))

    def to_ordinal(self) -> Ordinal:
        terms = []
        for t, a in enumerate(self.slabs):
            if a:
                terms.append((_exp3(1, 3, 2 - t), a))
        for u, fam in ((2, self.faces_xy), (1, self.faces_xz), (0, self.faces_yz)):
            terms.extend((_exp3(1, u, v), c) for v, c in fam)
        terms.extend((_exp3(0, h, i), c) for h, i, c in self.corners)
        return Ordinal(tuple(terms))

    def norm(self) -> int:
        offsets = [v for fam in (self.faces_xy, self.faces_xz, self.faces_yz)
                   for v, _ in fam]
        offsets += [x for h, i, _ in self.corners for x in (h, i)]
        coeffs = sum(self.slabs)
        coeffs += sum(c for fam in (self.faces_xy, self.faces_xz, self.faces_yz)
                      for _, c in fam)
        coeffs += sum(c for _, _, c in self.corners)
        return coeffs + max(offsets, default=0)

    def rects(self) -> list:
        """Boxes in construction order: slabs, then the three face
        families as staircases on their bounded pair of coordinates,
        then fully bounded corner boxes pushed past everything else.

        A slab with coefficient c is a box of width c in its
        coordinate, left out when c is 0.  Faces and corners sit 2
        past the extents they build on, as the steps of Shape2 do."""
        a1, a2, a3 = self.slabs
        out = []
        if a1:
            out.append((a1, UNBOUNDED, UNBOUNDED))
        if a2:
            out.append((UNBOUNDED, a2, UNBOUNDED))
        if a3:
            out.append((UNBOUNDED, UNBOUNDED, a3))
        acc = 0
        for v, c in self.faces_xy:
            acc += c
            out.append((a1 + v + 2, a2 + acc + 2, UNBOUNDED))
        acc = 0
        for v, c in self.faces_xz:
            acc += c
            out.append((a1 + v + 2, UNBOUNDED, a3 + acc + 2))
        acc = 0
        for v, c in self.faces_yz:
            acc += c
            out.append((UNBOUNDED, a2 + v + 2, a3 + acc + 2))
        # corner boxes are offset by the largest finite extent of the
        # boxes above in each direction, so none is ever swallowed
        reach = [max((r[t] for r in out if r[t] != UNBOUNDED), default=0)
                 for t in range(3)]
        acc = 0
        for h, i, c in self.corners:
            acc += c
            out.append((reach[0] + h + 2, reach[1] + i + 2, reach[2] + acc + 2))
        return out

    def lower_set(self) -> GeneralLowerSet:
        return GeneralLowerSet.make(3, self.rects())


def shape_from_ordinal(alpha: Ordinal, dim: int):
    if dim == 2:
        return Shape2.from_ordinal(alpha)
    if dim == 3:
        return Shape3.from_ordinal(alpha)
    raise ValueError("staircase shapes exist for dimensions 2 and 3")


def lower_set_of(alpha: Ordinal, dim: int) -> GeneralLowerSet:
    return shape_from_ordinal(alpha, dim).lower_set()


class _IdealFold:
    """Incremental complement ideal of a growing-prefix box list.

    Consecutive descent steps only change a suffix of the construction
    order, so the complement points of the shared prefix are reused:
    stack[k] holds the points outside the first k+1 boxes.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rects: list = []
        self.stack: list = []

    def ideal(self, rects) -> MonomialIdeal:
        k = 0
        limit = min(len(rects), len(self.rects))
        while k < limit and rects[k] == self.rects[k]:
            k += 1
        del self.rects[k:]
        del self.stack[k:]
        for r in rects[k:]:
            prev = self.stack[-1] if self.stack else None
            self.rects.append(r)
            self.stack.append(complement_points([r], self.dim, prev))
        points = self.stack[-1] if self.stack else complement_points([], self.dim)
        return MonomialIdeal(self.dim, tuple(points))


@dataclass(frozen=True)
class BadSequenceRecord:
    index: int
    alpha: Ordinal
    lower_set: GeneralLowerSet
    norm: int
    extent: int
    ideal: MonomialIdeal
    degree: int
    bound: int


@dataclass(frozen=True)
class DescentRun:
    dim: int
    base: int
    start: Ordinal
    records: tuple = ()


def _step(alpha: Ordinal, x: int) -> Ordinal:
    """One descent step with argument x."""
    return fundamental(alpha, x) if is_limit(alpha) else predecessor(alpha)


def _derive(dim: int, base: int, index: int, alpha: Ordinal,
            fold: _IdealFold) -> BadSequenceRecord:
    """The record a run stores for ``alpha`` at ``index``."""
    shape = shape_from_ordinal(alpha, dim)
    rects = shape.rects()
    lset = GeneralLowerSet.make(dim, rects)
    ideal = fold.ideal(rects)
    return BadSequenceRecord(
        index=index,
        alpha=alpha,
        lower_set=lset,
        norm=shape.norm(),
        extent=lset.max_finite_extent,
        ideal=ideal,
        degree=ideal.degree(),
        bound=(base + index) ** 2,
    )


def generate(dim: int, base: int, limit: int) -> DescentRun:
    """Descend ``limit`` steps from descent_start(dim), recording the
    staircase lower set, both size gauges, and the complement ideal of
    every ordinal reached.  Step i uses argument base+i-1."""
    if base < 1 or limit < 0:
        raise ValueError("base must be >= 1 and limit >= 0")
    alpha = descent_start(dim)
    fold = _IdealFold(dim)
    records = []
    for i in range(1, limit + 1):
        alpha = _step(alpha, base + i - 1)
        records.append(_derive(dim, base, i, alpha, fold))
        if alpha == ZERO:
            break
    return DescentRun(dim, base, descent_start(dim), tuple(records))


def symbolic_length_bound(dim: int, base: int) -> str:
    """Closed form for how long the descent could go on before hitting 0."""
    return f"H_{{{format_ordinal(descent_start(dim))}}}({base})-{base}"


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class BadnessReport:
    count: int
    pairs_checked: int
    first_violation: tuple | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def verify_bad(run: DescentRun) -> BadnessReport:
    """Check every pair i<j for the forbidden inclusion D_i <= D_j.

    Each pair is one big-int test on probe masks (see
    ``inclusion_masks``): one probe bit per distinct box of the run, at
    the box's saturated corner, with unbounded coordinates set to a
    global B, 1 plus the largest finite extent in the run.  A corner
    lies in a box exactly when its own box fits inside, and that holds
    for any B at least as large as every finite extent of the two sets,
    so one global B is exact for every pair at once.  Then D_i <= D_j
    iff every probe of D_i lies in D_j, i.e. mask_i & ~mask_j == 0.

    Pairs are scanned row by row and the scan stops at the first
    inclusion, so ``pairs_checked`` counts the pairs up to and
    including it.  Indices in the report are 1-based record indices.
    """
    masks = inclusion_masks(r.lower_set for r in run.records)
    missing = [~m for m in masks]
    n = len(masks)
    pairs = 0
    for i, mi in enumerate(masks):
        for j in range(i + 1, n):
            if not mi & missing[j]:
                return BadnessReport(n, pairs + j - i, (i + 1, j + 1))
        pairs += n - 1 - i
    return BadnessReport(n, pairs, None)


def audit_run(run: DescentRun) -> list:
    """Recompute everything derivable and collect discrepancies.

    Covers: the ordinal really is reached by the stated descent, every
    stored column matches recomputation, norms respect the quadratic
    envelope, degrees stay under the same envelope, and extents stay
    at or under the norm.
    """
    problems = []
    alpha = run.start
    if run.dim not in (2, 3):
        return [f"unsupported dimension {run.dim}"]
    if alpha != descent_start(run.dim):
        problems.append(f"run starts at {alpha}, expected {descent_start(run.dim)}")
    fold = _IdealFold(run.dim)
    for k, rec in enumerate(run.records):
        if rec.index != k + 1:
            problems.append(f"record {k + 1}: index says {rec.index}")
            continue
        if alpha == ZERO:
            problems.append(f"record {rec.index}: descent already ended at 0")
            break
        alpha = _step(alpha, run.base + rec.index - 1)
        tag = f"record {rec.index}"
        if rec.alpha != alpha:
            problems.append(f"{tag}: ordinal {rec.alpha} is not the descent value {alpha}")
            alpha = rec.alpha  # keep auditing the stored trajectory
        want = _derive(run.dim, run.base, rec.index, rec.alpha, fold)
        for name in ("lower_set", "norm", "extent", "ideal", "degree", "bound"):
            got, exp = getattr(rec, name), getattr(want, name)
            if got != exp:
                label = name.replace("_", " ")
                problems.append(f"{tag}: {label} {got} != {exp}" if isinstance(exp, int)
                                else f"{tag}: {label} mismatch")
        if rec.norm > rec.bound:
            problems.append(f"{tag}: norm {rec.norm} exceeds bound {rec.bound}")
        if rec.degree > rec.bound:
            problems.append(f"{tag}: degree {rec.degree} exceeds bound {rec.bound}")
        if rec.extent > rec.norm:
            problems.append(f"{tag}: extent {rec.extent} exceeds norm {rec.norm}")
    return problems


# ---------------------------------------------------------------------------
# record files

_COLUMNS = "index|ordinal|lowerset|norm|extent|ideal|degree|bound"


def run_lines(run: DescentRun) -> list:
    lines = [
        "# descent run",
        f"# dim: {run.dim}",
        f"# base: {run.base}",
        f"# start: {format_ordinal(run.start)}",
        f"# records: {len(run.records)}",
        f"# length-bound: {symbolic_length_bound(run.dim, run.base)}",
        f"# columns: {_COLUMNS}",
    ]
    for r in run.records:
        lines.append(
            "|".join(
                [
                    str(r.index),
                    format_ordinal(r.alpha),
                    format_gls(r.lower_set),
                    str(r.norm),
                    str(r.extent),
                    format_ideal(r.ideal),
                    str(r.degree),
                    str(r.bound),
                ]
            )
        )
    return lines


def write_run(run: DescentRun, path: str) -> None:
    """Write the record file atomically: into a temporary file beside
    ``path``, which then replaces it.  A failed write leaves an older
    file at ``path`` whole and no temporary file behind."""
    text = "\n".join(run_lines(run)) + "\n"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_run(path: str) -> DescentRun:
    headers = {}
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, val = body.partition(":")
                    headers[key.strip()] = val.strip()
                continue
            cols = line.split("|")
            if len(cols) != 8 or "dim" not in headers:
                raise ValueError(f"line {lineno}: bad record line: {line!r}")
            dim = int(headers["dim"])
            try:
                records.append(
                    BadSequenceRecord(
                        index=int(cols[0]),
                        alpha=parse_ordinal(cols[1]),
                        lower_set=parse_gls(cols[2], dim),
                        norm=int(cols[3]),
                        extent=int(cols[4]),
                        ideal=parse_ideal(cols[5], dim),
                        degree=int(cols[6]),
                        bound=int(cols[7]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    for key in ("dim", "base", "start", "records"):
        if key not in headers:
            raise ValueError(f"missing header {key!r}")
    declared = headers["records"]
    if not declared.isdigit() or int(declared) != len(records):
        raise ValueError(
            f"header says {declared} records but the file holds {len(records)}"
        )
    return DescentRun(
        dim=int(headers["dim"]),
        base=int(headers["base"]),
        start=parse_ordinal(headers["start"]),
        records=tuple(records),
    )
