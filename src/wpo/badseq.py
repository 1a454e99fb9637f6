"""Long bad sequences of lower sets from ordinal descent.

A descent run in dimension m starts at w^E, the largest ordinal below
the type w^E+1 of all lower sets of N^m (w, w^(w+2), w^(w^2+w*3+3) for
m = 1, 2, 3), then repeatedly steps down: fundamental-sequence member
at limits, predecessor at successors, with the step argument
increasing by one each time.  Every ordinal on the way is translated
into a union-of-boxes lower set whose geometry reverses the ordinal
order strictly, so the resulting list of lower sets is bad: no earlier
set is contained in a later one.

One rule translates in every dimension (``shape_from_ordinal``): E
has a block for each set of j bounded coordinates, j = 1..m, and each
term of the ordinal becomes one box of its block's staircase.

Records carry two size gauges.  ``norm`` is read off the ordinal
(all its coefficients plus the largest position digit) and is capped by
(base+index)^2 along a run.  ``extent`` is the largest finite box
extent of the lower set.  The staircase emits no box larger than the
ordering needs, so along a run the lower sets stay within the norm of
their ordinals: extent <= norm at every record.
"""

import os
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from math import comb

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
    Ordinal,
    ZERO,
    format_ordinal,
    fundamental,
    general_type,
    is_limit,
    parse_ordinal,
    predecessor,
)


def descent_start(dim: int) -> Ordinal:
    """The ordinal the dimension-``dim`` run descends from."""
    return predecessor(general_type(dim))


@lru_cache(maxsize=1024)
def _subset(dim: int, j: int, rank: int) -> tuple:
    """The j-subset of range(dim) at ``rank`` in lexicographic order."""
    out, x = [], 0
    for left in range(j, 0, -1):
        while rank >= (n := comb(dim - x - 1, left - 1)):
            rank -= n
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def shape_from_ordinal(alpha: Ordinal, dim: int):
    """The staircase of ``alpha`` below descent_start(dim): its boxes
    in construction order, and its norm.

    Each term w^e*c gives one box.  Write e = w^(dim-1)*d_(dim-1) + ...
    + d_0 and read the digits from the top, level j = dim down to 1:
    the digit d_(j-1) equals C(dim,j) to pass on to level j-1, or is
    below it to pick the j-subset S of lexicographic rank
    C(dim,j)-1-d_(j-1); d_(j-2), ..., d_0 are then the position p.  The
    box is unbounded off S.  At level 1 its one bounded coordinate is
    c.  At level j >= 2 the first j-1 coordinates t of S get
    reach_t + p_t + 2 and the last gets reach + (the coefficients so far
    in S's block) + 2, where reach_t is the largest finite extent in
    coordinate t among the boxes of lower levels, 0 if none.  Lower
    levels have larger exponents, so they come first.

    The norm is the sum of the coefficients plus the largest position
    digit.  Raises ValueError when alpha is not below descent_start(dim).
    """
    rects = []
    seen = [0] * dim  # largest finite extent a coordinate, every box so far
    reach: list = []  # the same over the boxes of lower levels, set per level
    level = 0
    block = None
    acc = total = top = 0
    for e, c in alpha.terms:
        digits = [0] * dim
        for f, d in e.terms:
            k = f.terms
            if not k:
                digits[0] = d
            elif len(k) == 1 and not k[0][0].terms and k[0][1] < dim:
                digits[k[0][1]] = d
            else:
                raise ValueError(f"{alpha} is not below {descent_start(dim)}")
        j = dim
        while (d := digits[j - 1]) >= (size := comb(dim, j)):
            if d > size or j == 1:
                raise ValueError(f"{alpha} is not below {descent_start(dim)}")
            j -= 1
        if j != level:
            level, reach = j, seen[:]
        s = _subset(dim, j, size - 1 - d)
        if s != block:
            block, acc = s, 0
        acc += c
        total += c
        box = [UNBOUNDED] * dim
        if j == 1:
            box[s[0]] = c
        else:
            for t, p in zip(s, digits[j - 2::-1]):  # p runs d_(j-2) .. d_0
                if p > top:
                    top = p
                box[t] = reach[t] + p + 2
            t = s[-1]
            box[t] = reach[t] + acc + 2
        for t in s:
            if box[t] > seen[t]:
                seen[t] = box[t]
        rects.append(tuple(box))
    return rects, total + top


def lower_set_of(alpha: Ordinal, dim: int) -> GeneralLowerSet:
    return GeneralLowerSet.make(dim, shape_from_ordinal(alpha, dim)[0])


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
    rects, norm = shape_from_ordinal(alpha, dim)
    lset = GeneralLowerSet.make(dim, rects)
    ideal = fold.ideal(rects)
    return BadSequenceRecord(
        index=index,
        alpha=alpha,
        lower_set=lset,
        norm=norm,
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
    start = alpha = descent_start(dim)
    fold = _IdealFold(dim)
    records = []
    for i in range(1, limit + 1):
        alpha = _step(alpha, base + i - 1)
        records.append(_derive(dim, base, i, alpha, fold))
        if alpha == ZERO:
            break
    return DescentRun(dim, base, start, tuple(records))


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

    Each pair is one big-int test on probe masks: D_i <= D_j iff
    mask_i & ~mask_j == 0 (``inclusion_masks``, which proves it).

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
    # descent_start(dim) is w^E with E of exactly dim >= 1 terms; checking
    # that first keeps a huge declared dim from being built at all
    if len(alpha.terms) != 1 or len(alpha.terms[0][0].terms) != run.dim or run.dim < 1:
        return [f"run starts at {alpha}, which no dimension-{run.dim} run does"]
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
