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
from bisect import bisect_left, insort
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cache
from itertools import count, islice
from math import comb

from .lowerset import (
    GeneralLowerSet,
    UNBOUNDED,
    _trusted,
    complement_points,
    format_box,
    format_gls,
    inclusion_masks,
    parse_gls,
)
from .monomial import MonomialIdeal, format_ideal, parse_ideal
from .ordinal import (
    Ordinal,
    ZERO,
    _trusted as _normal_form,
    common_prefix,
    format_ordinal,
    format_term,
    fundamental,
    general_type,
    is_limit,
    parse_ordinal,
    predecessor,
)
from .vectors import format_point, integer


def descent_start(dim: int) -> Ordinal:
    """The ordinal the dimension-``dim`` run descends from."""
    return predecessor(general_type(dim))


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
    rects, state = [], _stair_start(dim)
    for box, state in _staircase(alpha, dim, state, alpha):
        rects.append(box)
    return rects, _norm(state)


def _stair_start(dim: int) -> tuple:
    """The staircase state before the first term: (seen, reach, level,
    block, acc, total, top), named as in ``_staircase``."""
    return [0] * dim, [], 0, None, 0, 0, 0


def _norm(state: tuple) -> int:
    return state[5] + state[6]


def _staircase(alpha: Ordinal, dim: int, state: tuple, terms):
    """Yield the box of each of ``terms`` of ``alpha`` with the state
    after it, starting from ``state``, the state after the terms before
    them.  A yielded state is never changed afterwards, so the next
    ordinal can resume from it.

    The boxes of one ordinal are a nonempty antichain, so sorted they
    are their union's canonical form.  Levels never go down along the
    terms (bigger exponents have lower levels), subsets go up in lex
    order within a level, and positions go down in lex order within a
    block.  So a new box B on S and an earlier B' on S' are incomparable.
    At a lower level |S'| < |S|, so B' is w where B is finite, and B is w
    where B' is finite unless S' lies in S, where B >= reach + 2 > B'.
    At the same level each is w where the other is finite.  In the same
    block B's last extent is bigger (acc grows), and B' is bigger at the
    first position digit where the two differ.  Every extent is a
    coefficient c >= 1 at level 1, at least 2 above it, or w."""
    seen, reach, level, block, acc, total, top = state
    # seen: largest finite extent a coordinate, every box so far; reach:
    # the same over the boxes of lower levels, set per level
    for e, c in terms:
        digits = [0] * dim
        for f, d in e:
            if not f:
                digits[0] = d
            elif len(f) == 1 and not f[0][0] and f[0][1] < dim:
                digits[f[0][1]] = d
            else:
                raise ValueError(f"{alpha} is not below {descent_start(dim)}")
        j = dim
        while (d := digits[j - 1]) >= (size := comb(dim, j)):
            if d > size or j == 1:
                raise ValueError(f"{alpha} is not below {descent_start(dim)}")
            j -= 1
        if j != level:
            level, reach = j, seen
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
        seen = seen[:]
        for t in s:
            if box[t] > seen[t]:
                seen[t] = box[t]
        yield tuple(box), (seen, reach, level, block, acc, total, top)


def lower_set_of(alpha: Ordinal, dim: int) -> GeneralLowerSet:
    return GeneralLowerSet(dim, tuple(sorted(shape_from_ordinal(alpha, dim)[0])))


class _IdealFold:
    """Derives the lower set and complement ideal of each ordinal of a
    run from those of the ordinal before, which shares all but a short
    tail of its terms.  After the first k terms of the last ordinal the
    fold keeps ``after[k]``: the staircase state and the minimal points
    outside the first k boxes (the origin alone for k = 0).  A term that
    raises leaves the fold holding the terms before it.

    Both values are taken as built (``_staircase``, ``complement_points``):
    the tests hold the checks.  ``check_derivations`` passes every value
    through the checked constructors, and the reading tests compare
    ``audit_file``, which takes a record line equal to the regenerated
    record's line as that record, with ``read_run``'s full parse.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.terms: list = []
        self.rects: list = []
        self.after: list = [(_stair_start(dim), [(0,) * dim])]
        self.boxes: list = []  # sorted self.rects

    def derive(self, alpha: Ordinal, kept: int):
        """The lower set, norm, extent and complement ideal of alpha's
        staircase, where alpha starts with the first ``kept`` terms the
        fold holds."""
        dim = self.dim
        for r in self.rects[kept:]:
            del self.boxes[bisect_left(self.boxes, r)]
        del self.terms[kept:], self.rects[kept:], self.after[kept + 1:]
        tail = alpha[kept:]
        for term, (box, state) in zip(tail, _staircase(alpha, dim, self.after[-1][0], tail)):
            self.after.append((state, complement_points([box], dim, self.after[-1][1])))
            insort(self.boxes, box)
            self.terms.append(term)
            self.rects.append(box)
        state, outside = self.after[-1]
        lset = _trusted(GeneralLowerSet, dim=dim, rects=tuple(self.boxes))
        ideal = _trusted(MonomialIdeal, dim=dim, gens=tuple(outside))
        return lset, _norm(state), max(state[0], default=0), ideal


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


def _derive(base: int, index: int, alpha: Ordinal, derived: tuple) -> BadSequenceRecord:
    """The record a run stores for ``alpha`` at ``index``, from the
    fold's derivation of alpha."""
    lset, norm, extent, ideal = derived
    return BadSequenceRecord(
        index=index,
        alpha=alpha,
        lower_set=lset,
        norm=norm,
        extent=extent,
        ideal=ideal,
        degree=ideal.degree(),
        bound=(base + index) ** 2,
    )


def _descent(dim: int, base: int):
    """The records of the dimension-``dim`` run with ``base``, lazily,
    up to and including the record of 0, each with the number of terms
    its ordinal keeps of the one before: all but the last, since
    ``fundamental`` and ``predecessor`` rewrite only the last term.
    Step i uses argument base+i-1."""
    alpha = descent_start(dim)
    fold = _IdealFold(dim)
    for i in count(1):
        kept = len(alpha) - 1
        tail = _step(_normal_form(alpha[kept:]), base + i - 1)
        alpha = _normal_form(alpha[:kept] + tail)
        yield _derive(base, i, alpha, fold.derive(alpha, kept)), kept
        if alpha == ZERO:
            return


# Most digits a run's base may have.  Its bounds (base+index)^2 then
# have at most 4001, within the 4300 digits that str() writes.
MAX_BASE_DIGITS = 2000


def _check_base(base: int) -> None:
    """Refuse a base of more than MAX_BASE_DIGITS digits, by its digit
    count.  A base read from text has at most the 4300 digits int()
    reads, so str() gives that count."""
    if base >= 10 ** MAX_BASE_DIGITS:
        raise ValueError(f"base has {len(str(base))} digits, more than the "
                         f"{MAX_BASE_DIGITS} a run takes")


def generate(dim: int, base: int, limit: int) -> DescentRun:
    """Descend ``limit`` steps from descent_start(dim), recording the
    staircase lower set, both size gauges, and the complement ideal of
    every ordinal reached."""
    if base < 1 or limit < 0:
        raise ValueError("base must be >= 1 and limit >= 0")
    _check_base(base)
    records = islice(_descent(dim, base), limit)
    return DescentRun(dim, base, descent_start(dim), tuple(r for r, _ in records))


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

    Each pair is one big-int test on box-dominance masks: D_i <= D_j
    iff mask_i & ~mask_j == 0 (``inclusion_masks``, which proves it).

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


def _starts_a_run(start: Ordinal, dim: int) -> bool:
    """Whether ``start`` has the form of descent_start(dim): w^E with E
    of exactly dim >= 1 terms.  Checking that first keeps a huge
    declared dim from being built at all."""
    return len(start) == 1 and len(start[0][0]) == dim >= 1


def audit_run(run: DescentRun) -> list:
    """Recompute everything derivable and collect discrepancies.

    Covers: the ordinal really is reached by the stated descent, every
    stored column matches recomputation, norms respect the quadratic
    envelope, degrees stay under the same envelope, and extents stay
    at or under the norm.
    """
    return _audit(run, [None] * len(run.records))


def _audit(run: DescentRun, regenerated: list) -> list:
    """``audit_run``, taking ``regenerated[k]``, when it is not None, as
    record k of the run regenerated with ``run.base``: its ordinal is the
    step from the regenerated ordinal before it, and it is the record
    stored for its ordinal."""
    problems = []
    alpha = run.start
    if not _starts_a_run(alpha, run.dim):
        return [f"run starts at {alpha}, which no dimension-{run.dim} run does"]
    start = descent_start(run.dim)
    if alpha != start:
        problems.append(f"run starts at {alpha}, expected {start}")
    fold = _IdealFold(run.dim)
    for k, rec in enumerate(run.records):
        if rec.index != k + 1:
            problems.append(f"record {k + 1}: index says {rec.index}")
            continue
        if alpha == ZERO:
            problems.append(f"record {rec.index}: descent already ended at 0")
            break
        regen = regenerated[k]
        if regen and alpha == (regenerated[k - 1].alpha if k else start):
            alpha = regen.alpha
        else:
            alpha = _step(alpha, run.base + rec.index - 1)
        tag = f"record {rec.index}"
        if rec.alpha != alpha:
            problems.append(f"{tag}: ordinal {rec.alpha} is not the descent value {alpha}")
        # keep auditing the stored trajectory; when the two are equal,
        # the next step then shares its terms with the next record's
        alpha = rec.alpha
        want = (regen if regen and regen.alpha == rec.alpha
                else _derive(run.base, rec.index, rec.alpha,
                             fold.derive(rec.alpha, common_prefix(fold.terms, rec.alpha))))
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
    alphas = [r.alpha for r in run.records]
    kept = map(common_prefix, [ZERO] + alphas, alphas)
    return [
        "# descent run",
        f"# dim: {run.dim}",
        f"# base: {run.base}",
        f"# start: {format_ordinal(run.start)}",
        f"# records: {len(run.records)}",
        f"# length-bound: {symbolic_length_bound(run.dim, run.base)}",
        f"# columns: {_COLUMNS}",
    ] + [line for _, line in _record_lines(zip(run.records, kept))]


def _record_lines(steps):
    """Each record of ``steps`` with its line in a record file.  A step
    is a record and how many leading terms its ordinal keeps of the
    ordinal of the record before (of 0 for the first)."""
    # consecutive records share most terms, boxes and generators, so
    # each is formatted once a run
    box, point, terms = cache(format_box), cache(format_point), []
    for r, kept in steps:
        del terms[kept:]
        terms += [format_term(e, c) for e, c in r.alpha[kept:]]
        yield r, "|".join(
            [
                str(r.index),
                "+".join(terms) or "0",
                format_gls(r.lower_set, box),
                str(r.norm),
                str(r.extent),
                format_ideal(r.ideal, point),
                str(r.degree),
                str(r.bound),
            ]
        )


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


def _integer(text: str, least: int, says: str) -> int:
    """``text`` as an int of at least ``least`` when ``vectors.integer``
    reads it, as it reads every integer ``run_lines`` writes; else a
    ValueError that starts with ``says``."""
    with suppress(ValueError):
        if (n := integer(text)) >= least:
            return n
    raise ValueError(f"{says}, which is not an integer >= {least}")


def _declared(headers: dict, derive: bool) -> tuple:
    """The run the header block ``headers`` declares, with no records,
    its ``records`` count, and the lines of the run regenerated with its
    base.  With ``derive`` unset, or a start other than
    descent_start(dim), nothing is regenerated; a dim above
    MAX_GENERAL_DIM fails in ``general_type`` before it sizes anything."""
    for key in ("dim", "base", "start", "records"):
        if key not in headers:
            raise ValueError(f"missing header {key!r}")
    dim, base, n = (_integer(headers[key], least, f"header says {key} {headers[key]}")
                        for key, least in (("dim", 1), ("base", 1), ("records", 0)))
    _check_base(base)
    start = parse_ordinal(headers["start"])
    expected = iter(())
    with suppress(ValueError):
        if derive and _starts_a_run(start, dim) and start == descent_start(dim):
            expected = _record_lines(_descent(dim, base))
    return DescentRun(dim, base, start), n, expected


def read_run(path: str) -> DescentRun:
    """The run a record file holds, every column parsed in full."""
    return _read(path, derive=False)[0]


def audit_file(path: str) -> tuple:
    """``read_run(path)`` and its ``audit_run``, from one pass that
    regenerates the run as ``badseq`` writes it and parses only the
    record lines that differ from the regenerated ones: the same run
    and problems, or the same ValueError."""
    run, regenerated = _read(path, derive=True)
    return run, _audit(run, regenerated)


def _read(path: str, derive: bool) -> tuple:
    """The run a record file holds, and per record the record of the
    run regenerated with the file's base, or None.

    The ``#`` lines before the first record line are the header block,
    read once, at the first record line or at the end of a file with
    none (``_declared``).  Every nonblank line after it is a record
    line, so a header there is a bad record line.  With ``derive`` set,
    the k-th record line is matched with the k-th regenerated record,
    one record pulled per line: a line equal to that record's line is
    that record, and any other is parsed in full, as by ``read_run``.
    """
    headers, records, regenerated = {}, [], []
    run = None  # set at the first record line

    def number(cols, k):
        return _integer(cols[k], 0, f"{_COLUMNS.split('|')[k]} says {cols[k]!r}")

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if run is None:
                if line.startswith("#"):
                    key, colon, val = line[1:].partition(":")
                    if colon:
                        headers[key.strip()] = val.strip()
                    continue
                run, n, expected = _declared(headers, derive)
            cols = line.split("|")
            if len(cols) != 8:
                raise ValueError(f"line {lineno}: bad record line: {line!r}")
            want, text = next(expected, (None, None))
            if line == text:
                rec = want
            else:
                try:
                    rec = BadSequenceRecord(
                        number(cols, 0), parse_ordinal(cols[1]), parse_gls(cols[2], run.dim),
                        number(cols, 3), number(cols, 4), parse_ideal(cols[5], run.dim),
                        number(cols, 6), number(cols, 7))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
            records.append(rec)
            regenerated.append(want)
    if run is None:
        run, n, _ = _declared(headers, derive)
    if n != len(records):
        raise ValueError(f"header says {headers['records']} records but the file holds {len(records)}")
    return replace(run, records=tuple(records)), regenerated
