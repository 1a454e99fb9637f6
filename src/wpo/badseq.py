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
from dataclasses import dataclass
from functools import cache
from itertools import count, islice

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
    _rewrite,
    _trusted as _normal_form,
    common_prefix,
    format_ordinal,
    format_term,
    general_type,
    parse_ordinal,
    predecessor,
    step,
    type_block,
)
from .vectors import format_point, integer, shown


def descent_start(dim: int) -> Ordinal:
    """The ordinal the dimension-``dim`` run descends from."""
    return predecessor(general_type(dim))


def shape_from_ordinal(alpha: Ordinal, dim: int):
    """The staircase of ``alpha`` below descent_start(dim): its boxes
    in construction order, and its norm.

    Each term w^e*c gives one box, in the block of e that the one
    decoder of the layout, ``ordinal.type_block(e, dim)``, reads: a set
    S of j coordinates, j being the level, and j-1 position digits p.
    The box is unbounded off S.  At level 1 its one bounded coordinate
    is c.  At level j >= 2 the first j-1 coordinates t of S get
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
    """The staircase state before the first term: (seen, reach, block,
    acc, total, top), named as in ``_staircase``."""
    return [0] * dim, [], (), 0, 0, 0


def _norm(state: tuple) -> int:
    return state[4] + state[5]


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
    seen, reach, block, acc, total, top = state
    # seen: largest finite extent a coordinate, every box so far; reach:
    # the same over the boxes of lower levels, set when the level (the
    # size of the block) changes
    for e, c in terms:
        if not (found := type_block(e, dim)):
            raise ValueError(f"{alpha} is not below {descent_start(dim)}")
        s, positions = found
        if len(s) != len(block):
            reach = seen
        if s != block:
            block, acc = s, 0
        acc += c
        total += c
        box = [UNBOUNDED] * dim
        if not positions:
            box[s[0]] = c
        else:
            for t, p in zip(s, positions):
                if p > top:
                    top = p
                box[t] = reach[t] + p + 2
            t = s[-1]
            box[t] = reach[t] + acc + 2
        seen = seen[:]
        for t in s:
            if box[t] > seen[t]:
                seen[t] = box[t]
        yield tuple(box), (seen, reach, block, acc, total, top)


def lower_set_of(alpha: Ordinal, dim: int) -> GeneralLowerSet:
    return GeneralLowerSet(dim, tuple(sorted(shape_from_ordinal(alpha, dim)[0])))


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


class _IdealFold:
    """Derives the record of each ordinal of a run with ``base`` from
    the derivation of the ordinal before, which shares all but a short
    tail of its terms.  The fold keeps one frame per term: frame k is
    what the first k terms of the last ordinal leave, a tuple of the
    k-th term, its box, the staircase state, and the minimal points
    outside the first k boxes.  Frame 0 is the start state and the
    origin, with no term and no box.  ``boxes`` holds the boxes of the
    frames sorted, the canonical lower set.  A term that raises leaves
    the fold holding the frames before it.

    The lower set and the ideal are taken as built (``_staircase``,
    ``complement_points``): the tests hold the checks.  ``check_frames``
    compares every frame with a derivation from scratch,
    ``check_derivations`` passes every value through the checked
    constructors, and the reading tests compare ``audit_file``, which
    takes a record line equal to the regenerated record's line as that
    record, with ``read_run``'s full parse.
    """

    def __init__(self, dim: int, base: int):
        self.dim, self.base = dim, base
        self.frames: list = [(None, None, _stair_start(dim), [(0,) * dim])]
        self.boxes: list = []

    def record(self, index: int, alpha: Ordinal, kept: int) -> BadSequenceRecord:
        """The record of ``alpha`` at ``index``, where alpha starts with
        the first ``kept`` terms the fold holds: a step pops the frames
        past those and pushes one for each term of alpha's tail."""
        dim, frames, boxes = self.dim, self.frames, self.boxes
        for _, box, _, _ in frames[kept + 1:]:
            del boxes[bisect_left(boxes, box)]
        del frames[kept + 1:]
        tail = alpha[kept:]
        for term, (box, state) in zip(tail, _staircase(alpha, dim, frames[-1][2], tail)):
            frames.append((term, box, state, complement_points([box], dim, frames[-1][3])))
            insort(boxes, box)
        _, _, state, outside = frames[-1]
        ideal = _trusted(MonomialIdeal, dim, tuple(outside))
        return BadSequenceRecord(
            index=index,
            alpha=alpha,
            lower_set=_trusted(GeneralLowerSet, dim, tuple(boxes)),
            norm=_norm(state),
            extent=max(state[0], default=0),
            ideal=ideal,
            degree=ideal.degree(),
            bound=(self.base + index) ** 2,
        )


def _descent(dim: int, base: int):
    """The records of the dimension-``dim`` run with ``base``, lazily,
    up to and including the record of 0, each with the number of terms
    its ordinal keeps of the one before, as ``_rewrite`` says.  Step i
    uses argument base+i-1."""
    terms = list(descent_start(dim))
    fold = _IdealFold(dim, base)
    for i in count(1):
        kept = _rewrite(terms, base + i - 1)
        yield fold.record(i, _normal_form(terms), kept), kept
        if not terms:
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


def _steps(dim: int, base: int, limit: int) -> list:
    """The first ``limit`` steps of ``_descent(dim, base)``, once the
    base and the limit are checked."""
    if base < 1 or limit < 0:
        raise ValueError("base must be >= 1 and limit >= 0")
    _check_base(base)
    return list(islice(_descent(dim, base), limit))


def generate(dim: int, base: int, limit: int) -> DescentRun:
    """Descend ``limit`` steps from descent_start(dim), recording the
    staircase lower set, both size gauges, and the complement ideal of
    every ordinal reached."""
    records = tuple(r for r, _ in _steps(dim, base, limit))
    return DescentRun(dim, base, descent_start(dim), records)


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

    A pair is decided by the rank r of ``linearize.box_term`` where it
    can be.  r is monotone, as proved there, so r(D_i) > r(D_j) rules
    D_i <= D_j out; and where r falls strictly along the consecutive
    records i..e, a segment, every pair inside it is decided.  One
    comparison a step decides that (``linearize.rank_falls``): the
    terms of the boxes the step pops against those of the boxes it
    pushes.  Every other pair is one big-int test on box-dominance
    masks: D_i <= D_j iff mask_i & ~mask_j == 0 (``inclusion_masks``,
    which proves it), the reference and the fallback.

    Pairs are taken row by row and the scan stops at the first
    inclusion, so ``pairs_checked`` counts the pairs up to and
    including it.  Row i scans only the records past the end of its
    segment: the pairs it skips are proved bad, so the first inclusion
    and its count are those of the full scan.  A segment's end is
    worked out when a row first needs it, and the masks when a row
    first scans, so a file whose ranks fall all along builds no mask,
    and one with an inclusion takes no step past the segment of the row
    it is found in.  Indices in the report are 1-based record indices.
    """
    # imported here, so that `wpo badseq` does not load linearize
    from .linearize import box_term, rank_falls

    sets = [r.lower_set for r in run.records]
    term = cache(box_term)  # one call's boxes; none kept across calls
    n = len(sets)
    end = -1  # r falls strictly along the records from row i to end
    masks = missing = None
    pairs = 0
    for i in range(n):
        if end < i:
            end, here = i, set(sets[i].rects)
            while end + 1 < n and rank_falls(here, there := set(sets[end + 1].rects), term):
                end, here = end + 1, there
        if end + 1 < n:
            if masks is None:
                masks = inclusion_masks(sets)
                missing = [~m for m in masks]
            mi = masks[i]
            for j in range(end + 1, n):
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
    fold = _IdealFold(run.dim, run.base)
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
            alpha = step(alpha, run.base + rec.index - 1)
        tag = f"record {rec.index}"
        if rec.alpha != alpha:
            problems.append(f"{tag}: ordinal {rec.alpha} is not the descent value {alpha}")
        # keep auditing the stored trajectory; when the two are equal,
        # the next step then shares its terms with the next record's
        alpha = rec.alpha
        if regen and regen.alpha == rec.alpha:
            want = regen
        else:
            held = [term for term, *_ in fold.frames[1:]]
            want = fold.record(rec.index, rec.alpha, common_prefix(held, rec.alpha))
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
    """The record file of a run of any origin, read or tampered ones
    too: each ordinal is compared with the one before for the terms it
    keeps."""
    alphas = [r.alpha for r in run.records]
    kept = map(common_prefix, [ZERO] + alphas, alphas)
    return list(_file_lines(run.dim, run.base, run.start, list(zip(run.records, kept))))


def descent_lines(dim: int, base: int, limit: int):
    """The lines of ``run_lines(generate(dim, base, limit))``, one at a
    time, formatted from the kept counts that the descent yields.  The
    records are derived first; each line is made as it is read."""
    steps = _steps(dim, base, limit)
    return _file_lines(dim, base, descent_start(dim), steps)


def _file_lines(dim: int, base: int, start: Ordinal, steps: list):
    yield from [
        "# descent run",
        f"# dim: {dim}",
        f"# base: {base}",
        f"# start: {format_ordinal(start)}",
        f"# records: {len(steps)}",
        f"# length-bound: {symbolic_length_bound(dim, base)}",
        f"# columns: {_COLUMNS}",
    ]
    yield from (line for _, line in _record_lines(steps))


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
    write_lines(run_lines(run), path)


def write_lines(lines, path: str) -> None:
    """Write the record file of ``lines``, an iterable read one line at a
    time, atomically: into a temporary file beside ``path``, which then
    replaces it.  A failed write, or a failure while ``lines`` is read,
    leaves an older file at ``path`` whole and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _integer(text: str, least: int, says: str, form=repr) -> int:
    """``text`` as an int of at least ``least`` when ``vectors.integer``
    reads it, as it reads every integer ``run_lines`` writes; else a
    ValueError: ``says`` and the text, as ``shown`` gives it with ``form``."""
    with suppress(ValueError):
        if (n := integer(text)) >= least:
            return n
    raise ValueError(f"{says} {shown(text, form)}, which is not an integer >= {least}")


def _declared(block: list, derive: bool) -> tuple:
    """The run the header block ``block``, its (key, value) pairs,
    declares, with no records, its ``records`` count, and the lines of
    the run regenerated with its base.  With ``derive`` unset, or a
    start other than descent_start(dim), nothing is regenerated; a dim
    above MAX_GENERAL_DIM fails in ``general_type`` before it sizes
    anything.  A repeated key is refused, and so are a length-bound
    or a columns header other than the writer's, when there is one."""
    headers = {}
    for key, val in block:
        if key in headers:
            raise ValueError(f"repeated header {shown(key)}")
        headers[key] = val
    for key in ("dim", "base", "start", "records"):
        if key not in headers:
            raise ValueError(f"missing header {key!r}")
    dim, base, n = (_integer(headers[key], least, f"header says {key}", str)
                        for key, least in (("dim", 1), ("base", 1), ("records", 0)))
    _check_base(base)
    start = parse_ordinal(headers["start"])
    bound = symbolic_length_bound(dim, base) if "length-bound" in headers else None
    for key, want in (("length-bound", bound), ("columns", _COLUMNS)):
        if headers.get(key, want) != want:
            raise ValueError(f"header says {key} {shown(headers[key], str)}, which is not {want}")
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
    block, records, regenerated = [], [], []
    run = None  # set at the first record line

    def number(cols, k):
        return _integer(cols[k], 0, f"{_COLUMNS.split('|')[k]} says")

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if run is None:
                if line.startswith("#"):
                    key, colon, val = line[1:].partition(":")
                    if colon:
                        block.append((key.strip(), val.strip()))
                    continue
                run, n, expected = _declared(block, derive)
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
        run, n, _ = _declared(block, derive)
    if n != len(records):
        raise ValueError(f"header says {n} records but the file holds {len(records)}")
    return DescentRun(run.dim, run.base, run.start, tuple(records)), regenerated
