"""Correctness checks on what the timed wpo commands printed and wrote.

Every check returns a list of problems; an empty list means the output
is right.  The checks run outside the timed region.  The expected text
of each command is derived here independently of the code under test:
pair counts from closed forms, set counts from MacMahon's box formula,
Hardy residuals pinned from the naive stepper, and sampled inclusions
decided again on the grid by ``wpo.oracles.brute_includes``.
"""

from fractions import Fraction
from itertools import product

from wpo.oracles import brute_includes, grid_bound

# `wpo hardy w^(w+2) X --budget 60000`, as printed by the naive stepper.
HARDY_ALPHA = "w^(w+2)"
HARDY_BUDGET = 60_000
HARDY_RESIDUALS = {
    2: "residual: H_{w^(w+1)+w^w*2+w^3*4+w^2*4+w*1145+13789}(60002) "
       "after 60000 steps (budget exhausted)",
    3: "residual: H_{w^(w+1)*2+w^w*3+w^4*5+w^3*6+w^2*6+w*5627+30124}(60003) "
       "after 60000 steps (budget exhausted)",
    4: "residual: H_{w^(w+1)*3+w^w*4+w^5*6+w^4*7+w^3*8+w^2*8+w*26621+46495}(60004) "
       "after 60000 steps (budget exhausted)",
}

# Sampled pairs whose saturated grid has more points than this are skipped.
SPOT_GRID_POINTS = 60_000


def macmahon(box) -> int:
    """Number of lower sets of the a x b x c grid (plane partitions in a box)."""
    a, b, c = box
    count = Fraction(1)
    for i, j, k in product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        count *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(count)


def tamper(lines, i: int, j: int) -> list:
    """Record file lines with record j's lower-set column replaced by
    record i's, so that D_i is contained in D_j."""
    records = {}
    for k, line in enumerate(lines):
        if line and not line.startswith("#"):
            records[int(line.split("|", 1)[0])] = k
    out = list(lines)
    cols = out[records[j]].split("|")
    cols[2] = out[records[i]].split("|")[2]
    out[records[j]] = "|".join(cols)
    return out


def tampered_pairs(n: int, i: int, j: int) -> int:
    """Pairs a serial row-major scan checks up to and including (i, j)."""
    return sum(n - 1 - r for r in range(i - 1)) + (j - i)


def _expect(rc: int, out: str, want_rc: int, want_lines) -> list:
    problems = []
    if rc != want_rc:
        problems.append(f"exit status {rc}, expected {want_rc}")
    got = out.splitlines()
    if got != list(want_lines):
        problems.append(f"output {got!r}, expected {list(want_lines)!r}")
    return problems


def check_badseq(rc: int, out: str) -> list:
    return _expect(rc, out, 0, [])


def check_clean_verify(rc: int, out: str, n: int) -> list:
    return _expect(rc, out, 0, [
        f"records: {n}",
        "audit problems: 0",
        f"pairs checked: {n * (n - 1) // 2}",
        "violation: none",
    ])


def check_tampered_verify(rc: int, out: str, n: int, i: int, j: int) -> list:
    return _expect(rc, out, 1, [
        f"records: {n}",
        "audit problems: 1",
        f"  record {j}: lower set mismatch",
        f"pairs checked: {tampered_pairs(n, i, j)}",
        f"violation: record {i} is contained in record {j}",
    ])


def check_hardy(rc: int, out: str, x: int) -> list:
    return _expect(rc, out, 0, [HARDY_RESIDUALS[x]])


def check_monotone(rc: int, out: str, box) -> list:
    sets = macmahon(box)
    text = "x".join(map(str, box))
    return _expect(rc, out, 0, [
        f"monotone box={text}: {sets} sets, {sets * sets} pairs, 0 violations",
    ])


def check_round_trip(read, generated) -> list:
    """``read`` is read_run of the written file, ``generated`` the run
    that generate returns for the same arguments."""
    if read == generated:
        return []
    if len(read.records) != len(generated.records):
        return [f"file holds {len(read.records)} records, "
                f"generate gives {len(generated.records)}"]
    for a, b in zip(read.records, generated.records):
        if a != b:
            return [f"record {b.index} read back differs from generate"]
    return ["run headers read back differ from generate"]


def spot_pairs(sets, rng, count: int, pairs=None) -> list:
    """Up to ``count`` pairs (i, j), 1-based indices into ``sets``, drawn
    from ``pairs`` (all i < j by default) among those whose saturated
    grid is small."""
    n = len(sets)
    if pairs is None:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    cheap = [(i, j) for i, j in pairs
             if (grid_bound(sets[i - 1], sets[j - 1]) + 1) ** sets[0].dim
             <= SPOT_GRID_POINTS]
    return sorted(rng.sample(cheap, min(count, len(cheap))))


def check_spot(sets, pairs, included: bool) -> list:
    """Each pair (i, j) must have D_i <= D_j exactly when ``included``."""
    return [f"grid says D_{i} <= D_{j} is {not included}"
            for i, j in pairs
            if brute_includes(sets[i - 1], sets[j - 1]) != included]
