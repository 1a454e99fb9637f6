"""The benchmark's workloads: what each one runs and how it is checked.

A workload times one kind of ``wpo`` command over a narrow range of
inputs: the descent base K, the Hardy argument X, or the axis order of
the monotone box.  Single values in these ranges differ in cost by
10-15%, so a run cycles through every value of its range, in an order
the seed shuffles, and reports the mean of the medians at each value
(run.per_input), which stays comparable between seeds.  The seed also
picks the pairs that are decided again on the grid.

``prepare(rng, work)`` writes any input file under ``work`` with the
program itself and returns the ``Job``.  Everything here runs outside
the timed region.
"""

import contextlib
import os
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import checks as check
from wpo import badseq, cli

# Sizes: one command takes about 0.03-0.5 s on a 2-vCPU VM, so a 12 s
# run holds several commands of every input for a steady median.
D2_N = 250
D3_N = 100
BASES = (3, 4, 5)
# 490 lower sets and 240,100 pairs in every axis order.
MONOTONE_BOX = (2, 3, 4)
SPOT_PAIRS = 4


@dataclass
class Job:
    argvs: list  # the commands a run cycles through
    inputs: str  # what the seed picked
    check: Callable  # (k, rc, stdout) -> problems of one run of argvs[k]
    check_outputs: Callable = list  # () -> problems of the files written or read


def _cli(argv) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"preparing input: wpo {' '.join(argv)} exited {rc}")


def _shuffled(rng, values) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def _badseq_argv(dim, base, n, path) -> list:
    return ["badseq", "-m", str(dim), "-K", str(base), "-n", str(n), "-o", str(path)]


def _sets(dim, base, n) -> list:
    return [r.lower_set for r in badseq.generate(dim, base, n).records]


def badseq_job(dim, n):
    def prepare(rng, work):
        bases = _shuffled(rng, BASES)
        paths = [work / f"run-K{base}.txt" for base in bases]

        def check_outputs():
            return [p for base, path in zip(bases, paths)
                    for p in check.check_round_trip(badseq.read_run(path),
                                                    badseq.generate(dim, base, n))]

        return Job(
            [_badseq_argv(dim, base, n, path) for base, path in zip(bases, paths)],
            f"dim={dim} n={n} K={bases}",
            lambda k, rc, out: check.check_badseq(rc, out),
            check_outputs,
        )
    return prepare


def verify_job(dim, n):
    def prepare(rng, work):
        bases = _shuffled(rng, BASES)
        argvs, spots = [], []
        for base in bases:
            path = work / f"run-K{base}.txt"
            _cli(_badseq_argv(dim, base, n, path))
            argvs.append(["verify", str(path)])
            sets = _sets(dim, base, n)
            spots.append((sets, check.spot_pairs(sets, rng, SPOT_PAIRS)))
        return Job(
            argvs,
            f"dim={dim} n={n} K={bases}",
            lambda k, rc, out: check.check_clean_verify(rc, out, n),
            lambda: [p for sets, pairs in spots
                     for p in check.check_spot(sets, pairs, included=False)],
        )
    return prepare


def violation_job(dim, n):
    i, j = n // 4, 3 * n // 4
    # Pairs a row-major scan meets before (i, j); the spot checks draw from them.
    before = [(r, s) for r in range(1, i) for s in range(r + 1, n + 1)]
    before += [(i, s) for s in range(i + 1, j)]

    def prepare(rng, work):
        bases = _shuffled(rng, BASES)
        argvs, spots = [], []
        for base in bases:
            clean, path = work / f"run-K{base}.txt", work / f"tampered-K{base}.txt"
            _cli(_badseq_argv(dim, base, n, clean))
            lines = check.tamper(clean.read_text().splitlines(), i, j)
            path.write_text("\n".join(lines) + "\n")
            argvs.append(["verify", str(path)])
            sets = _sets(dim, base, n)
            sets[j - 1] = sets[i - 1]
            spots.append((sets, check.spot_pairs(sets, rng, SPOT_PAIRS, before)))
        return Job(
            argvs,
            f"dim={dim} n={n} K={bases}, record {j} given record {i}'s set",
            lambda k, rc, out: check.check_tampered_verify(rc, out, n, i, j),
            lambda: [p for sets, pairs in spots
                     for p in (check.check_spot(sets, [(i, j)], included=True)
                               + check.check_spot(sets, pairs, included=False))],
        )
    return prepare


def hardy_job(rng, work):
    xs = _shuffled(rng, check.HARDY_RESIDUALS)
    return Job(
        [["hardy", check.HARDY_ALPHA, str(x), "--budget", str(check.HARDY_BUDGET)]
         for x in xs],
        f"alpha={check.HARDY_ALPHA} budget={check.HARDY_BUDGET} X={xs}",
        lambda k, rc, out: check.check_hardy(rc, out, xs[k]),
    )


def monotone_job(rng, work):
    boxes = _shuffled(rng, permutations(MONOTONE_BOX))
    return Job(
        [["oracle", "monotone", "--box", "x".join(map(str, box))] for box in boxes],
        f"boxes={['x'.join(map(str, box)) for box in boxes]}",
        lambda k, rc, out: check.check_monotone(rc, out, boxes[k]),
    )


# name -> (the command's own name for command_s on this workload, prepare)
WORKLOADS = {
    "descent-d2.badseq": ("badseq_s", badseq_job(2, D2_N)),
    "descent-d2.verify": ("verify_s", verify_job(2, D2_N)),
    "descent-d2.violation": ("verify_violation_s", violation_job(2, D2_N)),
    "descent-d3.badseq": ("badseq_s", badseq_job(3, D3_N)),
    "descent-d3.verify": ("verify_s", verify_job(3, D3_N)),
    "hardy": ("hardy_s", hardy_job),
    "monotone": ("monotone_s", monotone_job),
}
