"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wpo import badseq, cli  # noqa: E402
from wpo.lowerset import enumerate_fls  # noqa: E402


def wpo(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def d2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("runs") / "d2.txt"
    assert wpo("badseq", "-m", 2, "-K", 3, "-n", 40, "-o", path) == (0, "")
    return path


# -- the tamper helper --------------------------------------------------------

def test_tampered_pair_count_is_pinned():
    assert checks.tampered_pairs(1000, 250, 750) == 218_375
    assert checks.tampered_pairs(250, 62, 187) == 13_484


def test_tamper_yields_the_pinned_pair_and_count(d2_file, tmp_path):
    lines = d2_file.read_text().splitlines()
    tampered = checks.tamper(lines, 10, 30)
    changed = [k for k, (a, b) in enumerate(zip(lines, tampered)) if a != b]
    assert len(changed) == 1 and tampered[changed[0]].startswith("30|")
    path = tmp_path / "tampered.txt"
    path.write_text("\n".join(tampered) + "\n")
    rc, out = wpo("verify", path)
    assert checks.check_tampered_verify(rc, out, 40, 10, 30) == []
    assert f"pairs checked: {checks.tampered_pairs(40, 10, 30)}" in out.splitlines()


# -- MacMahon's formula -------------------------------------------------------

@pytest.mark.parametrize("box", [(1, 1, 1), (1, 2, 3), (3, 2, 1), (2, 2, 2),
                                 (2, 3, 2), (1, 1, 4), (2, 2, 3)])
def test_macmahon_matches_enumeration(box):
    assert checks.macmahon(box) == sum(1 for _ in enumerate_fls(box))


def test_macmahon_pinned_boxes():
    assert checks.macmahon((3, 3, 3)) == 980
    assert checks.macmahon((3, 3, 4)) == 4116
    assert checks.macmahon((2, 3, 4)) == checks.macmahon((4, 2, 3)) == 490


# -- every check rejects a wrong output ---------------------------------------

def _with_line(out, k, text):
    lines = out.splitlines()
    lines[k] = text
    return "\n".join(lines) + "\n"


def test_clean_verify_check(d2_file):
    rc, out = wpo("verify", d2_file)
    assert checks.check_clean_verify(rc, out, 40) == []
    assert checks.check_clean_verify(1, out, 40)
    assert checks.check_clean_verify(rc, out, 41)
    assert checks.check_clean_verify(rc, _with_line(out, 1, "audit problems: 1"), 40)
    assert checks.check_clean_verify(rc, _with_line(out, 2, "pairs checked: 779"), 40)
    assert checks.check_clean_verify(
        rc, _with_line(out, 3, "violation: record 1 is contained in record 2"), 40)


def test_tampered_verify_check(d2_file, tmp_path):
    path = tmp_path / "tampered.txt"
    path.write_text("\n".join(checks.tamper(d2_file.read_text().splitlines(), 10, 30)) + "\n")
    rc, out = wpo("verify", path)
    assert checks.check_tampered_verify(rc, out, 40, 10, 30) == []
    assert checks.check_tampered_verify(0, out, 40, 10, 30)
    assert checks.check_tampered_verify(rc, out, 40, 11, 30)
    assert checks.check_tampered_verify(rc, out, 40, 10, 31)
    assert checks.check_tampered_verify(rc, _with_line(out, 3, "pairs checked: 780"), 40, 10, 30)


def test_hardy_check():
    for x, line in checks.HARDY_RESIDUALS.items():
        assert checks.check_hardy(0, line + "\n", x) == []
        assert checks.check_hardy(2, line + "\n", x)
        assert checks.check_hardy(0, line.replace("after 60000", "after 59999") + "\n", x)
    assert checks.check_hardy(0, checks.HARDY_RESIDUALS[3] + "\n", 4)


@pytest.mark.parametrize("x", sorted(checks.HARDY_RESIDUALS))
def test_hardy_pins_match_the_program(x):
    rc, out = wpo("hardy", checks.HARDY_ALPHA, x, "--budget", checks.HARDY_BUDGET)
    assert checks.check_hardy(rc, out, x) == []


def test_monotone_check():
    rc, out = wpo("oracle", "monotone", "--box", "2x1x3")
    assert checks.check_monotone(rc, out, (2, 1, 3)) == []
    assert checks.check_monotone(rc, out, (2, 2, 3))
    assert checks.check_monotone(1, out, (2, 1, 3))
    assert checks.check_monotone(rc, out.replace("0 violations", "1 violations"), (2, 1, 3))


def test_badseq_check():
    assert checks.check_badseq(0, "") == []
    assert checks.check_badseq(2, "")
    assert checks.check_badseq(0, "# descent run\n")


def test_round_trip_check(d2_file):
    run = badseq.generate(2, 3, 40)
    assert checks.check_round_trip(badseq.read_run(d2_file), run) == []
    bumped = dataclasses.replace(run.records[5], norm=run.records[5].norm + 1)
    wrong = dataclasses.replace(run, records=run.records[:5] + (bumped,) + run.records[6:])
    assert checks.check_round_trip(wrong, run) == ["record 6 read back differs from generate"]
    assert checks.check_round_trip(dataclasses.replace(run, records=run.records[:-1]), run)
    assert checks.check_round_trip(dataclasses.replace(run, base=4), run)


def test_spot_check():
    sets = [r.lower_set for r in badseq.generate(3, 3, 12).records]
    pairs = checks.spot_pairs(sets, random.Random(0), 5)
    assert len(pairs) == 5 and all(i < j for i, j in pairs)
    assert checks.check_spot(sets, pairs, included=False) == []
    assert len(checks.check_spot(sets, pairs, included=True)) == 5
    tampered = sets[:7] + [sets[2]] + sets[8:]
    assert checks.check_spot(tampered, [(3, 8)], included=True) == []
    assert checks.check_spot(tampered, [(3, 8)], included=False)


# -- the traced process -------------------------------------------------------

def _traced(argv) -> dict:
    spec = {"src": str(SRC), "mode": "commands", "argvs": [[str(a) for a in argv]],
            "seconds": 0, "min_reps": 1, "trace": True}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_boundary_is_wrapped_and_reached(tmp_path):
    d2, d3 = tmp_path / "d2.txt", tmp_path / "d3.txt"
    commands = [
        ["badseq", "-m", 2, "-n", 20, "-o", d2],
        ["badseq", "-m", 3, "-n", 15, "-o", d3],
        ["verify", d3],
        ["hardy", "w^(w+2)", 2, "--budget", 50],
        ["oracle", "monotone", "--box", "2x2x2"],
    ]
    calls = {}
    for argv in commands:
        result = _traced(argv)
        assert result["missing"] == []
        assert all(rep["rc"] == 0 for rep in result["reps"])
        for name, count in result["boundary_calls"].items():
            calls[name] = calls.get(name, 0) + count
    boundaries = [b for layer in tracing.load_layers() for b in layer["boundaries"]]
    assert sorted(calls) == sorted(boundaries)
    assert [b for b in boundaries if calls[b] == 0] == []


def _declared(kind):
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_tracer_reports_every_per_layer_metric():
    assert set(tracing.Tracer().summary()) | {"trace.overhead_s"} == _declared("per_layer")


def test_every_declared_workload_is_defined():
    assert set(workloads.WORKLOADS) == _declared("workloads")
