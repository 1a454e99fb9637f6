import argparse
import contextlib
import io
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from support import rand_ordinal

from wpo import badseq, linearize, oracles
from wpo.badseq import DescentRun, generate, write_run
from wpo.cli import COMMANDS, build_parser, main
from wpo.lowerset import GeneralLowerSet, closure, complement_points
from wpo.monomial import MonomialIdeal
from wpo.ordinal import MAX_GENERAL_DIM, MAX_NESTING, format_ordinal

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTypeCommand:
    @pytest.mark.parametrize(
        "descriptor,expected",
        [
            ("D(N)", "w"),
            ("D(N^2)", "w^w"),
            ("D(N^3)", "w^(w^2)"),
            ("D(N^2 x 3)", "w^(w*3)"),
            ("D(N^3 x 2)", "w^(w^2*2)"),
            ("I(N)", "w+1"),
            ("I(N^2)", "w^(w+2)+1"),
            ("I(N^3)", "w^(w^2+w*3+3)+1"),
        ],
    )
    def test_pinned(self, capsys, descriptor, expected):
        code, out, _ = run_cli(capsys, "type", descriptor)
        assert code == 0
        assert out.strip() == expected

    def test_whitespace_tolerated(self, capsys):
        code, out, _ = run_cli(capsys, "type", "  D( N^2 x 3 ) ")
        assert code == 0 and out.strip() == "w^(w*3)"

    def test_unreadable_descriptor(self, capsys):
        code, out, err = run_cli(capsys, "type", "D(Z^2)")
        assert code == 2
        assert "cannot read space descriptor" in err

    # numbers are read as everywhere else (vectors.NATURAL): "\u0663" is
    # ARABIC-INDIC DIGIT THREE and "\u00b2" SUPERSCRIPT TWO
    @pytest.mark.parametrize("descriptor", [
        "D(N^\u0663)", "I(N^02)", "D(N^2x\u0663)", "D(N^\u00b2)", "I(N^+1)", "D(N^2x03)",
    ])
    def test_descriptor_numbers_are_ascii_naturals(self, capsys, descriptor):
        code, out, err = run_cli(capsys, "type", descriptor)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read space descriptor {descriptor!r}")

    def test_dimension_bound(self, capsys):
        code, out, _ = run_cli(capsys, "type", f"I(N^{MAX_GENERAL_DIM})")
        assert code == 0 and out.startswith(f"w^(w^{MAX_GENERAL_DIM - 1}+")
        for m in (MAX_GENERAL_DIM + 1, 3000000):
            began = time.perf_counter()
            code, out, err = run_cli(capsys, "type", f"I(N^{m})")
            assert time.perf_counter() - began < 1
            assert code == 2 and out == ""
            assert err == f"error: need 1 <= m <= {MAX_GENERAL_DIM}\n"


class TestOrdCommand:
    def test_two_point_antichain(self, capsys):
        code, out, _ = run_cli(capsys, "ord", "{(0,1);(1,0)}")
        assert code == 0 and out.strip() == "2"

    def test_single_generator(self, capsys):
        code, out, _ = run_cli(capsys, "ord", "{(2,3)}")
        assert code == 0 and out.strip() == "w^2*3+1"

    def test_empty_set_needs_dim(self, capsys):
        code, out, _ = run_cli(capsys, "ord", "{}", "--dim", "2")
        assert code == 0 and out.strip() == "0"
        code, _, err = run_cli(capsys, "ord", "{}")
        assert code == 2 and "error:" in err

    def test_generator_lengths_must_agree(self, capsys):
        code, out, err = run_cli(capsys, "ord", "{(1,2);(3)}")
        assert code == 2 and out == ""
        assert err == "error: bad generator (3,) for dimension 2\n"


@pytest.mark.parametrize("argv,message", [
    (["ord", "{()}"], "bad generator '()'"),
    (["ord", "{(1,,2)}"], "bad generator '(1,,2)'"),
    (["ord", "{(1,2,)}"], "bad generator '(1,2,)'"),
    (["ideal", "--gens", "()"], "bad exponent vector '()'"),
    (["ideal", "[]"], "bad box '[]'"),
    (["ideal", "[1,,2]"], "bad box '[1,,2]'"),
    (["ideal", "[w5]"], "bad box '[w5]'"),
    # a box of the wrong length is named in its own text
    (["ideal", "[w]", "--dim", "2"], "bad box [w] for dimension 2"),
    (["ideal", "[2]u[3,w]"], "bad box [3,w] for dimension 1"),
])
def test_empty_coordinates_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["hardy", "w*03", "2"], "leading zero (at position 2)"),
    (["ideal", "[01,2]"], "bad box '[01,2]'"),
    (["ideal", "--gens", "(2,00)"], "bad exponent vector '(2,00)'"),
    (["ord", "{(0,01)}"], "bad generator '(0,01)'"),
])
def test_leading_zeros_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["ideal", "empty"],
    ["ideal", "--gens", "0"],
    ["ord", "{}"],
])
@pytest.mark.parametrize("dim", ["1000000000", str(MAX_GENERAL_DIM + 1), "-1"])
def test_dim_out_of_range_fails_fast(capsys, argv, dim):
    # refused before anything of that size is built
    began = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--dim", dim)
    assert time.perf_counter() - began < 1
    assert code == 2 and out == ""
    assert err == f"error: need 0 <= dim <= {MAX_GENERAL_DIM}\n"


# each integer option, with an argv in which VALUE stands for its text
INTEGER_OPTIONS = [
    ("--dim", ["ord", "{(0,1)}", "--dim", "VALUE"]),
    ("--dim", ["ideal", "empty", "--dim", "VALUE"]),
    ("x", ["hardy", "w", "VALUE"]),
    ("--budget", ["hardy", "w", "2", "--budget", "VALUE"]),
    ("--base", ["descend", "w^2", "--base", "VALUE"]),
    ("--limit", ["descend", "w^2", "--limit", "VALUE"]),
    ("-m", ["badseq", "-m", "VALUE", "-n", "3"]),
    ("-K", ["badseq", "-m", "2", "-K", "VALUE", "-n", "3"]),
    ("-n", ["badseq", "-m", "2", "-n", "VALUE"]),
    ("--m", ["oracle", "inclusion", "--m", "VALUE"]),
    ("--pairs", ["oracle", "inclusion", "--pairs", "VALUE"]),
    ("--samples", ["oracle", "spec", "--samples", "VALUE"]),
    ("--seed", ["oracle", "inclusion", "--seed", "VALUE"]),
    ("--max-extent", ["oracle", "phi", "--max-extent", "VALUE"]),
    ("--max-rects", ["oracle", "phi", "--max-rects", "VALUE"]),
    ("--box", ["oracle", "monotone", "--box", "2xVALUE"]),
]


# int() reads each of these but "\u00b2" (SUPERSCRIPT TWO) and the
# 5000 nines, more digits than it reads; "\u0663" is ARABIC-INDIC DIGIT
# THREE.  The error line names a text past those digits by its length.
@pytest.mark.parametrize("option,argv", INTEGER_OPTIONS,
                         ids=[f"{argv[0]} {option}" for option, argv in INTEGER_OPTIONS])
@pytest.mark.parametrize("text", ["\u0663", "\u00b2", "02", "+1", "1_0", " 1", "-0",
                                  pytest.param("9" * 5000, id="5000 nines")])
def test_integer_options_read_ascii_integers(capsys, option, argv, text):
    argv = [a.replace("VALUE", text) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    if option == "--box":
        shown = repr(argv[-1]) if len(text) < 5000 else "<5002 characters>"
        assert err == f"error: cannot read --box {shown}; expected e.g. 4x4\n"
    else:
        shown = repr(text) if len(text) < 5000 else "<5000 characters>"
        assert err.endswith(f"error: argument {option}: invalid integer value: {shown}\n")


NINES = "9" * 5000
ONES = ",".join(["1"] * 3001)  # a point or box of 6003 characters
NUMBER_TOO_LONG = "number <5000 characters> has more than 4300 digits"
# A number past the 4300 digits int() reads, and a refused text past
# 4300 characters, are named by their length; shorter ones as before.
LONG_TEXTS = [
    (["ord", f"{{({NINES})}}"], NUMBER_TOO_LONG),
    (["ideal", f"[{NINES},1]"], NUMBER_TOO_LONG),
    (["ideal", "--gens", f"({NINES},1)"], NUMBER_TOO_LONG),
    (["hardy", f"w*{NINES}", "2"], NUMBER_TOO_LONG + " (at position 2)"),
    (["hardy", f"w^(w+{NINES})", "2"], NUMBER_TOO_LONG + " (at position 5)"),
    (["type", f"D(N^{NINES})"], NUMBER_TOO_LONG),
    (["type", "D" * 5000], "cannot read space descriptor <5000 characters>; "
                           "expected D(N^m), D(N^m x k), or I(N^m)"),
    (["ideal", "--gens", f"({ONES})x"], "bad exponent vector <6004 characters>"),
    (["ideal", "--gens", f"({ONES})", "--dim", "2"],
     "bad exponent vector <9003 characters> for dimension 2"),
    (["ord", f"{{({ONES})x}}"], "bad generator <6004 characters>"),
    (["ideal", f"[{ONES}]x"], "bad box <6004 characters>"),
    (["ord", "x" * 5000], "bad lower set literal: <5000 characters>"),
    (["type", "D" * 4300], f"cannot read space descriptor {'D' * 4300!r}; "
                           "expected D(N^m), D(N^m x k), or I(N^m)"),
]


@pytest.mark.parametrize("argv,message", LONG_TEXTS,
                         ids=[f"{argv[0]} {message[:24]}" for argv, message in LONG_TEXTS])
def test_long_texts_named_by_length(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_numbers_of_4300_digits_still_read(capsys):
    n = "9" * 4300
    code, out, _ = run_cli(capsys, "ideal", "--gens", f"({n},1)")
    assert code == 0 and out == f"[{n},w]u[w,1]\n"
    code, out, _ = run_cli(capsys, "hardy", f"w*{n}", "2", "--budget", "1")
    assert code == 0 and out == f"residual: H_{{w*{n[:-1]}8+2}}(3) after 1 steps (budget exhausted)\n"


def test_negative_integers_still_read(capsys):
    code, out, _ = run_cli(capsys, "oracle", "inclusion", "--seed", "-3", "--pairs", "5")
    assert code == 0 and out.endswith("seed: -3\n")
    code, out, err = run_cli(capsys, "hardy", "w", "-3")
    assert code == 2 and err.startswith("error: need x >= 0")


def test_dim_at_the_bounds(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--gens", "0", "--dim", str(MAX_GENERAL_DIM))
    assert code == 0 and out.strip() == "[" + ",".join(["w"] * MAX_GENERAL_DIM) + "]"
    # the unit ideal leaves nothing; all ones leave one slab per axis
    m = MAX_GENERAL_DIM
    slabs = "u".join("[" + ",".join("1" if i == t else "w" for i in range(m)) + "]"
                     for t in range(m))
    for c, want in (("0", "empty"), ("1", slabs)):
        began = time.perf_counter()
        code, out, _ = run_cli(capsys, "ideal", "--gens", "(" + ",".join([c] * m) + ")",
                               "--dim", str(m))
        assert time.perf_counter() - began < 2
        assert code == 0 and out == want + "\n"
    code, out, _ = run_cli(capsys, "ideal", "empty", "--dim", "0")
    assert code == 0 and out.splitlines()[0] == "gens: ()"


def test_unit_generators_at_the_dim_bound(capsys):
    # three unit generators leave the points that hold 0 in their first
    # three coordinates
    m = MAX_GENERAL_DIM
    gens = ";".join("(" + ",".join("1" if i == t else "0" for i in range(m)) + ")"
                    for t in range(3))
    began = time.perf_counter()
    code, out, _ = run_cli(capsys, "ideal", "--gens", gens, "--dim", str(m))
    assert time.perf_counter() - began < 2
    assert code == 0 and out == "[" + ",".join(["1"] * 3 + ["w"] * (m - 3)) + "]\n"


def test_one_box_after_a_slab_per_axis_at_the_dim_bound():
    # the slabs leave the one point (1,...,1) outside; a box of 2s
    # raises it on every axis, one point an axis
    m = MAX_GENERAL_DIM
    slabs = [tuple(1 if i == t else float("inf") for i in range(m)) for t in range(m)]
    began = time.perf_counter()
    points = complement_points(slabs + [(2,) * m], m)
    assert time.perf_counter() - began < 2
    assert points == sorted(tuple(2 if i == t else 1 for i in range(m)) for t in range(m))


class TestHardyCommand:
    def test_small_values(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "w", "3")
        assert code == 0 and out.strip() == "7"
        code, out, _ = run_cli(capsys, "hardy", "w^2", "3")
        assert code == 0 and out.strip() == "39"

    def test_budget_residual(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "w^w", "2", "--budget", "10")
        assert code == 0
        assert out.strip() == "residual: H_{w+7}(12) after 10 steps (budget exhausted)"

    def test_default_budget_residual(self, capsys):
        # pinned from the one-rewrite-per-step evaluator
        code, out, _ = run_cli(capsys, "hardy", "w^(w+2)", "2")
        assert code == 0
        assert out.strip() == (
            "residual: H_{w^(w+1)+w^w*2+w^3*4+w^2*4+w*1141+180669}(1000002) "
            "after 1000000 steps (budget exhausted)"
        )

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "hardy", "w^^2", "3")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("text", ["w^\u00b2", "w*\u0663"])
    def test_non_ascii_digit_is_a_parse_error(self, capsys, text):
        code, out, err = run_cli(capsys, "hardy", text, "2")
        assert code == 2 and out == ""
        assert err == "error: expected a digit (at position 2)\n"

    def test_deep_nesting_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "hardy", "w^(" * 1500 + "1" + ")" * 1500, "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{MAX_NESTING}" in err


class TestDescendCommand:
    def test_stops_at_successor(self, capsys):
        code, out, _ = run_cli(capsys, "descend", "w^2", "--base", "2")
        assert code == 0
        assert out.splitlines() == ["w^2", "w*2", "w+3", "# truncated: successor"]

    def test_stops_at_step_limit(self, capsys):
        code, out, _ = run_cli(capsys, "descend", "w^(w^2)", "--limit", "2")
        assert code == 0
        assert out.splitlines() == ["w^(w^2)", "w^w", "# truncated: step limit"]

    def test_zero_is_a_complete_trace(self, capsys):
        code, out, _ = run_cli(capsys, "descend", "0")
        assert code == 0 and out.splitlines() == ["0"]

    def test_rejects_successor_start(self, capsys):
        code, _, err = run_cli(capsys, "descend", "5")
        assert code == 2
        assert "neither 0 nor a limit" in err


class TestIdealCommand:
    def test_staircase(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "[2,w]u[w,3]")
        assert code == 0
        assert out.splitlines() == ["gens: (2,3)", "pretty: X^2*Y^3", "degree: 5"]

    def test_full_space_gives_zero_ideal(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "[w,w]", "--dim", "2")
        assert code == 0
        assert out.splitlines() == ["gens: 0", "pretty: 0"]

    def test_reverse_direction(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "--gens", "(2,0);(0,3)")
        assert code == 0 and out.strip() == "[2,3]"
        code, out, _ = run_cli(capsys, "ideal", "--gens", "0", "--dim", "2")
        assert code == 0 and out.strip() == "[w,w]"

    def test_generator_lengths_must_agree(self, capsys):
        code, out, err = run_cli(capsys, "ideal", "--gens", "(1,2);(3)")
        assert code == 2 and out == ""
        assert err == "error: bad exponent vector (3,) for dimension 2\n"

    def test_requires_an_argument(self, capsys):
        code, _, err = run_cli(capsys, "ideal")
        assert code == 2 and "give a lower set or --gens" in err


class TestBadseqVerify:
    def test_stdout_fallback(self, capsys):
        code, out, _ = run_cli(capsys, "badseq", "-m", "2", "-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert "# dim: 2" in lines
        assert sum(1 for l in lines if not l.startswith("#")) == 3

    @pytest.mark.parametrize("m,n", [(1, 10), (2, 30), (3, 20)])
    def test_stdout_and_file_hold_the_generated_run(self, capsys, tmp_path, m, n):
        # -m 1 -K 3 reaches 0 at its fourth record, before n
        path = tmp_path / "run.rec"
        code, out, _ = run_cli(capsys, "badseq", "-m", str(m), "-K", "3", "-n", str(n))
        assert code == 0
        run_cli(capsys, "badseq", "-m", str(m), "-K", "3", "-n", str(n), "-o", str(path))
        assert out == path.read_text() == "\n".join(badseq.run_lines(generate(m, 3, n))) + "\n"

    def test_badseq_writes_without_holding_the_text(self, capsys, tmp_path):
        # each line is written as it is made: the traced peak stays under
        # twice the file, which holding every line and their joined text
        # as well as the records (about three times the file) exceeds
        path = tmp_path / "run.rec"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, _, _ = run_cli(capsys, "badseq", "-m", "3", "-K", "2", "-n", "400", "-o", str(path))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * path.stat().st_size

    @pytest.mark.parametrize("count,taken", [("400", 1), ("3", 0)])
    def test_closed_pipe_ends_badseq_quietly(self, count, taken):
        # `wpo badseq ... | head -n 1` in a fresh interpreter, stdout
        # block-buffered as in a shell: the reader takes the first line
        # of a file of megabytes and goes, or goes before a short run
        # writes, whose lines then wait in the buffer until the exit
        # flush.  Either way the run exits 0 with nothing on stderr.
        src = str(Path(badseq.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys, wpo.cli; sys.exit(wpo.cli.main(sys.argv[1:]))",
             "badseq", "-m", "3", "-K", "3", "-n", count],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src})
        with proc:
            for _ in range(taken):
                assert proc.stdout.readline() == b"# descent run\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0, err
        assert err == b""

    def test_closed_pipe_in_process(self, capsys, monkeypatch):
        # a caller's own stdout that refuses the lines is left as it is
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        stream = Closed()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["badseq", "-m", "2", "-n", "30"]) == 0
        assert sys.stdout is stream and not stream.closed
        assert capsys.readouterr().err == ""

    def test_other_os_errors_still_fail(self, capsys, tmp_path):
        path = tmp_path / "missing" / "run.rec"
        code, out, err = run_cli(capsys, "badseq", "-m", "2", "-n", "5", "-o", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno 2] No such file or directory: ")

    def test_generate_then_verify(self, capsys, tmp_path):
        path = str(tmp_path / "run.rec")
        code, _, _ = run_cli(capsys, "badseq", "-m", "2", "-n", "5", "-o", path)
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert "records: 5" in out
        assert "audit problems: 0" in out
        assert "pairs checked: 10" in out
        assert "violation: none" in out

    def test_duplicate_record_flagged(self, capsys, tmp_path):
        run = generate(2, 2, 2)
        dup = replace(run.records[0], index=2)
        bad = DescentRun(2, 2, run.start, (run.records[0], dup))
        path = str(tmp_path / "dup.rec")
        write_run(bad, path)
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 1
        assert "violation: record 1 is contained in record 2" in out

    def test_truncated_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "60", "-o", str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:30]) + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "60" in err and "23" in err

    @pytest.mark.parametrize("base", ["-3", "0"])
    def test_base_below_one_rejected(self, capsys, tmp_path, base):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "3", "-o", str(path))
        text = path.read_text()
        assert "\n# base: 2\n" in text
        path.write_text(text.replace("\n# base: 2\n", f"\n# base: {base}\n"))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: header says base {base}, which is not an integer >= 1\n"

    def test_base_of_too_many_digits_refused(self, capsys, tmp_path):
        # a base of 2000 digits is the largest a run takes: its bounds
        # (base+index)^2 stay within the digits str() writes
        path = tmp_path / "run.rec"
        largest = "9" * 2000
        argv = ["badseq", "-m", "2", "-n", "3", "-K"]
        assert run_cli(capsys, *argv, largest, "-o", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and "audit problems: 0" in out
        text = path.read_text()
        for base, digits in (("1" + "0" * 2000, 2001), ("9" * 2200, 2200)):
            want = f"error: base has {digits} digits, more than the 2000 a run takes\n"
            assert run_cli(capsys, *argv, base) == (2, "", want)
            path.write_text(text.replace(f"\n# base: {largest}\n", f"\n# base: {base}\n"))
            assert run_cli(capsys, "verify", str(path)) == (2, "", want)

    # "\u0662" is ARABIC-INDIC DIGIT TWO, which int() reads as 2
    @pytest.mark.parametrize("dim", ["abc", "0", "-2", "\u0662", "02"])
    def test_dim_header_not_a_dimension(self, capsys, tmp_path, dim):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "3", "-o", str(path))
        text = path.read_text()
        assert "\n# dim: 2\n" in text
        path.write_text(text.replace("\n# dim: 2\n", f"\n# dim: {dim}\n"))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: header says dim {dim}, which is not an integer >= 1\n"

    # "\u00b3" is SUPERSCRIPT THREE, which str.isdigit takes and int()
    # refuses; "\u0663" is ARABIC-INDIC DIGIT THREE, which int() reads as 3
    @pytest.mark.parametrize("count", ["\u00b3", "\u0663", "abc", "-3", ""])
    def test_records_header_not_a_count(self, capsys, tmp_path, count):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "3", "-o", str(path))
        text = path.read_text()
        assert "\n# records: 3\n" in text
        path.write_text(text.replace("\n# records: 3\n", f"\n# records: {count}\n"))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: header says records {count}, which is not an integer >= 0\n"

    # int() reads each text but "-3" as the value wpo badseq wrote there;
    # "\u0663" is ARABIC-INDIC DIGIT THREE
    @pytest.mark.parametrize("line,name,was,text", [
        (8, "index", "1", "+1"),
        (9, "extent", "3", " 3"),
        (11, "degree", "10", "1_0"),
        (10, "index", "3", "\u0663"),
        (8, "norm", "2", "-3"),
    ])
    def test_integer_column_not_ascii_digits_rejected(self, capsys, tmp_path, line, name, was, text):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "4", "-o", str(path))
        lines = path.read_text().splitlines()
        cols = lines[line - 1].split("|")
        column = badseq._COLUMNS.split("|").index(name)
        assert cols[column] == was
        cols[column] = text
        lines[line - 1] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: line {line}: {name} says {text!r}, which is not an integer >= 0\n"

    # record 2 of a dim-2 run, one column at a time written with a
    # leading zero: each column kind's reader refuses it
    @pytest.mark.parametrize("name,was,text,message", [
        ("index", "2", "02", "index says '02', which is not an integer >= 0"),
        ("degree", "4", "04", "degree says '04', which is not an integer >= 0"),
        ("ordinal", "w^(w+1)+w^w*3", "w^(w+1)+w^w*03", "leading zero (at position 12)"),
        ("lowerset", "[1,w]u[w,3]", "[01,w]u[w,3]", "bad box '[01,w]'"),
        ("ideal", "(1,3)", "(01,3)", "bad exponent vector '(01,3)'"),
    ])
    def test_leading_zero_in_a_column_rejected(self, capsys, tmp_path, name, was, text, message):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "4", "-o", str(path))
        lines = path.read_text().splitlines()
        cols = lines[8].split("|")
        column = badseq._COLUMNS.split("|").index(name)
        assert cols[column] == was
        cols[column] = text
        lines[8] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: line 9: {message}\n"

    def test_non_canonical_columns_read_as_their_set(self, capsys, tmp_path):
        # a record whose boxes, or generators, are listed in reverse is
        # the same record: the reader falls back to parsing it in full
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "3", "-n", "40", "-o", str(path))
        clean = run_cli(capsys, "verify", str(path))
        assert clean[0] == 0
        lines = path.read_text().splitlines()
        for column, sep in ((2, "u"), (5, ";")):
            rewritten = list(lines)
            cols = rewritten[41].split("|")
            assert cols[0] == "35" and sep in cols[column]
            cols[column] = sep.join(reversed(cols[column].split(sep)))
            rewritten[41] = "|".join(cols)
            path.write_text("\n".join(rewritten) + "\n")
            assert run_cli(capsys, "verify", str(path)) == clean

    def test_non_ascii_digit_in_an_ordinal_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "3", "-o", str(path))
        lines = path.read_text().splitlines()
        cols = lines[8].split("|")
        assert cols[1] == "w^(w+1)+w^w*3"
        cols[1] = "w^(w+1)+w^w*\u0663"
        lines[8] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == "error: line 9: expected a digit (at position 12)\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/no/such/file.rec")
        assert code == 2 and err.startswith("error:")

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "3", "-o", str(path))
        lines = path.read_text().splitlines()
        lines[7] = lines[7] + "|extra"
        path.write_text("\n".join(lines))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and "line 8" in err

    def test_short_ideal_vector_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "3", "-o", str(path))
        lines = path.read_text().splitlines()
        cols = lines[7].split("|")
        cols[5] = "(1,2);(3)"
        lines[7] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == "error: line 8: bad exponent vector (3,) for dimension 2\n"


    @pytest.mark.parametrize("column,text,message", [
        (2, "[]", "bad box '[]'"),
        (2, "[2,]", "bad box '[2,]'"),
        (2, "[w]", "bad box [w] for dimension 2"),
        (5, "(1,,2)", "bad exponent vector '(1,,2)'"),
    ])
    def test_empty_coordinate_in_record(self, capsys, tmp_path, column, text, message):
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "2", "-n", "3", "-o", str(path))
        lines = path.read_text().splitlines()
        cols = lines[7].split("|")
        cols[column] = text
        lines[7] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: line 8: {message}\n"

    def test_ordinal_tail_out_of_order_rejected(self, capsys, tmp_path):
        # record 25 keeps the terms record 24 shares with it, then ends in
        # a term above the one before it
        path = tmp_path / "run.rec"
        run_cli(capsys, "badseq", "-m", "3", "-K", "2", "-n", "30", "-o", str(path))
        lines = path.read_text().splitlines()
        cols = lines[31].split("|")
        assert cols[0] == "25" and cols[1].endswith("+w^(w^2+21)*24+w^(w^2+20)*26")
        cols[1] = cols[1].rsplit("+", 1)[0] + "+w^(w^2+22)*26"
        lines[31] = "|".join(cols)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == "error: line 32: exponents must strictly decrease (at position 334)\n"

    def test_dimension_above_bound_fails_fast(self, capsys):
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "badseq", "-m", "3000000", "-n", "1")
        assert time.perf_counter() - began < 1
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= m <= {MAX_GENERAL_DIM}\n"

    @pytest.mark.parametrize("m", ["1", "2", "3", "4", "5"])
    def test_new_dimensions_verify(self, capsys, tmp_path, m):
        path = str(tmp_path / "run.rec")
        assert run_cli(capsys, "badseq", "-m", m, "-K", "2", "-n", "40", "-o", path)[0] == 0
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert "audit problems: 0" in out and "violation: none" in out

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_dimension_below_one_rejected(self, capsys, m):
        code, out, err = run_cli(capsys, "badseq", "-m", m, "-n", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("records", [[], ["1|0|empty|0|0|0|0|9", "2|0|empty|0|0|0|0|16"]])
    def test_huge_dimension_fails_fast(self, capsys, tmp_path, monkeypatch, records):
        # a start of the wrong form is reported without building the
        # start, or a fold, of a 10**9-dimensional run
        def refuse(dim, *args):
            raise AssertionError(f"built descent_start({dim})")

        monkeypatch.setattr(badseq, "descent_start", refuse)
        monkeypatch.setattr(badseq, "_IdealFold", refuse)
        path = tmp_path / "huge.rec"
        head = ["# descent run", "# dim: 1000000000", "# base: 2",
                "# start: w^(w+2)", f"# records: {len(records)}"]
        path.write_text("\n".join(head + records) + "\n")
        began = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert time.perf_counter() - began < 5
        assert code == 1
        assert "  run starts at w^(w+2), which no dimension-1000000000 run does" in out

    @pytest.mark.parametrize("dim", [MAX_GENERAL_DIM + 1, 5000])
    def test_dimension_above_bound_verify_fails_fast(self, capsys, tmp_path, monkeypatch, dim):
        # a start of the right form above the bound builds no fold: the
        # audit refuses the dimension as audit_run does
        def refuse(dim, *args):
            raise AssertionError(f"built a fold of dim {dim}")

        monkeypatch.setattr(badseq, "_IdealFold", refuse)
        exponent = "+".join([f"w^{e}" for e in range(dim - 1, 1, -1)] + ["w", "1"])
        path = tmp_path / "huge.rec"
        path.write_text("\n".join(["# descent run", f"# dim: {dim}", "# base: 2",
                                   f"# start: w^({exponent})", "# records: 1",
                                   "1|w^5|empty|0|0|0|0|9"]) + "\n")
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path))
        assert time.perf_counter() - began < 5
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= m <= {MAX_GENERAL_DIM}\n"


def _empty(dim):
    return GeneralLowerSet.make(dim, [])


def _wrong_the_second_time(real):
    """``compose_parts`` that gives the empty set for parts it composed
    before.  A sample's second round trip decomposes the set that the
    first gave back, so its parts come again."""
    seen = []

    def compose(parts, dim):
        if parts in seen:
            return _empty(dim)
        seen.append(parts)
        return real(parts, dim)
    return compose


# A fault planted in what an oracle suite checks: the suite's argv, the
# owner and name of the function replaced, the fault made from the real
# function, and the failures the report must list.
PLANTED_FAULTS = [
    pytest.param(["inclusion", "--pairs", "40"], GeneralLowerSet, "includes",
                 lambda real: lambda s, t: True, ["includes disagrees for"], id="includes"),
    pytest.param(["inclusion", "--pairs", "40"], GeneralLowerSet, "union",
                 lambda real: lambda s, t: s, ["union wrong at"], id="union"),
    pytest.param(["inclusion", "--pairs", "40"], GeneralLowerSet, "intersect",
                 lambda real: lambda s, t: s, ["intersection wrong at"], id="intersect"),
    pytest.param(["ideal", "--pairs", "40"], oracles, "complement_ideal",
                 lambda real: lambda s: real(_empty(s.dim)), ["membership law fails at"],
                 id="complement_ideal"),
    pytest.param(["ideal", "--pairs", "40"], oracles, "complement_lowerset",
                 lambda real: lambda i: _empty(i.dim), ["complement round trip fails"],
                 id="complement_lowerset"),
    pytest.param(["ideal", "--pairs", "40"], MonomialIdeal, "degree",
                 lambda real: lambda i: 10**6, ["degree 1000000 above envelope"], id="degree"),
    pytest.param(["ideal", "--pairs", "40"], MonomialIdeal, "includes",
                 lambda real: lambda i, j: True, ["antitonicity fails"], id="ideal-includes"),
    pytest.param(["phi", "--max-rects", "1", "--samples", "0"], oracles, "compose_parts",
                 lambda real: lambda parts, dim: _empty(dim),
                 ["enumerated: round trip fails"], id="compose-enumerated"),
    pytest.param(["phi", "--max-rects", "0", "--samples", "5"], oracles, "compose_parts",
                 lambda real: lambda parts, dim: _empty(dim),
                 ["sample 0: round trip fails"], id="compose-sampled"),
    pytest.param(["phi", "--max-rects", "0", "--samples", "5"], oracles, "compose_parts",
                 _wrong_the_second_time, ["sample 0: second round trip fails"],
                 id="compose-second"),
    pytest.param(["spec", "--samples", "5"], oracles, "validate_specification",
                 lambda real: lambda p: ["planted"], ["induced spec invalid", ": planted"],
                 id="validate_specification"),
    pytest.param(["spec", "--samples", "5"], oracles, "is_compatible",
                 lambda real: lambda s, p: False,
                 ["incompatible with its own spec", "trivial spec rejects"], id="never-compatible"),
    pytest.param(["spec", "--samples", "5"], oracles, "is_compatible",
                 lambda real: lambda s, p: True, ["fails to pin down"], id="always-compatible"),
]


class TestOracleCommand:
    def test_monotone_grid(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "monotone", "--box", "4x4")
        assert code == 0
        assert out.strip() == "monotone box=4x4: 70 sets, 4900 pairs, 0 violations"

    def test_monotone_cube(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "monotone", "--box", "2x2x2")
        assert code == 0
        assert out.strip() == "monotone box=2x2x2: 20 sets, 400 pairs, 0 violations"

    def test_randomized_suites(self, capsys):
        for suite, extra in (
            ("phi", ["--m", "2", "--samples", "10"]),
            ("inclusion", ["--m", "2", "--pairs", "40"]),
            ("ideal", ["--m", "2", "--pairs", "40"]),
            ("spec", ["--m", "2", "--samples", "10"]),
        ):
            code, out, _ = run_cli(capsys, "oracle", suite, "--seed", "5", *extra)
            assert code == 0, suite
            assert "ok" in out and "seed: 5" in out

    def test_monotone_thin_box(self, capsys):
        # one grid point per level of the search: deeper than the interpreter stack
        code, out, _ = run_cli(capsys, "oracle", "monotone", "--box", "1x1500")
        assert code == 0
        assert out.strip() == "monotone box=1x1500: 1501 sets, 2253001 pairs, 0 violations"

    def test_monotone_many_unit_axes(self, capsys):
        # one grid point in 20,000 axes: no axis has a point above it
        box = "x".join(["1"] * 20_000)
        began = time.perf_counter()
        code, out, _ = run_cli(capsys, "oracle", "monotone", "--box", box)
        assert time.perf_counter() - began < 1
        assert code == 0 and out == f"monotone box={box}: 2 sets, 4 pairs, 0 violations\n"

    def test_monotone_too_many_sets(self, capsys):
        # 12,870 lower sets: refused once the 5001st turns up
        code, out, err = run_cli(capsys, "oracle", "monotone", "--box", "8x8")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "5000 lower sets" in err

    def test_phi_too_many_combinations(self, capsys):
        # 256 menu boxes at --m 4: 2,796,417 unions of at most 3 to try
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "phi", "--m", "4")
        assert time.perf_counter() - began < 1
        assert code == 2 and out == ""
        assert err == "error: more than 100000 combinations of at most 3 of 256 boxes\n"
        # 4^2000 and 4^10000 boxes: the count is not built, and its text
        # would run past 1000 digits, or past what str() converts
        for m in ("2000", "10000"):
            began = time.perf_counter()
            code, out, err = run_cli(capsys, "oracle", "phi", "--m", m)
            assert time.perf_counter() - began < 0.5
            assert code == 2 and out == "" and "Traceback" not in err
            assert err.startswith("error: more than 100000 combinations") and len(err) < 200

    @pytest.mark.parametrize("argv,err", [
        # 1000 cases of 8^4 grid points each
        pytest.param(["inclusion", "--m", "4"], "1000000 grid points: 1000 cases of 8^4",
                     id="inclusion"),
        pytest.param(["ideal", "--m", "4"], "1000000 grid points: 1000 cases of 8^4", id="ideal"),
        # each union walks up to (max_extent+2)^m points, each sample 8^m twice
        pytest.param(["phi", "--m", "5", "--max-rects", "1"],
                     "10000000 grid points: 1025 unions of 5^5 and 200 samples of 2*8^5",
                     id="phi-m5"),
        pytest.param(["phi", "--m", "8", "--max-rects", "0", "--samples", "1"],
                     "10000000 grid points: 1 unions of 5^8 and 1 samples of 2*8^8",
                     id="phi-m8"),
        pytest.param(["phi", "--m", "1", "--max-extent", "99998", "--max-rects", "1",
                      "--samples", "0"],
                     "10000000 grid points: 100000 unions of 100000^1 and 0 samples of 2*8^1",
                     id="phi-wide"),
        pytest.param(["spec", "--m", "13", "--samples", "1"],
                     "10000000 grid points: 1 samples of 8^13", id="spec"),
    ])
    def test_grid_too_large(self, capsys, argv, err):
        # refused before the first case
        assert oracles.MAX_GRID_POINTS == 1_000_000
        assert oracles.MAX_EQUALITY_GRID_POINTS == 10_000_000
        began = time.perf_counter()
        code, out, got = run_cli(capsys, "oracle", *argv)
        assert time.perf_counter() - began < 0.5
        assert code == 2 and out == ""
        assert got == f"error: more than {err}\n"

    def test_bad_box(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "monotone", "--box", "0x4")
        assert code == 2 and "expected e.g. 4x4" in err

    def test_unknown_suite_rejected(self, capsys):
        assert run_cli(capsys, "oracle", "bogus")[0] == 2

    @pytest.mark.parametrize("suite,flag", [
        ("inclusion", "--pairs"), ("ideal", "--pairs"), ("phi", "--samples"),
        ("spec", "--samples"), ("phi", "--max-rects"),
    ])
    def test_negative_count_rejected(self, capsys, suite, flag):
        code, out, err = run_cli(capsys, "oracle", suite, flag, "-3")
        assert code == 2 and out == ""
        assert err == "error: --pairs, --samples and --max-rects must be at least 0\n"

    @pytest.mark.parametrize("suite,m", [
        ("phi", "0"), ("inclusion", "0"), ("ideal", "0"), ("spec", "-1"),
    ])
    def test_dimension_below_one_rejected(self, capsys, suite, m):
        code, out, err = run_cli(capsys, "oracle", suite, "--m", m)
        assert code == 2 and out == ""
        assert err == "error: --m must be at least 1\n"

    def test_monotone_ignores_dimension(self, capsys):
        # monotone reads its dimension from --box, never from --m
        code, out, _ = run_cli(capsys, "oracle", "monotone", "--box", "2x2", "--m", "0")
        assert code == 0 and out.startswith("monotone box=2x2: ")

    def test_zero_count_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "inclusion", "--pairs", "0")
        assert code == 0 and out == "inclusion dim=2: 0 cases, ok\nseed: 0\n"

    @pytest.mark.parametrize("argv,owner,name,fault,listed", PLANTED_FAULTS)
    def test_planted_fault_reported(self, capsys, monkeypatch, argv, owner, name, fault, listed):
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
        code, out, _ = run_cli(capsys, "oracle", *argv)
        assert code == 1
        head, *failures = out.splitlines()
        assert head.endswith(" FAILURES") and failures[-1] == "seed: 0"
        for text in listed:
            assert any(text in line for line in failures[:-1]), text

    def test_monotone_violations_printed(self, capsys, monkeypatch):
        # ranks of {(0,0)} and {(0,2)} swapped: each set prints in its
        # generator form
        a1, a3 = closure([(0, 0)], 2), closure([(0, 2)], 2)
        swap = {a1: a3, a3: a1}
        real = linearize.ordinal_rank
        monkeypatch.setattr(linearize, "ordinal_rank", lambda f, *memo: real(swap.get(f, f), *memo))
        code, out, _ = run_cli(capsys, "oracle", "monotone", "--box", "1x3")
        assert code == 1
        assert out.splitlines() == [
            "monotone box=1x3: 4 sets, 16 pairs, 3 violations",
            "  {(0,0)} <= {(0,1)} but 3 > 2",
            "  {(0,0)} <= {(0,2)} but 3 > 1",
            "  {(0,1)} <= {(0,2)} but 2 > 1",
        ]


def _tokens(*alphabet, most=6):
    return st.lists(st.sampled_from(alphabet), max_size=most).map("".join)


def _joined(sep, item, least=1, most=3, fmt="{}"):
    items = st.lists(item, min_size=least, max_size=most)
    return items.map(lambda xs: fmt.format(sep.join(xs)))


def _points(sep, coordinate, fmt):
    """One to three points or boxes, all of one dimension from 1 to 3."""
    return st.integers(1, 3).flatmap(
        lambda d: _joined(sep, _joined(",", coordinate, least=d, most=d, fmt=fmt)))


# Each slot of a command line is a (well-formed, hostile) pair of
# strategies.  Every size is small: a well-formed count is at most 2, a
# dimension or box extent at most 3, and only the --dim and --box
# guards, which refuse at once, see a huge one.  "\u0663" is ARABIC-INDIC DIGIT THREE, "\u00b2" SUPERSCRIPT TWO.
SMALL = st.sampled_from(["0", "1", "2"])
BAD_NUMBER = st.sampled_from(
    ["-1", "-0", "02", "+1", "1_0", " 1", "\u0663", "\u00b2", "", "w", "^", "[1]", NINES])
NUMBER = (SMALL, BAD_NUMBER)
ORDINAL = (
    st.randoms(use_true_random=False).map(lambda rng: format_ordinal(rand_ordinal(rng))),
    _tokens("w", "^", "(", ")", "+", "*", "0", "1", "2", "02", "\u0663", "[", "]", " ")
    | st.sampled_from([f"w*{NINES}", f"w^{NINES}", f"w^(w+{NINES})"]),
)
BAD_SET = _tokens("{", "}", "(", ")", "[", "]", ",", ";", "u", "w", "0", "1", "02", "\u0663",
                  "-", "empty", most=8) | st.sampled_from(
    [f"{{({NINES})}}", f"[{NINES},1]", f"({NINES},1)", f"({ONES})x", f"[{ONES}]x", "x" * 5000])
GENERATORS = (_points(";", SMALL, "({})"), BAD_SET)
FINITE_SET = (st.just("{}") | GENERATORS[0].map("{{{}}}".format), BAD_SET)
LOWER_SET = (st.just("empty") | _points("u", st.sampled_from(["1", "2", "w"]), "[{}]"), BAD_SET)
DIM = (st.sampled_from(["1", "2", "3"]), BAD_NUMBER | st.just("1000000000"))
BOX = (_joined("x", st.sampled_from(["1", "2", "3"])),
       _tokens("1", "2", "0", "02", "x", "X", "\u0663", "\u00b2", "-", "_", " ", "1000000",
               most=5))
DESCRIPTOR = (
    st.builds("D(N^{})".format, SMALL) | st.builds("D(N^{}x{})".format, SMALL, SMALL)
    | st.builds("I(N^{})".format, SMALL),
    _tokens("D", "I", "N", "(", ")", "^", "x", " ", "0", "1", "02", "\u0663", "\u00b2")
    | st.sampled_from(["D" * 5000, f"D(N^{NINES})", f"I(N^{NINES})"]),
)
SUITE = (st.sampled_from(["monotone", "phi", "inclusion", "ideal", "spec"]),
         st.sampled_from(["", "Monotone", "phi ", "w"]))

COMMAND_LINES = {
    "type": ["type", DESCRIPTOR],
    "ord": ["ord", FINITE_SET],
    "ord --dim": ["ord", FINITE_SET, "--dim", DIM],
    "hardy": ["hardy", ORDINAL, NUMBER, "--budget", NUMBER],
    "descend": ["descend", ORDINAL, "--base", NUMBER, "--limit", NUMBER],
    "badseq": ["badseq", "-m", NUMBER, "-K", NUMBER, "-n", NUMBER],
    "oracle": ["oracle", SUITE, "--box", BOX, "--m", NUMBER, "--pairs", NUMBER,
               "--samples", NUMBER, "--seed", NUMBER, "--max-extent", NUMBER,
               "--max-rects", NUMBER],
    "ideal": ["ideal", LOWER_SET],
    "ideal --dim": ["ideal", LOWER_SET, "--dim", DIM],
    "ideal --gens": ["ideal", "--gens", GENERATORS, "--dim", DIM],
}


def hostile_argv(draw, parts):
    """The command line ``parts`` with every slot well formed but at most one."""
    slots = [i for i, p in enumerate(parts) if not isinstance(p, str)]
    bad = draw(st.sampled_from([None] * len(slots) + slots))
    return [p if isinstance(p, str) else draw(p[i == bad]) for i, p in enumerate(parts)]


# a small clean record file; each verify case splices a hostile token into it
RECORDS = "\n".join(["# descent run"] + badseq.run_lines(generate(2, 2, 6))) + "\n"
SPLICE = st.tuples(st.integers(0, len(RECORDS)), st.integers(0, 6),
                   _tokens("|", "#", "\n", ":", "0", "1", "02", "\u0663", "w", "^", "(", ")",
                           "[", "]", ",", ";", "u", "-", " ", most=4))


def run_contained(argv):
    """main(argv) with its output captured; any escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - began


class TestContract:
    """The exit-status contract on hostile input: 0, 1 or 2, never a
    traceback, and each case done within a small time budget."""

    @pytest.mark.parametrize("command", sorted(COMMAND_LINES))
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_hostile_argv(self, command, data):
        argv = hostile_argv(data.draw, COMMAND_LINES[command])
        code, err, took = run_contained(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert len(err) < 1000, argv  # no text of 5000 nines echoed
        assert took < 2, argv

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(splice=SPLICE)
    def test_hostile_record_file(self, tmp_path_factory, splice):
        at, cut, token = splice
        path = tmp_path_factory.mktemp("contract") / "run.rec"
        path.write_text(RECORDS[:at] + token + RECORDS[at + cut:])
        code, err, took = run_contained(["verify", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert took < 2


def reference_main(argv):
    """``main`` with the full parser on every line: the reference that a
    run parsing with its own command's parser must match byte for byte."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def outcome(run, argv):
    """Exit status, stdout and stderr of ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="class")
def fixed_columns():
    # argparse wraps help to the terminal width, read from COLUMNS
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        yield


# what a line can hold that only the parser reads: help, the end of
# options, abbreviated and joined options, words no command takes
PARSER_TOKENS = [*COMMANDS, "-h", "--help", "--", "--bud", "--budget=3", "--he", "-hx", "-",
                 "extra", "frobnicate", "w", "2", "5", "-m", "1", "-n", "-K", "--dim", "--dim=2",
                 "{}", "--gens", "(1,0)", "--box", "1x2", "monotone", "--seed", "--li", "--b"]
SOUP = st.lists(st.sampled_from(PARSER_TOKENS), max_size=6)
FIXED_LINES = [
    [], ["-h"], ["frobnicate"], ["hardy", "w", "2"], ["hardy", "-h"],
    ["hardy", "w", "2", "extra"], ["hardy", "w"], ["hardy", "w", "x"],
    ["--", "hardy", "w", "2"], ["hardy", "--", "w", "2"], ["hardy", "w", "2", "--bud", "5"],
    ["oracle", "-h"], ["badseq", "-h"], ["ideal", "--nope"],
]
TAIL = st.sampled_from([[], ["extra"], ["-h"], ["--help"], ["--", "extra"], ["--bud", "5"],
                        ["--budget=3"], ["frobnicate", "extra"]])


@pytest.mark.usefixtures("fixed_columns")
class TestParsesAsTheFullParser:
    """A run builds only its command's parser; its exit status, stdout and
    stderr are those of the full parser on every line."""

    @pytest.mark.parametrize("command", sorted(COMMAND_LINES))
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_command_lines(self, command, data):
        argv = hostile_argv(data.draw, COMMAND_LINES[command]) + data.draw(TAIL)
        assert outcome(main, argv) == outcome(reference_main, argv), argv

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(argv=SOUP | st.builds(lambda c, rest: [c, *rest], st.sampled_from(list(COMMANDS)), SOUP))
    def test_token_soup(self, argv):
        assert outcome(main, argv) == outcome(reference_main, argv), argv

    @pytest.mark.parametrize("argv", FIXED_LINES)
    def test_reads_sys_argv(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["wpo", *argv])
        assert outcome(main, None) == outcome(reference_main, argv)

    @pytest.mark.parametrize("argv", FIXED_LINES)
    def test_reads_sys_argv_at_40_columns(self, monkeypatch, argv):
        # a usage line wraps under `usage: wpo NAME `, so the command's
        # prog shows in every continuation line
        monkeypatch.setenv("COLUMNS", "40")
        self.test_reads_sys_argv(monkeypatch, argv)


class TestParserPlumbing:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv,built", [
        (["hardy", "w", "2"], 1),
        (["-h"], 9),
        (["frobnicate"], 9),
        # the command's parser finds an extra word; the full one reports it
        (["hardy", "w", "2", "extra"], 1 + 9),
        (["hardy", "-h"], 1),
    ])
    def test_parsers_built(self, capsys, monkeypatch, argv, built):
        made = []
        real = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            made.append(parser)
            real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        run_cli(capsys, *argv)
        assert len(made) == built

    def test_commands_in_order(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert list(COMMANDS) == [
            "type", "ord", "hardy", "descend", "badseq", "verify", "oracle", "ideal"]
        assert build_parser().format_usage() == (
            "usage: wpo [-h] {type,ord,hardy,descend,badseq,verify,oracle,ideal} ...\n")


FRESH_RUN = """\
import sys, wpo.cli
if sys.argv[1:]:
    status = wpo.cli.main(sys.argv[1:])
else:
    status = 0
    wpo.cli.build_parser()
print(status, *sorted(m for m in sys.modules if m == "concurrent.futures.process"
                      or m.partition(".")[0] in ("wpo", "dataclasses", "multiprocessing")))
"""


def fresh_run(*argv):
    """``wpo.cli.main(argv)``, or with no argv ``import wpo.cli`` and
    ``build_parser()``, in a fresh interpreter: its exit status, and the
    wpo modules, dataclasses and process machinery it loaded.  The
    interpreter imports the wpo this suite imported, from the checkout's
    src or wherever the package is installed."""
    src = str(Path(badseq.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, *argv], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    ).stdout
    status, *loaded = out.splitlines()[-1].split()
    return int(status), {m.removeprefix("wpo.") for m in loaded} - {"wpo", "cli", "vectors"}


def test_import_starts_no_process_machinery():
    # the parser alone: no command's modules, no dataclasses
    assert fresh_run() == (0, set())


# Each command line and oracle suite with the modules its run adds to
# wpo, wpo.cli and wpo.vectors.  Only badseq needs dataclasses; ideal
# loads ordinal for the bound its --dim check reads, and verify loads
# linearize for the rank that decides its pairs.  A fresh
# interpreter also shows an import cycle that a handler meets when it is
# the first to import a module; this suite imports every one up front.
BADSEQ = {"badseq", "lowerset", "monomial", "ordinal", "dataclasses"}
ORACLES = {"oracles", "lowerset", "monomial", "ordinal"}
FRESH_RUNS = [
    (["type", "I(N^3)"], {"ordinal"}),
    (["ord", "{(0,1);(1,0)}", "--dim", "2"], {"linearize", "lowerset", "ordinal"}),
    (["hardy", "w^(w+2)", "3", "--budget", "600"], {"ordinal"}),
    (["descend", "w^2", "--base", "2"], {"ordinal"}),
    (["badseq", "-m", "2", "-n", "5"], BADSEQ),
    (["verify", "RUN"], BADSEQ | {"linearize"}),
    (["oracle", "monotone", "--box", "2x2"], {"linearize", "lowerset", "ordinal"}),
    (["oracle", "phi", "--samples", "5"], ORACLES),
    (["oracle", "inclusion", "--pairs", "5"], ORACLES),
    (["oracle", "ideal", "--pairs", "5"], ORACLES),
    (["oracle", "spec", "--samples", "5"], ORACLES),
    (["ideal", "[2,1]u[1,3]"], {"lowerset", "monomial", "ordinal"}),
    (["ideal", "--gens", "(2,0);(0,1)"], {"lowerset", "monomial", "ordinal"}),
]


@pytest.mark.parametrize("argv,loads", FRESH_RUNS, ids=[" ".join(a[:2]) for a, _ in FRESH_RUNS])
def test_run_loads_only_its_modules(tmp_path, argv, loads):
    path = tmp_path / "run.rec"
    write_run(generate(2, 2, 5), str(path))
    argv = [str(path) if a == "RUN" else a for a in argv]
    assert fresh_run(*argv) == (0, loads)


def readme_examples():
    """The ``$ wpo ...`` lines of the README "Command line" block, each
    with the output shown under it."""
    text = README.read_text()
    block = text.split("## Command line\n\n```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def test_readme_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 10
    for command, shown in examples:
        argv = shlex.split(command, comments=True)
        keep = None
        if "|" in argv:
            argv, pipe = argv[:argv.index("|")], argv[argv.index("|") + 1:]
            assert pipe[:2] == ["tail", "-n"] and len(pipe) == 3, command
            keep = int(pipe[2])
        assert argv[0] == "wpo", command
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0 and err == "", command
        lines = out.splitlines()
        if keep is not None:
            lines = lines[-keep:]
        assert lines == shown, command
