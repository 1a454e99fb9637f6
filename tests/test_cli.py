import os
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from wpo import badseq, linearize
from wpo.badseq import DescentRun, generate, write_run
from wpo.cli import main
from wpo.lowerset import closure
from wpo.ordinal import MAX_GENERAL_DIM, MAX_NESTING

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
])
def test_empty_coordinates_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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

    def test_dimension_above_bound_fails_fast(self, capsys):
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "badseq", "-m", "3000000", "-n", "1")
        assert time.perf_counter() - began < 1
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= m <= {MAX_GENERAL_DIM}\n"

    @pytest.mark.parametrize("m", ["1", "4"])
    def test_new_dimensions_verify(self, capsys, tmp_path, m):
        path = str(tmp_path / "run.rec")
        assert run_cli(capsys, "badseq", "-m", m, "-K", "2", "-n", "10", "-o", path)[0] == 0
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
        # start of a 10**9-dimensional run
        def refuse(dim):
            raise AssertionError(f"built descent_start({dim})")

        monkeypatch.setattr(badseq, "descent_start", refuse)
        path = tmp_path / "huge.rec"
        head = ["# descent run", "# dim: 1000000000", "# base: 2",
                "# start: w^(w+2)", f"# records: {len(records)}"]
        path.write_text("\n".join(head + records) + "\n")
        began = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert time.perf_counter() - began < 5
        assert code == 1
        assert "  run starts at w^(w+2), which no dimension-1000000000 run does" in out


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

    def test_monotone_too_many_sets(self, capsys):
        # 12,870 lower sets: refused once the 5001st turns up
        code, out, err = run_cli(capsys, "oracle", "monotone", "--box", "8x8")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "5000 lower sets" in err

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

    def test_monotone_violations_printed(self, capsys, monkeypatch):
        # ranks of {(0,0)} and {(0,2)} swapped: each set prints in its
        # generator form
        a1, a3 = closure([(0, 0)], 2), closure([(0, 2)], 2)
        swap = {a1: a3, a3: a1}
        real = linearize.ordinal_rank
        monkeypatch.setattr(linearize, "ordinal_rank", lambda f: real(swap.get(f, f)))
        code, out, _ = run_cli(capsys, "oracle", "monotone", "--box", "1x3")
        assert code == 1
        assert out.splitlines() == [
            "monotone box=1x3: 4 sets, 16 pairs, 3 violations",
            "  {(0,0)} <= {(0,1)} but 3 > 2",
            "  {(0,0)} <= {(0,2)} but 3 > 1",
            "  {(0,1)} <= {(0,2)} but 2 > 1",
        ]


class TestParserPlumbing:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2


def test_import_starts_no_process_machinery():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, wpo.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    ).stdout
    assert out.strip() == "[]"


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
