"""Benchmark of the wpo command line.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload times one ``wpo`` command, run through ``wpo.cli.main`` in
a fresh worker process: a closed loop with a single client, one command
after another, for S seconds, with ``WPO_THREADS`` removed from the
environment.  The seed picks the command's inputs; the program sees only
the generated argv and files.  Every command's exit status and output
are checked outside the timed region (see checks.py).

With ``--trace 0`` the result holds the end-to-end metrics: the command
time, the median set-up time (import plus parser build in a fresh
interpreter) and the worker's peak RSS.  Times are in reference seconds
(see REFERENCE_CALIBRATION_S).  With ``--trace 1`` half the time runs
untraced and half in a second worker with every layer boundary of
layers.json wrapped; the result holds the per-layer metrics and the
tracing overhead.  The last line of stdout is the result as JSON; the
lines before it print the same figures for people.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
# A run of one workload gives up after this long, inside the 180 s a run may take.
RUN_LIMIT_S = 170
# Every time is reported in reference seconds: measured seconds times
# REFERENCE_CALIBRATION_S over the calibration time (worker.calibrate)
# measured around it.  One calibration pass takes about 0.02 s on a quiet
# 2-vCPU x86-64 VM with Python 3.11.  On a shared machine the speed of
# plain Python code drifts by 20-30% within a minute; the ratio cancels
# that drift, while a change to wpo moves it in full.
REFERENCE_CALIBRATION_S = 0.02


def run_worker(spec, deadline) -> dict:
    spec = {"src": str(SRC), **spec}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker timed out: {spec}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_commands(argvs, seconds, min_reps, trace, deadline) -> dict:
    return run_worker({"mode": "commands", "argvs": argvs, "seconds": seconds,
                       "min_reps": min_reps, "trace": trace}, deadline)


def scaled(timing) -> float:
    """A worker's timing in reference seconds."""
    return timing["wall_s"] * REFERENCE_CALIBRATION_S / timing["calib_s"]


def setup_times(deadline) -> list:
    """Import plus parser build in fresh interpreters; the first probe
    only writes the bytecode cache and is dropped."""
    return [run_worker({"mode": "setup"}, deadline) for _ in range(SETUP_PROBES + 1)][1:]


def _show_argv(argv) -> str:
    return "wpo " + " ".join(os.path.relpath(a, ROOT) if os.sep in a else a
                             for a in argv)


def per_input(reps, value) -> float:
    """Mean over the run's inputs of the median of ``value`` at each input.

    Inputs of one workload differ in cost by up to 15%, so a plain median
    over a run that cycles through them would jump between their levels.
    """
    by_input = {}
    for rep in reps:
        by_input.setdefault(rep["k"], []).append(value(rep))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def _describe(name, value, timings) -> str:
    ref = [scaled(t) for t in timings]
    raw = [t["wall_s"] for t in timings]
    return (f"{name}  {value:.4f} s  from {len(ref)} timings "
            f"(min {min(ref):.4f}, max {max(ref):.4f}; "
            f"unscaled median {statistics.median(raw):.4f} s)")


def _layer_values(rep, units) -> dict:
    """One traced command's per-layer figures, times in reference seconds."""
    factor = REFERENCE_CALIBRATION_S / rep["calib_s"]
    return {key: value * factor if units.get(key) == "s" else value
            for key, value in rep["layers"].items()}


def run_workload(name, label, prepare, seed, seconds, trace, units) -> dict:
    """One run of one workload; ``label`` is the command's own name for
    its command_s and ``prepare`` builds its Job (see workloads.py)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(seed)
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job = prepare(rng, work)
        print(f"{name} (seed {seed}: {job.inputs})")
        for argv in job.argvs:
            print(f"  {_show_argv(argv)}")
        cycle = len(job.argvs)
        if trace:
            plain = run_commands(job.argvs, seconds / 2, cycle, False, deadline)
            traced = run_commands(job.argvs, seconds / 2, cycle, True, deadline)
            reps = plain["reps"] + traced["reps"]
        else:
            setup = setup_times(deadline)
            plain = run_commands(job.argvs, seconds, 2 * cycle, False, deadline)
            reps = plain["reps"]
        failed = 0
        for rep in reps:
            problems = job.check(rep["k"], rep["rc"], rep["stdout"])
            if problems:
                failed += 1
                print(f"  FAILED: {problems[0]}", file=sys.stderr)
        problems = job.check_outputs()
        if problems:
            failed = len(reps)
            print(f"  FAILED: {problems[0]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    command = per_input(plain["reps"], scaled)
    if trace:
        values = {key: per_input(traced["reps"], lambda r: _layer_values(r, units)[key])
                  for key in traced["reps"][0]["layers"]}
        values["trace.overhead_s"] = per_input(traced["reps"], scaled) - command
        print("  " + _describe("untraced command_s", command, plain["reps"]))
        print("  " + _describe("traced command_s", command + values["trace.overhead_s"],
                               traced["reps"]))
        for target in traced["missing"]:
            print(f"  trace: boundary {target} not found; its time counts to its caller")
    else:
        values = {
            "command_s": command,
            "setup_s": statistics.median(scaled(t) for t in setup),
            "peak_rss_mb": plain["peak_rss_kb"] / 1024,
        }
        print("  " + _describe(f"{label} = command_s", command, plain["reps"]))
        print("  " + _describe("setup_s", values["setup_s"], setup))
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB  of the timed worker")
    print(f"  error_rate  {failed / len(reps):.4f}  ({failed} failed of {len(reps)} attempted)")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"no value for {', '.join(missing)}")
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    if trace:
        for key, m in metrics.items():
            print(f"  {key:<26} {m['value']:>14.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wpo" / "cli.py").is_file():
        print(f"error: no wpo package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("WPO_THREADS", None)
    sys.path.insert(0, str(SRC))
    import wpo

    if not Path(wpo.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wpo from {wpo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            label, prepare = workloads.WORKLOADS[name]
            result = run_workload(name, label, prepare, args.seed, args.seconds,
                                  args.trace, units)
            print(json.dumps(result))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
