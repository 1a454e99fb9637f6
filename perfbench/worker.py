"""Time wpo in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory that contains the ``wpo``
package) and ``mode``:

- ``"setup"``: time ``import wpo.cli`` plus ``build_parser()``.
- ``"commands"``: with ``argvs`` (commands, without the leading
  ``wpo``), ``seconds``, ``min_reps`` and ``trace``, call
  ``wpo.cli.main(argv)`` in process with stdout captured, timed from
  outside, cycling through ``argvs``.  Repetitions run one after
  another, a closed loop with a single client, until ``seconds`` have
  passed and at least ``min_reps`` ran.  With ``trace`` set, every layer
  boundary is wrapped first and each repetition also reports its
  per-layer summary.

Every timing comes with the time of ``calibrate()`` measured right
before and after it, so that the caller can cancel changes in machine
speed.  The last line of stdout is the result as a JSON object.
"""

import contextlib
import io
import json
import os
import sys
import time

_CALIBRATION_POINTS = [(i * 7919 % 101, i * 104729 % 103, i % 17) for i in range(400)]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop shaped like wpo's hot
    code: sorting tuples, componentwise comparison through any/all/zip,
    and dict updates.  It calls nothing in wpo."""
    start = time.perf_counter()
    for _ in range(12):
        pts = sorted(_CALIBRATION_POINTS)
        tail = pts[-8:]
        hits = 0
        for p in pts:
            if any(all(a <= b for a, b in zip(p, q)) for q in tail):
                hits += 1
        sums = {}
        for p in pts:
            sums[p[0]] = sums.get(p[0], 0) + p[1]
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """Peak resident set size of this process image, in KiB.

    VmHWM starts afresh at exec; getrusage's ru_maxrss would also count
    the parent's memory at the fork that started this worker.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def time_setup() -> dict:
    before = calibrate()
    start = time.perf_counter()
    import wpo.cli

    wpo.cli.build_parser()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "calib_s": (before + calibrate()) / 2}


def time_commands(spec) -> dict:
    from wpo import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    reps = []
    boundary_calls = {}
    deadline = time.perf_counter() + spec["seconds"]
    argvs = spec["argvs"]
    while len(reps) < spec["min_reps"] or time.perf_counter() < deadline:
        k = len(reps) % len(argvs)
        before = calibrate()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                rc = cli.main(list(argvs[k]))
            except Exception as exc:  # a crash fails this command, not the run
                rc = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        rep = {"k": k, "wall_s": wall, "calib_s": (before + calibrate()) / 2,
               "rc": rc, "stdout": out.getvalue()}
        if tracer is not None:
            rep["layers"] = tracer.summary()
            for name, count in tracer.boundary_calls().items():
                boundary_calls[name] = boundary_calls.get(name, 0) + count
            tracer.reset()
        reps.append(rep)

    return {
        "reps": reps,
        "peak_rss_kb": peak_rss_kb(),
        "missing": tracer.missing if tracer else [],
        "boundary_calls": boundary_calls,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    os.environ.pop("WPO_THREADS", None)
    result = time_setup() if spec["mode"] == "setup" else time_commands(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
