"""Command line front end.

Exit status contract: 0 all checks pass, 1 a property violation was
found, 2 usage or parse error.

Start-up and imports are most of a short command's wall time, so this
module imports only what the parser needs and each handler what it runs,
when called: only ``badseq`` and ``verify`` load ``dataclasses``.  A line
that starts with a command builds one parser, that command's own, named
``wpo NAME``; the full parser is built for ``wpo -h``, for a line that
names no command, and for a word that its command does not take.
"""

import argparse
import os
import re
import sys

from .vectors import NATURAL, integer, read_natural, shown


def _integer(text: str) -> int:
    """``integer`` as an option type: argparse echoes whole a text refused
    with ValueError, so the refusal names the text as ``shown`` does."""
    try:
        return integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {shown(text)}") from None


def cmd_type(args) -> int:
    from .ordinal import bounded_type, general_type
    d = "".join(args.descriptor.split())
    m = re.fullmatch(rf"([DI])\(N(?:\^({NATURAL}))?(?:x({NATURAL}))?\)", d)
    if m and not (m[1] == "I" and m[3]):
        dim, k = (read_natural(g or "1") for g in m.group(2, 3))
        print(bounded_type(dim, k) if m[1] == "D" else general_type(dim))
        return 0
    print(
        f"error: cannot read space descriptor {shown(args.descriptor)}; "
        'expected D(N^m), D(N^m x k), or I(N^m)',
        file=sys.stderr,
    )
    return 2


def _dim(args):
    """``--dim``, refused outside 0..MAX_GENERAL_DIM before it sizes anything."""
    from .ordinal import MAX_GENERAL_DIM
    if args.dim is not None and not 0 <= args.dim <= MAX_GENERAL_DIM:
        raise ValueError(f"need 0 <= dim <= {MAX_GENERAL_DIM}")
    return args.dim


def cmd_ord(args) -> int:
    from .linearize import ordinal_rank
    from .lowerset import parse_fls
    print(ordinal_rank(parse_fls(args.lower_set, _dim(args))).value)
    return 0


def cmd_hardy(args) -> int:
    from .ordinal import hardy, parse_ordinal
    outcome = hardy(parse_ordinal(args.alpha), args.x, args.budget)
    if outcome.finished:
        print(outcome.value)
    else:
        print(
            f"residual: H_{{{outcome.ordinal}}}({outcome.argument}) "
            f"after {outcome.steps} steps (budget exhausted)"
        )
    return 0


def cmd_descend(args) -> int:
    from .ordinal import descend, parse_ordinal
    trace = descend(parse_ordinal(args.alpha), args.base, args.limit)
    for step in trace.steps:
        print(step)
    if trace.truncated:
        print(f"# truncated: {trace.reason}")
    return 0


def cmd_badseq(args) -> int:
    from . import badseq as bs
    lines = bs.descent_lines(args.m, args.base, args.count)
    if args.out:
        bs.write_lines(lines, args.out)
        return 0
    try:
        sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, as `wpo badseq ... | head` leaves it: the
        # lines it did not take are not wanted.  Python flushes stdout
        # again at exit, so the real stream is pointed at the null device.
        if sys.stdout is sys.__stdout__:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
    return 0


def cmd_verify(args) -> int:
    from . import badseq as bs
    run, problems = bs.audit_file(args.path)
    report = bs.verify_bad(run)
    print(f"records: {report.count}")
    print(f"audit problems: {len(problems)}")
    for p in problems[:20]:
        print(f"  {p}")
    print(f"pairs checked: {report.pairs_checked}")
    if report.first_violation:
        i, j = report.first_violation
        print(f"violation: record {i} is contained in record {j}")
    else:
        print("violation: none")
    return 1 if problems or report.first_violation else 0


def _parse_box(text: str) -> tuple:
    try:
        box = tuple(map(integer, text.lower().split("x")))
    except ValueError:
        box = ()
    if not box or any(e < 1 for e in box):
        raise ValueError(f"cannot read --box {shown(text)}; expected e.g. 4x4")
    return box


def cmd_oracle(args) -> int:
    if min(args.pairs, args.samples, args.max_rects) < 0:
        raise ValueError("--pairs, --samples and --max-rects must be at least 0")
    if args.suite == "monotone":
        from .linearize import check_monotone
        from .lowerset import format_fls
        rep = check_monotone(_parse_box(args.box))
        print(
            f"monotone box={args.box}: {rep.sets_counted} sets, "
            f"{rep.pairs_checked} pairs, {len(rep.violations)} violations"
        )
        for s, t, rs, rt in rep.violations[:10]:
            print(f"  {format_fls(s)} <= {format_fls(t)} but {rs} > {rt}")
        return 0 if rep.ok else 1
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    from . import oracles
    if args.suite == "phi":
        rep = oracles.run_phi(dim=args.m, max_extent=args.max_extent,
                              max_rects=args.max_rects, seed=args.seed,
                              samples=args.samples)
    elif args.suite == "inclusion":
        rep = oracles.run_inclusion(dim=args.m, pairs=args.pairs, seed=args.seed)
    elif args.suite == "ideal":
        rep = oracles.run_ideal(dim=args.m, samples=args.pairs, seed=args.seed)
    else:
        rep = oracles.run_spec(dim=args.m, samples=args.samples, seed=args.seed)
    print(rep)
    print(f"seed: {args.seed}")
    return 0 if rep.ok else 1


def cmd_ideal(args) -> int:
    from .lowerset import parse_gls
    from .monomial import complement_ideal, complement_lowerset, parse_ideal, pretty_ideal
    dim = _dim(args)
    if args.gens is not None:
        ideal = parse_ideal(args.gens, dim)
        print(complement_lowerset(ideal))
        return 0
    if args.lower_set is None:
        print("error: give a lower set or --gens", file=sys.stderr)
        return 2
    s = parse_gls(args.lower_set, dim)
    ideal = complement_ideal(s)
    print(f"gens: {ideal}")
    print(f"pretty: {pretty_ideal(ideal)}")
    if not ideal.is_zero:
        print(f"degree: {ideal.degree()}")
    return 0


def _arg(*flags, **options):
    return flags, options


# Each command's help, handler and arguments, in the order that `wpo -h`
# lists the commands.
COMMANDS = {
    "type": ("order type of a space of lower sets", cmd_type, (
        _arg("descriptor", help="D(N^m), D(N^m x k), or I(N^m)"),
    )),
    "ord": ("ordinal rank of a finite lower set", cmd_ord, (
        _arg("lower_set", help="generator list, e.g. {(0,1);(1,0)}"),
        _arg("--dim", type=_integer, default=None),
    )),
    "hardy": ("evaluate a Hardy function", cmd_hardy, (
        _arg("alpha"),
        _arg("x", type=_integer),
        _arg("--budget", type=_integer, default=1_000_000),
    )),
    "descend": ("fundamental-sequence descent trace", cmd_descend, (
        _arg("alpha"),
        _arg("--base", type=_integer, default=1),
        _arg("--limit", type=_integer, default=100),
    )),
    "badseq": ("generate a bad-sequence record file", cmd_badseq, (
        _arg("-m", type=_integer, required=True),
        _arg("-K", dest="base", type=_integer, default=2),
        _arg("-n", dest="count", type=_integer, required=True),
        _arg("-o", dest="out", default=None),
    )),
    "verify": ("re-check a record file", cmd_verify, (
        _arg("path"),
    )),
    "oracle": ("run a brute-force property suite", cmd_oracle, (
        _arg("suite", choices=("monotone", "phi", "inclusion", "ideal", "spec")),
        _arg("--box", default="4x4"),
        _arg("--m", type=_integer, default=2),
        _arg("--pairs", type=_integer, default=1000),
        _arg("--samples", type=_integer, default=200),
        _arg("--seed", type=_integer, default=0),
        _arg("--max-extent", type=_integer, default=3),
        _arg("--max-rects", type=_integer, default=3),
    )),
    "ideal": ("complement ideal of a lower set", cmd_ideal, (
        _arg("lower_set", nargs="?", default=None),
        _arg("--gens", default=None, help="reverse: lower set of an ideal"),
        _arg("--dim", type=_integer, default=None),
    )),
}


def _add_command(parser, name) -> argparse.ArgumentParser:
    _, func, arguments = COMMANDS[name]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, which reads ``wpo -h`` and prints the top-level errors."""
    parser = argparse.ArgumentParser(
        prog="wpo", description="Order types, ordinal descent, and lower sets of N^m.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=summary), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # A line that starts with a command is parsed by its parser alone.
        # A word it does not take gets the usage of all eight commands, so
        # the full parser reports it, as it reads -h and every other line.
        if argv and argv[0] in COMMANDS:
            parser = _add_command(argparse.ArgumentParser(prog=f"wpo {argv[0]}"), argv[0])
            args, extras = parser.parse_known_args(argv[1:])
            if extras:
                args = build_parser().parse_args(argv)
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
