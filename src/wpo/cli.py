"""Command line front end.

Exit status contract: 0 all checks pass, 1 a property violation was
found, 2 usage or parse error.
"""

import argparse
import re
import sys

from . import badseq as bs
from . import oracles
from .linearize import check_monotone, ordinal_rank
from .lowerset import format_fls, parse_fls, parse_gls
from .monomial import complement_ideal, complement_lowerset, format_ideal, parse_ideal, pretty_ideal
from .ordinal import bounded_type, descend, format_ordinal, general_type, hardy, parse_ordinal


def cmd_type(args) -> int:
    d = "".join(args.descriptor.split())
    m = re.fullmatch(r"D\(N(?:\^(\d+))?\)", d)
    if m:
        print(format_ordinal(bounded_type(int(m.group(1) or 1), 1)))
        return 0
    m = re.fullmatch(r"D\(N(?:\^(\d+))?x(\d+)\)", d)
    if m:
        print(format_ordinal(bounded_type(int(m.group(1) or 1), int(m.group(2)))))
        return 0
    m = re.fullmatch(r"I\(N(?:\^(\d+))?\)", d)
    if m:
        print(format_ordinal(general_type(int(m.group(1) or 1))))
        return 0
    print(
        f"error: cannot read space descriptor {args.descriptor!r}; "
        'expected D(N^m), D(N^m x k), or I(N^m)',
        file=sys.stderr,
    )
    return 2


def cmd_ord(args) -> int:
    f = parse_fls(args.lower_set, args.dim)
    print(format_ordinal(ordinal_rank(f).value))
    return 0


def cmd_hardy(args) -> int:
    outcome = hardy(parse_ordinal(args.alpha), args.x, args.budget)
    if outcome.finished:
        print(outcome.value)
    else:
        print(
            f"residual: H_{{{format_ordinal(outcome.ordinal)}}}({outcome.argument}) "
            f"after {outcome.steps} steps (budget exhausted)"
        )
    return 0


def cmd_descend(args) -> int:
    trace = descend(parse_ordinal(args.alpha), args.base, args.limit)
    for step in trace.steps:
        print(format_ordinal(step))
    if trace.truncated:
        print(f"# truncated: {trace.reason}")
    return 0


def cmd_badseq(args) -> int:
    run = bs.generate(args.m, args.base, args.count)
    if args.out:
        bs.write_run(run, args.out)
    else:
        print("\n".join(bs.run_lines(run)))
    return 0


def cmd_verify(args) -> int:
    run = bs.read_run(args.path)
    problems = bs.audit_run(run)
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
        box = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"cannot read box {text!r}; expected e.g. 4x4") from None
    if not box or any(e < 1 for e in box):
        raise ValueError(f"cannot read box {text!r}; expected e.g. 4x4")
    return box


def cmd_oracle(args) -> int:
    if min(args.pairs, args.samples, args.max_rects) < 0:
        raise ValueError("--pairs, --samples and --max-rects must be at least 0")
    if args.suite == "monotone":
        rep = check_monotone(_parse_box(args.box))
        print(
            f"monotone box={args.box}: {rep.sets_counted} sets, "
            f"{rep.pairs_checked} pairs, {len(rep.violations)} violations"
        )
        for s, t, rs, rt in rep.violations[:10]:
            print(f"  {format_fls(s)} <= {format_fls(t)} "
                  f"but {format_ordinal(rs)} > {format_ordinal(rt)}")
        return 0 if rep.ok else 1
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    if args.suite == "phi":
        rep = oracles.run_phi(dim=args.m, max_extent=args.max_extent,
                              max_rects=args.max_rects, seed=args.seed,
                              samples=args.samples)
    elif args.suite == "inclusion":
        rep = oracles.run_inclusion(dim=args.m, pairs=args.pairs, seed=args.seed)
    elif args.suite == "ideal":
        rep = oracles.run_ideal(dim=args.m, samples=args.pairs, seed=args.seed)
    elif args.suite == "spec":
        rep = oracles.run_spec(dim=args.m, samples=args.samples, seed=args.seed)
    else:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    print(rep)
    print(f"seed: {args.seed}")
    return 0 if rep.ok else 1


def cmd_ideal(args) -> int:
    if args.gens is not None:
        ideal = parse_ideal(args.gens, args.dim)
        print(complement_lowerset(ideal))
        return 0
    if args.lower_set is None:
        print("error: give a lower set or --gens", file=sys.stderr)
        return 2
    s = parse_gls(args.lower_set, args.dim)
    ideal = complement_ideal(s)
    print(f"gens: {format_ideal(ideal)}")
    print(f"pretty: {pretty_ideal(ideal)}")
    if not ideal.is_zero:
        print(f"degree: {ideal.degree()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpo",
        description="Order types, ordinal descent, and lower sets of N^m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("type", help="order type of a space of lower sets")
    p.add_argument("descriptor", help="D(N^m), D(N^m x k), or I(N^m)")
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("ord", help="ordinal rank of a finite lower set")
    p.add_argument("lower_set", help="generator list, e.g. {(0,1);(1,0)}")
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=cmd_ord)

    p = sub.add_parser("hardy", help="evaluate a Hardy function")
    p.add_argument("alpha")
    p.add_argument("x", type=int)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser("descend", help="fundamental-sequence descent trace")
    p.add_argument("alpha")
    p.add_argument("--base", type=int, default=1)
    p.add_argument("--limit", type=int, default=100)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("badseq", help="generate a bad-sequence record file")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-K", dest="base", type=int, default=2)
    p.add_argument("-n", dest="count", type=int, required=True)
    p.add_argument("-o", dest="out", default=None)
    p.set_defaults(func=cmd_badseq)

    p = sub.add_parser("verify", help="re-check a record file")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="run a brute-force property suite")
    p.add_argument("suite", choices=("monotone", "phi", "inclusion", "ideal", "spec"))
    p.add_argument("--box", default="4x4")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-extent", type=int, default=3)
    p.add_argument("--max-rects", type=int, default=3)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ideal", help="complement ideal of a lower set")
    p.add_argument("lower_set", nargs="?", default=None)
    p.add_argument("--gens", default=None, help="reverse: lower set of an ideal")
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=cmd_ideal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
