"""Command line interface.

Every command reads an optional problem file (see io.py for the format),
computes one report, and prints it to stdout, as text by default or as
JSON under --json.  Diagnostics go to stderr.  Each handler imports the
layers it uses, so a command loads only those.  Exit codes:

    0  success (and every checked identity held)
    1  a checked identity failed
    2  unreadable or invalid input
    3  the map has fixed points away from subdivision vertices
    4  a normal map is not hyperbolic, or no localization regime applies
    5  the vertex functional is degenerate on an edge
    6  the vertex map is not simplicial
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

from .errors import LefscalcError, ParseError
from .reports import Report, print_report

if TYPE_CHECKING:
    from .euler import ConstructibleFunction
    from .io import Problem


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--input", metavar="PATH", help="problem file to read")
    problem = [reads, common]
    top = argparse.ArgumentParser(
        prog="lefscalc",
        description="exact fixed-point traces on simplicial and cell models",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("chi", parents=problem,
                   help="compactly supported Euler characteristic")
    sub.add_parser("integrate", parents=problem,
                   help="Euler integral of the values table")
    sub.add_parser(
        "lefschetz", parents=problem,
        help="global trace; localized over fixed components when the "
             "problem carries support, traces, or normal data",
    )
    morse = sub.add_parser("morse", parents=problem,
                           help="cycle table at one fixed component")
    morse.add_argument("--component", type=int, default=0,
                       help="fixed component index (default 0)")
    sub.add_parser("cc", parents=problem,
                   help="multiplicity table of the values for the functional")
    sub.add_parser("index-check", parents=problem,
                   help="compare the table total with the Euler integral")
    sub.add_parser("pushforward", parents=problem,
                   help="push the values along the map to its target")
    flag = sub.add_parser("flag-model", parents=[common],
                          help="cell model of a flag manifold or fixed locus")
    flag.add_argument("--n", type=int, required=True, help="ambient dimension")
    flag.add_argument("--blocks", default=None,
                      help="comma separated eigenvalue multiplicities")
    example = sub.add_parser("example-3-9", parents=[common],
                             help="worked example: fixed spheres against the "
                                  "big-cell divisor")
    example.add_argument("--ratio", default="2",
                         help="eigenvalue ratio surrogate, a rational such "
                              "as 7/3 or -3/4 (default 2)")
    verify = sub.add_parser("verify", parents=[common],
                            help="run the deterministic identity battery")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the random cases (default 0)")
    verify.add_argument("--cases", type=int, default=25,
                        help="random cases per check, at least 1 "
                             "(default 25)")
    return top


def _load(args) -> Problem:
    from . import io

    if not args.input:
        raise ParseError("this command needs --input PATH")
    return io.load(args.input)


def _need_phi(problem: Problem) -> ConstructibleFunction:
    from .euler import ConstructibleFunction

    if problem.phi is not None:
        return problem.phi
    return ConstructibleFunction.indicator(problem.space)


def _need_ell(problem: Problem):
    if problem.ell is None:
        raise ParseError("this command needs an 'ell' functional in the input")
    return problem.ell


def cmd_chi(args):
    from .euler import chi_c

    problem = _load(args)
    return Report("chi", chi=chi_c(problem.space)), True


def cmd_integrate(args):
    from .euler import euler_integral

    problem = _load(args)
    integral = euler_integral(_need_phi(problem))
    return Report("integral", integral=integral), True


def cmd_lefschetz(args):
    from .exact import GaussianRational
    from .fixedpoint import localization_report
    from .homology import homology_traces

    problem = _load(args)
    if problem.spec is None:
        raise ParseError("the lefschetz command needs a self-map block")
    traced = (
        problem.support is not None
        or problem.traces is not None
        or problem.normal is not None
    )
    if traced:
        report = Report("localization", **localization_report(problem.traced()))
        return report, report.equal
    traces = homology_traces(problem.spec)
    total = sum(((-1) ** k) * t for k, t in enumerate(traces))
    report = Report(
        "lefschetz",
        global_trace=GaussianRational.of(total),
        degree_traces=tuple(
            (k, GaussianRational.of(t)) for k, t in enumerate(traces)
        ),
    )
    return report, True


def cmd_morse(args):
    from .morse import lefschetz_cycle_table

    problem = _load(args)
    if problem.spec is None:
        raise ParseError("the morse command needs a self-map block")
    ell = _need_ell(problem)
    result = lefschetz_cycle_table(problem.traced(), args.component, ell)
    return (
        Report(
            "cycle-table",
            component=result.component,
            regime=result.regime,
            sign=result.sign,
            table=tuple(result.table.sorted_entries()),
            total=result.total(),
        ),
        True,
    )


def cmd_cc(args):
    from .morse import cc_table

    problem = _load(args)
    table = cc_table(_need_phi(problem), _need_ell(problem))
    return (
        Report(
            "cc", table=tuple(table.sorted_entries()), total=table.total()
        ),
        True,
    )


def cmd_index_check(args):
    from .euler import euler_integral
    from .morse import index_sum

    problem = _load(args)
    phi = _need_phi(problem)
    total = index_sum(phi, _need_ell(problem))
    integral = euler_integral(phi)
    equal = total == integral
    return (
        Report("index-check", index_sum=total, integral=integral, equal=equal),
        equal,
    )


def cmd_pushforward(args):
    from .complexes import canonical_tuple
    from .euler import euler_integral, pushforward

    problem = _load(args)
    if problem.push_map is None:
        raise ParseError(
            "the pushforward command needs a map block with a target"
        )
    phi = _need_phi(problem)
    pushed = pushforward(problem.push_map, phi)
    values = tuple(
        (canonical_tuple(cell), value)
        for cell, value in pushed.sorted_items()
    )
    source_integral = euler_integral(phi)
    target_integral = euler_integral(pushed)
    equal = source_integral == target_integral
    return (
        Report(
            "pushforward",
            values=values,
            source_integral=source_integral,
            target_integral=target_integral,
            equal=equal,
        ),
        equal,
    )


def _parse_blocks(raw: str) -> tuple:
    try:
        blocks = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ParseError(f"cannot parse block sizes {raw!r}")
    return blocks


def cmd_flag_model(args):
    from .euler import chi_c
    from .flags import fixed_component_count, fixed_locus_cellspace, flag_cellspace

    if args.blocks is not None:
        blocks = _parse_blocks(args.blocks)
        space = fixed_locus_cellspace(args.n, blocks)
        component_count = fixed_component_count(blocks)
    else:
        blocks = ()
        space = flag_cellspace(args.n).space
        component_count = 1
    return (
        Report(
            "flag-model",
            n=args.n,
            blocks=blocks,
            cell_count=len(space.cell_keys),
            chi=chi_c(space),
            component_count=component_count,
        ),
        True,
    )


def cmd_example_3_9(args):
    from .euler import chi_c
    from .exact import parse_rational
    from .flags import example_3_9

    example = example_3_9(parse_rational(args.ratio))
    components = tuple(
        (p.label, p.family, p.contained, p.points,
         example.contribution(p.label))
        for p in example.patterns
    )
    support = example.problem.support
    return (
        Report(
            "worked-example",
            components=components,
            total=example.total(),
            chi_of_divisor=chi_c(support),
        ),
        True,
    )


def cmd_verify(args):
    from .verify import VerifyConfig, run_all

    config = VerifyConfig(seed=args.seed, cases=args.cases)
    report = run_all(config)
    return report, report.all_ok


_COMMANDS = {
    "chi": cmd_chi,
    "integrate": cmd_integrate,
    "lefschetz": cmd_lefschetz,
    "morse": cmd_morse,
    "cc": cmd_cc,
    "index-check": cmd_index_check,
    "pushforward": cmd_pushforward,
    "flag-model": cmd_flag_model,
    "example-3-9": cmd_example_3_9,
    "verify": cmd_verify,
}


_NEGATIVE = re.compile(r"-[\d.]")


def _glue_negative_ratio(argv: list) -> list:
    """Read `--ratio -3/4` as `--ratio=-3/4`: argparse takes a value that
    starts with "-" and is not a plain number for an option."""
    glued = []
    for arg in argv:
        if glued and glued[-1] == "--ratio" and _NEGATIVE.match(arg):
            glued[-1] = f"--ratio={arg}"
        else:
            glued.append(arg)
    return glued


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_glue_negative_ratio(argv))
    handler = _COMMANDS[args.command]
    try:
        report, ok = handler(args)
    except LefscalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(print_report(report, args.json))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
