"""Command line interface.

Every command reads an optional problem file (see io.py for the format),
computes one report, and prints it to stdout, as text by default or as
JSON under --json.  Diagnostics go to stderr.  Each handler imports the
layers it uses, so a command loads only those, and returns its report;
main exits 1 exactly when the report's identity field, `equal` or
`all_ok`, is false (Report.holds).  Exit codes:

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
    """The command table: each subparser names its handler, which returns
    the command's report."""
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

    sub.add_parser(
        "chi", parents=problem, help="compactly supported Euler characteristic"
    ).set_defaults(handler=cmd_chi)
    sub.add_parser(
        "integrate", parents=problem, help="Euler integral of the values table"
    ).set_defaults(handler=cmd_integrate)
    sub.add_parser(
        "lefschetz", parents=problem,
        help="global trace; localized over fixed components when the "
             "problem carries support, traces, or normal data",
    ).set_defaults(handler=cmd_lefschetz)
    morse = sub.add_parser("morse", parents=problem,
                           help="cycle table at one fixed component")
    morse.add_argument("--component", type=int, default=0,
                       help="fixed component index (default 0)")
    morse.set_defaults(handler=cmd_morse)
    sub.add_parser(
        "cc", parents=problem,
        help="multiplicity table of the values for the functional",
    ).set_defaults(handler=cmd_cc)
    sub.add_parser(
        "index-check", parents=problem,
        help="compare the table total with the Euler integral",
    ).set_defaults(handler=cmd_index_check)
    sub.add_parser(
        "pushforward", parents=problem,
        help="push the values along the map to its target",
    ).set_defaults(handler=cmd_pushforward)
    flag = sub.add_parser("flag-model", parents=[common],
                          help="cell model of a flag manifold or fixed locus")
    flag.add_argument("--n", type=int, required=True, help="ambient dimension")
    flag.add_argument("--blocks", default=None,
                      help="comma separated eigenvalue multiplicities")
    flag.set_defaults(handler=cmd_flag_model)
    example = sub.add_parser("example-3-9", parents=[common],
                             help="worked example: fixed spheres against the "
                                  "big-cell divisor")
    example.add_argument("--ratio", default="2",
                         help="eigenvalue ratio surrogate, a rational such "
                              "as 7/3 or -3/4 (default 2)")
    example.set_defaults(handler=cmd_example_3_9)
    verify = sub.add_parser("verify", parents=[common],
                            help="run the deterministic identity battery")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the random cases (default 0)")
    verify.add_argument("--cases", type=int, default=25,
                        help="random cases per check, at least 1 "
                             "(default 25)")
    verify.set_defaults(handler=cmd_verify)
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

    return Report("chi", chi=chi_c(_load(args).space))


def cmd_integrate(args):
    from .euler import euler_integral

    return Report("integral", integral=euler_integral(_need_phi(_load(args))))


def cmd_lefschetz(args):
    from .exact import GaussianRational
    from .fixedpoint import localization_report
    from .homology import homology_traces

    problem = _load(args).traced()
    if (
        problem.support is not None
        or problem.traces is not None
        or problem.normal is not None
    ):
        return Report("localization", **localization_report(problem))
    traces = homology_traces(problem.spec)
    total = sum(((-1) ** k) * t for k, t in enumerate(traces))
    return Report(
        "lefschetz",
        global_trace=GaussianRational.of(total),
        degree_traces=tuple(
            (k, GaussianRational.of(t)) for k, t in enumerate(traces)
        ),
    )


def cmd_morse(args):
    from .morse import lefschetz_cycle_table

    problem = _load(args)
    result = lefschetz_cycle_table(
        problem.traced(), args.component, _need_ell(problem)
    )
    return Report(
        "cycle-table",
        component=result.component,
        regime=result.regime,
        sign=result.sign,
        table=tuple(result.table.sorted_entries()),
        total=result.total(),
    )


def cmd_cc(args):
    from .morse import cc_table

    problem = _load(args)
    table = cc_table(_need_phi(problem), _need_ell(problem))
    return Report("cc", table=tuple(table.sorted_entries()), total=table.total())


def cmd_index_check(args):
    from .euler import euler_integral
    from .morse import index_sum

    problem = _load(args)
    phi = _need_phi(problem)
    total = index_sum(phi, _need_ell(problem))
    integral = euler_integral(phi)
    return Report(
        "index-check", index_sum=total, integral=integral, equal=total == integral
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
    return Report(
        "pushforward",
        values=values,
        source_integral=source_integral,
        target_integral=target_integral,
        equal=source_integral == target_integral,
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
    return Report(
        "flag-model",
        n=args.n,
        blocks=blocks,
        cell_count=len(space.cell_keys),
        chi=chi_c(space),
        component_count=component_count,
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
    return Report(
        "worked-example",
        components=components,
        total=example.total(),
        chi_of_divisor=chi_c(example.support),
    )


def cmd_verify(args):
    from .verify import VerifyConfig, run_all

    return run_all(VerifyConfig(seed=args.seed, cases=args.cases))


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
    try:
        report = args.handler(args)
    except LefscalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(print_report(report, args.json))
    return 0 if report.holds else 1


if __name__ == "__main__":
    sys.exit(main())
