"""Command-line front-end.

Exit codes are the machine contract: 0 success, also when a reader closes
stdout early (``| head``); 1 negative finding (a dominated matching, a
profitable misreport); 2 usage, parse or validation failure; 3 limit hit.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .envy import is_pareto_optimal
from .errors import CamatchError, FeasibilityError, NotParetoOptimalError, SearchLimitExceeded
from .gsdt import GuidedToward, derive_ordering, render_trace, run_gsdt
from .instance import (
    Instance,
    generate_random_instance,
    parse_instance,
    parse_matching_pairs,
    parse_ordering,
    serialize_instance,
    serialize_matching_pairs,
    serialize_ordering,
    validate_ordering,
)
from .matching import Matching, is_feasible
from .oracle import MisreportStatus, enumerate_poms, find_beneficial_misreport

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


def _load_ordering(args: argparse.Namespace, instance: Instance) -> tuple[str, ...]:
    text = args.ordering if args.ordering is not None else _read(args.ordering_file)
    ordering = parse_ordering(text)
    validate_ordering(instance, ordering)
    return ordering


def _load_matching(path: str, instance: Instance) -> Matching:
    matching = Matching(parse_matching_pairs(_read(path), instance))
    violation = is_feasible(instance, matching)
    if violation is not None:
        raise FeasibilityError(f"infeasible matching: {violation}")
    return matching


def cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    ordering = _load_ordering(args, instance)
    policy = None
    if args.guided is not None:
        policy = GuidedToward(_load_matching(args.guided, instance))
    result = run_gsdt(instance, ordering, policy)
    if args.trace:
        for line in render_trace(result):
            print(line)
    sys.stdout.write(serialize_matching_pairs(result.matching.pairs))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    matching = _load_matching(args.matching, instance)
    check = is_pareto_optimal(instance, matching)
    if check:
        print("PARETO-OPTIMAL")
        return EXIT_OK
    print("NOT-PARETO-OPTIMAL")
    print(f"coalition: {check.coalition.describe()}")
    print("dominating:")
    sys.stdout.write(serialize_matching_pairs(check.dominating.pairs))
    return EXIT_NEGATIVE


def cmd_enumerate(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    catalog = enumerate_poms(instance, limit=args.limit)
    print(f"poms={len(catalog.poms)} examined={catalog.examined}")
    for m in catalog.poms:
        pairs = " ".join(f"{a}:{c}" for a, c in m)
        print(pairs if pairs else "(empty)")
    return EXIT_OK


def cmd_ordering_for(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    matching = _load_matching(args.matching, instance)
    try:
        ordering = derive_ordering(instance, matching)
    except NotParetoOptimalError as exc:
        print("NOT-PARETO-OPTIMAL")
        print(f"coalition: {exc.coalition.describe()}")
        return EXIT_NEGATIVE
    sys.stdout.write(serialize_ordering(ordering))
    return EXIT_OK


def cmd_misreport(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    ordering = _load_ordering(args, instance)
    search = find_beneficial_misreport(
        instance, ordering, args.applicant, search_limit=args.limit)
    for line in search.to_lines():
        print(line)
    if search.status is MisreportStatus.FOUND:
        return EXIT_NEGATIVE
    if search.status is MisreportStatus.INCONCLUSIVE:
        return EXIT_LIMIT
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        instance = generate_random_instance(
            args.n1, args.n2, args.max_b, args.max_q, args.tie_density, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(serialize_instance(instance))
    return EXIT_OK


def nonnegative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return int(text)


def _add_ordering_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--ordering", help="inline ordering, e.g. 'a1 a2 a1'")
    group.add_argument("--ordering-file", help="path to an ordering file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camatch",
        description="Pareto-optimal course allocation with tied preferences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the mechanism for an ordering")
    p.add_argument("instance")
    _add_ordering_options(p)
    p.add_argument("--trace", action="store_true", help="print the stage trace")
    p.add_argument("--guided", metavar="MATCHING",
                   help="steer augmenting paths toward this matching")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a matching for Pareto optimality")
    p.add_argument("instance")
    p.add_argument("matching")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="list all Pareto optimal matchings")
    p.add_argument("instance")
    p.add_argument("--limit", type=nonnegative_int, default=10**6)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("ordering-for",
                       help="derive an ordering that replays a matching")
    p.add_argument("instance")
    p.add_argument("matching")
    p.set_defaults(func=cmd_ordering_for)

    p = sub.add_parser("misreport", help="search for a profitable misreport")
    p.add_argument("instance")
    p.add_argument("applicant")
    _add_ordering_options(p)
    p.add_argument("--limit", type=nonnegative_int, default=200_000)
    p.set_defaults(func=cmd_misreport)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("max_b", type=int)
    p.add_argument("max_q", type=int)
    p.add_argument("tie_density", type=float)
    p.add_argument("seed", type=int)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A command's objects live until it ends, so cyclic collections only rescan them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader stopped early (``| head``): no failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return EXIT_OK
    except SearchLimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (OSError, UnicodeDecodeError, CamatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
