"""Command-line entry point for the invariant checker.

Examples::

    totem-check explore                    # exhaustive tiny-cluster search
    totem-check explore --style passive --budget 2
    totem-check rules                      # print the invariant catalogue
    python -m repro.check explore --time-limit 50

Randomized fault runs under the checker are campaign batches:
``python -m repro.campaign run --batch N`` (docs/TESTING.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..campaign.generate import BATCH_STYLES
from .explore import (
    DROP_KINDS,
    FAULT_ALPHABET,
    MUTATIONS,
    ExploreOptions,
    apply_mutation,
    explore,
    replay_trace,
)
from .invariants import INVARIANTS

_STYLE_BY_NAME = {style.value: style for style in BATCH_STYLES}


def _positive(kind, name):
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} expects a {kind.__name__}, got {text!r}")
        if value <= 0:
            raise argparse.ArgumentTypeError(f"{name} must be positive")
        return value
    return parse


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.replay:
        with apply_mutation(args.mutate):
            options, violations = replay_trace(args.replay)
        print(f"replayed {args.replay} "
              f"(style={options.style.value} seed={options.seed})")
        if violations:
            print(f"{len(violations)} violation(s) reproduced:")
            for violation in violations:
                print(f"  {violation}")
            return 1
        print("no violations: the trace no longer reproduces")
        return 0
    options = ExploreOptions(
        nodes=args.nodes, networks=args.networks, max_msgs=args.max_msgs,
        style=_STYLE_BY_NAME[args.style], seed=args.seed,
        horizon=args.horizon, settle=args.settle,
        max_depth=args.max_depth, fault_budget=args.budget,
        faults=tuple(args.faults), drop_kinds=tuple(args.drop_kinds),
        por=not args.no_por, max_states=args.max_states,
        time_limit=args.time_limit, export_dir=args.export_dir,
        batching=args.batching)
    with apply_mutation(args.mutate):
        report = explore(options)
    print(report.render())
    return 0 if report.clean else 1


def _cmd_rules(args: argparse.Namespace) -> int:
    width = max(len(name) for name in INVARIANTS)
    for name, (requirement, statement) in INVARIANTS.items():
        print(f"{name:<{width}}  [{requirement}]  {statement}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="totem-check",
        description="Validate the Totem RRP protocol invariants "
                    "(paper requirements A1-A6 / P1-P5) by exhaustive "
                    "small-scope exploration.")
    sub = parser.add_subparsers(dest="command", required=True)

    explore_cmd = sub.add_parser(
        "explore",
        help="exhaustively enumerate schedules and fault interleavings "
             "for a tiny cluster (model checking; see docs/MODELCHECK.md)")
    explore_cmd.add_argument("--nodes", type=_positive(int, "--nodes"),
                             default=2, help="cluster size (default 2)")
    explore_cmd.add_argument("--networks", type=_positive(int, "--networks"),
                             default=2,
                             help="redundant networks (default 2)")
    explore_cmd.add_argument("--max-msgs",
                             type=_positive(int, "--max-msgs"), default=2,
                             help="workload messages, round-robin senders "
                                  "(default 2)")
    explore_cmd.add_argument("--style", choices=sorted(_STYLE_BY_NAME),
                             default="active")
    explore_cmd.add_argument("--seed", type=int, default=1)
    explore_cmd.add_argument("--horizon",
                             type=_positive(float, "--horizon"),
                             default=0.02,
                             help="virtual seconds explored (default 0.02)")
    explore_cmd.add_argument("--settle",
                             type=_positive(float, "--settle"), default=0.6,
                             help="deterministic cool-down before judging "
                                  "each path (default 0.6)")
    explore_cmd.add_argument("--max-depth",
                             type=_positive(int, "--max-depth"), default=4,
                             help="iterative-deepening ceiling on "
                                  "deviations per path (default 4)")
    explore_cmd.add_argument("--budget", type=_positive(int, "--budget"),
                             default=1,
                             help="drop/crash/partition budget (default 1)")
    explore_cmd.add_argument("--faults", nargs="*",
                             choices=list(FAULT_ALPHABET),
                             default=["drop"],
                             help="fault alphabet (default: drop)")
    explore_cmd.add_argument("--drop-kinds", nargs="*",
                             choices=list(DROP_KINDS),
                             default=list(DROP_KINDS),
                             help="frame kinds drop may target")
    explore_cmd.add_argument("--no-por", action="store_true",
                             help="disable partial-order reduction "
                                  "(cross-check; much slower)")
    explore_cmd.add_argument("--max-states",
                             type=_positive(int, "--max-states"),
                             default=500_000)
    explore_cmd.add_argument("--time-limit", type=float, default=0.0,
                             help="wall-clock cap in seconds (0 = none)")
    explore_cmd.add_argument("--batching", action="store_true",
                             help="explore the batched send path (frame "
                                  "trains) instead of per-frame broadcasts")
    explore_cmd.add_argument("--export-dir", default=None,
                             help="write violating paths here as campaign "
                                  "scenarios + decision traces")
    explore_cmd.add_argument("--mutate", choices=sorted(MUTATIONS),
                             default=None,
                             help="inject a known protocol bug first "
                                  "(checker self-test)")
    explore_cmd.add_argument("--replay", default=None, metavar="TRACE",
                             help="replay an exported *.trace.json instead "
                                  "of searching")
    explore_cmd.set_defaults(func=_cmd_explore)

    rules = sub.add_parser(
        "rules", help="print the invariant catalogue")
    rules.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
