"""Command-line entry point for the fault-campaign harness.

Examples::

    totem-campaign run tests/scenarios/*.json        # replay the corpus
    totem-campaign run --batch 20 --seed 1           # randomized campaign
    totem-campaign run --batch 50 --minimize-on-failure --out-dir cases/
    totem-campaign replay cases/batch-7.min.json     # deterministic rerun
    totem-campaign minimize cases/failing.json --out-dir cases/
    totem-campaign explore tests/scenarios/explore_active.json
    totem-campaign rules                             # invariant catalogue
    python -m repro.campaign run --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from ..argtypes import positive
from ..check.invariants import INVARIANTS
from ..errors import ConfigError
from .explore import (
    DROP_KINDS, FAULT_ALPHABET, MUTATIONS, ExploreOptions, apply_mutation,
    explore)
from .generate import BATCH_STYLES, random_scenario
from .minimize import minimize_scenario
from .runner import CampaignResult, run_scenario
from .scenario import Scenario, load_scenario, save_scenario

_STYLE_BY_NAME = {style.value: style for style in BATCH_STYLES}


def _status_line(result: CampaignResult) -> str:
    status = ("ok" if result.ok
              else f"{len(result.violations)} violation(s)")
    return (f"{result.scenario.name:<30} "
            f"{result.scenario.style.value:<15} "
            f"seed={result.scenario.seed:<6} "
            f"delivered={result.delivered_total:<6} {status}")


def _write_case(scenario: Scenario, out_dir: str, suffix: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{scenario.name.replace(':', '_')}{suffix}")
    save_scenario(scenario, path)
    return path


def _write_forensics(scenario: Scenario, out_dir: str) -> str:
    """Re-run a (minimized) case with telemetry and dump the run document."""
    import json

    from ..obs.export import build_run_document

    result = run_scenario(scenario, obs="sampled", check_twin=False,
                          keep_cluster=True)
    document = build_run_document(
        result.cluster,
        meta={"campaign_scenario": scenario.name,
              "violations": [str(v) for v in result.violations]})
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{scenario.name.replace(':', '_')}.obs.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _minimize_and_emit(scenario: Scenario, out_dir: str) -> int:
    try:
        minimized = minimize_scenario(scenario)
    except ValueError as exc:
        print(f"minimize: {exc}", file=sys.stderr)
        return 2
    case_path = _write_case(minimized.scenario, out_dir, ".min.json")
    obs_path = _write_forensics(minimized.scenario, out_dir)
    print(f"{minimized.summary()}", file=sys.stderr)
    print(f"  case file: {case_path}", file=sys.stderr)
    print(f"  forensics: {obs_path}", file=sys.stderr)
    return 1


def _load_scenarios(args: argparse.Namespace) -> List[Scenario]:
    scenarios: List[Scenario] = []
    for path in args.files:
        scenarios.append(load_scenario(path))
    if args.batch:
        count = 1 if args.quick else args.batch
        for i in range(count):
            scenarios.append(random_scenario(
                args.seed + i,
                style=(None if args.style is None
                       else _STYLE_BY_NAME[args.style]),
                num_nodes=args.nodes,
                duration=0.5 if args.quick else args.duration))
    if not scenarios:
        raise ConfigError("nothing to run: pass case files or --batch N")
    return scenarios


def _cmd_run(args: argparse.Namespace) -> int:
    started = time.time()
    scenarios = _load_scenarios(args)
    failures = 0
    for scenario in scenarios:
        result = run_scenario(scenario)
        if not args.quiet:
            print(_status_line(result), file=sys.stderr)
        if result.ok:
            continue
        failures += 1
        print(result.replay_text, end="")
        if args.minimize_on_failure:
            _minimize_and_emit(scenario, args.out_dir)
    verdict = ("PASS: all scenarios conformant" if not failures
               else f"FAIL: {failures}/{len(scenarios)} scenario(s) violated "
                    f"the delivery contract")
    print(verdict)
    print(f"[{len(scenarios)} scenario(s) in {time.time() - started:.1f}s "
          f"wall clock]", file=sys.stderr)
    return 0 if not failures else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file)
    result = run_scenario(scenario)
    # The replay text is the byte-stable contract: same case file, same
    # seed, same bytes on stdout — diffable across machines and commits.
    print(result.replay_text, end="")
    return 0 if result.ok else 1


def _cmd_minimize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file)
    return _minimize_and_emit(scenario, args.out_dir)


def _cmd_explore(args: argparse.Namespace) -> int:
    root = load_scenario(args.root)
    options = ExploreOptions(
        max_depth=args.max_depth, fault_budget=args.budget,
        faults=tuple(args.faults), drop_kinds=tuple(args.drop_kinds),
        por=not args.no_por, max_states=args.max_states,
        time_limit=args.time_limit, export_dir=args.export_dir)
    with apply_mutation(args.mutate):
        report = explore(root, options)
    print(report.render())
    return 0 if report.clean else 1


def _cmd_rules(args: argparse.Namespace) -> int:
    width = max(len(name) for name in INVARIANTS)
    for name, (requirement, statement) in INVARIANTS.items():
        print(f"{name:<{width}}  [{requirement}]  {statement}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="totem-campaign",
        description="Fault-campaign conformance harness: run scripted "
                    "fault scenarios against the simulated cluster and "
                    "check the application-visible delivery guarantees "
                    "(agreement, total order, SMR convergence, fault "
                    "transparency).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run scenario case files and/or a randomized batch")
    run.add_argument("files", nargs="*", help="scenario case files (JSON)")
    run.add_argument("--batch", type=positive(int, "--batch"), default=0,
                     help="also run N generated scenarios")
    run.add_argument("--seed", type=int, default=1,
                     help="base seed for --batch (member i uses seed+i)")
    run.add_argument("--style", choices=sorted(_STYLE_BY_NAME),
                     help="restrict generated scenarios to one style")
    run.add_argument("--nodes", type=positive(int, "--nodes"), default=4,
                     help="cluster size for generated scenarios")
    run.add_argument("--duration", type=positive(float, "--duration"),
                     default=1.0,
                     help="scripted window for generated scenarios")
    run.add_argument("--minimize-on-failure", action="store_true",
                     help="delta-debug every failing scenario and write "
                          "minimized case + obs forensics files")
    run.add_argument("--out-dir", default="campaign-cases",
                     help="directory for minimized case files")
    run.add_argument("--quick", action="store_true",
                     help="one short generated scenario (smoke test)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-scenario progress on stderr")
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser(
        "replay", help="re-run one case file; byte-identical output per seed")
    replay.add_argument("file", help="scenario case file (JSON)")
    replay.set_defaults(func=_cmd_replay)

    minimize = sub.add_parser(
        "minimize", help="delta-debug a failing case file to a minimal "
                         "fault timeline")
    minimize.add_argument("file", help="failing scenario case file (JSON)")
    minimize.add_argument("--out-dir", default="campaign-cases",
                          help="directory for the minimized case + "
                               "forensics files")
    minimize.set_defaults(func=_cmd_minimize)

    explore_cmd = sub.add_parser(
        "explore",
        help="exhaustively enumerate schedules and fault interleavings "
             "around a root case file (model checking; see "
             "docs/MODELCHECK.md)")
    explore_cmd.add_argument(
        "root", help="root scenario case file (JSON): cluster, workload, "
                     "horizon (duration) and settle")
    explore_cmd.add_argument("--max-depth",
                             type=positive(int, "--max-depth"), default=4,
                             help="iterative-deepening ceiling on "
                                  "deviations per path (default 4)")
    explore_cmd.add_argument("--budget", type=positive(int, "--budget"),
                             default=1,
                             help="drop/crash/partition budget (default 1)")
    explore_cmd.add_argument("--faults", nargs="*",
                             choices=list(FAULT_ALPHABET), default=["drop"],
                             help="fault alphabet (default: drop)")
    explore_cmd.add_argument("--drop-kinds", nargs="*",
                             choices=list(DROP_KINDS),
                             default=list(DROP_KINDS),
                             help="frame kinds drop may target")
    explore_cmd.add_argument("--no-por", action="store_true",
                             help="disable partial-order reduction "
                                  "(cross-check; much slower)")
    explore_cmd.add_argument("--max-states",
                             type=positive(int, "--max-states"),
                             default=500_000)
    explore_cmd.add_argument("--time-limit",
                             type=positive(float, "--time-limit", zero=True),
                             default=0.0,
                             help="wall-clock cap in seconds (0 = none)")
    explore_cmd.add_argument("--export-dir", default=None,
                             help="write violating paths here as campaign "
                                  "scenarios")
    explore_cmd.add_argument("--mutate", choices=sorted(MUTATIONS),
                             default=None,
                             help="inject a known protocol bug first "
                                  "(checker self-test)")
    explore_cmd.set_defaults(func=_cmd_explore)

    rules = sub.add_parser("rules", help="print the invariant catalogue")
    rules.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    if args.command == "run" and args.quick and not args.batch:
        args.batch = 1
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
