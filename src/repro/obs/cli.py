"""``python -m repro.obs`` — record instrumented runs and render reports.

Two subcommands:

``record``
    Build a fig6-style saturated cluster with telemetry enabled, script a
    network fault (by default: total failure of network 0 partway through,
    restored later), run it, and write the self-contained run document
    (JSON).  Optional ``--jsonl`` and ``--prom`` side outputs exercise the
    other exporters.

``report``
    Render a run document as a single self-contained HTML file with inline
    SVG timelines.  With no run file, records the default scenario in
    memory first — ``python -m repro.obs report`` works out of the box.

Everything runs on the virtual clock; output is deterministic for a given
seed and configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Any, Dict, Optional, Sequence

from ..api.cluster import SimCluster
from ..argtypes import positive
from ..bench.runner import build_config
from ..bench.workload import SaturatingWorkload
from ..net.faults import FaultPlan
from ..types import ReplicationStyle
from .export import (
    build_run_document,
    load_run_document,
    prometheus_text,
    write_jsonl,
    write_run_document,
)
from .report import write_report

_STYLES = tuple(style.value for style in ReplicationStyle)


def record_scenario(style: str = "active", num_nodes: int = 4,
                    message_size: int = 700, duration: float = 2.0,
                    seed: int = 1, mode: str = "full",
                    interval: float = 0.01,
                    fault_time: Optional[float] = 0.8,
                    fault_network: int = 0,
                    restore_time: Optional[float] = 1.5,
                    title: Optional[str] = None):
    """Run one instrumented scenario; return ``(document, cluster)``.

    The default scenario is the paper's Figure 6 workload (4 nodes,
    saturating senders, 700-byte messages) with a scripted total failure of
    one network — the run every chart in the report is designed around:
    rotation time blips at the fault, monitors condemn the network, health
    drops, and the ring keeps delivering on the survivors.
    """
    config = build_config(ReplicationStyle(style), num_nodes, seed=seed)
    config = replace(config, obs=mode, obs_interval=interval)
    cluster = SimCluster(config)
    cluster.start()

    plan = FaultPlan()
    if fault_time is not None:
        plan.fail_network(at=fault_time, network=fault_network)
        if restore_time is not None and restore_time > fault_time:
            plan.restore_network(at=restore_time, network=fault_network)
    if plan.events:
        cluster.apply_fault_plan(plan)

    workload = SaturatingWorkload(cluster, message_size)
    workload.start()
    cluster.run_for(duration)
    workload.stop()

    meta = {
        "title": title or (
            f"Totem RRP {style} · {num_nodes} nodes · "
            f"{message_size}B saturating workload"),
        "scenario": ("steady-state" if fault_time is None else
                     f"network {fault_network} fails at t={fault_time:g}s"
                     + (f", restored at t={restore_time:g}s"
                        if restore_time is not None
                        and restore_time > fault_time else "")),
        "message_size": message_size,
        "duration": duration,
    }
    return build_run_document(cluster, meta=meta), cluster


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--style", choices=_STYLES, default="active",
                        help="replication style (default: active)")
    parser.add_argument("--nodes", type=positive(int, "--nodes"), default=4,
                        help="cluster size (default: 4)")
    parser.add_argument("--size", type=int, default=700,
                        help="message payload bytes (default: 700)")
    parser.add_argument("--duration", type=positive(float, "--duration"),
                        default=2.0,
                        help="virtual seconds to run (default: 2.0)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed (default: 1)")
    parser.add_argument("--mode", choices=("sampled", "full"),
                        default="full",
                        help="telemetry mode (default: full)")
    parser.add_argument("--interval", type=positive(float, "--interval"),
                        default=0.01,
                        help="sampling interval, virtual seconds "
                             "(default: 0.01)")
    parser.add_argument("--fault-time", type=float, default=0.8,
                        help="when network --fault-network fails "
                             "(default: 0.8)")
    parser.add_argument("--fault-network", type=int, default=0,
                        help="which network fails (default: 0)")
    parser.add_argument("--restore-time", type=float, default=1.5,
                        help="when the failed network is restored "
                             "(default: 1.5; ignored if <= fault time)")
    parser.add_argument("--no-fault", action="store_true",
                        help="steady-state run, no scripted fault")
    parser.add_argument("--quick", action="store_true",
                        help="short run for smoke tests "
                             "(0.6s, fault at 0.2s, restore at 0.45s)")


def _scenario_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    duration = args.duration
    fault_time: Optional[float] = args.fault_time
    restore_time: Optional[float] = args.restore_time
    if args.quick:
        duration = min(duration, 0.6)
        fault_time = 0.2
        restore_time = 0.45
    if args.no_fault:
        fault_time = None
        restore_time = None
    return {
        "style": args.style,
        "num_nodes": args.nodes,
        "message_size": args.size,
        "duration": duration,
        "seed": args.seed,
        "mode": args.mode,
        "interval": args.interval,
        "fault_time": fault_time,
        "fault_network": args.fault_network,
        "restore_time": restore_time,
    }


def _cmd_record(args: argparse.Namespace) -> int:
    document, cluster = record_scenario(**_scenario_kwargs(args))
    write_run_document(document, args.out)
    print(f"wrote run document: {args.out} "
          f"({len(document['samples'])} samples, "
          f"{len(document['events'])} events)")
    if args.jsonl:
        write_jsonl(document["samples"], args.jsonl)
        print(f"wrote sample stream: {args.jsonl}")
    if args.prom:
        # The Prometheus exposition renders from the live registry
        # (cumulative histogram buckets), not the document snapshot.
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(cluster.obs.registry))
        print(f"wrote Prometheus metrics: {args.prom}")
    if args.report:
        write_report(document, args.report)
        print(f"wrote report: {args.report}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.run is not None:
        document = load_run_document(args.run)
        source = args.run
    else:
        document, _ = record_scenario(**_scenario_kwargs(args))
        source = "default scenario (recorded in-process)"
    path = write_report(document, args.out)
    print(f"rendered {source} -> {path} "
          f"({len(document['samples'])} samples, "
          f"{len(document['events'])} events)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Totem RRP telemetry: record instrumented runs and "
                    "render self-contained HTML/SVG reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run an instrumented scenario, write the run document")
    _add_scenario_arguments(record)
    record.add_argument("--out", default="totem_run.json",
                        help="run document path (default: totem_run.json)")
    record.add_argument("--jsonl", default=None, metavar="FILE",
                        help="also write the sample stream as JSONL")
    record.add_argument("--prom", default=None, metavar="FILE",
                        help="also write Prometheus text-format metrics")
    record.add_argument("--report", default=None, metavar="FILE",
                        help="also render the HTML report")
    record.set_defaults(func=_cmd_record)

    report = sub.add_parser(
        "report", help="render a run document as self-contained HTML")
    report.add_argument("run", nargs="?", default=None,
                        help="run document from `record`; omitted = record "
                             "the default fault scenario first")
    _add_scenario_arguments(report)
    report.add_argument("--out", default="totem_report.html",
                        help="output HTML path (default: totem_report.html)")
    report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
