#!/usr/bin/env python
"""Dependency-free line coverage and system-use reach for the repro package.

``coverage``/``pytest-cov`` are the real tools (CI runs them); this is the
no-install fallback for environments that only have the standard library.
It installs a ``sys.settrace`` hook filtered to ``src/repro``, runs pytest
in-process, and reports per-module line coverage against the executable
lines recovered from each module's compiled code objects.

``--system-use`` instead runs the fixed system-use set (SYSTEM_USE below)
in this one process under a call-event-only hook, and writes
``docs/REACH.md``: every ``def`` in ``src/repro`` that no phase calls,
with the reason its KEEP row gives.  The list is deterministic, so CI
regenerates it and diffs it.  It exits 1 if a phase fails or a ``def`` is
undecided: unreached without a KEEP row, or named by a row while reached
or gone.

Usage::

    python tools/linecov.py [pytest args...]
    python tools/linecov.py tests/unit -q --min-report 25
    python tools/linecov.py --system-use

Anything after the script name is passed to pytest verbatim, except
``--min-report N`` (only list modules below N% coverage, default 100).
"""

from __future__ import annotations

import glob
import inspect
import os
import runpy
import sys
import tempfile
import threading
import time
from types import CodeType
from typing import Callable, Dict, Iterator, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PKG = os.path.join(SRC, "repro")
REACH_MD = os.path.join(REPO, "docs", "REACH.md")


def _code_objects(path: str) -> Iterator[CodeType]:
    """The module's code object and every one nested in it."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        yield code
        stack.extend(const for const in code.co_consts
                     if isinstance(const, CodeType))


def _lines(code: CodeType) -> Set[int]:
    return {lineno for _, _, lineno in code.co_lines() if lineno is not None}


def executable_lines(path: str) -> Set[int]:
    """Line numbers the compiler marks executable (docstrings excluded)."""
    # The compiler attributes module docstrings/constants to line ranges
    # that include the `"""` lines; that is fine for a report.
    return set().union(*map(_lines, _code_objects(path)))


def _module_name(path: str) -> str:
    return os.path.relpath(path, SRC).replace(os.sep, "/")


def function_defs(path: str) -> List[Tuple[int, str, int]]:
    """``(first line, qualname, executable lines)`` of every ``def``.

    Class bodies, lambdas and comprehensions are not ``def``s; a ``def``'s
    lines are its own, without those of the functions nested in it.
    """
    return sorted((code.co_firstlineno, code.co_qualname, len(_lines(code)))
                  for code in _code_objects(path)
                  if code.co_flags & inspect.CO_OPTIMIZED
                  and not code.co_name.startswith("<"))


def _perfbench() -> int:
    """perfbench's four workloads at ``--seconds 1``, in this process."""
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import workloads  # perfbench/ is imported read-only
    from run import WORKLOAD_NAMES, slices_for

    for name in WORKLOAD_NAMES:
        slices = slices_for(name, 1.0)
        workload = workloads.make(name, 7, slices)
        workload.set_up()
        before = workload.counters()
        for _ in range(slices):
            workload.run_slice()
            workload.audit()
        workload.window_metrics(before, workload.counters())
        workload.finish()
    return 0


def _corpus() -> int:
    from repro.campaign.cli import main as campaign
    return campaign(["run"] + sorted(
        glob.glob(os.path.join(REPO, "tests", "scenarios", "*.json"))))


def _paper_claims() -> int:
    import pytest
    return int(pytest.main([
        os.path.join(REPO, "tests", "integration", "test_paper_claims.py"),
        "-q", "-p", "no:cacheprovider"]))


def _examples() -> int:
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py"))):
        saved = sys.argv
        sys.argv = [path]
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as exit_:
            if exit_.code:
                return 1
        finally:
            sys.argv = saved
    return 0


def _explore() -> int:
    from repro.campaign.cli import main as campaign
    return max(campaign(["explore", os.path.join(
        REPO, "tests", "scenarios", f"explore_{scope}.json")])
        for scope in ("active", "batched", "active_passive", "passive"))


def _obs_report() -> int:
    from repro.obs.cli import main as obs
    return obs(["report", "--quick"])


def _paper() -> int:
    from repro.bench.paper import main as paper
    return paper()


def _campaign_batch() -> int:
    from repro.campaign.cli import main as campaign
    return max(
        campaign(["run", "--batch", "2", "--seed", "300", "--style",
                  "passive", "--minimize-on-failure"]),
        campaign(["replay", os.path.join(
            REPO, "tests", "scenarios", "partition_merge.json")]),
        campaign(["rules"]))


def _minimize() -> int:
    from repro.campaign.cli import main as campaign
    # Exit 1: the minimized case still fails, which is what a known bug does.
    # The fix of ROADMAP item 21 makes this case pass, and then the phase
    # needs another failing root.  This one shrinks 6 -> 4 faults in 39 runs
    # (56 s alone on 2 cores, ~200 s under the call hook).
    # passive_smr_divergence.json takes 41 s alone but is already 1-minimal
    # (5 -> 5 in 32 runs), so no candidate is ever accepted.
    return int(campaign(["minimize", os.path.join(
        REPO, "tests", "scenarios", "known_bugs",
        "passive_partition_duplicates.json")]) != 1)


def _mutation_self_test() -> int:
    from repro.campaign.cli import main as campaign
    # Exit 1: the checker caught the injected bug, as CI's `!` requires.
    return int(campaign([
        "explore", os.path.join(REPO, "tests", "scenarios",
                                "explore_short.json"),
        "--mutate", "eager-delivery", "--budget", "2", "--drop-kinds",
        "data", "--export-dir", "explore-cex"]) != 1)


#: The fixed system-use set, in the order it runs.
SYSTEM_USE: Tuple[Tuple[str, Callable[[], int]], ...] = (
    ("perfbench workloads, seed 7, --seconds 1", _perfbench),
    ("repro.campaign run tests/scenarios/*.json", _corpus),
    ("pytest tests/integration/test_paper_claims.py", _paper_claims),
    ("examples/*.py", _examples),
    ("repro.campaign explore, the four CI roots", _explore),
    ("repro.obs report --quick", _obs_report),
    ("python -m repro.bench", _paper),
    ("repro.campaign run --batch 2 --seed 300 --style passive "
     "--minimize-on-failure; replay partition_merge.json; rules",
     _campaign_batch),
    ("repro.campaign minimize known_bugs/passive_partition_duplicates.json",
     _minimize),
    ("repro.campaign explore explore_short.json --mutate eager-delivery "
     "--budget 2 --drop-kinds data --export-dir explore-cex (exit 1)",
     _mutation_self_test),
)


# Why each unreached ``def`` stays.  ``--system-use`` fails when an
# unreached ``def`` has no row here, or a row names a ``def`` that is now
# reached or gone; everything else is deleted (docs/TESTING.md, "What keeps
# the rest").
CODEC = ("safety code: the codec path the round-trip property tests check "
         "the encoder against")
FAILURE = ("safety code: runs only when a check fails or an input is "
           "refused")
TEARDOWN = "safety code: timer teardown when an active-passive node stops"
INTERFACE = "interface declaration"
DUNDER = "record dunder the tests compare or print by"
PERFBENCH = "perfbench/ imports, patches or resolves it (ROADMAP item 3)"
PUSH = "the body of schedule_now / drain_now, which perfbench/ resolves"
OBS = "ROADMAP item 6: the obs/ and trace/ surface waits for its deadline"
OBS_CALLER = "ROADMAP item 6: only MultiRingObservability calls it"
ADMISSION = "ROADMAP item 8(b): the service-admission explorer scope"
MULTIRING_HEAL = ("ROADMAP item 14: a multiring scenario's heal_all; no "
                  "pinned case has one")
TEST_LOOP = ("ROADMAP item 24, open: the scheduler's second event loop "
             "beside run_until, which ~90 unit-test call sites drive")
TEST_READ = ("ROADMAP item 24, open: a read that tests and docs/SERVICE.md "
             "use and no run makes")
KEEP: Dict[Tuple[str, str], str] = {
    ("repro/types.py", "SweepConsumer.__call__"): INTERFACE,
    ("repro/app/smr.py", "StateMachine.apply"): INTERFACE,
    ("repro/app/smr.py", "StateMachine.snapshot"): INTERFACE,
    ("repro/app/smr.py", "StateMachine.restore"): INTERFACE,
    ("repro/campaign/scenario.py", "TimelineEvent._key"): DUNDER,
    ("repro/campaign/scenario.py", "TimelineEvent.__eq__"): DUNDER,
    ("repro/campaign/scenario.py", "TimelineEvent.__hash__"): DUNDER,
    ("repro/campaign/scenario.py", "TimelineEvent.__str__"): DUNDER,
    ("repro/check/invariants.py", "InvariantViolation.__str__"): FAILURE,
    ("repro/check/invariants.py", "NodeProbe._ledger_violation"): FAILURE,
    ("repro/check/invariants.py", "NodeProbe._violation"): FAILURE,
    ("repro/check/invariants.py", "InvariantChecker.record"): FAILURE,
    ("repro/check/invariants.py", "InvariantChecker.assert_clean"): FAILURE,
    ("repro/check/invariants.py", "InvariantChecker.report"): FAILURE,
    ("repro/core/active_passive.py",
     "ActivePassiveReplication._cancel_timers"): TEARDOWN,
    ("repro/core/base.py", "ReplicationEngine._cancel_timers"): INTERFACE,
    ("repro/core/base.py", "ReplicationEngine._style_digest"): INTERFACE,
    ("repro/core/base.py", "ReplicationEngine.recv_data"): INTERFACE,
    ("repro/core/base.py", "ReplicationEngine.recv_token"): INTERFACE,
    ("repro/core/base.py", "ReplicationEngine.broadcast_data"): INTERFACE,
    ("repro/core/base.py", "ReplicationEngine.broadcast_batch"): INTERFACE,
    ("repro/core/base.py", "ReplicationEngine.send_token"): INTERFACE,
    ("repro/multiring/cluster.py", "RingGroup.lans"): OBS_CALLER,
    ("repro/multiring/cluster.py", "RingGroup.scheduler"): OBS_CALLER,
    ("repro/multiring/cluster.py", "RingGroup.now"): OBS_CALLER,
    ("repro/multiring/cluster.py", "MultiRingCluster.now"): OBS_CALLER,
    ("repro/multiring/cluster.py", "MultiRingCluster.heal_cluster"):
        MULTIRING_HEAL,
    ("repro/multiring/merge.py", "MergedLog.__eq__"): DUNDER,
    ("repro/multiring/merge.py", "MergedLog.__repr__"): DUNDER,
    ("repro/multiring/merge.py", "CrossRingMerger.feed"): PERFBENCH,
    ("repro/net/interfaces.py", "Port.broadcast"): INTERFACE,
    ("repro/net/interfaces.py", "Port.unicast"): INTERFACE,
    ("repro/net/stack.py", "_rejected_job"): FAILURE,
    ("repro/net/stack.py", "_DefaultRecvCost.__call__"): INTERFACE,
    ("repro/net/stack.py", "NetworkStack._dispatch"): FAILURE,
    ("repro/obs/cli.py", "_cmd_record"): OBS,
    ("repro/obs/export.py", "samples_to_jsonl"): OBS,
    ("repro/obs/export.py", "write_jsonl"): OBS,
    ("repro/obs/export.py", "read_jsonl"): OBS,
    ("repro/obs/export.py", "prometheus_text"): OBS,
    ("repro/obs/export.py", "_bucket_labels"): OBS,
    ("repro/obs/export.py", "_num"): OBS,
    ("repro/obs/export.py", "load_run_document"): OBS,
    ("repro/obs/health.py", "RingHealthModel.scores"): OBS,
    ("repro/obs/metrics.py", "Metric.key"): OBS,
    ("repro/obs/metrics.py", "Gauge.add"): OBS,
    ("repro/obs/metrics.py", "MetricRegistry.get"): OBS,
    ("repro/obs/metrics.py", "MetricRegistry.__len__"): OBS,
    ("repro/obs/metrics.py", "is_finite"): OBS,
    ("repro/obs/sampler.py", "ObsEvent.__str__"): OBS,
    ("repro/obs/sampler.py", "ClusterObservability.stop"): OBS,
    ("repro/obs/sampler.py", "MultiRingObservability.__init__"): OBS,
    ("repro/obs/sampler.py", "MultiRingObservability.start"): OBS,
    ("repro/obs/sampler.py", "MultiRingObservability.stop"): OBS,
    ("repro/obs/sampler.py",
     "MultiRingObservability.record_fault_injection"): OBS,
    ("repro/service/admission.py", "FairAdmissionQueue.requeue_front"):
        ADMISSION,
    ("repro/service/backpressure.py", "RingPressureMonitor.rebind"):
        ADMISSION,
    ("repro/service/backpressure.py", "RingPressureMonitor.snapshot"):
        ADMISSION,
    ("repro/service/facade.py", "_MultiRingPort.rebind"): FAILURE,
    ("repro/service/facade.py", "ServiceFacade.get"): TEST_READ,
    ("repro/service/facade.py", "ServiceFacade.applied_log_bytes"):
        TEST_READ,
    ("repro/service/facade.py", "ServiceFacade.applied_digest"): TEST_READ,
    ("repro/service/types.py", "_Record.__eq__"): DUNDER,
    ("repro/service/types.py", "_Record.__ne__"): DUNDER,
    ("repro/service/types.py", "_Record.__hash__"): DUNDER,
    ("repro/sim/runtime.py", "TimerHandle.cancel"): INTERFACE,
    ("repro/sim/runtime.py", "TimerHandle.active"): INTERFACE,
    ("repro/sim/runtime.py", "Runtime.now"): INTERFACE,
    ("repro/sim/runtime.py", "Runtime.set_timer"): INTERFACE,
    ("repro/sim/scheduler.py", "EventScheduler.schedule_now"): PERFBENCH,
    ("repro/sim/scheduler.py", "EventScheduler.drain_now"): PERFBENCH,
    ("repro/sim/scheduler.py", "EventScheduler._push"): PUSH,
    ("repro/sim/scheduler.py", "EventScheduler.dead_entries"): TEST_LOOP,
    ("repro/sim/scheduler.py", "EventScheduler.events_processed"):
        TEST_LOOP,
    ("repro/sim/scheduler.py", "EventScheduler.peek_time"): TEST_LOOP,
    ("repro/sim/scheduler.py", "EventScheduler.step"): TEST_LOOP,
    ("repro/sim/scheduler.py", "EventScheduler.run"): TEST_LOOP,
    ("repro/srp/engine.py", "RingTransport.broadcast_data"): INTERFACE,
    ("repro/srp/engine.py", "RingTransport.broadcast_batch"): INTERFACE,
    ("repro/srp/engine.py", "RingTransport.send_token"): INTERFACE,
    ("repro/srp/engine.py", "RingTransport.broadcast_join"): INTERFACE,
    ("repro/srp/engine.py", "RingTransport.send_commit_token"): INTERFACE,
    ("repro/trace/recorder.py", "Tracer.capacity"): OBS,
    ("repro/trace/recorder.py", "Tracer.__len__"): OBS,
    ("repro/trace/recorder.py", "Tracer.tail"): OBS,
    ("repro/trace/recorder.py", "Tracer.clear"): OBS,
    ("repro/trace/recorder.py", "Tracer.format"): OBS,
    ("repro/wire/codec.py", "_run_struct"): CODEC,
    ("repro/wire/codec.py", "_decode_batch"): CODEC,
    ("repro/wire/codec.py", "_decode_token"): CODEC,
    ("repro/wire/codec.py", "_decode_join"): CODEC,
    ("repro/wire/codec.py", "_decode_commit"): CODEC,
    ("repro/wire/packets.py", "Chunk.__eq__"): DUNDER,
    ("repro/wire/packets.py", "Chunk.__hash__"): DUNDER,
    ("repro/wire/packets.py", "Chunk.__repr__"): DUNDER,
    ("repro/wire/packets.py", "Chunk.whole"): PERFBENCH,
    ("repro/wire/packets.py", "DataPacket.__eq__"): DUNDER,
    ("repro/wire/packets.py", "DataPacket.__hash__"): DUNDER,
    ("repro/wire/packets.py", "DataPacket.__repr__"): DUNDER,
    ("repro/wire/packets.py", "BatchPacket.__eq__"): DUNDER,
    ("repro/wire/packets.py", "BatchPacket.__hash__"): DUNDER,
    ("repro/wire/packets.py", "BatchPacket.__repr__"): DUNDER,
    ("repro/wire/packets.py", "BatchPacket.first_seq"): CODEC,
    ("repro/wire/packets.py", "BatchPacket.last_seq"): CODEC,
    ("repro/wire/packets.py", "BatchPacket.packet_type"): CODEC,
    ("repro/wire/packets.py", "BatchPacket.validate"): CODEC,
    ("repro/wire/packets.py", "JoinMessage.packet_type"): CODEC,
    ("repro/wire/packets.py", "CommitToken.packet_type"): CODEC,
    ("repro/wire/packets.py", "packet_type_of"): CODEC,
}


Def = Tuple[str, str, int]


def unreached(called: Set[Tuple[str, int, str]]) -> Tuple[int, List[Def]]:
    """``(def count, unreached defs)``; a def is ``(module, qualname,
    executable lines)`` and is reached when ``(path, first line, name)`` is
    in ``called``."""
    total = 0
    missed: List[Def] = []
    for root, dirs, files in os.walk(PKG):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            defs = function_defs(path)
            total += len(defs)
            missed += [(_module_name(path), qualname, count)
                       for first, qualname, count in defs
                       if (path, first, qualname.rpartition(".")[2])
                       not in called]
    return total, missed


def undecided(missed: List[Def], keep: Dict[Tuple[str, str], str]
              ) -> List[str]:
    """One line per unreached ``def`` without a row and per stale row."""
    names = {(module, qualname) for module, qualname, _ in missed}
    return ([f"{module}: `{qualname}` is unreached and has no KEEP row"
             for module, qualname, _ in missed
             if (module, qualname) not in keep]
            + [f"{module}: the KEEP row for `{qualname}` names a def that "
               f"is reached or gone"
               for module, qualname in keep
               if (module, qualname) not in names])


def render_reach(total_defs: int, missed: List[Def],
                 keep: Dict[Tuple[str, str], str]) -> str:
    """docs/REACH.md: the unreached ``def``s by module, each with the
    reason its KEEP row gives."""
    modules: Dict[str, List[Def]] = {}
    for entry in missed:
        modules.setdefault(entry[0], []).append(entry)
    sections = [
        f"## `{module}`: {len(defs)} unreached "
        f"({sum(count for _, _, count in defs)} lines)\n\n"
        + "".join(f"- `{qualname}` ({count} lines): "
                  f"{keep.get((module, qualname), '**no KEEP row**')}\n"
                  for _, qualname, count in defs)
        for module, defs in modules.items()]
    phases = "".join(f"- {label}\n" for label, _ in SYSTEM_USE)
    return (
        "# What system use reaches\n\n"
        "Generated by `python tools/linecov.py --system-use`; do not edit.\n"
        "Every `def` in `src/repro` that no phase of the fixed system-use\n"
        "set calls (docs/TESTING.md, \"What system use reaches\"), with the\n"
        "reason its row in `KEEP` (`tools/linecov.py`) gives:\n\n"
        f"{phases}\n"
        f"**{len(missed)} of {total_defs} `def`s unreached "
        f"({sum(count for _, _, count in missed)} executable lines).**\n\n"
        + "\n".join(sections))


def check_keep(called: Set[Tuple[str, int, str]],
               keep: Dict[Tuple[str, str], str] = KEEP) -> int:
    """Write docs/REACH.md for ``called``; 1 if a ``def`` is undecided."""
    total, missed = unreached(called)
    with open(REACH_MD, "w", encoding="utf-8") as handle:
        handle.write(render_reach(total, missed, keep))
    errors = undecided(missed, keep)
    for error in errors:
        print(f"linecov: {error}", file=sys.stderr)
    return 1 if errors else 0


def system_use() -> int:
    """Run SYSTEM_USE under a call-event hook and write docs/REACH.md."""
    sys.path.insert(0, SRC)
    codes: Set[object] = set()

    def on_call(frame, event, arg, _add=codes.add):
        _add(frame.f_code)  # returns None: no line events

    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for label, phase in SYSTEM_USE:
                started = time.time()
                threading.settrace(on_call)
                sys.settrace(on_call)
                try:
                    status = phase()
                finally:
                    sys.settrace(None)
                    threading.settrace(None)  # type: ignore[arg-type]
                failed += status != 0
                print(f"linecov: {label}: exit {status} "
                      f"({time.time() - started:.0f} s)", file=sys.stderr)
        finally:
            os.chdir(cwd)
    prefix = PKG + os.sep
    called = {(os.path.abspath(code.co_filename), code.co_firstlineno,
               code.co_name) for code in codes
              if os.path.abspath(code.co_filename).startswith(prefix)}
    status = check_keep(called)
    print(f"linecov: wrote {os.path.relpath(REACH_MD, REPO)}",
          file=sys.stderr)
    return 1 if failed or status else 0


def main() -> int:
    argv = sys.argv[1:]
    if argv == ["--system-use"]:
        return system_use()
    min_report = 100.0
    if "--min-report" in argv:
        i = argv.index("--min-report")
        min_report = float(argv[i + 1])
        del argv[i:i + 2]
    if not argv:
        argv = ["tests", "-q", "-p", "no:cacheprovider"]

    sys.path.insert(0, SRC)
    hits: Dict[str, Set[int]] = {}
    prefix = PKG + os.sep

    def local_trace(frame, event, arg):
        if event == "line":
            hits_for_file.add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        nonlocal hits_for_file
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits_for_file = hits.setdefault(filename, set())
        return local_trace

    hits_for_file: Set[int] = set()

    import pytest

    sys.settrace(global_trace)
    try:
        exit_code = pytest.main(argv)
    finally:
        sys.settrace(None)

    rows: list[Tuple[float, str, int, int]] = []
    total_hit = total_lines = 0
    for root, _dirs, files in os.walk(PKG):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            lines = executable_lines(path)
            if not lines:
                continue
            covered = len(lines & hits.get(path, set()))
            total_hit += covered
            total_lines += len(lines)
            percent = 100.0 * covered / len(lines)
            rows.append((percent, _module_name(path), covered, len(lines)))

    rows.sort()
    print("\nline coverage (settrace approximation, lowest first):")
    for percent, module, covered, count in rows:
        if percent <= min_report:
            print(f"  {percent:6.1f}%  {module}  ({covered}/{count})")
    if total_lines:
        print(f"  total: {100.0 * total_hit / total_lines:.1f}% "
              f"({total_hit}/{total_lines} lines)")
    return int(exit_code)


if __name__ == "__main__":
    sys.exit(main())
