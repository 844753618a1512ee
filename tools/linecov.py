#!/usr/bin/env python
"""Dependency-free line coverage and system-use reach for the repro package.

``coverage``/``pytest-cov`` are the real tools (CI runs them); this is the
no-install fallback for environments that only have the standard library.
It installs a ``sys.settrace`` hook filtered to ``src/repro``, runs pytest
in-process, and reports per-module line coverage against the executable
lines recovered from each module's compiled code objects.

``--system-use`` instead runs the fixed system-use set (SYSTEM_USE below)
in this one process under a call-event-only hook, and writes
``docs/REACH.md``: every ``def`` in ``src/repro`` that no phase calls.
The list is deterministic, so CI regenerates it and diffs it.

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


#: The fixed system-use set, in the order it runs.
SYSTEM_USE: Tuple[Tuple[str, Callable[[], int]], ...] = (
    ("perfbench workloads, seed 7, --seconds 1", _perfbench),
    ("repro.campaign run tests/scenarios/*.json", _corpus),
    ("pytest tests/integration/test_paper_claims.py", _paper_claims),
    ("examples/*.py", _examples),
    ("repro.campaign explore, the four CI roots", _explore),
    ("repro.obs report --quick", _obs_report),
)


def render_reach(called: Set[Tuple[str, int, str]]) -> str:
    """docs/REACH.md: the unreached ``def``s, grouped by module."""
    sections: List[str] = []
    total_defs = total_unreached = total_lines = 0
    for root, dirs, files in os.walk(PKG):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            defs = function_defs(path)
            missed = [(qualname, count) for first, qualname, count in defs
                      if (path, first, qualname.rpartition(".")[2])
                      not in called]
            total_defs += len(defs)
            if not missed:
                continue
            lines = sum(count for _, count in missed)
            total_unreached += len(missed)
            total_lines += lines
            sections.append(
                f"## `{_module_name(path)}`: {len(missed)} of {len(defs)} "
                f"unreached ({lines} lines)\n\n"
                + "".join(f"- `{qualname}` ({count} lines)\n"
                          for qualname, count in missed))
    phases = "".join(f"- {label}\n" for label, _ in SYSTEM_USE)
    return (
        "# What system use reaches\n\n"
        "Generated by `python tools/linecov.py --system-use`; do not edit.\n"
        "Every `def` in `src/repro` that no phase of the fixed system-use\n"
        "set calls (docs/TESTING.md, \"What system use reaches\"):\n\n"
        f"{phases}\n"
        f"**{total_unreached} of {total_defs} `def`s unreached "
        f"({total_lines} executable lines).**\n\n"
        + "\n".join(sections))


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
    with open(REACH_MD, "w", encoding="utf-8") as handle:
        handle.write(render_reach(called))
    print(f"linecov: wrote {os.path.relpath(REACH_MD, REPO)}",
          file=sys.stderr)
    return 1 if failed else 0


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
