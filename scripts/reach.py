#!/usr/bin/env python3
"""List the qstrata functions that a run never enters.

A line tracer (sys.settrace, stdlib only) follows only the frames whose
code lies under src/qstrata and records each function once a line of its
body has run.  After the run, every function, method, nested function and
lambda in src/qstrata none of whose body lines ran is printed with its
file and line.  Two runs are known:

    tier1      the Tier-1 tests, in-process through pytest.main
    workloads  two seed-1 rounds of every workload in perfbench/workloads.py;
               only the jobs are traced, not the checks of their outputs

Run from anywhere; with no argument both runs are made, each in a fresh
interpreter so that one run's caches do not hide calls from the other:

    python3 scripts/reach.py [tier1 | workloads]

Nothing is written under the repository: bytecode writing is off and the
tests run with a temporary working directory.  Subprocesses a test starts
are not traced.  Tier-1 takes minutes under the tracer, so this is a tool
to run by hand, not a CI step.
"""

import inspect
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qstrata"
_SKIPPED = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def _key(code):
    return Path(code.co_filename).name, code.co_firstlineno, code.co_qualname


def all_functions():
    """(file name, first line, qualified name) of every function in src/qstrata."""
    out, todo = set(), []
    for path in sorted(SRC.glob("*.py")):
        todo.append(compile(path.read_text(), str(path), "exec"))
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in _SKIPPED:
            out.add(_key(code))
    return out


class Reach:
    """The code objects under src/qstrata that ran a line, collected by a
    global trace function that turns line tracing on only in those frames
    and off again after a frame's first line."""

    def __init__(self):
        self.ran = set()
        self._inside = {}  # co_filename -> under src/qstrata?

    def _call(self, frame, event, arg):
        code = frame.f_code
        inside = self._inside.get(code.co_filename)
        if inside is None:
            inside = os.path.realpath(code.co_filename).startswith(str(SRC) + os.sep)
            self._inside[code.co_filename] = inside
        return self._line if inside and code not in self.ran else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add(frame.f_code)
            return None  # one line is enough: stop tracing this frame
        return self._line

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


def run_tier1(reach):
    import pytest

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:  # hypothesis keeps its examples in the cwd
        os.chdir(scratch)
        reach.start()
        try:
            code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors", "-c", str(ROOT / "pyproject.toml")])
        finally:
            reach.stop()
            os.chdir(cwd)
    return "pytest exit code %d" % code


def run_workloads(reach):
    sys.path[:0] = [str(SRC.parent), str(ROOT / "perfbench")]
    import workloads

    jobs = failed = 0
    for name, workload in workloads.WORKLOADS.items():
        for round_no in (0, 1):
            for job in workload.round(workloads.DEFAULT_SEED, round_no):
                reach.start()
                try:
                    out = workload.run(job)
                except Exception as exc:  # a failed job still shows what it reached
                    out = exc
                finally:
                    reach.stop()
                jobs += 1
                failed += isinstance(out, Exception) or bool(workload.check(job, out))
    return "%d jobs, %d failed" % (jobs, failed)


RUNS = {"tier1": run_tier1, "workloads": run_workloads}


def main(argv):
    if not argv:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        return max(subprocess.run([sys.executable, __file__, name], env=env).returncode for name in RUNS)
    (name,) = argv
    reach = Reach()
    summary = RUNS[name](reach)
    never = sorted(all_functions() - {_key(code) for code in reach.ran})
    print("== %s (%s): %d functions in src/qstrata ran no body line" % (name, summary, len(never)))
    for file, line, qualname in never:
        print("  %s:%d %s" % (file, line, qualname))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
