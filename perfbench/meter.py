"""Timing of benchmark operations on a shared host.

Times are CPU times of this process (time.process_time), rescaled to a
fixed host speed.  The load is one thread of pure-Python work, so its CPU
time leaves out the time the host gives to other tenants; but on a
shared 2-vCPU VM the CPU time of the same code still drifts by up to a
half over tens of seconds, as co-tenants share the cores' caches and
clock.  So before every run a fixed arithmetic loop, the reference, is
timed as well, and the run's CPU time is multiplied by REFERENCE_S over
the median of the reference times around it: a time is in seconds of a
host on which the reference takes REFERENCE_S.  The reference is code of
the benchmark's own, so a change to the library does not move it.

How many runs a measurement makes is fixed in advance and never depends
on how fast the host is: an operation is its case's fixed number of runs
back to back and counts at the median of the rescaled runs, and a
measurement makes a fixed number of passes over the cases.

Each run has a time limit in CPU seconds, enforced with ITIMER_PROF in
this one thread; a run over it raises CaseTimeout inside the operation,
counts at the limit itself and is not repeated.
"""

from __future__ import annotations

import gc
import signal
import statistics
import traceback
from time import process_time
from types import SimpleNamespace

REFERENCE_LOOP = 100_000
# CPU seconds of the reference loop on the reference host: a 2-vCPU
# Linux VM, Python 3.11.7 (median of 200 runs).
REFERENCE_S = 0.0085
# Reference times on each side of a run that its median is taken over.
REFERENCE_WINDOW = 3


def reference_s():
    """CPU time of the reference loop, a probe of the host's speed."""
    t0 = process_time()
    total = 0
    for k in range(REFERENCE_LOOP):
        total += k * k % 7
    return process_time() - t0


def scales(refs, window=REFERENCE_WINDOW):
    """For each reference time, the factor that rescales a run timed
    next to it: REFERENCE_S over the median of its neighbours."""
    return [REFERENCE_S / statistics.median(refs[max(0, i - window):i + window + 1]) for i in range(len(refs))]


class CaseTimeout(BaseException):
    """Raised by SIGPROF inside an operation that ran past its limit.

    A BaseException, so that no handler inside the library absorbs it."""


def _on_limit(signum, frame):
    raise CaseTimeout()


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


class Meter:
    """Runs the cases of one workload under its time limit.

    Use as a context manager: it owns the SIGPROF handler while open."""

    def __init__(self, lib, limit, tracer=None):
        self.lib = lib
        self.limit = limit
        self.tracer = tracer
        self.refs = []
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGPROF, _on_limit)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._saved)

    def run_case(self, case):
        """Run the case once; returns (run, status, message, output), where
        run is the CPU time and the index of the reference taken before."""
        if self.tracer is not None:
            self.tracer.reset()
        # Every run starts from the same collector state, whatever the
        # previous one left behind.
        gc.collect()
        self.refs.append(reference_s())
        out, status, message = None, "ok", ""
        t0 = process_time()
        signal.setitimer(signal.ITIMER_PROF, self.limit)
        try:
            try:
                out = case.call()
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except CaseTimeout:
            status, message = "timeout", f"over the {self.limit:g} s CPU limit"
        except self.lib.construct.PlannerStuckError as exc:
            status, message = "stuck", str(exc)
        except Exception as exc:
            status = "exception"
            message = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return (process_time() - t0, len(self.refs) - 1), status, message, out

    def run_operation(self, case, runs):
        """One operation of the case: `runs` runs.  Status and output are
        those of the first run; a timeout is not repeated."""
        run, status, message, out = self.run_case(case)
        done = [run]
        if status != "timeout":
            done += [self.run_case(case)[0] for _ in range(runs - 1)]
        return SimpleNamespace(case=case, runs=done, seconds=None, status=status, message=message, out=out)

    def run_passes(self, cases, passes, single=False):
        """`passes` whole passes over the cases, in order, each operation
        one run if `single`, else its case's runs.  Each operation's
        `seconds` is the median of its rescaled runs, or the limit on a
        timeout."""
        done = [[self.run_operation(case, 1 if single else case.runs) for case in cases] for _ in range(passes)]
        scale = scales(self.refs)
        for ops in done:
            for op in ops:
                if op.status == "timeout":
                    op.seconds = self.limit
                else:
                    op.seconds = statistics.median(sec * scale[i] for sec, i in op.runs)
        return done
