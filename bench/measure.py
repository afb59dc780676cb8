"""Measurement helpers: percentiles, outcome counts, an in-memory span
tracer, attribute patching for traced calls, a machine-speed reference and a
child-process runner that reports peak RSS."""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Percentile:
    value: float
    samples: int
    beyond: int  # samples strictly above the rank, i.e. in the tail


def percentile(values, share: float) -> Percentile:
    """Nearest-rank percentile (share in (0, 1]) with its sample count."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(share * len(xs)))
    return Percentile(value=xs[rank - 1], samples=len(xs),
                      beyond=len(xs) - rank)


@dataclass
class Outcomes:
    """Operations on keyed inputs, split into ok, refused and wrong.

    A workload may run the same input many times (the route loops cycle a
    fixed set of pairings).  `attempted` and `failed` count distinct inputs,
    not operations, so they depend only on the seed and not on how many
    repetitions fit in the run: an input has failed when any of its
    operations failed.

    refused: the program raised its documented failure (a RoutingError) —
    counted as a failed operation, not as wrong output.
    wrong: the program returned output that a check rejected; the run is then
    not correct.
    """

    latencies: list[float] = field(default_factory=list)  # ok ops only
    refused: int = 0  # operations
    wrong: int = 0  # operations
    notes: list[str] = field(default_factory=list)
    tried: set = field(default_factory=set)  # keys of inputs run
    failed_keys: set = field(default_factory=set)

    def ok(self, seconds: float, key) -> None:
        self.latencies.append(seconds)
        self.tried.add(key)

    def refuse(self, key) -> None:
        self.refused += 1
        self.tried.add(key)
        self.failed_keys.add(key)

    def reject(self, why: str, key) -> None:
        self.wrong += 1
        self.tried.add(key)
        self.failed_keys.add(key)
        if len(self.notes) < 10:
            self.notes.append(why)

    @property
    def operations(self) -> int:
        return len(self.latencies) + self.refused + self.wrong

    @property
    def attempted(self) -> int:
        return len(self.tried)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


class Tracer:
    """Spans kept in memory: [op, name, parent index, start, end].

    `op` is set by the caller to a string shared by all spans of one
    operation.  Nesting follows the call stack, so a span opened inside
    another records it as parent.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op: str = ""
        self._stack: list[int] = []

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def stop(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stop(idx)

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[Any], None] | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop(idx)
            if observe is not None:
                observe(result)
            return result
        return traced

    def per_op(self, name: str) -> list[float]:
        """Seconds spent in spans called `name`, summed per operation, for
        each operation that entered one (outermost spans of that name only,
        so recursion is not double counted)."""
        totals: dict[str, float] = {}
        for op, span_name, parent, start, end in self.spans:
            if span_name != name or self._inside(parent, name):
                continue
            totals[op] = totals.get(op, 0.0) + (end - start)
        return list(totals.values())

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][2]
        return False

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


class Patch:
    """Replace module attributes for the duration of a `with` block.

    Used only by traced operations, to put spans around calls that the
    program makes internally, without editing the program."""

    def __init__(self, replacements: list[tuple[Any, str, Callable]]):
        self.replacements = replacements
        self.saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patch":
        for module, attr, fn in self.replacements:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, fn)
        return self

    def __exit__(self, *exc) -> None:
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)


REF_ITERS = 20_000
REF_NOMINAL_S = 0.001
SAMPLE_EVERY_S = 0.1  # one reference sample per this much measured time


class Speed:
    """The machine's current speed, from a fixed pure-Python reference loop
    timed in thread CPU time at points where the program is not running.

    A shared host can run the same code 30% slower for minutes at a time;
    the reference loop slows down with it, so times multiplied by `factor()`
    (REF_NOMINAL_S over the run's median reference time) are what they would
    be on a machine where the loop takes exactly REF_NOMINAL_S.  Thread CPU
    time keeps threads or processes the program leaves running from slowing
    the reference and flattering the program.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent sampling

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(count):
            t0 = time.thread_time()
            x = 0
            for i in range(REF_ITERS):
                x += i * i
            self.samples.append(time.thread_time() - t0)
        self.spent += time.perf_counter() - start

    def sample_for(self, seconds: float) -> None:
        """Sample in proportion to `seconds` of measured work just done, so
        that every stretch of the run weighs the same in the median."""
        self.sample(max(1, round(seconds / SAMPLE_EVERY_S)))

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.samples)


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    seconds: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], env: dict[str, str], workdir: str,
              timeout: float, cpus: set[int]) -> ChildResult:
    """Run one command to completion on `cpus`; wall time and the child's
    own peak RSS (ru_maxrss, KiB on Linux) come from os.wait4.  Output goes
    through files so a chatty child can never block on a full pipe."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return ChildResult(exit_code=proc.returncode, seconds=seconds,
                           peak_rss_mb=usage.ru_maxrss / 1024,
                           stdout=out.read(), stderr=err.read())


def median(values) -> float:
    return statistics.median(values) if values else 0.0
