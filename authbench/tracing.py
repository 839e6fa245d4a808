"""In-memory spans recorded around the benchmark's calls into authlab.

A span has a name, an operation id, a parent span (-1 for none), a start and
an end in perf_counter nanoseconds; its id is its index in the owning tracer.
Each thread owns its own tracer, so appends need no lock and the children of
one span never overlap in time. Fields live in flat arrays to keep a long
traced run small.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")

    def open(self, name: str, op: int, parent: int = -1) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.op.append(op)
        self.parent.append(parent)
        self.end.append(0)
        self.start.append(perf_counter_ns())
        return len(self.start) - 1

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()

    def self_times(self) -> dict[str, list[int]]:
        """Self time (duration minus the direct children's durations) of every
        span, in nanoseconds, grouped by span name."""
        covered = [0] * len(self.start)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                covered[parent] += end - start
        by_name: dict[str, list[int]] = defaultdict(list)
        for name_id, start, end, child in zip(self.name, self.start, self.end, covered):
            by_name[self.names[name_id]].append(end - start - child)
        return by_name


def merged_self_times(tracers: list[Tracer]) -> dict[str, list[int]]:
    merged: dict[str, list[int]] = defaultdict(list)
    for tracer in tracers:
        for name, values in tracer.self_times().items():
            merged[name].extend(values)
    return merged


def median_of(self_times: dict[str, list[int]], name: str, scale: float) -> float:
    """Median self time of the spans called `name`, divided by `scale`; 0 when
    the run recorded none (the workload never makes that call)."""
    values = self_times.get(name)
    return statistics.median(values) / scale if values else 0.0


def write_spans(path: Path, tracers: list[Tracer]) -> int:
    """Write every span as one tab-separated line; returns the span count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("thread\tspan\tparent\top\tname\tstart_ns\tend_ns\n")
        for thread, tracer in enumerate(tracers):
            rows = zip(tracer.parent, tracer.op, tracer.name, tracer.start, tracer.end)
            for sid, (parent, op, name_id, start, end) in enumerate(rows):
                fh.write(f"{thread}\t{sid}\t{parent}\t{op}\t{tracer.names[name_id]}\t{start}\t{end}\n")
            count += len(tracer.start)
    return count
