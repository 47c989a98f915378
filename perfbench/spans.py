"""In-memory span recorder and the self-time arithmetic over its span tree.

A span is (name, start, end, parent, group): parent is the index of the span
that was open when this one started (-1 for a root), and group is an id shared
by the spans of one A2C update or one protocol episode. Spans live in flat
arrays while the run is going and are written out once, when it ends.

The recorder keeps one stack, so it assumes a single thread: the benchmark runs
every workload with `TrainConfig.workers=1`.
"""

from __future__ import annotations

import gzip
import time
from array import array


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # name id -> name
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group_of = array("i")
        self.group = 0
        self.counts = {}
        self._stack = []

    def __len__(self):
        return len(self.start)

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group_of.append(self.group)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index):
        self.end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[self.name_id[index]]!r} closed out of order")

    def inside(self, name):
        """True when a span with this name is open on the stack."""
        nid = self._ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._stack)

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def next_group(self):
        self.group += 1

    def span_names(self):
        return [self.names[i] for i in self.name_id]

    def summary(self):
        """{name: (calls, total self time in seconds)}."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {}
        for nid, s in zip(self.name_id, selfs):
            name = self.names[nid]
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + s)
        return out

    def write(self, path):
        """One CSV row per span: id, name, start, end, parent, group."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start,end,parent,group\n")
            for i, nid in enumerate(self.name_id):
                f.write(
                    f"{i},{self.names[nid]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.group_of[i]}\n"
                )


def self_times(starts, ends, parents):
    """Each span's duration minus the part of its interval that its direct
    children cover. Children are clipped to the parent's interval and their
    overlaps are counted once, so the result never goes below zero."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out
