"""In-memory spans around the benchmark's calls into cfsmkit, and GC pauses.

A span is ``(span_id, check_id, name, start, end, parent_id)``, appended when
it closes; ``parent_id`` is -1 for a root.  Each check opens one root span
named ``check`` and every call it makes into cfsmkit is a child span named
``<module>.<call>``.  Spans sit only at the benchmark's own call sites, so
time a call spends in other modules belongs to the called layer: for example
``compose.compose`` includes the compatibility check and gateway construction
that ``compose()`` runs internally, and ``gtir.validate`` includes the
projections and compatibility checks it makes.  The root span's self time is
the benchmark's own glue between calls.
"""

from __future__ import annotations

import gc
import json
import resource
from collections import defaultdict
from time import perf_counter

from workloads import NoTrace

ROOT_SPAN = "check"
COLUMNS = ("span_id", "check_id", "name", "start", "end", "parent_id")


class Tracer:
    def __init__(self):
        # Tuples of plain values, which the cyclic GC stops tracking, so
        # the growing list does not lengthen collections in later checks.
        self.spans: list[tuple] = []
        self.check_id = 0
        self._next_id = 0
        self._open: list[int] = []

    def call(self, name, fn, *args):
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._open[-1] if self._open else -1
        self._open.append(span_id)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append((span_id, self.check_id, name, start, end, parent_id))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        names = {span[0]: span[2] for span in self.spans}
        totals: dict[str, float] = defaultdict(float)
        for _, _, name, start, end, parent_id in self.spans:
            totals[name] += end - start
            if parent_id >= 0:
                totals[names[parent_id]] -= end - start
        return dict(totals)

    def write(self, path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(dict(header, columns=COLUMNS, spans=self.spans), f, separators=(",", ":"))


class ExploreMemory(NoTrace):
    """Growth of the process's peak resident set across each
    ``system.explore`` call, while the exploration result is still alive."""

    def __init__(self):
        self.growth_bytes = 0

    def call(self, name, fn, *args):
        if name != "system.explore":
            return fn(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = fn(*args)
        self.growth_bytes += (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
        return result


class GcMonitor:
    """Collections and pause time by generation while ``active``, observed
    through ``gc.callbacks``."""

    def __init__(self):
        self.active = False
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)

    def __call__(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pause_s += perf_counter() - self._started
            self.collections[info["generation"]] += 1
