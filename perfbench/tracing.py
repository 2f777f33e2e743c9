"""In-memory spans recorded around the benchmark's calls into the package.

A root span covers one operation (or one set-up); a child span covers one
call into a public function of the package. Spans are only recorded here,
in the benchmark's own code: the package is not instrumented. Each span is
``[span_id, parent_id, op_id, name, start_ns, end_ns, scale]``, where
``op_id`` is the id of the root span the call belongs to and ``scale`` the
host-speed scale of that root (see ``calibrate.py``); durations are raw.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    def begin(self, name: str, scale: float) -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Tracing on: keeps every span in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._root: int | None = None

    def begin(self, name: str, scale: float) -> None:
        self._root = len(self.spans)
        self._scale = scale
        self.spans.append([self._root, None, self._root, name, perf_counter_ns(), 0, scale])

    def end(self) -> None:
        self.spans[self._root][5] = perf_counter_ns()
        self._root = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        end = perf_counter_ns()
        self.spans.append([len(self.spans), self._root, self._root, name, start, end, self._scale])
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["span_id","parent_id","op_id","name","start_ns","end_ns","scale"]\n')
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per child-span name: p50 self time, call count and time share.

        A span's self time is its duration minus the durations of its
        children, scaled to the reference host speed. The share is the
        layer's summed self time over the summed duration of the root spans
        (operations or set-ups) it was called from.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        root_total: dict[str, float] = defaultdict(float)
        self_ns: dict[str, list[float]] = defaultdict(list)
        called_from: dict[str, set[str]] = defaultdict(set)
        names = [span[3] for span in self.spans]
        for span_id, parent, _, name, start, end, scale in self.spans:
            own = (end - start - child_ns[span_id]) * scale
            if parent is None:
                root_total[name] += (end - start) * scale
            else:
                self_ns[name].append(own)
                called_from[name].add(names[parent])
        stats = {}
        for name, values in self_ns.items():
            base = sum(root_total[root] for root in called_from[name])
            stats[name] = {
                "self_ms_p50": statistics.median(values) / 1e6,
                "calls": len(values),
                "share_pct": 100.0 * sum(values) / base if base else 0.0,
            }
        return stats
