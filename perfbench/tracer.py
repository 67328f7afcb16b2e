"""Spans recorded from outside the package, around each call into a layer.

A span is (name, start, end, parent, unit): the unit is the training step or
detection window it belongs to, and every span opened inside a unit span is
its descendant. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict
from contextlib import contextmanager

UNIT = "unit"

# Span name prefix -> layer (module) it is charged to.
_LAYER_OF_PREFIX = {"lstm": "ann", "head": "ann"}


def layer_of(name: str) -> str:
    """``snn2.fwd`` -> ``snn``, ``lstm1.fwd`` -> ``ann``, ``unit`` -> ``unit``."""
    prefix = re.sub(r"\d+$", "", name.split(".")[0])
    return _LAYER_OF_PREFIX.get(prefix, prefix)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, unit]
        self._open: list[int] = []
        self._unit = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._unit])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def unit(self, k: int):
        """Root span of step or window ``k``."""
        self._unit = k
        with self.span(UNIT):
            yield

    def unit_ms(self) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == UNIT]

    def self_ms(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [(s[2] - s[1]) * 1e3 for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= (s[2] - s[1]) * 1e3
        return out

    def totals_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total duration per span name, total self time per layer)."""
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_ms()):
            by_name[s[0]] += (s[2] - s[1]) * 1e3
            by_layer[layer_of(s[0])] += own
        return dict(by_name), dict(by_layer)

    def to_records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start_ms": round((start - t0) * 1e3, 4),
                "end_ms": round((end - t0) * 1e3, 4),
                "parent": parent,
                "unit": unit,
            }
            for name, start, end, parent, unit in self.spans
        ]
