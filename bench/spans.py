"""In-memory spans and counts, recorded around the benchmark's calls into the program.

A span has a name (``<module>.<function>`` for a call into the program,
``op.<name>`` for one benchmark operation), start and end on the
``perf_counter`` clock, the id of the span that was open when it started, and
the operation id shared by every span of one operation.  Counts ride on the
span at the boundary where the work happens.  Nothing is written until
``write``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @property
    def current_op(self) -> str | None:
        return self.spans[self._open[-1]]["op"] if self._open else None

    def self_seconds_by_id(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children[s["id"]]):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out.append((s["end"] - s["start"]) - covered)
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time summed by span name."""
        out: dict[str, float] = defaultdict(float)
        for s, sec in zip(self.spans, self.self_seconds_by_id()):
            out[s["name"]] += sec
        return dict(out)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed by layer, the module part of the span name."""
        out: dict[str, float] = defaultdict(float)
        for name, sec in self.self_seconds().items():
            out[name.split(".", 1)[0]] += sec
        return dict(out)

    def write(self, path, **extra) -> None:
        doc = dict(extra)
        doc["spans"] = self.spans
        doc["self_ms_by_span"] = {k: v * 1e3 for k, v in sorted(self.self_seconds().items())}
        doc["self_ms_by_layer"] = {k: v * 1e3 for k, v in sorted(self.layer_self_seconds().items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
