"""Spans recorded around calls into dsconflict, for the traced run only.

:meth:`Tracer.install` replaces module attributes of dsconflict with timing
wrappers and :meth:`Tracer.remove` puts the originals back; nothing is
installed during an untraced run.  Each span keeps its name, start, end and
parent in memory; :meth:`Tracer.write` stores them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import types
from collections import defaultdict
from time import perf_counter

#: The layers the traced run reports; ``interp.*`` and ``import.*`` are timed
#: in child interpreters, the rest by wrappers on the module attributes below.
SPAN_NAMES = (
    "interp.start",
    "import.dsconflict",
    "import.numpy",
    "cli.run",
    "document.load",
    "document.json",
    "document.dump",
    "core.make_bpa",
    "core.mass_function",
    "fusion.conflict_k",
    "fusion.combine_dempster",
    "measures.jousselme_distance",
    "measures.correlation_coefficient",
    "measures.dif_betp",
    "measures.song_cor",
    "measures.conflict_report",
    "measures.gram_positive_definite",
    "sweep.sweep_rows",
    "sweep.sweep_csv",
)

COUNT_NAMES = (
    "document.bytes_in",
    "document.bytes_out",
    "document.focal_in",
    "fusion.focal_pairs",
    "fusion.focal_out",
    "measures.song_subsets",
)


def _count_combination(counts, args, result):
    m1, m2 = args[:2]
    counts["fusion.focal_pairs"] += len(m1) * len(m2)
    counts["fusion.focal_out"] += len(result.combined)


def _count_song(counts, args, result):
    counts["measures.song_subsets"] += (1 << args[0].frame.size) - 1


def _count_dump(counts, args, result):
    counts["document.bytes_out"] += os.path.getsize(args[1])


def _count_bpa(counts, args, result):
    counts["document.focal_in"] += len(result)


def _count_json(counts, args, result):
    counts["document.bytes_in"] += len(args[0].encode())


# (module, attribute, span, counter).  The cli entries wrap the names cli.py
# imported, so a CLI call and an in-process call each pass one wrapper.
PATCHES = (
    ("cli", "run", "cli.run", None),
    ("cli", "load", "document.load", None),
    ("cli", "dump", "document.dump", _count_dump),
    ("cli", "conflict_report", "measures.conflict_report", None),
    ("cli", "combine_dempster", "fusion.combine_dempster", _count_combination),
    ("cli", "sweep_rows", "sweep.sweep_rows", None),
    ("cli", "sweep_csv", "sweep.sweep_csv", None),
    ("cli", "gram_positive_definite", "measures.gram_positive_definite", None),
    ("document", "make_bpa", "core.make_bpa", _count_bpa),
    ("fusion", "MassFunction", "core.mass_function", None),
    ("fusion", "combine_dempster", "fusion.combine_dempster", _count_combination),
    ("measures", "conflict_k", "fusion.conflict_k", None),
    ("measures", "jousselme_distance", "measures.jousselme_distance", None),
    ("measures", "dif_betp", "measures.dif_betp", None),
    ("measures", "correlation_coefficient", "measures.correlation_coefficient", None),
    ("measures", "song_cor", "measures.song_cor", _count_song),
    ("measures", "conflict_report", "measures.conflict_report", None),
    ("measures", "gram_positive_definite", "measures.gram_positive_definite", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span timed elsewhere; returns its index."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr, name, count in PATCHES:
            owner = importlib.import_module(f"dsconflict.{module}")
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), count))
        document = importlib.import_module("dsconflict.document")
        shim = types.SimpleNamespace(**vars(document.json))
        shim.loads = self.wrap("document.json", shim.loads, _count_json)
        self._patch(document, "json", shim)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        result = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(i, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(end - start - covered)
        return result

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``<span>.calls``, ``.self_ms``, ``.median_ms`` and every count."""
        durations: dict[str, list[float]] = defaultdict(list)
        selfs: dict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            durations[name].append(end - start)
            selfs[name] += own
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            calls = durations.get(name, [])
            out[f"{name}.calls"] = (len(calls), "count")
            out[f"{name}.self_ms"] = (1e3 * selfs.get(name, 0.0), "ms")
            out[f"{name}.median_ms"] = (1e3 * statistics.median(calls) if calls else 0.0, "ms")
        for name in COUNT_NAMES:
            out[name] = (self.counts.get(name, 0), "count")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)
