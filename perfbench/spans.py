"""In-memory span recorder for the traced benchmark run.

Spans are recorded only by the benchmark's own code, around its calls into
the public functions of each layer (``repro.sampling``, ``repro.dk``, ...).
Every traced operation is one root span named ``op``; a span's *self time*
is its duration minus the durations of its direct children, so the self
times of one op's spans add up to the op's wall time exactly, and the root
span's own self time is the residual no layer accounts for (benchmark glue
and the library's bookkeeping between layer calls).
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass

ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


class Tracer:
    """Records spans and counters; written out once the run has ended."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Root span of one traced operation; nested spans carry ``op_id``."""
        if self._stack:
            raise RuntimeError("a traced op cannot nest inside another span")
        self._op = op_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self._op = ""

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with :attr:`spans`."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, ops: bool) -> dict[str, float]:
        """Summed self time per span name, over spans inside traced ops
        (``ops=True``) or outside them (set-up spans, ``ops=False``)."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times(), strict=True):
            if bool(s.op) == ops:
                out[s.name] = out.get(s.name, 0.0) + own
        return out

    def op_walls(self) -> dict[str, float]:
        """Wall time of each traced op's root span."""
        return {s.op: s.end - s.start for s in self.spans if s.name == ROOT}

    def write(self, path: str) -> None:
        """JSON lines: one span per line (times relative to the first span),
        then one line of counters."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for index, (s, own) in enumerate(
                zip(self.spans, self.self_times(), strict=True)
            ):
                record = asdict(s)
                record.update(
                    id=index, start=s.start - origin, end=s.end - origin, self=own
                )
                f.write(json.dumps(record) + "\n")
            f.write(json.dumps({"counts": self.counts}) + "\n")
