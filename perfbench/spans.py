"""In-memory spans around the benchmark's own calls into each layer.

A span is ``(id, name, start, end, parent, request_id)`` with times from
``time.perf_counter``.  Spans stay in memory while the benchmark runs and
are written out once, at the end, so recording costs one tuple append.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str,
             request_id: Optional[int] = None) -> Iterator[int]:
        """Time the enclosed block; nested spans on this thread get it as
        their parent."""
        span_id = next(self._ids)
        parent = getattr(self._local, "current", None)
        self._local.current = span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._local.current = parent
            self.spans.append((span_id, name, start, end, parent, request_id))

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None,
               request_id: Optional[int] = None) -> int:
        """Add a span timed elsewhere (e.g. a request completed on another
        thread)."""
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, request_id))
        return span_id

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans
                if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "request_id": r} for i, n, s, e, p, r in self.spans]
        path.write_text(json.dumps({"meta": meta, "spans": rows}))
