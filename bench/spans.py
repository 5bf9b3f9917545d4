"""Spans recorded by the benchmark around its own calls into substdyn.

A span is (name, start, end, parent, op id) plus optional counts read off
the value the call returned.  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._closed = -1

    @contextmanager
    def span(self, name: str, op_id: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": op_id,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._closed = self._open.pop()

    def call(self, name: str, op_id: str, fn, *args, **kwargs):
        with self.span(name, op_id):
            return fn(*args, **kwargs)

    def note(self, **counts: int) -> None:
        """Attach counts to the span that closed last."""
        self.spans[self._closed]["counts"].update(counts)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


def wrap_library_calls(module, tracer: Tracer, current_op) -> dict:
    """Route every substdyn function ``module`` imported through a span.

    Covers each function whose defining module is another substdyn module,
    so that ``cli.run`` self time is its span minus these children.
    Returns the originals, for :func:`unwrap`.
    """
    originals = {}
    for attr, value in vars(module).items():
        if not inspect.isfunction(value):
            continue
        home = value.__module__
        if not home.startswith("substdyn.") or home == module.__name__:
            continue
        name = f"{home.split('.', 1)[1]}.{value.__name__}"

        def traced(*args, _fn=value, _name=name, **kwargs):
            with tracer.span(_name, current_op()):
                return _fn(*args, **kwargs)

        originals[attr] = value
        setattr(module, attr, traced)
    return originals


def unwrap(module, originals: dict) -> None:
    for attr, value in originals.items():
        setattr(module, attr, value)
