"""In-memory spans around the program's layer boundaries.

The benchmark records spans from its own code: ``Tracer.wrap`` replaces a
module attribute that the program looks up at call time (for example
``cgmflow.dca.solve_ssp``) with a wrapper that opens a span around the
original.  Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    """Spans of one process: name, solve index, parent span, start, end."""

    def __init__(self) -> None:
        self.spans: list = []
        self.solve = -1  # index of the solve the next spans belong to
        self._stack: list = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.solve, self._stack[-1] if self._stack else -1,
                  time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        """Trace every call the program makes through ``module.attr``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for n, _, _, start, end in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans less what their direct children cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(
            end - start for _, _, parent, start, end in self.spans if parent in own
        )
        return self.total(name) - children

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for i, (name, solve, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "solve": solve,
                                         "parent": parent, "start": start,
                                         "end": end}) + "\n")
