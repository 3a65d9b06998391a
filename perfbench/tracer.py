"""In-memory span recorder for the benchmark's traced run.

The recorder replaces public functions in the namespaces their callers look
them up in, so the program under test is not edited.  Every call through a
wrapper becomes one span ``[name, start, end, parent]``; spans stay in memory
until the run ends and are written out once.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Records nested spans; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str) -> None:
        """Route ``owner.attr`` through a span named ``name`` until ``restore``.

        A wrap point the program no longer has is reported and skipped, so the
        traced run still measures every layer that remains.
        """
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  f"span {name!r} is not recorded", file=sys.stderr)
            return

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_by_level(self, owner, attr: str, prefix: str) -> None:
        """Like ``patch`` for an oracle whose first argument is the level."""
        original = getattr(owner, attr)
        names = {level: f"{prefix}.l{level}" for level in (1, 2, 3)}

        def wrapper(level, *args):
            return self.call(names[level], original, level, *args)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total time and self time (total minus direct children) per name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += end - start
            st.self_s += end - start - child_s[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}, separators=(",", ":")))
                fh.write("\n")
