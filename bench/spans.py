"""Spans around calls into expann's public functions, kept in memory.

The tracer replaces each traced function, in every loaded expann module
that holds it, by a wrapper that records (name, start, end, parent, op).
Nothing in expann's source changes; `uninstall` puts the originals back.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# layer -> public functions timed at their call sites
TRACED = {
    "jsonio": ("load_grid", "dump_grid", "load_series", "dump_series", "load_sum", "dump_sum"),
    "expspace": ("sample",),
    "detection": ("detect", "detect_univariate"),
    "operators": ("grid_residual", "chain_apply"),
    "subdivision": ("auto_refine", "refine"),
    "oracle": ("random_instance",),
}


def _size(name: str, result) -> int | None:
    """Work counted at the span: serialized bytes, or refined samples."""
    if name.startswith("jsonio.dump_"):
        return len(result.encode("utf-8"))
    if name == "subdivision.auto_refine":
        return len(result[0])
    return None


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, op id, size or None)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter_ns(), 0, parent, self.op, None))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, op, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op, None)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            size = _size(name, result)
            if size is not None:
                self.spans[idx] = self.spans[idx][:5] + (size,)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an expann module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "expann" or n.startswith("expann.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"expann.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def sizes_by_op(self, name: str) -> dict[int, int]:
        out: dict[int, int] = {}
        for n, _, _, _, op, size in self.spans:
            if n == name and size is not None:
                out[op] = out.get(op, 0) + size
        return out

    def dump(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "size")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
