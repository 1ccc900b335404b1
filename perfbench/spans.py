"""Spans recorded from outside the program, and the wrappers that emit them.

The benchmark never edits the library.  A traced run installs wrappers
around public functions and methods (``Module.__call__``,
``Tensor.backward``, ``ServingPipeline.submit``, ...), each wrapper opens a
span on entry and closes it on exit, and :meth:`Tracer.restore` puts every
original object back when the run ends.

A span is ``(id, parent, name, start, end, thread)``.  Parents are tracked
per thread: a span opened while another span of the same thread is open
is that span's child.  Spans are kept in memory and written out once, by
:func:`write_chrome_trace`, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, int]

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the patches it installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of this thread's innermost open span (``None``: none)."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def current_id(self) -> int:
        stack = self._stack()
        return stack[-1][0] if stack else 0

    def begin(self, name: str) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        stack.append((next(self._ids), name, parent, perf_counter()))

    def end(self) -> float:
        """Close this thread's innermost span; returns its duration."""
        sid, name, parent, start = self._stack().pop()
        end = perf_counter()
        self.spans.append((sid, parent, name, start, end,
                           threading.get_ident()))
        return end - start

    def discard(self) -> None:
        """Drop this thread's innermost open span without recording it."""
        self._stack().pop()

    def record(self, name: str, start: float, end: float,
               parent: int = 0) -> None:
        """Add a span whose interval was measured elsewhere."""
        self.spans.append((next(self._ids), parent, name, start, end,
                           threading.get_ident()))

    # -- patches -------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def patch_function(self, function: Callable, replacement) -> None:
        """Replace ``function`` in every ``repro`` module that binds it.

        Functions imported by name (``from repro.nn import predict_probs``)
        live on in the importing module; patching only the defining module
        would miss those call sites.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or
                                      name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.patch(module, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             skip_inside: Tuple[str, ...] = ()) -> None:
        """Open a span named ``name`` around every call of ``owner.attr``.

        Calls made while this thread's innermost span is one of
        ``skip_inside`` run unwrapped — how the outermost of nested calls
        (a module calling its child modules) is the only one recorded.
        """
        original = getattr(owner, attr)
        self.patch(owner, attr, self.wrapper(original, name, skip_inside))

    def wrap_function(self, function: Callable, name: str,
                      skip_inside: Tuple[str, ...] = ()) -> None:
        self.patch_function(function,
                            self.wrapper(function, name, skip_inside))

    def wrapper(self, original: Callable, name: str,
                skip_inside: Tuple[str, ...] = ()) -> Callable:
        begin, end, current = self.begin, self.end, self.current

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if skip_inside and current() in skip_inside:
                return original(*args, **kwargs)
            begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end()

        return traced

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [end - start for _, _, n, start, end, _ in self.spans
                if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds and self seconds.

    Self time is a span's duration minus the part of it its children
    cover (children of one parent may overlap when they ran on several
    threads; the union of their intervals is what is subtracted).
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    table: Dict[str, Dict[str, float]] = {}
    for sid, _, name, start, end, _ in spans:
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return table


def format_self_times(table: Dict[str, Dict[str, float]]) -> str:
    header = f"{'span':<34}{'count':>9}{'total s':>11}{'self s':>11}"
    lines = [header, "-" * len(header)]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<34}{row['count']:>9}{row['total_s']:>11.3f}"
                     f"{row['self_s']:>11.3f}")
    return "\n".join(lines)


def write_chrome_trace(path, spans: List[Span]) -> None:
    """Write spans as Chrome trace events (open in Perfetto offline)."""
    origin = min((s[3] for s in spans), default=0.0)
    events = [{"name": name, "ph": "X", "pid": 1, "tid": thread,
               "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
               "args": {"id": sid, "parent": parent}}
              for sid, parent, name, start, end, thread in spans]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
