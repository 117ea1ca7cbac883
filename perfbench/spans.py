"""Span tracer that wraps the public functions of the umpbounds modules.

Every module-level public function of a layer module is replaced by a wrapper
that records one span per call: (id, parent id, name, start ns, end ns). The
wrapper is installed at the defining module's attribute and at every other
package module that imported the same function object (as `cli` does), so
calls through either name are seen. Spans stay in memory and are written
once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LAYERS = ("cli", "achievability", "converse", "asymptotics", "cosets", "channel", "numerics")

# Spans of these functions also record their arguments, to count repeated scans.
HEADER_SCANS = (
    "achievability.max_log2M_header_ach_best",
    "converse.header_conv_max_log2M_bsc_best",
    "converse.header_conv_max_log2M_bec_best",
)


class Tracer:
    def __init__(self, run_id: str, record_args: Sequence[str] = HEADER_SCANS):
        self.run_id = run_id
        self.record_args = set(record_args)
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.args: Dict[str, List[str]] = defaultdict(list)
        self.wrapped: Dict[str, object] = {}
        self._next_id = 1
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ install

    def install(self, modules: Dict[str, object], package_modules: Iterable[object]) -> None:
        """Wrap every public function of each layer module.

        `modules` maps layer name -> module; `package_modules` are all modules
        whose attributes may hold imported copies of those functions.
        """
        package_modules = list(package_modules)
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod in package_modules:
                    for other_attr, other in list(vars(mod).items()):
                        if other is fn:
                            setattr(mod, other_attr, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        keep_args = name in self.record_args

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            if keep_args:
                tracer.args[name].append(repr((args, sorted(kwargs.items()))))
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))

        self.wrapped[name] = wrapper
        return wrapper

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ output

    def write(self, path: str) -> None:
        """One JSON line per span: run id, id, parent, name, start ns, end ns."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps([self.run_id, span_id, parent, name, start, end]) + "\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, self.args, set(self.wrapped))


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanSummary:
    """Per-function counts and times computed from a finished span list."""

    def __init__(self, spans, args, wrapped_names):
        self.wrapped = set(wrapped_names)
        self.args = dict(args)
        by_id = {s[0]: s for s in spans}
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for span_id, parent, _name, start, end in spans:
            if parent:
                children[parent].append((start, end))
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.durations_ns: Dict[str, List[int]] = defaultdict(list)
        self.calls_under: Dict[Tuple[str, str], int] = defaultdict(int)
        # longest root span: name, incl ns, self ns, summed direct children ns
        self.top: Optional[Tuple[str, int, int, int]] = None
        for span_id, parent, name, start, end in spans:
            dur = end - start
            kids = children.get(span_id, [])
            self_ns = dur - _union_ns(kids)
            self.calls[name] += 1
            self.incl_ns[name] += dur
            self.self_ns[name] += self_ns
            self.durations_ns[name].append(dur)
            parent_name = by_id[parent][2] if parent in by_id else ""
            self.calls_under[(name, parent_name)] += 1
            if not parent and (self.top is None or dur > self.top[1]):
                self.top = (name, dur, self_ns, sum(e - s for s, e in kids))

    def incl_s(self, name: str) -> float:
        return self.incl_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def p50_us(self, name: str) -> float:
        d = self.durations_ns.get(name)
        return statistics.median(d) / 1e3 if d else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1e9

    def unique_ratio(self, names: Sequence[str]) -> Optional[float]:
        """Distinct argument tuples over calls, across the named functions."""
        keys = [(n, a) for n in names for a in self.args.get(n, [])]
        return len(set(keys)) / len(keys) if keys else None
