"""In-memory span tracer for the topicross modules.

``Tracer.install`` wraps every public function and every public method of a
public class defined in ``topicross.<layer>`` for each layer in ``LAYERS``,
and rebinds every module attribute that still refers to the original. That
covers callers that reach a function through ``from .solver import solve``
as well as through ``module.func`` or a method. Functions are discovered,
not listed, so a function that a refactor removes is simply absent and a
new one is traced without a change here.

Names in ``skip`` are left unwrapped; their time stays in the caller's self
time. Each call records one span: name, start, end, parent span and request id.
Spans are kept in flat arrays until the run ends. A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS = ("pipeline", "lexicon", "grid", "solver", "puzzle", "harness", "util", "cli")

Hook = Callable[[dict, tuple, dict, object], None]


def _targets(package: str, skip: frozenset[str]) -> list[tuple[object, str, Callable, str]]:
    """(owner, attribute, function, span name) for every traced callable."""
    out = []
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            continue
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                if f"{layer}.{attr}" not in skip:
                    out.append((module, attr, obj, f"{layer}.{attr}"))
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                if getattr(obj, "_is_protocol", False):
                    continue
                for name, member in sorted(vars(obj).items()):
                    span = f"{layer}.{attr}.{name}"
                    if not name.startswith("_") and inspect.isfunction(member) and span not in skip:
                        out.append((obj, name, member, span))
    return out


class Tracer:
    def __init__(self, hooks: dict[str, Hook] | None = None, skip: frozenset[str] = frozenset()):
        self.hooks = hooks or {}
        self.skip = skip
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request = 0
        self.counters: dict[str, float] = {}
        self.hook_errors: dict[str, str] = {}
        self.installed: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        sid = self._id(name)
        hook = self.hooks.get(name)
        span_name, parent, request_of = self.span_name, self.parent, self.request_of
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1])
            request_of.append(tracer.request)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(tracer.counters, args, kwargs, result)
                except (AttributeError, TypeError, KeyError) as exc:
                    tracer.hook_errors[name] = repr(exc)
            return result

        return functools.wraps(fn)(traced)

    @staticmethod
    def span_cost_s(calls: int = 50_000) -> float:
        """Seconds a traced call adds over a plain one, measured on a no-op
        wrapped by a throwaway tracer; the best of five rounds."""

        def noop() -> None:
            return None

        traced = Tracer()._wrap(noop, "noop")
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return best

    def install(self, package: str = "topicross") -> None:
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for owner, attr, fn, name in _targets(package, self.skip):
            wrapper = self._wrap(fn, name)
            wrappers[id(fn)] = (fn, wrapper)
            self.installed.add(name)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        prefix = package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, pair[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        """A span opened by the benchmark itself, e.g. around one operation."""
        if request is not None:
            self.request = request
        i = len(self.span_name)
        self.span_name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.request_of.append(self.request)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    def aggregate(self, request: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, over all
        spans or over the spans of one request."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        span_name = self.span_name
        request_of = self.request_of
        for i in range(n):
            if request is not None and request_of[i] != request:
                continue
            s = stats[names[span_name[i]]]
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
        return stats
