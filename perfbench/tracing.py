"""Spans recorded from outside the program, by wrapping module functions.

A Tracer wraps every module-level function of the named relmon modules and
rebinds each wrapper under every name that refers to the original in any
loaded ``relmon`` module, because modules import each other's functions by
name (``from .pam import check_pam_axioms``). Each timed wrapper records one
span: function, start, end and the enclosing span. Generator functions are
counted but not timed, since their body runs after the call returns. Methods
of the dataclasses are left alone, except the accessors named in
``counted_methods``, which are counted only.

Spans live in flat arrays while the run goes on; ``Spans.dump`` writes them
out and ``summarize`` derives every per-function and per-module figure from
them.
Leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Iterable

PACKAGE = "relmon"
ROOT = -1  # parent index of a span opened outside any other span


class Tracer:
    """While entered, wraps the module-level functions of ``package.<m>`` for
    each m in ``modules``. ``counted_methods`` lists (module, class, method)
    accessors to count only; ``tag_args`` maps "module.function" to a key of
    its arguments, so that the distinct keys seen can be counted."""

    def __init__(
        self,
        modules: Iterable[str],
        counted_methods: Iterable[tuple[str, str, str]] = (),
        tag_args: dict[str, Callable] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        package: str = PACKAGE,
    ) -> None:
        self.package = package
        self.modules = tuple(modules)
        self.counted_methods = tuple(counted_methods)
        self.tag_args = dict(tag_args or {})
        self.clock = clock
        self.spans = Spans([], array("i"), array("i"), array("d"), array("d"))
        self._tag_ids: dict[object, int] = {}
        self._counters: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fid: int, func: Callable) -> Callable:
        spans = self.spans
        fn, parent, start, end = spans.fn, spans.parent, spans.start, spans.end
        stack = self._stack
        clock = self.clock
        tag = self.tag_args.get(spans.names[fid])
        tags, tag_ids = spans.tags, self._tag_ids

        def wrapper(*args, **kwargs):
            if tag is not None:
                tags[len(fn)] = tag_ids.setdefault(tag(*args, **kwargs), len(tag_ids))
            i = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return self._dress(wrapper, func)

    def _counting(self, name: str, func: Callable) -> Callable:
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return func(*args, **kwargs)

        return self._dress(wrapper, func)

    def _counting_method(self, name: str, func: Callable) -> Callable:
        cell = self._counters.setdefault(name, [0])

        def method(self, a, b):
            cell[0] += 1
            return func(self, a, b)

        return self._dress(method, func)

    @staticmethod
    def _dress(wrapper: Callable, func: Callable) -> Callable:
        functools.update_wrapper(wrapper, func)
        for attr in ("cache_clear", "cache_info"):  # lru_cache entry points
            if hasattr(func, attr):
                setattr(wrapper, attr, getattr(func, attr))
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- install / restore --------------------------------------------------

    def _targets(self) -> list[tuple[str, Callable]]:
        out = []
        for short in self.modules:
            mod = importlib.import_module(f"{self.package}.{short}")
            for attr, obj in vars(mod).items():
                defined_here = getattr(obj, "__module__", None) == mod.__name__
                if defined_here and (inspect.isfunction(obj) or hasattr(obj, "cache_clear")):
                    out.append((f"{short}.{attr}", obj))
        return out

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        if self.spans.names or self._counters:
            raise RuntimeError("a Tracer records one run; make a new one")
        self._stack = [ROOT]
        wrappers: dict[int, Callable] = {}
        names = self.spans.names
        for name, func in self._targets():
            if inspect.isgeneratorfunction(func):
                wrappers[id(func)] = self._counting(name, func)
            else:
                names.append(name)
                wrappers[id(func)] = self._timed(len(names) - 1, func)
        for mod in _package_modules(self.package):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for short, cls_name, meth in self.counted_methods:
            cls = getattr(sys.modules[f"{self.package}.{short}"], cls_name)
            self._patch(cls, meth, self._counting_method(f"{short}.{meth}", getattr(cls, meth)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
        self.spans.call_counts = {name: cell[0] for name, cell in self._counters.items()}


class Spans:
    """Recorded spans, as parallel arrays indexed by span number, plus the
    call counts of the count-only wrappers."""

    def __init__(self, names, fn, parent, start, end) -> None:
        self.names = list(names)  # function id -> "module.function"
        self.fn, self.parent, self.start, self.end = fn, parent, start, end
        self.tags: dict[int, int] = {}  # span index -> interned argument key
        self.call_counts: dict[str, int] = {}

    def _columns(self) -> tuple[array, ...]:
        return (self.fn, self.parent, self.start, self.end)

    def dump(self, path: str) -> None:
        """Write the arrays to path + '.bin' and their index to path + '.json'."""
        with open(path + ".bin", "wb") as fh:
            for col in self._columns():
                col.tofile(fh)
        index = {
            "spans": len(self.fn),
            "typecodes": [col.typecode for col in self._columns()],
            "names": self.names,
            "call_counts": self.call_counts,
            "tags": sorted(self.tags.items()),
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh)

    @classmethod
    def load(cls, path: str) -> "Spans":
        """Read back what dump wrote."""
        with open(path + ".json", encoding="utf-8") as fh:
            index = json.load(fh)
        cols = []
        with open(path + ".bin", "rb") as fh:
            for typecode in index["typecodes"]:
                col = array(typecode)
                col.fromfile(fh, index["spans"])
                cols.append(col)
        spans = cls(index["names"], *cols)
        spans.tags = {int(i): int(t) for i, t in index["tags"]}
        spans.call_counts = dict(index["call_counts"])
        return spans


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per function: calls, total time, self time and distinct tagged arguments.

    Self time is a span's duration minus the time its child spans cover.
    Children nest inside their parent on a single thread, so that coverage
    is the sum of the children's durations.
    """
    fn, parent, start, end = spans.fn, spans.parent, spans.start, spans.end
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p != ROOT:
            child[p] += dur[i]
    k = len(spans.names)
    calls, total, own = [0] * k, [0.0] * k, [0.0] * k
    for i, f in enumerate(fn):
        calls[f] += 1
        total[f] += dur[i]
        own[f] += dur[i] - child[i]
    distinct: dict[int, set] = {}
    for i, t in spans.tags.items():
        distinct.setdefault(fn[i], set()).add(t)
    out = {
        name: {"calls": calls[f], "total_s": total[f], "self_s": own[f]}
        for f, name in enumerate(spans.names)
    }
    for f, seen in distinct.items():
        out[spans.names[f]]["distinct_args"] = len(seen)
    for name, n in spans.call_counts.items():
        out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})["calls"] = n
    return out


def module_self_times(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed over the functions of each module."""
    out: dict[str, float] = {}
    for name, row in summary.items():
        mod = name.split(".", 1)[0]
        out[mod] = out.get(mod, 0.0) + row["self_s"]
    return out


def _package_modules(package: str) -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]


def installed_wrappers(package: str = PACKAGE) -> list[str]:
    """Names in the package's loaded modules that are still bound to a wrapper."""
    out = []
    for mod in _package_modules(package):
        for attr, obj in vars(mod).items():
            if getattr(obj, "__perfbench_wrapper__", False):
                out.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, val in vars(obj).items():
                    if getattr(val, "__perfbench_wrapper__", False):
                        out.append(f"{mod.__name__}.{attr}.{meth}")
    return out
