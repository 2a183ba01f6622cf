"""Spans around calls into semiforge's public functions, recorded from
outside the package.

``Tracer.install`` replaces every public function of the five modules,
and the public ``Semigroup`` constructors and structure methods, with a
wrapper that records one span per call: name, start, end and the index
of the enclosing span.  Calls between modules go through module
attributes, so a harness's call into the tree kernel becomes a child
span.  Spans stay in memory; the caller writes them out at the end.
Work done inside the package's fork-pool workers is not seen: its time
shows as the self time of the span that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

MODULES = ("semigroup", "tree", "closedsets", "analytics", "cli")

# Views called inside other layers' inner loops (is_closed_set calls
# contains per pair): one span each would outweigh the work they trace.
_UNTRACED_METHODS = {"contains", "gaps", "gap_string", "members_upto", "nth_member"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(index, name, start)

    def _enter(self) -> int:
        index = len(self.spans)
        self.spans.append((None, 0.0, 0.0, self._open[-1] if self._open else -1))
        self._open.append(index)
        return index

    def _leave(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._open.pop()
        self.spans[index] = (name, start, end, self.spans[index][3])

    def _wrap(self, name: str, fn):
        enter, leave, clock = self._enter, self._leave, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index, name, start)

        return traced

    def install(self) -> None:
        for mod_name in MODULES:
            module = importlib.import_module(f"semiforge.{mod_name}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                self._patch(module, attr, self._wrap(f"{mod_name}.{attr}", value))
        from semiforge.semigroup import Semigroup

        for attr, value in list(vars(Semigroup).items()):
            if attr.startswith("_") or attr in _UNTRACED_METHODS:
                continue
            name = f"semigroup.Semigroup.{attr}"
            if isinstance(value, classmethod):
                self._patch(Semigroup, attr, classmethod(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                self._patch(Semigroup, attr, self._wrap(name, value))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # reading the spans

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called ``name`` recorded from index ``since``."""
        return [end - start for n, start, end, _ in self.spans[since:] if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per module spent in its own spans and not in a child span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start) - child
        return out
