"""Spans recorded around calls into the weyl2uni modules, from outside them.

``Tracer.install`` replaces each traced function with a wrapper that records a
span (name, start, end, parent, op id) and restores the originals on
``uninstall``.  A function imported by name into several modules
(``from .partitions import is_member``) is replaced in every ``weyl2uni.*``
namespace that binds the same object; methods are replaced on their class, so
``isinstance`` and ``Partition(...)`` keep working.  Generator functions get
one span per ``next`` step, so the time a consumer spends between steps is
not charged to the generator.

Spans live in one flat ``array('q')``: five integers per span.  ``summary``
turns them into per-name call counts and self times (a span's duration minus
the durations of its direct children).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

FIELDS = 5  # name id, start ns, end ns, parent span index (-1 for none), op id

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def begin(self, nid: int) -> int:
        i = len(self.spans) // FIELDS
        stack = self.stack
        self.spans.extend((nid, _now(), 0, stack[-1] if stack else -1, self.op))
        stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[FIELDS * i + 2] = _now()
        self.stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper recording one span per call; hooks run outside the span."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(i)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def wrap_generator(self, name: str, fn, before=None, per_item=None):
        """A wrapper for a generator function: one span per ``next`` step."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        def drive(gen):
            while True:
                i = begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end(i)
                if per_item is not None:
                    per_item(item)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            return drive(fn(*args, **kwargs))

        return traced

    # -- installing wrappers -------------------------------------------------

    def replace_function(self, module, attr: str, wrapper) -> None:
        """Rebind module.attr to wrapper in every weyl2uni namespace binding it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "weyl2uni" or mod_name.startswith("weyl2uni.")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading spans -------------------------------------------------------

    def summary(self) -> tuple[Counter, Counter]:
        """(calls, self_ns) per span name, over every span recorded so far."""
        spans, names = self.spans, self.names
        n = len(spans) // FIELDS
        by_nid_calls = [0] * len(names)
        by_nid_self = [0] * len(names)
        nids = spans[0::FIELDS]
        for k in range(n):
            base = FIELDS * k
            nid = nids[k]
            dur = spans[base + 2] - spans[base + 1]
            by_nid_calls[nid] += 1
            by_nid_self[nid] += dur
            parent = spans[base + 3]
            if parent >= 0:
                by_nid_self[nids[parent]] -= dur
        calls = Counter({names[i]: c for i, c in enumerate(by_nid_calls) if c})
        self_ns = Counter({names[i]: s for i, s in enumerate(by_nid_self) if by_nid_calls[i]})
        return calls, self_ns

    def write(self, path) -> None:
        """Write the spans as raw int64 records plus a name index beside them."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(str(path) + ".names.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names}, fh)
