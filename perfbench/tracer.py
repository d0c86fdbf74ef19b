"""Span tracer that wraps heckelab's public functions from outside.

Only the traced run installs it.  `install` replaces a function in every
loaded heckelab.* module namespace that binds it, since `from .x import f`
copies the reference (forms.neighbors is hecke.neighbors, cli binds most of
the library).  Each call records one span (name, start, end, parent span,
op id) in compact arrays; `spans()` and `write()` give them back.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array


class Target:
    """One function to wrap.

    key: maps the call's arguments to a hashable value; when given, calls
    whose key was already seen count as repeats.  count: maps the result to
    a number summed into the span name's `count` total.
    """

    def __init__(self, module, attr, key=None, count=None):
        self.module = module
        self.attr = attr
        self.key = key
        self.count = count

    @property
    def name(self):
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.names = [t.name for t in self.targets]
        self.op = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self.repeats = [0] * len(self.targets)
        self.counts = [0] * len(self.targets)
        self._patched = []

    def _wrap(self, index, target, fn):
        name_ = self._name
        parent_ = self._parent
        op_ = self._op
        start_ = self._start
        end_ = self._end
        stack = self._stack
        seen = set()
        clock = time.perf_counter
        key, count = target.key, target.count

        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    self.repeats[index] += 1
                else:
                    seen.add(k)
            span = len(name_)
            name_.append(index)
            parent_.append(stack[-1] if stack else -1)
            op_.append(self.op)
            end_.append(0.0)
            stack.append(span)
            start_.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_[span] = clock()
                stack.pop()
            if count is not None:
                self.counts[index] += count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "heckelab" or name.startswith("heckelab."))
        ]
        for index, target in enumerate(self.targets):
            original = getattr(sys.modules[f"heckelab.{target.module}"], target.attr)
            wrapper = self._wrap(index, target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """(name, start, end, parent, op) per span, in call order."""
        return list(zip(
            (self.names[i] for i in self._name),
            self._start, self._end, self._parent, self._op,
        ))

    def summary(self) -> dict:
        """Per name: calls, time_s (outermost spans), self_s, repeats, count."""
        n = len(self._name)
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0.0] * n
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                   "repeats": self.repeats[i], "count": self.counts[i]}
            for i, name in enumerate(self.names)
        }
        names = self._name
        parents = self._parent
        for i in range(n):
            s = out[self.names[names[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                s["time_s"] += dur[i]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of `name` that have a span of `ancestor` above them."""
        want, anc = self.names.index(name), self.names.index(ancestor)
        names, parents = self._name, self._parent
        total = 0
        for i in range(len(names)):
            if names[i] != want:
                continue
            p = parents[i]
            while p >= 0 and names[p] != anc:
                p = parents[p]
            total += p >= 0
        return total

    def write(self, path) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        columns = [("name", self._name), ("start", self._start), ("end", self._end),
                   ("parent", self._parent), ("op", self._op)]
        header = {
            "names": self.names,
            "count": len(self._name),
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in columns:
                a.tofile(fh)


def read_spans(path):
    """Inverse of Tracer.write: (name, start, end, parent, op) tuples."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for column, typecode, _ in header["columns"]:
            a = array(typecode)
            a.fromfile(fh, header["count"])
            cols[column] = a
    names = header["names"]
    return list(zip((names[i] for i in cols["name"]), cols["start"], cols["end"],
                    cols["parent"], cols["op"]))
