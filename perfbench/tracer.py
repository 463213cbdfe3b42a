"""In-memory span tracing of the phaseloss layers, driven from outside the package.

The layers are the package's modules.  ``Tracer.install`` wraps every public
function defined in a layer module and rebinds *every* module attribute that
is bound to the original function object, because functions such as
``build_kraus``, ``solve_sld`` and ``complete_report`` are imported by name
into several modules.  ``Tracer.restore`` puts every original back.

A span is ``[name, start, end, parent, op]``; ``parent`` is the enclosing
span record (or None) and ``op`` the benchmark operation it belongs to.  A
span opened in a worker thread with no open span of its own takes as parent
the innermost span open in the thread that installed the tracer, so spans of
the CLI's thread pool nest under the CLI call that submitted them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

PACKAGE = "phaseloss"
LAYERS = ("linalg", "channel", "qfi", "iss", "gaussian", "bounds",
          "measurement", "cli")


class Tracer:
    """Collects spans of wrapped layer functions; one instance per run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._home_stack = None
        self._wrappers = {}
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        clock = time.perf_counter
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home and home is not stack else None
            rec = [name, 0.0, 0.0, parent, parent[4] if parent else self.op]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def layer_functions(self):
        """Map each public function object of a layer module to its span name."""
        found = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    found[val] = f"{layer}.{attr}"
        return found

    def install(self, modules):
        """Rebind, in every given module, each attribute bound to a layer function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        names = self.layer_functions()
        for fn, name in names.items():
            if fn not in self._wrappers:
                self._wrappers[fn] = self.wrap(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in self._wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, self._wrappers[val])
        self._home_stack = self._stack()

    def restore(self):
        """Put back every attribute that ``install`` rebound."""
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)
        self._home_stack = None

    def dump(self, path):
        """Write the spans as JSON: name, start, end, parent index, op."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[r[0], r[1], r[2], index[id(r[3])] if r[3] is not None else -1, r[4]]
                for r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, fh)


def package_modules():
    """The package and its layer modules: every place a layer function is bound."""
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]


def self_times(spans):
    """Self time and call count per span name.

    A span's self time is its duration minus the part of it covered by open
    child spans.  When spans of several threads are open at once, each
    instant is shared equally among the spans that have no open child, so
    the self times of all spans add up to the time covered by root spans.
    """
    index = {id(rec): i for i, rec in enumerate(spans)}
    parent = [None if rec[3] is None else index.get(id(rec[3])) for rec in spans]
    # at equal times: ends before starts, inner ends before outer ends,
    # outer starts before inner starts
    events = sorted([(rec[1], 1, i) for i, rec in enumerate(spans)]
                    + [(rec[2], 0, -i) for i, rec in enumerate(spans)])
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    self_s = [0.0] * len(spans)
    active = set()
    last = None
    for t, starts, key in events:
        if active and t > last:
            share = (t - last) / len(active)
            for j in active:
                self_s[j] += share
        last = t
        i, p = abs(key), parent[abs(key)]
        is_open[i] = bool(starts)
        if starts:
            active.add(i)
            if p is not None:
                active.discard(p)
                open_children[p] += 1
        else:
            active.discard(i)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    active.add(p)
    out = {}
    for rec, s in zip(spans, self_s):
        total, calls = out.get(rec[0], (0.0, 0))
        out[rec[0]] = (total + s, calls + 1)
    return out
