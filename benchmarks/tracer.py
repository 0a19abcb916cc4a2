"""Outside-in tracer: records a span around every call of the public functions
of the spinwitness modules without changing the package.

A module imports a function with ``from .model import spin_state``, which
copies the binding, so patching only the defining module would miss calls.
:func:`install` therefore replaces every binding of each traced function
object across the ``spinwitness.*`` modules, the ``scipy.optimize.minimize``
binding in ``spinwitness.loophole`` (traced as ``loophole.slsqp``) and the
command functions held in ``cli._COMMANDS``.

Spans are kept in memory in flat arrays (name, parent, start, end) and
written out when the run ends.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array

#: modules whose public functions are traced, in dependency order
MODULES = ("model", "qstate", "witnesses", "stats", "tomography", "loophole", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        idx = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_slsqp(self, minimize):
        """``minimize`` counting each result's ``nit``, ``nfev`` and failure:
        a call that raises or returns a non-zero status."""
        def counted(*args, **kwargs):
            try:
                res = minimize(*args, **kwargs)
            except BaseException:
                self.count("loophole.slsqp.failed")
                raise
            self.count("loophole.slsqp.nit", int(res.nit))
            self.count("loophole.slsqp.nfev", int(res.nfev))
            if res.status != 0:
                self.count("loophole.slsqp.failed")
            return res

        return self.wrap("loophole.slsqp", counted)

    def wrap_lambda_min(self, lambda_min):
        """``lambda_min`` counting calls whose arguments already occurred
        earlier in the process; probability vectors compare by content."""
        seen = set()
        signature = inspect.signature(lambda_min)

        def keyed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            key = tuple(v.probs.tobytes() if hasattr(v, "probs") else v
                        for v in bound.arguments.values())
            if key in seen:
                self.count("stats.lambda_min.repeat_calls")
            seen.add(key)
            return lambda_min(*args, **kwargs)

        return self.wrap("stats.lambda_min", keyed)

    def summary(self) -> dict:
        """Per traced function: ``calls``, inclusive ``s`` and ``self_s``
        (inclusive time minus the time of traced children); plus counters
        and ``loophole.states_per_slsqp_iter``."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=dur - child, minlength=n)
        out = {}
        for i, fn in enumerate(self.names):
            out[f"{fn}.calls"] = int(calls[i])
            out[f"{fn}.s"] = float(total[i])
            out[f"{fn}.self_s"] = float(own[i])
        for key in ("loophole.slsqp.nit", "loophole.slsqp.nfev",
                    "loophole.slsqp.failed", "stats.lambda_min.repeat_calls"):
            out[key] = self.counters.get(key, 0)
        # states built inside the search per SLSQP iteration
        search = self.names.index("loophole.find_loophole_state")
        state = self.names.index("qstate.cholesky_to_state")
        inside = bytearray(len(name))
        states = 0
        for i, (nm, par) in enumerate(zip(self.name, self.parent)):
            inside[i] = nm == search or (par >= 0 and inside[par])
            states += inside[i] and nm == state
        nit = out["loophole.slsqp.nit"]
        out["loophole.states_per_slsqp_iter"] = states / nit if nit else 0.0
        return out

    def save(self, path) -> None:
        """Write the spans as arrays plus the name table (numpy ``.npz``)."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))


def install(tracer: Tracer) -> None:
    """Trace the public functions of :data:`MODULES` by rebinding them in
    every imported ``spinwitness`` module."""
    mods = {short: sys.modules[f"spinwitness.{short}"] for short in MODULES}
    wrapped = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        public = getattr(mod, "__all__", None) or \
            [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                qual = f"{short}.{attr}"
                wrapped[id(fn)] = (tracer.wrap_lambda_min(fn)
                                   if qual == "stats.lambda_min"
                                   else tracer.wrap(qual, fn))
    wrapped[id(mods["loophole"].minimize)] = \
        tracer.wrap_slsqp(mods["loophole"].minimize)

    for modname, mod in list(sys.modules.items()):
        if modname == "spinwitness" or modname.startswith("spinwitness."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
    commands = mods["cli"]._COMMANDS
    for key, (fn, defaults) in commands.items():
        commands[key] = (wrapped.get(id(fn), fn), defaults)
