"""Span tracer that wraps the public functions of ``hardybeta`` from outside.

``Tracer.install()`` replaces every public function defined in the traced
modules, in every ``hardybeta`` namespace that holds it, by a wrapper that
records a span.  Replacement matches on object identity, because several
modules import functions by name (``colligation``, ``kernels`` and
``model`` all hold ``resolvent_apply``), and also reaches module-level lists
such as ``acceptance.CRITERIA``.  The originals are restored on exit.

Spans stay in memory as ``(name, start, end, parent)`` and are written out
by ``write_spans`` when the benchmark ends.  Per name the tracer keeps the
call count, the inclusive busy time (nested calls of the same name counted
once), the self time (busy minus the time covered by child spans) and the
number of calls that raised.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import re
import sys
import time

import numpy as np

MODULES = ("weights", "hereditary", "colligation", "kernels", "model",
           "syssim", "serialize", "cli", "acceptance")


def layer_name(module: str, fname: str) -> str:
    """Span name of a traced function; the three ``make_weight_*``
    constructors share one name, criteria are named by number."""
    if module == "weights" and fname.startswith("make_weight"):
        return "weights.make_weight"
    m = re.match(r"criterion_(\d+)_", fname)
    if module == "acceptance" and m:
        return f"acceptance.criterion_{m.group(1)}"
    return f"{module}.{fname}"


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "failed", "depth", "keys",
                 "total")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.depth = 0
        self.keys = set()
        self.total = 0.0  # sum of a per-call quantity (terms, sweeps)


def _weight_key(w):
    return (w.kind, w.alpha, w.trunc_len, hash(w.betas.tobytes()))


def _array_key(a):
    return hash(np.asarray(a).tobytes())


# per-function argument keys (for distinct_frac) and result quantities
KEYS = {
    "weights.gamma_k_coeffs":
        lambda w, k, n: (_weight_key(w), k, n),
    "hereditary.resolvent_apply":
        lambda w, k, A, z, tol=1e-12: (_weight_key(w), k, _array_key(A),
                                       complex(z), tol),
}
TOTALS = {
    "hereditary.gramian_table": lambda out: out.trunc_order + 1,
    "model.check_coincidence": lambda out: out.sweeps,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name):
        st = self.stats.setdefault(name, Stat())
        key, total = KEYS.get(name), TOTALS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            if key is not None:
                st.keys.add(key(*args, **kwargs))
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            st.depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                st.failed += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                st.depth -= 1
                d = t1 - t0
                spans[frame[0]] = (name, t0, t1, parent)
                st.self_s += d - frame[1]
                if st.depth == 0:
                    st.busy_s += d
                if stack:
                    stack[-1][1] += d
            if total is not None:
                st.total += total(out)
            return out

        return traced

    @contextlib.contextmanager
    def install(self):
        wrappers = {}
        for mod in MODULES:
            m = importlib.import_module(f"hardybeta.{mod}")
            for attr, obj in vars(m).items():
                if (inspect.isfunction(obj) and obj.__module__ == m.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(obj,
                                                        layer_name(mod, attr)))
        patches = []

        def swap(container, key, obj):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                container[key] = hit[1]
                patches.append((container, key, obj))

        for name, m in list(sys.modules.items()):
            if name != "hardybeta" and not name.startswith("hardybeta."):
                continue
            ns = vars(m)
            for attr, obj in list(ns.items()):
                if isinstance(obj, list):
                    for i, item in enumerate(obj):
                        swap(obj, i, item)
                else:
                    swap(ns, attr, obj)
        try:
            yield self
        finally:
            for container, key, obj in reversed(patches):
                container[key] = obj

    def metric(self, name: str, field: str) -> float:
        st = self.stats.get(name)
        if st is None:
            return 0.0
        if field == "distinct_frac":
            return len(st.keys) / st.calls if st.calls else 0.0
        if field == "terms_mean":
            ok = st.calls - st.failed
            return st.total / ok if ok else 0.0
        if field == "sweeps":
            return st.total
        return float(getattr(st, field))

    def table(self) -> dict:
        return {name: {"calls": st.calls, "busy_s": st.busy_s,
                       "self_s": st.self_s, "failed": st.failed}
                for name, st in sorted(self.stats.items())}

    def write_spans(self, path):
        """Spans as gzipped CSV: name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent}\n")
