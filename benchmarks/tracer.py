"""Outside-in tracing: wrappers installed around the library's public
functions from the benchmark, at every namespace that bound the name, and
removed afterwards. The library itself is not changed.

A span is [name, start, end, parent index, job id]. Spans stay in memory and
are written out once, at the end of the run. Hot functions (the Q and Q-hat
criteria, called O(n^3) times) are counted, not spanned.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name); a dotted attribute is Class.member
SPANNED = [
    ("cli", "main", "cli.main"),
    ("agglomerate", "run_neighbor_net", "agglomerate.run"),
    ("agglomerate", "merge_blocks", "agglomerate.merge"),
    ("agglomerate", "adjust_weights", "agglomerate.reweight"),
    ("weights", "DesignMatrix.as_array", "weights.design"),
    ("weights", "nnls", "weights.nnls"),
    ("weights", "kkt_violation", "weights.kkt"),
    ("weights", "lambda_formula", "weights.lambda"),
    ("core", "metric_from_splits", "core.metric_from_splits"),
    ("core", "DissimilarityMap.is_exact", "core.is_exact"),
    ("core", "WeightedSplitSystem.is_exact", "core.is_exact"),
    ("core", "DissimilarityMap.__init__", "core.map_init"),
    ("kalmanson", "first_kalmanson_violation", "kalmanson.check"),
    ("io", "read_phylip_distances", "io.parse"),
    ("io", "write_nexus", "io.nexus"),
    ("io", "write_trace_jsonl", "io.trace"),
    ("tsp", "read_tsplib_euc2d", "tsp.parse"),
]
COUNTED = [
    ("agglomerate", "q_criterion", "agglomerate.q_calls"),
    ("agglomerate", "q_hat_criterion", "agglomerate.q_hat_calls"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, fn, name, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.job]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, name) -> bool:
        return any(self.spans[k][0] == name for k in self._stack)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace every binding of original in the library's modules."""
        for modname, module in list(sys.modules.items()):
            if modname != "neighbornet" and not modname.startswith("neighbornet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self, package):
        """Wrap the library (package is the imported neighbornet module)."""
        hooks = {
            "weights.design": lambda a: self.counts.update({"weights.design_bytes": a.shape[0] * a.shape[1] * 8}),
            "weights.nnls": lambda x: self.counts.update({"weights.nnls_support": int((x > 0).sum())}),
        }
        for modname, attr, name in SPANNED + COUNTED:
            module = getattr(package, modname)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, property):
                    self._set(cls, member, property(self._spanned(original.fget, name)))
                else:
                    self._set(cls, member, self._spanned(original, name, hooks.get(name)))
                continue
            original = getattr(module, attr)
            if (modname, attr, name) in COUNTED:
                wrapper = self._counted(original, name)
            else:
                wrapper = self._spanned(original, name, hooks.get(name))
            self._rebind(original, wrapper)
        lstsq = np.linalg.lstsq

        @functools.wraps(lstsq)
        def counted_lstsq(*args, **kwargs):
            if self.inside("weights.nnls"):
                self.counts["weights.nnls_solves"] += 1
            return lstsq(*args, **kwargs)

        self._set(np.linalg, "lstsq", counted_lstsq)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def layer_times(spans) -> dict:
    """{job: {span name: [total seconds, self seconds, calls]}}; a span's self
    time is its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for k, (name, start, end, parent, job) in enumerate(spans):
        entry = out.setdefault(job, {}).setdefault(name, [0.0, 0.0, 0])
        entry[0] += end - start
        entry[1] += end - start - child[k]
        entry[2] += 1
    return out
