"""Spans at the program's module boundaries, installed from outside.

``Tracer.install`` replaces each public function of the five layer
modules (and the ``IntervalSet`` constructor) by a timing wrapper, under
every name by which a layer module or the package looks it up: the
wrapper for ``spectra.check_inequality`` is what ``branchdim.sets`` and
``branchdim.branch`` call as well.  Nothing under ``src/`` changes;
``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, job]``; spans stay in memory until
``dump``.  Self time is a span's duration minus its direct children's.
In memory mode the wrappers of the table kernels and of the set
enumeration also record the tracemalloc peak reached inside each call.
"""

from __future__ import annotations

import functools
import json
import os
import tracemalloc
import types
from time import perf_counter

LAYERS = ("spectra", "branch", "sets", "counting", "cli")
CONSTRUCTORS = {("counting", "IntervalSet")}
MEMORY_PROBED = ("counting.lb_table", "counting.ub_table",
                 "sets.enumerate_components")


def _table_probe(counters, args, kwargs, table):
    counters["counting.cells"] += len(table.cells)
    counters["counting.pieces_in"] += len(args[0] if args else kwargs["iset"])


def _moran_probe(counters, args, kwargs, dset):
    if dset.runs is not None:
        counters["sets.runs"] += len(dset.runs)


def _cli_probe(counters, args, kwargs, rc):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.isdir(out):
            counters["cli.bytes_written"] += sum(
                os.path.getsize(os.path.join(out, n)) for n in os.listdir(out))


PROBES = {
    "counting.lb_table": _table_probe,
    "counting.ub_table": _table_probe,
    "sets.build_moran": _moran_probe,
    "cli.main": _cli_probe,
}
COUNTERS = ("counting.cells", "counting.pieces_in", "sets.runs", "cli.bytes_written")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, layer) for layer in LAYERS]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.memory = False
        self.mem_peak: dict[str, float] = {name: 0.0 for name in MEMORY_PROBED}
        self.counters = {name: 0 for name in COUNTERS}
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def _targets(self):
        for layer, module in zip(LAYERS, self.modules):
            for attr in module.__all__:
                obj = getattr(module, attr)
                own_function = (isinstance(obj, types.FunctionType)
                                and obj.__module__ == module.__name__)
                if own_function or (layer, attr) in CONSTRUCTORS:
                    yield f"{layer}.{attr}", obj

    def install(self):
        namespaces = self.modules + [self.package]
        for name, original in self._targets():
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        probe = PROBES.get(name)
        mem_probed = name in MEMORY_PROBED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(index)
            measure_mem = self.memory and mem_probed
            if measure_mem:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if measure_mem:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.mem_peak[name] = max(self.mem_peak[name], peak)
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Per span name: (summed self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for (name, start, end, _, _), kids in zip(self.spans, child):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += end - start - kids
            entry[1] += 1
        return totals

    def top_level_coverage(self) -> float:
        """Seconds covered by the union of top-level spans."""
        covered = 0.0
        reach = -1.0
        for start, end in sorted((s, e) for _, s, e, p, _ in self.spans if p < 0):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
