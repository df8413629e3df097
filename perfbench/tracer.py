"""Outside-in per-layer tracer for the benchmark's traced run.

The tracer wraps, from the benchmark's own files, every function the
program's layer modules define (module functions and class methods,
private callbacks included; for ``repro.sim`` only the public entry
points).  It installs the wrappers *before* the system is built, so bound
methods captured at build time (engine callbacks, process generators) are
wrapped too.  Functions other modules imported by name are replaced in
those modules' globals as well.

A call that crosses from one layer into another opens a span: name,
start, end and parent.  A call inside the same layer costs one extra
Python call and no span.  Generator functions return a proxy whose every
resume (``send``/``throw``/``next``) is such a span, so the time a
process spends in a layer is charged to it on each resume.  The first
``SPAN_CAP`` spans of the measured phase are kept in memory and written
out at the end; every span, recorded or not, adds to its layer's self
time (span time minus the time of its child spans) and counts.

Time not covered by any other layer's span is ``sim``: the engine's
dispatch loop runs outside every span, and sim entry points called from
another layer open ``sim`` spans.

The wrappers cost time themselves.  :meth:`Tracer.calibrate` measures
that cost on no-op functions, and :meth:`Tracer.self_seconds` subtracts
it, per span, from the span's own layer (the part inside the span's
interval) and from its parent's layer (the part outside).
"""

from __future__ import annotations

import enum
import inspect
import json
import sys
import time
import types

import numpy as np

#: (module prefix, layer).  The longest matching prefix wins; modules that
#: match none (check, faults, experiments, fpga, cluster.topology, ...) are
#: left alone and their time falls to their caller.
LAYER_MODULES = (
    ("repro.sim", "sim"),
    ("repro.roce.burst", "roce.burst"),
    ("repro.roce", "roce"),
    ("repro.nic.dma", "nic.dma"),
    ("repro.nic.tlb", "nic.tlb"),
    ("repro.nic", "nic"),
    ("repro.net", "net"),
    ("repro.cluster.switch", "cluster.switch"),
    ("repro.cluster.sharded_kv", "cluster.sharded_kv"),
    ("repro.cc", "cc"),
    ("repro.core", "core"),
    ("repro.kernels", "kernels"),
    ("repro.algos", "algos"),
    ("repro.memory", "memory"),
    ("repro.host", "host"),
    ("repro.apps", "apps"),
    ("repro.obs", "obs"),
    ("repro.config", "config"),
)

SIM = "sim"
#: The benchmark's own driver code: traced so that its time is not
#: mistaken for engine time, never reported as a layer.
BENCH = "bench"
LAYERS = tuple(layer for _, layer in LAYER_MODULES) + (BENCH,)

#: Layers whose entry points also count the bytes they are handed or
#: return (``algos.bytes_per_op``, ``memory.bytes_per_op``).
BYTE_LAYERS = ("algos", "memory")

#: Spans kept in memory for the span file.
SPAN_CAP = 200_000

#: Dunder methods that are entry points worth a span.
_DUNDERS = ("__init__", "__call__")


def layer_of(module_name):
    best = None
    for prefix, layer in LAYER_MODULES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def _nbytes(value):
    """Bytes in a buffer, or in a list or tuple of buffers (the payload
    plane passes scatter lists of views)."""
    if isinstance(value, (bytes, bytearray, memoryview, np.ndarray)):
        return value.nbytes if isinstance(value, (memoryview, np.ndarray)) \
            else len(value)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(item) for item in value
                   if isinstance(item, (bytes, bytearray, memoryview,
                                        np.ndarray)))
    return 0


class _GenProxy:
    """A generator stand-in whose every resume runs inside a span."""

    __slots__ = ("_gen", "_run")

    def __init__(self, gen, run):
        self._gen = gen
        self._run = run

    def __iter__(self):
        return self

    def __next__(self):
        return self._run(self._gen.send, None)

    def send(self, value):
        return self._run(self._gen.send, value)

    def throw(self, *args):
        return self._run(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class Tracer:
    """Span bookkeeping plus the wrappers that feed it."""

    def __init__(self):
        n = len(LAYERS)
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        self.names = []
        self.cur = self.index[SIM]
        self.child = 0.0
        self.span = -1
        self.next_id = 0
        self.spans = []
        self.self_time = [0.0] * n
        #: Function spans per layer, and per *parent* layer.
        self.fn_spans = [0] * n
        self.fn_kids = [0] * n
        #: Generator-resume spans per layer, and per parent layer.
        self.gen_spans = [0] * n
        self.gen_kids = [0] * n
        #: Same-layer calls that went through a wrapper without a span.
        self.inner = [0] * n
        #: Bytes handed to or returned by ``BYTE_LAYERS`` entry points
        #: called from the program, and bytes the benchmark's checks read.
        self.bytes = [0] * n
        self.check_bytes = [0] * n
        self.resumes = 0
        #: Per-call wrapper cost in seconds, set by :meth:`calibrate`.
        self.cost = {"fn_in": 0.0, "fn_out": 0.0, "gen_in": 0.0,
                     "gen_out": 0.0, "inner": 0.0}
        self.wrapped = 0

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _name(self, text):
        self.names.append(text)
        return len(self.names) - 1

    def _runner(self, li, ni):
        """The span body shared by function calls and generator resumes
        of one function: ``run(method, *args)``."""
        tr = self
        clock = time.perf_counter
        self_time = self.self_time
        spans = self.spans
        count_bytes = LAYERS[li] in BYTE_LAYERS
        nbytes = self.bytes
        check_bytes = self.check_bytes
        bench = self.index[BENCH]

        def run(kind_spans, kind_kids, method, *args, **kwargs):
            parent = tr.cur
            if parent == li:
                tr.inner[li] += 1
                return method(*args, **kwargs)
            saved_child = tr.child
            parent_span = tr.span
            sid = tr.next_id
            tr.next_id = sid + 1
            tr.cur = li
            tr.child = 0.0
            tr.span = sid
            start = clock()
            try:
                result = method(*args, **kwargs)
                if count_bytes:
                    if parent == bench:
                        # The benchmark's own output checks.
                        check_bytes[li] += _nbytes(result)
                    else:
                        moved = sum(_nbytes(arg) for arg in args)
                        nbytes[li] += moved or _nbytes(result)
                return result
            finally:
                end = clock()
                duration = end - start
                self_time[li] += duration - tr.child
                kind_spans[li] += 1
                kind_kids[parent] += 1
                tr.cur = parent
                tr.child = saved_child + duration
                tr.span = parent_span
                if sid < SPAN_CAP:
                    spans.append((sid, parent_span, ni, start, end))
        return run

    def wrap(self, fn, layer, qualname):
        """The traced stand-in for ``fn``, a function of ``layer``."""
        li = self.index[layer]
        run = self._runner(li, self._name(f"{layer}:{qualname}"))
        fn_spans, fn_kids = self.fn_spans, self.fn_kids
        gen_spans, gen_kids = self.gen_spans, self.gen_kids
        if inspect.isgeneratorfunction(fn):
            def resume(method, *args):
                return run(gen_spans, gen_kids, method, *args)

            def wrapper(*args, **kwargs):
                return _GenProxy(fn(*args, **kwargs), resume)
        else:
            def wrapper(*args, **kwargs):
                return run(fn_spans, fn_kids, fn, *args, **kwargs)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_resumes(self, fn):
        tr = self

        def resume(*args):
            tr.resumes += 1
            return fn(*args)
        return resume

    def install(self, extra_modules=()):
        """Wrap every layer module loaded under ``repro``, plus
        ``extra_modules`` as the benchmark's own layer."""
        targets = []
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            layer = layer_of(name)
            if layer is not None:
                targets.append((module, layer))
        targets.extend((module, BENCH) for module in extra_modules)
        replaced = {}
        for module, layer in targets:
            public_only = layer == SIM
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) \
                        and value.__module__ == module.__name__ \
                        and not (public_only and attr.startswith("_")):
                    wrapper = self.wrap(value, layer, value.__qualname__)
                    replaced[id(value)] = (value, wrapper)
                    self.wrapped += 1
                elif isinstance(value, type) \
                        and value.__module__ == module.__name__:
                    self._wrap_class(value, layer, public_only)
        # Functions other modules imported by name.
        for name, module in list(sys.modules.items()):
            if module is None:
                continue
            if not name.startswith("repro") \
                    and module not in extra_modules:
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
        from repro.sim.events import Process
        Process._resume = self._count_resumes(Process._resume)

    def _wrap_class(self, cls, layer, public_only):
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            if public_only and attr.startswith("_"):
                continue
            qualname = f"{cls.__qualname__}.{attr}"
            if isinstance(value, types.FunctionType):
                setattr(cls, attr, self.wrap(value, layer, qualname))
            elif isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(
                    self.wrap(value.__func__, layer, qualname)))
            else:
                continue
            self.wrapped += 1

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def reset(self):
        """Zero every accumulator: the measured phase starts now."""
        n = len(LAYERS)
        self.self_time[:] = [0.0] * n
        for counts in (self.fn_spans, self.fn_kids, self.gen_spans,
                       self.gen_kids, self.inner, self.bytes,
                       self.check_bytes):
            counts[:] = [0] * n
        self.spans.clear()
        self.next_id = 0
        self.resumes = 0

    def calibrate(self, calls=100_000):
        """Measure the wrapper's own cost on no-op functions, split into
        the part inside the span's interval and the part outside."""
        def noop():
            return None

        def gen():
            while True:
                yield None

        clock = time.perf_counter
        sim_index = self.index[SIM]
        cost = {}
        for _ in range(3):
            self.reset()
            self.next_id = SPAN_CAP  # calibrate without recording spans
            start = clock()
            for _ in range(calls):
                noop()
            raw = (clock() - start) / calls
            traced = self.wrap(noop, BENCH, "calibrate.noop")
            start = clock()
            for _ in range(calls):
                traced()
            total = (clock() - start) / calls - raw
            inside = self.self_time[self.index[BENCH]] / calls
            inner = self.wrap(noop, SIM, "calibrate.inner")
            start = clock()
            for _ in range(calls):
                inner()
            inner_cost = (clock() - start) / calls - raw
            plain = gen()
            start = clock()
            for _ in range(calls):
                plain.send(None)
            raw_gen = (clock() - start) / calls
            self.reset()
            self.next_id = SPAN_CAP
            proxy = self.wrap(gen, BENCH, "calibrate.gen")()
            next(proxy)
            start = clock()
            for _ in range(calls):
                proxy.send(None)
            total_gen = (clock() - start) / calls - raw_gen
            inside_gen = self.self_time[self.index[BENCH]] / calls
            sample = {"fn_in": max(0.0, inside - raw),
                      "gen_in": max(0.0, inside_gen - raw_gen),
                      "inner": max(0.0, inner_cost)}
            sample["fn_out"] = max(0.0, total - sample["fn_in"])
            sample["gen_out"] = max(0.0, total_gen - sample["gen_in"])
            for key, value in sample.items():
                cost.setdefault(key, []).append(value)
        self.cost = {key: sorted(values)[1] for key, values in cost.items()}
        self.cur = sim_index
        self.reset()

    def self_seconds(self, total):
        """Self time per layer over a phase of ``total`` seconds, with the
        wrappers' calibrated cost taken out."""
        cost = self.cost
        sim = self.index[SIM]
        own = list(self.self_time)
        own[sim] = total - sum(t for i, t in enumerate(own) if i != sim)
        out = {}
        for i, layer in enumerate(LAYERS):
            overhead = (self.fn_spans[i] * cost["fn_in"]
                        + self.gen_spans[i] * cost["gen_in"]
                        + self.inner[i] * cost["inner"]
                        + self.fn_kids[i] * cost["fn_out"]
                        + self.gen_kids[i] * cost["gen_out"])
            out[layer] = max(0.0, own[i] - overhead)
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON: the name table plus one
        ``[id, parent, name, start_s, end_s]`` row per span."""
        with open(path, "w") as handle:
            json.dump({"names": self.names,
                       "spans": [list(span) for span in self.spans]},
                      handle)
