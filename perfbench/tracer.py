"""Span tracer that wraps dipolerings' public functions from outside the package.

Installing the tracer replaces every public function of the traced modules
wherever callers resolve it: in the module globals of the package, in the
package namespace, and in module-level dicts such as the CLI's dispatch
table.  No source file changes.  Each wrapped call records one span (name,
thread, parent, start, end) plus counters from a probe; spans stay in memory
until `take()` hands them to `layer_metrics`.

Eigensolver entry points of numpy and scipy are wrapped as counters, not
spans, so their time stays in the self time of the dipolerings function that
called them.
"""

import functools
import inspect
import math
import os
import sys
import threading
import time
from collections import defaultdict

MODULES = ("geometry", "emfield", "spectrum", "transfer", "fieldmap", "output", "cli")

# Called once per CSV cell: a span each would cost more than the work it
# measures, so their time stays in output.write_csv.
UNTRACED = frozenset({"output.fmt_value", "output.fmt_float"})

EIGENSOLVERS = {"numpy.linalg": ("eig", "eigh", "eigvals", "eigvalsh"),
                "scipy.linalg": ("eig", "eigh", "eigvals", "eigvalsh")}


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "counters")
    _lock = threading.Lock()     # pool threads may count on the main thread's span

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.counters = {}
        self.end = None
        self.start = time.perf_counter()

    def add(self, key, value):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    @property
    def duration(self):
        return self.end - self.start


def _pairs(span, arguments, result):
    shape = getattr(arguments.get("separations"), "shape", None)
    if shape is not None:
        span.add("pairs", math.prod(shape[:-1]))


def _labels(span, arguments, result):
    if result.label_ok is not None:
        span.add("labels", int(result.label_ok.size))
        span.add("labels_ok", int(result.label_ok.sum()))


def _threads(span, arguments, result):
    span.add("threads", int(arguments.get("threads", 1)))


def _propagation(span, arguments, result):
    span.add("states_bytes", int(result.states.nbytes))
    span.add("ode_fallbacks", int(result.method == "ode"))


def _points(span, arguments, result):
    span.add("points", int(result.values.size))


def _artifact(span, arguments, result):
    span.add("rows", len(arguments["rows"]))
    span.add("bytes", os.path.getsize(arguments["path"]))


# Counters taken from a call's arguments and result, after its span has ended.
PROBES = {
    "emfield.projected_green": _pairs,
    "emfield.green_apply": _pairs,
    "spectrum.classify_modes": _labels,
    "spectrum.min_decay_scan": _threads,
    "transfer.propagate": _propagation,
    "fieldmap.intensity_map": _points,
    "output.write_csv": _artifact,
}


class Tracer:
    """Context manager: patched on enter, restored on exit; spans kept until `take()`."""

    def __init__(self, package):
        self.spans = []
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patches = []
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[fn] = self._span_wrapper(name, fn)
        owners = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((owner, attr, value, wrappers[value], False))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if inspect.isfunction(item) and item in wrappers:
                            self._patches.append((value, key, item, wrappers[item], True))
        for modname, names in EIGENSOLVERS.items():
            module = sys.modules.get(modname)
            for attr in names if module is not None else ():
                fn = getattr(module, attr, None)
                if fn is not None:
                    self._patches.append((module, attr, fn, self._eig_counter(fn), False))

    def __enter__(self):
        for owner, key, _, wrapper, is_dict in self._patches:
            if is_dict:
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original, _, is_dict in self._patches:
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        return False

    def take(self):
        spans, self.spans = self.spans, []
        self._stacks.clear()
        return spans

    def _current(self):
        # A pool thread's outermost span is caused by the main thread's open span.
        # Single indexing operations, so a stack another thread pops stays safe.
        for ident in (threading.get_ident(), self._main):
            try:
                return self._stacks[ident][-1]
            except (KeyError, IndexError):
                pass
        return None

    def _span_wrapper(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            span = Span(name, ident, self._current())
            stack = self._stacks.setdefault(ident, [])
            stack.append(span)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                probe(span, signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def _eig_counter(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            span = self._current()
            if span is not None:
                shape = getattr(a, "shape", None) or (len(a),)
                span.add("eig_calls", 1)
                span.add("eig_work_n3", math.prod(shape[:-2]) * shape[-1] ** 3)
            return fn(a, *args, **kwargs)
        return counted


def layer_of(span_name):
    """Layer a span is reported under: the CLI's command functions are `cli.cmd`,
    every other CLI function is `cli.main`, the rest keep `module.function`."""
    if span_name.startswith("cli.cmd_"):
        return "cli.cmd"
    if span_name.startswith("cli."):
        return "cli.main"
    return span_name


def layer_metrics(spans, main_thread):
    """Per-layer metrics of one traced command call.

    Self time is a span's duration minus its children in the same thread, so
    spans of pool threads that overlap in time are not subtracted from each
    other.  Returns (metrics, main_self) where main_self maps each layer to its
    self time on the main thread.
    """
    child_time = defaultdict(float)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
            if s.parent.thread == s.thread:
                child_time[id(s.parent)] += s.duration
    metrics = defaultdict(float)
    main_self = defaultdict(float)
    eig_in_transfer = states_bytes = 0
    busy = capacity = 0.0
    for s in spans:
        layer = layer_of(s.name)
        self_s = s.duration - child_time[id(s)]
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.self_s"] += self_s
        metrics[f"{layer}.total_s"] += s.duration
        if s.thread == main_thread:
            main_self[layer] += self_s
        for key, value in s.counters.items():
            if key != "states_bytes":
                metrics[f"{layer}.{key}"] += value
        if s.counters.get("eig_calls") and _has_ancestor(s, "transfer."):
            eig_in_transfer += s.counters["eig_calls"]
        states_bytes = max(states_bytes, s.counters.get("states_bytes", 0))
        if s.name == "spectrum.min_decay_scan":
            busy += sum(c.duration for c in children[id(s)])
            capacity += s.counters.get("threads", 1) * s.duration
    metrics["spectrum.eig_work_n3"] = sum(s.counters.get("eig_work_n3", 0) for s in spans)
    metrics["spectrum.min_decay_scan.busy_frac"] = busy / capacity if capacity else 0.0
    assembled = metrics["spectrum.assemble_heff.calls"]
    metrics["transfer.factorizations_per_h"] = eig_in_transfer / assembled if assembled else 0.0
    metrics["transfer.states_bytes"] = states_bytes
    metrics["transfer.ode_fallbacks"] = metrics["transfer.propagate.ode_fallbacks"]
    # No labels produced means none is wrong.
    labels = metrics["spectrum.classify_modes.labels"]
    metrics["spectrum.label_ok_frac"] = (metrics["spectrum.classify_modes.labels_ok"] / labels
                                         if labels else 1.0)
    metrics["fieldmap.points"] = metrics["fieldmap.intensity_map.points"]
    metrics["output.rows"] = metrics["output.write_csv.rows"]
    metrics["output.bytes"] = metrics["output.write_csv.bytes"]
    return dict(metrics), dict(main_self)


def _has_ancestor(span, prefix):
    while span is not None:
        if span.name.startswith(prefix):
            return True
        span = span.parent
    return False
