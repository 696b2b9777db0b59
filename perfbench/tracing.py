"""Spans around the public functions of each ``mrlab`` layer.

``Tracer`` wraps every public function of a layer module in each ``mrlab``
namespace that binds it (the defining module, ``cli`` and the other
modules that imported it), and every public method and constructor of
the layer's public classes on the class itself.  Nothing under ``src/``
changes: the wrappers are installed for the traced phase and removed
after it.  A span is ``(name, start, end, parent, call)`` plus up to two
counts recorded at the same boundary (``COUNTERS``).  Spans stay in
memory, in flat arrays and a list of names that give the garbage
collector nothing to traverse per span, and are written as
gzip-compressed JSON lines at the end.

Scalar index helpers that other layers call once per element inside a
Python loop (``UNWRAPPED``) are left alone: a span per element would cost
more than the work it times, and their time stays with the caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("blockspace", "twistbasis", "sequences", "multiplier", "rademacher", "certify")

UNWRAPPED = frozenset({
    "twistbasis.first_even_in_shifted_block",
})

PERMUTATION_BUILDERS = frozenset({
    "twistbasis.build_permutation",
    "twistbasis.TwistPermutation.build",
    "twistbasis.TwistPermutation.covering",
})


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _mixed_norm_counts(args, kwargs, result):
    v = _arg(args, kwargs, 0, "v")
    shape = np.shape(getattr(v, "coeffs", v))
    return (math.prod(shape[:-1]),)


def _value_at_counts(args, kwargs, result):
    return (int(np.size(_arg(args, kwargs, 1, "m"))),)


def _rad_norm_counts(args, kwargs, result):
    s = _arg(args, kwargs, 0, "s")
    mode = _arg(args, kwargs, 1, "mode", "exact")
    if mode == "exact":
        patterns = 2 ** s.n_terms
    elif mode == "sampled":
        patterns = int(_arg(args, kwargs, 3, "samples", 100_000))
    else:
        patterns = 1
    return patterns, patterns * s.layout.dim * 16


def _table_counts(args, kwargs, result):
    return (int(result.table.size),)


# span name -> (count names, function of (args, kwargs, result) giving the counts)
COUNTERS = {
    "cli": (("output_bytes",), None),
    "blockspace.mixed_norm": (("vectors",), _mixed_norm_counts),
    "sequences.RatioSeq.value_at": (("indices",), _value_at_counts),
    "sequences.MultiplierSeq.value_at": (("indices",), _value_at_counts),
    "multiplier.positivity_check": (("grid_points",), lambda a, k, r: (int(r.t_grid.size),)),
    "rademacher.rad_norm": (("patterns", "bytes"), _rad_norm_counts),
    "rademacher.blowup_series": (("blocks",), lambda a, k, r: (int(r.ks.max()),)),
    **{name: (("entries",), _table_counts) for name in PERMUTATION_BUILDERS},
}


class Tracer:
    """Installs the layer wrappers while active and keeps the spans."""

    def __init__(self):
        self.names = []
        self.times = array("d")           # start, end of each span
        self.parents = array("q")         # index of the enclosing span, -1 at a root
        self.calls = array("q")           # index of the CLI call the span belongs to
        self.counts = array("q")          # two counts per span, named in COUNTERS
        self.call = -1
        self._root = -1
        self._stack = []
        self._undo = []
        self._origin = time.perf_counter()

    def __len__(self):
        return len(self.names)

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.calls.append(self.call)
        self.counts.extend((0, 0))
        self._stack.append(index)
        self.times.extend((time.perf_counter(), 0.0))
        return index

    def _close(self, index, counts=()):
        self.times[2 * index + 1] = time.perf_counter()
        self._stack.pop()
        for slot, value in enumerate(counts):
            self.counts[2 * index + slot] = value

    def root(self, main):
        """``main`` with the root span ``cli`` of one CLI call around it.

        Set ``call`` to the call's index first; ``output_bytes`` then
        records the call's stdout size on that span.
        """
        def traced_main(argv):
            self._root = self._open("cli")
            try:
                return main(argv)
            finally:
                self._close(self._root)

        return traced_main

    def output_bytes(self, count):
        self.counts[2 * self._root] = count

    def duration(self, index):
        return self.times[2 * index + 1] - self.times[2 * index]

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum(self.duration(i) for i, n in enumerate(self.names) if n == name)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name, ((), None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index)
                raise
            self._close(index, counter(args, kwargs, result) if counter else ())
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "mrlab" or n.startswith("mrlab.")]
        for layer in LAYERS:
            module = importlib.import_module(f"mrlab.{layer}")
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(name, obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(name, obj)
        return self

    def _wrap_class(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._patch(cls, attr, raw, wrapped)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Spans as gzip-compressed JSON lines; times in seconds from tracer creation."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                keys = COUNTERS.get(name, ((), None))[0]
                counts = {key: self.counts[2 * i + slot] for slot, key in enumerate(keys)}
                fh.write(json.dumps({"name": name,
                                     "start": self.times[2 * i] - self._origin,
                                     "end": self.times[2 * i + 1] - self._origin,
                                     "parent": self.parents[i], "call": self.calls[i],
                                     "counts": counts}) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced phase (see README.md for the table)."""
    names, parents, counts = tracer.names, tracer.parents, tracer.counts
    durations = [tracer.duration(i) for i in range(len(names))]
    child = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += durations[i]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    summed = defaultdict(int)
    for i, name in enumerate(names):
        module = name.split(".", 1)[0]
        self_s[module] += durations[i] - child[i]
        calls[name] += 1
        calls[module] += 1
        total[name] += durations[i]
        if name in PERMUTATION_BUILDERS:
            # a build nested in another build is the same table
            if parents[i] < 0 or names[parents[i]] not in PERMUTATION_BUILDERS:
                calls["permutation"] += 1
                summed["permutation.entries"] += counts[2 * i]
        else:
            for slot, key in enumerate(COUNTERS.get(name, ((), None))[0]):
                summed[f"{name}.{key}"] += counts[2 * i + slot]
    value_at = ("sequences.RatioSeq.value_at", "sequences.MultiplierSeq.value_at")
    return {
        "blockspace.self_s": self_s["blockspace"],
        "blockspace.mixed_norm.calls": calls["blockspace.mixed_norm"],
        "blockspace.mixed_norm.vectors": summed["blockspace.mixed_norm.vectors"],
        "twistbasis.self_s": self_s["twistbasis"],
        "twistbasis.permutation.builds": calls["permutation"],
        "twistbasis.permutation.entries": summed["permutation.entries"],
        "twistbasis.unconditional_constant.s": total["twistbasis.unconditional_constant"],
        "sequences.self_s": self_s["sequences"],
        "sequences.value_at.calls": sum(calls[n] for n in value_at),
        "sequences.value_at.indices": sum(summed[f"{n}.indices"] for n in value_at),
        "multiplier.self_s": self_s["multiplier"],
        "multiplier.positivity_check.s": total["multiplier.positivity_check"],
        "multiplier.positivity.grid_points": summed["multiplier.positivity_check.grid_points"],
        "multiplier.sectoriality_probe.s": total["multiplier.sectoriality_probe"],
        "multiplier.resolvent.calls": calls["multiplier.TwistedMultiplier.resolvent"],
        "multiplier.opnorm_lower.calls": calls["multiplier.opnorm_lower"],
        "rademacher.self_s": self_s["rademacher"],
        "rademacher.rad_norm.calls": calls["rademacher.rad_norm"],
        "rademacher.rad_norm.s": total["rademacher.rad_norm"],
        "rademacher.rad_norm.patterns": summed["rademacher.rad_norm.patterns"],
        "rademacher.rad_norm.bytes": summed["rademacher.rad_norm.bytes"],
        "rademacher.blowup_series.s": total["rademacher.blowup_series"],
        "rademacher.blowup.blocks": summed["rademacher.blowup_series.blocks"],
        "certify.self_s": self_s["certify"],
        "certify.calls": calls["certify"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": summed["cli.output_bytes"],
    }
