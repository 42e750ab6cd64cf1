"""Outside-in tracing of the eqlbounds modules, installed from the benchmark.

Every public function of each layer module is replaced, at every
``eqlbounds.*`` module attribute that holds it, by a wrapper that records a
span (name, start, end, parent).  The rebinding matters because modules
import each other's functions by name: ``trainer`` calls ``forward_batch``
and ``p_gamma_subset`` through its own namespace.  ``EqlNetwork`` and
``Dataset`` construction are counted, not timed.

Spans are attributed to the module that defines the function, so the
per-layer figures survive functions moving between call sites.  A function
that no longer exists is simply never wrapped and reports as absent.

Nothing here is imported by the timed run; wrappers exist only between
:meth:`Tracer.install` and :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("datagen", "datamodel", "network", "loss", "trainer", "extract", "cli")

# Constructors counted per call: (module, class name) -> counter name.
COUNTED_CLASSES = {
    ("network", "EqlNetwork"): "network.nets_built",
    ("datamodel", "Dataset"): "datamodel.datasets_built",
}


def _path_bytes(path) -> float:
    try:
        return float(os.path.getsize(path))
    except (OSError, TypeError):
        return 0.0


def _first_arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


# Work done by one call, recorded next to its span: points generated, bytes
# read, bytes written.
ITEM_MEASURES = {
    "datagen.generate": lambda args, kwargs, result: float(getattr(result, "n_points", 0)),
    "datamodel.load_dataset": lambda args, kwargs, result: _path_bytes(_first_arg(args, kwargs, 0, "path")),
    "datamodel.save_dataset": lambda args, kwargs, result: _path_bytes(_first_arg(args, kwargs, 1, "path")),
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, label=None, measure=None):
        """Return ``fn`` recording one span per call.

        ``label(args, kwargs)`` may refine the span name per call (the CLI
        entry point is split by subcommand); ``measure`` records the work
        one call did.
        """
        fixed_id = self._id(name)
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends, items = self.start, self.end, self.items
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if label is None else self._id(f"{name}.{label(args, kwargs)}")
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            items.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                items[idx] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"eqlbounds.{layer}") for layer in LAYERS}
        holders = [m for n, m in list(sys.modules.items()) if n == "eqlbounds" or n.startswith("eqlbounds.")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                label = _subcommand if name == "cli.main" else None
                wrapper = self.wrap(fn, name, label, ITEM_MEASURES.get(name))
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, hattr, wrapper)
        for (layer, cls_name), counter in COUNTED_CLASSES.items():
            cls = getattr(modules[layer], cls_name, None)
            original = getattr(cls, "__post_init__", None)
            if original is None:
                continue
            self._patch(cls, "__post_init__", self._counted(original, counter))

    def _counted(self, original, counter: str):
        counts = self.counts

        def counted(obj):
            counts[counter] += 1
            original(obj)

        return counted

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def save(self, path: Path) -> None:
        """Write the raw spans (one row per call) as an ``.npz`` archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            items=np.frombuffer(self.items, dtype=np.float64),
        )


def _subcommand(args, kwargs) -> str:
    argv = _first_arg(args, kwargs, 0, "argv")
    return str(argv[0]) if argv else "none"


class SpanSummary:
    """Per-name and per-layer totals of a tracer's spans.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children nest inside the parent.
    """

    def __init__(self, tracer: Tracer) -> None:
        nid = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
        items = np.frombuffer(tracer.items, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        self.names = list(tracer.names)
        self.counts = Counter(tracer.counts)
        width = len(self.names)
        self.calls = np.bincount(nid, minlength=width)
        self.total_s = np.bincount(nid, weights=dur, minlength=width)
        self.self_s = np.bincount(nid, weights=self_time, minlength=width)
        self.items = np.bincount(nid, weights=items, minlength=width)
        self._durations = {name: dur[nid == i] for i, name in enumerate(self.names)}

    def _index(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls_of(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self.calls[i])

    def total_of(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.total_s[i])

    def self_of(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.self_s[i])

    def items_of(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.items[i])

    def median_s(self, name: str) -> float:
        durations = self._durations.get(name)
        return 0.0 if durations is None or durations.size == 0 else float(np.median(durations))

    def layer_self_s(self, layer: str) -> float:
        return float(sum(s for n, s in zip(self.names, self.self_s) if n.split(".", 1)[0] == layer))

    def traced_s(self) -> float:
        return float(self.self_s.sum())
