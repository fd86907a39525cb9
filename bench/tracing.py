"""Per-layer tracing from outside the program.

A `Tracer` wraps the public functions of the toolkit's modules and the
forward and backward methods of its layer classes, records one span per
call (id, name, start, end, parent span) in memory, and counts work at
the same boundaries: rows, bytes, and counts derived from tensor shapes.
Nothing under `src/` knows about it. Wrappers call straight through
while `active` is false, so one process can measure an untraced and a
traced phase, and for layers of models nobody asked to watch.
"""

import os
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from functools import wraps

import numpy as np

import retweet_reg.cli
import retweet_reg.data
import retweet_reg.jsonio
import retweet_reg.metrics
import retweet_reg.models
import retweet_reg.optim
from retweet_reg.nn import (
    Activation,
    Conv1d,
    Dense,
    Embedding,
    Flatten,
    Fold,
    KMaxPool,
    SimpleRnn,
)

# span name -> (defining module, function name, modules that bind the name)
TRACED_FUNCTIONS = {
    "data.load_tsv": ("data", "load_tsv", ("cli",)),
    "data.encode_records": ("data", "encode_records", ("cli",)),
    "data.fit_scaler": ("data", "fit_scaler", ("cli",)),
    "data.build_vocab": ("data", "build_vocab", ("cli",)),
    "jsonio.read_json": ("jsonio", "read_json", ("data", "models")),
    "jsonio.write_json": ("jsonio", "write_json", ("data", "models", "cli")),
    "models.predict_dataset": ("models", "predict_dataset", ("cli", "optim")),
    "models.load_checkpoint": ("models", "load_checkpoint", ("cli",)),
    "models.save_checkpoint": ("models", "save_checkpoint", ("cli",)),
    "metrics.compute_report": ("metrics", "compute_report", ("cli", "optim")),
    "optim.adam_step": ("optim", "adam_step", ()),
}

_MODULES = {
    "cli": retweet_reg.cli,
    "data": retweet_reg.data,
    "jsonio": retweet_reg.jsonio,
    "metrics": retweet_reg.metrics,
    "models": retweet_reg.models,
    "optim": retweet_reg.optim,
}

_KINDS = {KMaxPool: "kmax", Activation: "act", Fold: "fold", Flatten: "flatten"}
LAYER_CLASSES = (Embedding, Conv1d, KMaxPool, Activation, Fold, Flatten, Dense, SimpleRnn)


def layer_names(model) -> list:
    """(name, layer) for every layer of a model. Layers with parameters
    take their parameter prefix (`text.conv1`); the others are named by
    kind and position within their branch (`text.kmax2`, `text.fold`)."""
    out = []
    for prefix, branch in (("text", model.text_branch), ("numeric", model.numeric_branch)):
        if branch is None:
            continue
        kinds = Counter(_KINDS.get(type(layer)) for layer in branch.layers)
        seen = Counter()
        for layer in branch.layers:
            params = layer.params()
            if params:
                out.append((params[0].name.rsplit(".", 1)[0], layer))
                continue
            kind = _KINDS[type(layer)]
            seen[kind] += 1
            suffix = str(seen[kind]) if kinds[kind] > 1 else ""
            out.append((f"{prefix}.{kind}{suffix}", layer))
    out.append(("head.out", model.head))
    return out


def conv_counts(layer: Conv1d, x) -> dict:
    """Per-example forward work of one convolution, from shapes: flops of
    the im2col matmul, bytes of the column buffer, and the share of
    output windows that overlap at least one input position (the rest
    see only padding)."""
    _, channels, length = x.shape
    out_channels, _, width = layer.filters.value.shape
    windows = length + 2 * layer.pad - width + 1
    first = max(0, layer.pad - width + 1)
    last = min(windows - 1, layer.pad + length - 1)
    return {
        "flops": 2 * windows * channels * width * out_channels,
        "cols_bytes": windows * channels * width * x.itemsize,
        "useful_window_share": max(0, last - first + 1) / windows,
    }


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # (id, name, start, end, parent id or None)
        self.counts = Counter()
        self.shape_counts = {}  # name -> per-example count, must not vary
        self._stack = []
        self._saved = []
        # weak, so that watching a model does not keep it alive
        self._layer_names = weakref.WeakKeyDictionary()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        ident = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(ident)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((ident, name, start, end, parent))

    def _set_shape_count(self, name: str, value) -> None:
        old = self.shape_counts.setdefault(name, value)
        if old != value:
            raise AssertionError(f"{name} changed from {old} to {value} between calls")

    def _wrap(self, name: str, fn, after=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- module functions ---------------------------------------------------

    def install(self) -> None:
        """Replace each traced function in its defining module and in every
        module that imported it by name, and forward/backward of every
        layer class. `uninstall` restores them."""
        after = {
            "data.load_tsv": self._after_load_tsv,
            "data.encode_records": lambda args, _: self.counts.update(
                {"data.encode_records.rows": len(args[0])}),
            "jsonio.read_json": lambda args, _: self.counts.update(
                {"jsonio.read_json.bytes": os.path.getsize(args[0])}),
            "jsonio.write_json": lambda args, _: self.counts.update(
                {"jsonio.write_json.bytes": os.path.getsize(args[0])}),
            "models.load_checkpoint": lambda _, model: self.watch_model(model),
            "optim.adam_step": lambda args, _: self._set_shape_count(
                "optim.adam_step.param_elems",
                sum(p.value.size for p in args[1] if p.trainable)),
        }
        for name, (home, attr, users) in TRACED_FUNCTIONS.items():
            original = getattr(_MODULES[home], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for module in (home, *users):
                self._replace(_MODULES[module], attr, wrapper)
        for cls in LAYER_CLASSES:
            self._replace(cls, "forward", self._wrap_layer("fwd", cls.forward))
            self._replace(cls, "backward", self._wrap_layer("bwd", cls.backward))

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _after_load_tsv(self, args, result) -> None:
        records, dropped = result
        self.counts["data.load_tsv.rows"] += len(records) + dropped
        self.counts["data.load_tsv.dropped"] += dropped

    # -- layers ---------------------------------------------------------------

    def watch_model(self, model) -> None:
        """Trace the layers of `model` under the names `layer_names` gives."""
        for name, layer in layer_names(model):
            self._layer_names[layer] = name

    def _wrap_layer(self, phase: str, method):
        @wraps(method)
        def traced(layer, x):
            name = self._layer_names.get(layer) if self.active else None
            if name is None:
                return method(layer, x)
            if phase == "fwd":
                self._count_shapes(name, layer, x)
            with self.span(f"nn.{name}.{phase}"):
                return method(layer, x)

        return traced

    def _count_shapes(self, name: str, layer, x) -> None:
        if isinstance(layer, Conv1d):
            for key, value in conv_counts(layer, x).items():
                self._set_shape_count(f"nn.{name}.{key}", value)
        elif isinstance(layer, KMaxPool):
            self._set_shape_count(f"nn.{name}.sorted_elems", int(np.prod(x.shape[1:])))

    # -- results --------------------------------------------------------------

    def per_layer(self) -> dict:
        """Aggregate spans and counts into `<module>.<function>.<metric>`
        values: seconds and calls per span name, per-layer forward and
        backward seconds, and self seconds of `cli.*` command spans."""
        seconds = Counter()
        calls = Counter()
        child = Counter()
        for _, name, start, end, parent in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        out = {}
        for name in calls:
            if name.startswith("nn."):
                base, phase = name.rsplit(".", 1)
                out[f"{base}.{phase}_s"] = seconds[name]
                if phase == "fwd":
                    out[f"{base}.calls"] = calls[name]
            elif name.startswith("cli."):
                out[f"{name}.self_s"] = sum(
                    end - start - child[ident]
                    for ident, n, start, end, _ in self.spans if n == name
                )
            else:
                out[f"{name}.s"] = seconds[name]
                out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        out.update(self.shape_counts)
        rows = self.counts["data.load_tsv.rows"]
        if rows:
            out["data.dropped_share"] = self.counts["data.load_tsv.dropped"] / rows
        return out
