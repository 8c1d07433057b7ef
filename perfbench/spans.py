"""Spans around kickdir's layers, recorded from outside the program.

`Tracer.install` rebinds kickdir's functions at the names their callers look
up (`kickdir.train.model_forward`, since train.py imports it by name) to
wrappers that record a span: name, start, end, parent and an item count.
Spans stay in memory; `per_layer_metrics` turns them into the per-layer
figures and `write` saves them as JSON lines.
"""

import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from measure import median

NAME, START, END, PARENT, ITEMS = range(5)


def _batch_of(arg_index):
    def items(args, kwargs):
        return len(args[arg_index]) if len(args) > arg_index else 0
    return items


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "train")
    return "model.forward_train" if mode == "train" else "model.forward_eval"


def _fusion_name(args, kwargs):
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "train")
    return "fusion.classify_train" if mode == "train" else \
        "fusion.classify_eval"


# (module, attribute, span name or namer(args, kwargs), items(args, kwargs)).
# An attribute that is absent is skipped, so the tracer outlives refactors
# that fold one layer into another; its metrics then read 0.
TARGETS = [
    ("train", "augment", "augment", None),
    ("train", "batch_inputs", "model.batch_inputs", _batch_of(0)),
    ("model", "batch_inputs", "model.batch_inputs", _batch_of(0)),
    ("train", "model_forward", _forward_name, _batch_of(1)),
    ("model", "model_forward", _forward_name, _batch_of(1)),
    ("train", "weighted_smoothed_ce", "fusion.loss", None),
    ("train", "loss_backward", "fusion.loss_backward", None),
    ("train", "model_backward", "model.backward", None),
    ("train", "clip_gradients", "train.clip", None),
    ("train", "adamw_step", "train.adamw", None),
    ("model", "encode_branch_forward", "encoder.forward", None),
    ("model", "encode_branch_apply", "encoder.apply", None),
    ("model", "encode_branch_backward", "encoder.backward", None),
    ("model", "fuse_and_classify", _fusion_name, None),
    ("model", "meta_branch_forward", "fusion.meta_forward", None),
    ("model", "fusion_backward", "fusion.backward", None),
    ("model", "meta_branch_backward", "fusion.meta_backward", None),
    ("encoder", "ssm_layer_forward", "ssm.layer_forward", None),
    ("encoder", "ssm_layer_apply", "ssm.layer_apply", None),
    ("encoder", "ssm_layer_backward", "ssm.layer_backward", None),
    # The training path reaches the recurrent scan through this private
    # name; scan_recurrent is only its public wrapper.
    ("ssm", "_scan_forward", "ssm.scan_recurrent", None),
    ("ssm", "scan_parallel", "ssm.scan_parallel", None),
    ("ssm", "scan_backward", "ssm.scan_backward", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._restore = []
        self.cache_bytes = []

    @contextmanager
    def span(self, name, items=0):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), None, parent, items]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.stack.pop()
            record[END] = time.perf_counter()

    def _wrap(self, fn, name, items):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            n = items(args, kwargs) if items else 0
            with tracer.span(span_name, n):
                result = fn(*args, **kwargs)
            if span_name == "model.forward_train" and \
                    len(tracer.cache_bytes) < 50:
                tracer.cache_bytes.append(cache_nbytes(result[1], args[0]))
            return result
        return traced

    def install(self, kickdir_modules):
        wrappers = {}
        for module_name, attr, name, items in TARGETS:
            module = kickdir_modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, items)
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore = []

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, items in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "items": items}) + "\n")


def cache_nbytes(cache, bundle):
    """Bytes of every array a training forward pass keeps for the backward
    pass, not counting the model's own parameters and buffers."""
    owned = set()
    seen = set()
    total = 0

    def params_of(obj):
        if isinstance(obj, np.ndarray):
            owned.add(id(obj))
        elif hasattr(obj, "__dataclass_fields__"):
            for f in obj.__dataclass_fields__:
                params_of(getattr(obj, f))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                params_of(item)

    params_of(bundle)
    stack = [cache]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if id(obj) not in owned and obj.base is None:
                total += obj.nbytes
            elif id(obj) not in owned and id(obj.base) not in owned \
                    and isinstance(obj.base, np.ndarray):
                stack.append(obj.base)
        elif hasattr(obj, "__dataclass_fields__"):
            stack.extend(getattr(obj, f) for f in obj.__dataclass_fields__)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s[START]
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            lo = max(spans[c][START], cursor)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s[END] - s[START] - covered)
    return out


def roots(spans):
    """Name of the outermost ancestor of each span."""
    out = []
    for s in spans:
        out.append(s[NAME] if s[PARENT] < 0 else out[s[PARENT]])
    return out


def training_steps(spans):
    """(start, end) of each training step: from the end of one optimizer
    update to the end of the next, skipping intervals that contain a
    validation pass or a fold boundary."""
    steps = []
    last = None
    for s in spans:
        if s[NAME] in ("model.forward_eval", "bench.train_fold"):
            last = None
        elif s[NAME] == "train.adamw":
            if last is not None:
                steps.append((last, s[END]))
            last = s[END]
    return steps


def per_step(spans, steps, names):
    """Median over training steps of the summed duration of the named spans
    that start inside each step. Spans are in start order."""
    picked = [s for s in spans if s[NAME] in names]
    if not steps:
        return 0.0
    starts = np.array([s[START] for s in picked])
    cumulative = np.concatenate(
        [[0.0], np.cumsum([s[END] - s[START] for s in picked])])
    lo, hi = np.array(steps).T
    totals = cumulative[np.searchsorted(starts, hi)] - \
        cumulative[np.searchsorted(starts, lo)]
    return float(np.median(totals))


def _median_of(values, scale=1.0):
    return median(values) * scale if values else 0.0


def count_calls_per_step(run_steps, adamw, model_forward):
    """Python-level calls (Python and C functions) per training step, from
    a profile hook: events between two optimizer-update returns, skipping
    intervals that contain an eval-mode forward. `run_steps` trains."""
    counts = []
    state = {"n": 0, "valid": False}

    def hook(frame, event, arg):
        if event in ("call", "c_call"):
            state["n"] += 1
            if event == "call" and frame.f_code is model_forward.__code__ \
                    and frame.f_locals.get("mode") == "eval":
                state["valid"] = False
        elif event == "return" and frame.f_code is adamw.__code__:
            if state["valid"]:
                counts.append(state["n"])
            state["n"] = 0
            state["valid"] = True

    sys.setprofile(hook)
    try:
        run_steps()
    finally:
        sys.setprofile(None)
    return statistics.median_low(counts) if counts else 0


def per_layer_metrics(tracer, archive_size, calls_per_step):
    spans = tracer.spans
    steps = training_steps(spans)
    selfs = self_times(spans)
    root = roots(spans)
    ms, us = 1e3, 1e6

    def durations(name, under=None, items=None):
        return [s[END] - s[START] for s, r in zip(spans, root)
                if s[NAME] == name and (under is None or r == under)
                and (items is None or s[ITEMS] == items)]

    def step(*names):
        return per_step(spans, steps, set(names)) * ms

    def eval_per_sample(batch):
        return _median_of(durations("model.forward_eval", items=batch),
                          us / batch)

    per_1k = 1000.0 / archive_size * ms
    return {
        "train.step_ms": (_median_of([hi - lo for lo, hi in steps], ms), "ms"),
        "train.adamw_ms": (step("train.adamw"), "ms"),
        "train.clip_ms": (step("train.clip"), "ms"),
        "train.python_calls_per_step": (calls_per_step, "count"),
        "model.forward_train_ms": (step("model.forward_train"), "ms"),
        "model.backward_ms": (step("model.backward"), "ms"),
        "encoder.forward_ms": (step("encoder.forward"), "ms"),
        "encoder.backward_ms": (step("encoder.backward"), "ms"),
        "ssm.layer_forward_ms": (step("ssm.layer_forward"), "ms"),
        "ssm.layer_backward_ms": (step("ssm.layer_backward"), "ms"),
        "ssm.scan_recurrent_ms": (step("ssm.scan_recurrent"), "ms"),
        "ssm.scan_backward_ms": (step("ssm.scan_backward"), "ms"),
        "fusion.forward_ms": (step("fusion.classify_train",
                                   "fusion.meta_forward"), "ms"),
        "fusion.backward_ms": (step("fusion.backward",
                                    "fusion.meta_backward"), "ms"),
        "fusion.loss_ms": (step("fusion.loss", "fusion.loss_backward"), "ms"),
        "model.cache_bytes_per_step": (
            _median_of(tracer.cache_bytes), "bytes"),
        "ssm.scan_parallel_ms": (_median_of(
            durations("ssm.scan_parallel", under="bench.score"), ms), "ms"),
        "encoder.apply_ms": (_median_of(
            durations("encoder.apply", under="bench.score"), ms), "ms"),
        "model.eval_us_per_sample_b1": (eval_per_sample(1), "us"),
        "model.eval_us_per_sample_b5": (eval_per_sample(5), "us"),
        "model.eval_us_per_sample_b600": (eval_per_sample(600), "us"),
        "data.load_ms_per_1k": (_median_of(
            durations("data.load_dataset"), per_1k), "ms"),
        "data.save_ms_per_1k": (_median_of(
            durations("data.save_dataset"), per_1k), "ms"),
        "train.load_checkpoint_ms": (_median_of(
            durations("train.load_checkpoint"), ms), "ms"),
        "model.batch_inputs_us": (step("model.batch_inputs") * 1e3, "us"),
        "augment.us_per_sample": (_median_of(durations("augment"), us), "us"),
        "data.split_ms": (sum(durations("data.split")) * ms, "ms"),
        "train.save_checkpoint_ms": (_median_of(
            durations("train.save_checkpoint"), ms), "ms"),
        "metrics.evaluate_self_ms": (_median_of(
            [t for s, t, r in zip(spans, selfs, root)
             if s[NAME] == "metrics.evaluate" and r == "bench.score"], ms),
            "ms"),
    }
