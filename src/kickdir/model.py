"""Full model: two temporal branch encoders, the metadata branch, and the
fusion classifier, with flat name->array registries for optimization and
serialization, plus branch masking for ablation studies.

Parameters and the batch-norm buffers each live in one contiguous float64
vector (a FlatBuffer); every named array of the dataclasses is a reshaped
view into it. Gradients fill a FlatBuffer with the parameters' layout:
each layer's backward takes (cache, d_out, grads, prefix), overwrites the
views grads[prefix + name] of the tensors it owns and returns only its
input gradient.

The process has one persistent worker thread, which takes a share of
independent tasks while the calling thread takes the rest (numpy releases
the GIL inside its loops). A training step splits by branch: on large
enough scan tensors the run-up and kick encoders run at the same time.
Scoring a sample list of two or more eval chunks splits by whole chunk,
and each chunk runs both branches on the thread that took it. No task
writes what another reads, and each runs the arithmetic serial code runs,
so the bytes are those of serial code.
"""

import contextvars
import os
import threading
from bisect import bisect_right
from collections import deque
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial
from itertools import accumulate
from math import prod

import numpy as np

from .encoder import (
    branch_param_arrays,
    encode_branch_backward,
    encode_branch_forward,
    init_branch_encoder,
)
from .errors import DataError
from .fusion import (
    fuse_and_classify,
    fusion_backward,
    fusion_param_arrays,
    fusion_state_arrays,
    init_fusion,
    meta_branch_backward,
    meta_branch_forward,
)

ALL_BRANCHES = frozenset({"run", "kick", "meta"})


def normalize_branches(branches):
    got = frozenset(branches)
    if not got:
        raise ValueError("at least one branch must stay enabled")
    unknown = got - ALL_BRANCHES
    if unknown:
        raise ValueError(f"unknown branches: {sorted(unknown)}")
    return got


class FlatBuffer(Mapping):
    """One contiguous float64 vector with a reshaped view per named tensor,
    laid out back to back in the order of `table`, a tuple of (name, shape).

    Iterating yields the names.
    """

    def __init__(self, table, vector=None):
        self.table = tuple((name, tuple(shape)) for name, shape in table)
        self.offsets = list(accumulate((prod(s) for _, s in self.table),
                                       initial=0))
        self.vector = np.zeros(self.offsets[-1]) if vector is None else vector
        self.views = {name: self.vector[lo:hi].reshape(shape)
                      for (name, shape), lo, hi
                      in zip(self.table, self.offsets, self.offsets[1:])}

    def __getitem__(self, name):
        return self.views[name]

    def __iter__(self):
        return iter(self.views)

    def __len__(self):
        return len(self.views)

    def __reduce__(self):
        return FlatBuffer, (self.table, self.vector)

    def like(self):
        """A zero buffer with the same layout."""
        return FlatBuffer(self.table)

    def name_at(self, index):
        """Name of the tensor that holds element `index` of the vector."""
        return self.table[bisect_right(self.offsets, index) - 1][0]


def _adopt(arrays):
    """A FlatBuffer holding a copy of each (name, array) pair."""
    arrays = list(arrays)
    buf = FlatBuffer((name, arr.shape) for name, arr in arrays)
    for name, arr in arrays:
        buf.views[name][...] = arr
    return buf


def _rebind(obj, views):
    """Replace each array field under the dataclass obj that `views` maps
    (by the array's id) with its view."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            if id(value) in views:
                setattr(obj, f.name, views[id(value)])
        elif is_dataclass(value):
            _rebind(value, views)
        elif isinstance(value, list):
            for item in value:
                _rebind(item, views)


@dataclass
class ModelBundle:
    """All learnable parameters plus the shape facts needed to rebuild.

    params and state are the flat buffers behind the named arrays: the
    learnable tensors (run encoder, kick encoder, fusion) and the
    batch-norm running statistics.
    """

    embedding_dim: int
    n_classes: int
    run_enc: object
    kick_enc: object
    fusion: object
    head_branches: frozenset = ALL_BRANCHES
    params: FlatBuffer = field(init=False, repr=False)
    state: FlatBuffer = field(init=False, repr=False)

    def __post_init__(self):
        self.params = _adopt(_param_arrays(self))
        self.state = _adopt(_state_arrays(self))
        self._bind()

    def __setstate__(self, state):
        # Pickle copies each view on its own: point them back at the vectors.
        self.__dict__.update(state)
        self._bind()

    def _bind(self):
        views = {id(arr): buf.views[name]
                 for buf, arrays in ((self.params, _param_arrays(self)),
                                     (self.state, _state_arrays(self)))
                 for name, arr in arrays}
        for part in (self.run_enc, self.kick_enc, self.fusion):
            _rebind(part, views)

    @property
    def branch_width(self):
        return self.run_enc.width


def build_model(embedding_dim, n_classes, cfg, rng, head_branches=None):
    """Construct a fresh bundle from a TrainConfig's architecture fields.

    head_branches narrows the fusion head outright: excluded segments are
    removed from the hidden affine map's input instead of arriving as
    zeros. The run branch is always required.
    """
    head = ALL_BRANCHES if head_branches is None else \
        normalize_branches(head_branches)
    if "run" not in head:
        raise ValueError("the run branch cannot be removed from the head")
    width = cfg.branch_width if cfg.branch_width > 0 else embedding_dim
    kwargs = dict(in_dim=embedding_dim, width=width, state_size=cfg.state_size,
                  n_layers=cfg.n_layers, expand=cfg.expand,
                  conv_width=cfg.conv_width, use_conv=cfg.use_conv,
                  delta_range=(cfg.delta_init_min, cfg.delta_init_max))
    run_enc = init_branch_encoder(rng=rng, **kwargs)
    kick_enc = init_branch_encoder(rng=rng, **kwargs)
    fusion = init_fusion(branch_width=width, n_classes=n_classes, rng=rng,
                         meta_dim=cfg.meta_dim, hidden=cfg.fusion_hidden,
                         dropout=cfg.dropout, bn_eps=cfg.bn_eps,
                         bn_momentum=cfg.bn_momentum,
                         with_kick="kick" in head, with_meta="meta" in head)
    return ModelBundle(embedding_dim=embedding_dim, n_classes=n_classes,
                       run_enc=run_enc, kick_enc=kick_enc, fusion=fusion,
                       head_branches=head)


def _param_arrays(bundle):
    yield from branch_param_arrays(bundle.run_enc, prefix="run_enc.")
    yield from branch_param_arrays(bundle.kick_enc, prefix="kick_enc.")
    yield from fusion_param_arrays(bundle.fusion, prefix="fusion.")


def _state_arrays(bundle):
    return fusion_state_arrays(bundle.fusion, prefix="fusion.")


def batch_inputs(samples):
    """Stack a list of samples into model inputs (float64)."""
    run_x = np.stack([s.run_seq for s in samples]).astype(np.float64)
    kick_x = np.stack([s.kick_seq for s in samples]).astype(np.float64)
    gamma = np.stack([s.meta_inputs() for s in samples])
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return run_x, kick_x, gamma, labels


# Elements of one (B, T, channels, states) scan tensor from which the kick
# branch runs on the worker thread. Below it, handing the branch over costs
# more than running it beside the run-up branch saves (a single-kick
# prediction, or a default training step at d=16).
THREAD_MIN_ELEMENTS = 2 ** 16


def scan_elements_per_sample(bundle, seq_len):
    """Elements of one sample's (T, channels, states) scan tensor for
    sequences of seq_len clips."""
    ssm = bundle.run_enc.layers[0].block.ssm
    return seq_len * ssm.channels * ssm.state_size


def usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _threaded(bundle, run_x, kick_x):
    """Whether the kick branch runs on the worker thread: one scan tensor of
    the longer branch reaches THREAD_MIN_ELEMENTS and the process may use
    two CPUs."""
    seq_len = max(run_x.shape[1], kick_x.shape[1])
    return len(run_x) * scan_elements_per_sample(bundle, seq_len) \
        >= THREAD_MIN_ELEMENTS and usable_cpus() >= 2


class Worker:
    """At most one persistent thread per process, started on first use,
    that takes a share of the independent tasks handed to run."""

    def __init__(self):
        self._reset()

    def _reset(self):
        # A forked child inherits the executor but not its thread.
        self._lock = threading.Lock()
        self._pool = None
        self._local = threading.local()

    def _executor(self):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="kickdir-worker")
            return self._pool

    def run(self, *tasks):
        """The tuple of each task's result. The caller and the worker thread
        each take the next task not yet taken until none is left. Every task
        runs, and the error raised is the first failing task's, as in a
        loop. A task that calls run has its tasks run in order on its own
        thread, so the worker never waits on itself."""
        if getattr(self._local, "busy", False):
            return tuple(task() for task in tasks)
        pending = deque(enumerate(tasks))  # popleft is thread-safe
        results = [None] * len(tasks)
        errors = {}

        def drain():
            self._local.busy = True
            try:
                while pending:
                    try:
                        i, task = pending.popleft()
                    except IndexError:  # the other thread took the last one
                        return
                    try:
                        results[i] = task()
                    except Exception as exc:  # re-raised below, in order
                        errors[i] = exc
            finally:
                self._local.busy = False

        # The copied context carries the caller's np.errstate to the tasks.
        future = self._executor().submit(contextvars.copy_context().run,
                                         drain)
        try:
            drain()
        finally:
            if not future.cancel():  # the worker started: wait for its task
                future.exception()
        if errors:
            raise errors[min(errors)]
        return tuple(results)


WORKER = Worker()
os.register_at_fork(after_in_child=WORKER._reset)


@dataclass
class ModelCache:
    run_cache: object
    kick_cache: object
    meta_cache: object
    fusion_cache: object


def model_forward(bundle, run_x, kick_x, gamma, mode="train", rng=None,
                  branches=ALL_BRANCHES):
    """Forward pass. Branches masked out of `branches` contribute zero
    vectors at the fusion input and their encoders are never evaluated;
    branches excluded from the bundle's head at build time are absent from
    the fusion input entirely and cannot be requested here.

    Returns (logits, cache); cache is None in eval mode.
    """
    branches = normalize_branches(branches)
    extra = branches - bundle.head_branches
    if extra:
        raise ValueError(
            f"branches {sorted(extra)} are not part of this model's head")
    train = mode == "train"
    batch = run_x.shape[0]
    width = bundle.branch_width
    in_head = bundle.head_branches
    run_cache = kick_cache = meta_cache = None
    if {"run", "kick"} <= branches and _threaded(bundle, run_x, kick_x):
        (t_run, run_cache), (t_kick, kick_cache) = WORKER.run(
            lambda: encode_branch_forward(run_x, bundle.run_enc, train),
            lambda: encode_branch_forward(kick_x, bundle.kick_enc, train))
    else:
        if "run" in branches:
            t_run, run_cache = encode_branch_forward(run_x, bundle.run_enc,
                                                     train)
        else:
            t_run = np.zeros((batch, width))
        if "kick" not in in_head:
            t_kick = None
        elif "kick" in branches:
            t_kick, kick_cache = encode_branch_forward(kick_x,
                                                       bundle.kick_enc, train)
        else:
            t_kick = np.zeros((batch, width))
    if "meta" not in in_head:
        t_meta = None
    elif "meta" in branches:
        t_meta, meta_cache = meta_branch_forward(gamma, bundle.fusion)
    else:
        t_meta = np.zeros((batch, bundle.fusion.meta_dim))
    logits, fusion_cache = fuse_and_classify(t_run, t_kick, t_meta,
                                             bundle.fusion, mode=mode, rng=rng)
    if not train:
        return logits, None
    cache = ModelCache(run_cache=run_cache, kick_cache=kick_cache,
                       meta_cache=meta_cache, fusion_cache=fusion_cache)
    return logits, cache


def model_backward(bundle, cache, dlogits, grads=None):
    """Fills grads, a FlatBuffer in the layout of bundle.params (a new one
    by default), with the gradient of every learnable tensor and returns
    it; masked branches get zeros."""
    if grads is None:
        grads = bundle.params.like()
    run_cache, kick_cache, meta_cache = \
        cache.run_cache, cache.kick_cache, cache.meta_cache
    if any(c is None for c in (run_cache, kick_cache, meta_cache)):
        grads.vector.fill(0.0)  # no backward writes a masked branch's views
    dt_run, dt_kick, dt_meta = fusion_backward(cache.fusion_cache, dlogits,
                                               grads, "fusion.")
    if meta_cache is not None:
        meta_branch_backward(meta_cache, dt_meta, grads, "fusion.")
    if run_cache is not None and kick_cache is not None \
            and _threaded(bundle, run_cache.x_in, kick_cache.x_in):
        WORKER.run(
            lambda: encode_branch_backward(run_cache, dt_run, grads,
                                           "run_enc."),
            lambda: encode_branch_backward(kick_cache, dt_kick, grads,
                                           "kick_enc."))
    else:
        if run_cache is not None:
            encode_branch_backward(run_cache, dt_run, grads, "run_enc.")
        if kick_cache is not None:
            encode_branch_backward(kick_cache, dt_kick, grads, "kick_enc.")
    return grads


# Elements of one (B, T, channels, states) scan tensor per eval chunk, 2 MB
# of float64: large enough to amortize per-call dispatch, small enough that
# eval memory stays flat in the number of samples.
EVAL_CHUNK_ELEMENTS = 2 ** 18


def eval_chunk_size(bundle, seq_len):
    """Samples per eval forward for sequences of seq_len clips."""
    return max(1, EVAL_CHUNK_ELEMENTS
               // scan_elements_per_sample(bundle, seq_len))


def predict_logits(bundle, samples, branches=None):
    """Eval-mode logits for a sample list, scored in bounded chunks.
    branches=None enables every branch the bundle's head carries.

    When the list spans two or more chunks and the process may use two
    CPUs, the calling thread and the worker take whole chunks in turn.
    Each chunk's logits are those a one-chunk call gives, since a chunk is
    never split by sample.

    Raises DataError naming the first sample whose embeddings are not
    finite.
    """
    if branches is None:
        branches = bundle.head_branches
    out = np.zeros((len(samples), bundle.n_classes))
    if not samples:
        return out
    seq_len = max(len(samples[0].run_seq), len(samples[0].kick_seq))
    step = eval_chunk_size(bundle, seq_len)
    tasks = [partial(_score_chunk, bundle, samples[i:i + step], branches,
                     out[i:i + step]) for i in range(0, len(samples), step)]
    if len(tasks) > 1 and usable_cpus() >= 2:
        WORKER.run(*tasks)
    else:
        for task in tasks:
            task()
    return out


def _score_chunk(bundle, chunk, branches, out):
    """Write the eval-mode logits of one chunk of samples into out."""
    run_x, kick_x, gamma, _ = batch_inputs(chunk)
    finite = np.isfinite(run_x).all(axis=(1, 2)) \
        & np.isfinite(kick_x).all(axis=(1, 2))
    if not finite.all():
        bad = chunk[int(np.argmin(finite))]
        raise DataError(f"sample {bad.id!r} has non-finite embeddings")
    out[...], _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval",
                                branches=branches)


def predict(bundle, samples, branches=None):
    """Predicted labels; argmax ties resolve to the lowest class index."""
    logits = predict_logits(bundle, samples, branches=branches)
    return np.argmax(logits, axis=1)
