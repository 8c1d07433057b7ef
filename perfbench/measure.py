"""Order statistics, reference kernels and the meter that scales timings by
them.

The machine this benchmark runs on is shared, and its speed drifts from one
process to the next by more than the bounds the benchmark enforces. Every
timed segment of work is therefore paired with a reference kernel timed just
before it, and each kind of segment is reported as

    median(seconds) * nominal / median(reference seconds)

that is, the time the work would take on a machine where the kernel takes
its nominal time. The kernels are the benchmark's own numpy code and never
call kickdir, so a change to kickdir moves the ratio and a change in machine
speed does not. Each kernel mimics the character of the work it scales: many
small-array calls, or scan-shaped elementwise work plus a matmul.
"""

import math
import statistics
import time

import numpy as np


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def dispatch_kernel():
    """Many numpy calls on arrays of the narrow model's size (5 x 5 x 32):
    bound by call overhead, like a d=16 training step or one predict call."""
    x = np.linspace(0.1, 1.0, 5 * 5 * 32).reshape(5, 5, 32)
    w = np.linspace(-0.5, 0.5, 32 * 32).reshape(32, 32)
    acc = 0.0
    for _ in range(60):
        a = x * 1.0001 + 0.001
        b = np.exp(-a)
        d = np.maximum(b @ w, 0.0)
        acc += float(d.sum())
        x = a / (1.0 + np.abs(a).mean(axis=-1, keepdims=True))
    return acc


_SCAN_A = -np.arange(1, 17, dtype=np.float64)[None, :].repeat(256, axis=0)
_SCAN_DELTA = np.full((5, 5, 256), 0.05)
_SCAN_U = np.linspace(0.0, 1.0, 5 * 5 * 256 * 16).reshape(5, 5, 256, 16)
_MAT_X = np.linspace(0.0, 1.0, 25 * 128).reshape(25, 128)
_MAT_W = np.linspace(-0.1, 0.1, 128 * 256).reshape(128, 256)


def array_kernel():
    """A selective scan over (B=5, T=5, H=256, N=16) float64 arrays plus a
    (25 x 128) @ (128 x 256) matmul: the shapes of a d=128 layer."""
    acc = 0.0
    for _ in range(3):
        a_bar = np.exp(_SCAN_DELTA[..., None] * _SCAN_A)
        h = np.zeros((5, 256, 16))
        hs = np.empty_like(_SCAN_U)
        for t in range(5):
            h = a_bar[:, t] * h + _SCAN_U[:, t]
            hs[:, t] = h
        acc += float(hs.sum()) + float((_MAT_X @ _MAT_W).sum())
    return acc


def memory_kernel(elements):
    """Streams over fresh arrays of `elements` float64: allocation, page
    faults and memory bandwidth, like an eval-mode forward over a whole
    archive. Nothing outlives the call, so peak RSS is not raised."""
    x = np.linspace(0.0, 1.0, elements)
    y = np.exp(x * 0.5)
    z = y * x + 1.0
    return float(z.sum())


# Median seconds of one kernel call on the machine the README describes
# (the memory kernel: seconds per element). They only fix the unit of the
# scaled times; changing one rescales every figure that uses that kernel.
NOMINAL = {"dispatch": 1.3e-3, "array": 2.5e-3, "memory": 16.5e-9}


class Reference:
    """Times one reference kernel; `measure` returns the median of a few
    calls, which skips the first, cache-cold call and bursts of
    interference. The memory kernel takes the number of float64 elements
    to stream."""

    def __init__(self, kernel, elements=0, reps=5):
        self.name = kernel
        if kernel == "memory":
            self.kernel = lambda: memory_kernel(elements)
            self.nominal = NOMINAL[kernel] * elements
        else:
            self.kernel = {"dispatch": dispatch_kernel,
                           "array": array_kernel}[kernel]
            self.nominal = NOMINAL[kernel]
        self.reps = reps
        self.history = []

    def measure(self):
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.history.append(median(times))
        return self.history[-1]


class Meter:
    """Fixed-work segments, each timed and paired with the reference kernel
    timed just before it.

    Segments with the same key do the same work. The scaled total is the
    sum over keys of (segment count) x (median segment time) x nominal /
    (median reference time), so a burst of interference on the machine
    moves one segment, not the total.
    With `reference=None` the meter records raw times only (traced runs).
    """

    def __init__(self, reference):
        self.reference = reference
        self.segments = {}  # key -> list of (seconds, reference seconds)

    def ref(self):
        return None if self.reference is None else self.reference.measure()

    def add(self, key, seconds, ref_seconds):
        self.segments.setdefault(key, []).append((seconds, ref_seconds))

    def time(self, key, fn, *args, **kwargs):
        ref = self.ref()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(key, time.perf_counter() - t0, ref)
        return result

    def scaled(self, key):
        """Count x median seconds x nominal / median reference seconds, for
        the segments under one key."""
        segs = self.segments[key]
        seconds = median([s for s, _ in segs])
        refs = [r for _, r in segs if r is not None]
        if refs:
            seconds *= self.reference.nominal / median(refs)
        return len(segs) * seconds

    def raw_total(self):
        return sum(s for segs in self.segments.values() for s, _ in segs)

    def scaled_total(self):
        return sum(self.scaled(key) for key in self.segments)


class Segmenter:
    """Cuts a long call (a whole `train_fold`) into fixed-work segments for
    a Meter: `pause(key)` closes the running segment under `key`, times the
    reference kernel and opens the next one."""

    def __init__(self, meter):
        self.meter = meter
        self.start = None
        self.ref_seconds = None

    def begin(self):
        self.ref_seconds = self.meter.ref()
        self.start = time.perf_counter()

    def pause(self, key):
        self.meter.add(key, time.perf_counter() - self.start, self.ref_seconds)
        self.begin()

    def end(self, key):
        self.meter.add(key, time.perf_counter() - self.start, self.ref_seconds)
        self.start = None
