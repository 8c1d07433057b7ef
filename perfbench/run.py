"""kickdir benchmark: one user session per workload, in one process with one
BLAS thread.

    python3 perfbench/run.py --workload paper-narrow --seed 1 --seconds 30 \
        --trace 0

The session: make the inputs from the seed; save and load the archive;
cross-validate (per fold `train_fold`, `evaluate`, `save_checkpoint`, the
work of `kickdir crossval --jobs 1`); reload a checkpoint and score the whole
archive; then one closed-loop caller predicts one kick at a time until the
run's seconds are up. Every timing is scaled by a reference kernel (see
measure.py) and printed beside its raw seconds. `--trace 1` runs the same
session with spans around kickdir's layers and prints the per-layer metrics
instead. The last line of output is one JSON object.
"""

import os

# Before numpy loads: the benchmark measures the single-threaded program.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import Tally, decode_archive, same_records  # noqa: E402
from measure import Meter, Reference, Segmenter, median, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

N_RUN_CLIPS, N_KICK_CLIPS = 5, 3
# Direction mix of the paper's 622 kicks (left, center, right).
DIRECTION_RATES = (0.4711, 0.1672, 0.3617)
SETUP_REPS = 5
IMPORT_REPS = 3
MIN_PREDICT_CALLS = 1000
PREDICT_CHUNK = 50


@dataclass(frozen=True)
class Workload:
    kicks: int
    dim: int
    folds: int
    epochs: int
    batch_size: int
    chunk_steps: int   # training steps between reference-kernel pauses
    train_kernel: str  # reference kernel for training
    io_reps: int
    score_reps: int


WORKLOADS = {
    # The paper's dataset size at a narrow width: dispatch-bound training.
    "paper-narrow": Workload(kicks=622, dim=16, folds=10, epochs=1,
                             batch_size=5, chunk_steps=20,
                             train_kernel="dispatch", io_reps=40,
                             score_reps=8),
    # HAR-like width: scans and AdamW over large tensors dominate.
    "har-wide": Workload(kicks=100, dim=128, folds=4, epochs=3, batch_size=5,
                         chunk_steps=5, train_kernel="array", io_reps=40,
                         score_reps=9),
    # A large archive: save, load and eval-mode forward dominate.
    "archive-scoring": Workload(kicks=3000, dim=16, folds=2, epochs=1,
                                batch_size=100, chunk_steps=2,
                                train_kernel="array", io_reps=20,
                                score_reps=5),
}


def make_samples(kickdir, wl, seed):
    """Planted-signal kicks from the seed: the direction shows as a ramp
    along a class-specific ray in kick dims 0-1 (run dims 2-3 at half
    strength) under Gaussian noise."""
    rng = np.random.default_rng(seed)
    n, d = wl.kicks, wl.dim
    labels = rng.choice(3, size=n, p=DIRECTION_RATES)
    side = (rng.random(n) < 234 / 622).astype(int)
    foot = (rng.random(n) < 136 / 622).astype(int)
    keeper = rng.integers(0, 3, size=n)
    angles = np.deg2rad([150.0, 90.0, 30.0])[labels]
    ray = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, None, :]
    run = rng.normal(0.0, 0.2, size=(n, N_RUN_CLIPS, d))
    kick = rng.normal(0.0, 0.2, size=(n, N_KICK_CLIPS, d))
    run[:, :, 2:4] += 0.5 * ray * (np.arange(1, N_RUN_CLIPS + 1)
                                   / N_RUN_CLIPS)[None, :, None]
    kick[:, :, 0:2] += ray * (np.arange(1, N_KICK_CLIPS + 1)
                              / N_KICK_CLIPS)[None, :, None]
    run = run.astype(np.float32)
    kick = kick.astype(np.float32)
    return [kickdir.PenaltySample(
        id=f"k{i:07d}", run_seq=run[i], kick_seq=kick[i],
        meta=kickdir.Metadata(side=int(side[i]), foot=int(foot[i])),
        label=int(labels[i]), gk_direction=int(keeper[i]))
        for i in range(n)]


def train_config(kickdir, wl, epochs=None):
    """The default config, with fixed work: patience never stops a fold."""
    epochs = wl.epochs if epochs is None else epochs
    return kickdir.TrainConfig(batch_size=wl.batch_size, max_epochs=epochs,
                               patience=epochs, k_folds=wl.folds)


def warm_up(kickdir, wl, samples):
    """A few steps of training, a prediction and an evaluation on 7 + 3
    kicks of each class, so lazy set-up is done before anything is timed."""
    by_class = [[s for s in samples if s.label == c] for c in range(3)]
    train = [s for group in by_class for s in group[:7]]
    val = [s for group in by_class for s in group[7:10]]
    cfg = kickdir.TrainConfig(batch_size=5, max_epochs=1, patience=1)
    bundle, _, _ = kickdir.train_fold(train, val, cfg)
    kickdir.predict_logits(bundle, val[:1])
    kickdir.evaluate(bundle, val)


class StepHooks:
    """Pauses `train_fold` for the reference kernel every `chunk` optimizer
    steps and at each switch between training and validation, so a fold is
    measured as many short fixed-work segments. Installed at the names
    train.py looks up; a name a later version lacks is left alone."""

    def __init__(self, train_module, segmenter, chunk):
        self.module = train_module
        self.seg = segmenter
        self.chunk = chunk
        self.saved = {}
        self.reset()

    def reset(self):
        self.steps = 0
        self.first = True
        self.in_val = False

    def _close_steps(self):
        self.seg.pause(("steps", self.steps, self.first))
        self.steps = 0
        self.first = False

    def fold_done(self):
        key = ("val-end",) if self.in_val else \
            ("steps", self.steps, self.first)
        self.seg.end(key)
        self.reset()

    def __enter__(self):
        adamw = getattr(self.module, "adamw_step", None)
        forward = getattr(self.module, "model_forward", None)

        def adamw_hook(*args, **kwargs):
            result = adamw(*args, **kwargs)
            self.steps += 1
            if self.steps == self.chunk:
                self._close_steps()
            return result

        def forward_hook(*args, **kwargs):
            mode = kwargs.get("mode", args[4] if len(args) > 4 else "train")
            if mode == "eval" and not self.in_val:
                if self.steps:
                    self._close_steps()
                self.in_val = True
            elif mode == "train" and self.in_val:
                self.seg.pause(("val",))
                self.in_val = False
            return forward(*args, **kwargs)

        for name, fn, hook in (("adamw_step", adamw, adamw_hook),
                               ("model_forward", forward, forward_hook)):
            if fn is not None:
                self.saved[name] = fn
                setattr(self.module, name, hook)
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)


class Session:
    def __init__(self, args):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.traced = bool(args.trace)
        self.tally = Tally()
        self.raw = {}
        self.tracer = None
        wl = self.wl
        # The memory kernel streams arrays the size of one (kicks, run
        # clips, 2 x width, state size) scan tensor of the archive scoring.
        self.references = {} if self.traced else {
            "dispatch": Reference("dispatch"), "array": Reference("array"),
            "memory": Reference("memory", elements=wl.kicks * N_RUN_CLIPS
                                * 2 * wl.dim * 16)}
        self.steps = 0
        self.expected_steps = 0
        self.work = WORK / f"{args.workload}-{os.getpid()}"

    def reference(self, kernel):
        return self.references.get(kernel)

    def span(self, name, items=0):
        return self.tracer.span(name, items) if self.tracer else nullcontext()

    def timed(self, meter, key, span_name, fn, *args, **kwargs):
        with self.span(span_name):
            return meter.time(key, fn, *args, **kwargs)

    # ------------------------------------------------------------ phases

    def setup(self):
        """Import, input generation and warm-up, each timed SETUP_REPS
        times (the import IMPORT_REPS times, from a fresh module table);
        set-up time is the sum of their medians."""
        meter = Meter(self.reference("dispatch"))
        sys.path.insert(0, str(SRC))
        for _ in range(IMPORT_REPS):
            for name in [m for m in sys.modules
                         if m == "kickdir" or m.startswith("kickdir.")]:
                del sys.modules[name]
            kickdir = meter.time(("import",), importlib.import_module,
                                 "kickdir")
        if SRC not in Path(kickdir.__file__).resolve().parents:
            raise ImportError(f"kickdir resolved outside {SRC}")
        self.kickdir = kickdir
        self.modules = {name: importlib.import_module(f"kickdir.{name}")
                        for name in ("train", "model", "encoder", "ssm")}
        for _ in range(SETUP_REPS):
            self.samples = meter.time(("inputs",), make_samples, kickdir,
                                      self.wl, self.args.seed)
            meter.time(("warmup",), warm_up, kickdir, self.wl, self.samples)
        self.raw["setup_s"] = sum(median([s for s, _ in segs])
                                  for segs in meter.segments.values())
        return sum(meter.scaled(key) / len(segs)
                   for key, segs in meter.segments.items())

    def archive_io(self):
        kd, n = self.kickdir, len(self.samples)
        self.archive = self.work / "archive.pkds"
        save = Meter(self.reference("dispatch"))
        load = Meter(self.reference("dispatch"))
        for _ in range(self.wl.io_reps):
            self.timed(save, ("save",), "data.save_dataset", kd.save_dataset,
                       str(self.archive), self.samples)
            _, loaded = self.timed(load, ("load",), "data.load_dataset",
                                   kd.load_dataset, str(self.archive))
        self.tally.ops(2 * self.wl.io_reps)
        records = decode_archive(self.archive, N_RUN_CLIPS, N_KICK_CLIPS,
                                 self.wl.dim)
        self.tally.check("archive decodes to the saved kicks",
                         same_records(records, self.samples))
        self.tally.check("load_dataset matches the independent decode",
                         same_records(records, loaded))
        self.samples = loaded
        self.raw["save_records_per_s"] = median(
            [s for s, _ in save.segments[("save",)]])
        self.raw["load_records_per_s"] = median(
            [s for s, _ in load.segments[("load",)]])
        return (n * self.wl.io_reps / save.scaled_total(),
                n * self.wl.io_reps / load.scaled_total())

    def crossval(self):
        kd, wl, samples = self.kickdir, self.wl, self.samples
        cfg = train_config(kd, wl)
        meter = Meter(self.reference(wl.train_kernel))

        def split_folds():
            split = kd.stratified_kfold(samples, k=wl.folds, seed=cfg.seed)
            return [split.split(samples, f) for f in range(wl.folds)]

        folds = self.timed(meter, ("split",), "data.split", split_folds)
        seg = Segmenter(meter)
        self.fold_bundles = []
        reports, val_ids = [], []
        with StepHooks(self.modules["train"], seg, wl.chunk_steps) as hooks:
            for fold, (train, val) in enumerate(folds):
                with self.span("bench.train_fold"):
                    seg.begin()
                    bundle, opt, history = kd.train_fold(train, val, cfg,
                                                         fold=fold)
                    hooks.fold_done()
                _, report = self.timed(meter, ("evaluate",),
                                       "metrics.evaluate", kd.evaluate,
                                       bundle, val)
                path = str(self.work / f"fold_{fold:02d}.npz")
                self.timed(meter, ("save_checkpoint",),
                           "train.save_checkpoint", kd.save_checkpoint, path,
                           bundle, opt, history, cfg)
                self.tally.ops(3)
                self.fold_bundles.append(bundle)
                reports.append(report)
                val_ids.extend(s.id for s in val)
                expected = wl.epochs * (len(train) // wl.batch_size)
                self.tally.check(f"fold {fold} step count",
                                 len(history.step_lr) == expected)
                self.steps += len(history.step_lr)
                self.expected_steps += expected
                predicted = np.argmax(kd.predict_logits(bundle, val), axis=1)
                labels = np.array([s.label for s in val])
                self.tally.check(f"fold {fold} accuracy from argmax",
                                 np.sum(predicted == labels) / len(val)
                                 == report.accuracy)
        self.tally.check("validation sets partition the archive",
                         sorted(val_ids) == sorted(s.id for s in samples))
        labels = np.array([s.label for s in samples])
        majority = np.bincount(labels).max() / len(labels)
        self.mean_accuracy = float(np.mean([r.accuracy for r in reports]))
        self.tally.check("cross-validated accuracy beats the majority class",
                         self.mean_accuracy > majority)
        self.raw["crossval_s"] = meter.raw_total()
        return meter.scaled_total()

    def score(self):
        kd, samples = self.kickdir, self.samples
        with self.span("train.load_checkpoint"):
            t0 = time.perf_counter()
            bundle = kd.load_checkpoint(str(self.work / "fold_00.npz"))[0]
            self.raw["load_checkpoint_s"] = time.perf_counter() - t0
        meter = Meter(self.reference("memory"))
        for _ in range(self.wl.score_reps):
            with self.span("bench.score"):
                cm, report = self.timed(meter, ("evaluate",),
                                        "metrics.evaluate", kd.evaluate,
                                        bundle, samples)
        self.tally.ops(1 + self.wl.score_reps)
        logits = kd.predict_logits(bundle, samples)
        labels = np.array([s.label for s in samples])
        self.tally.check("archive accuracy from argmax",
                         np.sum(np.argmax(logits, axis=1) == labels)
                         / len(samples) == report.accuracy)
        self.tally.check("confusion counts sum to the archive size",
                         int(cm.counts.sum()) == len(samples))
        self.tally.check("reloaded checkpoint gives identical logits",
                         np.array_equal(logits, kd.predict_logits(
                             self.fold_bundles[0], samples)))
        self.bundle = bundle
        self.raw["score_samples_per_s"] = median(
            [s for s, _ in meter.segments[("evaluate",)]])
        return len(samples) * self.wl.score_reps / meter.scaled_total()

    def predict_loop(self, deadline):
        """One closed-loop caller: the next kick is sent when the previous
        prediction returns. Runs until the deadline, and at least
        MIN_PREDICT_CALLS calls (exactly that many when traced)."""
        kd, samples = self.kickdir, self.samples
        reference = self.reference("dispatch")
        raw, scaled, single = [], [], []
        with self.span("bench.predict"):
            while len(raw) < MIN_PREDICT_CALLS or (
                    not self.traced and time.perf_counter() < deadline):
                ref = reference.measure() if reference else None
                for _ in range(PREDICT_CHUNK):
                    kick = samples[len(raw) % len(samples)]
                    t0 = time.perf_counter()
                    logits = kd.predict_logits(self.bundle, [kick])
                    dt = time.perf_counter() - t0
                    raw.append(dt)
                    scaled.append(dt if ref is None
                                  else dt * reference.nominal / ref)
                    if len(single) < len(samples):
                        single.append(logits[0])
        self.tally.ops(len(raw))
        # Eval mode is independent per sample, so one kick at a time gives
        # the batch logits up to float64 summation order inside BLAS.
        batch = kd.predict_logits(self.bundle, samples[:len(single)])
        self.tally.check("single-kick logits equal batch logits",
                         np.allclose(np.array(single), batch,
                                     rtol=1e-12, atol=1e-12))
        self.raw["predict_p50_ms"] = median(raw) * 1e3
        self.raw["predict_p99_ms"] = percentile(raw, 99) * 1e3
        self.predict_calls = len(raw)
        return median(scaled) * 1e3

    def eval_probe(self):
        """Traced runs only: eval-mode batches of 5 and 600 kicks, for the
        per-sample eval cost at those batch sizes."""
        for size, reps in ((5, 40), (600, 3)):
            batch = [self.samples[i % len(self.samples)] for i in range(size)]
            with self.span("bench.eval_probe"):
                for _ in range(reps):
                    self.kickdir.predict_logits(self.bundle, batch)

    def count_calls(self):
        """Traced runs only, before the tracer is installed: Python-level
        calls per training step, over one epoch of up to 40 steps."""
        from spans import count_calls_per_step
        kd, wl = self.kickdir, self.wl
        split = kd.stratified_kfold(self.samples, k=wl.folds, seed=0)
        train, val = split.split(self.samples, 0)
        train = train[:40 * wl.batch_size]
        cfg = train_config(kd, wl, epochs=1)
        return count_calls_per_step(
            lambda: kd.train_fold(train, val[:wl.batch_size], cfg),
            self.modules["train"].adamw_step,
            self.modules["train"].model_forward)

    # ------------------------------------------------------------ run

    def run(self):
        t_start = time.perf_counter()
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            setup_s = self.setup()
            if self.traced:
                from spans import Tracer, per_layer_metrics
                calls_per_step = self.count_calls()
                self.tracer = Tracer()
                self.tracer.install(self.modules)
            save_rps, load_rps = self.archive_io()
            crossval_s = self.crossval()
            score_sps = self.score()
            predict_ms = self.predict_loop(t_start + self.args.seconds)
            if self.traced:
                self.eval_probe()
                self.tracer.uninstall()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        if self.traced:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            self.tracer.write(traces / f"{self.args.workload}-seed"
                              f"{self.args.seed}.jsonl")
            return per_layer_metrics(self.tracer, len(self.samples),
                                     calls_per_step)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (setup_s, "s"),
            "crossval_s": (crossval_s, "s"),
            "score_samples_per_s": (score_sps, "samples/s"),
            "predict_p50_ms": (predict_ms, "ms"),
            "load_records_per_s": (load_rps, "records/s"),
            "save_records_per_s": (save_rps, "records/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def report(self, metrics):
        wl = self.wl
        print(f"workload {self.args.workload}: {wl.kicks} kicks, d={wl.dim}, "
              f"{wl.folds} folds x {wl.epochs} epochs, batch {wl.batch_size}, "
              f"seed {self.args.seed}, trace {int(self.traced)}")
        print(f"training steps {self.steps} (expected {self.expected_steps}),"
              f" predict calls {self.predict_calls}, mean cv accuracy "
              f"{self.mean_accuracy:.4f}")
        raw_notes = {
            "setup_s": "raw {:.4f} s",
            "crossval_s": "raw {:.4f} s",
            "score_samples_per_s": "raw {:.4f} s per evaluate",
            "predict_p50_ms": "raw p50 {:.4f} ms",
            "load_records_per_s": "raw {:.5f} s per load",
            "save_records_per_s": "raw {:.5f} s per save",
        }
        for name, (value, unit) in metrics.items():
            note = raw_notes.get(name, "")
            if note and not self.traced:
                note = note.format(self.raw[name])
            print(f"  {name:32s} {value:14.6g} {unit:10s} {note}")
        for ref in self.references.values():
            if not ref.history:
                continue
            print(f"  reference kernel {ref.name}: median "
                  f"{median(ref.history) * 1e3:.4f} ms over "
                  f"{len(ref.history)} pauses, nominal "
                  f"{ref.nominal * 1e3:.4f} ms")
        if not self.traced:
            print(f"  raw predict p99 {self.raw['predict_p99_ms']:.4f} ms "
                  f"over {self.predict_calls} calls (not gated)")
        else:
            print("  raw seconds, traced: " + " ".join(
                f"{k}={v:.4f}" for k, v in self.raw.items()))
        for name in self.tally.failed:
            print(f"  FAILED check: {name}")
        result = {
            "correct": not self.tally.failed,
            "attempted": self.tally.attempted,
            "failed": len(self.tally.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if not self.tally.failed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    session = Session(args)
    try:
        metrics = session.run()
    except ImportError as exc:
        print(f"cannot import kickdir from {SRC}: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a kickdir call raised: the run has no result
        traceback.print_exc()
        return 1
    return session.report(metrics)


if __name__ == "__main__":
    sys.exit(main())
