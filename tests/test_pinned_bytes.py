"""Same seed, same bytes: sha256 digests of training, gradients and scoring,
pinned in pinned_bytes.json beside this file.

Floating-point results depend on the numpy build, the BLAS library and the
SIMD kernels the CPU allows, so the digests are kept per platform
fingerprint, and on a platform with none recorded the tests skip and name
its fingerprint. The tests never write the file. After a change that is
meant to move bytes, or to record a new platform, rewrite this platform's
digests with

    PYTHONPATH=src python tests/test_pinned_bytes.py
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

import kickdir.model as model
from kickdir.cli import main
from kickdir.config import TrainConfig
from kickdir.data import generate_synthetic, save_dataset, stratified_kfold
from kickdir.fusion import LossConfig, loss_backward
from kickdir.model import (
    ALL_BRANCHES,
    build_model,
    eval_chunk_size,
    model_backward,
    model_forward,
    predict_logits,
)
from kickdir.train import train_fold

DIGESTS = Path(__file__).with_name("pinned_bytes.json")


def platform_fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:
        cpu = {}
    flags = ",".join(f for f in ("AVX2", "AVX512F") if cpu.get(f))
    return (f"numpy {np.__version__}; {blas.get('name')} "
            f"{blas.get('version')}; {platform.machine()}; "
            f"{flags or 'no avx2'}")


def sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _train(dim, n, epochs, seed):
    _, samples = generate_synthetic(n, embedding_dim=dim, seed=seed)
    train, val = stratified_kfold(samples, k=5, seed=0).split(samples, 0)
    cfg = TrainConfig(max_epochs=epochs, patience=epochs, seed=3)
    bundle, opt, _ = train_fold(train, val, cfg)
    return {"params": bundle.params.vector, "state": bundle.state.vector,
            "m": opt.m.vector, "v": opt.v.vector}


def _gradients(dim, batch=5, branches=ALL_BRANCHES, inline=False):
    rng = np.random.default_rng(dim)
    bundle = build_model(dim, 3, TrainConfig(), rng)
    run_x = rng.normal(size=(batch, 5, dim))
    kick_x = rng.normal(size=(batch, 3, dim))
    gamma = rng.integers(0, 2, size=(batch, 2)).astype(np.float64)
    labels = np.arange(batch) % 3
    threshold = model.THREAD_MIN_ELEMENTS
    if inline:
        model.THREAD_MIN_ELEMENTS = 2 ** 62
    try:
        logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                      mode="train", rng=rng,
                                      branches=branches)
        loss_cfg = LossConfig(class_weights=np.array([1.1, 0.8, 1.1]),
                              label_smoothing=0.01)
        grads = model_backward(bundle, cache,
                               loss_backward(logits, labels, loss_cfg))
    finally:
        model.THREAD_MIN_ELEMENTS = threshold
    return {"grads": grads.vector}


def _scoring():
    bundle = build_model(16, 3, TrainConfig(), np.random.default_rng(21))
    chunk = eval_chunk_size(bundle, 5)
    _, samples = generate_synthetic(2 * chunk + 7, embedding_dim=16, seed=22)
    return {"logits": predict_logits(bundle, samples)}


def _crossval_run():
    """The files of a small `kickdir crossval` plus both reports, except
    the checkpoints, whose arrays the cases above cover."""
    _, samples = generate_synthetic(45, embedding_dim=16, seed=5)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        save_dataset(root / "d.pkds", samples)
        (root / "cfg.txt").write_text(
            "max_epochs=2\npatience=2\nk_folds=3\nseed=4\n")
        run = root / "run"
        for argv in (["crossval", "--data", str(root / "d.pkds"),
                      "--config", str(root / "cfg.txt"),
                      "--out-dir", str(run)],
                     ["report", "--run-dir", str(run)],
                     ["report", "--run-dir", str(run), "--format", "svg"]):
            assert main(argv) == 0, argv
        return {str(path.relative_to(run)): np.frombuffer(path.read_bytes(),
                                                          np.uint8)
                for path in sorted(run.rglob("*"))
                if path.is_file() and path.suffix != ".npz"}


CASES = {
    "train_fold d=16 2 epochs augmented": lambda: _train(16, 30, 2, 17),
    "train_fold d=128 1 epoch augmented": lambda: _train(128, 25, 1, 7),
    "model_backward d=16 B=5": lambda: _gradients(16),
    "model_backward d=16 B=5 run branch only":
        lambda: _gradients(16, branches={"run"}),
    "model_backward d=16 B=100": lambda: _gradients(16, batch=100),
    "model_backward d=128 B=5": lambda: _gradients(128),
    "model_backward d=128 B=5 inline": lambda: _gradients(128, inline=True),
    "predict_logits d=16 3 chunks": _scoring,
    "kickdir crossval and report": _crossval_run,
}


def case_digests(case):
    return {f"{case}: {name}": sha256(arr)
            for name, arr in CASES[case]().items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_match_pinned_digests(case):
    fingerprint = platform_fingerprint()
    pinned = json.loads(DIGESTS.read_text()).get(fingerprint)
    if pinned is None:
        pytest.skip(f"no pinned digests for platform {fingerprint!r}")
    got = case_digests(case)
    assert got == {key: pinned.get(key) for key in got}


def write_digests():
    """Record this platform's digests, keeping those of other platforms."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    fingerprint = platform_fingerprint()
    recorded[fingerprint] = {key: digest for case in sorted(CASES)
                             for key, digest in case_digests(case).items()}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded[fingerprint])} digests for {fingerprint!r}")


if __name__ == "__main__":
    write_digests()
