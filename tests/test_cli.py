"""End-to-end tests of the command-line interface, run in process."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kickdir.cli
import kickdir.train
from kickdir.cli import (
    CONFIG_ENV,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_FAILURE,
    EXIT_OK,
    _worker_count,
    _write_text,
    main,
)
from kickdir.config import TrainConfig
from kickdir.data import binarize, load_dataset, save_dataset
from kickdir.errors import ConfigError, DataError
from kickdir.report import parse_kv
from kickdir.train import load_checkpoint, save_checkpoint


@pytest.fixture(autouse=True)
def _clean_config_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_dataset(tmp_path, name="d.pkds", samples=80, dim=8, seed=3,
                 noise=0.02):
    path = tmp_path / name
    rc = main(["generate", "--out", str(path), "--samples", str(samples),
               "--dim", str(dim), "--noise", str(noise), "--seed", str(seed)])
    assert rc == EXIT_OK
    return path


CONFIG_BODY = """\
batch_size=8
max_epochs=3
patience=6
lr=0.003
k_folds=3
state_size=4
n_layers=1
conv_width=3
meta_dim=4
fusion_hidden=16
dropout=0.1
augment=false
seed=0
"""


def make_config(tmp_path, name="cfg.txt", **overrides):
    lines = dict(line.split("=") for line in CONFIG_BODY.splitlines())
    lines.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    return path


# ----------------------------------------------------------------- generate


def test_generate_deterministic(tmp_path):
    a = make_dataset(tmp_path, "a.pkds", seed=1)
    b = make_dataset(tmp_path, "b.pkds", seed=1)
    c = make_dataset(tmp_path, "c.pkds", seed=2)
    assert sha256(a) == sha256(b)
    assert sha256(a) != sha256(c)


def test_generate_empty_dataset(tmp_path):
    path = tmp_path / "empty.pkds"
    rc = main(["generate", "--out", str(path), "--samples", "0"])
    assert rc == EXIT_OK
    manifest, samples = load_dataset(path)
    assert manifest.count == 0 and samples == []


def test_generate_rejects_small_dim(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path / "x.pkds"),
               "--samples", "5", "--dim", "4"])
    assert rc == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--samples", "not-a-number"])
    assert exc.value.code == 2


# ------------------------------------------------------------------ inspect


def test_inspect_prints_summary(tmp_path, capsys):
    data = make_dataset(tmp_path)
    before = sha256(data)
    capsys.readouterr()
    rc = main(["inspect", "--data", str(data)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "samples: 80" in out
    assert "direction counts by pitch side" in out
    assert "gk direction present: 80/80" in out
    assert sha256(data) == before


def test_inspect_missing_file_exits_three(tmp_path):
    assert main(["inspect", "--data", str(tmp_path / "nope.pkds")]) == EXIT_DATA


# ----------------------------------------------------------- train/evaluate


def test_train_then_evaluate(tmp_path, capsys):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    ckpt = tmp_path / "fold0.npz"
    rc = main(["train", "--data", str(data), "--config", str(cfg),
               "--out", str(ckpt)])
    assert rc == EXIT_OK
    assert ckpt.exists()
    out = capsys.readouterr().out
    assert "best val accuracy" in out

    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "overall" in out and "true/pred" in out


@pytest.fixture(scope="module")
def ckpt_run(tmp_path_factory):
    """A d=8 dataset and a checkpoint trained on it, saved without a .npz
    suffix."""
    tmp_path = tmp_path_factory.mktemp("ckpt")
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    ckpt = tmp_path / "fold0.ckpt"
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--out", str(ckpt)]) == EXIT_OK
    return data, ckpt


def test_checkpoint_path_kept_as_given(ckpt_run, capsys):
    data, ckpt = ckpt_run
    assert ckpt.exists()
    assert not ckpt.with_name(ckpt.name + ".npz").exists()
    capsys.readouterr()
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt)])
    assert rc == EXIT_OK
    assert "overall" in capsys.readouterr().out


def test_train_into_missing_directory_exits_three(tmp_path, capsys):
    data = make_dataset(tmp_path, samples=60)
    cfg = make_config(tmp_path, max_epochs=1)
    out = tmp_path / "nodir" / "x.ckpt"
    rc = main(["train", "--data", str(data), "--config", str(cfg),
               "--out", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write") and "x.ckpt" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "nodir").exists()


class _DiskFullFile:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("target", ["metrics.kv", "fold_00.npz"])
def test_failed_write_keeps_existing_file(ckpt_run, tmp_path, monkeypatch,
                                          target):
    _, ckpt = ckpt_run
    bundle, opt, history, cfg = load_checkpoint(ckpt)
    path = tmp_path / target

    def write(folds):
        if target == "metrics.kv":
            _write_text(str(path), f"folds={folds}\nmean.accuracy=0.5\n")
        else:
            history.best_epoch = folds
            save_checkpoint(str(path), bundle, opt, history, cfg)

    write(3)
    before = path.read_bytes()
    monkeypatch.setattr(kickdir.train, "open",
                        lambda *a, **k: _DiskFullFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(DataError, match="No space left"):
        write(4)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [target]


@pytest.mark.parametrize("content", [b"", b"not a checkpoint\n",
                                     b"PK\x03\x04truncated"])
def test_garbage_checkpoint_exits_three(tmp_path, capsys, content):
    data = make_dataset(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(content)
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read checkpoint")
    assert err.count("\n") == 1


def test_missing_checkpoint_exits_three(tmp_path):
    data = make_dataset(tmp_path)
    assert main(["evaluate", "--data", str(data),
                 "--checkpoint", str(tmp_path / "nope.ckpt")]) == EXIT_DATA


def _patched_checkpoint(src, dst, **changes):
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    arrays.update(changes)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("patch", ["table", "length"])
def test_evaluate_rejects_checkpoint_layout_mismatch(ckpt_run, tmp_path,
                                                     capsys, patch):
    data, ckpt = ckpt_run
    bad = tmp_path / "bad.ckpt"
    with np.load(ckpt) as archive:
        meta = json.loads(str(archive["meta_json"]))
        param = archive["param"]
    if patch == "table":
        # Same total size, but the first two tensors in the other order.
        table = meta["layout"]["param"]
        table[0], table[1] = table[1], table[0]
        _patched_checkpoint(ckpt, bad, meta_json=np.array(json.dumps(meta)))
        expect = "param table does not match"
    else:
        _patched_checkpoint(ckpt, bad, param=param[:-1])
        expect = f"'param' holds {param.size - 1} float64 values"
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(bad)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read checkpoint")
    assert expect in err
    assert err.count("\n") == 1


def test_evaluate_rejects_embedding_dim_mismatch(ckpt_run, tmp_path, capsys):
    _, ckpt = ckpt_run
    data = make_dataset(tmp_path, dim=12)
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt)])
    assert rc == EXIT_DATA
    assert "8-dim" in capsys.readouterr().err


def test_evaluate_rejects_non_finite_dataset(ckpt_run, tmp_path, capsys):
    _, ckpt = ckpt_run
    manifest, samples = load_dataset(make_dataset(tmp_path))
    samples[5].kick_seq[0, 0] = float("nan")
    bad = tmp_path / "nan.pkds"
    save_dataset(bad, samples, n_classes=manifest.n_classes)
    rc = main(["evaluate", "--data", str(bad), "--checkpoint", str(ckpt)])
    assert rc == EXIT_DATA
    assert samples[5].id in capsys.readouterr().err


def test_evaluate_binarizes_to_match_checkpoint(tmp_path, capsys):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    ckpt = tmp_path / "fold0.npz"
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--classes", "2", "--out", str(ckpt)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["evaluate", "--data", str(data), "--checkpoint", str(ckpt)])
    assert rc == EXIT_OK
    assert "center kicks dropped" in capsys.readouterr().out


def test_train_divergence_exits_four(tmp_path, capsys):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path, lr=1e8, weight_decay=0.5, clip_norm=1e30,
                      max_epochs=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp_path / "x.npz")])
    assert rc == EXIT_DIVERGED
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "step" in err
    assert err.count("\n") == 1


def test_bad_config_value_exits_two(tmp_path, capsys):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path, batch_size=1)
    rc = main(["train", "--data", str(data), "--config", str(cfg),
               "--out", str(tmp_path / "x.npz")])
    assert rc == EXIT_CONFIG


# ----------------------------------------------------------------- crossval


def test_crossval_run_dir_layout(tmp_path, capsys):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    run = tmp_path / "run"
    rc = main(["crossval", "--data", str(data), "--config", str(cfg),
               "--out-dir", str(run)])
    assert rc == EXIT_OK
    for rel in ("config.txt", "metrics.txt", "metrics.kv", "subgroups.txt",
                "confusion_pooled.txt", "confusion_pooled.svg"):
        assert (run / rel).exists(), rel
    for fold in range(3):
        assert (run / "folds" / f"fold_{fold:02d}.npz").exists()
        assert (run / "folds" / f"fold_{fold:02d}_history.txt").exists()
    kv = parse_kv((run / "metrics.kv").read_text())
    assert kv["n_classes"] == "3" and kv["folds"] == "3"
    assert "gk.accuracy" in kv
    assert "confusion.left.right" in kv
    out = capsys.readouterr().out
    assert "mean" in out and "gk baseline" in out


def test_crossval_is_deterministic(tmp_path):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    for run in ("r1", "r2"):
        assert main(["crossval", "--data", str(data), "--config", str(cfg),
                     "--out-dir", str(tmp_path / run)]) == EXIT_OK
    for rel in ("metrics.kv", "metrics.txt", "folds/fold_01_history.txt",
                "confusion_pooled.svg"):
        assert sha256(tmp_path / "r1" / rel) == sha256(tmp_path / "r2" / rel)


def test_crossval_does_not_mutate_input(tmp_path):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    before = sha256(data)
    assert main(["crossval", "--data", str(data), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "run")]) == EXIT_OK
    assert sha256(data) == before


def test_crossval_two_class_logs_drop(tmp_path, capsys):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    run = tmp_path / "run2"
    rc = main(["crossval", "--data", str(data), "--config", str(cfg),
               "--classes", "2", "--out-dir", str(run)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "80 -> 66 samples" in out
    kv = parse_kv((run / "metrics.kv").read_text())
    assert kv["n_classes"] == "2"
    assert "confusion.left.right" in kv and "confusion.center.left" not in kv


def test_crossval_missing_gk_omits_row(tmp_path, capsys):
    manifest, samples = load_dataset(make_dataset(tmp_path))
    samples[0] = dataclasses.replace(samples[0], gk_direction=None)
    stripped = tmp_path / "nogk.pkds"
    save_dataset(stripped, samples, backbone=manifest.backbone)
    cfg = make_config(tmp_path)
    run = tmp_path / "run3"
    rc = main(["crossval", "--data", str(stripped), "--config", str(cfg),
               "--out-dir", str(run)])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "GK baseline row omitted" in captured.err
    assert "gk baseline" not in captured.out
    assert "gk.accuracy" not in parse_kv((run / "metrics.kv").read_text())


def test_crossval_infeasible_folds_fail_before_training(tmp_path, capsys):
    data = make_dataset(tmp_path, samples=12, seed=9)
    cfg = make_config(tmp_path, k_folds=10)
    run = tmp_path / "never"
    rc = main(["crossval", "--data", str(data), "--config", str(cfg),
               "--out-dir", str(run)])
    assert rc == EXIT_DATA
    assert "fewer than k" in capsys.readouterr().err
    assert not run.exists()


def test_crossval_jobs_match_serial(tmp_path):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path, max_epochs=2)
    for run, jobs in (("serial", "1"), ("parallel", "2")):
        assert main(["crossval", "--data", str(data), "--config", str(cfg),
                     "--out-dir", str(tmp_path / run), "--jobs", jobs]) \
            == EXIT_OK
    assert sha256(tmp_path / "serial" / "metrics.kv") \
        == sha256(tmp_path / "parallel" / "metrics.kv")
    # Bundles come back from the workers pickled; their checkpoints hold
    # the same arrays as the serial run's.
    for fold in range(3):
        name = f"folds/fold_{fold:02d}.npz"
        serial = load_checkpoint(tmp_path / "serial" / name)
        parallel = load_checkpoint(tmp_path / "parallel" / name)
        for kind in ("params", "state"):
            assert np.array_equal(getattr(serial[0], kind).vector,
                                  getattr(parallel[0], kind).vector)
        for kind in ("m", "v"):
            assert np.array_equal(getattr(serial[1], kind).vector,
                                  getattr(parallel[1], kind).vector)
        assert serial[2].to_text() == parallel[2].to_text()
        assert serial[2].step_grad_norm == parallel[2].step_grad_norm


def _crossval_in_child(argv):
    raise SystemExit(main(argv))


def test_crossval_jobs_after_threaded_steps(tmp_path, monkeypatch):
    import multiprocessing
    import kickdir.model as model_mod
    # Every step takes the threaded path, so the serial run below leaves the
    # worker thread running in this process before --jobs forks, and
    # each pool worker then starts a worker thread of its own.
    monkeypatch.setattr(model_mod, "THREAD_MIN_ELEMENTS", 0)
    monkeypatch.setattr(model_mod, "usable_cpus", lambda: 2)
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path, max_epochs=2)
    argv = ["crossval", "--data", str(data), "--config", str(cfg)]
    assert main(argv + ["--out-dir", str(tmp_path / "serial")]) == EXIT_OK
    assert model_mod.WORKER._pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=_crossval_in_child,
        args=(argv + ["--out-dir", str(tmp_path / "parallel"),
                      "--jobs", "2"],))
    child.start()
    child.join(timeout=300)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("crossval --jobs 2 hung after a threaded step")
    assert child.exitcode == EXIT_OK
    assert sha256(tmp_path / "serial" / "metrics.kv") \
        == sha256(tmp_path / "parallel" / "metrics.kv")


def test_worker_count_is_clamped():
    cpus = os.cpu_count() or 1
    assert _worker_count(1, 10) == 1
    assert _worker_count(8, 3) == min(3, cpus)
    assert _worker_count(10 ** 9, 10) == min(10, cpus)
    for bad in (0, -3):
        with pytest.raises(ConfigError):
            _worker_count(bad, 10)


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _worker_count(4, 10) == 1


def test_crossval_rejects_zero_jobs(tmp_path, capsys):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path)
    run_dir = tmp_path / "run"
    rc = main(["crossval", "--data", str(data), "--config", str(cfg),
               "--out-dir", str(run_dir), "--jobs", "0"])
    assert rc == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not run_dir.exists()


def test_config_env_var_is_default(tmp_path, monkeypatch):
    data = make_dataset(tmp_path)
    cfg = make_config(tmp_path, max_epochs=2)
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    run = tmp_path / "envrun"
    assert main(["crossval", "--data", str(data),
                 "--out-dir", str(run)]) == EXIT_OK
    assert len(list((run / "folds").glob("*.npz"))) == 3
    snapshot = (run / "config.txt").read_text()
    assert "max_epochs=2" in snapshot


# ------------------------------------------------------------------- ablate


def test_ablate_default_rows(tmp_path, capsys):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path, max_epochs=2)
    run = tmp_path / "abl"
    capsys.readouterr()
    rc = main(["ablate", "--data", str(data), "--config", str(cfg),
               "--out-dir", str(run)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[1].startswith("Running ")
    assert lines[2].startswith("Running+Kicking ")
    assert lines[3].startswith("Running+Kicking+Metadata")
    kv = parse_kv((run / "ablation.kv").read_text())
    assert kv["rows"] == "3"
    assert kv["row.0.branches"] == "Running"
    assert kv["row.2.branches"] == "Running+Kicking+Metadata"
    assert (run / "ablation.txt").read_text() in out


def test_ablate_custom_rows(tmp_path, capsys):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path, max_epochs=2)
    capsys.readouterr()
    rc = main(["ablate", "--data", str(data), "--config", str(cfg),
               "--branches", "run", "--branches", "run,kick,meta"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "Running\n" not in out  # table rows are padded, check prefixes
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("Running ")
    assert lines[2].startswith("Running+Kicking+Metadata")


def test_ablate_retrain_head(tmp_path, capsys):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path, max_epochs=2)
    capsys.readouterr()
    rc = main(["ablate", "--data", str(data), "--config", str(cfg),
               "--branches", "run,meta", "--retrain-head"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("Running+Metadata")


def test_ablate_rejects_kick_only(tmp_path, capsys):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path)
    rc = main(["ablate", "--data", str(data), "--config", str(cfg),
               "--branches", "kick"])
    assert rc == EXIT_CONFIG
    assert "run branch is mandatory" in capsys.readouterr().err


def test_ablate_rejects_empty_row(tmp_path, capsys):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path)
    rc = main(["ablate", "--data", str(data), "--config", str(cfg),
               "--branches", ""])
    assert rc == EXIT_CONFIG


def test_ablate_rejects_unknown_branch(tmp_path):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path)
    rc = main(["ablate", "--data", str(data), "--config", str(cfg),
               "--branches", "run,audio"])
    assert rc == EXIT_CONFIG


# ------------------------------------------------------------------- report


@pytest.fixture()
def finished_run(tmp_path):
    data = make_dataset(tmp_path, samples=60, seed=5)
    cfg = make_config(tmp_path, max_epochs=2)
    run = tmp_path / "run"
    assert main(["crossval", "--data", str(data), "--config", str(cfg),
                 "--out-dir", str(run)]) == EXIT_OK
    assert main(["ablate", "--data", str(data), "--config", str(cfg),
                 "--branches", "run", "--out-dir", str(run)]) == EXIT_OK
    return run


def test_report_text_rerender_identical(finished_run, capsys):
    assert main(["report", "--run-dir", str(finished_run)]) == EXIT_OK
    first = capsys.readouterr().out
    first_bytes = sha256(finished_run / "report" / "report.txt")
    assert main(["report", "--run-dir", str(finished_run)]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert sha256(finished_run / "report" / "report.txt") == first_bytes
    assert "crossval results (3-class)" in first
    assert "ablation" in first
    assert "side right" in first and "foot left" in first


def test_report_svg_wellformed(finished_run, capsys):
    assert main(["report", "--run-dir", str(finished_run),
                 "--format", "svg"]) == EXIT_OK
    capsys.readouterr()
    svg = (finished_run / "report" / "confusion_pooled.svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 1 + 9  # background + 3x3 cells


def test_report_incomplete_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--run-dir", str(empty)]) == EXIT_DATA
    assert "incomplete run directory" in capsys.readouterr().err


# ------------------------------------------------------ failures at the edge


def _config(root, name, text):
    path = root / name
    path.write_bytes(text)
    return str(path)


def _train(root, config, *extra, data="d.pkds"):
    return ["train", "--data", str(root / data), "--config", config,
            "--out", str(root / "never.npz"), *extra]


def _patched_header(root, name, old, new):
    """A copy of d.pkds whose header has the token old replaced by new."""
    raw = bytearray((root / "d.pkds").read_bytes())
    head = raw[:127].decode().rstrip()
    assert old in head
    raw[:128] = head.replace(old, new).ljust(127).encode() + b"\n"
    path = root / name
    path.write_bytes(bytes(raw))
    return str(path)


def _run_dir(root, name, files, *extra):
    run = root / name
    run.mkdir()
    for fname, body in files.items():
        (run / fname).write_bytes(body)
    return ["report", "--run-dir", str(run), *extra]


# One step per epoch (12 training kicks, batch 12) at lr=100: every training
# step's logits stay finite, and the validation after the second step
# overflows.
DIVERGES_AT_VALIDATION = b"""\
batch_size=12
max_epochs=3
k_folds=4
lr=100
weight_decay=0.5
warmup_frac=0
state_size=4
n_layers=1
meta_dim=4
fusion_hidden=16
augment=false
"""

# name: (argv from the fixture directory, exit code, part of the message)
BAD_INPUTS = {
    "config-not-ascii": (
        lambda r: _train(r, _config(r, "utf8.txt", b"seed=caf\xc3\xa9\n")),
        EXIT_CONFIG, "cannot read config file"),
    "config-is-a-directory": (
        lambda r: _train(r, str(r)), EXIT_CONFIG, "cannot read config file"),
    "lr-inf": (
        lambda r: _train(r, str(make_config(r, "lr.txt", lr="inf"))),
        EXIT_CONFIG, "lr must be finite"),
    "delta-init-max-inf": (
        lambda r: _train(r, str(make_config(r, "dm.txt",
                                            delta_init_max="inf"))),
        EXIT_CONFIG, "delta_init_max must be finite"),
    "clip-norm-nan": (
        lambda r: _train(r, str(make_config(r, "cn.txt", clip_norm="nan"))),
        EXIT_CONFIG, "clip_norm must be finite"),
    "augment-prob-above-one": (
        lambda r: _train(r, str(make_config(r, "ap.txt", augment="true",
                                            augment_apply_prob=2))),
        EXIT_CONFIG, "apply_prob must be in [0, 1]"),
    "augment-prob-above-one-augment-off": (
        lambda r: _train(r, str(make_config(r, "apoff.txt", augment="false",
                                            augment_apply_prob=2))),
        EXIT_CONFIG, "apply_prob must be in [0, 1]"),
    "bool-not-true-or-false": (
        lambda r: _train(r, str(make_config(r, "bool.txt", augment="yes"))),
        EXIT_CONFIG, "bad value for augment: expected true or false"),
    "fold-out-of-range": (
        lambda r: _train(r, str(make_config(r)), "--fold", "7"),
        EXIT_CONFIG, "--fold must be in [0, 3)"),
    "generate-negative-samples": (
        lambda r: ["generate", "--out", str(r / "neg.pkds"),
                   "--samples", "-1"],
        EXIT_CONFIG, "invalid synthetic dataset shape"),
    "generate-negative-noise": (
        lambda r: ["generate", "--out", str(r / "neg.pkds"),
                   "--samples", "3", "--noise", "-1"],
        EXIT_CONFIG, "invalid synthetic dataset parameters"),
    "generate-signal-nan": (
        lambda r: ["generate", "--out", str(r / "signal.pkds"),
                   "--samples", "3", "--signal", "nan"],
        EXIT_CONFIG, "invalid synthetic dataset parameters"),
    "generate-signal-inf": (
        lambda r: ["generate", "--out", str(r / "signal.pkds"),
                   "--samples", "3", "--signal", "inf"],
        EXIT_CONFIG, "invalid synthetic dataset parameters"),
    "generate-noise-nan": (
        lambda r: ["generate", "--out", str(r / "noise.pkds"),
                   "--samples", "3", "--noise", "nan"],
        EXIT_CONFIG, "invalid synthetic dataset parameters"),
    "generate-noise-inf": (
        lambda r: ["generate", "--out", str(r / "noise.pkds"),
                   "--samples", "3", "--noise", "inf"],
        EXIT_CONFIG, "invalid synthetic dataset parameters"),
    "label-space-mismatch": (
        lambda r: _train(r, str(make_config(r)), "--classes", "3",
                         data="two.pkds"),
        EXIT_DATA, "cannot treat a 2-class dataset as 3-class"),
    "header-value-unparsable": (
        lambda r: ["inspect", "--data",
                   _patched_header(r, "nan.pkds", " d=8 ", " d=eight ")],
        EXIT_DATA, "unparsable header value"),
    "header-dimensions-out-of-range": (
        lambda r: ["inspect", "--data",
                   _patched_header(r, "dims.pkds", " d=8 ", " d=0 ")],
        EXIT_DATA, "header dimensions out of range"),
    "header-dimensions-too-large": (
        lambda r: ["inspect", "--data",
                   _patched_header(r, "huge.pkds", " d=8 ",
                                   f" d={10 ** 20} ")],
        EXIT_DATA, "header dimensions too large"),
    "header-counts-malformed": (
        lambda r: ["inspect", "--data",
                   _patched_header(r, "nclass.pkds", "nclass=3", "nclass=2")],
        EXIT_DATA, "per-class counts malformed"),
    "header-counts-do-not-sum": (
        lambda r: ["inspect", "--data",
                   _patched_header(r, "count.pkds", " count=80 ",
                                   " count=79 ")],
        EXIT_DATA, "per-class counts do not sum to sample count"),
    "crossval-out-dir-is-a-file": (
        lambda r: ["crossval", "--data", str(r / "d.pkds"),
                   "--config", str(make_config(r)),
                   "--out-dir", str(r / "a_file")],
        EXIT_DATA, "cannot create"),
    "crossval-out-dir-under-a-file": (
        lambda r: ["crossval", "--data", str(r / "d.pkds"),
                   "--config", str(make_config(r)),
                   "--out-dir", str(r / "a_file" / "run")],
        EXIT_DATA, "cannot create"),
    "ablate-out-dir-is-a-file": (
        lambda r: ["ablate", "--data", str(r / "d.pkds"),
                   "--config", str(make_config(r, "one.txt", max_epochs=1)),
                   "--branches", "run", "--out-dir", str(r / "a_file")],
        EXIT_DATA, "cannot create"),
    "report-dir-is-a-file": (
        lambda r: _run_dir(r, "blocked", {"metrics.kv": b"",
                                          "report": b""}),
        EXIT_DATA, "cannot create"),
    "metrics-kv-malformed-value": (
        lambda r: _run_dir(r, "malformed", {"metrics.kv": b"n_classes=3x\n"}),
        EXIT_DATA, "malformed value for n_classes: '3x'"),
    "metrics-kv-missing-key": (
        lambda r: _run_dir(r, "missing", {"metrics.kv": b"n_classes=3\n"}),
        EXIT_DATA, "incomplete run directory: missing folds"),
    "metrics-kv-malformed-float": (
        lambda r: _run_dir(r, "float", {
            "metrics.kv": b"n_classes=3\nfolds=1\nfold.0.accuracy=high\n"}),
        EXIT_DATA, "malformed value for fold.0.accuracy: 'high'"),
    "metrics-kv-missing-float": (
        lambda r: _run_dir(r, "nofloat", {"metrics.kv": b"n_classes=3\n"
                                          b"folds=0\n"}),
        EXIT_DATA, "incomplete run directory: missing mean.accuracy"),
    "metrics-kv-not-ascii": (
        lambda r: _run_dir(r, "bytes", {"metrics.kv": b"n_classes=\xff\n"}),
        EXIT_DATA, "cannot read"),
    "ablation-kv-missing-row": (
        lambda r: _run_dir(r, "rows", {"ablation.kv": b"rows=1\n"}),
        EXIT_DATA, "missing row.0.branches"),
    "svg-without-metrics": (
        lambda r: _run_dir(r, "svg", {"ablation.kv": b"rows=0\n"},
                           "--format", "svg"),
        EXIT_DATA, "svg report needs metrics.kv"),
    "divergence-at-validation": (
        lambda r: _train(r, _config(r, "vd.txt", DIVERGES_AT_VALIDATION),
                         data="sixteen.pkds"),
        EXIT_DIVERGED, "non-finite logits"),
}


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("edge")
    manifest, samples = load_dataset(make_dataset(root))
    save_dataset(root / "two.pkds", binarize(samples, n_classes=3),
                 n_classes=2)
    make_dataset(root, "sixteen.pkds", samples=16, seed=3)
    (root / "a_file").write_bytes(b"")
    return root


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_ends_in_one_line(edge_dir, capsys, case):
    argv, code, message = BAD_INPUTS[case]
    argv = argv(edge_dir)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError(
    "Unable to allocate 142. PiB for an array with shape (100000000, "
    "1600000000) and data type float64")])
def test_out_of_memory_ends_in_one_line(edge_dir, capsys, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(kickdir.cli, "train_fold", exhausted)
    capsys.readouterr()
    assert main(_train(edge_dir, str(make_config(edge_dir)))) == EXIT_FAILURE
    assert capsys.readouterr().err == \
        f"error: {str(exc) or 'out of memory'}\n"


_CONFIG_KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
_config_value = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e309", "true", "false", "0",
                     "-1", "0.5", "weight_sum", ""]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)
_config_line = st.one_of(
    st.builds(lambda key, sep, value: f"{key}{sep}{value}".encode(),
              st.one_of(st.sampled_from(_CONFIG_KEYS), st.text(max_size=6)),
              st.sampled_from(["=", " = ", ""]), _config_value),
    st.binary(max_size=12),
)


@st.composite
def _config_texts(draw):
    lines = draw(st.lists(_config_line, max_size=6))
    if lines and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines)))  # a duplicate key
    return b"\n".join(lines)


@settings(derandomize=True, deadline=None)
@given(text=_config_texts())
def test_config_text_fuzz_ends_in_one_line(tmp_path_factory, text):
    """Any config file ends in a config error, or, when it is valid, in the
    data error of the missing dataset: no training runs."""
    root = tmp_path_factory.getbasetemp()
    config = root / "fuzzed_config.txt"
    config.write_bytes(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["train", "--data", str(root / "missing.pkds"),
                   "--config", str(config), "--out", str(root / "never.npz")])
    assert rc in (EXIT_CONFIG, EXIT_DATA)
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
