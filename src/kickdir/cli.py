"""Command-line front end tying the library into a reproducible workflow:
dataset generation, single-fold training, evaluation, cross-validation,
branch ablation, and report rendering.

Every command is deterministic given its flags plus the config seed, and
failures map to distinct exit codes: 2 for configuration problems (shared
with argparse usage errors), 3 for dataset problems, 4 for training
divergence, 1 for any other package error or running out of memory. Each
failure is one line on stderr. Input dataset files are never modified.
"""

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import TrainConfig
from .data import (
    binarize,
    generate_synthetic,
    load_dataset,
    manifest_summary,
    save_dataset,
    stratified_kfold,
)
from .errors import ConfigError, DataError, KickdirError, TrainingDivergedError
from .metrics import class_names, evaluate as evaluate_model, gk_baseline, \
    mean_report, pool_confusions, ConfusionMatrix, SubgroupStats
from .model import ALL_BRANCHES, normalize_branches, usable_cpus
from .report import (
    build_ablation_kv,
    build_crossval_kv,
    confusion_svg,
    metric_row,
    parse_kv,
    render_confusion_text,
    render_kv,
    render_metrics_table,
    render_subgroup_table,
)
from .train import atomic_write, load_checkpoint, save_checkpoint, train_fold

CONFIG_ENV = "KICKDIR_CONFIG"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2  # argparse usage errors exit with the same code
EXIT_DATA = 3
EXIT_DIVERGED = 4

BRANCH_TITLES = {"run": "Running", "kick": "Kicking", "meta": "Metadata"}
BRANCH_ORDER = ("run", "kick", "meta")


# ---------------------------------------------------------------- helpers


def _load_config(path_flag):
    """Resolve the run configuration: flag beats the environment variable
    beats built-in defaults."""
    path = path_flag or os.environ.get(CONFIG_ENV)
    if path is None:
        return TrainConfig()
    return TrainConfig.load(path)


def _make_run_dir(path):
    """Create the directory path and its parents, as atomic_write writes a
    file: an OSError becomes a DataError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"cannot create {str(path)!r}: {exc.strerror or exc}") from exc


def _write_text(path, text):
    with atomic_write(path) as fh:
        fh.write(text.encode("ascii"))


def _apply_label_space(manifest, samples, classes):
    """Project the dataset onto the requested label space, logging the
    sample-count drop when center kicks are removed."""
    if classes is None or classes == manifest.n_classes:
        return list(samples), manifest.n_classes
    if classes == 2 and manifest.n_classes == 3:
        out = binarize(samples, n_classes=3)
        print(f"binarize: {len(samples)} -> {len(out)} samples "
              f"(center kicks dropped)")
        return out, 2
    raise DataError(
        f"cannot treat a {manifest.n_classes}-class dataset as "
        f"{classes}-class")


def _row_label(subset):
    return "+".join(BRANCH_TITLES[b] for b in BRANCH_ORDER if b in subset)


def _parse_branch_rows(values):
    """Each --branches occurrence is one comma-separated ablation row."""
    if not values:
        return [frozenset({"run"}), frozenset({"run", "kick"}), ALL_BRANCHES]
    rows = []
    for value in values:
        parts = [p.strip() for p in value.split(",") if p.strip()]
        try:
            subset = normalize_branches(parts)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if "run" not in subset:
            raise ConfigError(
                "the run branch is mandatory in every ablation row")
        rows.append(subset)
    return rows


def _fold_task(task):
    """One fold end to end; module-level so process pools can pickle it."""
    fold, train_samples, val_samples, cfg, branches, head = task
    with np.errstate(all="ignore"):  # divergence is reported, not warned
        bundle, opt, history = train_fold(train_samples, val_samples, cfg,
                                          fold=fold, branches=branches,
                                          head_branches=head)
    cm, report = evaluate_model(bundle, val_samples, branches=branches)
    return fold, bundle, opt, history, cm, report


def _worker_count(jobs, folds):
    """Pool size for --jobs: never more workers than folds or CPUs this
    process may use."""
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    return min(jobs, folds, usable_cpus())


def _run_folds(samples, split, cfg, jobs=1, branches=None, head=None):
    """Train and score every fold; returns results ordered by fold index.
    jobs is a pool size from _worker_count."""
    tasks = []
    for fold in range(split.k):
        train_samples, val_samples = split.split(samples, fold)
        tasks.append((fold, train_samples, val_samples, cfg, branches, head))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_fold_task, tasks))
    return [_fold_task(t) for t in tasks]


# --------------------------------------------------------------- commands


def cmd_generate(args):
    manifest, samples = generate_synthetic(
        args.samples, embedding_dim=args.dim, n_r=args.run_clips,
        n_k=args.kick_clips, signal_strength=args.signal,
        noise_std=args.noise, seed=args.seed)
    save_dataset(args.out, samples, backbone=manifest.backbone,
                 embedding_dim=manifest.embedding_dim,
                 n_r=manifest.n_r, n_k=manifest.n_k)
    print(f"wrote {args.out}")
    print(manifest_summary(manifest, samples), end="")
    return EXIT_OK


def cmd_inspect(args):
    manifest, samples = load_dataset(args.data)
    print(manifest_summary(manifest, samples), end="")
    return EXIT_OK


def cmd_train(args):
    cfg = _load_config(args.config)
    manifest, samples = load_dataset(args.data)
    samples, n_classes = _apply_label_space(manifest, samples, args.classes)
    cfg = dataclasses.replace(cfg, n_classes=n_classes)
    split = stratified_kfold(samples, k=cfg.k_folds, seed=cfg.seed)
    if not 0 <= args.fold < split.k:
        raise ConfigError(f"--fold must be in [0, {split.k})")
    train_samples, val_samples = split.split(samples, args.fold)
    with np.errstate(all="ignore"):  # divergence is reported, not warned
        bundle, opt, history = train_fold(train_samples, val_samples, cfg,
                                          fold=args.fold)
    save_checkpoint(args.out, bundle, opt, history, cfg)
    print(f"fold {args.fold}: best val accuracy {history.best_val_acc:.4f} "
          f"at epoch {history.best_epoch} "
          f"(stopped after epoch {history.stopped_epoch})")
    print(f"wrote checkpoint {args.out}")
    return EXIT_OK


def cmd_evaluate(args):
    bundle, _, _, _ = load_checkpoint(args.checkpoint)
    manifest, samples = load_dataset(args.data)
    if manifest.embedding_dim != bundle.embedding_dim:
        raise DataError(
            f"checkpoint expects {bundle.embedding_dim}-dim embeddings, "
            f"dataset has {manifest.embedding_dim}")
    samples, _ = _apply_label_space(manifest, samples, bundle.n_classes)
    cm, report = evaluate_model(bundle, samples)
    names = class_names(bundle.n_classes)
    print(render_metrics_table([metric_row("overall", report)]))
    print(render_subgroup_table(report.subgroups))
    print(render_confusion_text(cm, names), end="")
    return EXIT_OK


def cmd_crossval(args):
    cfg = _load_config(args.config)
    manifest, samples = load_dataset(args.data)
    samples, n_classes = _apply_label_space(manifest, samples, args.classes)
    cfg = dataclasses.replace(cfg, n_classes=n_classes)
    names = class_names(n_classes)

    # Fold feasibility and --jobs are checked before anything is written.
    split = stratified_kfold(samples, k=cfg.k_folds, seed=cfg.seed)
    jobs = _worker_count(args.jobs, split.k)

    missing_gk = sum(1 for s in samples if s.gk_direction is None)
    gk_report = None
    if missing_gk:
        print(f"warning: gk_direction missing on {missing_gk} sample(s); "
              f"GK baseline row omitted", file=sys.stderr)
    else:
        gk_report = gk_baseline(samples, n_classes=n_classes)

    folds_dir = os.path.join(args.out_dir, "folds")
    _make_run_dir(folds_dir)
    _write_text(os.path.join(args.out_dir, "config.txt"), cfg.to_text())

    results = _run_folds(samples, split, cfg, jobs=jobs)

    fold_reports, matrices, rows = [], [], []
    for fold, bundle, opt, history, cm, report in results:
        save_checkpoint(os.path.join(folds_dir, f"fold_{fold:02d}.npz"),
                        bundle, opt, history, cfg)
        _write_text(os.path.join(folds_dir, f"fold_{fold:02d}_history.txt"),
                    history.to_text())
        fold_reports.append(report)
        matrices.append(cm)
        rows.append(metric_row(f"fold {fold}", report))

    mean_rep = mean_report(fold_reports)
    pooled = pool_confusions(matrices)
    rows.append(metric_row("mean", mean_rep))
    if gk_report is not None:
        rows.append(metric_row("gk baseline", gk_report))

    table = render_metrics_table(rows)
    _write_text(os.path.join(args.out_dir, "metrics.txt"), table)
    _write_text(os.path.join(args.out_dir, "subgroups.txt"),
                render_subgroup_table(mean_rep.subgroups))
    _write_text(os.path.join(args.out_dir, "confusion_pooled.txt"),
                render_confusion_text(pooled, names))
    _write_text(os.path.join(args.out_dir, "confusion_pooled.svg"),
                confusion_svg(pooled, names, title="pooled confusion"))
    _write_text(os.path.join(args.out_dir, "metrics.kv"),
                render_kv(build_crossval_kv(n_classes, names, fold_reports,
                                            mean_rep, pooled, gk_report)))
    print(table, end="")
    print(f"run directory: {args.out_dir}")
    return EXIT_OK


def cmd_ablate(args):
    cfg = _load_config(args.config)
    manifest, samples = load_dataset(args.data)
    samples, n_classes = _apply_label_space(manifest, samples, args.classes)
    cfg = dataclasses.replace(cfg, n_classes=n_classes)
    branch_rows = _parse_branch_rows(args.branches)

    split = stratified_kfold(samples, k=cfg.k_folds, seed=cfg.seed)
    jobs = _worker_count(args.jobs, split.k)

    table_rows = []
    for subset in branch_rows:
        if args.retrain_head:
            branches, head = None, subset
        else:
            branches, head = subset, None
        results = _run_folds(samples, split, cfg, jobs=jobs,
                             branches=branches, head=head)
        mean_rep = mean_report([r[5] for r in results])
        table_rows.append((_row_label(subset), mean_rep))

    table = render_metrics_table(
        [metric_row(label, rep) for label, rep in table_rows])
    print(table, end="")
    if args.out_dir:
        _make_run_dir(args.out_dir)
        _write_text(os.path.join(args.out_dir, "ablation.txt"), table)
        _write_text(os.path.join(args.out_dir, "ablation.kv"),
                    render_kv(build_ablation_kv(table_rows)))
        print(f"run directory: {args.out_dir}")
    return EXIT_OK


# ------------------------------------------------------ report rendering


def _kv_value(kv, key, convert):
    try:
        return convert(kv[key])
    except KeyError as exc:
        raise DataError(f"incomplete run directory: missing {key}") from exc
    except ValueError as exc:
        raise DataError(f"malformed value for {key}: {kv[key]!r}") from exc


def _kv_metric_row(kv, label, prefix):
    return (label,
            _kv_value(kv, f"{prefix}.accuracy", float),
            _kv_value(kv, f"{prefix}.macro_precision", float),
            _kv_value(kv, f"{prefix}.macro_recall", float),
            _kv_value(kv, f"{prefix}.macro_f1", float))


def _crossval_sections(kv):
    """Rebuild the crossval tables from a parsed metrics.kv mapping."""
    n_classes = _kv_value(kv, "n_classes", int)
    names = class_names(n_classes)
    rows = []
    for fold in range(_kv_value(kv, "folds", int)):
        rows.append(_kv_metric_row(kv, f"fold {fold}", f"fold.{fold}"))
    rows.append(_kv_metric_row(kv, "mean", "mean"))
    if "gk.accuracy" in kv:
        rows.append(_kv_metric_row(kv, "gk baseline", "gk"))

    subgroups = {}
    for key in ("side_right", "side_left", "foot_right", "foot_left"):
        n = _kv_value(kv, f"subgroup.{key}.n", int)
        if n == 0:
            subgroups[key] = None
        else:
            subgroups[key] = SubgroupStats(
                n, _kv_value(kv, f"subgroup.{key}.accuracy", float))

    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for i, tname in enumerate(names):
        for j, pname in enumerate(names):
            counts[i, j] = _kv_value(kv, f"confusion.{tname}.{pname}", int)
    pooled = ConfusionMatrix(counts=counts)

    text = (f"crossval results ({n_classes}-class)\n\n"
            + render_metrics_table(rows)
            + "\nsubgroups\n" + render_subgroup_table(subgroups)
            + "\npooled confusion\n" + render_confusion_text(pooled, names))
    return text, pooled, names


def _ablation_section(kv):
    rows = []
    for idx in range(_kv_value(kv, "rows", int)):
        label = kv.get(f"row.{idx}.branches")
        if label is None:
            raise DataError(
                f"incomplete run directory: missing row.{idx}.branches")
        rows.append(_kv_metric_row(kv, label, f"row.{idx}"))
    return "ablation\n" + render_metrics_table(rows)


def _read_kv_file(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_kv(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path!r}: {exc}") from exc


def cmd_report(args):
    metrics_path = os.path.join(args.run_dir, "metrics.kv")
    ablation_path = os.path.join(args.run_dir, "ablation.kv")
    have_metrics = os.path.exists(metrics_path)
    have_ablation = os.path.exists(ablation_path)
    if not have_metrics and not have_ablation:
        raise DataError(
            f"incomplete run directory {args.run_dir!r}: neither metrics.kv "
            f"nor ablation.kv is present")
    report_dir = os.path.join(args.run_dir, "report")
    _make_run_dir(report_dir)

    if args.format == "svg":
        if not have_metrics:
            raise DataError(
                "svg report needs metrics.kv (no confusion matrix in an "
                "ablation-only run)")
        _, pooled, names = _crossval_sections(_read_kv_file(metrics_path))
        out = os.path.join(report_dir, "confusion_pooled.svg")
        _write_text(out, confusion_svg(pooled, names,
                                       title="pooled confusion"))
        print(f"wrote {out}")
        return EXIT_OK

    sections = []
    if have_metrics:
        text, _, _ = _crossval_sections(_read_kv_file(metrics_path))
        sections.append(text)
    if have_ablation:
        sections.append(_ablation_section(_read_kv_file(ablation_path)))
    text = "\n".join(sections)
    out = os.path.join(report_dir, "report.txt")
    _write_text(out, text)
    print(text, end="")
    return EXIT_OK


# ----------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kickdir",
        description="penalty-kick direction prediction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate",
                       help="write a synthetic planted-signal dataset")
    p.add_argument("--out", default="synthetic.pkds",
                   help="output dataset path")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--dim", type=int, default=16,
                   help="embedding dimension (at least 6)")
    p.add_argument("--signal", type=float, default=1.0,
                   help="planted signal strength")
    p.add_argument("--noise", type=float, default=0.05,
                   help="isotropic noise scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--run-clips", type=int, default=5)
    p.add_argument("--kick-clips", type=int, default=3)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("inspect", help="print a dataset summary")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("train", help="train one cross-validation fold")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help=f"config file (default ${CONFIG_ENV})")
    p.add_argument("--classes", type=int, choices=(2, 3))
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("crossval", help="full stratified cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help=f"config file (default ${CONFIG_ENV})")
    p.add_argument("--classes", type=int, choices=(2, 3))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="train folds concurrently")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("ablate", help="branch-ablation table")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help=f"config file (default ${CONFIG_ENV})")
    p.add_argument("--classes", type=int, choices=(2, 3))
    p.add_argument("--branches", action="append",
                   help="comma-separated branch row, repeatable "
                        "(default: run / run,kick / run,kick,meta)")
    p.add_argument("--retrain-head", action="store_true",
                   help="rebuild the fusion head without excluded branches "
                        "instead of zero-masking them")
    p.add_argument("--out-dir", help="write ablation.txt/ablation.kv here")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="re-render reports from a run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--format", choices=("text", "svg"), default="text")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KickdirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
