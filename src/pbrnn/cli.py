"""Command-line front end tying the pipeline together.

Subcommands: synth, import, train, classify, assess, verify-tables,
compare-all. Exit codes: 0 success, 1 usage/config error, 2 data/format
error, 3 verification failure. Every command is deterministic given its
configured seeds; file writes happen after compute completes.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import (assessment, checkpoint as ckpt, config as cfg_mod, experiments, optimizer,
               raster_data, reference_matrices, sampling, synthetic)
from .errors import (BoundaryError, ConfigError, FormatError, LabeledSampleError,
                     ShapeError, VerificationError)

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1, not argparse's 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbrnn",
                     description="Patch-sequence land-cover classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-temporal site")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", help="flat key=value synthetic spec file")
    p.add_argument("--seed", type=int, help="override the spec seed")

    p = sub.add_parser("import", help="validate scene containers and write a manifest")
    p.add_argument("scenes", nargs="+", help="scene container directories")
    p.add_argument("--out", required=True, help="manifest path to write")

    p = sub.add_parser("train", help="train the configured system")
    p.add_argument("--config", required=True)

    p = sub.add_parser("classify", help="classify a series with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--series", required=True, help="series manifest")
    p.add_argument("--out", required=True, help="label map path")
    p.add_argument("--preview", help="also write a color preview (binary portable pixmap)")

    p = sub.add_parser("assess", help="error matrix + statistics for a classified map")
    p.add_argument("--classified", help="classified label map")
    p.add_argument("--reference", help="reference label map")
    p.add_argument("--matrix", help="bypass sampling: read an error-matrix TSV")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--total", type=int, default=800, help="stratified total target")
    p.add_argument("--min-per-stratum", type=int, default=50)
    p.add_argument("--per-stratum", type=int,
                   help="fixed per-stratum size (overrides --total)")
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("verify-tables",
                   help="recompute the published accuracy tables from bundled counts")

    p = sub.add_parser("compare-all", help="train and summarize all six systems")
    p.add_argument("--config", required=True)
    p.add_argument("--quick", action="store_true",
                   help="small training budget (for smoke tests)")
    return parser


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    sampling.write_atomic(path, text.encode("utf-8"))


def cmd_synth(args) -> int:
    pairs = cfg_mod.parse_kv_file(args.spec) if args.spec else {}
    spec = cfg_mod.synthetic_spec_from_pairs(pairs)
    if args.seed is not None:
        pairs["seed"] = str(args.seed)
        spec = cfg_mod.synthetic_spec_from_pairs(pairs)
    paths = synthetic.write_site(spec, args.out)
    print(f"wrote {len(paths.scene_dirs)} scenes, manifest {paths.manifest}, "
          f"truth map {paths.label_map}")
    return 0


def cmd_import(args) -> int:
    stacks = []
    for scene_dir in args.scenes:
        stack = raster_data.load_stack(scene_dir)
        stacks.append((stack.meta.acquisition_date, Path(scene_dir)))
    stacks.sort(key=lambda pair: pair[0])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the manifest reader resolves relative entries against the manifest's directory
    raster_data.write_series_manifest(
        out, [d if d.is_absolute() else os.path.relpath(d, out.parent) for _, d in stacks])
    print(f"manifest {out}: {len(stacks)} scenes in temporal order")
    return 0


def _load_inputs(run: cfg_mod.RunConfig):
    series = raster_data.load_series(run.series_manifest)
    truth, _ = sampling.load_label_map(run.label_map)
    if truth.labels.shape != (series.height, series.width):
        raise ShapeError(f"label map {truth.labels.shape} vs series "
                         f"{(series.height, series.width)}")
    return series, truth


def _num_classes_from_map(truth: sampling.LabelMap) -> int:
    classes = [int(c) for c in np.unique(truth.labels) if c != sampling.NODATA_LABEL]
    if not classes:
        raise FormatError("label map holds no labeled pixels")
    return max(classes) + 1


def cmd_train(args) -> int:
    run = cfg_mod.run_config_from_file(args.config)
    series, truth = _load_inputs(run)
    num_classes = _num_classes_from_map(truth)
    training_set = sampling.extract_training_set(series, run.sampler, truth)
    samples = experiments.subsample_per_class(training_set.train,
                                              run.max_train_per_class,
                                              seed=run.train.shuffle_seed)
    if not samples:
        raise ConfigError("no training samples satisfy the constraints")
    xs, labels = optimizer.stack_samples(samples)
    trained, epoch_losses = experiments.fit_model(
        run.mode, xs, labels, num_classes, run.train, init_seed=run.init_seed,
        hidden_dim=run.hidden_dim, ffn_activation=run.ffn_activation,
        train_biases=run.train_biases, forget_bias=run.forget_bias,
        fusion_dates=run.fusion_dates)

    out = Path(run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    scene_indices = run.sampler.scenes_for(series)
    checkpoint = ckpt.Checkpoint(
        mode=run.mode, patch_x=run.sampler.patch_x, patch_y=run.sampler.patch_y,
        bands=run.sampler.bands, num_classes=num_classes, hidden_dim=trained.hidden_dim,
        scene_indices=scene_indices, init_seed=run.init_seed,
        shuffle_seed=run.train.shuffle_seed, epochs_run=run.train.epochs,
        final_loss=epoch_losses[-1], model=trained,
        zero_whole_patch=run.sampler.zero_whole_patch)
    ckpt.save_checkpoint(out / "checkpoint.bin", checkpoint)
    _write_text(out / "loss.txt", optimizer.loss_history_lines(epoch_losses))
    print(f"trained {run.mode} on {len(samples)} samples; final mean loss "
          f"{epoch_losses[-1]:.6f}; checkpoint {out / 'checkpoint.bin'}")
    return 0


def write_ppm(path, label_map: sampling.LabelMap, colors) -> None:
    """Binary portable pixmap preview; no-data pixels are black."""
    height, width = label_map.labels.shape
    palette = np.zeros((256, 3), dtype=np.uint8)
    for class_id, color in enumerate(colors):
        palette[class_id] = color
    image = palette[label_map.labels]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def cmd_classify(args) -> int:
    loaded = ckpt.load_checkpoint(args.checkpoint)
    series = raster_data.load_series(args.series)
    if loaded.bands != series.band_count:
        raise ShapeError(f"checkpoint expects {loaded.bands} bands, series has "
                         f"{series.band_count}")
    if max(loaded.scene_indices) >= len(series):
        raise ShapeError(f"checkpoint scene indices {loaded.scene_indices} exceed the "
                         f"{len(series)}-scene series")
    sampler = loaded.sampler_config()
    label_map = sampling.classify_map(series, sampler, loaded.model)
    scheme = raster_data.everglades_scheme()
    names = list(scheme.names) if loaded.num_classes == len(scheme) \
        else [f"class_{i}" for i in range(loaded.num_classes)]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sampling.save_label_map(out, label_map, names)
    if args.preview:
        colors = [c.color for c in scheme.classes] if loaded.num_classes == len(scheme) \
            else [(37 * (i + 1) % 256, 83 * (i + 1) % 256, 151 * (i + 1) % 256)
                  for i in range(loaded.num_classes)]
        write_ppm(args.preview, label_map, colors)
    classified = int((label_map.labels != sampling.NODATA_LABEL).sum())
    print(f"classified {classified} pixels -> {out}")
    return 0


def cmd_assess(args) -> int:
    if args.matrix:
        matrix = assessment.load_error_matrix(args.matrix)
    else:
        if not args.classified or not args.reference:
            raise ConfigError("assess needs --classified and --reference "
                              "(or --matrix to bypass sampling)")
        classified, names = sampling.load_label_map(args.classified)
        reference, _ = sampling.load_label_map(args.reference)
        design = assessment.StratifiedDesign(
            per_stratum=None if args.per_stratum is None else
            {int(c): args.per_stratum for c in np.unique(classified.labels)
             if int(c) != sampling.NODATA_LABEL},
            total_target=args.total, min_per_stratum=args.min_per_stratum,
            seed=args.seed)
        matrix = assessment.build_error_matrix(classified, reference, design, names)
    report = assessment.full_report(matrix)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    assessment.save_error_matrix(Path(str(prefix) + ".matrix.tsv"), matrix)
    _write_text(Path(str(prefix) + ".report.txt"), assessment.format_report(report))
    print(assessment.format_report(report), end="")
    return 0


def cmd_verify_tables(_args) -> int:
    results = reference_matrices.verify_published_tables()
    failures = 0
    for name in sorted(results):
        diffs = results[name]
        if diffs:
            failures += len(diffs)
            print(f"{name}: FAIL ({len(diffs)} mismatches)")
            for diff in diffs:
                print(f"  {diff}")
        else:
            print(f"{name}: OK")
    if failures:
        raise VerificationError(f"{failures} statistics disagree with the published tables")
    return 0


def cmd_compare_all(args) -> int:
    run = cfg_mod.run_config_from_file(args.config)
    series, truth = _load_inputs(run)
    num_classes = _num_classes_from_map(truth)
    settings = experiments.ExperimentSettings(
        learning_rate=run.train.learning_rate,
        batch_size=run.train.batch_size,
        hidden_dim=run.hidden_dim,
        max_train_per_class=run.max_train_per_class,
        sampler_seed=run.sampler.seed,
        init_seed=run.init_seed,
        shuffle_seed=run.train.shuffle_seed,
        ffn_activation=run.ffn_activation,
    )
    if args.quick:
        settings.rnn_epochs = 2
        settings.ffn_epochs = 2
        settings.max_train_per_class = 50
        settings.max_holdout_per_class = 50
    fusion = run.fusion_dates or experiments.default_fusion_dates(
        len(series), run.sampler.reference_scene)
    results = experiments.run_comparison(series, truth, num_classes, settings,
                                         reference_scene=run.sampler.reference_scene,
                                         fusion_dates=fusion)
    names = [f"class_{i}" for i in range(num_classes)]
    table = experiments.comparison_table(results, names)
    out = Path(run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "comparison.tsv", table)
    print(table, end="")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "import": cmd_import,
    "train": cmd_train,
    "classify": cmd_classify,
    "assess": cmd_assess,
    "verify-tables": cmd_verify_tables,
    "compare-all": cmd_compare_all,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ShapeError, BoundaryError, LabeledSampleError,
            FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
