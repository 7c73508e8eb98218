"""Command-line front end tying the pipeline together.

Subcommands: synth, import, train, classify, assess, verify-tables,
compare-all. Exit codes: 0 success, 1 usage/config error, 2 data/format
error (unreadable or unwritable paths included), 3 verification failure.
Every command is deterministic given its configured seeds; file writes happen
after compute completes, but `train` and `classify` create their output
directories before it starts, so an output path that cannot be written fails
first.

`train` and `compare-all` check their config alike. `compare-all` builds
`experiments.ExperimentSettings` from the config keys that name its fields, so
a key the config leaves out takes that field's default; `run_comparison` checks
every mode's `RunConfig` from it before the first fit. `import` checks that the
scenes share a grid and band count and have distinct dates.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields, replace
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


def cmd_synth(args) -> int:
    pairs = cfg_mod.parse_kv_file(args.spec) if args.spec else {}
    if args.seed is not None:
        pairs["seed"] = str(args.seed)
    spec = cfg_mod.synthetic_spec_from_pairs(pairs)
    paths = synthetic.write_site(spec, args.out)
    print(f"wrote {len(paths.scene_dirs)} scenes, manifest {paths.manifest}, "
          f"truth map {paths.label_map}")
    return 0


def cmd_import(args) -> int:
    scene_dirs = {}  # acquisition date -> scene directory
    for scene_dir in map(Path, args.scenes):
        meta = raster_data.load_stack(scene_dir).meta
        grid = (meta.width, meta.height, meta.band_count)
        if not scene_dirs:
            first_grid, first_dir = grid, scene_dir
        elif grid != first_grid:
            raise ShapeError(f"{scene_dir}: width, height and bands {grid} differ from "
                             f"{first_grid} in {first_dir}")
        date = meta.acquisition_date
        if date in scene_dirs:
            raise FormatError(f"{scene_dir}: acquired on {date}, like {scene_dirs[date]}")
        scene_dirs[date] = scene_dir
    out = Path(args.out)
    # the manifest reader resolves relative entries against the manifest's directory
    raster_data.write_series_manifest(
        out, [d if d.is_absolute() else os.path.relpath(d, out.parent)
              for _, d in sorted(scene_dirs.items())])
    print(f"manifest {out}: {len(scene_dirs)} scenes in temporal order")
    return 0


def _load_inputs(run: experiments.RunConfig):
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
    if run.fusion_dates and run.mode not in ckpt.MULTI_MODES:
        raise ConfigError(f"config field 'fusion_dates': mode {run.mode} fuses no dates")
    series, truth = _load_inputs(run)
    num_classes = _num_classes_from_map(truth)
    out = Path(run.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable output fails before the fit
    trained, epoch_losses, _, fitted = experiments.prepare_and_fit(
        run, series, truth, num_classes, subsample_seed=run.train.shuffle_seed)

    scene_indices = run.sampler.scenes_for(series)
    checkpoint = ckpt.Checkpoint(
        mode=run.mode, patch_x=run.sampler.patch_x, patch_y=run.sampler.patch_y,
        bands=run.sampler.bands, num_classes=num_classes, hidden_dim=trained.hidden_dim,
        scene_indices=scene_indices, init_seed=run.init_seed,
        shuffle_seed=run.train.shuffle_seed, epochs_run=run.train.epochs,
        final_loss=epoch_losses[-1], model=trained,
        zero_whole_patch=run.sampler.zero_whole_patch)
    ckpt.save_checkpoint(out / "checkpoint.bin", checkpoint)
    raster_data.write_atomic(out / "loss.txt",
                             optimizer.loss_history_lines(epoch_losses).encode("utf-8"))
    print(f"trained {run.mode} on {fitted} samples; final mean loss "
          f"{epoch_losses[-1]:.6f}; checkpoint {out / 'checkpoint.bin'}")
    return 0


def write_ppm(path, label_map: sampling.LabelMap, colors) -> None:
    """Binary portable pixmap preview; no-data pixels are black."""
    height, width = label_map.labels.shape
    palette = np.zeros((256, 3), dtype=np.uint8)
    for class_id, color in enumerate(colors):
        palette[class_id] = color
    image = palette[label_map.labels]
    raster_data.write_atomic(path, f"P6\n{width} {height}\n255\n".encode("ascii")
                          + image.tobytes())


def cmd_classify(args) -> int:
    loaded = ckpt.load_checkpoint(args.checkpoint)
    series = raster_data.load_series(args.series)
    if max(loaded.scene_indices) >= len(series):
        raise ShapeError(f"checkpoint scene indices {loaded.scene_indices} exceed the "
                         f"{len(series)}-scene series")
    sampler = loaded.sampler_config()
    for path in (args.out, args.preview):  # unwritable outputs fail before the map is made
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    label_map = sampling.classify_map(series, sampler, loaded.model)
    scheme = raster_data.everglades_scheme()
    if loaded.num_classes == len(scheme):
        names, colors = list(scheme.names), [c.color for c in scheme.classes]
    else:
        names = [f"class_{i}" for i in range(loaded.num_classes)]
        colors = [(37 * (i + 1) % 256, 83 * (i + 1) % 256, 151 * (i + 1) % 256)
                  for i in range(loaded.num_classes)]
    out = Path(args.out)
    sampling.save_label_map(out, label_map, names)
    if args.preview:
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
        classified, names = sampling.load_label_map(args.classified, "classified")
        reference, _ = sampling.load_label_map(args.reference, "reference")
        design = assessment.StratifiedDesign(
            per_stratum=None if args.per_stratum is None else
            {int(c): args.per_stratum for c in np.unique(classified.labels)
             if int(c) != sampling.NODATA_LABEL},
            total_target=args.total, min_per_stratum=args.min_per_stratum,
            seed=args.seed)
        matrix = assessment.build_error_matrix(classified, reference, design, names)
    text = assessment.format_report(assessment.full_report(matrix))
    prefix = str(args.out_prefix)
    assessment.save_error_matrix(prefix + ".matrix.tsv", matrix)
    raster_data.write_atomic(prefix + ".report.txt", text.encode("utf-8"))
    print(text, end="")
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


# compare-all reads these keys and parses and checks the rest without applying
# them: each mode's epochs, dates and window come from ExperimentSettings and
# the mode rule
_COMPARE_ALL_READS = ({f.name for f in fields(experiments.ExperimentSettings)}
                      | {"mode", "series_manifest", "label_map", "output_dir",
                         "reference_scene", "fusion_dates"})


def cmd_compare_all(args) -> int:
    pairs = cfg_mod.parse_kv_file(args.config)
    run = cfg_mod.run_config_from_pairs(pairs, base_dir=Path(args.config).parent)
    ignored = sorted(set(pairs) - _COMPARE_ALL_READS)
    if ignored:
        log.warning("compare-all ignores config field(s) %s", ", ".join(ignored))
    settings = cfg_mod.experiment_settings_from_pairs(pairs)
    if args.quick:
        settings = replace(settings, rnn_epochs=2, ffn_epochs=2, max_train_per_class=50,
                           max_holdout_per_class=50)
    series, truth = _load_inputs(run)
    num_classes = _num_classes_from_map(truth)
    out = Path(run.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable output fails before the fits
    results = experiments.run_comparison(series, truth, num_classes, settings,
                                         reference_scene=run.sampler.reference_scene,
                                         fusion_dates=run.fusion_dates)
    names = [f"class_{i}" for i in range(num_classes)]
    table = experiments.comparison_table(results, names)
    raster_data.write_atomic(out / "comparison.tsv", table.encode("utf-8"))
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
            OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
