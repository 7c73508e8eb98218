"""One path from run settings to a fitted model, shared by `pbrnn train`,
`pbrnn compare-all` and the experiment scripts, plus the six-system
comparison built on it.

`sampler_for_mode` is the only rule that turns a mode into a patch size,
sequence length and scene subset, and `ExperimentSettings.run_config` the only
way from the experiments' settings to a mode's `RunConfig`, checked against
the series; `run_comparison` builds every mode's config before the first fit.
`prepare_and_fit` is the only select -> per-class cap -> cut -> `fit_model`
sequence: it cuts windows once, for exactly the samples it fits; its callers
differ only in the subsample seed they pass. `train_system` fits one config
and scores capped held-out centres, cut the same way. `ExperimentSettings` is
the one home of the experiments' defaults: `pbrnn compare-all` builds it from
the config keys that name its fields and leaves the rest at their defaults.

Independent fits run in forked worker processes through
`core_math.map_in_workers`, the pool that also classifies maps: the four
members of a fusion mode in `fit_model`, and the modes of `run_comparison`.
Every fit is seeded, so the results are bitwise those of a serial run.

The published comparison is qualitative at desk scale: the sequence
classifiers outrank the single-date ones, the patch variants outrank their
pixel counterparts, and the patch-sequence system wins.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import assessment, baseline_nets, optimizer, recurrent_nets, sampling
from .checkpoint import MODES, MULTI_MODES, RNN_MODES, SINGLE_MODES
from .core_math import make_rng, map_in_workers
from .errors import ConfigError
from .raster_data import SceneSeries

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """One training run: mode, sampler, trainer and model settings. The data
    paths are read only by the command line."""

    mode: str
    sampler: sampling.SamplerConfig
    train: optimizer.TrainConfig    # batching, seeds and the ADAM step size
    hidden_dim: int = 128
    init_seed: int = 0
    ffn_activation: str = "sigmoid"
    train_biases: bool = True
    fusion_dates: tuple[int, ...] = field(default_factory=tuple)
    max_train_per_class: int = 0  # 0 = use every selected sample
    series_manifest: Path | None = field(default=None, kw_only=True)
    label_map: Path | None = field(default=None, kw_only=True)
    output_dir: Path | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ConfigError("config field 'hidden_dim' must be >= 1")
        if self.ffn_activation not in ("sigmoid", "tanh"):
            raise ConfigError("config field 'ffn_activation' must be sigmoid or tanh")
        if self.max_train_per_class < 0:
            raise ConfigError("config field 'max_train_per_class' must be >= 0 (0 = no cap)")


@dataclass
class ExperimentSettings:
    """Desk-scale training knobs (the published work does not report a budget).
    The epochs and the holdout cap are not config keys."""

    hidden_dim: int = 32            # sequence-model width for synthetic runs
    learning_rate: float = 3e-3     # desk-scale rate; the published rate is 1e-4
    batch_size: int = 64
    rnn_epochs: int = 20
    ffn_epochs: int = 40
    max_train_per_class: int = 400  # 0 = all selected samples
    max_holdout_per_class: int = 200
    ffn_activation: str = "sigmoid"
    sampler_seed: int = 11
    init_seed: int = 12
    shuffle_seed: int = 13

    def run_config(self, mode: str, series: SceneSeries, reference_scene: int = 0,
                   fusion_dates: tuple[int, ...] = ()) -> RunConfig:
        """The mode's RunConfig under these settings, checked against the series
        before any fit; multi-date modes given no dates fuse default_fusion_dates."""
        if mode in MULTI_MODES and not fusion_dates:
            fusion_dates = default_fusion_dates(len(series), reference_scene)
        sampler = sampler_for_mode(mode, seq_len=len(series), bands=series.band_count,
                                   reference_scene=reference_scene, fusion_dates=fusion_dates,
                                   seed=self.sampler_seed)
        sampler.scenes_for(series)
        epochs = self.rnn_epochs if mode in RNN_MODES else self.ffn_epochs
        return RunConfig(mode=mode, sampler=sampler,
                         train=optimizer.TrainConfig(batch_size=self.batch_size, epochs=epochs,
                                                     shuffle_seed=self.shuffle_seed, log_every=0,
                                                     learning_rate=self.learning_rate),
                         hidden_dim=self.hidden_dim, init_seed=self.init_seed,
                         ffn_activation=self.ffn_activation, fusion_dates=tuple(fusion_dates),
                         max_train_per_class=self.max_train_per_class)


def ordering_site_spec(seed: int):
    """The designed benchmark site: confusable pairs separable only in time,
    heavy pixel noise that patch averaging suppresses, 10% cloud per scene."""
    from .synthetic import SyntheticSpec

    return SyntheticSpec(width=128, height=128, seq_len=23, noise_sigma=0.30,
                         cloud_fraction=0.10, pair_amplitude=0.05, seed=seed)


@dataclass
class SystemResult:
    mode: str
    model: object
    epoch_losses: list[float]
    report: assessment.AssessmentReport

    @property
    def holdout_accuracy(self) -> float:
        return self.report.overall_accuracy


def default_fusion_dates(seq_len: int, reference_scene: int) -> tuple[int, ...]:
    """Four spread dates including the reference, mirroring the published choice
    of one winter, two consecutive spring and one year-end acquisition."""
    candidates = [reference_scene,
                  (reference_scene + 2) % seq_len,
                  (reference_scene + 3) % seq_len,
                  (reference_scene - 1) % seq_len]
    return tuple(dict.fromkeys(candidates))


def sampler_for_mode(mode: str, seq_len: int, bands: int, reference_scene: int,
                     fusion_dates: tuple[int, ...], seed: int) -> sampling.SamplerConfig:
    """The mode rule: pixel modes read a 1x1 window and patch modes a 3x3 one;
    sequence modes read the first seq_len dates, single-date modes the
    reference date, and multi-date modes the four fusion dates."""
    if mode not in MODES:
        raise ConfigError(f"mode {mode!r} is not one of {', '.join(MODES)}")
    patch = 1 if mode.startswith("pixel") else 3
    if mode in RNN_MODES:
        n, indices = seq_len, None
    elif mode in SINGLE_MODES:
        n, indices = 1, (reference_scene,)
    else:
        if len(fusion_dates) != 4:
            raise ConfigError("multi-image modes fuse exactly four dates")
        repeated = sorted({t for t in fusion_dates if fusion_dates.count(t) > 1})
        if repeated:
            raise ConfigError(f"fusion dates must be distinct; repeated: {repeated}")
        n, indices = len(fusion_dates), tuple(fusion_dates)
    return sampling.SamplerConfig(patch_x=patch, patch_y=patch, bands=bands,
                                  seq_len=n, reference_scene=reference_scene, seed=seed,
                                  scene_indices=indices)


def subsample_per_class(labels: np.ndarray, cap: int, seed: int) -> np.ndarray:
    """Indices into labels keeping at most cap per class, seeded, class by class
    in ascending id and in input order within a class; 0 keeps everything."""
    if cap <= 0:
        return np.arange(len(labels))
    rng = make_rng(seed)
    kept = []
    for cls in np.unique(labels):
        group = np.flatnonzero(labels == cls)
        if group.size > cap:
            group = group[np.sort(rng.choice(group.size, size=cap, replace=False))]
        kept.append(group)
    return np.concatenate(kept) if kept else np.arange(0)


def _fit_member(xs, labels, run, task):
    """Fit one fusion member; task is (its initial FfnParams, its date's
    position d in xs (S, N, D)), and the date leads its epoch log lines."""
    member, d = task
    return optimizer.train_arrays(member, xs[:, d:d + 1], labels, run.train,
                                  log_prefix=f"date {run.fusion_dates[d]}: ")


def fit_model(run: RunConfig, xs: np.ndarray, labels: np.ndarray,
              num_classes: int) -> tuple[object, list[float]]:
    """Initialise the run's model from one make_rng(run.init_seed) generator and
    fit it with ADAM on xs (S, N, D); returns (model, per-epoch mean losses).

    Fusion modes draw their N members from that generator in date order, fit
    each on its own date in map_in_workers, and report the member-averaged
    loss per epoch, summed in date order.
    """
    rng = make_rng(run.init_seed)
    input_dim = xs.shape[2]
    if run.mode in MULTI_MODES:
        members = [baseline_nets.init_ffn_params(input_dim, num_classes, rng,
                                                 activation=run.ffn_activation)
                   for _ in range(xs.shape[1])]
        fits = map_in_workers(_fit_member, (xs, labels, run),
                              [(member, d) for d, member in enumerate(members)])
        losses = np.zeros(run.train.epochs)
        for fit in fits:
            losses += np.asarray(fit.epoch_losses)
        model = baseline_nets.FusionEnsemble(members=[fit.params for fit in fits])
        return model, list(losses / xs.shape[1])
    if run.mode in RNN_MODES:
        init = recurrent_nets.init_lstm_params(input_dim, run.hidden_dim, num_classes, rng,
                                               train_biases=run.train_biases)
    else:
        init = baseline_nets.init_ffn_params(input_dim, num_classes, rng,
                                             activation=run.ffn_activation)
    result = optimizer.train_arrays(init, xs, labels, run.train)
    return result.params, result.epoch_losses


def capped_windows(series: SceneSeries, sampler: sampling.SamplerConfig, centres,
                   cap: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Cap the (rows, cols, labels) centres per class with seed and cut windows
    for the kept ones only; returns their inputs (S, N, D) and labels (S,)."""
    rows, cols, labels = centres
    keep = subsample_per_class(labels, cap, seed)
    xs, _ = sampling.assemble_windows(series, sampler, rows[keep], cols[keep])
    return xs, labels[keep]


def prepare_and_fit(run: RunConfig, series: SceneSeries, truth: sampling.LabelMap,
                    num_classes: int, subsample_seed: int):
    """Select the run's training centres, cap each class at
    run.max_train_per_class with subsample_seed and fit the kept samples.
    Returns (model, per-epoch mean losses, the sampling.training_centres
    result, the number of samples fitted)."""
    centres = sampling.training_centres(series, run.sampler, truth)
    xs, labels = capped_windows(series, run.sampler, centres[0], run.max_train_per_class,
                                subsample_seed)
    if labels.size == 0:
        raise ConfigError(f"mode {run.mode}: no training samples satisfy the constraints")
    model, epoch_losses = fit_model(run, xs, labels, num_classes)
    return model, epoch_losses, centres, labels.size


def _fit_and_score(series: SceneSeries, truth: sampling.LabelMap, num_classes: int,
                   settings: ExperimentSettings, run: RunConfig) -> SystemResult:
    """Fit run and score its capped held-out centres, cut the same way."""
    model, epoch_losses, (_, holdout, _), _ = prepare_and_fit(
        run, series, truth, num_classes, subsample_seed=settings.shuffle_seed + 1)
    holdout_xs, actual = capped_windows(series, run.sampler, holdout,
                                        settings.max_holdout_per_class, settings.shuffle_seed + 2)
    if actual.size == 0:
        raise ConfigError(f"mode {run.mode}: empty holdout pool")

    predictions = sampling.predict_labels(model, holdout_xs)
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (predictions, actual), 1)
    matrix = assessment.ErrorMatrix(counts=counts,
                                    class_names=tuple(f"class_{i}" for i in range(num_classes)))
    report = assessment.full_report(matrix)
    log.info("%s: holdout accuracy %.4f over %d samples", run.mode, report.overall_accuracy,
             actual.size)
    return SystemResult(mode=run.mode, model=model, epoch_losses=epoch_losses, report=report)


def train_system(mode: str, series: SceneSeries, truth: sampling.LabelMap,
                 num_classes: int, settings: ExperimentSettings,
                 reference_scene: int = 0,
                 fusion_dates: tuple[int, ...] = ()) -> SystemResult:
    """Fit the mode under the settings and score the held-out pool."""
    return _fit_and_score(series, truth, num_classes, settings,
                          settings.run_config(mode, series, reference_scene, fusion_dates))


def run_comparison(series: SceneSeries, truth: sampling.LabelMap, num_classes: int,
                   settings: ExperimentSettings, modes=MODES,
                   reference_scene: int = 0,
                   fusion_dates: tuple[int, ...] = ()) -> dict[str, SystemResult]:
    """train_system for every mode, in map_in_workers, after building every
    mode's RunConfig; returns results in modes order. The longest fits go first."""
    longest_first = sorted(modes, key=lambda m: (m not in RNN_MODES, m not in MULTI_MODES))
    runs = [settings.run_config(m, series, reference_scene, fusion_dates) for m in longest_first]
    results = dict(zip(longest_first, map_in_workers(
        _fit_and_score, (series, truth, num_classes, settings), runs)))
    return {mode: results[mode] for mode in modes}


def comparison_table(results: dict[str, SystemResult], class_names) -> str:
    """Summary in the published comparison layout: per-class conditional kappa
    columns per system, then mean/std/OA/kappa rows."""
    modes = list(results)
    lines = ["land_cover_class\t" + "\t".join(modes)]

    def fmt(value, digits=2):
        return "-" if value is None else f"{value:.{digits}f}"

    for i, name in enumerate(class_names):
        cells = [fmt(results[m].report.conditional_kappa[i]) for m in modes]
        lines.append(name + "\t" + "\t".join(cells))
    lines.append("Mean-Kappa\t" + "\t".join(
        fmt(results[m].report.mean_conditional_kappa) for m in modes))
    lines.append("Standard Deviation\t" + "\t".join(
        fmt(results[m].report.std_conditional_kappa) for m in modes))
    lines.append("Overall Accuracy(%)\t" + "\t".join(
        f"{100 * results[m].report.overall_accuracy:.2f}" for m in modes))
    lines.append("Overall Kappa\t" + "\t".join(
        fmt(results[m].report.overall_kappa) for m in modes))
    lines.append("Holdout Accuracy(%)\t" + "\t".join(
        f"{100 * results[m].holdout_accuracy:.2f}" for m in modes))
    return "\n".join(lines) + "\n"
