"""Shared machinery for the six-system comparison runs: per-mode samplers,
training-set preparation, model fitting, holdout evaluation, and the summary
table of per-class conditional kappas.

The published comparison is qualitative at desk scale: the sequence
classifiers outrank the single-date ones, the patch variants outrank their
pixel counterparts, and the patch-sequence system wins.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import assessment, baseline_nets, optimizer, recurrent_nets, sampling
from .checkpoint import MODES, MULTI_MODES, RNN_MODES, SINGLE_MODES
from .core_math import make_rng
from .errors import ConfigError
from .raster_data import SceneSeries

log = logging.getLogger(__name__)


@dataclass
class ExperimentSettings:
    """Desk-scale training knobs (the published work does not report a budget)."""

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
    holdout_accuracy: float
    epoch_losses: list[float]
    report: assessment.AssessmentReport | None = None
    class_counts: dict[int, tuple[int, int]] = field(default_factory=dict)


def default_fusion_dates(seq_len: int, reference_scene: int) -> tuple[int, ...]:
    """Four spread dates including the reference, mirroring the published choice
    of one winter, two consecutive spring and one year-end acquisition."""
    candidates = [reference_scene,
                  (reference_scene + 2) % seq_len,
                  (reference_scene + 3) % seq_len,
                  (reference_scene - 1) % seq_len]
    return tuple(dict.fromkeys(candidates))


def sampler_for_mode(mode: str, seq_len: int, bands: int, reference_scene: int,
                     fusion_dates: tuple[int, ...], seed: int,
                     train_fraction: float = 0.8) -> sampling.SamplerConfig:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    patch = 1 if mode.startswith("pixel") else 3
    if mode in RNN_MODES:
        n, indices = seq_len, None
    elif mode in SINGLE_MODES:
        n, indices = 1, (reference_scene,)
    else:
        if len(fusion_dates) != 4:
            raise ConfigError("multi-image modes fuse exactly four dates")
        n, indices = len(fusion_dates), tuple(fusion_dates)
    return sampling.SamplerConfig(patch_x=patch, patch_y=patch, bands=bands,
                                  seq_len=n, reference_scene=reference_scene,
                                  train_fraction=train_fraction, seed=seed,
                                  scene_indices=indices)


def subsample_per_class(samples, cap: int, seed: int):
    """Seeded per-class cap; 0 keeps everything."""
    if cap <= 0:
        return list(samples)
    rng = make_rng(seed)
    by_class: dict[int, list] = {}
    for s in samples:
        by_class.setdefault(int(s.label), []).append(s)
    kept = []
    for cls in sorted(by_class):
        group = by_class[cls]
        if len(group) > cap:
            picked = rng.choice(len(group), size=cap, replace=False)
            group = [group[i] for i in sorted(picked)]
        kept.extend(group)
    return kept


def fit_model(mode: str, xs: np.ndarray, labels: np.ndarray, num_classes: int,
              train_cfg: optimizer.TrainConfig, init_seed: int, hidden_dim: int,
              ffn_activation: str = "sigmoid", train_biases: bool = True,
              forget_bias: float = 0.0,
              fusion_dates: tuple[int, ...] = ()) -> tuple[object, list[float]]:
    """Initialise the mode's model from one make_rng(init_seed) generator and fit
    it with ADAM on xs (S, N, D); returns (model, per-epoch mean losses).

    Fusion modes draw their N members from that generator in date order, fit
    each on its own date, and report the member-averaged loss per epoch.
    """
    rng = make_rng(init_seed)
    input_dim = xs.shape[2]
    if mode in MULTI_MODES:
        members, losses = [], np.zeros(train_cfg.epochs)
        for d in range(xs.shape[1]):
            member = baseline_nets.init_ffn_params(input_dim, num_classes, rng,
                                                   activation=ffn_activation)
            result = optimizer.train_arrays(member, xs[:, d:d + 1, :], labels, train_cfg)
            members.append(result.params)
            losses += np.asarray(result.epoch_losses)
        model = baseline_nets.FusionEnsemble(members=members, date_ids=tuple(fusion_dates))
        return model, list(losses / xs.shape[1])
    if mode in RNN_MODES:
        init = recurrent_nets.init_lstm_params(input_dim, hidden_dim, num_classes, rng,
                                               train_biases=train_biases,
                                               forget_bias=forget_bias)
    else:
        init = baseline_nets.init_ffn_params(input_dim, num_classes, rng,
                                             activation=ffn_activation)
    result = optimizer.train_arrays(init, xs, labels, train_cfg)
    return result.params, result.epoch_losses


def train_system(mode: str, series: SceneSeries, truth: sampling.LabelMap,
                 num_classes: int, settings: ExperimentSettings,
                 reference_scene: int = 0,
                 fusion_dates: tuple[int, ...] = ()) -> SystemResult:
    """Extract samples for the mode, fit it, and score the held-out pool."""
    if mode in MULTI_MODES and not fusion_dates:
        fusion_dates = default_fusion_dates(len(series), reference_scene)
    cfg = sampler_for_mode(mode, seq_len=len(series), bands=series.band_count,
                           reference_scene=reference_scene, fusion_dates=fusion_dates,
                           seed=settings.sampler_seed)
    training_set = sampling.extract_training_set(series, cfg, truth)
    train_samples = subsample_per_class(training_set.train,
                                        settings.max_train_per_class,
                                        seed=settings.shuffle_seed + 1)
    holdout = subsample_per_class(training_set.holdout,
                                  settings.max_holdout_per_class,
                                  seed=settings.shuffle_seed + 2)
    if not train_samples or not holdout:
        raise ConfigError(f"mode {mode}: empty training or holdout pool")
    xs, labels = optimizer.stack_samples(train_samples)
    epochs = settings.rnn_epochs if mode in RNN_MODES else settings.ffn_epochs
    train_cfg = optimizer.TrainConfig(batch_size=settings.batch_size, epochs=epochs,
                                      shuffle_seed=settings.shuffle_seed, log_every=0,
                                      learning_rate=settings.learning_rate)
    model, epoch_losses = fit_model(mode, xs, labels, num_classes, train_cfg,
                                    init_seed=settings.init_seed,
                                    hidden_dim=settings.hidden_dim,
                                    ffn_activation=settings.ffn_activation,
                                    fusion_dates=fusion_dates)

    holdout_xs, actual = optimizer.stack_samples(holdout)
    predictions = sampling.predict_labels(model, holdout_xs)
    accuracy = float(np.mean(predictions == actual))
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (predictions, actual), 1)
    matrix = assessment.ErrorMatrix(counts=counts,
                                    class_names=tuple(f"class_{i}" for i in range(num_classes)))
    report = assessment.full_report(matrix)
    log.info("%s: holdout accuracy %.4f over %d samples", mode, accuracy, len(holdout))
    return SystemResult(mode=mode, model=model, holdout_accuracy=accuracy,
                        epoch_losses=epoch_losses, report=report,
                        class_counts=training_set.class_counts)


def run_comparison(series: SceneSeries, truth: sampling.LabelMap, num_classes: int,
                   settings: ExperimentSettings, modes=MODES,
                   reference_scene: int = 0,
                   fusion_dates: tuple[int, ...] = ()) -> dict[str, SystemResult]:
    return {mode: train_system(mode, series, truth, num_classes, settings,
                               reference_scene=reference_scene,
                               fusion_dates=fusion_dates)
            for mode in modes}


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
