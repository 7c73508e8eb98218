"""Quantitative accuracy assessment: weighted stratified random sampling into
an error matrix (classified rows x reference columns) and the derived
statistics: overall accuracy, overall kappa, per-class producer's/user's
accuracy and row-conditioned conditional kappa, plus their mean/spread.

Undefined statistics (zero totals, degenerate denominators) are reported as
absent values, never coerced to zero. Display rounding follows the published
tables: percentages to 2 decimals, per-class kappas to 2, overall kappa to 3.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core_math import make_rng
from .errors import FormatError, ShapeError, UndefinedStatisticError
from .sampling import NODATA_LABEL, LabelMap, write_atomic

log = logging.getLogger(__name__)


@dataclass
class ErrorMatrix:
    """Square count matrix; counts[i][j] = pixels classified i with reference j."""

    counts: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.class_names)
        if self.counts.shape != (k, k):
            raise ShapeError(f"error matrix {self.counts.shape} vs {k} class names")
        if np.any(self.counts < 0):
            raise ValueError("error matrix counts must be non-negative")
        self.class_names = tuple(self.class_names)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass
class AssessmentReport:
    class_names: tuple[str, ...]
    overall_accuracy: float
    overall_kappa: float | None
    producer_accuracy: list[float | None]
    user_accuracy: list[float | None]
    conditional_kappa: list[float | None]
    row_totals: np.ndarray
    col_totals: np.ndarray
    mean_conditional_kappa: float | None
    std_conditional_kappa: float | None
    counts: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))


@dataclass
class StratifiedDesign:
    """Area-weighted allocation over classified-class strata with a floor.

    Explicit per-stratum sizes win over the proportional allocation derived
    from total_target; strata smaller than their allocation are taken whole
    (with a warning).
    """

    strata: tuple[int, ...] | None = None      # None = every class present
    per_stratum: dict[int, int] | None = None
    total_target: int = 800
    min_per_stratum: int = 50
    seed: int = 0


def overall_accuracy(m: ErrorMatrix) -> float:
    """Diagonal mass over the grand total."""
    if m.n == 0:
        raise ValueError("empty error matrix")
    return float(np.trace(m.counts) / m.n)


def overall_kappa(m: ErrorMatrix) -> float:
    """Chance-corrected agreement (N*diag - sum(row*col)) / (N^2 - sum(row*col))."""
    if m.n == 0:
        raise ValueError("empty error matrix")
    n = float(m.n)
    chance = float(np.dot(m.row_totals, m.col_totals))
    denom = n * n - chance
    if denom == 0.0:
        raise UndefinedStatisticError("kappa denominator is zero")
    return float((n * np.trace(m.counts) - chance) / denom)


def producer_user_accuracy(m: ErrorMatrix, class_id: int):
    """(producer's, user's) accuracy for one class; None where the total is zero."""
    if not 0 <= class_id < m.k:
        raise ValueError(f"class {class_id} out of range")
    diag = float(m.counts[class_id, class_id])
    col = float(m.col_totals[class_id])
    row = float(m.row_totals[class_id])
    producer = diag / col if col > 0 else None
    user = diag / row if row > 0 else None
    return producer, user


def conditional_kappa(m: ErrorMatrix, class_id: int) -> float:
    """Row-conditioned per-class kappa: (N*x_ii - r_i*c_i) / (N*r_i - r_i*c_i)."""
    if not 0 <= class_id < m.k:
        raise ValueError(f"class {class_id} out of range")
    n = float(m.n)
    row = float(m.row_totals[class_id])
    col = float(m.col_totals[class_id])
    if row == 0:
        raise UndefinedStatisticError(f"class {class_id} has an empty classified row")
    denom = n * row - row * col
    if denom == 0.0:
        raise UndefinedStatisticError(f"conditional kappa denominator is zero for {class_id}")
    return float((n * m.counts[class_id, class_id] - row * col) / denom)


def full_report(m: ErrorMatrix) -> AssessmentReport:
    """Every overall and per-class statistic; absent values stay None."""
    producers: list[float | None] = []
    users: list[float | None] = []
    kappas: list[float | None] = []
    for i in range(m.k):
        p, u = producer_user_accuracy(m, i)
        producers.append(p)
        users.append(u)
        try:
            kappas.append(conditional_kappa(m, i))
        except UndefinedStatisticError:
            kappas.append(None)
    defined = [k for k in kappas if k is not None]
    mean_k = float(np.mean(defined)) if defined else None
    std_k = float(np.std(defined, ddof=1)) if len(defined) > 1 else None
    try:
        kappa = overall_kappa(m)
    except UndefinedStatisticError:
        kappa = None
    return AssessmentReport(
        class_names=m.class_names,
        overall_accuracy=overall_accuracy(m),
        overall_kappa=kappa,
        producer_accuracy=producers,
        user_accuracy=users,
        conditional_kappa=kappas,
        row_totals=m.row_totals,
        col_totals=m.col_totals,
        mean_conditional_kappa=mean_k,
        std_conditional_kappa=std_k,
        counts=m.counts.copy(),
    )


def allocate_stratum_sizes(populations: dict[int, int], design: StratifiedDesign) -> dict[int, int]:
    """Per-stratum draw sizes: explicit, else area-proportional with a floor."""
    if design.per_stratum is not None:
        return {s: int(design.per_stratum.get(s, 0)) for s in populations}
    total_pop = sum(populations.values())
    sizes = {}
    for stratum, pop in populations.items():
        share = int(round(design.total_target * pop / total_pop)) if total_pop else 0
        sizes[stratum] = max(design.min_per_stratum, share)
    return sizes


def build_error_matrix(classified: LabelMap, reference: LabelMap,
                       design: StratifiedDesign, class_names) -> ErrorMatrix:
    """Draw the designed number of pixels per classified-class stratum, without
    replacement, and cross-tabulate against the reference map."""
    if classified.labels.shape != reference.labels.shape:
        raise ShapeError(f"maps {classified.labels.shape} vs {reference.labels.shape}")
    k = len(class_names)
    valid = (classified.labels != NODATA_LABEL) & (reference.labels != NODATA_LABEL)
    present = [int(c) for c in np.unique(classified.labels[valid])]
    strata = list(design.strata) if design.strata is not None else present
    if any(not 0 <= s < k for s in strata):
        raise ValueError(f"strata {strata} exceed the {k}-class scheme")
    populations = {
        s: int(((classified.labels == s) & valid).sum()) for s in strata
    }
    sizes = allocate_stratum_sizes(populations, design)
    rng = make_rng(design.seed)
    counts = np.zeros((k, k), dtype=np.int64)
    flat_classified = classified.labels.reshape(-1)
    flat_reference = reference.labels.reshape(-1)
    flat_valid = valid.reshape(-1)
    for stratum in sorted(strata):
        pool = np.flatnonzero((flat_classified == stratum) & flat_valid)
        size = sizes.get(stratum, 0)
        if size == 0:
            continue
        if pool.size < size:
            log.warning("stratum %d population %d below design size %d; taking all",
                        stratum, pool.size, size)
            chosen = pool
        else:
            chosen = rng.choice(pool, size=size, replace=False)
        np.add.at(counts, (flat_classified[chosen], flat_reference[chosen]), 1)
    return ErrorMatrix(counts=counts, class_names=tuple(class_names))


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.2f}"


def _fmt_kappa(value: float | None, digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def format_report(report: AssessmentReport) -> str:
    """Text layout mirroring the published tables."""
    lines = ["class\trow_total\tcol_total\tPA%\tUA%\tcond_kappa"]
    for i, name in enumerate(report.class_names):
        lines.append("\t".join([
            name,
            str(int(report.row_totals[i])),
            str(int(report.col_totals[i])),
            _fmt_pct(report.producer_accuracy[i]),
            _fmt_pct(report.user_accuracy[i]),
            _fmt_kappa(report.conditional_kappa[i]),
        ]))
    lines.append(f"Overall Accuracy (OA): {_fmt_pct(report.overall_accuracy)}%")
    lines.append(f"Overall Kappa (KAPPA): {_fmt_kappa(report.overall_kappa, 3)}")
    lines.append(f"Mean conditional kappa: {_fmt_kappa(report.mean_conditional_kappa)}")
    lines.append(f"Conditional kappa std dev: {_fmt_kappa(report.std_conditional_kappa)}")
    return "\n".join(lines) + "\n"


def save_error_matrix(path, m: ErrorMatrix) -> None:
    """Tab-separated counts with header row/column names."""
    lines = ["classified\\reference\t" + "\t".join(m.class_names)]
    for i, name in enumerate(m.class_names):
        lines.append(name + "\t" + "\t".join(str(int(c)) for c in m.counts[i]))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_error_matrix(path) -> ErrorMatrix:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if len(lines) < 2:
        raise FormatError(f"{path}: not an error-matrix table")
    header = lines[0].split("\t")
    names = tuple(header[1:])
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(names) + 1:
            raise FormatError(f"{path}: ragged row {cells[0]!r}")
        try:
            rows.append([int(c) for c in cells[1:]])
        except ValueError as exc:
            raise FormatError(f"{path}: non-integer count in row {cells[0]!r}") from exc
    if len(rows) != len(names):
        raise FormatError(f"{path}: {len(rows)} rows for {len(names)} classes")
    return ErrorMatrix(counts=np.array(rows, dtype=np.int64), class_names=names)
