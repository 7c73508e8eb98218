"""Published error matrices for the six classifier systems on the Everglades
evaluation site, bundled as verification fixtures.

`verify_published_tables` recomputes every statistic from the raw counts and
diffs it against the printed values: percentages are compared after rounding
to 2 decimals (tolerance 0.01 points), per-class kappas after rounding to 2
decimals and the overall kappa to 3 (tolerance 0.005). The printed mean/std
of the conditional kappas were derived from already-rounded per-class values,
so they get a slightly wider band (0.0075 / 0.005, unrounded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assessment import ErrorMatrix, full_report
from .raster_data import everglades_scheme

CLASS_NAMES = everglades_scheme().names

OA_TOL_POINTS = 0.01
PA_UA_TOL_POINTS = 0.01
KAPPA_TOL = 0.005
MEAN_KAPPA_TOL = 0.0075
SD_KAPPA_TOL = 0.005


@dataclass(frozen=True)
class PublishedAssessment:
    system: str
    counts: tuple[tuple[int, ...], ...]
    oa_percent: float
    kappa: float
    producer_percent: tuple[float, ...]
    user_percent: tuple[float, ...]
    conditional_kappa: tuple[float, ...]
    mean_kappa: float
    kappa_sd: float

    def matrix(self) -> ErrorMatrix:
        return ErrorMatrix(counts=np.array(self.counts, dtype=np.int64),
                           class_names=CLASS_NAMES)


PUBLISHED: dict[str, PublishedAssessment] = {
    "pb-rnn": PublishedAssessment(
        system="pb-rnn",
        counts=(
            (154, 2, 0, 0, 1, 0, 0, 1),
            (3, 82, 0, 0, 0, 1, 0, 1),
            (0, 0, 50, 0, 0, 0, 0, 0),
            (0, 0, 0, 118, 1, 1, 0, 0),
            (0, 0, 0, 1, 103, 0, 1, 0),
            (0, 0, 0, 3, 0, 195, 2, 2),
            (0, 0, 1, 0, 0, 2, 48, 0),
            (1, 1, 0, 1, 0, 0, 0, 155),
        ),
        oa_percent=97.21, kappa=0.967,
        producer_percent=(97.47, 96.47, 98.04, 95.93, 98.10, 97.99, 94.12, 97.48),
        user_percent=(97.47, 94.25, 100.00, 98.33, 98.10, 96.53, 94.12, 98.10),
        conditional_kappa=(0.97, 0.94, 1.00, 0.98, 0.98, 0.96, 0.94, 0.98),
        mean_kappa=0.97, kappa_sd=0.02,
    ),
    "pixel-rnn": PublishedAssessment(
        system="pixel-rnn",
        counts=(
            (137, 13, 0, 4, 0, 1, 0, 8),
            (4, 69, 1, 6, 1, 2, 0, 3),
            (2, 1, 43, 1, 2, 0, 0, 1),
            (1, 1, 1, 101, 5, 8, 3, 3),
            (1, 0, 0, 1, 92, 1, 0, 1),
            (2, 3, 1, 10, 0, 186, 1, 1),
            (1, 1, 2, 3, 1, 6, 45, 0),
            (2, 1, 2, 0, 1, 1, 0, 143),
        ),
        oa_percent=87.65, kappa=0.855,
        producer_percent=(91.33, 77.53, 86.00, 80.16, 90.20, 90.73, 91.84, 89.38),
        user_percent=(84.05, 80.23, 86.00, 82.11, 95.83, 91.18, 76.27, 95.33),
        conditional_kappa=(0.81, 0.78, 0.85, 0.79, 0.95, 0.89, 0.75, 0.94),
        mean_kappa=0.84, kappa_sd=0.08,
    ),
    "pixel-nn-single": PublishedAssessment(
        system="pixel-nn-single",
        counts=(
            (130, 36, 4, 8, 11, 4, 4, 13),
            (8, 29, 0, 0, 6, 1, 2, 4),
            (5, 0, 27, 8, 5, 1, 1, 3),
            (1, 3, 4, 50, 9, 14, 10, 1),
            (10, 10, 3, 10, 71, 3, 5, 3),
            (6, 14, 0, 43, 7, 170, 23, 7),
            (4, 0, 0, 6, 3, 5, 30, 2),
            (7, 2, 1, 0, 2, 5, 0, 130),
        ),
        oa_percent=64.74, kappa=0.583,
        producer_percent=(76.02, 30.85, 69.23, 40.00, 62.28, 83.74, 40.00, 79.75),
        user_percent=(61.90, 58.00, 54.00, 54.35, 61.74, 62.96, 60.00, 88.44),
        conditional_kappa=(0.54, 0.54, 0.52, 0.48, 0.57, 0.53, 0.57, 0.86),
        mean_kappa=0.58, kappa_sd=0.12,
    ),
    "pixel-nn-multi": PublishedAssessment(
        system="pixel-nn-multi",
        counts=(
            (136, 30, 6, 7, 9, 2, 5, 17),
            (7, 29, 1, 2, 6, 1, 1, 3),
            (3, 1, 34, 5, 5, 0, 0, 2),
            (3, 1, 2, 46, 7, 12, 7, 0),
            (9, 6, 5, 15, 75, 8, 2, 0),
            (6, 10, 0, 46, 12, 173, 33, 5),
            (1, 0, 1, 7, 3, 5, 33, 0),
            (6, 2, 2, 1, 2, 2, 0, 134),
        ),
        oa_percent=66.40, kappa=0.602,
        producer_percent=(79.53, 36.71, 66.67, 35.66, 63.03, 85.22, 40.74, 83.23),
        user_percent=(64.15, 58.00, 68.00, 58.97, 62.50, 60.70, 66.00, 89.93),
        conditional_kappa=(0.57, 0.54, 0.66, 0.53, 0.57, 0.51, 0.63, 0.88),
        mean_kappa=0.61, kappa_sd=0.12,
    ),
    "patch-nn-single": PublishedAssessment(
        system="patch-nn-single",
        counts=(
            (135, 28, 3, 5, 5, 3, 0, 3),
            (12, 48, 1, 2, 5, 0, 0, 1),
            (4, 0, 31, 4, 4, 1, 2, 4),
            (3, 9, 2, 72, 10, 15, 14, 0),
            (8, 3, 4, 1, 86, 2, 2, 1),
            (4, 6, 0, 27, 2, 168, 13, 2),
            (1, 0, 0, 1, 2, 8, 37, 1),
            (1, 0, 3, 1, 2, 1, 0, 152),
        ),
        oa_percent=75.54, kappa=0.712,
        producer_percent=(80.36, 51.06, 70.45, 63.72, 74.14, 84.85, 54.41, 92.68),
        user_percent=(74.18, 69.57, 62.00, 57.60, 80.37, 75.68, 74.00, 95.00),
        conditional_kappa=(0.69, 0.66, 0.60, 0.52, 0.78, 0.69, 0.72, 0.94),
        mean_kappa=0.70, kappa_sd=0.12,
    ),
    "patch-nn-multi": PublishedAssessment(
        system="patch-nn-multi",
        counts=(
            (141, 21, 4, 9, 4, 2, 0, 5),
            (10, 47, 2, 2, 4, 2, 1, 0),
            (3, 0, 33, 4, 4, 0, 2, 4),
            (1, 2, 4, 78, 8, 21, 12, 0),
            (2, 1, 1, 5, 89, 5, 7, 1),
            (4, 1, 0, 21, 1, 170, 19, 3),
            (0, 0, 1, 4, 2, 1, 42, 0),
            (5, 1, 1, 0, 0, 0, 0, 153),
        ),
        oa_percent=77.63, kappa=0.737,
        producer_percent=(84.94, 64.38, 71.74, 63.41, 79.46, 84.58, 50.60, 92.17),
        user_percent=(75.81, 69.12, 66.00, 61.90, 80.18, 77.63, 84.00, 95.62),
        conditional_kappa=(0.71, 0.67, 0.64, 0.56, 0.78, 0.72, 0.83, 0.95),
        mean_kappa=0.73, kappa_sd=0.12,
    ),
}


@dataclass(frozen=True)
class TableDiff:
    table: str
    statistic: str
    computed: float
    published: float

    def __str__(self) -> str:
        return (f"{self.table}: {self.statistic} computed {self.computed:.4f} "
                f"vs published {self.published:.4f}")


def _check_rounded(diffs, table, stat, computed, published, digits, tol):
    rounded = round(computed, digits)
    if abs(rounded - published) > tol + 1e-9:
        diffs.append(TableDiff(table, stat, rounded, published))


def check_table(pub: PublishedAssessment) -> list[TableDiff]:
    """Recompute one system's statistics and list every printed-value mismatch."""
    report = full_report(pub.matrix())
    diffs: list[TableDiff] = []
    _check_rounded(diffs, pub.system, "overall_accuracy_percent",
                   100.0 * report.overall_accuracy, pub.oa_percent, 2, OA_TOL_POINTS)
    _check_rounded(diffs, pub.system, "overall_kappa",
                   report.overall_kappa, pub.kappa, 3, KAPPA_TOL)
    for i, name in enumerate(CLASS_NAMES):
        _check_rounded(diffs, pub.system, f"producer_accuracy[{name}]",
                       100.0 * report.producer_accuracy[i], pub.producer_percent[i],
                       2, PA_UA_TOL_POINTS)
        _check_rounded(diffs, pub.system, f"user_accuracy[{name}]",
                       100.0 * report.user_accuracy[i], pub.user_percent[i],
                       2, PA_UA_TOL_POINTS)
        _check_rounded(diffs, pub.system, f"conditional_kappa[{name}]",
                       report.conditional_kappa[i], pub.conditional_kappa[i],
                       2, KAPPA_TOL)
    if abs(report.mean_conditional_kappa - pub.mean_kappa) > MEAN_KAPPA_TOL:
        diffs.append(TableDiff(pub.system, "mean_conditional_kappa",
                               report.mean_conditional_kappa, pub.mean_kappa))
    if abs(report.std_conditional_kappa - pub.kappa_sd) > SD_KAPPA_TOL:
        diffs.append(TableDiff(pub.system, "std_conditional_kappa",
                               report.std_conditional_kappa, pub.kappa_sd))
    return diffs


def verify_published_tables(tables: dict[str, PublishedAssessment] | None = None
                            ) -> dict[str, list[TableDiff]]:
    """Per-table mismatch lists; all-empty means every printed value reproduces."""
    tables = PUBLISHED if tables is None else tables
    return {name: check_table(pub) for name, pub in tables.items()}
