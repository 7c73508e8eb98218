"""Desk-scale synthetic multi-temporal site generator.

Scenes are built from per-class seasonal reflectance profiles (smooth
sinusoids per band with class-specific level, slope, amplitude and phase)
over a blob-shaped label map, plus Gaussian pixel noise and random elliptical
cloud/shadow blobs. Two designed class pairs share identical spectra at the
``confusable_at`` date but divergent trajectories elsewhere, so single-date
classifiers cannot separate them while sequence classifiers can.

Everything is deterministic per seed (one derived sub-stream per scene), and
scenes can be written out in the standard container format so the full import
path is exercised. `write_site` builds and writes each date's scene as one
task of `core_math.map_in_workers`, the pool the fits and map chunks use: the
workers inherit the profiles and the label map, so the bytes do not depend on
the CPU count. The label map's nearest-center search runs tile by tile over
the few centers that can be nearest in a tile.
"""

from __future__ import annotations

import datetime
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core_math import check_seed, make_rng, map_in_workers
from .errors import ConfigError
from .raster_data import (CLEAR_WATER, CLOUD, CLOUD_SHADOW, Scene, SceneMeta, SceneSeries,
                          dn_to_toa, write_scene, write_series_manifest)
from .sampling import LabelMap, save_label_map

DN_MULT = 8.0e-5
DN_ADD = -0.5

CONFUSABLE_PAIRS = ((0, 1), (2, 3))  # class pairs that collide at the confusable date


@dataclass
class SyntheticSpec:
    width: int = 128
    height: int = 128
    num_classes: int = 8
    seq_len: int = 23
    bands: int = 8
    noise_sigma: float = 0.02
    cloud_fraction: float = 0.10
    region_blob_scale: int = 20
    seed: int = 0
    confusable_at: int = 0
    pair_amplitude: float = 0.12
    level_amplitude: float = 0.05

    def __post_init__(self):
        if self.width < 4 or self.height < 4:
            raise ConfigError("synthetic site must be at least 4x4")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.seq_len < 1 or self.bands < 1:
            raise ConfigError("seq_len and bands must be positive")
        if not 0.0 <= self.cloud_fraction < 1.0:
            raise ConfigError("cloud_fraction must be in [0, 1)")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.region_blob_scale < 2:
            raise ConfigError("region_blob_scale must be >= 2")
        if not 0 <= self.confusable_at < self.seq_len:
            raise ConfigError("confusable_at must index a scene")
        check_seed("seed", self.seed)

    def resolved_profiles(self) -> np.ndarray:
        return default_profiles(self.num_classes, self.seq_len, self.bands,
                                confusable_at=self.confusable_at,
                                pair_amplitude=self.pair_amplitude,
                                level_amplitude=self.level_amplitude)


def confusable_pairs(num_classes: int) -> tuple[tuple[int, int], ...]:
    return tuple(p for p in CONFUSABLE_PAIRS if p[1] < num_classes)


def default_profiles(num_classes: int, seq_len: int, bands: int, confusable_at: int = 0,
                     pair_amplitude: float = 0.12, level_amplitude: float = 0.05) -> np.ndarray:
    """Seasonal sinusoid per class/band; designed pairs collide at one date.

    Pair members share level, slope and amplitude; their phases mirror around
    the confusable date so the curves cross there. Remaining classes sit on
    distinct reflectance levels with spread phases.
    """
    pairs = confusable_pairs(num_classes)
    second_members = {b for _, b in pairs}
    n_levels = num_classes - len(pairs)
    level_values = iter(np.linspace(0.20, 0.85, max(n_levels, 1)))
    levels = np.empty(num_classes)
    group = np.empty(num_classes, dtype=int)
    g = 0
    for k in range(num_classes):
        if k in second_members:
            levels[k] = levels[k - 1]
            group[k] = group[k - 1]
        else:
            levels[k] = next(level_values)
            group[k] = g
            g += 1

    b_frac = np.arange(bands) / max(bands - 1, 1)
    x = 2.0 * np.pi * np.arange(seq_len) / seq_len
    x0 = 2.0 * np.pi * confusable_at / seq_len
    profiles = np.empty((num_classes, seq_len, bands))
    pair_first = {a for a, _ in pairs}
    for k in range(num_classes):
        slope = 0.85 + 0.30 * b_frac if group[k] % 2 == 0 else 1.15 - 0.30 * b_frac
        base = levels[k] * slope  # (bands,)
        if k in pair_first:
            amp = pair_amplitude
            phase = 0.15 * (np.arange(bands) - (bands - 1) / 2.0)
        elif k in second_members:
            amp = pair_amplitude
            phase_first = 0.15 * (np.arange(bands) - (bands - 1) / 2.0)
            phase = np.pi - 2.0 * x0 - phase_first
        else:
            amp = level_amplitude
            phase = 2.0 * np.pi * k / num_classes + 0.2 * np.arange(bands)
        profiles[k] = base[None, :] + amp * np.sin(x[:, None] + phase[None, :])
    return profiles


VORONOI_TILE = 16  # pixels per side of a tile of the nearest-center search


def _nearest_centers(height: int, width: int, cr: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """Index of the nearest center (cr, cc) to every pixel, the lowest index on a
    tie, as np.argmin over all centers of (row - cr)**2 + (col - cc)**2 gives.

    The site is searched in VORONOI_TILE-square tiles. A pixel of a tile lies
    within h (the tile's half-diagonal) of the tile's center, and the center
    nearest to the tile's center lies d0 from it, so the pixel's nearest center
    lies within d0 + 2h of the tile's center. The tile's candidates are the
    centers within d0 + 2h + 1, the 1 covering rounding, kept in ascending
    index order, and argmin over them uses the same float64 expression as over
    all centers: it finds the same distances and returns the same first
    minimum."""
    tops = np.arange(0, height, VORONOI_TILE)
    lefts = np.arange(0, width, VORONOI_TILE)
    bottoms = np.minimum(tops + VORONOI_TILE, height)
    rights = np.minimum(lefts + VORONOI_TILE, width)
    tile_cols = (lefts + rights - 1) / 2.0
    half_widths = (rights - lefts - 1) / 2.0
    col_d2 = (tile_cols[:, None] - cc) ** 2  # (tiles in a row, centers)
    nearest = np.empty((height, width), dtype=np.intp)
    for top, bottom in zip(tops, bottoms):
        tile_d2 = ((top + bottom - 1) / 2.0 - cr) ** 2 + col_d2
        half_diagonals = np.hypot((bottom - top - 1) / 2.0, half_widths)
        reach = (np.sqrt(tile_d2.min(axis=1)) + 2.0 * half_diagonals + 1.0) ** 2
        rows = np.arange(top, bottom)[None, :, None]
        for d2, limit, left, right in zip(tile_d2, reach, lefts, rights):
            candidates = np.flatnonzero(d2 <= limit)
            cols = np.arange(left, right)[None, None, :]
            dist = ((rows - cr[candidates, None, None]) ** 2
                    + (cols - cc[candidates, None, None]) ** 2)
            nearest[top:bottom, left:right] = candidates[np.argmin(dist, axis=0)]
    return nearest


def _blob_label_map(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Voronoi blobs over random centers, classes assigned round-robin; retried
    until every class owns at least one pixel. The nearest center is searched
    tile by tile among the few centers that can be nearest there, so time and
    memory grow with the site, not with the site times the center count."""
    n_centers = max(spec.num_classes,
                    round(spec.width * spec.height / spec.region_blob_scale ** 2))
    for _ in range(64):
        cr = rng.uniform(0, spec.height, size=n_centers)
        cc = rng.uniform(0, spec.width, size=n_centers)
        classes = np.tile(np.arange(spec.num_classes),
                          -(-n_centers // spec.num_classes))[:n_centers]
        rng.shuffle(classes)
        labels = classes[_nearest_centers(spec.height, spec.width, cr, cc)].astype(np.uint8)
        if np.unique(labels).size == spec.num_classes:
            return labels
    raise ConfigError("could not place every class; increase the site size "
                      "or reduce region_blob_scale")


def _cloud_mask(spec: SyntheticSpec, labels: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Clear land/water codes plus random elliptical cloud and shadow blobs."""
    mask = np.zeros((spec.height, spec.width), dtype=np.uint8)
    water_class = spec.num_classes - 1
    mask[labels == water_class] = CLEAR_WATER
    if spec.cloud_fraction <= 0.0:
        return mask
    target = spec.cloud_fraction * spec.width * spec.height
    rows = np.arange(spec.height)[:, None]
    cols = np.arange(spec.width)[None, :]
    covered = np.zeros((spec.height, spec.width), dtype=bool)
    max_r = max(4.0, min(spec.width, spec.height) / 5.0)
    for blob in range(1000):
        if covered.sum() >= target:
            break
        cy = rng.uniform(0, spec.height)
        cx = rng.uniform(0, spec.width)
        ry = rng.uniform(3.0, max_r)
        rx = rng.uniform(3.0, max_r)
        inside = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
        code = CLOUD if blob % 2 == 0 else CLOUD_SHADOW
        mask[inside & ~covered] = code
        covered |= inside
    return mask


def _scene_sun_elevation(t: int, seq_len: int) -> float:
    return 55.0 + 25.0 * np.sin(np.pi * t / max(seq_len - 1, 1))


def _scene(spec: SyntheticSpec, profiles: np.ndarray, labels: np.ndarray, t: int) -> Scene:
    """Date t's raw DN scene, from its own make_rng([seed, t]) stream. The
    arithmetic runs in place on the one (H, W, Z) float64 array."""
    scene_rng = make_rng([spec.seed, t])
    toa = profiles[labels, t, :]  # (H, W, Z), a copy
    if spec.noise_sigma > 0.0:
        toa += scene_rng.normal(0.0, spec.noise_sigma, size=toa.shape)
    mask = _cloud_mask(spec, labels, scene_rng)
    sun = _scene_sun_elevation(t, spec.seq_len)
    toa *= np.sin(np.radians(sun))
    toa -= DN_ADD
    toa /= DN_MULT
    np.rint(toa, out=toa)
    np.clip(toa, 0, 65535, out=toa)
    dn = toa.astype(np.uint16).transpose(2, 0, 1)
    meta = SceneMeta(
        scene_id=f"synth_{t:02d}",
        acquisition_date=datetime.date(2020, 1, 1) + datetime.timedelta(days=16 * t),
        width=spec.width, height=spec.height, band_count=spec.bands,
        reflectance_mult=np.full(spec.bands, DN_MULT),
        reflectance_add=np.full(spec.bands, DN_ADD),
        sun_elevation_deg=sun,
    )
    return Scene(meta=meta, dn=dn, mask=mask)


def _site_truth(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """(class profiles, label map) that every scene of the site is built from."""
    return spec.resolved_profiles(), _blob_label_map(spec, make_rng([spec.seed, 0xB10B]))


def generate_scenes(spec: SyntheticSpec) -> tuple[Iterator[Scene], LabelMap]:
    """Raw DN scenes (invertible through the standard rescaling), each built
    only when the iterator reaches it, plus the truth map."""
    profiles, labels = _site_truth(spec)
    return (_scene(spec, profiles, labels, t) for t in range(spec.seq_len)), LabelMap(labels)


def generate(spec: SyntheticSpec) -> tuple[SceneSeries, LabelMap]:
    """Reflectance series (through the standard DN conversion) plus ground truth."""
    scenes, truth = generate_scenes(spec)
    return SceneSeries(scenes=[dn_to_toa(s) for s in scenes]), truth


@dataclass
class SitePaths:
    manifest: Path
    label_map: Path
    scene_dirs: list[Path] = field(default_factory=list)


def _write_date(spec: SyntheticSpec, profiles: np.ndarray, labels: np.ndarray,
                out_dir: Path, t: int) -> Path:
    """Build date t's scene and write its container under out_dir; returns its directory."""
    scene = _scene(spec, profiles, labels, t)
    scene_dir = out_dir / scene.meta.scene_id
    write_scene(scene_dir, scene)
    return scene_dir


def write_site(spec: SyntheticSpec, out_dir) -> SitePaths:
    """Write every scene's container, the manifest and the truth map. Each
    date's scene is built and written by one task of core_math.map_in_workers,
    so it never has to leave the process that built it."""
    out_dir = Path(out_dir)
    profiles, labels = _site_truth(spec)
    scene_dirs = map_in_workers(_write_date, (spec, profiles, labels, out_dir),
                                range(spec.seq_len))
    manifest = out_dir / "series.manifest"
    write_series_manifest(manifest, [d.name for d in scene_dirs])
    label_path = out_dir / "truth.labels"
    save_label_map(label_path, LabelMap(labels),
                   [f"class_{i}" for i in range(spec.num_classes)])
    return SitePaths(manifest=manifest, label_map=label_path, scene_dirs=scene_dirs)
