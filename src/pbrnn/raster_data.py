"""Multi-temporal multi-spectral raster model: scene import, DN-to-reflectance
rescaling, cloud/shadow mask application, and the co-registered scene series.

Scenes live on disk as a directory holding a `meta.json` sidecar, a
`bands.raw` file (band-sequential 16-bit unsigned little-endian, row-major
within band) and a `mask.raw` file (8-bit codes, row-major). A series is a
text manifest listing scene directories in temporal order. Reflectance is
computed on every load; a scene whose coefficients or clear-pixel reflectance
are not finite is rejected with FormatError.

Mask codes follow the external cloud-screening convention: 0 clear land,
1 clear water, 2 cloud shadow, 3 snow, 4 cloud, 255 nodata. Codes {2, 4, 255}
are contaminated; snow counts as clear unless configured otherwise.

Scenes and series are immutable after import and safe for shared read-only
parallel access.
"""

from __future__ import annotations

import datetime
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError

log = logging.getLogger(__name__)

CLEAR_LAND = 0
CLEAR_WATER = 1
CLOUD_SHADOW = 2
SNOW = 3
CLOUD = 4
NODATA = 255

META_FILENAME = "meta.json"
BANDS_FILENAME = "bands.raw"
MASK_FILENAME = "mask.raw"

# clear-pixel reflectance outside this range is flagged in the import log
REFLECTANCE_FLAG_LOW = -0.2
REFLECTANCE_FLAG_HIGH = 1.6


def contamination_codes(snow_is_clear: bool = True) -> frozenset[int]:
    codes = {CLOUD_SHADOW, CLOUD, NODATA}
    if not snow_is_clear:
        codes.add(SNOW)
    return frozenset(codes)


def contamination_mask(mask: np.ndarray, snow_is_clear: bool = True) -> np.ndarray:
    """Boolean (height, width) array marking contaminated pixels."""
    out = np.zeros(mask.shape, dtype=bool)
    for code in contamination_codes(snow_is_clear):
        out |= mask == code
    return out


@dataclass(frozen=True)
class SceneMeta:
    scene_id: str
    acquisition_date: datetime.date
    width: int
    height: int
    band_count: int
    reflectance_mult: np.ndarray   # per band
    reflectance_add: np.ndarray    # per band
    sun_elevation_deg: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.band_count <= 0:
            raise ValueError("scene dimensions must be positive")
        mult = np.asarray(self.reflectance_mult, dtype=np.float64)
        add = np.asarray(self.reflectance_add, dtype=np.float64)
        if mult.shape != (self.band_count,) or add.shape != (self.band_count,):
            raise ShapeError("rescaling coefficients must have one entry per band")
        if not (np.isfinite(mult).all() and np.isfinite(add).all()
                and np.isfinite(self.sun_elevation_deg)):
            raise ValueError("rescaling coefficients and sun elevation must be finite")
        object.__setattr__(self, "reflectance_mult", mult)
        object.__setattr__(self, "reflectance_add", add)

    def to_json(self) -> str:
        return json.dumps({
            "scene_id": self.scene_id,
            "acquisition_date": self.acquisition_date.isoformat(),
            "width": self.width,
            "height": self.height,
            "band_count": self.band_count,
            "reflectance_mult": self.reflectance_mult.tolist(),
            "reflectance_add": self.reflectance_add.tolist(),
            "sun_elevation_deg": self.sun_elevation_deg,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SceneMeta":
        try:
            raw = json.loads(text)
            return cls(
                scene_id=raw["scene_id"],
                acquisition_date=datetime.date.fromisoformat(raw["acquisition_date"]),
                width=int(raw["width"]),
                height=int(raw["height"]),
                band_count=int(raw["band_count"]),
                reflectance_mult=np.asarray(raw["reflectance_mult"], dtype=np.float64),
                reflectance_add=np.asarray(raw["reflectance_add"], dtype=np.float64),
                sun_elevation_deg=float(raw["sun_elevation_deg"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"bad scene metadata: {exc}") from exc


@dataclass
class Scene:
    """Raw digital numbers plus the per-pixel mask, as imported."""

    meta: SceneMeta
    dn: np.ndarray    # (band_count, height, width) uint16
    mask: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        expected = (self.meta.band_count, self.meta.height, self.meta.width)
        if self.dn.shape != expected:
            raise ShapeError(f"dn shape {self.dn.shape}, expected {expected}")
        if self.mask.shape != expected[1:]:
            raise ShapeError(f"mask shape {self.mask.shape}, expected {expected[1:]}")


@dataclass
class ReflectanceStack:
    """Top-of-atmosphere reflectance with contaminated pixels zeroed in every band."""

    meta: SceneMeta
    toa: np.ndarray           # (band_count, height, width) float64
    mask: np.ndarray          # (height, width) uint8 codes
    contaminated: np.ndarray  # (height, width) bool


@dataclass
class SceneSeries:
    """Temporally ordered, co-registered reflectance stacks."""

    scenes: list[ReflectanceStack]

    def __post_init__(self):
        if not self.scenes:
            raise ValueError("a series needs at least one scene")
        first = self.scenes[0]
        for stack in self.scenes[1:]:
            if stack.toa.shape != first.toa.shape:
                raise ShapeError("series scenes are not co-registered")
        dates = [s.meta.acquisition_date for s in self.scenes]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("scene dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.scenes)

    @property
    def width(self) -> int:
        return self.scenes[0].meta.width

    @property
    def height(self) -> int:
        return self.scenes[0].meta.height

    @property
    def band_count(self) -> int:
        return self.scenes[0].meta.band_count


@dataclass(frozen=True)
class ClassDef:
    id: int
    name: str
    description: str
    color: tuple[int, int, int]


@dataclass(frozen=True)
class ClassScheme:
    classes: tuple[ClassDef, ...]

    def __post_init__(self):
        ids = [c.id for c in self.classes]
        if ids != list(range(len(ids))):
            raise ValueError("class ids must be contiguous from 0")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def everglades_scheme() -> ClassScheme:
    """The eight-class legend used by the published study site."""
    rows = (
        ("High Intensity Urban",
         "Commercial, industrial, institutional constructions with large roofs; "
         "residential areas with impervious surfaces more than half of the cover.",
         (180, 0, 0)),
        ("Low Intensity Urban",
         "Residential areas with impervious surfaces under half of the cover; "
         "smaller urban service buildings and state highways.",
         (255, 130, 90)),
        ("Barren Land",
         "Urban areas with low percentages of constructed materials and vegetation, "
         "bare soil, beaches.",
         (210, 180, 140)),
        ("Forest",
         "Herbaceous cover and trees green throughout the year, including some "
         "wetland evergreen forest.",
         (0, 120, 0)),
        ("Cropland",
         "Crops and pastures mixed with bushes, small amounts of fallow land.",
         (230, 215, 60)),
        ("Woody Wetland",
         "Cypress/tupelo, strand swamp, coniferous wetland, mixed wetland "
         "hardwoods, mangrove swamp.",
         (70, 140, 120)),
        ("Emergent Herbaceous Wetland",
         "Freshwater non-forested wetland, prairies and bogs, freshwater and "
         "saltwater marshes.",
         (150, 210, 190)),
        ("Water", "Streams, canals, lakes, ponds, bays.", (0, 70, 200)),
    )
    return ClassScheme(tuple(
        ClassDef(i, name, desc, color) for i, (name, desc, color) in enumerate(rows)))


def dn_to_toa(scene: Scene, snow_is_clear: bool = True) -> ReflectanceStack:
    """Rescale digital numbers to sun-corrected reflectance and zero masked pixels.

    Per band: rho' = mult * DN + add, then rho = rho' / sin(sun_elevation).
    Negative values are preserved (they occur near the additive offset) and
    flagged in the log together with high excursions. Non-finite clear-pixel
    reflectance (coefficients that overflow) raises FormatError naming the scene.
    """
    if not 0.0 < scene.meta.sun_elevation_deg <= 90.0:
        raise ValueError(f"sun elevation {scene.meta.sun_elevation_deg} not in (0, 90]")
    sin_elev = np.sin(np.radians(scene.meta.sun_elevation_deg))
    mult = scene.meta.reflectance_mult[:, None, None]
    add = scene.meta.reflectance_add[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        toa = (mult * scene.dn.astype(np.float64) + add) / sin_elev
    contaminated = contamination_mask(scene.mask, snow_is_clear)
    clear = toa[:, ~contaminated]
    if not np.isfinite(clear).all():
        raise FormatError(f"scene {scene.meta.scene_id}: non-finite clear-pixel reflectance")
    n_low = int((clear < REFLECTANCE_FLAG_LOW).sum())
    n_high = int((clear > REFLECTANCE_FLAG_HIGH).sum())
    n_negative = int((clear < 0.0).sum())
    if n_low or n_high:
        log.warning("scene %s: %d clear-band values below %.2f, %d above %.2f",
                    scene.meta.scene_id, n_low, REFLECTANCE_FLAG_LOW,
                    n_high, REFLECTANCE_FLAG_HIGH)
    elif n_negative:
        log.info("scene %s: %d negative clear-band reflectance values preserved",
                 scene.meta.scene_id, n_negative)
    toa[:, contaminated] = 0.0
    return ReflectanceStack(meta=scene.meta, toa=toa,
                            mask=scene.mask.copy(), contaminated=contaminated)


def pixel_vector(series: SceneSeries, t: int, row: int, col: int) -> np.ndarray:
    """The band_count reflectance values at (row, col) in scene t."""
    if not 0 <= t < len(series):
        raise IndexError(f"scene index {t} out of range")
    if not (0 <= row < series.height and 0 <= col < series.width):
        raise IndexError(f"pixel ({row}, {col}) outside {series.height}x{series.width}")
    return series.scenes[t].toa[:, row, col].copy()


def write_scene(scene_dir, scene: Scene) -> None:
    scene_dir = Path(scene_dir)
    scene_dir.mkdir(parents=True, exist_ok=True)
    (scene_dir / META_FILENAME).write_text(scene.meta.to_json() + "\n", encoding="utf-8")
    (scene_dir / BANDS_FILENAME).write_bytes(
        np.ascontiguousarray(scene.dn, dtype="<u2").tobytes())
    (scene_dir / MASK_FILENAME).write_bytes(
        np.ascontiguousarray(scene.mask, dtype=np.uint8).tobytes())


def read_scene(scene_dir) -> Scene:
    scene_dir = Path(scene_dir)
    meta_path = scene_dir / META_FILENAME
    if not meta_path.is_file():
        raise FormatError(f"{scene_dir}: missing {META_FILENAME}")
    meta = SceneMeta.from_json(meta_path.read_text(encoding="utf-8"))
    n_pixels = meta.width * meta.height
    dn_bytes = (scene_dir / BANDS_FILENAME).read_bytes()
    if len(dn_bytes) != n_pixels * meta.band_count * 2:
        raise FormatError(f"{scene_dir}: {BANDS_FILENAME} has {len(dn_bytes)} bytes, "
                          f"expected {n_pixels * meta.band_count * 2}")
    dn = np.frombuffer(dn_bytes, dtype="<u2").reshape(
        meta.band_count, meta.height, meta.width)
    mask_bytes = (scene_dir / MASK_FILENAME).read_bytes()
    if len(mask_bytes) != n_pixels:
        raise FormatError(f"{scene_dir}: {MASK_FILENAME} has {len(mask_bytes)} bytes, "
                          f"expected {n_pixels}")
    mask = np.frombuffer(mask_bytes, dtype=np.uint8).reshape(meta.height, meta.width)
    return Scene(meta=meta, dn=dn.copy(), mask=mask.copy())


def write_series_manifest(path, scene_dirs) -> None:
    path = Path(path)
    lines = [str(d) for d in scene_dirs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_series_manifest(path) -> list[Path]:
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"missing series manifest {path}")
    base = path.parent
    dirs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry = Path(line)
        dirs.append(entry if entry.is_absolute() else base / entry)
    if not dirs:
        raise FormatError(f"series manifest {path} lists no scenes")
    return dirs


def load_stack(scene_dir) -> ReflectanceStack:
    """Read one scene container and produce its reflectance stack."""
    return dn_to_toa(read_scene(scene_dir))


def load_series(manifest_path) -> SceneSeries:
    """Load every scene named by the manifest, in temporal order."""
    return SceneSeries(scenes=[load_stack(d) for d in read_series_manifest(manifest_path)])
