import datetime
import json
import math

import numpy as np
import pytest

from pbrnn import core_math, raster_data as rd
from pbrnn.errors import FormatError, ShapeError


def make_meta(width=4, height=3, bands=2, mult=2.0e-5, add=-0.1, sun=90.0,
              scene_id="s0", day=1):
    return rd.SceneMeta(
        scene_id=scene_id,
        acquisition_date=datetime.date(2020, 1, day),
        width=width, height=height, band_count=bands,
        reflectance_mult=np.full(bands, mult),
        reflectance_add=np.full(bands, add),
        sun_elevation_deg=sun,
    )


def make_scene(dn_value=5000, mask_value=rd.CLEAR_LAND, **meta_kwargs):
    meta = make_meta(**meta_kwargs)
    dn = np.full((meta.band_count, meta.height, meta.width), dn_value, dtype=np.uint16)
    mask = np.full((meta.height, meta.width), mask_value, dtype=np.uint8)
    return rd.Scene(meta=meta, dn=dn, mask=mask)


class TestDnToToa:
    def test_zero_point(self):
        # mult*Q + add = 2e-5*5000 - 0.1 = 0 at 90 degrees
        stack = rd.dn_to_toa(make_scene(dn_value=5000, sun=90.0))
        assert np.all(stack.toa == 0.0)

    def test_hand_arithmetic_at_60_degrees(self):
        stack = rd.dn_to_toa(make_scene(dn_value=32768, sun=60.0))
        expected = (2.0e-5 * 32768 - 0.1) / math.sin(math.radians(60.0))
        assert stack.toa[0, 0, 0] == pytest.approx(expected, abs=1e-12)
        assert stack.toa[0, 0, 0] == pytest.approx(0.64127, abs=5e-6)

    def test_negative_values_preserved_and_flagged(self, caplog):
        with caplog.at_level("INFO", logger="pbrnn.raster_data"):
            stack = rd.dn_to_toa(make_scene(dn_value=0, sun=60.0))
        expected = -0.1 / math.sin(math.radians(60.0))
        assert stack.toa[0, 0, 0] == pytest.approx(expected, abs=1e-12)
        assert any("negative" in r.getMessage() for r in caplog.records)

    def test_strong_excursions_warned(self, caplog):
        scene = make_scene(dn_value=0, sun=60.0, add=-0.5)
        with caplog.at_level("WARNING", logger="pbrnn.raster_data"):
            rd.dn_to_toa(scene)
        assert any("below" in r.getMessage() for r in caplog.records)

    def test_bad_sun_elevation(self):
        for sun in (0.0, -5.0, 90.5):
            with pytest.raises(ValueError):
                rd.dn_to_toa(make_scene(sun=sun))

    def test_monotone_in_dn(self):
        lo = rd.dn_to_toa(make_scene(dn_value=1000, sun=45.0))
        hi = rd.dn_to_toa(make_scene(dn_value=2000, sun=45.0))
        assert np.all(hi.toa > lo.toa)

    def test_masked_pixels_zeroed(self):
        scene = make_scene(dn_value=32768, sun=60.0)
        scene.mask[1, 2] = rd.CLOUD
        scene.mask[0, 0] = rd.CLOUD_SHADOW
        scene.mask[2, 3] = rd.NODATA
        scene.mask[2, 0] = rd.SNOW  # clear by default
        stack = rd.dn_to_toa(scene)
        assert np.all(stack.toa[:, 1, 2] == 0.0)
        assert np.all(stack.toa[:, 0, 0] == 0.0)
        assert np.all(stack.toa[:, 2, 3] == 0.0)
        assert np.all(stack.toa[:, 2, 0] != 0.0)
        strict = rd.dn_to_toa(scene, snow_is_clear=False)
        assert np.all(strict.toa[:, 2, 0] == 0.0)

    def test_overflowing_reflectance_names_the_scene(self):
        scene = make_scene(dn_value=40000, mult=1e308, scene_id="s7")
        with pytest.raises(FormatError, match="s7"):
            rd.dn_to_toa(scene)


class TestApplyMask:
    """The masking step of `dn_to_toa`, driven through the scene's mask."""

    def masked(self, mask):
        scene = make_scene(dn_value=20000, sun=70.0)
        scene.mask[...] = mask
        return rd.dn_to_toa(scene)

    def test_all_clear_is_bit_identical(self):
        scene = make_scene(dn_value=20000, sun=70.0)
        out = self.masked(np.zeros((3, 4), dtype=np.uint8))
        mult = scene.meta.reflectance_mult[:, None, None]
        add = scene.meta.reflectance_add[:, None, None]
        unmasked = (mult * scene.dn.astype(np.float64) + add) / np.sin(np.radians(70.0))
        assert np.array_equal(out.toa, unmasked)

    def test_all_cloud_zeroes_everything(self):
        out = self.masked(np.full((3, 4), rd.CLOUD, dtype=np.uint8))
        assert np.all(out.toa == 0.0)

    def test_checkerboard_counts(self):
        mask = np.zeros((3, 4), dtype=np.uint8)
        mask[(np.indices((3, 4)).sum(axis=0) % 2) == 0] = rd.CLOUD
        out = self.masked(mask)
        zeroed = np.all(out.toa == 0.0, axis=0)
        assert zeroed.sum() == (mask == rd.CLOUD).sum() == 6

    def test_dimension_mismatch(self):
        scene = make_scene()
        with pytest.raises(ShapeError):
            rd.Scene(meta=scene.meta, dn=scene.dn, mask=np.zeros((4, 4), dtype=np.uint8))


class TestSeriesAndPixelVector:
    def make_series(self, n=3):
        stacks = []
        for t in range(n):
            scene = make_scene(dn_value=6000 + 1000 * t, day=1 + t, scene_id=f"s{t}")
            stacks.append(rd.dn_to_toa(scene))
        return rd.SceneSeries(scenes=stacks)

    def test_round_trip_known_values(self):
        series = self.make_series()
        scene = make_scene(day=9, scene_id="probe")
        scene.dn[:, 1, 2] = [30000, 40000]
        stack = rd.dn_to_toa(scene)
        series.scenes.append(stack)
        got = rd.pixel_vector(series, 3, 1, 2)
        expected = 2.0e-5 * np.array([30000.0, 40000.0]) - 0.1
        assert got == pytest.approx(expected, abs=1e-12)

    def test_masked_pixel_gives_zero_vector(self):
        scene = make_scene(dn_value=32768)
        scene.mask[2, 1] = rd.CLOUD
        series = rd.SceneSeries(scenes=[rd.dn_to_toa(scene)])
        assert np.array_equal(rd.pixel_vector(series, 0, 2, 1), np.zeros(2))

    def test_out_of_bounds(self):
        series = self.make_series()
        with pytest.raises(IndexError):
            rd.pixel_vector(series, 0, 0, series.width)
        with pytest.raises(IndexError):
            rd.pixel_vector(series, len(series), 0, 0)

    def test_dates_must_increase(self):
        a = rd.dn_to_toa(make_scene(day=2))
        b = rd.dn_to_toa(make_scene(day=2))
        with pytest.raises(ValueError):
            rd.SceneSeries(scenes=[a, b])

    def test_coregistration_enforced(self):
        a = rd.dn_to_toa(make_scene(day=1))
        b = rd.dn_to_toa(make_scene(day=2, width=5))
        with pytest.raises(ShapeError):
            rd.SceneSeries(scenes=[a, b])


class TestContainerIO:
    def random_scene(self, seed=0):
        rng = core_math.make_rng(seed)
        meta = make_meta(width=6, height=5, bands=3, sun=62.5)
        dn = rng.integers(0, 65535, size=(3, 5, 6), dtype=np.uint16)
        mask = rng.choice(
            np.array([rd.CLEAR_LAND, rd.CLEAR_WATER, rd.CLOUD], dtype=np.uint8),
            size=(5, 6))
        return rd.Scene(meta=meta, dn=dn, mask=mask)

    def test_scene_round_trip(self, tmp_path):
        scene = self.random_scene()
        rd.write_scene(tmp_path / "s0", scene)
        back = rd.read_scene(tmp_path / "s0")
        assert back.meta.scene_id == scene.meta.scene_id
        assert back.meta.acquisition_date == scene.meta.acquisition_date
        assert (back.meta.width, back.meta.height) == (scene.meta.width, scene.meta.height)
        assert np.array_equal(back.meta.reflectance_mult, scene.meta.reflectance_mult)
        assert np.array_equal(back.meta.reflectance_add, scene.meta.reflectance_add)
        assert back.meta.sun_elevation_deg == scene.meta.sun_elevation_deg
        assert np.array_equal(back.dn, scene.dn)
        assert np.array_equal(back.mask, scene.mask)

    def test_truncated_bands_rejected(self, tmp_path):
        scene = self.random_scene()
        rd.write_scene(tmp_path / "s0", scene)
        raw = (tmp_path / "s0" / rd.BANDS_FILENAME).read_bytes()
        (tmp_path / "s0" / rd.BANDS_FILENAME).write_bytes(raw[:-2])
        with pytest.raises(FormatError):
            rd.read_scene(tmp_path / "s0")

    def test_series_manifest_and_load(self, tmp_path):
        dirs = []
        for t in range(3):
            scene = self.random_scene(seed=t)
            meta = make_meta(width=6, height=5, bands=3, sun=62.5, day=1 + t,
                             scene_id=f"s{t}")
            scene = rd.Scene(meta=meta, dn=scene.dn, mask=scene.mask)
            rd.write_scene(tmp_path / f"scene_{t}", scene)
            dirs.append(f"scene_{t}")
        rd.write_series_manifest(tmp_path / "series.txt", dirs)
        series = rd.load_series(tmp_path / "series.txt")
        assert len(series) == 3
        assert series.width == 6 and series.height == 5 and series.band_count == 3

    @pytest.mark.parametrize("field, value", [("reflectance_mult", [float("inf")] * 2),
                                              ("reflectance_add", [0.0, float("nan")]),
                                              ("sun_elevation_deg", float("nan"))],
                             ids=["mult", "add", "sun"])
    def test_non_finite_metadata_rejected(self, field, value):
        raw = json.loads(make_meta().to_json())
        raw[field] = value
        with pytest.raises(FormatError):
            rd.SceneMeta.from_json(json.dumps(raw))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            rd.read_series_manifest(tmp_path / "nope.txt")


class TestClassScheme:
    def test_eight_classes_contiguous(self):
        scheme = rd.everglades_scheme()
        assert len(scheme) == 8
        assert [c.id for c in scheme.classes] == list(range(8))
        assert scheme.names[0] == "High Intensity Urban"
        assert scheme.names[-1] == "Water"

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValueError):
            rd.ClassScheme((rd.ClassDef(1, "x", "", (0, 0, 0)),))
