import datetime
import os

import numpy as np
import pytest

from pbrnn import core_math, raster_data as rd, recurrent_nets as rn, sampling as sp
from pbrnn.errors import (BoundaryError, ConfigError, FormatError, LabeledSampleError,
                          ShapeError)

from oracle_utils import brute_force_patch


def make_stack(toa, mask=None, day=1, scene_id="s"):
    bands, height, width = toa.shape
    if mask is None:
        mask = np.zeros((height, width), dtype=np.uint8)
    contaminated = rd.contamination_mask(mask)
    toa = toa.copy()
    toa[:, contaminated] = 0.0
    meta = rd.SceneMeta(
        scene_id=f"{scene_id}{day}", acquisition_date=datetime.date(2020, 1, day),
        width=width, height=height, band_count=bands,
        reflectance_mult=np.full(bands, 2e-5), reflectance_add=np.full(bands, -0.1),
        sun_elevation_deg=60.0)
    return rd.ReflectanceStack(meta=meta, toa=toa, mask=mask, contaminated=contaminated)


def coordinate_series(n_scenes=4, height=8, width=9, bands=8, masks=None):
    """Scene t holds value 100000*t + 1000*row + 10*col + band at every pixel."""
    stacks = []
    for t in range(n_scenes):
        b, r, c = np.meshgrid(np.arange(bands), np.arange(height), np.arange(width),
                              indexing="ij")
        toa = 100000.0 * t + 1000.0 * r + 10.0 * c + b
        mask = None if masks is None else masks[t]
        stacks.append(make_stack(toa, mask=mask, day=t + 1))
    return rd.SceneSeries(stacks)


def default_cfg(**kwargs):
    base = dict(patch_x=3, patch_y=3, bands=8, seq_len=4, reference_scene=0, seed=7)
    base.update(kwargs)
    return sp.SamplerConfig(**base)


class TestExtractPatch:
    def test_constant_band_repeats(self):
        toa = np.zeros((8, 6, 6))
        for b in range(8):
            toa[b] = float(b)
        series = rd.SceneSeries([make_stack(toa)])
        cfg = default_cfg(seq_len=1)
        vec = sp.extract_patch(series, cfg, 0, 2, 3)
        assert np.array_equal(vec.reshape(9, 8), np.tile(np.arange(8.0), (9, 1)))

    def test_against_brute_force_indexer(self):
        series = coordinate_series()
        cfg = default_cfg()
        vec = sp.extract_patch(series, cfg, 2, 3, 4)
        oracle = brute_force_patch(series, 2, 3, 4, 3, 3)
        assert np.array_equal(vec, oracle)

    def test_thousand_random_probes(self):
        rng = core_math.make_rng(11)
        series = coordinate_series(n_scenes=3, height=12, width=10)
        cfg = default_cfg(seq_len=3)
        for _ in range(1000):
            t = int(rng.integers(0, 3))
            row = int(rng.integers(1, 11))
            col = int(rng.integers(1, 9))
            got = sp.extract_patch(series, cfg, t, row, col)
            assert np.array_equal(got, brute_force_patch(series, t, row, col, 3, 3))

    def test_boundary_rejected(self):
        series = coordinate_series()
        cfg = default_cfg()
        for row, col in ((0, 4), (7, 4), (3, 0), (3, 8)):
            with pytest.raises(BoundaryError):
                sp.extract_patch(series, cfg, 0, row, col)

    def test_even_patch_rejected(self):
        with pytest.raises(ConfigError):
            default_cfg(patch_x=2)


class TestBuildSample:
    def test_fully_clear(self):
        series = coordinate_series()
        sample = sp.build_sample(series, default_cfg(), 3, 4)
        assert sample.valid_mask.all()
        assert not np.any(np.all(sample.vectors == 0.0, axis=1))
        assert sample.label is None

    def test_clouded_scene_zeroed(self):
        masks = [None, np.full((8, 9), rd.CLOUD, dtype=np.uint8), None, None]
        series = coordinate_series(masks=masks)
        sample = sp.build_sample(series, default_cfg(), 3, 4)
        assert not sample.valid_mask[1]
        assert np.all(sample.vectors[1] == 0.0)
        assert sample.valid_mask[[0, 2, 3]].all()

    def test_partial_cloud_zeroes_whole_window_by_default(self):
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[2, 3] = rd.CLOUD  # corner of the window at (3, 4)
        series = coordinate_series(masks=[mask, None, None, None])
        sample = sp.build_sample(series, default_cfg(), 3, 4)
        assert not sample.valid_mask[0]
        assert np.all(sample.vectors[0] == 0.0)

    def test_partial_mode_keeps_clear_pixels(self):
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[2, 3] = rd.CLOUD
        series = coordinate_series(masks=[mask, None, None, None])
        cfg = default_cfg(zero_whole_patch=False)
        sample = sp.build_sample(series, cfg, 3, 4)
        assert sample.valid_mask[0]
        vec = sample.vectors[0].reshape(3, 3, 8)
        assert np.all(vec[0, 0] == 0.0)          # the masked corner
        assert np.all(vec[1, 1] != 0.0)          # the clear center

    def test_pixel_mode_equals_pixel_vector(self):
        series = coordinate_series()
        cfg = default_cfg(patch_x=1, patch_y=1)
        sample = sp.build_sample(series, cfg, 3, 4)
        for t in range(4):
            assert np.array_equal(sample.vectors[t], rd.pixel_vector(series, t, 3, 4))

    def test_pixel_mode_is_patch_center_slice(self):
        series = coordinate_series()
        patch = sp.build_sample(series, default_cfg(), 5, 6)
        pixel = sp.build_sample(series, default_cfg(patch_x=1, patch_y=1), 5, 6)
        center = patch.vectors.reshape(4, 3, 3, 8)[:, 1, 1, :]
        assert np.array_equal(center, pixel.vectors)

    def test_label_errors(self):
        series = coordinate_series()
        labels = np.full((8, 9), 3, dtype=np.uint8)
        labels[3, 4] = sp.NODATA_LABEL
        label_map = sp.LabelMap(labels=labels)
        with pytest.raises(LabeledSampleError):
            sp.build_sample(series, default_cfg(), 3, 4, label_map)
        sample = sp.build_sample(series, default_cfg(), 4, 4, label_map)
        assert sample.label == 3


class TestExtractTrainingSet:
    def striped_label_map(self, height=8, width=9):
        labels = np.zeros((height, width), dtype=np.uint8)
        labels[:, width // 2:] = 1
        return sp.LabelMap(labels=labels)

    def test_floor_of_train_fraction(self):
        # 12x27 interior -> 10x25 centers; class 0 cols 1..12 (120), class 1 cols 13..25 (130)
        series = coordinate_series(n_scenes=4, height=12, width=27)
        labels = np.zeros((12, 27), dtype=np.uint8)
        labels[:, 13:] = 1
        ts = sp.extract_training_set(series, default_cfg(), sp.LabelMap(labels=labels))
        for cls, (cands, selected) in ts.class_counts.items():
            assert selected == int(np.floor(0.8 * cands))
        total = sum(c for c, _ in ts.class_counts.values())
        assert total == 10 * 25
        assert len(ts.train) + len(ts.holdout) == total

    def test_reference_cloud_excludes_candidates(self):
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[0:4, 0:5] = rd.CLOUD
        series = coordinate_series(masks=[mask, None, None, None])
        ts = sp.extract_training_set(series, default_cfg(), self.striped_label_map())
        cont = rd.contamination_mask(mask)
        for sample in ts.train + ts.holdout:
            r, c = sample.location
            window = cont[r - 1:r + 2, c - 1:c + 2]
            assert not window.any()

    def test_boundary_centers_excluded(self):
        series = coordinate_series()
        ts = sp.extract_training_set(series, default_cfg(), self.striped_label_map())
        for sample in ts.train + ts.holdout:
            r, c = sample.location
            assert 1 <= r <= 6 and 1 <= c <= 7

    def test_selection_disjoint_and_deterministic(self):
        series = coordinate_series(n_scenes=4, height=12, width=12)
        labels = np.zeros((12, 12), dtype=np.uint8)
        labels[:, 6:] = 1
        lm = sp.LabelMap(labels=labels)
        a = sp.extract_training_set(series, default_cfg(), lm)
        b = sp.extract_training_set(series, default_cfg(), lm)
        loc_train = {s.location for s in a.train}
        loc_hold = {s.location for s in a.holdout}
        assert not loc_train & loc_hold
        assert [s.location for s in a.train] == [s.location for s in b.train]

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "partial"])
    def test_gathered_samples_match_build_sample(self, whole):
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[4:6, 4:7] = rd.CLOUD_SHADOW
        covered = np.zeros((8, 9), dtype=np.uint8)
        covered[1:4, 1:4] = rd.CLOUD  # the window centered at (2, 2) is all cloud
        series = coordinate_series(masks=[None, mask, covered, None])
        cfg = default_cfg(zero_whole_patch=whole)
        ts = sp.extract_training_set(series, cfg, self.striped_label_map())
        for sample in ts.train + ts.holdout:
            direct = sp.build_sample(series, cfg, *sample.location,
                                     self.striped_label_map())
            assert np.array_equal(sample.vectors, direct.vectors)
            assert np.array_equal(sample.valid_mask, direct.valid_mask)
            assert sample.label == direct.label

    def test_empty_class_reported_not_fatal(self):
        series = coordinate_series()
        labels = np.zeros((8, 9), dtype=np.uint8)
        labels[0, 0] = 2  # class 2 exists only on the boundary
        ts = sp.extract_training_set(series, default_cfg(), sp.LabelMap(labels=labels))
        assert ts.class_counts[2] == (0, 0)


class TestClassifyMap:
    def make_model(self, cfg, num_classes=3, seed=0):
        return rn.init_lstm_params(cfg.input_dim, 4, num_classes, core_math.make_rng(seed))

    def test_output_dims_and_boundary(self):
        series = coordinate_series()
        cfg = default_cfg()
        model = self.make_model(cfg)
        result = sp.classify_map(series, cfg, model)
        assert result.labels.shape == (8, 9)
        assert np.all(result.labels[0, :] == sp.NODATA_LABEL)
        assert np.all(result.labels[:, -1] == sp.NODATA_LABEL)
        assert np.all(result.labels[1:-1, 1:-1] != sp.NODATA_LABEL)

    def test_deterministic(self):
        series = coordinate_series()
        cfg = default_cfg()
        model = self.make_model(cfg)
        a = sp.classify_map(series, cfg, model)
        b = sp.classify_map(series, cfg, model)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "partial"])
    def test_matches_per_sample_classification(self, whole):
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[3:5, 2:4] = rd.CLOUD
        series = coordinate_series(masks=[None, mask, None, None])
        cfg = default_cfg(zero_whole_patch=whole)
        model = self.make_model(cfg, seed=5)
        result = sp.classify_map(series, cfg, model, row_block=3)
        rng = core_math.make_rng(13)
        for _ in range(25):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 8))
            sample = sp.build_sample(series, cfg, r, c)
            cls, _ = rn.classify(model, sample)
            assert result.labels[r, c] == cls

    def test_dim_mismatch_rejected(self):
        series = coordinate_series()
        cfg = default_cfg()
        model = rn.init_lstm_params(8, 4, 3, core_math.make_rng(0))  # pixel-width model
        with pytest.raises(ShapeError):
            sp.classify_map(series, cfg, model)


class TestCaches:
    def test_sample_cache_round_trip(self, tmp_path):
        series = coordinate_series()
        cfg = default_cfg()
        labels = np.ones((8, 9), dtype=np.uint8)
        samples = [sp.build_sample(series, cfg, r, c, sp.LabelMap(labels=labels))
                   for r, c in ((1, 1), (3, 4), (6, 7))]
        samples.append(sp.build_sample(series, cfg, 2, 2))  # unlabeled
        path = tmp_path / "train.samples"
        sp.save_sample_cache(path, samples, cfg)
        back, n, dim = sp.load_sample_cache(path)
        assert (n, dim) == (4, 72)
        assert len(back) == 4
        for orig, loaded in zip(samples, back):
            assert np.array_equal(orig.vectors, loaded.vectors)
            assert np.array_equal(orig.valid_mask, loaded.valid_mask)
            assert orig.label == loaded.label
            assert orig.location == loaded.location

    def test_cache_bad_magic(self, tmp_path):
        path = tmp_path / "x.samples"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(Exception):
            sp.load_sample_cache(path)

    def test_cache_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.samples"
        path.write_bytes(sp.SAMPLE_CACHE_MAGIC + b"\0" * 10)
        with pytest.raises(FormatError):
            sp.load_sample_cache(path)

    def test_label_map_round_trip(self, tmp_path):
        labels = np.arange(20, dtype=np.uint8).reshape(4, 5) % 8
        labels[0, 0] = sp.NODATA_LABEL
        lm = sp.LabelMap(labels=labels)
        path = tmp_path / "map.labels"
        sp.save_label_map(path, lm, [f"c{i}" for i in range(8)])
        back, names = sp.load_label_map(path)
        assert np.array_equal(back.labels, lm.labels)
        assert names == [f"c{i}" for i in range(8)]

    def test_failed_rename_keeps_previous_label_map(self, tmp_path, monkeypatch):
        path = tmp_path / "map.labels"
        sp.save_label_map(path, sp.LabelMap(labels=np.zeros((4, 5), dtype=np.uint8)), ["a"])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            sp.save_label_map(path, sp.LabelMap(labels=np.ones((3, 3), dtype=np.uint8)),
                              ["a", "b"])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
