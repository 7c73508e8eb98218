import datetime
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from pbrnn import core_math, raster_data as rd, recurrent_nets as rn, sampling as sp
from pbrnn.errors import (BoundaryError, ConfigError, FormatError, LabeledSampleError,
                          ShapeError)

from oracle_utils import brute_force_patch, brute_force_sample, lstm_classify, pixel_vector


def make_stack(dn, mask=None, day=1, scene_id="s", add=0.0, mult=1.0, sun=90.0):
    """The checked stack of a scene with digital numbers dn and per-band
    coefficients mult and add; with the sun at 90 degrees its reflectance is
    exactly mult * dn + add wherever that is exact in float64."""
    bands, height, width = dn.shape
    if mask is None:
        mask = np.zeros((height, width), dtype=np.uint8)
    meta = rd.SceneMeta(
        scene_id=f"{scene_id}{day}", acquisition_date=datetime.date(2020, 1, day),
        width=width, height=height, band_count=bands,
        reflectance_mult=np.broadcast_to(mult, bands), reflectance_add=np.broadcast_to(add, bands),
        sun_elevation_deg=sun)
    return rd.dn_to_toa(rd.Scene(meta=meta, dn=dn.astype(np.uint16), mask=mask))


def coordinate_series(n_scenes=4, height=8, width=9, bands=8, masks=None):
    """Scene t holds value 100000*t + 1000*row + 10*col + band at every pixel:
    the DN holds 1000*row + 10*col and the additive coefficient the rest."""
    stacks = []
    for t in range(n_scenes):
        _, r, c = np.meshgrid(np.arange(bands), np.arange(height), np.arange(width),
                              indexing="ij")
        mask = None if masks is None else masks[t]
        stacks.append(make_stack(1000 * r + 10 * c, mask=mask, day=t + 1,
                                 add=100000.0 * t + np.arange(bands)))
    return rd.SceneSeries(stacks)


def default_cfg(**kwargs):
    base = dict(patch_x=3, patch_y=3, bands=8, seq_len=4, reference_scene=0, seed=7)
    base.update(kwargs)
    return sp.SamplerConfig(**base)


class TestExtractPatch:
    def test_constant_band_repeats(self):
        dn = np.zeros((8, 6, 6), dtype=np.uint16)
        for b in range(8):
            dn[b] = b
        series = rd.SceneSeries([make_stack(dn)])
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


class TestRowSlabs:
    """_patch_plane computes reflectance only for the rows its windows read;
    every window equals the nested-loop oracle over the whole-scene `toa`."""

    @staticmethod
    def noisy_series(height=10, width=7):
        rng = core_math.make_rng(31)
        stacks = []
        for t in range(4):
            mask = np.where(rng.random((height, width)) < 0.15, rd.CLOUD, rd.CLEAR_LAND)
            stacks.append(make_stack(rng.integers(0, 65536, size=(8, height, width)),
                                     mask=mask.astype(np.uint8), day=t + 1,
                                     mult=rng.uniform(1e-5, 3e-5, 8),
                                     add=rng.uniform(-0.2, 0.0, 8), sun=37.3 + 9.0 * t))
        return rd.SceneSeries(stacks)

    @staticmethod
    def record_slabs(monkeypatch):
        slabs = []
        reflectance = rd.ReflectanceStack.reflectance

        def spy(stack, rows):
            slabs.append((rows.start, rows.stop))
            return reflectance(stack, rows)

        monkeypatch.setattr(rd.ReflectanceStack, "reflectance", spy)
        return slabs

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "partial"])
    @pytest.mark.parametrize("centres", [
        [(1, 3), (8, 5), (1, 1), (8, 1)],          # the first and last interior rows
        [(3, 4), (3, 5), (4, 1), (4, 2)],          # a chunk across a row boundary
        [(6, 2), (2, 5), (6, 2), (1, 1), (2, 5)],  # unsorted and repeated
    ], ids=["first-last", "row-boundary", "unsorted-repeated"])
    def test_windows_match_the_oracle(self, whole, centres, monkeypatch):
        series = self.noisy_series()
        cfg = default_cfg(zero_whole_patch=whole)
        rows, cols = np.array(centres).T
        slabs = self.record_slabs(monkeypatch)
        xs, valid = sp.assemble_windows(series, cfg, rows, cols)
        assert slabs == [(rows.min() - 1, rows.max() + 2)] * 4
        for j, (r, c) in enumerate(centres):
            vectors, valid_dates = brute_force_sample(series, cfg, r, c)
            assert np.array_equal(xs[j], vectors)
            assert np.array_equal(valid[j], valid_dates)

    def test_patch_over_a_contaminated_pixel_reads_zero(self, monkeypatch):
        series = self.noisy_series()
        slabs = self.record_slabs(monkeypatch)
        for t, stack in enumerate(series.scenes):
            r, c = (int(a[0]) for a in np.nonzero(stack.contaminated[2:8, 2:5]))
            patch = sp.extract_patch(series, default_cfg(), t, r + 2, c + 2)
            assert slabs[-1] == (r + 1, r + 4)
            assert np.array_equal(patch, brute_force_patch(series, t, r + 2, c + 2, 3, 3))
            assert np.all(patch.reshape(9, 8)[4] == 0.0)  # the window's centre
            assert np.count_nonzero(patch) > 0


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
            assert np.array_equal(sample.vectors[t], pixel_vector(series, t, 3, 4))

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
    def test_gathered_samples_match_the_oracle(self, whole):
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[4:6, 4:7] = rd.CLOUD_SHADOW
        covered = np.zeros((8, 9), dtype=np.uint8)
        covered[1:4, 1:4] = rd.CLOUD  # the window centered at (2, 2) is all cloud
        series = coordinate_series(masks=[None, mask, covered, None])
        cfg = default_cfg(zero_whole_patch=whole)
        ts = sp.extract_training_set(series, cfg, self.striped_label_map())
        labels = self.striped_label_map().labels
        for sample in ts.train + ts.holdout:
            vectors, valid = brute_force_sample(series, cfg, *sample.location)
            assert np.array_equal(sample.vectors, vectors)
            assert np.array_equal(sample.valid_mask, valid)
            assert sample.label == labels[sample.location]

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "partial"])
    @pytest.mark.parametrize("centres", [
        [(6, 7), (1, 1), (3, 4), (1, 5), (6, 2)],  # unsorted, first and last interior rows
        [(4, 4), (2, 6), (4, 4), (2, 6), (4, 4)],  # repeated
        [],
    ], ids=["unsorted", "repeated", "empty"])
    def test_gathered_windows_at_any_centres_match_nested_loops(self, whole, centres):
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[4:6, 4:7] = rd.CLOUD_SHADOW
        covered = np.zeros((8, 9), dtype=np.uint8)
        covered[0:3, 0:3] = rd.CLOUD  # the window centered at (1, 1) is all cloud
        series = coordinate_series(masks=[None, mask, covered, None])
        cfg = default_cfg(zero_whole_patch=whole)
        rows, cols = np.array(centres, dtype=np.int64).reshape(-1, 2).T
        xs, valid = sp.assemble_windows(series, cfg, rows, cols)
        assert xs.shape == (len(centres), 4, cfg.input_dim)
        assert valid.shape == (len(centres), 4)
        for j, (r, c) in enumerate(centres):
            vectors, valid_dates = brute_force_sample(series, cfg, r, c)
            assert np.array_equal(xs[j], vectors)
            assert np.array_equal(valid[j], valid_dates)

    @pytest.mark.parametrize("centre", [(0, 4), (7, 4), (3, 0), (3, 8)])
    def test_boundary_centre_rejected_by_the_gather(self, centre):
        rows, cols = np.array([3, centre[0]]), np.array([4, centre[1]])
        with pytest.raises(BoundaryError):
            sp.assemble_windows(coordinate_series(), default_cfg(), rows, cols)

    @pytest.mark.parametrize("n_centres", [1, 2])
    def test_band_mismatch_rejected_by_the_gather(self, n_centres):
        series = coordinate_series(n_scenes=3, height=12, width=12, bands=4)
        cfg = sp.SamplerConfig(bands=8, seq_len=3)
        rows = cols = np.arange(5, 5 + n_centres)
        with pytest.raises(ShapeError, match="series has 4 bands, sampler expects 8"):
            sp.assemble_windows(series, cfg, rows, cols)

    def test_only_the_requested_windows_are_cut(self, monkeypatch):
        series = coordinate_series(height=64, width=64)
        cut = []
        patch_plane = sp._patch_plane

        def patch_plane_spy(*args):
            plane = patch_plane(*args)
            cut.append(plane.shape)
            return plane

        monkeypatch.setattr(sp, "_patch_plane", patch_plane_spy)
        sp.assemble_windows(series, default_cfg(), np.array([1, 62]), np.array([30, 5]))
        assert cut == [(2, 72)] * 4

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
        # batches of 5 and 16 centres both start and end mid-row in the 7-wide interior
        results = [sp.classify_map(series, cfg, model, batch_size=b) for b in (5, 16)]
        rng = core_math.make_rng(13)
        for _ in range(25):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 8))
            vectors, _ = brute_force_sample(series, cfg, r, c)
            cls, _ = lstm_classify(model, vectors)
            assert [result.labels[r, c] for result in results] == [cls, cls]

    def test_dim_mismatch_rejected(self):
        series = coordinate_series()
        cfg = default_cfg()
        model = rn.init_lstm_params(8, 4, 3, core_math.make_rng(0))  # pixel-width model
        with pytest.raises(ShapeError):
            sp.classify_map(series, cfg, model)


    def test_non_finite_probabilities_rejected(self):
        series = coordinate_series()
        cfg = default_cfg()
        model = self.make_model(cfg)
        model.wy[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite class probabilities"):
            sp.classify_map(series, cfg, model)


class TestThreadedClassifyMap:
    """classify_map's chunks run in threads, each with one OpenBLAS thread."""

    @staticmethod
    def noise_series(whole):
        rng = core_math.make_rng(21)
        mask = np.zeros((8, 9), dtype=np.uint8)
        mask[3:5, 2:4] = rd.CLOUD
        stacks = [make_stack(rng.integers(0, 65536, size=(8, 8, 9)), day=t + 1,
                             mask=mask if t == 1 else None, mult=6e-5, add=-2.0)
                  for t in range(4)]
        cfg = default_cfg(zero_whole_patch=whole)
        model = rn.init_lstm_params(cfg.input_dim, 4, 3, core_math.make_rng(22))
        model.wy *= 10.0
        return rd.SceneSeries(stacks), cfg, model

    @staticmethod
    def serial_reference(series, cfg, model, batch_size):
        """batch_size interior centres at a time in row-major order, in the
        calling thread."""
        out = np.full((8, 9), sp.NODATA_LABEL, dtype=np.uint8)
        rows, cols = (a.reshape(-1) for a in np.mgrid[1:7, 1:8])
        for start in range(0, rows.size, batch_size):
            chunk = slice(start, start + batch_size)
            xs, _ = sp.assemble_windows(series, cfg, rows[chunk], cols[chunk])
            out[rows[chunk], cols[chunk]] = sp.predict_labels(model, xs)
        return out

    @staticmethod
    def record_chunks(monkeypatch):
        """The thread and numpy divide setting each window cut runs under."""
        seen = []
        assemble = sp.assemble_windows

        def recording(*args):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return assemble(*args)

        monkeypatch.setattr(sp, "assemble_windows", recording)
        return seen

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "partial"])
    @pytest.mark.parametrize("batch_size, cpus, chunks", [(64, 4, 1), (16, 4, 7), (9, 2, 9)],
                             ids=["one-chunk", "fewer-chunks-than-cpus", "ragged-last-chunk"])
    def test_map_equals_a_serial_reference(self, monkeypatch, whole, batch_size, cpus,
                                           chunks):
        # the 42 interior centres: 1 batch of 64 in one thread; 3 batches of 16 in 3
        # threads of 6 centres; 5 batches of 9 in 2 threads of 5, the last chunk of 2
        series, cfg, model = self.noise_series(whole)
        expected = self.serial_reference(series, cfg, model, batch_size)
        assert np.unique(expected[1:7, 1:8]).size == 3
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        seen = self.record_chunks(monkeypatch)
        with np.errstate(divide="ignore"):
            result = sp.classify_map(series, cfg, model, batch_size=batch_size)
        assert np.array_equal(result.labels, expected)
        threads = {ident for ident, _ in seen}
        if chunks == 1 or core_math._openblas_threads() is None:
            assert len(seen) == 1 and threads == {threading.get_ident()}
        else:
            assert len(seen) == chunks and threading.get_ident() not in threads
        assert {divide for _, divide in seen} == {"ignore"}

    def test_more_threads_than_cores_under_frequent_switches(self, monkeypatch):
        series, cfg, model = self.noise_series(False)
        expected = self.serial_reference(series, cfg, model, 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # 8 threads of one centre each
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [sp.classify_map(series, cfg, model, batch_size=3).labels
                       for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(r, expected) for r in results)

    def test_blas_thread_count_is_restored(self, monkeypatch):
        blas = core_math._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        get, set_ = blas
        series, cfg, model = self.noise_series(True)
        during = []
        predict = sp.predict_labels
        monkeypatch.setattr(sp, "predict_labels",
                            lambda *args: during.append(get()) or predict(*args))
        before = get()
        set_(2)
        try:
            sp.classify_map(series, cfg, model, batch_size=16)
            assert get() == 2
            model.wy[1, 2] = np.nan
            with pytest.raises(ValueError, match="non-finite class probabilities"):
                sp.classify_map(series, cfg, model, batch_size=16)
            assert get() == 2
        finally:
            set_(before)
        assert set(during) == {1}

    def test_chunks_run_in_the_calling_thread_inside_a_worker(self, monkeypatch):
        series, cfg, model = self.noise_series(True)
        expected = self.serial_reference(series, cfg, model, 5)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        seen = self.record_chunks(monkeypatch)
        result = sp.classify_map(series, cfg, model, batch_size=5)
        assert np.array_equal(result.labels, expected)
        assert len(seen) == 9
        assert {ident for ident, _ in seen} == {threading.get_ident()}


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

    def test_label_id_beyond_the_class_list_is_format_error(self, tmp_path):
        labels = np.zeros((40, 40), dtype=np.uint8)
        labels[20:] = 5
        labels[0, 0] = sp.NODATA_LABEL
        path = tmp_path / "map.labels"
        sp.save_label_map(path, sp.LabelMap(labels=labels), ["a", "b"])
        with pytest.raises(FormatError, match=r"class ids \[5\] exceed the 2-class scheme"):
            sp.load_label_map(path)

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
