import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from pbrnn import core_math, raster_data as rd, synthetic as sy
from pbrnn.errors import ConfigError

from oracle_utils import nearest_profile_map, nearest_profile_single_date


def small_spec(**kwargs):
    base = dict(width=40, height=40, seq_len=8, seed=3)
    base.update(kwargs)
    return sy.SyntheticSpec(**base)


class TestSpecValidation:
    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigError):
            sy.SyntheticSpec(width=2)
        with pytest.raises(ConfigError):
            sy.SyntheticSpec(cloud_fraction=1.0)
        with pytest.raises(ConfigError):
            sy.SyntheticSpec(num_classes=1)
        with pytest.raises(ConfigError):
            sy.SyntheticSpec(confusable_at=40, seq_len=23)


class TestProfiles:
    def test_designed_pairs_collide_only_at_reference_date(self):
        profiles = sy.default_profiles(8, 23, 8, confusable_at=0)
        for a, b in sy.confusable_pairs(8):
            assert profiles[a, 0] == pytest.approx(profiles[b, 0], abs=1e-12)
            off = np.abs(profiles[a, 1:] - profiles[b, 1:]).max()
            assert off > 0.05

    def test_collision_follows_confusable_at(self):
        profiles = sy.default_profiles(8, 23, 8, confusable_at=5)
        assert profiles[0, 5] == pytest.approx(profiles[1, 5], abs=1e-12)
        assert np.abs(profiles[0, 0] - profiles[1, 0]).max() > 0.05

    def test_non_pair_classes_separated_everywhere(self):
        profiles = sy.default_profiles(8, 23, 8)
        pair_members = {c for p in sy.confusable_pairs(8) for c in p}
        for t in range(23):
            for j in range(8):
                for k in range(j + 1, 8):
                    if {j, k} in [set(p) for p in sy.confusable_pairs(8)]:
                        continue
                    gap = np.abs(profiles[j, t] - profiles[k, t]).max()
                    assert gap > 0.02, (j, k, t)


class TestGeneration:
    def test_deterministic(self):
        a_scenes, a_truth = sy.generate_scenes(small_spec())
        b_scenes, b_truth = sy.generate_scenes(small_spec())
        assert np.array_equal(a_truth.labels, b_truth.labels)
        for sa, sb in zip(a_scenes, b_scenes):
            assert np.array_equal(sa.dn, sb.dn)
            assert np.array_equal(sa.mask, sb.mask)

    def test_noiseless_cloudless_class_constancy(self):
        spec = small_spec(noise_sigma=0.0, cloud_fraction=0.0)
        series, truth = sy.generate(spec)
        labels = truth.labels
        for cls in (0, 4):
            rows, cols = np.nonzero(labels == cls)
            vals = series.scenes[2].toa[:, rows, cols]
            # every pixel of a class carries the same value (up to DN quantization)
            assert np.ptp(vals, axis=1).max() <= sy.DN_MULT + 1e-12

    def test_all_classes_present(self):
        _, truth = sy.generate(small_spec())
        assert np.unique(truth.labels).size == 8

    def test_cloud_masking_reflected_exactly(self):
        spec = small_spec(cloud_fraction=0.25)
        series, _ = sy.generate(spec)
        for stack in series.scenes:
            contaminated = rd.contamination_mask(stack.mask)
            zeroed = np.all(stack.toa == 0.0, axis=0)
            assert np.array_equal(zeroed, contaminated)

    def test_cloud_fraction_reached(self):
        spec = small_spec(cloud_fraction=0.2, seq_len=4)
        series, _ = sy.generate(spec)
        for stack in series.scenes:
            frac = stack.contaminated.mean()
            assert frac >= 0.2
            assert frac < 0.6

    def test_zero_cloud_fraction_is_clear(self):
        series, truth = sy.generate(small_spec(cloud_fraction=0.0))
        for stack in series.scenes:
            assert not stack.contaminated.any()
            water = truth.labels == 7
            assert np.all(stack.mask[water] == rd.CLEAR_WATER)
            assert np.all(stack.mask[~water] == rd.CLEAR_LAND)


def whole_site_voronoi(spec, rng):
    """The label map from one (centers, height, width) distance cube, with the
    same draws and retries as the generator."""
    n_centers = max(spec.num_classes,
                    round(spec.width * spec.height / spec.region_blob_scale ** 2))
    rows = np.arange(spec.height)[:, None]
    cols = np.arange(spec.width)[None, :]
    for _ in range(64):
        cr = rng.uniform(0, spec.height, size=n_centers)
        cc = rng.uniform(0, spec.width, size=n_centers)
        classes = np.tile(np.arange(spec.num_classes),
                          -(-n_centers // spec.num_classes))[:n_centers]
        rng.shuffle(classes)
        dist = (rows[None] - cr[:, None, None]) ** 2 + (cols[None] - cc[:, None, None]) ** 2
        labels = classes[np.argmin(dist, axis=0)].astype(np.uint8)
        if np.unique(labels).size == spec.num_classes:
            return labels
    raise AssertionError("no placement")


class TestBlobLabelMap:
    @pytest.mark.parametrize("tile", [1, 3, 7, 512], ids=lambda t: f"tile{t}")
    @pytest.mark.parametrize("width, height, seed", [(61, 99, 0), (4, 4, 2), (301, 17, 5)],
                             ids=["61x99", "4x4", "301x17"])
    @pytest.mark.parametrize("scale", [2, 9, 20], ids=lambda s: f"scale{s}")
    def test_tiles_equal_the_whole_site_cube(self, monkeypatch, tile, width, height, seed,
                                             scale):
        # tiles of one pixel, ragged edge tiles, and one tile larger than the site
        spec = small_spec(width=width, height=height, region_blob_scale=scale, seed=seed)
        monkeypatch.setattr(sy, "VORONOI_TILE", tile)
        tiled = sy._blob_label_map(spec, core_math.make_rng([seed, 0xB10B]))
        whole = whole_site_voronoi(spec, core_math.make_rng([seed, 0xB10B]))
        assert tiled.dtype == np.uint8
        assert np.array_equal(tiled, whole)

    def test_ties_go_to_the_lowest_index(self):
        # centers on a lattice: many pixels are equally far from two or four of them
        cr = np.repeat(np.arange(1.0, 40.0, 4.0), 10)
        cc = np.tile(np.arange(1.0, 40.0, 4.0), 10)
        order = core_math.make_rng(7).permutation(cr.size)
        cr, cc = cr[order], cc[order]
        rows, cols = np.arange(37)[:, None], np.arange(41)[None, :]
        whole = np.argmin((rows[None] - cr[:, None, None]) ** 2
                          + (cols[None] - cc[:, None, None]) ** 2, axis=0)
        assert np.array_equal(sy._nearest_centers(37, 41, cr, cc), whole)

    def test_peak_memory_stays_bounded_at_256_squared(self):
        spec = sy.SyntheticSpec(width=256, height=256, seed=2)
        tracemalloc.start()
        try:
            sy._blob_label_map(spec, core_math.make_rng([2, 0xB10B]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one whole-site distance cube here is 164 x 256 x 256 float64, 86 MB
        assert peak < 64e6


class TestOracleConsistency:
    def test_nearest_profile_recovers_labels(self):
        spec = small_spec(noise_sigma=0.005, cloud_fraction=0.0, width=48, height=48)
        series, truth = sy.generate(spec)
        recovered = nearest_profile_map(series, spec.resolved_profiles())
        agreement = np.mean(recovered == truth.labels)
        assert agreement >= 0.999

    def test_confusable_pair_single_date_near_chance_full_sequence_separable(self):
        spec = small_spec(noise_sigma=0.02, cloud_fraction=0.0, width=48, height=48)
        series, truth = sy.generate(spec)
        profiles = spec.resolved_profiles()
        pair = sy.confusable_pairs(8)[0]
        members = np.isin(truth.labels, pair)
        single = nearest_profile_single_date(series, profiles, spec.confusable_at,
                                             candidates=np.array(pair))
        single_acc = np.mean(single[members] == truth.labels[members])
        assert 0.35 <= single_acc <= 0.65
        full = nearest_profile_map(series, profiles)
        full_acc = np.mean(full[members] == truth.labels[members])
        assert full_acc >= 0.99


def site_bytes(paths):
    """{path relative to the site: bytes} of every file a write_site call wrote."""
    root = paths.manifest.parent
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestWriteSite:
    @pytest.fixture(autouse=True)
    def no_child_outlives_the_test(self):
        yield
        assert multiprocessing.active_children() == []

    @staticmethod
    def record_scenes(monkeypatch, tmp_path):
        """Have every scene build append its (pid, date) to a file the workers
        share; returns a function that reads them back and clears the file."""
        log = tmp_path / "scenes.txt"
        scene = sy._scene

        def recording(spec, profiles, labels, t):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {t}\n")
            return scene(spec, profiles, labels, t)

        monkeypatch.setattr(sy, "_scene", recording)

        def read():
            seen = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
            log.unlink()
            return seen

        return read


    def test_round_trip_through_containers(self, tmp_path):
        spec = small_spec(seq_len=3)
        paths = sy.write_site(spec, tmp_path / "site")
        assert len(paths.scene_dirs) == 3
        series = rd.load_series(paths.manifest)
        direct, truth = sy.generate(spec)
        assert len(series) == 3
        for loaded, built in zip(series.scenes, direct.scenes):
            assert np.array_equal(loaded.toa, built.toa)
            assert np.array_equal(loaded.mask, built.mask)

    def test_rerun_identical_bytes(self, tmp_path):
        spec = small_spec(seq_len=2)
        a = sy.write_site(spec, tmp_path / "a")
        b = sy.write_site(spec, tmp_path / "b")
        for da, db in zip(a.scene_dirs, b.scene_dirs):
            for name in (rd.BANDS_FILENAME, rd.MASK_FILENAME, rd.META_FILENAME):
                assert (da / name).read_bytes() == (db / name).read_bytes()
        assert a.label_map.read_bytes() == b.label_map.read_bytes()

    def test_default_spec_writes_23_scenes(self, tmp_path):
        spec = sy.SyntheticSpec(width=16, height=16)
        paths = sy.write_site(spec, tmp_path / "site")
        assert len(paths.scene_dirs) == 23
        assert paths.manifest.is_file()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path, cpus):
        spec = small_spec(seq_len=5)
        read = self.record_scenes(monkeypatch, tmp_path)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = site_bytes(sy.write_site(spec, tmp_path / "serial"))
        assert read() == [(os.getpid(), t) for t in range(5)]
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        paths = sy.write_site(spec, tmp_path / "site")
        assert multiprocessing.active_children() == []
        assert site_bytes(paths) == serial
        assert paths.scene_dirs == [tmp_path / "site" / f"synth_{t:02d}" for t in range(5)]
        seen = read()
        assert sorted(t for _, t in seen) == list(range(5))
        pids = {pid for pid, _ in seen}
        if cpus == 1 or core_math._openblas_threads() is None:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids

    def test_scenes_are_written_in_the_calling_process_inside_a_worker(self, monkeypatch,
                                                                       tmp_path):
        spec = small_spec(seq_len=5)
        expected = site_bytes(sy.write_site(spec, tmp_path / "expected"))
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        read = self.record_scenes(monkeypatch, tmp_path)
        assert site_bytes(sy.write_site(spec, tmp_path / "site")) == expected
        assert multiprocessing.active_children() == []
        assert read() == [(os.getpid(), t) for t in range(5)]

    def test_a_failing_scene_leaves_no_worker(self, monkeypatch, tmp_path):
        scene = sy._scene

        def fail_on_date_3(spec, profiles, labels, t):
            if t == 3:
                raise ValueError("scene 3 refused")
            return scene(spec, profiles, labels, t)

        monkeypatch.setattr(sy, "_scene", fail_on_date_3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(ValueError, match="scene 3 refused"):
            sy.write_site(small_spec(seq_len=5), tmp_path / "site")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "site" / "series.manifest").exists()
