import json
import logging
import multiprocessing
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pbrnn import (baseline_nets as bn, checkpoint as ck, cli, config as cm, core_math,
                   experiments, raster_data as rd, reference_matrices as rm,
                   sampling as sp, synthetic as sy)
from pbrnn.assessment import load_error_matrix, save_error_matrix


def run_cli(*argv):
    return cli.main(list(argv))


def write_train_config(tmp_path, site, mode="pb-rnn", extra=""):
    """A small-budget config; each `key = value` line of extra replaces the
    line that sets its key, or adds one."""
    _, paths = site
    pairs = {"mode": mode, "series_manifest": paths.manifest, "label_map": paths.label_map,
             "output_dir": tmp_path / "out", "seq_len": 6, "hidden_dim": 8, "epochs": 3,
             "batch_size": 32, "learning_rate": 0.003, "max_train_per_class": 40,
             "init_seed": 5, "shuffle_seed": 6, "sampler_seed": 7, "log_every": 0}
    for line in filter(str.strip, extra.splitlines()):
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    cfg = tmp_path / f"{mode}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()),
                   encoding="utf-8")
    return cfg


class TestSynth:
    def test_writes_scene_directories(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.cfg"
        spec_file.write_text("width = 16\nheight = 16\nseq_len = 4\nseed = 2\n",
                             encoding="utf-8")
        assert run_cli("synth", "--out", str(tmp_path / "site"), "--spec", str(spec_file)) == 0
        assert (tmp_path / "site" / "series.manifest").is_file()
        scene_dirs = sorted(p for p in (tmp_path / "site").iterdir() if p.is_dir())
        assert len(scene_dirs) == 4
        assert "4 scenes" in capsys.readouterr().out

    def test_rerun_identical_bytes(self, tmp_path):
        spec_file = tmp_path / "spec.cfg"
        spec_file.write_text("width = 12\nheight = 12\nseq_len = 2\nseed = 3\n",
                             encoding="utf-8")
        for name in ("a", "b"):
            assert run_cli("synth", "--out", str(tmp_path / name), "--spec",
                           str(spec_file)) == 0
        for rel in ("series.manifest", "truth.labels", "synth_00/bands.raw",
                    "synth_01/mask.raw", "synth_00/meta.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_invalid_spec_field_names_field(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.cfg"
        spec_file.write_text("widht = 16\n", encoding="utf-8")
        assert run_cli("synth", "--out", str(tmp_path / "site"), "--spec",
                       str(spec_file)) == 1
        assert "widht" in capsys.readouterr().err


    def test_seed_flag_equals_the_spec_seed_and_overrides_it(self, tmp_path):
        grid = "width = 12\nheight = 10\nseq_len = 2\n"
        (tmp_path / "seed5.cfg").write_text(grid + "seed = 5\n", encoding="utf-8")
        (tmp_path / "seed9.cfg").write_text(grid + "seed = 9\n", encoding="utf-8")
        assert run_cli("synth", "--out", str(tmp_path / "spec"), "--spec",
                       str(tmp_path / "seed5.cfg")) == 0
        assert run_cli("synth", "--out", str(tmp_path / "flag"), "--spec",
                       str(tmp_path / "seed9.cfg"), "--seed", "5") == 0
        assert run_cli("synth", "--out", str(tmp_path / "own"), "--spec",
                       str(tmp_path / "seed9.cfg")) == 0
        files = sorted(p.relative_to(tmp_path / "spec")
                       for p in (tmp_path / "spec").rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (tmp_path / "flag" / rel).read_bytes() == \
                (tmp_path / "spec" / rel).read_bytes()
        assert (tmp_path / "own" / "truth.labels").read_bytes() != \
            (tmp_path / "spec" / "truth.labels").read_bytes()


class TestImport:
    def test_manifest_in_temporal_order(self, tmp_path, small_site):
        _, paths = small_site
        scene_dirs = [str(d) for d in reversed(paths.scene_dirs)]
        out = tmp_path / "imported.manifest"
        assert run_cli("import", *scene_dirs, "--out", str(out)) == 0
        listed = [line for line in out.read_text().splitlines() if line.strip()]
        assert listed == [str(d) for d in paths.scene_dirs]

    def test_relative_paths_resolve_from_the_manifest(self, tmp_path, monkeypatch):
        spec = sy.SyntheticSpec(width=12, height=12, seq_len=3, seed=4)
        sy.write_site(spec, tmp_path / "site")
        monkeypatch.chdir(tmp_path)
        scenes = [f"site/synth_0{t}" for t in range(3)]
        assert run_cli("import", *scenes, "--out", "out/series.manifest") == 0
        series = rd.load_series(tmp_path / "out" / "series.manifest")
        assert len(series) == 3

    def test_scenes_sharing_a_date_are_rejected(self, tmp_path, small_site, capsys):
        _, paths = small_site
        scene = str(paths.scene_dirs[0])
        out = tmp_path / "imported.manifest"
        assert run_cli("import", scene, str(paths.scene_dirs[1]), scene,
                       "--out", str(out)) == 2
        assert f"{scene}: acquired on" in capsys.readouterr().err
        assert not out.exists()

    def test_scenes_on_different_grids_are_rejected(self, tmp_path, capsys):
        for name, size in (("big", 32), ("small", 16)):
            sy.write_site(sy.SyntheticSpec(width=size, height=size, seq_len=2, seed=4),
                          tmp_path / name)
        small_scene = str(tmp_path / "small" / "synth_01")
        out = tmp_path / "imported.manifest"
        assert run_cli("import", str(tmp_path / "big" / "synth_00"), small_scene,
                       "--out", str(out)) == 2
        assert f"{small_scene}: width, height and bands (16, 16, 8)" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scene_dir(self, tmp_path, capsys):
        assert run_cli("import", str(tmp_path / "ghost"), "--out",
                       str(tmp_path / "m")) == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory, small_site):
    tmp_path = tmp_path_factory.mktemp("train")
    cfg = write_train_config(tmp_path, small_site)
    assert run_cli("train", "--config", str(cfg)) == 0
    return tmp_path / "out"


class TestTrainClassifyAssess:
    def test_train_outputs(self, trained):
        assert (trained / "checkpoint.bin").is_file()
        loss_lines = (trained / "loss.txt").read_text().strip().splitlines()
        assert len(loss_lines) == 3
        epoch, loss = loss_lines[-1].split()
        assert epoch == "3" and float(loss) > 0

    def test_checkpoint_loads(self, trained):
        loaded = ck.load_checkpoint(trained / "checkpoint.bin")
        assert loaded.mode == "pb-rnn"
        assert loaded.seq_len == 6
        assert loaded.hidden_dim == 8

    def test_classify_and_preview(self, trained, small_site, tmp_path):
        _, paths = small_site
        out_map = tmp_path / "map.labels"
        preview = tmp_path / "map.ppm"
        assert run_cli("classify", "--checkpoint", str(trained / "checkpoint.bin"),
                       "--series", str(paths.manifest), "--out", str(out_map),
                       "--preview", str(preview)) == 0
        label_map, names = sp.load_label_map(out_map)
        assert label_map.labels.shape == (40, 40)
        assert np.all(label_map.labels[0] == sp.NODATA_LABEL)
        header = preview.read_bytes().split(b"\n", 3)
        assert header[0] == b"P6"
        assert header[1] == b"40 40"
        assert len(header[3]) == 40 * 40 * 3

    @staticmethod
    def classify_with_preview(checkpoint, paths, tmp_path):
        """(label map, class names, preview pixels (H, W, 3)) of one classify run."""
        out_map, preview = tmp_path / "legend.labels", tmp_path / "legend.ppm"
        assert run_cli("classify", "--checkpoint", str(checkpoint), "--series",
                       str(paths.manifest), "--out", str(out_map),
                       "--preview", str(preview)) == 0
        label_map, names = sp.load_label_map(out_map)
        pixels = np.frombuffer(preview.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)
        return label_map.labels, names, pixels.reshape(*label_map.labels.shape, 3)

    def test_eight_class_checkpoint_gets_the_everglades_legend(self, trained, small_site,
                                                               tmp_path):
        _, paths = small_site
        assert ck.load_checkpoint(trained / "checkpoint.bin").num_classes == 8
        labels, names, pixels = self.classify_with_preview(
            trained / "checkpoint.bin", paths, tmp_path)
        scheme = rd.everglades_scheme()
        assert names == list(scheme.names)
        palette = np.zeros((256, 3), dtype=np.uint8)
        palette[:8] = [c.color for c in scheme.classes]
        assert np.array_equal(pixels, palette[labels])

    def test_other_class_counts_get_numbered_names_and_colours(self, small_site, tmp_path):
        _, paths = small_site
        rng = core_math.make_rng(3)
        three = ck.Checkpoint(
            mode="pixel-nn-single", patch_x=1, patch_y=1, bands=8, num_classes=3,
            hidden_dim=4, scene_indices=(0,), init_seed=3, shuffle_seed=6, epochs_run=1,
            final_loss=0.5, model=bn.init_ffn_params(8, 3, rng, hidden_dim=4))
        ck.save_checkpoint(tmp_path / "three.bin", three)
        labels, names, pixels = self.classify_with_preview(tmp_path / "three.bin", paths,
                                                           tmp_path)
        assert names == ["class_0", "class_1", "class_2"]
        palette = np.zeros((256, 3), dtype=np.uint8)
        palette[:3] = [(37, 83, 151), (74, 166, 46), (111, 249, 197)]
        assert np.array_equal(pixels, palette[labels])

    def test_classify_creates_the_preview_directory(self, trained, small_site, tmp_path):
        _, paths = small_site
        out_map = tmp_path / "newdir" / "map.labels"
        preview = tmp_path / "otherdir" / "map.ppm"
        assert run_cli("classify", "--checkpoint", str(trained / "checkpoint.bin"),
                       "--series", str(paths.manifest), "--out", str(out_map),
                       "--preview", str(preview)) == 0
        assert out_map.is_file()
        assert preview.read_bytes().startswith(b"P6\n40 40\n255\n")

    def test_classify_deterministic(self, trained, small_site, tmp_path):
        _, paths = small_site
        maps = []
        for name in ("m1", "m2"):
            out_map = tmp_path / f"{name}.labels"
            assert run_cli("classify", "--checkpoint", str(trained / "checkpoint.bin"),
                           "--series", str(paths.manifest), "--out", str(out_map)) == 0
            maps.append(out_map.read_bytes())
        assert maps[0] == maps[1]

    def test_corrupted_checkpoint_is_data_error(self, trained, small_site, tmp_path, capsys):
        _, paths = small_site
        bad = tmp_path / "bad.bin"
        blob = bytearray((trained / "checkpoint.bin").read_bytes())
        blob[:4] = b"ZZZZ"
        bad.write_bytes(bytes(blob))
        assert run_cli("classify", "--checkpoint", str(bad), "--series",
                       str(paths.manifest), "--out", str(tmp_path / "m.labels")) == 2

    def test_assess_identical_maps(self, small_site, tmp_path, capsys):
        _, paths = small_site
        truthraw = paths.label_map.read_bytes()
        other = tmp_path / "copy.labels"
        other.write_bytes(truthraw)
        (tmp_path / "copy.labels.json").write_text(
            (paths.label_map.parent / (paths.label_map.name + ".json")).read_text(),
            encoding="utf-8")
        assert run_cli("assess", "--classified", str(other), "--reference",
                       str(paths.label_map), "--out-prefix", str(tmp_path / "self"),
                       "--per-stratum", "30", "--seed", "4") == 0
        out = capsys.readouterr().out
        assert "Overall Accuracy (OA): 100.00%" in out
        assert "Overall Kappa (KAPPA): 1.000" in out
        assert (tmp_path / "self.matrix.tsv").is_file()
        assert (tmp_path / "self.report.txt").is_file()

    def test_assess_matrix_bypass_reproduces_published(self, tmp_path, capsys):
        matrix_path = tmp_path / "published.tsv"
        save_error_matrix(matrix_path, rm.PUBLISHED["pb-rnn"].matrix())
        assert run_cli("assess", "--matrix", str(matrix_path), "--out-prefix",
                       str(tmp_path / "pub")) == 0
        out = capsys.readouterr().out
        assert "Overall Accuracy (OA): 97.21%" in out
        assert "Overall Kappa (KAPPA): 0.967" in out
        written = load_error_matrix(tmp_path / "pub.matrix.tsv")
        assert written.n == 931

    def test_assess_dim_mismatch(self, small_site, tmp_path):
        _, paths = small_site
        small = sp.LabelMap(labels=np.zeros((5, 5), dtype=np.uint8))
        other = tmp_path / "tiny.labels"
        sp.save_label_map(other, small, ["a"])
        assert run_cli("assess", "--classified", str(other), "--reference",
                       str(paths.label_map), "--out-prefix", str(tmp_path / "x")) == 2

    def test_assess_class_id_beyond_the_scheme_is_data_error(self, tmp_path, capsys):
        labels = np.zeros((6, 6), dtype=np.uint8)
        labels[0, :3] = 2  # the sidecar names two classes, ids 0 and 1
        classified = tmp_path / "classified.labels"
        reference = tmp_path / "reference.labels"
        sp.save_label_map(classified, sp.LabelMap(labels=labels), ["a", "b"])
        sp.save_label_map(reference, sp.LabelMap(labels=np.zeros_like(labels)), ["a", "b"])
        assert run_cli("assess", "--classified", str(classified), "--reference",
                       str(reference), "--out-prefix", str(tmp_path / "x")) == 2
        assert "exceed the 2-class scheme" in capsys.readouterr().err
        assert not (tmp_path / "x.matrix.tsv").exists()

    def test_assess_reference_id_beyond_the_scheme_is_data_error(self, tmp_path, capsys):
        labels = np.zeros((20, 20), dtype=np.uint8)
        labels[10:] = 1
        reference_labels = labels.copy()
        reference_labels[3, 4] = 7
        classified = tmp_path / "classified.labels"
        reference = tmp_path / "reference.labels"
        sp.save_label_map(classified, sp.LabelMap(labels=labels), ["a", "b"])
        sp.save_label_map(reference, sp.LabelMap(labels=reference_labels), ["a", "b"])
        assert run_cli("assess", "--classified", str(classified), "--reference",
                       str(reference), "--out-prefix", str(tmp_path / "x")) == 2
        assert "reference class ids [7] exceed the 2-class scheme" in capsys.readouterr().err
        assert not (tmp_path / "x.matrix.tsv").exists()
        assert not (tmp_path / "x.report.txt").exists()

    def test_assess_needs_a_reference(self, tmp_path, capsys):
        label_path = tmp_path / "map.labels"
        sp.save_label_map(label_path, sp.LabelMap(labels=np.zeros((6, 6), dtype=np.uint8)),
                          ["a"])
        assert run_cli("assess", "--classified", str(label_path), "--out-prefix",
                       str(tmp_path / "x")) == 1
        assert "--reference" in capsys.readouterr().err
        assert not (tmp_path / "x.matrix.tsv").exists()

    @pytest.mark.parametrize("flag, value", [("--per-stratum", "-5"), ("--total", "-10"),
                                             ("--min-per-stratum", "-3")])
    def test_assess_negative_sample_size_is_usage_error(self, tmp_path, capsys, flag, value):
        labels = np.zeros((6, 6), dtype=np.uint8)
        labels[3:] = 1
        label_path = tmp_path / "map.labels"
        sp.save_label_map(label_path, sp.LabelMap(labels=labels), ["a", "b"])
        assert run_cli("assess", "--classified", str(label_path), "--reference", str(label_path),
                       "--out-prefix", str(tmp_path / "x"), flag, value) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.matrix.tsv").exists()

    def test_missing_label_map_is_config_or_data_error(self, small_site, tmp_path):
        _, paths = small_site
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"""
mode = pb-rnn
series_manifest = {paths.manifest}
label_map = {tmp_path / 'ghost.labels'}
output_dir = {tmp_path / 'out'}
seq_len = 6
""", encoding="utf-8")
        assert run_cli("train", "--config", str(cfg)) == 2


class TestErrorExits:
    def test_label_map_on_another_grid_is_data_error(self, tmp_path, small_site, capsys):
        other = tmp_path / "other.labels"
        sp.save_label_map(other, sp.LabelMap(labels=np.zeros((20, 24), dtype=np.uint8)), ["a"])
        cfg = write_train_config(tmp_path, small_site, extra=f"label_map = {other}")
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "label map (20, 24) vs series (40, 40)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_label_map_without_labeled_pixels_is_data_error(self, tmp_path, small_site,
                                                            capsys):
        empty = tmp_path / "empty.labels"
        sp.save_label_map(empty, sp.LabelMap(labels=np.full((40, 40), sp.NODATA_LABEL,
                                                            dtype=np.uint8)), ["a"])
        cfg = write_train_config(tmp_path, small_site, extra=f"label_map = {empty}")
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "no labeled pixels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_label_id_beyond_the_class_list_is_data_error(self, tmp_path, small_site, capsys):
        labels = np.zeros((40, 40), dtype=np.uint8)
        labels[20:] = 5
        named = tmp_path / "named.labels"
        sp.save_label_map(named, sp.LabelMap(labels=labels), ["a", "b"])
        cfg = write_train_config(tmp_path, small_site, extra=f"label_map = {named}")
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "label map class ids [5] exceed the 2-class scheme" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_without_mode_is_config_error(self, tmp_path, small_site, capsys):
        cfg = write_train_config(tmp_path, small_site)
        cfg.write_text("".join(line + "\n" for line in cfg.read_text().splitlines()
                               if not line.startswith("mode ")), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg)) == 1
        assert "'mode' is required" in capsys.readouterr().err

    def test_unparsable_fusion_dates_are_config_error(self, tmp_path, small_site, capsys):
        cfg = write_train_config(tmp_path, small_site, mode="patch-nn-multi",
                                 extra="seq_len = 4\nfusion_dates = 0,x,2,3")
        assert run_cli("train", "--config", str(cfg)) == 1
        assert "'fusion_dates'" in capsys.readouterr().err

    def test_repeated_fusion_dates_are_config_error(self, tmp_path, small_site, capsys):
        cfg = write_train_config(tmp_path, small_site, mode="pixel-nn-multi",
                                 extra="seq_len = 4\nfusion_dates = 0,0,2,3")
        assert run_cli("train", "--config", str(cfg)) == 1
        assert "repeated: [0]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert run_cli("train", "--config", str(tmp_path / "ghost.cfg")) == 1
        assert "missing config file" in capsys.readouterr().err

    def test_checkpoint_on_a_series_with_other_bands_is_data_error(self, trained, tmp_path,
                                                                   capsys):
        paths = sy.write_site(sy.SyntheticSpec(width=24, height=20, seq_len=6, bands=4,
                                               region_blob_scale=6, seed=1), tmp_path / "site")
        out_map = tmp_path / "map.labels"
        assert run_cli("classify", "--checkpoint", str(trained / "checkpoint.bin"),
                       "--series", str(paths.manifest), "--out", str(out_map)) == 2
        assert "series has 4 bands, sampler expects 8" in capsys.readouterr().err
        assert not out_map.exists()


class TestUnusablePaths:
    """A path that cannot be read or written is a data error, raised before the work."""

    @staticmethod
    def assert_data_error(capsys):
        err = capsys.readouterr().err
        assert "data error" in err
        assert "Traceback" not in err

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the paths were checked")

    def test_train_output_dir_under_a_file(self, tmp_path, small_site, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "prepare_and_fit", self.refuse)
        (tmp_path / "afile").write_text("not a directory")
        cfg = write_train_config(tmp_path, small_site,
                                 extra=f"output_dir = {tmp_path / 'afile' / 'out'}")
        assert run_cli("train", "--config", str(cfg)) == 2
        self.assert_data_error(capsys)

    def test_compare_all_output_dir_under_a_file(self, tmp_path, small_site, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(experiments, "run_comparison", self.refuse)
        (tmp_path / "afile").write_text("not a directory")
        cfg = write_train_config(tmp_path, small_site,
                                 extra=f"output_dir = {tmp_path / 'afile' / 'out'}")
        assert run_cli("compare-all", "--config", str(cfg), "--quick") == 2
        self.assert_data_error(capsys)

    @pytest.mark.parametrize("flag", ["--out", "--preview"])
    def test_classify_output_under_a_file(self, trained, small_site, tmp_path, capsys,
                                          monkeypatch, flag):
        _, paths = small_site
        monkeypatch.setattr(sp, "classify_map", self.refuse)
        (tmp_path / "afile").write_text("not a directory")
        outputs = {"--out": str(tmp_path / "map.labels"), "--preview": str(tmp_path / "map.ppm")}
        outputs[flag] = str(tmp_path / "afile" / "x")
        assert run_cli("classify", "--checkpoint", str(trained / "checkpoint.bin"),
                       "--series", str(paths.manifest),
                       *(a for item in outputs.items() for a in item)) == 2
        self.assert_data_error(capsys)

    def test_classify_checkpoint_is_a_directory(self, small_site, tmp_path, capsys,
                                                monkeypatch):
        _, paths = small_site
        monkeypatch.setattr(sp, "classify_map", self.refuse)
        assert run_cli("classify", "--checkpoint", str(tmp_path), "--series",
                       str(paths.manifest), "--out", str(tmp_path / "map.labels")) == 2
        self.assert_data_error(capsys)
        assert not (tmp_path / "map.labels").exists()


class TestPreview:
    def test_failed_rename_keeps_previous_preview(self, tmp_path, monkeypatch):
        path = tmp_path / "map.ppm"
        cli.write_ppm(path, sp.LabelMap(labels=np.zeros((4, 5), dtype=np.uint8)), [(1, 2, 3)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            cli.write_ppm(path, sp.LabelMap(labels=np.ones((3, 3), dtype=np.uint8)),
                          [(1, 2, 3), (4, 5, 6)])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestTrainedLoss:
    def test_pb_rnn_reaches_low_final_loss_on_synthetic_site(self, tmp_path, small_site):
        cfg = write_train_config(tmp_path, small_site,
                                 extra="epochs = 60\nhidden_dim = 8")
        assert run_cli("train", "--config", str(cfg)) == 0
        final = float((tmp_path / "out" / "loss.txt").read_text().strip()
                      .splitlines()[-1].split()[1])
        assert final < 0.1


class TestTrainingGuards:
    def test_partial_mask_rule_carried_to_classify(self, tmp_path, small_site):
        _, paths = small_site
        cfg = write_train_config(tmp_path, small_site, extra="zero_whole_patch = false")
        assert run_cli("train", "--config", str(cfg)) == 0
        checkpoint = tmp_path / "out" / "checkpoint.bin"
        out_map = tmp_path / "partial.labels"
        assert run_cli("classify", "--checkpoint", str(checkpoint),
                       "--series", str(paths.manifest), "--out", str(out_map)) == 0
        loaded = ck.load_checkpoint(checkpoint)
        sampler = sp.SamplerConfig(patch_x=3, patch_y=3, bands=8, seq_len=6,
                                   zero_whole_patch=False)
        expected = sp.classify_map(rd.load_series(paths.manifest), sampler, loaded.model)
        assert np.array_equal(sp.load_label_map(out_map)[0].labels, expected.labels)

    def test_frozen_gate_biases_stay_zero(self, tmp_path, small_site):
        cfg = write_train_config(tmp_path, small_site, extra="train_biases = false")
        assert run_cli("train", "--config", str(cfg)) == 0
        checkpoint = tmp_path / "out" / "checkpoint.bin"
        flags, = struct.unpack_from("<I", checkpoint.read_bytes(),
                                    struct.calcsize("<4sII8s5I"))
        assert flags & 1 == 0
        model = ck.load_checkpoint(checkpoint).model
        assert not model.train_biases
        assert np.all(model.b == 0.0)

    def test_non_finite_loss_is_data_error(self, tmp_path, capsys):
        # a step size of 1e308 overflows the weights after the first ADAM step
        spec = sy.SyntheticSpec(width=16, height=16, seq_len=4, seed=8)
        site = sy.write_site(spec, tmp_path / "site")
        cfg = write_train_config(tmp_path, (spec, site),
                                 extra="seq_len = 4\nlearning_rate = 1e308")
        with np.errstate(all="ignore"):
            assert run_cli("train", "--config", str(cfg)) == 2
        assert "epoch 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.bin").exists()

    def test_non_finite_loss_in_a_fusion_member_is_data_error(self, tmp_path, capsys):
        spec = sy.SyntheticSpec(width=16, height=16, seq_len=4, seed=8)
        site = sy.write_site(spec, tmp_path / "site")
        cfg = write_train_config(tmp_path, (spec, site), mode="patch-nn-multi",
                                 extra="seq_len = 4\nfusion_dates = 0,1,2,3\n"
                                       "learning_rate = 1e308")
        with np.errstate(all="ignore"):
            assert run_cli("train", "--config", str(cfg)) == 2
        assert "epoch 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.bin").exists()
        assert multiprocessing.active_children() == []

    def test_workers_keep_the_callers_numpy_error_state(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = sy.SyntheticSpec(width=16, height=16, seq_len=4, seed=8)
        site = sy.write_site(spec, tmp_path / "site")
        cfg = write_train_config(tmp_path, (spec, site), mode="patch-nn-multi",
                                 extra="seq_len = 4\nfusion_dates = 0,1,2,3\n"
                                       "learning_rate = 1e308")
        with np.errstate(all="ignore"):
            assert run_cli("train", "--config", str(cfg)) == 2
        err = capfd.readouterr().err
        assert "epoch 1" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("extra, field", [
        ("holdout_fraction = 1.5", "holdout_fraction"),
        ("holdout_fraction = nan", "holdout_fraction"),
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = inf", "learning_rate"),
        ("max_train_per_class = -1", "max_train_per_class"),
        ("log_every = -1", "log_every"),
    ])
    def test_bad_value_is_config_error_before_loading(self, tmp_path, small_site, capsys,
                                                      monkeypatch, extra, field):
        def refuse(path):
            raise AssertionError("the series was loaded before the config was checked")

        monkeypatch.setattr(rd, "load_series", refuse)
        cfg = write_train_config(tmp_path, small_site, extra=extra)
        assert run_cli("train", "--config", str(cfg)) == 1
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.bin").exists()

    def test_overflowing_reflectance_names_the_scene(self, tmp_path, capsys):
        spec = sy.SyntheticSpec(width=16, height=16, seq_len=4, seed=8)
        site = sy.write_site(spec, tmp_path / "site")
        cfg = write_train_config(tmp_path, (spec, site), extra="seq_len = 4")
        assert run_cli("train", "--config", str(cfg)) == 0
        meta_path = site.scene_dirs[1] / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["reflectance_mult"] = [1e308] * len(meta["reflectance_mult"])
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert run_cli("train", "--config", str(cfg)) == 2
        assert meta["scene_id"] in capsys.readouterr().err
        out_map = tmp_path / "map.labels"
        assert run_cli("classify", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                       "--series", str(site.manifest), "--out", str(out_map)) == 2
        assert meta["scene_id"] in capsys.readouterr().err
        assert not out_map.exists()

    def test_non_finite_checkpoint_is_data_error(self, trained, small_site, tmp_path, capsys):
        _, paths = small_site
        loaded = ck.load_checkpoint(trained / "checkpoint.bin")
        loaded.model.wy[0, 0] = np.nan
        bad = tmp_path / "nan.bin"
        ck.save_checkpoint(bad, loaded)
        out_map = tmp_path / "m.labels"
        assert run_cli("classify", "--checkpoint", str(bad), "--series",
                       str(paths.manifest), "--out", str(out_map)) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out_map.exists()


    def test_overflowing_finite_weights_are_data_error(self, trained, small_site, tmp_path,
                                                       capsys):
        # every weight is finite, so the checkpoint loads; but the gates are
        # pinned open (h > 0.76) and two output rows of 1.7e308 overflow to
        # +inf logits, whose softmax is NaN
        _, paths = small_site
        loaded = ck.load_checkpoint(trained / "checkpoint.bin")
        model = loaded.model
        model.wx[:] = 0.0
        model.wh[:] = 0.0
        model.b[:] = 50.0
        model.wy[:2] = 1.7e308
        bad = tmp_path / "overflow.bin"
        ck.save_checkpoint(bad, loaded)
        out_map = tmp_path / "m.labels"
        assert run_cli("classify", "--checkpoint", str(bad), "--series",
                       str(paths.manifest), "--out", str(out_map)) == 2
        assert "non-finite class probabilities" in capsys.readouterr().err
        assert not out_map.exists()


class TestMultiAndSingleModes:
    def test_every_member_logs_its_epochs_from_its_worker(self, tmp_path, small_site):
        # the forked workers inherit the command's log handler on standard
        # error; in a subprocess, so the handler is not pytest's capture
        cfg = write_train_config(tmp_path, small_site, mode="pixel-nn-multi",
                                 extra="fusion_dates = 0,2,3,5\nseq_len = 4\n"
                                       "epochs = 4\nlog_every = 2")
        code = ("import os, sys; os.cpu_count = lambda: 2; from pbrnn import cli; "
                "sys.exit(cli.main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, "train", "--config", str(cfg)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines()
                 if re.search(r"epoch \d+ mean_loss", line)]
        assert len(lines) == 4 * 4 // 2
        for date in (0, 2, 3, 5):
            assert sum(f"date {date}: epoch " in line for line in lines) == 2

    def test_no_process_outlives_a_pooled_train(self, tmp_path, small_site):
        # a new session holds the command and everything it starts, the pool's
        # resource tracker included, however they are reparented
        cfg = write_train_config(tmp_path, small_site, mode="patch-nn-multi",
                                 extra="fusion_dates = 0,2,3,5\nseq_len = 4")
        code = ("import os, sys; os.cpu_count = lambda: 2; from pbrnn import cli; "
                "sys.exit(cli.main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-c", code, "train", "--config", str(cfg)],
                                env=env, start_new_session=True, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        assert proc.wait(timeout=600) == 0
        listed = subprocess.run(["ps", "-e", "-o", "sid=,pid=,stat=,args="],
                                capture_output=True, text=True, check=True).stdout
        left = [line for line in listed.splitlines() if line.split()[0] == str(proc.pid)]
        assert left == []

    def test_multi_mode_train_and_classify(self, tmp_path, small_site):
        _, paths = small_site
        cfg = write_train_config(tmp_path, small_site, mode="patch-nn-multi",
                                 extra="fusion_dates = 0,2,3,5\nseq_len = 4")
        assert run_cli("train", "--config", str(cfg)) == 0
        loaded = ck.load_checkpoint(tmp_path / "out" / "checkpoint.bin")
        assert loaded.mode == "patch-nn-multi"
        assert loaded.scene_indices == (0, 2, 3, 5)
        out_map = tmp_path / "multi.labels"
        assert run_cli("classify", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                       "--series", str(paths.manifest), "--out", str(out_map)) == 0
        label_map, _ = sp.load_label_map(out_map)
        assert label_map.labels.shape == (40, 40)

    @pytest.mark.parametrize("members", [2, 0])
    def test_multi_date_checkpoint_needs_four_members(self, tmp_path, small_site, capsys,
                                                      members):
        _, paths = small_site
        rng = core_math.make_rng(5)
        two = ck.Checkpoint(
            mode="pixel-nn-multi", patch_x=1, patch_y=1, bands=8, num_classes=8,
            hidden_dim=4, scene_indices=(0, 1), init_seed=5, shuffle_seed=6, epochs_run=1,
            final_loss=0.5, model=bn.FusionEnsemble(
                members=[bn.init_ffn_params(8, 8, rng, hidden_dim=4) for _ in range(2)]))
        bad = tmp_path / "fusion.bin"
        ck.save_checkpoint(bad, two)
        if members == 0:  # the same header, then no scenes and no members
            bad.write_bytes(bad.read_bytes()[:ck._HEADER.size] + struct.pack("<II", 0, 0))
        out_map = tmp_path / "m.labels"
        assert run_cli("classify", "--checkpoint", str(bad), "--series",
                       str(paths.manifest), "--out", str(out_map)) == 2
        assert f"pixel-nn-multi checkpoints list 4 scene(s), not {members}" \
            in capsys.readouterr().err
        assert not out_map.exists()

    def test_pixel_single_train_and_classify(self, tmp_path, small_site):
        _, paths = small_site
        cfg = write_train_config(tmp_path, small_site, mode="pixel-nn-single",
                                 extra="seq_len = 1\nreference_scene = 0")
        assert run_cli("train", "--config", str(cfg)) == 0
        loaded = ck.load_checkpoint(tmp_path / "out" / "checkpoint.bin")
        assert loaded.mode == "pixel-nn-single"
        assert loaded.input_dim == 8
        out_map = tmp_path / "single.labels"
        assert run_cli("classify", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                       "--series", str(paths.manifest), "--out", str(out_map)) == 0
        label_map, _ = sp.load_label_map(out_map)
        # pixel mode classifies every pixel (1x1 window has no boundary ring)
        assert np.all(label_map.labels != sp.NODATA_LABEL)

    @pytest.mark.parametrize("mode, extra", [
        ("pb-rnn", "fusion_dates = 0,1,2"),
        ("patch-nn-single", "fusion_dates = 0,1,2,3\nseq_len = 1"),
    ], ids=["pb-rnn", "patch-nn-single"])
    def test_fusion_dates_rejected_outside_multi_modes(self, tmp_path, small_site, capsys,
                                                        mode, extra):
        cfg = write_train_config(tmp_path, small_site, mode=mode, extra=extra)
        assert run_cli("train", "--config", str(cfg)) == 1
        assert "'fusion_dates'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.bin").exists()


class TestVerifyTables:
    def test_all_tables_ok(self, capsys):
        assert run_cli("verify-tables") == 0
        out = capsys.readouterr().out
        assert out.count(": OK") == 6

    def test_mismatch_exits_3(self, monkeypatch, capsys):
        pub = rm.PUBLISHED["pb-rnn"]
        counts = [list(r) for r in pub.counts]
        counts[2][0] += 1
        broken = dict(rm.PUBLISHED)
        broken["pb-rnn"] = rm.PublishedAssessment(
            system="pb-rnn", counts=tuple(tuple(r) for r in counts),
            oa_percent=pub.oa_percent, kappa=pub.kappa,
            producer_percent=pub.producer_percent, user_percent=pub.user_percent,
            conditional_kappa=pub.conditional_kappa, mean_kappa=pub.mean_kappa,
            kappa_sd=pub.kappa_sd)
        monkeypatch.setattr(rm, "PUBLISHED", broken)
        assert run_cli("verify-tables") == 3
        assert "FAIL" in capsys.readouterr().out


class TestCompareAll:
    def test_quick_comparison_emits_summary_table(self, tmp_path, small_site, capsys):
        cfg = write_train_config(tmp_path, small_site, mode="pb-rnn",
                                 extra="fusion_dates = 0,2,3,5")
        assert run_cli("compare-all", "--config", str(cfg), "--quick") == 0
        table = (tmp_path / "out" / "comparison.tsv").read_text().splitlines()
        header = table[0].split("\t")
        assert header[0] == "land_cover_class"
        assert set(header[1:]) == set(ck.MODES)
        row_labels = [line.split("\t")[0] for line in table[1:]]
        assert row_labels[:8] == [f"class_{i}" for i in range(8)]
        assert row_labels[8:] == ["Mean-Kappa", "Standard Deviation",
                                  "Overall Accuracy(%)", "Overall Kappa",
                                  "Holdout Accuracy(%)"]

    @pytest.mark.parametrize("dates, message", [("0,0,2,3", "repeated: [0]"),
                                                ("0,2,3", "exactly four dates"),
                                                ("0,2,3,9", "exceed series length 6")])
    def test_bad_fusion_dates_fail_before_any_fit(self, tmp_path, small_site, capfd, caplog,
                                                  dates, message):
        caplog.set_level(logging.INFO)
        cfg = write_train_config(tmp_path, small_site, mode="pb-rnn",
                                 extra=f"fusion_dates = {dates}")
        assert run_cli("compare-all", "--config", str(cfg), "--quick") == 1
        err = capfd.readouterr().err
        assert message in err
        assert "holdout accuracy" not in err + caplog.text
        assert not (tmp_path / "out" / "comparison.tsv").exists()

    def test_ignored_keys_are_named_in_one_warning(self, tmp_path, small_site, capsys,
                                                   caplog):
        _, paths = small_site
        base = (f"mode = pb-rnn\nseries_manifest = {paths.manifest}\n"
                f"label_map = {paths.label_map}\nfusion_dates = 0,2,3,5\n")
        outputs = []
        for name, extra in (("plain", ""), ("ignored", "epochs = 7\nlog_every = 3\nbands = 8\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(base + f"output_dir = {tmp_path / name}\n" + extra, encoding="utf-8")
            caplog.clear()
            assert run_cli("compare-all", "--config", str(cfg), "--quick") == 0
            warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            outputs.append((capsys.readouterr().out,
                            (tmp_path / name / "comparison.tsv").read_bytes(), warnings))
        assert outputs[0][2] == []
        assert outputs[1][2] == ["compare-all ignores config field(s) bands, epochs, log_every"]
        assert outputs[1][:2] == outputs[0][:2]


class TestCompareAllSettings:
    """The ExperimentSettings compare-all hands to run_comparison."""

    @staticmethod
    def settings_received(tmp_path, small_site, monkeypatch, extra="", *flags):
        received = []
        monkeypatch.setattr(experiments, "run_comparison",
                            lambda series, truth, num_classes, settings, **_:
                            received.append(settings) or {})
        _, paths = small_site
        cfg = tmp_path / "compare.cfg"
        cfg.write_text(f"mode = pb-rnn\nseries_manifest = {paths.manifest}\n"
                       f"label_map = {paths.label_map}\noutput_dir = {tmp_path / 'out'}\n"
                       "fusion_dates = 0,2,3,5\n" + extra, encoding="utf-8")
        assert run_cli("compare-all", "--config", str(cfg), *flags) == 0
        return received

    def test_a_minimal_config_takes_the_experiment_defaults(self, tmp_path, small_site,
                                                            monkeypatch):
        assert self.settings_received(tmp_path, small_site, monkeypatch) \
            == [experiments.ExperimentSettings()]

    def test_quick_shrinks_only_the_budget(self, tmp_path, small_site, monkeypatch):
        assert self.settings_received(tmp_path, small_site, monkeypatch, "", "--quick") \
            == [replace(experiments.ExperimentSettings(), rnn_epochs=2, ffn_epochs=2,
                        max_train_per_class=50, max_holdout_per_class=50)]

    def test_the_shared_keys_pass_through(self, tmp_path, small_site, monkeypatch):
        shared = dict(hidden_dim=8, learning_rate=0.01, batch_size=16,
                      max_train_per_class=30, ffn_activation="tanh", sampler_seed=1,
                      init_seed=2, shuffle_seed=3)
        extra = "".join(f"{key} = {value}\n" for key, value in shared.items())
        assert self.settings_received(tmp_path, small_site, monkeypatch, extra) \
            == [replace(experiments.ExperimentSettings(), **shared)]

    def test_every_other_config_key_is_ignored(self):
        assert cm._KINDS.keys() - cli._COMPARE_ALL_READS == {
            "epochs", "log_every", "train_biases", "train_fraction", "zero_whole_patch",
            "seq_len", "bands", "patch_x", "patch_y"}

    @pytest.mark.parametrize("field", ["rnn_epochs", "ffn_epochs", "max_holdout_per_class"])
    def test_settings_without_a_config_key_stay_unknown(self, tmp_path, small_site, capsys,
                                                        monkeypatch, field):
        monkeypatch.setattr(experiments, "run_comparison", None)
        _, paths = small_site
        cfg = tmp_path / "compare.cfg"
        cfg.write_text(f"mode = pb-rnn\nseries_manifest = {paths.manifest}\n"
                       f"label_map = {paths.label_map}\noutput_dir = {tmp_path}\n"
                       f"{field} = 5\n", encoding="utf-8")
        assert run_cli("compare-all", "--config", str(cfg)) == 1
        assert f"unknown config field(s): '{field}'" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli("explode") == 1

    def test_missing_required_flag(self):
        assert run_cli("classify") == 1
