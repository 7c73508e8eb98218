import json

import numpy as np
import pytest

from pbrnn import (checkpoint as ck, cli, raster_data as rd, reference_matrices as rm,
                   sampling as sp, synthetic as sy)
from pbrnn.assessment import load_error_matrix, save_error_matrix


def run_cli(*argv):
    return cli.main(list(argv))


def write_train_config(tmp_path, site, mode="pb-rnn", extra=""):
    _, paths = site
    cfg = tmp_path / f"{mode}.cfg"
    cfg.write_text(f"""
mode = {mode}
series_manifest = {paths.manifest}
label_map = {paths.label_map}
output_dir = {tmp_path / 'out'}
seq_len = 6
hidden_dim = 8
epochs = 3
batch_size = 32
learning_rate = 0.003
max_train_per_class = 40
init_seed = 5
shuffle_seed = 6
sampler_seed = 7
log_every = 0
{extra}
""", encoding="utf-8")
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


class TestMultiAndSingleModes:
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


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli("explode") == 1

    def test_missing_required_flag(self):
        assert run_cli("classify") == 1
