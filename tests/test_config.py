from dataclasses import replace

import pytest

from pbrnn import config as cm
from pbrnn.errors import ConfigError
from pbrnn.experiments import RunConfig
from pbrnn.optimizer import TrainConfig
from pbrnn.sampling import SamplerConfig


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


BASE = """
mode = {mode}
series_manifest = series.manifest
label_map = truth.labels
output_dir = out
{extra}
"""


def parse(tmp_path, mode, extra=""):
    return cm.run_config_from_file(write_config(tmp_path, BASE.format(mode=mode, extra=extra)))


class TestParsing:
    def test_comments_and_spacing(self, tmp_path):
        path = write_config(tmp_path, "a = 1  # trailing\n# full line\n\nb = x = y\n")
        assert cm.parse_kv_file(path) == {"a": "1", "b": "x = y"}

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "just words\n")
        with pytest.raises(ConfigError):
            cm.parse_kv_file(path)

    def test_key_set_twice_names_both_lines(self, tmp_path):
        path = write_config(tmp_path, "epochs = 3\nhidden_dim = 8\n\nepochs = 3  # again\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: key 'epochs' is already set "
                                              r"on line 1"):
            cm.parse_kv_file(path)

    def test_unknown_field_named(self, tmp_path):
        with pytest.raises(ConfigError, match="'banana'"):
            parse(tmp_path, "pb-rnn", extra="banana = 1")

    def test_missing_required(self, tmp_path):
        path = write_config(tmp_path, "mode = pb-rnn\n")
        with pytest.raises(ConfigError, match="series_manifest"):
            cm.run_config_from_file(path)

    def test_bad_int(self, tmp_path):
        with pytest.raises(ConfigError, match="epochs"):
            parse(tmp_path, "pb-rnn", extra="epochs = soon")


class TestModeDefaults:
    def test_pb_rnn_defaults(self, tmp_path):
        run = parse(tmp_path, "pb-rnn")
        assert run.sampler.patch_x == 3 and run.sampler.patch_y == 3
        assert run.sampler.seq_len == 23
        assert run.sampler.scene_indices is None
        assert run.train.learning_rate == pytest.approx(1e-4)
        assert run.hidden_dim == 128

    def test_required_keys_only_parse_to_the_field_defaults(self, tmp_path):
        run = parse(tmp_path, "pb-rnn")
        assert run.train == TrainConfig()
        paths_cleared = replace(run, series_manifest=None, label_map=None, output_dir=None)
        assert paths_cleared == RunConfig(mode="pb-rnn", sampler=run.sampler, train=TrainConfig())
        for name in ("seq_len", "bands", "seed", "train_fraction"):
            assert getattr(run.sampler, name) == getattr(SamplerConfig(), name), name

    def test_pixel_rnn_forces_1x1(self, tmp_path):
        run = parse(tmp_path, "pixel-rnn")
        assert run.sampler.patch_x == 1 and run.sampler.patch_y == 1
        assert run.sampler.input_dim == 8

    def test_single_mode_pins_reference(self, tmp_path):
        run = parse(tmp_path, "patch-nn-single", extra="reference_scene = 3")
        assert run.sampler.seq_len == 1
        assert run.sampler.scene_indices == (3,)

    def test_multi_mode_uses_fusion_dates(self, tmp_path):
        run = parse(tmp_path, "pixel-nn-multi", extra="fusion_dates = 0, 2, 3, 22")
        assert run.sampler.scene_indices == (0, 2, 3, 22)
        assert run.sampler.seq_len == 4
        assert run.sampler.patch_x == 1


INCONSISTENT = [
    ("pixel-rnn", "patch_x = 3"),
    ("pixel-rnn", "patch_y = 3"),
    ("pixel-nn-single", "patch_x = 3"),
    ("pixel-nn-multi", "patch_y = 5\nfusion_dates = 0,1,2,3"),
    ("pixel-nn-single", "seq_len = 23"),
    ("patch-nn-single", "seq_len = 4"),
    ("patch-nn-multi", "fusion_dates = 0,1,2"),
    ("patch-nn-multi", "fusion_dates = 0,1,2,3,4"),
    ("patch-nn-multi", ""),  # fusion_dates missing entirely
    ("pixel-nn-multi", "fusion_dates = 0,1,2,3\nseq_len = 23"),
    ("pb-rnn", "patch_x = 2"),
    ("pb-rnn", "seq_len = 0"),
    ("pixel-rnn", "epochs = 0"),
    ("pb-rnn", "batch_size = 0"),
    ("pb-rnn", "learning_rate = 0"),
    ("pb-rnn", "ffn_activation = relu"),
    ("pb-rnn", "hidden_dim = 0"),
    ("pb-rnn", "train_fraction = 0"),
]


@pytest.mark.parametrize("mode,extra", INCONSISTENT)
def test_mode_dimension_inconsistencies_rejected(tmp_path, mode, extra):
    with pytest.raises(ConfigError):
        parse(tmp_path, mode, extra=extra)


@pytest.mark.parametrize("mode", ["pb-rnn", "pixel-rnn", "pixel-nn-single",
                                  "pixel-nn-multi", "patch-nn-single", "patch-nn-multi"])
def test_every_mode_has_a_valid_config(tmp_path, mode):
    extra = "fusion_dates = 0,1,2,3" if mode.endswith("multi") else ""
    run = parse(tmp_path, mode, extra=extra)
    assert run.mode == mode


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("epochs", 0), ("log_every", -1), ("learning_rate", 0.0),
    ("learning_rate", -1e-3), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
])
def test_train_config_checks_its_fields(field, value):
    with pytest.raises(ConfigError, match=f"'{field}'"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("hidden_dim", 0), ("ffn_activation", "relu"), ("max_train_per_class", -1),
])
def test_run_config_checks_its_fields(field, value):
    with pytest.raises(ConfigError, match=f"'{field}'"):
        RunConfig(mode="pb-rnn", sampler=SamplerConfig(), train=TrainConfig(), **{field: value})


def test_unknown_mode(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        parse(tmp_path, "super-rnn")


def test_synthetic_spec_parsing():
    spec = cm.synthetic_spec_from_pairs({"width": "32", "height": "24", "seed": "5",
                                         "noise_sigma": "0.1"})
    assert (spec.width, spec.height, spec.seed) == (32, 24, 5)
    with pytest.raises(ConfigError, match="wobble"):
        cm.synthetic_spec_from_pairs({"wobble": "3"})
