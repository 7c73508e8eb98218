import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrnn import baseline_nets as bn, checkpoint as ck, core_math, recurrent_nets as rn
from pbrnn.errors import FormatError

FLAGS_AT = struct.calcsize("<4sII8s5I")  # header offset of the flags word


def lstm_checkpoint(seed=0, train_biases=True):
    rng = core_math.make_rng(seed)
    model = rn.init_lstm_params(72, 6, 8, rng, train_biases=train_biases)
    model.b[:] = rng.normal(size=model.b.shape)
    model.by[:] = rng.normal(size=8)
    return ck.Checkpoint(
        mode="pb-rnn", patch_x=3, patch_y=3, bands=8, num_classes=8, hidden_dim=6,
        scene_indices=tuple(range(5)), init_seed=seed, shuffle_seed=seed + 1,
        epochs_run=7, final_loss=0.123456, model=model)


class TestRoundTrip:
    def test_lstm_bit_exact(self, tmp_path):
        original = lstm_checkpoint()
        path = tmp_path / "model.bin"
        ck.save_checkpoint(path, original)
        loaded = ck.load_checkpoint(path)
        assert loaded.mode == "pb-rnn"
        assert loaded.scene_indices == tuple(range(5))
        assert loaded.rng_algorithm == "PCG64"
        assert loaded.epochs_run == 7
        assert loaded.final_loss == original.final_loss
        assert np.array_equal(loaded.model.to_flat(), original.model.to_flat())
        assert loaded.model.train_biases

    def test_save_is_byte_deterministic(self, tmp_path):
        original = lstm_checkpoint()
        ck.save_checkpoint(tmp_path / "a.bin", original)
        ck.save_checkpoint(tmp_path / "b.bin", original)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_frozen_biases_flag(self, tmp_path):
        original = lstm_checkpoint(train_biases=False)
        ck.save_checkpoint(tmp_path / "m.bin", original)
        assert not ck.load_checkpoint(tmp_path / "m.bin").model.train_biases

    def test_ffn_single(self, tmp_path):
        rng = core_math.make_rng(3)
        model = bn.init_ffn_params(8, 8, rng, hidden_dim=200, activation="tanh")
        original = ck.Checkpoint(
            mode="pixel-nn-single", patch_x=1, patch_y=1, bands=8, num_classes=8,
            hidden_dim=200, scene_indices=(4,), init_seed=3, shuffle_seed=4,
            epochs_run=2, final_loss=1.5, model=model)
        ck.save_checkpoint(tmp_path / "f.bin", original)
        loaded = ck.load_checkpoint(tmp_path / "f.bin")
        assert isinstance(loaded.model, bn.FfnParams)
        assert loaded.model.activation == "tanh"
        assert np.array_equal(bn.ffn_to_flat(loaded.model), bn.ffn_to_flat(model))

    def test_fusion_ensemble(self, tmp_path):
        rng = core_math.make_rng(5)
        members = [bn.init_ffn_params(72, 8, rng, hidden_dim=200) for _ in range(4)]
        ensemble = bn.FusionEnsemble(members=members)
        original = ck.Checkpoint(
            mode="patch-nn-multi", patch_x=3, patch_y=3, bands=8, num_classes=8,
            hidden_dim=200, scene_indices=(0, 2, 3, 22), init_seed=5, shuffle_seed=6,
            epochs_run=9, final_loss=0.4, model=ensemble)
        ck.save_checkpoint(tmp_path / "e.bin", original)
        loaded = ck.load_checkpoint(tmp_path / "e.bin")
        assert isinstance(loaded.model, bn.FusionEnsemble)
        assert loaded.scene_indices == (0, 2, 3, 22)
        for orig, back in zip(members, loaded.model.members):
            assert np.array_equal(bn.ffn_to_flat(orig), bn.ffn_to_flat(back))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 5))
    def test_random_parameter_sets_round_trip(self, tmp_path_factory, seed, hidden, classes):
        tmp = tmp_path_factory.mktemp("ckpt")
        rng = core_math.make_rng(seed)
        model = rn.init_lstm_params(8, hidden, classes, rng)
        model.b[:] = rng.normal(size=model.b.shape)
        original = ck.Checkpoint(
            mode="pixel-rnn", patch_x=1, patch_y=1, bands=8, num_classes=classes,
            hidden_dim=hidden, scene_indices=tuple(range(3)), init_seed=seed,
            shuffle_seed=0, epochs_run=1, final_loss=0.0, model=model)
        ck.save_checkpoint(tmp / "m.bin", original)
        loaded = ck.load_checkpoint(tmp / "m.bin")
        assert np.array_equal(loaded.model.to_flat(), model.to_flat())


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        ck.save_checkpoint(path, lstm_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            ck.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.bin"
        ck.save_checkpoint(path, lstm_checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            ck.load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.bin"
        ck.save_checkpoint(path, lstm_checkpoint())
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            ck.load_checkpoint(path)

    def test_unknown_flag_bits(self, tmp_path):
        path = tmp_path / "m.bin"
        ck.save_checkpoint(path, lstm_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[FLAGS_AT] |= 0x80
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="flag"):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize("fusion", [False, True], ids=["lstm", "pixel-nn-multi"])
    def test_member_date_id_must_match_the_scene_indices(self, tmp_path, fusion):
        if fusion:
            rng = core_math.make_rng(5)
            members = [bn.init_ffn_params(8, 8, rng) for _ in range(4)]
            original = ck.Checkpoint(
                mode="pixel-nn-multi", patch_x=1, patch_y=1, bands=8, num_classes=8,
                hidden_dim=200, scene_indices=(0, 2, 3, 22), init_seed=5, shuffle_seed=6,
                epochs_run=9, final_loss=0.4,
                model=bn.FusionEnsemble(members=members))
        else:
            original = lstm_checkpoint()
        path = tmp_path / "m.bin"
        ck.save_checkpoint(path, original)
        blob = bytearray(path.read_bytes())
        # the first member's date id follows the scene list and the member count
        first_member = ck._HEADER.size + 4 + 4 * len(original.scene_indices) + 4
        assert struct.unpack_from("<I", blob, first_member) == (0,)
        struct.pack_into("<I", blob, first_member, 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"date ids \(7"):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize("mode, scenes, members, named", [
        ("pb-rnn", 0, 1, "at least 1 scene(s), not 0"),
        ("pixel-rnn", 3, 2, "1 member(s), not 2"),
        ("patch-nn-single", 2, 1, "1 scene(s), not 2"),
        ("pixel-nn-single", 1, 0, "1 member(s), not 0"),
        ("pixel-nn-multi", 4, 3, "4 member(s), not 3"),
        ("patch-nn-multi", 0, 0, "4 scene(s), not 0"),
    ])
    def test_scene_and_member_counts_follow_the_mode(self, tmp_path, mode, scenes, members,
                                                     named):
        # the counts are checked before any member is read, so none is written
        header = ck._HEADER.pack(ck.MAGIC, ck.VERSION, ck.MODES.index(mode), b"PCG64",
                                 1, 1, 8, 8, 4, 0, 0, 0, 1, 0.5)
        path = tmp_path / "m.bin"
        path.write_bytes(header + struct.pack(f"<I{scenes}II", scenes, *range(scenes), members))
        with pytest.raises(FormatError, match=re.escape(named)):
            ck.load_checkpoint(path)

    def test_sampler_config_reconstruction(self):
        original = lstm_checkpoint()
        sampler = original.sampler_config()
        assert sampler.patch_x == 3 and sampler.patch_y == 3
        assert sampler.seq_len == 5
        assert sampler.scene_indices == tuple(range(5))
        assert sampler.input_dim == 72
        assert sampler.zero_whole_patch

    def test_partial_mask_rule_round_trips(self, tmp_path):
        whole = lstm_checkpoint()
        partial = lstm_checkpoint()
        partial.zero_whole_patch = False
        ck.save_checkpoint(tmp_path / "w.bin", whole)
        ck.save_checkpoint(tmp_path / "p.bin", partial)
        loaded = ck.load_checkpoint(tmp_path / "p.bin")
        assert not loaded.zero_whole_patch
        assert not loaded.sampler_config().zero_whole_patch
        assert ck.load_checkpoint(tmp_path / "w.bin").zero_whole_patch
        w, p = (tmp_path / "w.bin").read_bytes(), (tmp_path / "p.bin").read_bytes()
        assert [i for i in range(len(w)) if w[i] != p[i]] == [FLAGS_AT]
