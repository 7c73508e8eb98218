"""Byte-level fuzzing of the on-disk formats through the command line.

Each case truncates a valid file or overwrites a few of its bytes, then runs
the command that reads it. Whatever the damage, the command must end in exit
code 0 (the damage was harmless) or 2 (data error), never in an exception.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrnn import cli, reference_matrices as rm, synthetic as sy
from pbrnn.assessment import save_error_matrix

FUZZ = settings(max_examples=50, derandomize=True, deadline=None)


def mutated(data, blob: bytes) -> bytes:
    """Truncate blob, or overwrite a short run of it; positions favour the header."""
    pos = data.draw(st.integers(0, min(len(blob), 128) - 1) | st.integers(0, len(blob) - 1),
                    label="position")
    if data.draw(st.booleans(), label="truncate"):
        return blob[:pos]
    patch = data.draw(st.binary(min_size=1, max_size=8), label="patch")
    return blob[:pos] + patch + blob[pos + len(patch):]


@pytest.fixture(scope="module")
def site(tmp_path_factory):
    """A 16x16, 4-scene site with a pb-rnn checkpoint and its classified map."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = sy.write_site(sy.SyntheticSpec(width=16, height=16, seq_len=4, seed=8),
                          root / "site")
    cfg = root / "train.cfg"
    cfg.write_text(f"mode = pb-rnn\nseries_manifest = {paths.manifest}\n"
                   f"label_map = {paths.label_map}\noutput_dir = {root / 'out'}\n"
                   "seq_len = 4\nhidden_dim = 4\nepochs = 1\nlog_every = 0\n",
                   encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    checkpoint = root / "out" / "checkpoint.bin"
    classified = root / "out" / "map.labels"
    assert cli.main(["classify", "--checkpoint", str(checkpoint), "--series",
                     str(paths.manifest), "--out", str(classified)]) == 0
    return paths, checkpoint, classified


def exits_cleanly(*argv) -> bool:
    return cli.main([str(a) for a in argv]) in (0, 2)


@FUZZ
@given(data=st.data())
def test_checkpoint_bytes(site, data):
    paths, checkpoint, _ = site
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "checkpoint.bin"
        bad.write_bytes(mutated(data, checkpoint.read_bytes()))
        assert exits_cleanly("classify", "--checkpoint", bad, "--series", paths.manifest,
                             "--out", Path(tmp) / "m.labels")


@FUZZ
@given(data=st.data())
def test_scene_meta_json(site, data):
    paths, checkpoint, _ = site
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(shutil.copytree(paths.manifest.parent, Path(tmp) / "site"))
        meta = copy / paths.scene_dirs[1].name / "meta.json"
        meta.write_bytes(mutated(data, meta.read_bytes()))
        assert exits_cleanly("classify", "--checkpoint", checkpoint, "--series",
                             copy / paths.manifest.name, "--out", Path(tmp) / "m.labels")


@FUZZ
@given(data=st.data())
def test_label_map_sidecar(site, data):
    paths, _, classified = site
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "map.labels"
        shutil.copyfile(classified, bad)
        sidecar = Path(str(classified) + ".json").read_bytes()
        Path(str(bad) + ".json").write_bytes(mutated(data, sidecar))
        assert exits_cleanly("assess", "--classified", bad, "--reference", paths.label_map,
                             "--out-prefix", Path(tmp) / "a", "--per-stratum", "5")


@FUZZ
@given(data=st.data())
def test_error_matrix_tsv(data):
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good.tsv"
        save_error_matrix(good, rm.PUBLISHED["pb-rnn"].matrix())
        bad = Path(tmp) / "bad.tsv"
        bad.write_bytes(mutated(data, good.read_bytes()))
        assert exits_cleanly("assess", "--matrix", bad, "--out-prefix", Path(tmp) / "a")
