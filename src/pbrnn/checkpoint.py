"""Binary checkpoint format for trained models.

Layout (little-endian): magic "PBRN", version u32, mode u32, generator-name
8 bytes, patch_x/patch_y/bands/num_classes/hidden u32, flags u32 (bit0
trainable biases, bit1 tanh hidden activation, bit2 partial masking rule:
only the contaminated pixels of a window were zeroed), init/shuffle seeds u64,
epochs u32, final_loss f64, scene-index list (u32 count + entries), then one
or four members, each a u32 date id, u64 parameter count and the flat f64
parameter array in the declared field order. Writes go through a temp file
plus rename so no partial checkpoint is observable; a checkpoint holding a
non-finite parameter is rejected on load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baseline_nets, recurrent_nets
from .core_math import RNG_ALGORITHM
from .errors import FormatError
from .sampling import SamplerConfig, write_atomic

MAGIC = b"PBRN"
VERSION = 1

MODES = ("pb-rnn", "pixel-rnn", "pixel-nn-single", "pixel-nn-multi",
         "patch-nn-single", "patch-nn-multi")
RNN_MODES = ("pb-rnn", "pixel-rnn")
SINGLE_MODES = ("pixel-nn-single", "patch-nn-single")
MULTI_MODES = ("pixel-nn-multi", "patch-nn-multi")

_FLAG_TRAIN_BIASES = 1
_FLAG_TANH_HIDDEN = 2
_FLAG_PARTIAL_MASK = 4
_KNOWN_FLAGS = _FLAG_TRAIN_BIASES | _FLAG_TANH_HIDDEN | _FLAG_PARTIAL_MASK

_HEADER = struct.Struct("<4sII8sIIIIIIQQId")


@dataclass
class Checkpoint:
    mode: str
    patch_x: int
    patch_y: int
    bands: int
    num_classes: int
    hidden_dim: int
    scene_indices: tuple[int, ...]
    init_seed: int
    shuffle_seed: int
    epochs_run: int
    final_loss: float
    model: object  # LstmParams | FfnParams | FusionEnsemble
    rng_algorithm: str = RNG_ALGORITHM
    zero_whole_patch: bool = True   # the sampler's masking rule at training time

    @property
    def input_dim(self) -> int:
        return self.patch_x * self.patch_y * self.bands

    @property
    def seq_len(self) -> int:
        return len(self.scene_indices)

    def sampler_config(self) -> SamplerConfig:
        """Sampler settings matching the trained model's input contract."""
        return SamplerConfig(patch_x=self.patch_x, patch_y=self.patch_y,
                             bands=self.bands, seq_len=self.seq_len,
                             reference_scene=self.scene_indices[0],
                             scene_indices=self.scene_indices,
                             zero_whole_patch=self.zero_whole_patch)


def _members_of(ckpt: Checkpoint):
    model = ckpt.model
    if isinstance(model, baseline_nets.FusionEnsemble):
        return [(date, baseline_nets.ffn_to_flat(m))
                for date, m in zip(ckpt.scene_indices, model.members)]
    if isinstance(model, baseline_nets.FfnParams):
        return [(ckpt.scene_indices[0], baseline_nets.ffn_to_flat(model))]
    if isinstance(model, recurrent_nets.LstmParams):
        return [(ckpt.scene_indices[0], model.to_flat())]
    raise TypeError(f"cannot checkpoint model of type {type(model).__name__}")


def _flags_of(ckpt: Checkpoint) -> int:
    flags = 0
    model = ckpt.model
    if isinstance(model, recurrent_nets.LstmParams) and model.train_biases:
        flags |= _FLAG_TRAIN_BIASES
    activation = None
    if isinstance(model, baseline_nets.FfnParams):
        activation = model.activation
    elif isinstance(model, baseline_nets.FusionEnsemble):
        activation = model.members[0].activation
    if activation == "tanh":
        flags |= _FLAG_TANH_HIDDEN
    if not ckpt.zero_whole_patch:
        flags |= _FLAG_PARTIAL_MASK
    return flags


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    if ckpt.mode not in MODES:
        raise ValueError(f"unknown mode {ckpt.mode!r}")
    parts = [_HEADER.pack(
        MAGIC, VERSION, MODES.index(ckpt.mode),
        ckpt.rng_algorithm.encode("ascii")[:8].ljust(8, b"\0"),
        ckpt.patch_x, ckpt.patch_y, ckpt.bands, ckpt.num_classes, ckpt.hidden_dim,
        _flags_of(ckpt), ckpt.init_seed, ckpt.shuffle_seed, ckpt.epochs_run,
        ckpt.final_loss)]
    parts.append(struct.pack("<I", len(ckpt.scene_indices)))
    parts.append(struct.pack(f"<{len(ckpt.scene_indices)}I", *ckpt.scene_indices))
    members = _members_of(ckpt)
    parts.append(struct.pack("<I", len(members)))
    for date_id, flat in members:
        parts.append(struct.pack("<IQ", date_id, flat.size))
        parts.append(np.ascontiguousarray(flat, dtype="<f8").tobytes())
    write_atomic(path, b"".join(parts))


def _read_exact(blob: bytes, pos: int, size: int, what: str):
    if pos + size > len(blob):
        raise FormatError(f"checkpoint truncated while reading {what}")
    return blob[pos:pos + size], pos + size


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    raw, pos = _read_exact(blob, 0, _HEADER.size, "header")
    (magic, version, mode_idx, rng_name, patch_x, patch_y, bands, num_classes,
     hidden, flags, init_seed, shuffle_seed, epochs, final_loss) = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if mode_idx >= len(MODES):
        raise FormatError(f"{path}: unknown mode index {mode_idx}")
    if flags & ~_KNOWN_FLAGS:
        raise FormatError(f"{path}: unknown checkpoint flag bits {flags & ~_KNOWN_FLAGS:#x}")
    mode = MODES[mode_idx]
    raw, pos = _read_exact(blob, pos, 4, "scene count")
    (n_scenes,) = struct.unpack("<I", raw)
    raw, pos = _read_exact(blob, pos, 4 * n_scenes, "scene indices")
    scene_indices = struct.unpack(f"<{n_scenes}I", raw)
    raw, pos = _read_exact(blob, pos, 4, "member count")
    (n_members,) = struct.unpack("<I", raw)

    input_dim = patch_x * patch_y * bands
    activation = "tanh" if flags & _FLAG_TANH_HIDDEN else "sigmoid"
    flats = []
    date_ids = []
    for _ in range(n_members):
        raw, pos = _read_exact(blob, pos, 12, "member header")
        date_id, count = struct.unpack("<IQ", raw)
        raw, pos = _read_exact(blob, pos, 8 * count, "member parameters")
        flats.append(np.frombuffer(raw, dtype="<f8").copy())
        date_ids.append(date_id)
    if pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - pos} trailing bytes")
    if not all(np.isfinite(flat).all() for flat in flats):
        raise FormatError(f"{path}: non-finite model parameters")

    if mode in RNN_MODES:
        if n_members != 1:
            raise FormatError(f"{path}: {mode} checkpoints hold one member")
        model = recurrent_nets.LstmParams.from_flat(
            flats[0], input_dim, hidden, num_classes,
            train_biases=bool(flags & _FLAG_TRAIN_BIASES))
    elif mode in SINGLE_MODES:
        if n_members != 1:
            raise FormatError(f"{path}: {mode} checkpoints hold one member")
        model = baseline_nets.ffn_from_flat(flats[0], input_dim, hidden, num_classes,
                                            activation=activation)
    else:
        if n_members != len(scene_indices):
            raise FormatError(f"{path}: fusion member count {n_members} vs "
                              f"{len(scene_indices)} dates")
        members = [baseline_nets.ffn_from_flat(f, input_dim, hidden, num_classes,
                                               activation=activation) for f in flats]
        model = baseline_nets.FusionEnsemble(members=members, date_ids=tuple(date_ids))
    return Checkpoint(
        mode=mode, patch_x=patch_x, patch_y=patch_y, bands=bands,
        num_classes=num_classes, hidden_dim=hidden, scene_indices=scene_indices,
        init_seed=init_seed, shuffle_seed=shuffle_seed, epochs_run=epochs,
        final_loss=final_loss, model=model,
        rng_algorithm=rng_name.rstrip(b"\0").decode("ascii"),
        zero_whole_patch=not flags & _FLAG_PARTIAL_MASK)
