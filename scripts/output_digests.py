"""Print the SHA-256 of every file a fixed end-to-end command-line run writes.

In a temporary directory this runs `pbrnn synth --seed 2`, `pbrnn synth
--spec` with a spec that sets every key (a non-square site with ragged Voronoi
tiles on two edges, with non-default floats), `pbrnn train` for all six modes on
small budgets, and three more pb-rnn runs: under the partial masking rule
(`zero_whole_patch = false`), with frozen gate biases (`train_biases = false`,
the only run whose bias gradient is zeroed) and on the 6-class, 5-band spec
site (so the numbered legend and preview colours are pinned too); `pbrnn
classify --preview` with each checkpoint on its own site, and `pbrnn
compare-all --quick` twice: from a config that sets the experiment settings
and from one that sets only the mode, paths and fusion dates, so the defaults
`compare-all` falls back on are pinned too. It then prints one
`sha256  relative/path` line per file, sorted by path. Run it in two source
trees and `diff` the listings to check that a change leaves every output byte
as it was. The package comes from the `src/` next to this script. It takes
about a minute on two CPUs.

Usage: python scripts/output_digests.py
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODES = ("pb-rnn", "pixel-rnn", "patch-nn-single", "pixel-nn-single",
         "patch-nn-multi", "pixel-nn-multi")
# sets every SyntheticSpec field; the 327-centre Voronoi map's 16-pixel tiles are
# ragged on the right (4 columns) and bottom (5 rows) edges
FULL_SPEC = ("width = 260\nheight = 181\nnum_classes = 6\nseq_len = 5\nbands = 5\n"
             "noise_sigma = 0.05\ncloud_fraction = 0.15\nregion_blob_scale = 12\nseed = 4\n"
             "confusable_at = 2\npair_amplitude = 0.1\nlevel_amplitude = 0.07\n")
# (mode, output directory, site, extra config lines) of each train + classify run
RUNS = tuple((mode, mode, "site", "") for mode in MODES) + (
    ("pb-rnn", "pb-rnn-partial", "site", "zero_whole_patch = false\n"),
    ("pb-rnn", "pb-rnn-frozen-biases", "site", "train_biases = false\n"),
    ("pb-rnn", "pb-rnn-full-spec", "full-spec-site", "bands = 5\nseq_len = 5\n"))


def pbrnn(work: Path, *args: str) -> None:
    done = subprocess.run([sys.executable, "-m", "pbrnn.cli", *args], cwd=work,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"pbrnn {' '.join(args)} exited {done.returncode}:\n{done.stderr}")


def train_config(mode: str, output_dir: str, site: str = "site") -> str:
    lines = [f"mode = {mode}", f"series_manifest = {site}/series.manifest",
             f"label_map = {site}/truth.labels", f"output_dir = {output_dir}",
             "hidden_dim = 32", "learning_rate = 0.003", "batch_size = 64",
             "max_train_per_class = 400", "sampler_seed = 11", "init_seed = 12",
             "shuffle_seed = 13", "log_every = 0"]
    if mode.endswith("-multi"):
        lines.append("fusion_dates = 0,2,3,22")
    lines.append("epochs = 20" if mode.endswith("-rnn") else "epochs = 40")
    return "\n".join(lines) + "\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        pbrnn(work, "synth", "--out", "site", "--seed", "2")
        (work / "full.spec").write_text(FULL_SPEC, encoding="utf-8")
        pbrnn(work, "synth", "--out", "full-spec-site", "--spec", "full.spec")
        for mode, out, site, extra in RUNS:
            (work / f"{out}.cfg").write_text(train_config(mode, out, site) + extra,
                                             encoding="utf-8")
            pbrnn(work, "train", "--config", f"{out}.cfg")
            pbrnn(work, "classify", "--checkpoint", f"{out}/checkpoint.bin",
                  "--series", f"{site}/series.manifest", "--out", f"{out}/map.labels",
                  "--preview", f"{out}/map.ppm")
        (work / "compare.cfg").write_text(train_config("pb-rnn", "compare"), encoding="utf-8")
        pbrnn(work, "compare-all", "--config", "compare.cfg", "--quick")
        (work / "compare-defaults.cfg").write_text(
            "mode = pb-rnn\nseries_manifest = site/series.manifest\n"
            "label_map = site/truth.labels\noutput_dir = compare-defaults\n"
            "fusion_dates = 0,2,3,22\n", encoding="utf-8")
        pbrnn(work, "compare-all", "--config", "compare-defaults.cfg", "--quick")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work)}")


if __name__ == "__main__":
    main()
