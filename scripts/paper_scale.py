"""Run pbrnn on a site at the source paper's scale and print each step's wall
time and peak memory.

The paper maps a 771 km^2 Everglades site, about 928x928 Landsat pixels over
23 dates. This script writes a synthetic site of that size (`pbrnn synth`,
the ordering site of perfbench with 10% cloud), trains pb-rnn on it (`pbrnn
train`, perfbench's desk-scale budget), classifies the whole site with the
checkpoint (`pbrnn classify`) and assesses the map against the truth (`pbrnn
assess`).

Each step runs as its own `python -m pbrnn.cli` child and is reaped with
`os.wait4`, so the peak resident set size (`ru_maxrss`) printed for a step
is that child's own; `RUSAGE_CHILDREN` would give the largest over every
child so far. One line per step gives `step wall_s peak_mb`; the last line
is a JSON object with the same numbers and the SHA-256 of the classified
map, so two source trees can be compared on the same site.

Usage: python scripts/paper_scale.py [--src DIR]

`--src` is the source tree to import (default: the `src/` next to this
script). The site and outputs go to a temporary directory, about 340 MB. It
takes about 70 s on two CPUs; `train` peaks near 510 MB.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SIZE = 928  # site width and height
SITE_SPEC = {"seq_len": 23, "bands": 8, "num_classes": 8, "noise_sigma": 0.30,
             "cloud_fraction": 0.10, "pair_amplitude": 0.05, "seed": 1}
TRAIN_CONFIG = {"mode": "pb-rnn", "series_manifest": "site/series.manifest",
                "label_map": "site/truth.labels", "output_dir": "pb-rnn",
                "hidden_dim": 32, "learning_rate": 0.003, "batch_size": 64,
                "max_train_per_class": 400, "epochs": 20, "sampler_seed": 11,
                "init_seed": 12, "shuffle_seed": 13, "log_every": 0}


def key_values(pairs: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def run_step(work: Path, src: Path, *args: str) -> tuple[float, float]:
    """Run `python -m pbrnn.cli *args` in work; returns (wall seconds, peak
    MB of that child alone). A non-zero exit ends the script with the
    child's output."""
    log_path = work / f"{args[0]}.log"
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "pbrnn.cli", *args], cwd=work,
                                 env=dict(os.environ, PYTHONPATH=str(src)),
                                 stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)
        wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode:
        sys.exit(f"pbrnn {' '.join(args)} exited {child.returncode}:\n"
                 f"{log_path.read_text(errors='replace')}")
    return wall_s, usage.ru_maxrss / 1024  # Linux reports kilobytes


def run(work: Path, src: Path) -> dict:
    (work / "site.spec").write_text(key_values(dict(SITE_SPEC, width=SIZE, height=SIZE)))
    (work / "train.cfg").write_text(key_values(TRAIN_CONFIG))
    steps = (
        ("synth", ("synth", "--out", "site", "--spec", "site.spec")),
        ("train", ("train", "--config", "train.cfg")),
        ("classify", ("classify", "--checkpoint", "pb-rnn/checkpoint.bin",
                      "--series", "site/series.manifest", "--out", "map.labels")),
        ("assess", ("assess", "--classified", "map.labels", "--reference",
                    "site/truth.labels", "--out-prefix", "assessment", "--total", "800",
                    "--min-per-stratum", "50", "--seed", "1")),
    )
    result = {"size": SIZE, "scenes": SITE_SPEC["seq_len"], "src": str(src), "steps": {}}
    for name, args in steps:
        wall_s, peak_mb = run_step(work, src, *args)
        result["steps"][name] = {"wall_s": round(wall_s, 2), "peak_mb": round(peak_mb, 1)}
        print(f"{name} {wall_s:.2f} {peak_mb:.1f}", flush=True)
    result["map_sha256"] = hashlib.sha256((work / "map.labels").read_bytes()).hexdigest()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, help="source tree to import")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        result = run(Path(tmp), args.src.resolve())
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
