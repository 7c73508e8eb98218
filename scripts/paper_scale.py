"""Run pbrnn on a site at the source paper's scale and print each step's wall
time and peak memory.

The paper maps a 771 km^2 Everglades site, about 928x928 Landsat pixels over
23 dates. This script writes a synthetic site of that size (`pbrnn synth`,
the ordering site of perfbench with 10% cloud), trains pb-rnn on it (`pbrnn
train`, perfbench's desk-scale budget), classifies the whole site with the
checkpoint (`pbrnn classify`) and assesses the map against the truth (`pbrnn
assess`).

Each step runs as its own `python -m pbrnn.cli` child and is reaped with
`os.wait4`. Two memory readings are printed for a step:

- `peak_mb`, the child's peak resident set size (`ru_maxrss`). It is the
  larger of the child's own peak and that of its largest reaped descendant,
  not their sum, so it misses the forked pool workers of `train` and
  `classify`.
- `pss_mb`, the peak over the step of the summed proportional set size
  (`Pss` in `/proc/<pid>/smaps_rollup`) of the child and its live
  descendants, sampled every 10 ms. A page shared by n processes counts 1/n
  in each, so the sum counts a copy-on-write page once; summing their
  `Anonymous` instead would count it once per process.

One line per step gives `step wall_s peak_mb pss_mb`; the last line is a JSON
object with the same numbers and the SHA-256 of the classified map, so two
source trees can be compared on the same site.

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


def tree_pss_kb(pid: int) -> int:
    """Summed Pss, in kB, of pid and its live descendants (found through
    /proc/<pid>/task/*/children). A process that exits while it is read
    counts what was read of it."""
    total, pending = 0, [pid]
    while pending:
        proc = Path(f"/proc/{pending.pop()}")
        try:
            with open(proc / "smaps_rollup") as fh:
                total += next((int(line.split()[1]) for line in fh
                               if line.startswith("Pss:")), 0)
            for children in proc.glob("task/*/children"):
                pending.extend(int(child) for child in children.read_text().split())
        except OSError:
            continue
    return total


def run_step(work: Path, src: Path, *args: str) -> tuple[float, float, float]:
    """Run `python -m pbrnn.cli *args` in work; returns (wall seconds, peak MB
    of that child's ru_maxrss, peak summed PSS MB of it and its descendants).
    A non-zero exit ends the script with the child's output."""
    log_path = work / f"{args[0]}.log"
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "pbrnn.cli", *args], cwd=work,
                                 env=dict(os.environ, PYTHONPATH=str(src)),
                                 stdout=log, stderr=subprocess.STDOUT)
        pss_kb = 0
        while True:
            reaped, status, usage = os.wait4(child.pid, os.WNOHANG)
            if reaped:
                break
            pss_kb = max(pss_kb, tree_pss_kb(child.pid))
            time.sleep(0.01)
        wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode:
        sys.exit(f"pbrnn {' '.join(args)} exited {child.returncode}:\n"
                 f"{log_path.read_text(errors='replace')}")
    return wall_s, usage.ru_maxrss / 1024, pss_kb / 1024  # Linux reports kilobytes


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
        wall_s, peak_mb, pss_mb = run_step(work, src, *args)
        result["steps"][name] = {"wall_s": round(wall_s, 2), "peak_mb": round(peak_mb, 1),
                                 "pss_mb": round(pss_mb, 1)}
        print(f"{name} {wall_s:.2f} {peak_mb:.1f} {pss_mb:.1f}", flush=True)
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
