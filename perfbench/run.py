#!/usr/bin/env python3
"""Benchmark of the pbrnn command line on synthetic multi-temporal sites.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload train-rnn --seed 1 --seconds 24 --trace 0

Each workload is a closed sequence of documented ``pbrnn`` subcommands
(``synth``, ``train``, ``classify``, ``assess``) called in-process through
``pbrnn.cli.main`` one at a time. The benchmark touches the package only
through that entry point and the on-disk formats (label maps, ``loss.txt``,
checkpoints). ``--trace 1`` adds a traced pass and reports per-layer numbers.
Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK_ROOT = CHECKOUT / ".perfbench_work"

NODATA = 255
NUM_CLASSES = 8
# the designed ordering site: pairs separable only in time, heavy pixel noise
SITE_SPEC = {"seq_len": 23, "bands": 8, "num_classes": NUM_CLASSES, "noise_sigma": 0.30,
             "cloud_fraction": 0.10, "pair_amplitude": 0.05}
FUSION_DATES = (0, 2, 3, 22)
SAMPLER_SEED, INIT_SEED, SHUFFLE_SEED = 11, 12, 13
ASSESS_ARGS = ("--total", "800", "--min-per-stratum", "50", "--seed", "1")
RNN_MODES = ("pb-rnn", "pixel-rnn")
ALL_MODES = ("pb-rnn", "pixel-rnn", "patch-nn-single", "pixel-nn-single",
             "patch-nn-multi", "pixel-nn-multi")

WORKLOADS = {
    "train-rnn": ("pb-rnn", "pixel-rnn"),
    "train-baselines": ("patch-nn-single", "pixel-nn-single", "patch-nn-multi",
                        "pixel-nn-multi"),
    "classify-map": ("pb-rnn",),
}
MAP_FLOOR = 0.95


@dataclass(frozen=True)
class Budget:
    """Site sizes and the desk-scale training budget of the six-system comparison."""

    train_size: int = 128       # training site, and train-rnn's evaluation site
    map_size: int = 256         # evaluation site of train-baselines and classify-map
    hidden_dim: int = 32
    learning_rate: float = 3e-3
    batch_size: int = 64
    max_train_per_class: int = 400
    rnn_epochs: int = 20
    ffn_epochs: int = 40
    quality_floors: bool = True


SETUP_REPEATS = 3  # set-up is timed this often; setup_s is the median


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "classify_pixels_per_s": "1/s",
    "map_accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, fields in (
            ("recurrent_nets.forward_batch", ("calls", "s", "self_s", "rows")),
            ("recurrent_nets._step_kernel", ("calls", "s", "self_s")),
            ("recurrent_nets.backward_batch", ("calls", "s")),
            ("core_math.sigmoid", ("calls", "s", "elements")),
            ("optimizer.train_arrays", ("calls", "s", "self_s")),
            ("optimizer.adam_update", ("calls", "s")),
            ("optimizer.param_flatten", ("calls", "s")),
            ("optimizer.stack_samples", ("s",)),
            ("baseline_nets.ffn_forward_batch", ("calls", "s", "self_s")),
            ("baseline_nets.ffn_backward_batch", ("calls", "s")),
            ("sampling.extract_training_set", ("calls", "s", "samples")),
            ("sampling._patch_plane", ("calls", "s")),
            ("sampling.classify_map", ("s", "self_s")),
            ("raster_data.load_series", ("s",)),
            ("raster_data.read_scene", ("s",)),
            ("raster_data.dn_to_toa", ("calls", "s")),
            ("checkpoint.load_checkpoint", ("s",)),
            ("checkpoint.save_checkpoint", ("s",)),
            ("assessment.build_error_matrix", ("s",)),
            ("assessment.full_report", ("s",))):
        for f in fields:
            units[f"{name}.{f}"] = "s" if f in ("s", "self_s") else "count"
    # computed from array shapes: they repeat exactly and ignore cache misses
    units["recurrent_nets.forward_batch.flops_computed"] = "flop"
    units["recurrent_nets.forward_batch.trace_bytes_computed"] = "B"
    units["recurrent_nets.backward_batch.flops_computed"] = "flop"
    units["sampling._patch_plane.bytes_computed"] = "B"
    units["sampling.extract_used_ratio_computed"] = "ratio"
    units["sampling.clear_window_ratio_computed"] = "ratio"
    for mode in ALL_MODES:
        units[f"cli.train.{mode}.s"] = "s"
    units["cli.classify.s"] = "s"
    units["cli.assess.s"] = "s"
    for mode in ALL_MODES:
        units[f"map_accuracy.{mode}"] = "ratio"
        units[f"final_train_loss.{mode}"] = "nats"
    units["tracing_overhead_s"] = "s"
    units["trace.missing_targets"] = "count"
    return units


class PeakRss:
    """Highest resident set size while active, sampled from a background thread."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @staticmethod
    def current() -> int:
        try:
            with open("/proc/self/statm", "rb") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except OSError:  # no procfs: the process-lifetime peak, set-up included
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def _sample(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self.current())
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.current())


@dataclass
class Pass:
    wall_s: float = 0.0
    train_s: float = 0.0
    train_work: float = 0.0     # samples x epochs x fusion members
    classify_s: float = 0.0
    assess_s: float = 0.0
    pixels: int = 0
    train_s_by_mode: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


class Bench:
    """One run: the work directory, the CLI, and the tally of operations."""

    def __init__(self, cli, workload: str, seed: int, budget: Budget, work: Path):
        self.cli = cli
        self.workload = workload
        self.modes = WORKLOADS[workload]
        self.budget = budget
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None
        size = budget.train_size if workload == "train-rnn" else budget.map_size
        self.sites = {"train": (budget.train_size, 2 * seed),
                      "eval": (size, 2 * seed + 1)}
        self.site_dirs: dict[str, Path] = {}

    # -- operations -------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def call(self, *argv, stage: str = "") -> tuple[float, str]:
        """Run one pbrnn subcommand; returns (wall seconds, its standard output)."""
        argv = [str(a) for a in argv]
        if self.tracer is not None:
            self.tracer.stage = stage
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        self.check(rc == 0, f"pbrnn {' '.join(argv)}: exit {rc}")
        return elapsed, out.getvalue()

    # -- set-up -----------------------------------------------------------

    def synth_sites(self, repeat: int) -> None:
        for role, (size, site_seed) in self.sites.items():
            spec = self.work / f"{role}.spec"
            pairs = dict(SITE_SPEC, width=size, height=size, seed=site_seed)
            spec.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
            out = self.work / f"site-{role}-{repeat}"
            self.call("synth", "--out", out, "--spec", spec, stage="synth")
            self.site_dirs[role] = out

    def set_up(self) -> tuple[float, dict]:
        """Synthesize the sites ``SETUP_REPEATS`` times; classify-map also trains
        its pb-rnn checkpoint once. Returns (setup seconds, set-up train facts)."""
        times = []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.synth_sites(repeat)
            times.append(time.perf_counter() - start)
            if repeat:
                for role in self.sites:
                    shutil.rmtree(self.work / f"site-{role}-{repeat - 1}")
        setup_s = statistics.median(times)
        trained = {}
        if self.workload == "classify-map":
            out = self.work / "setup" / "pb-rnn"
            train_s, samples = self.train("pb-rnn", out)
            setup_s += train_s
            trained = {"train_s": train_s, "work": samples * self.epochs("pb-rnn"),
                       "checkpoint": out / "checkpoint.bin", "dir": out}
        return setup_s, trained

    # -- the workload's commands ------------------------------------------

    def epochs(self, mode: str) -> int:
        return self.budget.rnn_epochs if mode in RNN_MODES else self.budget.ffn_epochs

    def train(self, mode: str, out: Path) -> tuple[float, int]:
        site = self.site_dirs["train"]
        pairs = {"mode": mode, "series_manifest": site / "series.manifest",
                 "label_map": site / "truth.labels", "output_dir": out,
                 "hidden_dim": self.budget.hidden_dim,
                 "learning_rate": self.budget.learning_rate,
                 "batch_size": self.budget.batch_size, "epochs": self.epochs(mode),
                 "max_train_per_class": self.budget.max_train_per_class,
                 "sampler_seed": SAMPLER_SEED, "init_seed": INIT_SEED,
                 "shuffle_seed": SHUFFLE_SEED, "log_every": 0}
        if mode.endswith("-multi"):
            pairs["fusion_dates"] = ",".join(map(str, FUSION_DATES))
        out.mkdir(parents=True, exist_ok=True)
        config = out / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        elapsed, text = self.call("train", "--config", config, stage=f"train.{mode}")
        found = re.search(r"trained \S+ on (\d+) samples", text)
        self.check(found is not None, f"{mode}: train did not report its sample count")
        return elapsed, int(found.group(1)) if found else 0

    def run_pass(self, index: int, setup: dict) -> Pass:
        """One timed pass: the train workloads train each system; classify-map
        classifies and assesses the evaluation site with its set-up checkpoint."""
        result = Pass()
        start = time.perf_counter()
        for mode in self.modes:
            out = self.work / f"pass{index}" / mode
            if setup:
                self.classify_and_assess(setup["checkpoint"], out, result)
                continue
            elapsed, samples = self.train(mode, out)
            result.train_s_by_mode[mode] = elapsed
            result.train_s += elapsed
            members = len(FUSION_DATES) if mode.endswith("-multi") else 1
            result.train_work += samples * self.epochs(mode) * members
            result.samples[mode] = samples
        result.wall_s = time.perf_counter() - start
        for mode in self.modes:
            out = self.work / f"pass{index}" / mode
            result.digests[mode] = _digest(out / ("eval.labels" if setup else "checkpoint.bin"))
        return result

    def classify_and_assess(self, checkpoint: Path, out: Path, result: Pass) -> None:
        eval_site = self.site_dirs["eval"]
        out.mkdir(parents=True, exist_ok=True)
        elapsed, _ = self.call("classify", "--checkpoint", checkpoint,
                               "--series", eval_site / "series.manifest",
                               "--out", out / "eval.labels", stage="classify")
        result.classify_s += elapsed
        elapsed, _ = self.call("assess", "--classified", out / "eval.labels",
                               "--reference", eval_site / "truth.labels",
                               "--out-prefix", out / "assessment", *ASSESS_ARGS,
                               stage="assess")
        result.assess_s += elapsed
        labels = _read_labels(out / "eval.labels")
        result.pixels += 0 if labels is None else int(np.count_nonzero(labels != NODATA))

    def evaluate(self, index: int, passes: list[Pass], setup: dict) -> list[Pass]:
        """The passes that classified the evaluation site. On the train workloads
        that is one extra step with the checkpoints of pass ``index``, whose
        stage timings it joins."""
        if setup:
            return passes
        for mode in self.modes:
            out = self.work / f"pass{index}" / mode
            self.classify_and_assess(out / "checkpoint.bin", out, passes[index])
        return [passes[index]]

    # -- output checks ----------------------------------------------------

    def check_label_map(self, path: Path, mode: str) -> None:
        size = self.sites["eval"][0]
        labels = _read_labels(path)
        if not self.check(labels is not None and labels.shape == (size, size),
                          f"{path}: not a {size}x{size} label map"):
            return
        ring = 0 if mode.startswith("pixel") else 1  # pixel modes use a 1x1 window
        interior = np.zeros(labels.shape, dtype=bool)
        interior[ring:size - ring, ring:size - ring] = True
        self.check(bool(np.all(labels[~interior] == NODATA)),
                   f"{path}: boundary ring of width {ring} is not all no-data")
        self.check(bool(np.all(labels[interior] < NUM_CLASSES)),
                   f"{path}: interior holds no-data or class ids >= {NUM_CLASSES}")

    def check_loss(self, path: Path, epochs: int) -> float:
        try:
            rows = [line.split() for line in path.read_text().splitlines()]
            losses = [float(r[1]) for r in rows]
            ok = len(rows) == epochs and all(
                int(r[0]) == i + 1 and math.isfinite(v)
                for i, (r, v) in enumerate(zip(rows, losses)))
        except (OSError, ValueError, IndexError):
            ok, losses = False, []
        self.check(ok, f"{path}: expected {epochs} finite rows")
        return losses[-1] if ok else math.nan

    def check_outputs(self, passes: list[Pass], setup: dict) -> tuple[dict, dict]:
        """Structure, determinism and quality checks on the last pass; returns
        per-mode (map accuracy, final training loss)."""
        truth = _read_labels(self.site_dirs["eval"] / "truth.labels")
        accuracy, loss = {}, {}
        for mode in self.modes:
            out = self.work / f"pass{len(passes) - 1}" / mode
            self.check_label_map(out / "eval.labels", mode)
            loss_dir = setup["dir"] if setup else out
            loss[mode] = self.check_loss(loss_dir / "loss.txt", self.epochs(mode))
            accuracy[mode] = _agreement(_read_labels(out / "eval.labels"), truth)
            for index, later in enumerate(passes[1:], 1):
                self.check(later.digests[mode] == passes[0].digests[mode],
                           f"{mode}: pass {index} outputs differ from pass 0")
        if self.budget.quality_floors:
            self.check_floors(passes, setup)
        return accuracy, loss

    def check_floors(self, passes: list[Pass], setup: dict) -> None:
        """Acceptance criterion 3's floors, on the same measure it uses: each
        system's whole-map agreement on its own training site."""
        site = self.site_dirs["train"]
        truth = _read_labels(site / "truth.labels")
        accuracy = {}
        for mode in self.modes:
            out = self.work / f"pass{len(passes) - 1}" / mode
            checkpoint = setup["checkpoint"] if setup else out / "checkpoint.bin"
            self.call("classify", "--checkpoint", checkpoint, "--series",
                      site / "series.manifest", "--out", out / "train.labels", stage="check")
            accuracy[mode] = _agreement(_read_labels(out / "train.labels"), truth)
        if self.workload == "train-rnn":
            self.check(accuracy["pb-rnn"] > accuracy["pixel-rnn"],
                       f"training site: pb-rnn {accuracy['pb-rnn']:.4f} does not beat "
                       f"pixel-rnn {accuracy['pixel-rnn']:.4f}")
        if self.workload == "train-baselines":
            self.check(accuracy["patch-nn-single"] >= accuracy["pixel-nn-single"],
                       f"training site: patch-nn-single {accuracy['patch-nn-single']:.4f} "
                       f"below pixel-nn-single {accuracy['pixel-nn-single']:.4f}")
        if "pb-rnn" in accuracy:
            self.check(accuracy["pb-rnn"] >= MAP_FLOOR,
                       f"training site: pb-rnn map accuracy {accuracy['pb-rnn']:.4f} "
                       f"< {MAP_FLOOR}")

    def check_call_counts(self, tracer, traced: Pass) -> None:
        lstm = ("recurrent_nets.forward_batch", "recurrent_nets.backward_batch",
                "recurrent_nets._step_kernel")
        if self.workload == "train-rnn":
            for mode in self.modes:
                stage = f"train.{mode}"
                steps = self.epochs(mode) * -(-traced.samples[mode] // self.budget.batch_size)
                counts = [tracer.calls(name, stage) for name in lstm[:2]]
                self.check(counts == [steps, steps],
                           f"{mode}: forward/backward calls {counts}, expected {steps} each")
        elif self.workload == "train-baselines":
            counts = [tracer.calls(name) for name in lstm]
            self.check(counts == [0, 0, 0], f"LSTM calls {counts} on train-baselines")
        else:
            calls = tracer.calls("recurrent_nets.backward_batch")
            self.check(calls == 0, f"{calls} backward calls on classify-map")


def _digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def _read_labels(path: Path):
    """A label map as written by the CLI: raw uint8 ids plus a JSON sidecar."""
    try:
        sidecar = json.loads(Path(f"{path}.json").read_text())
        raw = np.fromfile(path, dtype=np.uint8)
        return raw.reshape(int(sidecar["height"]), int(sidecar["width"]))
    except (OSError, ValueError, KeyError):
        return None


def _agreement(labels, truth) -> float:
    if labels is None or truth is None or labels.shape != truth.shape:
        return math.nan
    valid = (labels != NODATA) & (truth != NODATA)
    return float(np.mean(labels[valid] == truth[valid])) if valid.any() else math.nan


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator / denominator) if denominator else 0.0


def per_layer(tracer, traced: Pass, untraced: Pass, accuracy: dict,
              loss: dict) -> dict[str, float]:
    summary = tracer.summary()
    values = {}
    for metric in per_layer_units():
        name, _, field_name = metric.rpartition(".")
        if name in summary and field_name in ("calls", "s", "self_s"):
            values[metric] = float(summary[name][field_name])
    counts = tracer.counts
    values.update({
        "recurrent_nets.forward_batch.rows": counts["forward_rows"],
        "recurrent_nets.forward_batch.flops_computed": counts["forward_flops"],
        "recurrent_nets.forward_batch.trace_bytes_computed": counts["forward_trace_bytes"],
        "recurrent_nets.backward_batch.flops_computed": counts["backward_flops"],
        "core_math.sigmoid.elements": counts["sigmoid_elements"],
        "sampling.extract_training_set.samples": counts["assembled_samples"],
        "sampling._patch_plane.bytes_computed": counts["patch_plane_bytes"],
        "sampling.extract_used_ratio_computed":
            _ratio(sum(traced.samples.values()), counts["assembled_samples"]),
        "sampling.clear_window_ratio_computed":
            _ratio(counts["classify_clear_windows"], counts["classify_windows"]),
        "tracing_overhead_s": traced.wall_s - untraced.wall_s,
        "trace.missing_targets": float(len(tracer.missing)),
    })
    for mode, seconds in traced.train_s_by_mode.items():
        values[f"cli.train.{mode}.s"] = seconds
    values["cli.classify.s"] = traced.classify_s
    values["cli.assess.s"] = traced.assess_s
    for mode in accuracy:
        values[f"map_accuracy.{mode}"] = accuracy[mode]
        values[f"final_train_loss.{mode}"] = loss[mode]
    # every per-layer metric is reported; a layer the workload never reaches reads 0
    return {metric: values.get(metric, 0.0) for metric in per_layer_units()}


def blas_threads():
    """OpenBLAS's own thread setting, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_facts() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "blas_threads_env": {k: os.environ[k] for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                                 if k in os.environ}}


def load_cli():
    if not (SRC / "pbrnn" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no pbrnn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from pbrnn import cli
    return cli


def measure(workload: str, seed: int, seconds: float, trace: bool,
            budget: Budget = Budget(), work_root: Path = WORK_ROOT) -> dict:
    """One run: the result object, plus a ``run`` entry with the run facts."""
    cli = load_cli()
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(cli, workload, seed, budget, work)
    try:
        setup_s, setup = bench.set_up()
        passes: list[Pass] = []
        tracer = Tracer() if trace else None
        with PeakRss() as rss:
            if trace:
                passes.append(bench.run_pass(0, setup))
                with tracer.installed():
                    bench.tracer = tracer
                    passes.append(bench.run_pass(1, setup))
                    classified = bench.evaluate(1, passes, setup)
                    bench.tracer = None
            else:
                start = time.perf_counter()
                while True:
                    passes.append(bench.run_pass(len(passes), setup))
                    elapsed = time.perf_counter() - start
                    typical = statistics.median(p.wall_s for p in passes)
                    if elapsed + typical > seconds:
                        break
                classified = bench.evaluate(len(passes) - 1, passes, setup)
        accuracy, loss = bench.check_outputs(passes, setup)
        if trace:
            bench.check_call_counts(tracer, passes[1])
            metrics = per_layer(tracer, passes[1], passes[0], accuracy, loss)
            units = per_layer_units()
        else:
            train_rate = [_ratio(p.train_work, p.train_s) for p in passes] if not setup \
                else [_ratio(setup["work"], setup["train_s"])]
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(p.wall_s for p in passes),
                "train_samples_per_s": statistics.median(train_rate),
                "classify_pixels_per_s": statistics.median(
                    _ratio(p.pixels, p.classify_s) for p in classified),
                "map_accuracy": statistics.fmean(accuracy.values()),
                "peak_rss_mb": rss.peak / 2 ** 20,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    run = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
           "site_seeds": {r: s for r, (_, s) in bench.sites.items()},
           "site_sizes": {r: n for r, (n, _) in bench.sites.items()},
           "budget": asdict(budget), "missing_targets": tracer.missing if trace else [],
           "counter_errors": tracer.counts["counter_errors"] if trace else 0,
           "failures": bench.failures, "machine": machine_facts()}
    return {"correct": not bench.failures, "attempted": bench.attempted,
            "failed": len(bench.failures),
            "metrics": {k: {"value": _finite(v), "unit": units[k]}
                        for k, v in metrics.items()},
            "run": run}


def _finite(value: float):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until about this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    run = result.pop("run")
    print("run " + json.dumps(run, sort_keys=True))
    for failure in run["failures"]:
        print(f"check failed: {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
