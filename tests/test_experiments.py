import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pbrnn import baseline_nets as bn, core_math, experiments as ex, optimizer, sampling as sp
from pbrnn import synthetic as sy
from pbrnn.core_math import make_rng
from pbrnn.errors import ConfigError


class TestSamplerForMode:
    def test_pb_rnn(self):
        cfg = ex.sampler_for_mode("pb-rnn", seq_len=23, bands=8, reference_scene=3,
                                  fusion_dates=(), seed=1)
        assert (cfg.patch_x, cfg.patch_y, cfg.seq_len) == (3, 3, 23)
        assert cfg.scene_indices is None
        assert cfg.input_dim == 72

    def test_pixel_rnn(self):
        cfg = ex.sampler_for_mode("pixel-rnn", seq_len=23, bands=8, reference_scene=0,
                                  fusion_dates=(), seed=1)
        assert cfg.input_dim == 8

    def test_single_pins_reference(self):
        cfg = ex.sampler_for_mode("patch-nn-single", seq_len=23, bands=8,
                                  reference_scene=5, fusion_dates=(), seed=1)
        assert cfg.scene_indices == (5,)
        assert cfg.seq_len == 1

    def test_multi_requires_four_dates(self):
        with pytest.raises(ConfigError):
            ex.sampler_for_mode("pixel-nn-multi", seq_len=23, bands=8,
                                reference_scene=0, fusion_dates=(0, 1), seed=1)

    def test_multi_rejects_repeated_dates(self):
        with pytest.raises(ConfigError, match=r"repeated: \[0\]"):
            ex.sampler_for_mode("pixel-nn-multi", seq_len=23, bands=8,
                                reference_scene=0, fusion_dates=(0, 0, 2, 3), seed=1)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ex.sampler_for_mode("mega-rnn", seq_len=23, bands=8, reference_scene=0,
                                fusion_dates=(), seed=1)


class TestDefaultFusionDates:
    def test_four_distinct_dates_including_reference(self):
        dates = ex.default_fusion_dates(23, 0)
        assert len(dates) == 4
        assert len(set(dates)) == 4
        assert 0 in dates
        assert all(0 <= d < 23 for d in dates)


class TestSubsample:
    def make_labels(self, per_class):
        return np.concatenate([np.full(count, cls) for cls, count in per_class.items()])

    def test_cap_applies_per_class(self):
        labels = self.make_labels({0: 10, 1: 3})
        kept = ex.subsample_per_class(labels, cap=5, seed=1)
        by_class = {}
        for label in labels[kept]:
            by_class[int(label)] = by_class.get(int(label), 0) + 1
        assert by_class == {0: 5, 1: 3}

    def test_zero_cap_keeps_all(self):
        labels = self.make_labels({0: 4})
        assert len(ex.subsample_per_class(labels, cap=0, seed=1)) == 4

    def test_deterministic(self):
        labels = self.make_labels({0: 20})
        a = ex.subsample_per_class(labels, 7, seed=2).tolist()
        b = ex.subsample_per_class(labels, 7, seed=2).tolist()
        assert a == b


@pytest.fixture(scope="module")
def site():
    spec = sy.SyntheticSpec(width=32, height=32, seq_len=5, noise_sigma=0.05,
                            cloud_fraction=0.1, region_blob_scale=8, seed=55)
    series, truth = sy.generate(spec)
    return series, truth


class TestTrainSystemSmoke:
    def quick_settings(self):
        return ex.ExperimentSettings(rnn_epochs=2, ffn_epochs=2, hidden_dim=4,
                                     max_train_per_class=25, max_holdout_per_class=25)

    def test_multi_mode_produces_fusion_model(self, site):
        series, truth = site
        result = ex.train_system("patch-nn-multi", series, truth, 8,
                                 self.quick_settings(), fusion_dates=(0, 1, 2, 4))
        assert isinstance(result.model, bn.FusionEnsemble)
        assert len(result.model.members) == 4
        assert result.report is not None
        assert 0.0 <= result.holdout_accuracy <= 1.0

    def test_default_fusion_dates_used_when_omitted(self, site, monkeypatch):
        series, truth = site
        fitted_dates = []
        fit_model = ex.fit_model

        def fit_model_spy(run, *args):
            fitted_dates.append(run.fusion_dates)
            return fit_model(run, *args)

        monkeypatch.setattr(ex, "fit_model", fit_model_spy)
        result = ex.train_system("pixel-nn-multi", series, truth, 8,
                                 self.quick_settings())
        assert isinstance(result.model, bn.FusionEnsemble)
        assert len(result.model.members) == 4
        assert fitted_dates == [ex.default_fusion_dates(len(series), 0)]

    def test_comparison_table_shape(self, site):
        series, truth = site
        results = {m: ex.train_system(m, series, truth, 8, self.quick_settings())
                   for m in ("pixel-nn-single", "pixel-rnn")}
        table = ex.comparison_table(results, [f"class_{i}" for i in range(8)])
        lines = table.strip().splitlines()
        assert lines[0].split("\t") == ["land_cover_class", "pixel-nn-single", "pixel-rnn"]
        assert len(lines) == 1 + 8 + 5

    def test_training_loss_halves_smoothed_on_synthetic_data(self, site):
        series, truth = site
        settings = ex.ExperimentSettings(rnn_epochs=25, batch_size=32, hidden_dim=8,
                                         max_train_per_class=40,
                                         max_holdout_per_class=25)
        result = ex.train_system("pb-rnn", series, truth, 8, settings)
        smoothed = np.convolve(result.epoch_losses, np.ones(5) / 5, mode="valid")
        assert smoothed[-1] < 0.5 * smoothed[0]
        assert np.all(np.diff(smoothed) < 0.02 * smoothed[0])


class TestRunConfig:
    @pytest.mark.parametrize("mode", ex.MODES)
    def test_the_settings_reach_every_mode(self, site, mode):
        series, _ = site
        settings = ex.ExperimentSettings(rnn_epochs=3, ffn_epochs=5, hidden_dim=6,
                                         max_train_per_class=9, ffn_activation="tanh")
        run = settings.run_config(mode, series, reference_scene=1)
        assert run.sampler == ex.sampler_for_mode(
            mode, seq_len=len(series), bands=series.band_count, reference_scene=1,
            fusion_dates=run.fusion_dates, seed=settings.sampler_seed)
        assert run.train.epochs == (3 if mode in ex.RNN_MODES else 5)
        assert run.train.log_every == 0
        assert (run.hidden_dim, run.ffn_activation, run.max_train_per_class) == (6, "tanh", 9)
        want_dates = ex.default_fusion_dates(len(series), 1) if mode in ex.MULTI_MODES else ()
        assert run.fusion_dates == want_dates

    @pytest.mark.parametrize("dates, message", [((0, 0, 2, 3), "repeated: [0]"),
                                                ((0, 2, 3, 9), "exceed series length 5")])
    def test_run_comparison_checks_every_mode_before_any_fit(self, site, monkeypatch,
                                                             dates, message):
        series, truth = site
        fits = []
        prepare_and_fit = ex.prepare_and_fit

        def prepare_and_fit_spy(run, *args, **kwargs):
            fits.append(run.mode)
            return prepare_and_fit(run, *args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 1)  # serial, so the spy sees every fit
        monkeypatch.setattr(ex, "prepare_and_fit", prepare_and_fit_spy)
        settings = ex.ExperimentSettings(rnn_epochs=1, ffn_epochs=1, hidden_dim=4,
                                         max_train_per_class=10, max_holdout_per_class=10)
        with pytest.raises(ConfigError, match=re.escape(message)):
            ex.run_comparison(series, truth, 8, settings, fusion_dates=dates)
        assert fits == []


class TestPrepareAndFit:
    CAP = 10

    def capped_run(self, series, zero_whole_patch=True):
        sampler = ex.sampler_for_mode("pb-rnn", seq_len=len(series), bands=series.band_count,
                                      reference_scene=0, fusion_dates=(), seed=3)
        return ex.RunConfig(mode="pb-rnn",
                            sampler=replace(sampler, zero_whole_patch=zero_whole_patch),
                            train=optimizer.TrainConfig(batch_size=16, epochs=1, log_every=0),
                            hidden_dim=4, max_train_per_class=self.CAP)

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "partial"])
    def test_fits_the_capped_extracted_training_set(self, site, monkeypatch, whole):
        series, truth = site
        run = self.capped_run(series, zero_whole_patch=whole)
        fitted = {}

        def fit_spy(run, xs, labels, num_classes):
            fitted.update(xs=xs, labels=labels)
            return None, [0.0]

        monkeypatch.setattr(ex, "fit_model", fit_spy)
        ex.prepare_and_fit(run, series, truth, 8, subsample_seed=4)
        train = sp.extract_training_set(series, run.sampler, truth).train
        keep = ex.subsample_per_class(np.array([s.label for s in train]), self.CAP, seed=4)
        xs, labels = optimizer.stack_samples([train[i] for i in keep])
        assert len(keep) < len(train)
        for got, want in ((fitted["xs"], xs), (fitted["labels"], labels)):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    def test_cuts_windows_only_for_the_fitted_samples(self, site, monkeypatch):
        series, truth = site
        cut = []
        assemble = sp.assemble_windows

        def assemble_spy(series, cfg, rows, cols):
            cut.append(rows.size)
            return assemble(series, cfg, rows, cols)

        monkeypatch.setattr(sp, "assemble_windows", assemble_spy)
        _, _, _, fitted = ex.prepare_and_fit(self.capped_run(series), series, truth, 8,
                                             subsample_seed=4)
        assert 0 < fitted <= 8 * self.CAP
        assert cut == [fitted]


def member_by_member(run, xs, labels, num_classes):
    """The serial fusion loop fit_model ran before its members moved to workers:
    the reference the pooled fit must match bit for bit."""
    rng = make_rng(run.init_seed)
    members, losses = [], np.zeros(run.train.epochs)
    for d in range(xs.shape[1]):
        member = bn.init_ffn_params(xs.shape[2], num_classes, rng,
                                    activation=run.ffn_activation)
        result = optimizer.train_arrays(member, xs[:, d:d + 1, :], labels, run.train)
        members.append(result.params)
        losses += np.asarray(result.epoch_losses)
    return members, list(losses / xs.shape[1])


def param_bytes(model):
    if isinstance(model, bn.FusionEnsemble):
        return [bn.ffn_to_flat(member).tobytes() for member in model.members]
    if isinstance(model, bn.FfnParams):
        return [bn.ffn_to_flat(model).tobytes()]
    return [model.to_flat().tobytes()]


def fail_in_reverse(task):
    """Raise for every task; later tasks fail sooner, so the first failure in
    time is the last task's."""
    time.sleep(1 - task)
    raise ValueError(f"task {task} failed")


def own_pid(task):
    return os.getpid()


def nested_pool_pids(task):
    """Call map_in_workers from inside a worker; returns (this pid, the pids
    that ran the inner tasks)."""
    return os.getpid(), core_math.map_in_workers(own_pid, (), [0, 1])


def worker_facts(task):
    """What a worker runs under: its numpy divide setting, its OpenBLAS
    thread count and its pid."""
    get, _ = core_math._openblas_threads()
    return np.geterr()["divide"], get(), os.getpid()


def run_unguarded(tmp_path, body):
    """Run body as a script with no main guard, two CPUs reported, in a
    subprocess that must finish within 120 s; returns its standard output."""
    script = tmp_path / "unguarded.py"
    script.write_text("import os\nos.cpu_count = lambda: 2\n" + body, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(ex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def within(seconds, call):
    """Run call in a thread and require it to return (or raise) in time."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except Exception as exc:  # handed to the test to check
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    return outcome


class TestWorkers:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # two workers even on a one-CPU machine, so every test here uses the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode, input_dim", [("patch-nn-multi", 72),
                                                 ("pixel-nn-multi", 8)])
    def test_pooled_members_match_the_serial_loop(self, site, mode, input_dim):
        series, truth = site
        dates = (0, 1, 2, 4)
        sampler = ex.sampler_for_mode(mode, seq_len=len(series), bands=series.band_count,
                                      reference_scene=0, fusion_dates=dates, seed=3)
        run = ex.RunConfig(mode=mode, sampler=sampler, fusion_dates=dates, init_seed=5,
                           train=optimizer.TrainConfig(batch_size=16, epochs=3,
                                                       shuffle_seed=6, log_every=0,
                                                       learning_rate=3e-3))
        centres = sp.training_centres(series, sampler, truth)[0]
        xs, labels = ex.capped_windows(series, sampler, centres, 30, seed=7)
        assert xs.shape[1:] == (4, input_dim)
        model, losses = ex.fit_model(run, xs, labels, 8)
        members, want_losses = member_by_member(run, xs, labels, 8)
        assert param_bytes(model) == [bn.ffn_to_flat(m).tobytes() for m in members]
        assert np.array(losses).tobytes() == np.array(want_losses).tobytes()

    def test_pooled_comparison_matches_serial_train_system(self, site):
        series, truth = site
        settings = ex.ExperimentSettings(rnn_epochs=2, ffn_epochs=2, hidden_dim=4,
                                         max_train_per_class=25, max_holdout_per_class=25)
        modes = ("patch-nn-multi", "pixel-rnn")
        pooled = ex.run_comparison(series, truth, 8, settings, modes=modes)
        assert list(pooled) == list(modes)
        for mode in modes:
            serial = ex.train_system(mode, series, truth, 8, settings)
            assert param_bytes(pooled[mode].model) == param_bytes(serial.model)
            assert pooled[mode].epoch_losses == serial.epoch_losses
            assert pooled[mode].holdout_accuracy == serial.holdout_accuracy

    def test_first_failed_task_in_order_is_raised(self):
        with pytest.raises(ValueError, match="task 0 failed"):
            core_math.map_in_workers(fail_in_reverse, (), [0, 1])

    def test_a_worker_runs_nested_tasks_itself(self):
        for outer, inner in core_math.map_in_workers(nested_pool_pids, (), [0, 1]):
            assert outer != os.getpid()
            assert inner == [outer, outer]

    def test_a_dead_worker_is_an_error_not_a_hang(self):
        outcome = within(60, lambda: core_math.map_in_workers(os._exit, (), [3, 3]))
        assert isinstance(outcome.get("error"), BrokenProcessPool)

    def test_workers_inherit_the_callers_error_state_and_one_blas_thread(self):
        blas = core_math._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        get, set_ = blas
        before = get()
        set_(2)
        try:
            with np.errstate(divide="ignore"):
                facts = core_math.map_in_workers(worker_facts, (), [0, 1])
            assert get() == 2
        finally:
            set_(before)
        for divide, threads, pid in facts:
            assert (divide, threads) == ("ignore", 1)
            assert pid != os.getpid()

    def test_an_unguarded_script_with_a_large_shared_array_finishes(self, tmp_path):
        out = run_unguarded(tmp_path, (
            "import operator\nimport numpy as np\nfrom pbrnn import core_math\n"
            "sums = core_math.map_in_workers(operator.add, (np.zeros(100_000),), [1, 2])\n"
            "print([float(s.sum()) for s in sums])\n"))
        assert out.splitlines() == ["[100000.0, 200000.0]"]

    def test_an_unguarded_comparison_on_a_128_pixel_site_finishes(self, tmp_path):
        # the site's uint16 series is 1.5 MB, well above the 800 KB that hung a spawn pool
        spec = sy.SyntheticSpec(width=128, height=128, seq_len=6, seed=3)
        settings = ex.ExperimentSettings(rnn_epochs=1, ffn_epochs=1, hidden_dim=4,
                                         max_train_per_class=10, max_holdout_per_class=10)
        modes = ("pixel-rnn", "patch-nn-multi")
        out = run_unguarded(tmp_path, (
            "from pbrnn.experiments import ExperimentSettings, run_comparison\n"
            "from pbrnn.synthetic import SyntheticSpec, generate\n"
            f"series, truth = generate({spec!r})\n"
            f"results = run_comparison(series, truth, 8, {settings!r}, modes={modes!r})\n"
            "for result in results.values():\n"
            "    print(result.mode, result.holdout_accuracy, *result.epoch_losses)\n"))
        series, truth = sy.generate(spec)
        for line, mode in zip(out.splitlines(), modes, strict=True):
            serial = ex.train_system(mode, series, truth, 8, settings)
            assert line == " ".join(map(str, (mode, serial.holdout_accuracy,
                                              *serial.epoch_losses)))
