"""Span tracer for the per-layer run of the benchmark.

Each traced function is replaced, for the length of one pass, at the module or
class attribute its callers look up at call time: ``optimizer`` calls
``recurrent_nets.forward_batch``, ``forward_batch`` looks up ``_step_kernel``
and ``sigmoid`` in its own module's globals, and so on. Nothing inside the
package is edited. A target that no longer exists is reported as missing and
skipped, so a refactor that removes a function does not crash the run.

A span is ``[name, start, end, parent, stage]``: the parent is the index of the
enclosing span (-1 at top level) and the stage names the command the benchmark
was running. Spans stay in memory; ``summary`` reduces them at the end.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _shapes_error_safe(counter):
    """A counter reads argument and result shapes; if a refactor changed them,
    the counter records nothing rather than failing the pass."""
    def safe(tracer, args, result):
        try:
            counter(tracer, args, result)
        except (AttributeError, TypeError, ValueError, IndexError):
            tracer.counts["counter_errors"] += 1
    return safe


def _array_bytes(value) -> int:
    """Bytes held by the ndarrays of a result object or tuple."""
    items = value if isinstance(value, tuple) else vars(value).values()
    return sum(a.nbytes for a in items if isinstance(a, np.ndarray))


@_shapes_error_safe
def _count_lstm_forward(tracer, args, result):
    params, xs = args[0], args[1]
    bsz, n, d = xs.shape
    h, k = params.hidden_dim, params.num_classes
    tracer.counts["forward_rows"] += bsz
    # matmul flops: per step x·Wxᵀ and h·Whᵀ into 4H gates, then the output layer
    tracer.counts["forward_flops"] += n * 2 * bsz * 4 * h * (d + h) + 2 * bsz * h * k
    tracer.counts["forward_trace_bytes"] += _array_bytes(result)


@_shapes_error_safe
def _count_lstm_backward(tracer, args, result):
    params, trace = args[0], args[1]
    n, bsz, h = trace.cell.shape
    d, k = params.input_dim, params.num_classes
    # per step dWx, dWh and dh GEMMs over the 4H gate block, then the output layer
    tracer.counts["backward_flops"] += n * 2 * bsz * 4 * h * (d + 2 * h) + 4 * bsz * h * k


@_shapes_error_safe
def _count_elements(tracer, args, result):
    tracer.counts["sigmoid_elements"] += np.size(args[0])


@_shapes_error_safe
def _count_assembled(tracer, args, result):
    tracer.counts["assembled_samples"] += len(result.train) + len(result.holdout)


@_shapes_error_safe
def _count_plane_bytes(tracer, args, result):
    tracer.counts["patch_plane_bytes"] += result.nbytes


@_shapes_error_safe
def _count_clear_windows(tracer, args, result):
    if tracer.inside("sampling.classify_map"):
        tracer.counts["classify_windows"] += result.size
        tracer.counts["classify_clear_windows"] += result.size - np.count_nonzero(result)


# (span name, module under pbrnn, attribute path in that module, counter)
TARGETS = (
    ("recurrent_nets.forward_batch", "recurrent_nets", "forward_batch", _count_lstm_forward),
    ("recurrent_nets._step_kernel", "recurrent_nets", "_step_kernel", None),
    ("recurrent_nets.backward_batch", "recurrent_nets", "backward_batch", _count_lstm_backward),
    ("core_math.sigmoid", "recurrent_nets", "sigmoid", _count_elements),
    ("core_math.sigmoid", "baseline_nets", "sigmoid", _count_elements),
    ("optimizer.train_arrays", "optimizer", "train_arrays", None),
    ("optimizer.adam_update", "optimizer", "adam_update", None),
    ("optimizer.param_flatten", "recurrent_nets", "LstmParams.from_flat", None),
    ("optimizer.param_flatten", "recurrent_nets", "LstmParams.to_flat", None),
    ("optimizer.param_flatten", "recurrent_nets", "LstmGradients.to_flat", None),
    ("optimizer.param_flatten", "baseline_nets", "ffn_from_flat", None),
    ("optimizer.param_flatten", "baseline_nets", "FfnGradients.to_flat", None),
    ("optimizer.stack_samples", "optimizer", "stack_samples", None),
    ("baseline_nets.ffn_forward_batch", "baseline_nets", "ffn_forward_batch", None),
    ("baseline_nets.ffn_backward_batch", "baseline_nets", "ffn_backward_batch", None),
    ("sampling.extract_training_set", "sampling", "extract_training_set", _count_assembled),
    ("sampling._patch_plane", "sampling", "_patch_plane", _count_plane_bytes),
    ("sampling._window_contaminated", "sampling", "_window_contaminated",
     _count_clear_windows),
    ("sampling.classify_map", "sampling", "classify_map", None),
    ("raster_data.load_series", "raster_data", "load_series", None),
    ("raster_data.read_scene", "raster_data", "read_scene", None),
    ("raster_data.dn_to_toa", "raster_data", "dn_to_toa", None),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint", None),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", None),
    ("assessment.build_error_matrix", "assessment", "build_error_matrix", None),
    ("assessment.full_report", "assessment", "full_report", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.stage = ""
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.stage])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if counter is not None:
                counter(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, path, counter in TARGETS:
            label = f"pbrnn.{module_name}.{path}"
            try:
                owner = importlib.import_module(f"pbrnn.{module_name}")
            except ImportError:
                self.missing.append(label)
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(label)
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                replacement = self._wrap(name, raw, counter)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def calls(self, name: str, stage: str | None = None) -> int:
        return sum(1 for s in self.spans
                   if s[0] == name and (stage is None or s[4] == stage))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds ``s`` and ``self_s``.

        ``s`` counts only the outermost span of a name, so a function that
        reaches itself through another wrapped call is not counted twice.
        ``self_s`` is the span's duration minus that of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _stage) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return out
