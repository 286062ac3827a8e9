"""In-memory spans around the public calls of tbcalib, recorded from outside.

`Tracer.install()` replaces the module and class attributes listed in
`TRACED` with wrappers that record one span per call: name, start, end and
the index of the enclosing span.  Library code calls its collaborators
through those attributes (`ops.conv3d_forward`, `calibration.resample`,
`ndimage.label`, ...), so nested calls are caught without any hook inside
`src/`.  `Tracer.uninstall()` restores the originals.  Spans stay in memory
until `summary()` / `export()` at the end of a run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
import scipy.ndimage

import tbcalib.calibration
import tbcalib.nn.checkpoint
import tbcalib.nn.layers
import tbcalib.nn.network
import tbcalib.nn.ops
import tbcalib.nn.optim
import tbcalib.phantom
import tbcalib.segment
import tbcalib.train

LAYER_TYPES = ("Conv3d", "ConvTranspose3d", "BatchNorm3d", "ReLU", "Sigmoid",
               "MaxPool3d", "AvgPool3d")


# -- computed work counts ------------------------------------------------------
# FLOPs count one multiply and one add per multiply-accumulate.  Bytes are the
# computed minimum traffic: every operand read once and every result written
# once, from the array shapes; the padded copies and strided tap views of the
# implementation move more than that.

def _conv_work(args, _kwargs, result):
    x, w = args[0], args[1]
    macs = w.size * int(np.prod(result.shape[1:]))
    return {"flop": 2.0 * macs, "bytes": float(x.nbytes + w.nbytes + result.nbytes)}


def _conv_backward_work(args, _kwargs, result):
    x, w, gy = args[0], args[1], args[2]
    macs = w.size * int(np.prod(gy.shape[1:]))  # grad_x and grad_w each cost a forward
    return {"flop": 4.0 * macs,
            "bytes": float(x.nbytes + w.nbytes + gy.nbytes + result[0].nbytes + result[1].nbytes)}


def _convt_work(args, _kwargs, result):
    x, w = args[0], args[1]
    macs = w.size * int(np.prod(x.shape[1:]))
    return {"flop": 2.0 * macs, "bytes": float(x.nbytes + w.nbytes + result.nbytes)}


def _convt_backward_work(args, _kwargs, result):
    x, w, gy = args[0], args[1], args[2]
    macs = w.size * int(np.prod(x.shape[1:]))
    return {"flop": 4.0 * macs,
            "bytes": float(x.nbytes + w.nbytes + gy.nbytes + result[0].nbytes + result[1].nbytes)}


def _refine_iterations(_args, _kwargs, result):
    return {"iterations": result[2]["iterations"]}


# (owner object, attribute, span name, work counter or None)
TRACED = [
    (tbcalib.phantom, "generate_phantom", "phantom.generate_phantom", None),
    (tbcalib.train, "sample_training_pair", "phantom.sample_training_pair", None),
    (tbcalib.segment, "threshold_segment", "segment.threshold_segment", None),
    (tbcalib.segment, "sliding_window_infer", "segment.sliding_window_infer", None),
    (tbcalib.segment, "keep_largest_components", "segment.keep_largest_components", None),
    (tbcalib.segment, "normalize_intensity", "volume.normalize_intensity", None),
    (scipy.ndimage, "label", "scipy.ndimage.label", None),
    (tbcalib.calibration, "calibrate", "calibration.calibrate", None),
    (tbcalib.calibration, "split_components", "calibration.split_components", None),
    (tbcalib.calibration, "refine_sagittal", "calibration.refine_sagittal", _refine_iterations),
    (tbcalib.calibration, "fit_lsc_plane", "calibration.fit_lsc_plane", None),
    (tbcalib.calibration, "resample", "calibration.resample", None),
    (tbcalib.calibration, "rank_result", "calibration.rank_result", None),
    (tbcalib.train, "train_network", "train.train_network", None),
    (tbcalib.train, "joint_loss", "losses.joint_loss", None),
    (tbcalib.nn.optim.Adam, "step", "nn.optim.Adam.step", None),
    (tbcalib.nn.checkpoint, "load_checkpoint", "nn.checkpoint.load_checkpoint", None),
    (tbcalib.nn.network.MFFNet, "forward", "nn.network.MFFNet.forward", None),
    (tbcalib.nn.network.MFFNet, "backward", "nn.network.MFFNet.backward", None),
    (tbcalib.nn.ops, "conv3d_forward", "nn.ops.conv3d_forward", _conv_work),
    (tbcalib.nn.ops, "conv3d_backward", "nn.ops.conv3d_backward", _conv_backward_work),
    (tbcalib.nn.ops, "conv_transpose3d_forward", "nn.ops.conv_transpose3d_forward", _convt_work),
    (tbcalib.nn.ops, "conv_transpose3d_backward", "nn.ops.conv_transpose3d_backward",
     _convt_backward_work),
    (tbcalib.nn.ops, "batchnorm_forward", "nn.ops.batchnorm_forward", None),
    (tbcalib.nn.ops, "batchnorm_backward", "nn.ops.batchnorm_backward", None),
] + [
    (getattr(tbcalib.nn.layers, cls), method, f"nn.layers.{cls}.{method}", None)
    for cls in LAYER_TYPES for method in ("forward", "backward")
]

# Spans whose work happens during set-up rather than in a timed operation.
SETUP_SPANS = ("phantom.generate_phantom", "nn.checkpoint.load_checkpoint")


class Tracer:
    """Collects spans as [name, start, end, parent index, work counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, counter in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def top_level_seconds(self, since: int = 0) -> float:
        """Wall time covered by root spans recorded at index >= since."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[3] == -1)

    def summary(self, since: int = 0, until: int | None = None):
        """Per span name over spans[since:until]: calls, total_s, self_s and
        the summed work counts.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.  No
        traced function calls itself, so total_s counts no time twice.
        """
        spans = self.spans[since:until]
        child = defaultdict(float)
        for s in spans:
            if s[3] >= since:
                child[s[3]] += s[2] - s[1]
        out = {}
        for i, s in enumerate(spans, start=since):
            d = s[2] - s[1]
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - child[i]
            for key, value in (s[4] or {}).items():
                row[key] = row.get(key, 0.0) + value
        return out

    def layer_table(self, since: int = 0):
        """Per layer type and direction: calls and self seconds per call.

        Only the seven primitive layer types are traced, and none of them
        calls another layer, so a layer's self time is its whole span: the
        op it calls counts as its own.
        """
        rows = {}
        for s in self.spans[since:]:
            if s[0].startswith("nn.layers."):
                row = rows.setdefault(s[0][len("nn.layers."):], {"calls": 0, "self_s": 0.0})
                row["calls"] += 1
                row["self_s"] += s[2] - s[1]
        for row in rows.values():
            row["self_s_per_call"] = row["self_s"] / row["calls"]
        return rows

    def export(self):
        """Spans as plain lists for a JSON file: [name, start, end, parent(, work)],
        times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]] + ([s[4]] if s[4] else [])
                for s in self.spans]

