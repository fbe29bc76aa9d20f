"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder replaces each traced public function with a wrapper at every
module attribute through which the program looks it up (for example both
``ttfusion.fusion.to_grayscale`` and ``ttfusion.toy_encoder.to_grayscale``),
so no file under ``src/`` carries tracing code.  Spans stay in memory as
(name, start, end, parent, command) and are written out once at the end.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from collections import Counter, defaultdict

# Span name -> the (module, attribute) bindings callers resolve it through.
BINDINGS = {
    "cli.main": [("ttfusion.cli", "main")],
    "experiment.run_experiment": [("ttfusion.experiment", "run_experiment")],
    "experiment.run_sweep": [("ttfusion.experiment", "run_sweep")],
    "experiment.write_run_outputs": [("ttfusion.experiment", "write_run_outputs")],
    "experiment.replay_run_dir": [("ttfusion.experiment", "replay_run_dir")],
    "frames.load_frame": [("ttfusion.experiment", "load_frame")],
    "frames.to_grayscale": [
        ("ttfusion.frames", "to_grayscale"),
        ("ttfusion.fusion", "to_grayscale"),
        ("ttfusion.toy_encoder", "to_grayscale"),
    ],
    "synthetic.generate_frames": [("ttfusion.experiment", "generate_frames")],
    "prng.float_block": [("ttfusion.prng", "SplitMix64.float_block")],
    "toy_encoder.encode": [("ttfusion.toy_encoder", "encode"), ("ttfusion.experiment", "encode")],
    "toy_encoder.synth_attention": [("ttfusion.toy_encoder", "synth_attention")],
    "detection.pixel_diff": [("ttfusion.detection", "pixel_diff")],
    "detection.relevance_scores": [("ttfusion.detection", "relevance_scores")],
    "detection.top_k_mask": [("ttfusion.detection", "top_k_mask")],
    "detection.rate_target_mask": [("ttfusion.detection", "rate_target_mask")],
    "fusion.run_sequence": [("ttfusion.experiment", "run_sequence")],
    "fusion.step": [("ttfusion.fusion", "step")],
    "fusion.fuse_tokens": [("ttfusion.fusion", "fuse_tokens")],
    "projection.verify_equivalence": [("ttfusion.experiment", "verify_equivalence")],
    "projection.project_selective": [("ttfusion.projection", "project_selective")],
    "projection.project_full": [("ttfusion.projection", "project_full")],
    "report.build_report": [("ttfusion.experiment", "build_report")],
    "report.write_report": [("ttfusion.experiment", "write_report")],
    "report.load_report": [("ttfusion.experiment", "load_report")],
    "tensor_io.write_tensor": [("ttfusion.experiment", "write_tensor")],
    "tensor_io.read_tensor": [("ttfusion.experiment", "read_tensor")],
}

STEP = "fusion.step"


def _count_step(counts: Counter, result) -> None:
    step = result[0]
    n = len(step.fusion_mask)
    recomputed = int(step.fusion_mask.sum())
    counts["kept_rows"] += recomputed
    if not step.is_keyframe:
        counts["non_keyframe_patches"] += n
        counts["reused_patches"] += n - recomputed
        counts["pixel_flags"] += int(step.pixel_mask.sum())
        counts["attention_flags"] += int(step.attention_mask.sum())


def _count_retained(counts: Counter, sequence) -> None:
    for step in sequence.steps:
        arrays = (step.fused_tokens.values, step.pixel_mask, step.attention_mask,
                  step.fusion_mask, step.diffs)
        counts["retained_bytes"] += sum(a.nbytes for a in arrays)


# Span name -> hook(counts, result, args) run after the call returns.
HOOKS = {
    "toy_encoder.encode": lambda c, r, a: c.update(encoded_rows=r.values.shape[0]),
    "projection.project_full": lambda c, r, a: c.update(projected_rows=r.shape[0]),
    "projection.verify_equivalence": lambda c, r, a: c.update(
        verified_frames=len(r), saved_mults=sum(x.saved_multiplications for x in r)
    ),
    "fusion.step": lambda c, r, a: _count_step(c, r),
    "fusion.run_sequence": lambda c, r, a: _count_retained(c, r),
    "report.write_report": lambda c, r, a: c.update(report_bytes=os.path.getsize(a[0])),
    "tensor_io.write_tensor": lambda c, r, a: c.update(tensor_bytes=os.path.getsize(a[0])),
    "tensor_io.read_tensor": lambda c, r, a: c.update(tensor_bytes=os.path.getsize(a[0])),
}


def _resolve(module_name: str, attribute: str):
    """(owner object, attribute name) of a binding, or None if it is gone."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, leaf):
        return None
    return owner, leaf


class Tracer:
    """Records spans of the traced functions between install() and uninstall().

    With ``full`` false only ``fusion.step`` is wrapped and no counts are
    taken: that is the untraced run, which needs step latencies only.
    """

    def __init__(self, full: bool):
        self.names = list(BINDINGS) if full else [STEP]
        self.full = full
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._command = -1
        self._saved: list[tuple] = []
        # Bindings a later version of the program dropped; their layers report 0.
        self.missing = [
            f"{module}.{attribute}"
            for name in self.names
            for module, attribute in BINDINGS[name]
            if _resolve(module, attribute) is None
        ]

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name) if self.full else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._command)
            if hook is not None:
                hook(counts, result, args)
            return result

        return traced

    def install(self, command: int) -> None:
        self._command = command
        for name in self.names:
            wrappers = {}
            for module, attribute in BINDINGS[name]:
                resolved = _resolve(module, attribute)
                if resolved is None:
                    continue
                owner, leaf = resolved
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "command"])
            writer.writerows(self.spans)


class SpanTotals:
    """Per-name call counts, total seconds and self seconds of a span list."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_: defaultdict = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_[name] += end - start - child[index]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, frames: int, commands: int) -> dict:
    """Per-layer metrics of the traced commands.

    ``frames`` counts episode frames over all traced commands: a sweep
    processes each frame once per sweep point, so its per-frame counts
    include every point.  ``projection.*`` metrics are per verified frame
    (a frame passed through verify_equivalence).  Times are self times,
    except verify, write_outputs and the report and tensor_io calls,
    which are whole spans.  Layers a workload never calls report 0.
    """
    t = SpanTotals(tracer.spans)
    c = tracer.counts
    verified = c["verified_frames"]
    ms = 1000.0

    def per_frame(seconds: float) -> float:
        return _ratio(seconds * ms, frames)

    def per_call(name: str, seconds: float) -> float:
        return _ratio(seconds * ms, t.calls[name])

    select = sum(t.self_[n] for n in ("detection.relevance_scores", "detection.top_k_mask",
                                      "detection.rate_target_mask"))
    return {
        "frames.grayscale_calls_per_frame": (_ratio(t.calls["frames.to_grayscale"], frames), "count"),
        "frames.grayscale_ms_per_frame": (per_frame(t.self_["frames.to_grayscale"]), "ms"),
        "frames.load_ms_per_frame": (per_frame(t.self_["frames.load_frame"]), "ms"),
        "synthetic.generate_ms_per_frame": (per_frame(t.self_["synthetic.generate_frames"]), "ms"),
        "prng.float_block_ms_per_frame": (per_frame(t.self_["prng.float_block"]), "ms"),
        "toy_encoder.encode_ms_per_frame": (per_frame(t.self_["toy_encoder.encode"]), "ms"),
        "toy_encoder.attention_ms_per_frame": (per_frame(t.self_["toy_encoder.synth_attention"]), "ms"),
        "toy_encoder.encode_calls_per_frame": (_ratio(t.calls["toy_encoder.encode"], frames), "count"),
        "toy_encoder.encoded_rows_per_frame": (_ratio(c["encoded_rows"], frames), "count"),
        "toy_encoder.kept_row_share": (_ratio(c["kept_rows"], c["encoded_rows"]), "ratio"),
        "detection.pixel_diff_ms_per_frame": (per_frame(t.self_["detection.pixel_diff"]), "ms"),
        "detection.select_ms_per_frame": (per_frame(select), "ms"),
        "detection.pixel_flag_share": (_ratio(c["pixel_flags"], c["non_keyframe_patches"]), "ratio"),
        "detection.attention_flag_share": (
            _ratio(c["attention_flags"], c["non_keyframe_patches"]), "ratio"),
        "fusion.step_self_ms": (per_call(STEP, t.self_[STEP]), "ms"),
        "fusion.fuse_ms_per_frame": (per_frame(t.self_["fusion.fuse_tokens"]), "ms"),
        "fusion.reuse_share": (_ratio(c["reused_patches"], c["non_keyframe_patches"]), "ratio"),
        "fusion.retained_mb": (_ratio(c["retained_bytes"], commands) / 1e6, "MB"),
        "projection.verify_ms_per_frame": (
            _ratio(t.total["projection.verify_equivalence"] * ms, verified), "ms"),
        "projection.project_full_calls_per_frame": (
            _ratio(t.calls["projection.project_full"], verified), "count"),
        "projection.projected_rows_per_frame": (_ratio(c["projected_rows"], verified), "count"),
        "projection.project_full_ms_per_frame": (
            _ratio(t.self_["projection.project_full"] * ms, verified), "ms"),
        "projection.saved_mults_per_frame": (_ratio(c["saved_mults"], verified), "count"),
        "report.build_ms": (per_call("report.build_report", t.total["report.build_report"]), "ms"),
        "report.write_ms": (per_call("report.write_report", t.total["report.write_report"]), "ms"),
        "report.load_ms": (per_call("report.load_report", t.total["report.load_report"]), "ms"),
        "report.bytes": (_ratio(c["report_bytes"], t.calls["report.write_report"]), "bytes"),
        "tensor_io.write_ms_per_frame": (per_frame(t.total["tensor_io.write_tensor"]), "ms"),
        "tensor_io.read_ms_per_frame": (per_frame(t.total["tensor_io.read_tensor"]), "ms"),
        "tensor_io.bytes_per_frame": (_ratio(c["tensor_bytes"], frames), "bytes"),
        "experiment.run_experiment_self_ms": (
            per_call("experiment.run_experiment", t.self_["experiment.run_experiment"]), "ms"),
        "experiment.write_outputs_ms": (
            per_call("experiment.write_run_outputs", t.total["experiment.write_run_outputs"]), "ms"),
        "experiment.replay_self_ms": (
            per_call("experiment.replay_run_dir", t.self_["experiment.replay_run_dir"]), "ms"),
        "cli.self_ms": (per_call("cli.main", t.self_["cli.main"]), "ms"),
    }

