"""Span tracing of pitchbench from outside the package.

Public functions are replaced, for the duration of a traced call, by
wrappers installed under the name the *calling* module looks up (for
example ``pitchbench.cli.read_wav``, not ``pitchbench.trackio.read_wav``),
so no file of the package changes. Each wrapper records a span (name,
start, end, parent) in memory and may derive counts from the call's
arguments and return value. A hooked name that the package no longer
has is reported as absent instead of failing.

``LAYERS`` maps every per-layer metric to the end-to-end metric it
should move and the workload on which it should move it; ``layer_metrics``
turns the spans of traced ``compare`` runs into those metrics.
"""
from __future__ import annotations

import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    span_id: int
    parent_id: int  # -1 for a root
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Spans kept in memory, with a stack giving each span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []  # hooked names the package lacks
        self.uncounted: set[str] = set()  # hooks whose counts no longer fit
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else -1
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # closed out of order: drop it and whatever it left open
            while self._stack and self._stack.pop() is not span:
                pass

    def wrap(self, module, attr: str, span_name: str | None, count: Callable | None = None,
             bind: bool = False) -> None:
        """Replace ``module.attr`` by a traced wrapper. ``count`` receives
        (counts, arguments, result); with ``bind`` the arguments are bound
        to parameter names, otherwise they are the positional tuple. With
        no ``span_name`` the wrapper only counts."""
        target = getattr(module, attr, None)
        if target is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(target) if bind else None
        qualified = f"{module.__name__}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            if span_name is None:
                result = target(*args, **kwargs)
            else:
                span = tracer.open(span_name)
                try:
                    result = target(*args, **kwargs)
                finally:
                    tracer.close(span)
            if count is not None and qualified not in tracer.uncounted:
                try:
                    arguments = signature.bind(*args, **kwargs).arguments if bind else args
                    count(tracer.counts, arguments, result)
                except (TypeError, KeyError, AttributeError, IndexError):
                    tracer.uncounted.add(qualified)
            return result

        traced.__wrapped__ = target
        setattr(module, attr, traced)
        self._undo.append((module, attr, target))

    def wrap_pool(self, module, attr: str, span_name: str) -> None:
        """Replace an executor class by a subclass that counts instances
        and records one span from construction to shutdown."""
        base = getattr(module, attr, None)
        if not isinstance(base, type):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.counts["cli.pools"] += 1
                self._bench_span = tracer.open(span_name)
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._bench_span is not None:
                        tracer.close(self._bench_span)
                        self._bench_span = None

        setattr(module, attr, TracedPool)
        self._undo.append((module, attr, base))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Hooks: which names are wrapped, under which span, with which counts
# ---------------------------------------------------------------------------

def _lag_samples(counts, a, curve):
    # work as sample-lag products: frame length times lags computed
    counts["signal.lag_curve_calls"] += 1
    counts["signal.lag_curve_samples"] += len(a["frame"]) * curve.values.size


def _pyin_candidates(counts, _a, result):
    counts["pyin.candidate_frames"] += 1
    counts["pyin.candidates"] += len(result)


def _pyin_viterbi(counts, a, _result):
    counts["pyin.frames"] += len(a["candidate_sets"])


def _nlfer(counts, a, result):
    counts["yaapt.nlfer_frames"] += result.size
    counts["yaapt.nlfer_gated"] += int((result >= a["config"].nlfer_threshold).sum())


def _nccf_candidates(counts, _a, result):
    counts["yaapt.candidate_frames"] += len(result)
    counts["yaapt.candidates"] += sum(len(c) for c in result)


def _dp(counts, a, _result):
    states = [len(c) + 1 for c in a["candidates"]]
    counts["yaapt.dp_transitions"] += sum(p * q for p, q in zip(states, states[1:]))


def _track_read(counts, _a, track):
    counts["trackio.track_reads"] += 1
    counts["trackio.track_frames"] += len(track)


def _ref_read(counts, a, track):
    _track_read(counts, a, track)
    counts["trackio.ref_reads"] += 1


def _scored(counts, _a, stats):
    counts["metrics.frames_scored"] += stats.total_frames


def _calls(key):
    def count(counts, _a, _result):
        counts[key] += 1
    return count


# (module, attribute, span name, count, bind)
HOOKS = [
    ("pitchbench.cli", "read_wav", "trackio.read_wav", _calls("trackio.read_wav_calls"), False),
    ("pitchbench.cli", "read_reference_track", "trackio.read_track", _ref_read, False),
    ("pitchbench.cli", "read_external_track", "trackio.read_track", _track_read, False),
    ("pitchbench.cli", "write_track", "trackio.write_track", _calls("trackio.write_calls"), False),
    ("pitchbench.cli", "pyin_track", "pyin.track", None, False),
    ("pitchbench.cli", "yaapt_track", "yaapt.track", None, False),
    ("pitchbench.cli", "evaluate_pair", "metrics.evaluate_pair", _scored, False),
    ("pitchbench.cli", "aggregate", "metrics.aggregate", None, False),
    ("pitchbench.pyin", "frame_signal", "signal.frame_signal", None, False),
    ("pitchbench.pyin", "yin_difference", "signal.lag_curve", _lag_samples, True),
    ("pitchbench.pyin", "cmnd", "signal.lag_curve", None, False),
    ("pitchbench.pyin", "pyin_candidates", "pyin.candidates", _pyin_candidates, False),
    ("pitchbench.pyin", "pyin_viterbi", "pyin.viterbi", _pyin_viterbi, True),
    ("pitchbench.yaapt", "yaapt_preprocess", "yaapt.preprocess", None, False),
    ("pitchbench.yaapt", "bandpass_filter", "signal.bandpass", _calls("signal.bandpass_calls"), False),
    ("pitchbench.yaapt", "frame_signal", "signal.frame_signal", None, False),
    # NLFER is part of the spectral stage, which has no public entry of its
    # own; counted, but its time stays in yaapt.track's self time
    ("pitchbench.yaapt", "compute_nlfer", None, _nlfer, True),
    ("pitchbench.yaapt", "nccf_candidates", "yaapt.nccf_candidates", _nccf_candidates, False),
    ("pitchbench.yaapt", "nccf", "signal.lag_curve", _lag_samples, True),
    ("pitchbench.yaapt", "yaapt_dp_select", "yaapt.dp", _dp, True),
]
POOL_HOOK = ("pitchbench.cli", "ProcessPoolExecutor", "cli.pool")


def install(tracer: Tracer, modules: dict, engines: bool = True, pool: bool = True) -> None:
    """Install the engine/scoring hooks and/or the executor hook; hooks
    on a module missing from ``modules`` are absent."""
    if engines:
        for mod, attr, span_name, count, bind in HOOKS:
            if mod in modules:
                tracer.wrap(modules[mod], attr, span_name, count, bind)
            else:
                tracer.absent.append(f"{mod}.{attr}")
    if pool:
        mod, attr, span_name = POOL_HOOK
        tracer.wrap_pool(modules[mod], attr, span_name)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better, end-to-end metric it should move, workload)
LAYERS = {
    "trackio.read_wav_s": ("s", "lower", "compare_rtf", "corpus-16k-parallel (not external-scoring)"),
    "trackio.read_wav_calls_per_utt": ("count", "lower", "compare_rtf", "corpus-16k-parallel (not external-scoring)"),
    "trackio.read_track_s": ("s", "lower", "compare_rtf, op_p50_ms", "external-scoring (barely the engine workloads)"),
    "trackio.ref_reads_per_utt": ("count", "lower", "compare_rtf, op_p50_ms", "external-scoring"),
    "trackio.track_frames_parsed_per_s": ("1/s", "higher", "compare_rtf, op_p50_ms", "external-scoring"),
    "trackio.write_track_s": ("s", "lower", "op_p50_ms", "engine workloads (not external-scoring)"),
    "signal.bandpass_s": ("s", "lower", "compare_rtf", "corpus-48k (smaller share at 16 kHz)"),
    "signal.bandpass_calls": ("count", "lower", "compare_rtf", "corpus-48k"),
    "signal.frame_signal_s": ("s", "lower", "compare_rtf", "both engine workloads"),
    "signal.lag_curve_s": ("s", "lower", "compare_rtf", "corpus-48k per call; corpus-16k-parallel per-call overhead"),
    "signal.lag_curve_calls": ("count", "lower", "compare_rtf", "corpus-16k-parallel"),
    "signal.lag_curve_samples": ("count", "lower", "compare_rtf", "corpus-48k"),
    "pyin.track_self_s": ("s", "lower", "compare_rtf", "both engine workloads"),
    "pyin.candidates_self_s": ("s", "lower", "compare_rtf, op_p50_ms", "corpus-16k-parallel most, corpus-48k less"),
    "pyin.candidates_per_frame": ("count", "lower", "compare_rtf, op_p50_ms", "corpus-16k-parallel"),
    "pyin.viterbi_s": ("s", "lower", "compare_rtf", "both engine workloads"),
    "pyin.frames": ("count", "lower", "compare_rtf", "both engine workloads"),
    "yaapt.preprocess_self_s": ("s", "lower", "compare_rtf", "corpus-48k"),
    "yaapt.track_self_s": ("s", "lower", "compare_rtf", "corpus-48k > corpus-16k-parallel"),
    "yaapt.nlfer_gated_share": ("ratio", "lower", "compare_rtf", "corpus-48k > corpus-16k-parallel"),
    "yaapt.nccf_candidates_self_s": ("s", "lower", "compare_rtf, op_p90_ms", "both engine workloads"),
    "yaapt.candidates_per_frame": ("count", "lower", "compare_rtf, op_p90_ms", "both engine workloads"),
    "yaapt.dp_s": ("s", "lower", "compare_rtf", "both engine workloads"),
    "yaapt.dp_transitions": ("count", "lower", "compare_rtf", "both engine workloads"),
    "metrics.evaluate_pair_s": ("s", "lower", "compare_rtf", "external-scoring"),
    "metrics.frames_scored": ("count", "lower", "compare_rtf", "external-scoring"),
    "metrics.aggregate_s": ("s", "lower", "compare_rtf", "external-scoring"),
    "cli.compare_self_s": ("s", "lower", "compare_rtf", "corpus-16k-parallel (not corpus-48k)"),
    "cli.pools_per_compare": ("count", "lower", "compare_rtf", "corpus-16k-parallel (not corpus-48k)"),
    "cli.pool_s": ("s", "lower", "compare_rtf", "corpus-16k-parallel (not corpus-48k)"),
    "bench.trace_overhead_pct": ("%", "lower", "none: the cost of tracing itself", "all"),
}

# span name -> self-time metric; together with cli.compare_self_s these
# partition a traced compare's wall time
SELF_TIME = {
    "trackio.read_wav": "trackio.read_wav_s",
    "trackio.read_track": "trackio.read_track_s",
    "signal.bandpass": "signal.bandpass_s",
    "signal.frame_signal": "signal.frame_signal_s",
    "signal.lag_curve": "signal.lag_curve_s",
    "pyin.track": "pyin.track_self_s",
    "pyin.candidates": "pyin.candidates_self_s",
    "pyin.viterbi": "pyin.viterbi_s",
    "yaapt.track": "yaapt.track_self_s",
    "yaapt.preprocess": "yaapt.preprocess_self_s",
    "yaapt.nccf_candidates": "yaapt.nccf_candidates_self_s",
    "yaapt.dp": "yaapt.dp_s",
    "metrics.evaluate_pair": "metrics.evaluate_pair_s",
    "metrics.aggregate": "metrics.aggregate_s",
    "cli.compare": "cli.compare_self_s",
}

# metric -> hooked names it is computed from, for marking it absent
_SOURCES = {
    "trackio.read_wav_s": ["pitchbench.cli.read_wav"],
    "trackio.read_wav_calls_per_utt": ["pitchbench.cli.read_wav"],
    "trackio.read_track_s": ["pitchbench.cli.read_reference_track", "pitchbench.cli.read_external_track"],
    "trackio.ref_reads_per_utt": ["pitchbench.cli.read_reference_track"],
    "trackio.track_frames_parsed_per_s": ["pitchbench.cli.read_reference_track", "pitchbench.cli.read_external_track"],
    "trackio.write_track_s": ["pitchbench.cli.write_track"],
    "signal.bandpass_s": ["pitchbench.yaapt.bandpass_filter"],
    "signal.bandpass_calls": ["pitchbench.yaapt.bandpass_filter"],
    "signal.frame_signal_s": ["pitchbench.pyin.frame_signal", "pitchbench.yaapt.frame_signal"],
    "signal.lag_curve_s": ["pitchbench.pyin.yin_difference", "pitchbench.pyin.cmnd", "pitchbench.yaapt.nccf"],
    "signal.lag_curve_calls": ["pitchbench.pyin.yin_difference", "pitchbench.yaapt.nccf"],
    "signal.lag_curve_samples": ["pitchbench.pyin.yin_difference", "pitchbench.yaapt.nccf"],
    "pyin.track_self_s": ["pitchbench.cli.pyin_track"],
    "pyin.candidates_self_s": ["pitchbench.pyin.pyin_candidates"],
    "pyin.candidates_per_frame": ["pitchbench.pyin.pyin_candidates"],
    "pyin.viterbi_s": ["pitchbench.pyin.pyin_viterbi"],
    "pyin.frames": ["pitchbench.pyin.pyin_viterbi"],
    "yaapt.preprocess_self_s": ["pitchbench.yaapt.yaapt_preprocess"],
    "yaapt.track_self_s": ["pitchbench.cli.yaapt_track"],
    "yaapt.nlfer_gated_share": ["pitchbench.yaapt.compute_nlfer"],
    "yaapt.nccf_candidates_self_s": ["pitchbench.yaapt.nccf_candidates"],
    "yaapt.candidates_per_frame": ["pitchbench.yaapt.nccf_candidates"],
    "yaapt.dp_s": ["pitchbench.yaapt.yaapt_dp_select"],
    "yaapt.dp_transitions": ["pitchbench.yaapt.yaapt_dp_select"],
    "metrics.evaluate_pair_s": ["pitchbench.cli.evaluate_pair"],
    "metrics.frames_scored": ["pitchbench.cli.evaluate_pair"],
    "metrics.aggregate_s": ["pitchbench.cli.aggregate"],
    "cli.pools_per_compare": ["pitchbench.cli.ProcessPoolExecutor"],
    "cli.pool_s": ["pitchbench.cli.ProcessPoolExecutor"],
}


def self_times(tracer: Tracer) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.span_id: s.end - s.start for s in tracer.spans}
    for s in tracer.spans:
        if s.parent_id >= 0:
            own[s.parent_id] -= s.end - s.start
    return own


def per_name(tracer: Tracer, value: dict[int, float]) -> dict[str, float]:
    """Sum of ``value`` per span name."""
    totals: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        totals[s.name] += value[s.span_id]
    return totals


def layer_metrics(compare_tracer: Tracer, op_tracer: Tracer, pool_tracer: Tracer,
                  n_utterances: int, overhead_pct: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: self times and counts per traced compare (the
    roots of ``compare_tracer``), write time per traced detect, pool
    figures per compare at the workload's own --jobs. Returns (metrics,
    names of metrics whose hooks are absent)."""
    n_compares = max(sum(1 for s in compare_tracer.spans if s.parent_id < 0), 1)
    selfs = per_name(compare_tracer, self_times(compare_tracer))
    spans = per_name(compare_tracer, {s.span_id: s.end - s.start for s in compare_tracer.spans})
    c = {k: v / n_compares for k, v in compare_tracer.counts.items()}
    utts = max(n_utterances, 1)
    read_track_s = spans.get("trackio.read_track", 0.0)

    m = {metric: selfs.get(span, 0.0) / n_compares for span, metric in SELF_TIME.items()}
    m.update({
        "trackio.read_wav_calls_per_utt": c.get("trackio.read_wav_calls", 0.0) / utts,
        "trackio.ref_reads_per_utt": c.get("trackio.ref_reads", 0.0) / utts,
        "trackio.track_frames_parsed_per_s":
            compare_tracer.counts.get("trackio.track_frames", 0.0) / read_track_s
            if read_track_s > 0 else 0.0,
        "signal.bandpass_calls": c.get("signal.bandpass_calls", 0.0),
        "signal.lag_curve_calls": c.get("signal.lag_curve_calls", 0.0),
        "signal.lag_curve_samples": c.get("signal.lag_curve_samples", 0.0),
        "pyin.candidates_per_frame": _ratio(c, "pyin.candidates", "pyin.candidate_frames"),
        "pyin.frames": c.get("pyin.frames", 0.0),
        "yaapt.nlfer_gated_share": _ratio(c, "yaapt.nlfer_gated", "yaapt.nlfer_frames"),
        "yaapt.candidates_per_frame": _ratio(c, "yaapt.candidates", "yaapt.candidate_frames"),
        "yaapt.dp_transitions": c.get("yaapt.dp_transitions", 0.0),
        "metrics.frames_scored": c.get("metrics.frames_scored", 0.0),
    })
    detects = max(op_tracer.counts.get("trackio.write_calls", 0.0), 1.0)
    m["trackio.write_track_s"] = sum(
        s.end - s.start for s in op_tracer.spans if s.name == "trackio.write_track") / detects
    pool_compares = max(sum(1 for s in pool_tracer.spans if s.name == "cli.compare"), 1)
    m["cli.pools_per_compare"] = pool_tracer.counts.get("cli.pools", 0.0) / pool_compares
    m["cli.pool_s"] = sum(
        s.end - s.start for s in pool_tracer.spans if s.name == "cli.pool") / pool_compares
    m["bench.trace_overhead_pct"] = overhead_pct

    tracers = (compare_tracer, op_tracer, pool_tracer)
    missing = {h for t in tracers for h in t.absent}
    uncounted = {h for t in tracers for h in t.uncounted}
    absent = sorted(k for k, hooks in _SOURCES.items()
                    if all(h in missing for h in hooks)
                    or (LAYERS[k][0] != "s" and any(h in uncounted for h in hooks)))
    for k in absent:
        m[k] = 0.0
    return m, absent


def _ratio(counts: dict[str, float], num: str, den: str) -> float:
    d = counts.get(den, 0.0)
    return counts.get(num, 0.0) / d if d else 0.0
