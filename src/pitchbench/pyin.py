"""Probabilistic YIN pitch engine.

Per frame, the cumulative mean normalized difference curve is searched
once per threshold: each threshold selects the first local minimum
below it (the classic absolute-threshold rule), and a candidate's
probability is the prior weight of all thresholds that selected it.
The thresholds carry a Beta-shaped prior concentrated near the classic
single-threshold working point, so most probability mass behaves like
plain YIN while shallower dips still receive some.

Decoding runs a Viterbi pass over log-spaced pitch bins plus one
unvoiced state, as the shared min-cost trellis over negative log
weights. Voiced-to-voiced transition weights decay triangularly
with pitch-bin distance and are deliberately *not* row-normalized:
normalizing across a hundred-plus bins would make every voiced
self-transition two orders of magnitude costlier than staying
unvoiced, and the decoder would flicker unvoiced on perfectly periodic
input. Path scores are therefore compared as products of observation
values and transition weights; ties resolve toward the lower-frequency
state, with unvoiced ordered lowest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .signal import (
    AudioSignal,
    _block_rows,
    _check_engine_rate,
    _check_count,
    _check_engine_settings,
    _candidate_table,
    _log2_ratios,
    cmnd_rows,
    frame_centers,
    frame_signal,
    lag_frame_len,
    min_cost_path,
    parabolic_vertex,
    yin_difference_rows,
)
from .trackio import PitchTrack


@dataclass(frozen=True)
class PyinConfig:
    """Tunables for candidate extraction and Viterbi smoothing."""

    fmin_hz: float = 60.0
    fmax_hz: float = 400.0
    frame_len_ms: float = 40.0
    hop_ms: float = 10.0
    n_thresholds: int = 100
    threshold_prior_mean: float = 0.1
    bins_per_semitone: int = 5
    switch_prob: float = 0.01
    max_transition_semitones: float = 12.0

    def __post_init__(self):
        _check_engine_settings(self)
        _check_count(self, "n_thresholds")
        if not 0 < self.threshold_prior_mean < 1:
            raise ValueError(
                f"threshold_prior_mean must be in (0,1), got {self.threshold_prior_mean}"
            )
        _check_count(self, "bins_per_semitone")
        if not 0 < self.switch_prob < 1:
            raise ValueError(f"switch_prob must be in (0,1), got {self.switch_prob}")
        if not self.max_transition_semitones > 0:
            raise ValueError(
                f"max_transition_semitones must be > 0, got {self.max_transition_semitones}"
            )

    def validate_rate(self, sample_rate_hz: float) -> None:
        _check_engine_rate(self, sample_rate_hz)
        _lag_range(self, sample_rate_hz)

    @property
    def n_bins(self) -> int:
        span_semitones = 12.0 * math.log2(self.fmax_hz / self.fmin_hz)
        return int(math.floor(span_semitones * self.bins_per_semitone)) + 1


class PitchCandidate(NamedTuple):
    f0_hz: float
    probability: float


# a process decodes with a few configs at a time, one per CLI engine run
@lru_cache(maxsize=8)
def _threshold_weights(config: PyinConfig) -> tuple[np.ndarray, np.ndarray]:
    """Equally spaced thresholds in (0, 1] and their Beta prior mass.

    The prior is Beta(2, b) with mean ``threshold_prior_mean``, so
    ``b = 2 (1 - mean) / mean``, discretized as CDF increments so the
    weights sum to 1. With a first shape parameter of 2 the CDF has the
    closed form ``1 - (1 - x)^b (1 + b x)``; each weight is within
    ``8 * eps`` of its exact value, as close as ``scipy.special.betainc``
    comes. Computed once per config; the arrays are read-only.
    """
    b = 2.0 * (1.0 - config.threshold_prior_mean) / config.threshold_prior_mean
    grid = np.arange(0, config.n_thresholds + 1) / config.n_thresholds
    cdf = 1.0 - (1.0 - grid) ** b * (1.0 + b * grid)
    thresholds, weights = grid[1:], np.diff(cdf)
    thresholds.flags.writeable = False
    weights.flags.writeable = False
    return thresholds, weights


def _lag_range(config: PyinConfig, sample_rate_hz: float) -> tuple[int, int]:
    """The CMND's shortest and longest searched lag; raises ``ValueError``
    unless they differ, as a minimum is compared with the lags either side."""
    lag_min = max(2, int(math.ceil(sample_rate_hz / config.fmax_hz)))
    lag_max = int(math.floor(sample_rate_hz / config.fmin_hz))
    if lag_min >= lag_max:
        raise ValueError(
            f"pitch search range {config.fmin_hz}-{config.fmax_hz} Hz spans less than"
            f" two lags at {sample_rate_hz} Hz"
        )
    return lag_min, lag_max


def _candidate_sets(
    d: np.ndarray, lag_min: int, config: PyinConfig, sample_rate_hz: float
) -> list[list[PitchCandidate]]:
    """Candidates of every row of CMND curves ``d`` (lags 0..lag_max)."""
    lag_max = d.shape[1] - 1
    # local minima of the CMND inside the search band, in lag order, less
    # those at or above the top threshold, 1: no threshold selects one, and
    # none lowers a later minimum's ceiling below 1
    band = d[:, lag_min:lag_max]
    is_min = (band < d[:, lag_min - 1 : lag_max - 1]) & (band <= d[:, lag_min + 1 :])
    is_min &= band < 1.0
    rows, cols = np.nonzero(is_min)

    # threshold s selects the first minimum with depth < s, i.e. minimum k
    # exactly when ceiling[k] >= s > depth[k], ceiling being the best depth
    # of the earlier minima in its frame
    best = np.minimum.accumulate(np.where(is_min, band, np.inf), axis=1)
    ceiling = np.where(cols > 0, best[rows, cols - 1], np.inf)
    thresholds, weights = _threshold_weights(config)
    first = np.searchsorted(thresholds, band[rows, cols], side="right")
    stop = np.searchsorted(thresholds, ceiling, side="right")
    selected = np.flatnonzero(stop > first)
    # the sum of weights[a:b] for each span: reduceat sums a[i:j] as .sum()
    # does, and the padding 0 lets a span end past the last weight
    spans = np.stack([first[selected], stop[selected]], axis=1).ravel()
    mass = np.add.reduceat(np.append(weights, 0.0), spans)[::2]
    kept = mass > 0.0
    rows, lags, mass = rows[selected][kept], cols[selected][kept] + lag_min, mass[kept]

    refined = parabolic_vertex(d[rows, lags - 1], d[rows, lags], d[rows, lags + 1], lags)
    f0 = np.minimum(np.maximum(sample_rate_hz / refined, config.fmin_hz), config.fmax_hz)
    order = np.lexsort((f0, rows))  # stable: by frame, then frequency
    candidates = list(map(PitchCandidate, f0[order].tolist(), mass[order].tolist()))
    bounds = np.searchsorted(rows[order], np.arange(d.shape[0] + 1)).tolist()
    return [candidates[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# HMM decoding
# ---------------------------------------------------------------------------
# State 0 is unvoiced; states 1..n_bins are voiced pitch bins in ascending
# frequency, so the decoder's ties to the lowest state index go toward the
# lower-frequency state.

def _trellis(
    candidate_sets: list[list[PitchCandidate]], config: PyinConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trellis the decoder runs on: flat ``(frame, state, obs, f0)``
    arrays, sorted by frame, then by ascending state.

    Every frame has state 0, observing the unvoiced mass (1 minus the
    candidate total, or 0 from a total of 1 up) and emitting 0.0. State
    1+b exists only where the probabilities of bin b's candidates sum
    above 0; it observes that sum and emits the refined frequency of
    the first most probable of them. Sums run in candidate order.
    """
    n_frames = len(candidate_sets)
    rows, f0, prob = _candidate_table(candidate_sets, "probability")
    total = np.bincount(rows, prob, minlength=n_frames)  # in candidate order, as a running sum
    over = np.flatnonzero(total > 1.0 + 1e-9)
    if over.size:
        t = over[0]
        raise ValueError(f"frame {t}: candidate probabilities sum to {total[t]} > 1")

    bins = _bins_of(f0, config)
    order = np.lexsort((-prob, bins, rows))  # stable: first most probable per (frame, bin)
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = (np.diff(rows[order]) != 0) | (np.diff(bins[order]) != 0)
    mass = np.bincount(np.cumsum(lead)[np.argsort(order)] - 1, prob)  # in candidate order
    kept = mass > 0.0
    best = order[lead][kept]
    frame = np.concatenate([np.arange(n_frames), rows[best]])
    state = np.concatenate([np.zeros(n_frames, dtype=np.int64), 1 + bins[best]])
    obs = np.concatenate([np.where(total < 1.0, 1.0 - total, 0.0), mass[kept]])
    f0 = np.concatenate([np.zeros(n_frames), f0[best]])
    by_frame = np.argsort(frame, kind="stable")  # state 0 first, then bins ascending
    return frame[by_frame], state[by_frame], obs[by_frame], f0[by_frame]


def _bins_of(f0: np.ndarray, config: PyinConfig) -> np.ndarray:
    """Pitch bin of each positive, finite frequency: ``12 *
    bins_per_semitone * log2(f0 / fmin)`` rounded half to even and clipped
    to the bins. A ratio ``f0 / fmin`` that underflows to 0 takes the
    lowest bin, and one that overflows the top bin, as their neighbours
    do."""
    raw = 12.0 * config.bins_per_semitone * _log2_ratios(f0, config.fmin_hz)
    return np.clip(np.round(raw), 0, config.n_bins - 1).astype(np.int64)


# as above; each entry is an (n_bins + 1)^2 matrix, 0.2 MiB at the defaults
@lru_cache(maxsize=8)
def _transition_costs(config: PyinConfig) -> np.ndarray:
    """``-log`` of the (n_bins+1)^2 transition weight matrix, unvoiced
    state first; computed once per config, read-only.

    Voiced->voiced weight: (1 - switch_prob) * max(0, 1 - dist/width)
    where dist is the bin distance and width is the transition reach in
    bins. Voiced<->unvoiced weight is switch_prob in both directions;
    unvoiced->unvoiced is 1 - switch_prob.
    """
    n_bins = config.n_bins
    width = config.max_transition_semitones * config.bins_per_semitone
    dist = np.abs(np.arange(n_bins)[:, None] - np.arange(n_bins)[None, :])
    tri = np.maximum(0.0, 1.0 - dist / width)

    weights = np.zeros((n_bins + 1, n_bins + 1))
    weights[0, 0] = 1.0 - config.switch_prob
    weights[0, 1:] = config.switch_prob
    weights[1:, 0] = config.switch_prob
    weights[1:, 1:] = (1.0 - config.switch_prob) * tri
    with np.errstate(divide="ignore"):
        costs = -np.log(weights)
    costs.flags.writeable = False
    return costs


def _decode_trellis(
    frame: np.ndarray, state: np.ndarray, obs: np.ndarray, config: PyinConfig
) -> np.ndarray:
    """Max-product Viterbi over :func:`_trellis`; returns the index into
    its arrays of each frame's decoded state.

    Runs as the min-cost trellis over ``-log`` observations and ``-log``
    transition weights: negation is exact, so every path score is the
    exact negative of its log-domain product and the first cheapest
    state is the first most probable one. Scaling every observation of
    a frame by a common positive factor cannot change the decoded path.

    This is the path over every state at every frame, ties included: the
    states left out are voiced ones of observation 0, and the rest keep
    their order. No cost is negative infinity, so a state of infinite
    cost never wins a step whose best cost is finite, and a step whose
    best cost is infinite falls to the first state in either form, state 0.
    """
    starts = np.flatnonzero(np.diff(frame, prepend=-1))  # each frame's first state
    bounds = [*starts.tolist(), frame.size]
    subsets = [state[a:b] for a, b in zip(bounds, bounds[1:])]
    with np.errstate(divide="ignore"):
        costs = -np.log(obs)
    trans = _transition_costs(config)
    path = min_cost_path(
        [costs[a:b] for a, b in zip(bounds, bounds[1:])],
        lambda t: trans.take(subsets[t - 1], axis=0).take(subsets[t], axis=1),
    )
    return starts + path


def pyin_viterbi(
    candidate_sets: list[list[PitchCandidate]],
    config: PyinConfig,
    hop_seconds: float | None = None,
) -> PitchTrack:
    """Decode per-frame candidate sets into a smoothed pitch track.

    Voiced frames carry the refined frequency of the candidate behind
    the decoded bin; unvoiced frames carry 0.0. Empty input decodes to
    an empty track. The track's hop defaults to the config's.

    Raises ``ValueError`` for the first candidate, in frame order, whose
    f0 is not finite and > 0 or whose probability lies outside [0, 1];
    then for the first frame whose probabilities sum above 1.
    """
    if hop_seconds is None:
        hop_seconds = config.hop_ms / 1000.0
    frame, state, obs, f0 = _trellis(candidate_sets, config)
    return PitchTrack(hop_seconds, f0[_decode_trellis(frame, state, obs, config)])


def pyin_track(signal: AudioSignal, config: PyinConfig | None = None) -> PitchTrack:
    """Run the full engine on a signal: framing, candidates, decoding.

    Raises ``ValueError`` if the search band holds fewer than two lags
    at the signal's rate, where no frame could ever be voiced.
    """
    if config is None:
        config = PyinConfig()
    config.validate_rate(signal.sample_rate_hz)
    rate = signal.sample_rate_hz
    frame_len = lag_frame_len(config.frame_len_ms, rate, config.fmin_hz)
    lag_min, lag_max = _lag_range(config, rate)
    centers = frame_centers(len(signal), config.hop_ms, rate)
    step = _block_rows(frame_len)
    candidate_sets = []
    for start in range(0, centers.size, step):
        frames = frame_signal(signal.samples, frame_len, centers[start : start + step])
        d = cmnd_rows(yin_difference_rows(frames, lag_max))
        candidate_sets += _candidate_sets(d, lag_min, config, rate)
    return pyin_viterbi(candidate_sets, config)
