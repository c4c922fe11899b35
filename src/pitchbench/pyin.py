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
from scipy.special import betainc

from .signal import (
    AudioSignal,
    _block_rows,
    check_search_band,
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
        if not 0 < self.fmin_hz < self.fmax_hz:
            raise ValueError(f"need 0 < fmin < fmax, got ({self.fmin_hz}, {self.fmax_hz})")
        if self.frame_len_ms <= 0 or self.hop_ms <= 0:
            raise ValueError(
                f"frame_len_ms and hop_ms must be > 0, got ({self.frame_len_ms}, {self.hop_ms})"
            )
        if self.n_thresholds < 1:
            raise ValueError(f"n_thresholds must be >= 1, got {self.n_thresholds}")
        if not 0 < self.threshold_prior_mean < 1:
            raise ValueError(
                f"threshold_prior_mean must be in (0,1), got {self.threshold_prior_mean}"
            )
        if self.bins_per_semitone < 1:
            raise ValueError(f"bins_per_semitone must be >= 1, got {self.bins_per_semitone}")
        if not 0 < self.switch_prob < 1:
            raise ValueError(f"switch_prob must be in (0,1), got {self.switch_prob}")
        if self.max_transition_semitones <= 0:
            raise ValueError(
                f"max_transition_semitones must be > 0, got {self.max_transition_semitones}"
            )

    def validate_rate(self, sample_rate_hz: float) -> None:
        if not self.fmax_hz < sample_rate_hz / 2:
            raise ValueError(
                f"fmax {self.fmax_hz} Hz must be below Nyquist {sample_rate_hz / 2} Hz"
            )

    @property
    def n_bins(self) -> int:
        span_semitones = 12.0 * math.log2(self.fmax_hz / self.fmin_hz)
        return int(math.floor(span_semitones * self.bins_per_semitone)) + 1

    def bin_frequency(self, index: int) -> float:
        return self.fmin_hz * 2.0 ** (index / (12.0 * self.bins_per_semitone))

    def bin_of(self, f0_hz: float) -> int:
        raw = 12.0 * self.bins_per_semitone * math.log2(f0_hz / self.fmin_hz)
        return min(max(int(round(raw)), 0), self.n_bins - 1)


class PitchCandidate(NamedTuple):
    f0_hz: float
    probability: float


# a process decodes with a few configs at a time, one per CLI engine run
@lru_cache(maxsize=8)
def _threshold_weights(config: PyinConfig) -> tuple[np.ndarray, np.ndarray]:
    """Equally spaced thresholds in (0, 1] and their Beta prior mass.

    The prior is Beta(2, b) with mean ``threshold_prior_mean``,
    discretized as CDF increments so the weights sum to 1. Computed
    once per config; the arrays are read-only.
    """
    a = 2.0
    b = a * (1.0 - config.threshold_prior_mean) / config.threshold_prior_mean
    grid = np.arange(0, config.n_thresholds + 1) / config.n_thresholds
    cdf = betainc(a, b, grid)  # the Beta(a, b) CDF
    thresholds, weights = grid[1:], np.diff(cdf)
    thresholds.flags.writeable = False
    weights.flags.writeable = False
    return thresholds, weights


def _lag_range(config: PyinConfig, sample_rate_hz: float, frame_len: int) -> tuple[int, int]:
    lag_min = max(2, int(math.ceil(sample_rate_hz / config.fmax_hz)))
    lag_max = min(int(math.floor(sample_rate_hz / config.fmin_hz)), (frame_len - 1) // 2)
    return lag_min, lag_max


def _candidate_sets(
    d: np.ndarray, lag_min: int, config: PyinConfig, sample_rate_hz: float
) -> list[list[PitchCandidate]]:
    """Candidates of every row of CMND curves ``d`` (lags 0..lag_max)."""
    lag_max = d.shape[1] - 1
    # local minima of the CMND inside the search band, in lag order
    band = d[:, lag_min:lag_max]
    is_min = (band < d[:, lag_min - 1 : lag_max - 1]) & (band <= d[:, lag_min + 1 :])
    rows, cols = np.nonzero(is_min)

    # threshold s selects the first minimum with depth < s, i.e. minimum k
    # exactly when ceiling[k] >= s > depth[k], ceiling being the best depth
    # of the earlier minima in its frame
    best = np.minimum.accumulate(np.where(is_min, band, np.inf), axis=1)
    ceiling = np.full_like(band, np.inf)
    ceiling[:, 1:] = best[:, :-1]
    thresholds, weights = _threshold_weights(config)
    first = np.searchsorted(thresholds, band[rows, cols], side="right")
    stop = np.searchsorted(thresholds, ceiling[rows, cols], side="right")
    selected = np.flatnonzero(stop > first)
    spans = zip(first[selected].tolist(), stop[selected].tolist())
    mass = np.array([weights[a:b].sum() for a, b in spans])
    kept = mass > 0.0
    rows, lags, mass = rows[selected][kept], cols[selected][kept] + lag_min, mass[kept]

    refined = parabolic_vertex(d[rows, lags - 1], d[rows, lags], d[rows, lags + 1], lags)
    f0 = np.minimum(np.maximum(sample_rate_hz / refined, config.fmin_hz), config.fmax_hz)
    order = np.lexsort((f0, rows))  # stable: by frame, then frequency
    candidates = list(map(PitchCandidate, f0[order].tolist(), mass[order].tolist()))
    bounds = np.searchsorted(rows[order], np.arange(d.shape[0] + 1)).tolist()
    return [candidates[a:b] for a, b in zip(bounds, bounds[1:])]


def pyin_candidates(
    frame: np.ndarray, config: PyinConfig, sample_rate_hz: float
) -> list[PitchCandidate]:
    """Extract pitch candidates with probabilities from one frame.

    Lags are searched in ``[rate/fmax, rate/fmin]`` intersected with
    the valid lag range of the difference curve. Candidates come back
    sorted by frequency; their probabilities sum to at most 1, with the
    remainder being the frame's unvoiced mass. Silent frames yield an
    empty list.
    """
    config.validate_rate(sample_rate_hz)
    frame = np.asarray(frame, dtype=np.float64)
    lag_min, lag_max = _lag_range(config, sample_rate_hz, frame.size)
    if lag_min >= lag_max:
        return []
    d = cmnd_rows(yin_difference_rows(frame[None], lag_max))
    return _candidate_sets(d, lag_min, config, sample_rate_hz)[0]


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
    the first most probable of them. Sums run in candidate order, and
    invalid input raises the error a frame-by-frame,
    candidate-by-candidate check would raise first.
    """
    n_frames = len(candidate_sets)
    flat = [cand for cands in candidate_sets for cand in cands]
    f0, prob = np.array(flat, dtype=np.float64).reshape(-1, 2).T
    rows = np.repeat(np.arange(n_frames), [len(cands) for cands in candidate_sets])
    ratio = f0 / config.fmin_hz

    total = np.zeros(n_frames)
    np.add.at(total, rows, prob)  # in candidate order, as a running sum
    # raise the first failure in frame order; within a frame, candidates
    # are checked one by one before their total
    bad = np.flatnonzero(~((prob >= 0.0) & (prob <= 1.0)) | ~((ratio > 0.0) & (ratio < np.inf)))
    over = np.flatnonzero(total > 1.0 + 1e-9)
    if bad.size and (not over.size or rows[bad[0]] <= over[0]):
        cand = flat[bad[0]]
        if not 0.0 <= cand.probability <= 1.0:
            raise ValueError(f"candidate probability {cand.probability} outside [0, 1]")
        config.bin_of(cand.f0_hz)  # raises: the frequency has no bin
    if over.size:
        t = over[0]
        raise ValueError(f"frame {t}: candidate probabilities sum to {total[t]} > 1")

    bins = _bins_of(ratio, config)
    order = np.lexsort((-prob, bins, rows))  # stable: first most probable per (frame, bin)
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = (np.diff(rows[order]) != 0) | (np.diff(bins[order]) != 0)
    mass = np.zeros(np.count_nonzero(lead))
    np.add.at(mass, np.cumsum(lead)[np.argsort(order)] - 1, prob)  # in candidate order
    kept = mass > 0.0
    best = order[lead][kept]
    frame = np.concatenate([np.arange(n_frames), rows[best]])
    state = np.concatenate([np.zeros(n_frames, dtype=np.int64), 1 + bins[best]])
    obs = np.concatenate([np.where(total < 1.0, 1.0 - total, 0.0), mass[kept]])
    f0 = np.concatenate([np.zeros(n_frames), f0[best]])
    by_frame = np.argsort(frame, kind="stable")  # state 0 first, then bins ascending
    return frame[by_frame], state[by_frame], obs[by_frame], f0[by_frame]


def _bins_of(ratio: np.ndarray, config: PyinConfig) -> np.ndarray:
    """:meth:`PyinConfig.bin_of` of frequencies given as positive, finite
    ratios ``f0 / fmin``, by its own arithmetic."""
    steps = 12.0 * config.bins_per_semitone
    raw = steps * np.fromiter(map(math.log2, ratio.tolist()), np.float64, ratio.size)
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
    bounds = np.searchsorted(frame, np.arange(frame[-1] + 2)).tolist()
    subsets = [state[a:b] for a, b in zip(bounds, bounds[1:])]
    with np.errstate(divide="ignore"):
        costs = -np.log(obs)
    trans = _transition_costs(config)
    path = min_cost_path(
        [costs[a:b] for a, b in zip(bounds, bounds[1:])],
        lambda t: trans.take(subsets[t - 1], axis=0).take(subsets[t], axis=1),
    )
    return np.array(bounds[:-1]) + path


def pyin_viterbi(
    candidate_sets: list[list[PitchCandidate]],
    config: PyinConfig,
    hop_seconds: float = 0.010,
) -> PitchTrack:
    """Decode per-frame candidate sets into a smoothed pitch track.

    Voiced frames carry the refined frequency of the candidate behind
    the decoded bin; unvoiced frames carry 0.0. Empty input decodes to
    an empty track.
    """
    if not candidate_sets:
        return PitchTrack(hop_seconds, np.zeros(0))
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
    lag_min, lag_max = _lag_range(config, rate, frame_len)
    check_search_band(lag_min, lag_max, config.fmin_hz, config.fmax_hz, rate)
    centers = frame_centers(len(signal), config.hop_ms, rate)
    step = _block_rows(frame_len)
    candidate_sets = []
    for start in range(0, centers.size, step):
        frames = frame_signal(signal.samples, frame_len, centers[start : start + step])
        d = cmnd_rows(yin_difference_rows(frames, lag_max))
        candidate_sets += _candidate_sets(d, lag_min, config, rate)
    return pyin_viterbi(candidate_sets, config, hop_seconds=config.hop_ms / 1000.0)
