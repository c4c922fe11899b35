"""YAAPT-style pitch engine: dual preprocessing, a spectral coarse
track, NCCF candidates, and dynamic-programming selection.

Preprocessing produces two signals: the bandpassed original and a
bandpassed nonlinearity of it (squaring by default), the latter
restoring fundamental-frequency energy when the signal carries mostly
harmonics. The spectral stage scores a log-spaced frequency grid with
the spectral harmonics correlation (SHC) of the *combined* spectrograms
of both branches and gates frames by the normalized low-frequency
energy ratio (NLFER). Because an SHC built from magnitude products
rewards subharmonics through window leakage on harmonic-poor signals,
grid points whose own spectral line is absent (below 5% of the band
maximum) are excluded before the argmax; a true fundamental always has
a line in at least one branch, while subharmonics never do. The final
pass scores NCCF candidates against the coarse track with additive
costs in log-frequency and picks the cheapest path by dynamic
programming, ties resolving toward the lower-frequency state with
unvoiced ordered lowest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.signal
from scipy.fft import rfft

from .signal import (
    AudioSignal,
    bandpass_filter,
    frame_centers,
    frame_signal,
    min_cost_path,
    nccf_rows,
    parabolic_vertex,
    row_blocks,
)
from .trackio import PitchTrack

_SPECTRAL_TARGET_RATE = 16000.0
_NLFER_FFT = 1024
_SHC_FFT = 2048  # the SHC stage doubles the analysis window, needing more room
_GRID_STEPS_PER_OCTAVE = 24
_LINE_FLOOR = 0.05  # fraction of the band maximum a grid point's own line must reach


@dataclass(frozen=True)
class YaaptConfig:
    """Stage parameters for the engine."""

    fmin_hz: float = 60.0
    fmax_hz: float = 400.0
    bp_low_hz: float = 50.0
    bp_high_hz: float = 1500.0
    frame_len_ms: float = 35.0
    hop_ms: float = 10.0
    shc_num_harmonics: int = 3
    shc_window_hz: float = 40.0
    nlfer_threshold: float = 0.75
    n_candidates_per_frame: int = 5
    dp_freq_jump_weight: float = 0.35
    dp_voicing_switch_cost: float = 0.2
    nonlinearity: str = "square"  # or "abs"

    def __post_init__(self):
        if not 0 < self.fmin_hz < self.fmax_hz:
            raise ValueError(f"need 0 < fmin < fmax, got ({self.fmin_hz}, {self.fmax_hz})")
        if not 0 < self.bp_low_hz < self.bp_high_hz:
            raise ValueError(f"bad band ({self.bp_low_hz}, {self.bp_high_hz})")
        if self.frame_len_ms <= 0 or self.hop_ms <= 0:
            raise ValueError("frame_len_ms and hop_ms must be > 0")
        if self.shc_num_harmonics < 1:
            raise ValueError("shc_num_harmonics must be >= 1")
        if self.shc_window_hz <= 0:
            raise ValueError("shc_window_hz must be > 0")
        if self.nlfer_threshold <= 0:
            raise ValueError("nlfer_threshold must be > 0")
        if self.n_candidates_per_frame < 1:
            raise ValueError("n_candidates_per_frame must be >= 1")
        if self.dp_freq_jump_weight < 0 or self.dp_voicing_switch_cost < 0:
            raise ValueError("dynamic-programming weights must be >= 0")
        if self.nonlinearity not in ("square", "abs"):
            raise ValueError(f"nonlinearity must be 'square' or 'abs', got {self.nonlinearity!r}")

    def validate_rate(self, sample_rate_hz: float) -> None:
        nyquist = sample_rate_hz / 2
        if not self.fmax_hz < nyquist:
            raise ValueError(f"fmax {self.fmax_hz} Hz must be below Nyquist {nyquist} Hz")
        if not self.bp_high_hz < nyquist:
            raise ValueError(f"band edge {self.bp_high_hz} Hz must be below Nyquist {nyquist} Hz")


@dataclass
class SpectralTrack:
    """Coarse spectral pitch per frame plus its NLFER gating value.

    ``coarse_f0_hz`` is 0 exactly on the frames whose NLFER fell below
    the engine's voicing threshold.
    """

    coarse_f0_hz: np.ndarray
    nlfer: np.ndarray

    def __post_init__(self):
        self.coarse_f0_hz = np.asarray(self.coarse_f0_hz, dtype=np.float64)
        self.nlfer = np.asarray(self.nlfer, dtype=np.float64)
        if self.coarse_f0_hz.shape != self.nlfer.shape:
            raise ValueError("coarse_f0_hz and nlfer must have equal length")
        if np.any(self.coarse_f0_hz < 0) or np.any(self.nlfer < 0):
            raise ValueError("coarse_f0_hz and nlfer must be >= 0")

    def __len__(self) -> int:
        return self.coarse_f0_hz.size


class NccfCandidate(NamedTuple):
    f0_hz: float
    merit: float


def yaapt_preprocess(signal: AudioSignal, config: YaaptConfig) -> tuple[AudioSignal, AudioSignal]:
    """Bandpass the signal and a nonlinearity of it.

    Returns (bandpassed original, bandpassed nonlinear). Squaring the
    waveform creates energy at harmonic differences, so a missing
    fundamental reappears in the second output; the bandpass removes
    the DC term squaring introduces.
    """
    config.validate_rate(signal.sample_rate_hz)
    plain = bandpass_filter(signal, config.bp_low_hz, config.bp_high_hz)
    if config.nonlinearity == "square":
        warped = signal.samples * signal.samples
    else:
        warped = np.abs(signal.samples)
    nonlinear = bandpass_filter(
        AudioSignal(warped, signal.sample_rate_hz), config.bp_low_hz, config.bp_high_hz
    )
    return plain, nonlinear


def compute_nlfer(
    spectra: np.ndarray, config: YaaptConfig, freq_resolution_hz: float
) -> np.ndarray:
    """Normalized low-frequency energy ratio per frame.

    ``spectra`` is the utterance's magnitude spectrogram, one frame per
    row. Each frame's energy in [fmin, fmax] is divided by the mean of
    that band energy over all frames, so the returned values average to
    1; an all-silent utterance returns all zeros.
    """
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.ndim != 2:
        raise ValueError(f"expected a 2-D spectrogram, got shape {spectra.shape}")
    lo = int(math.ceil(config.fmin_hz / freq_resolution_hz))
    hi = min(int(math.floor(config.fmax_hz / freq_resolution_hz)), spectra.shape[1] - 1)
    if lo > hi:
        raise ValueError("search band is empty at this frequency resolution")
    band = spectra[:, lo : hi + 1]
    energy = np.sum(band * band, axis=1)
    mean = energy.mean()
    if mean == 0.0:
        return np.zeros(spectra.shape[0])
    return energy / mean


def compute_shc(
    spectrum: np.ndarray, f_hz: float, config: YaaptConfig, freq_resolution_hz: float
) -> float:
    """Spectral harmonics correlation at one frequency.

    SHC(f) = sum over window offsets f' in [-W/2, W/2] of the product
    over r = 1 .. NH+1 of |S(r f + f')|, with the offset discretized on
    the spectrum's bin grid. Requires (NH+1) f + W/2 to stay below the
    spectrum's Nyquist and f - W/2 above 0.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    n_harm = config.shc_num_harmonics + 1
    half_window = config.shc_window_hz / 2.0
    nyquist = (spectrum.size - 1) * freq_resolution_hz
    if f_hz <= 0 or f_hz - half_window < 0 or n_harm * f_hz + half_window > nyquist:
        raise ValueError(
            f"frequency {f_hz} Hz out of range for {n_harm} harmonics within {nyquist} Hz"
        )
    return float(_shc_grid(spectrum, np.array([f_hz]), config, freq_resolution_hz)[0])


def _shc_grid(
    spectrum: np.ndarray, grid_hz: np.ndarray, config: YaaptConfig, freq_resolution_hz: float
) -> np.ndarray:
    """SHC at every frequency of a grid; :func:`compute_shc` is its checked
    one-frequency form."""
    n_harm = config.shc_num_harmonics + 1
    k = int(math.floor(config.shc_window_hz / 2.0 / freq_resolution_hz))
    harmonics = np.arange(1, n_harm + 1)
    base = np.round(grid_hz[:, None] * harmonics[None, :] / freq_resolution_hz).astype(np.int64)
    offsets = np.arange(-k, k + 1)
    idx = base[:, :, None] + offsets[None, None, :]
    return np.sum(np.prod(spectrum[idx], axis=1), axis=1)


def _decimate_for_spectral(samples: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return samples
    return scipy.signal.decimate(samples, factor, ftype="fir", zero_phase=True)


def _branch_spectrogram(
    samples: np.ndarray,
    rate: float,
    centers: np.ndarray,
    config: YaaptConfig,
    frame_scale: int = 1,
    n_fft: int = _NLFER_FFT,
) -> tuple[np.ndarray, float]:
    """Hann-windowed magnitude spectrogram of a decimated branch, row k
    centered on sample ``centers[k]``. ``frame_scale`` stretches the
    analysis window (the SHC stage uses 2x frames: the narrower mainlobe
    keeps near-miss harmonic combs on sidelobes)."""
    frame_len = frame_scale * int(round(config.frame_len_ms * rate / 1000.0))
    frames = frame_signal(samples, frame_len, centers) * np.hanning(frame_len)
    mags = np.abs(rfft(frames, n=n_fft, axis=1))
    return mags, rate / n_fft


def _grid_frequencies(config: YaaptConfig) -> np.ndarray:
    n_steps = int(math.floor(math.log2(config.fmax_hz / config.fmin_hz) * _GRID_STEPS_PER_OCTAVE))
    return config.fmin_hz * 2.0 ** (np.arange(n_steps + 1) / _GRID_STEPS_PER_OCTAVE)


def _spectral_from_pair(
    centers: np.ndarray, pair: tuple[AudioSignal, AudioSignal], config: YaaptConfig
) -> SpectralTrack:
    """The spectral stage on both branches, decimated to about 16 kHz;
    frame k is centered on the decimated sample nearest ``centers[k]``."""
    rate = pair[0].sample_rate_hz
    factor = max(1, int(round(rate / _SPECTRAL_TARGET_RATE)))
    rate /= factor
    centers = np.round(centers / factor).astype(np.int64)
    plain, nonlinear = (_decimate_for_spectral(branch.samples, factor) for branch in pair)
    mags_nlfer, nlfer_res = _branch_spectrogram(plain, rate, centers, config)
    nlfer = compute_nlfer(mags_nlfer, config, nlfer_res)

    mags_plain, freq_res = _branch_spectrogram(
        plain, rate, centers, config, frame_scale=2, n_fft=_SHC_FFT
    )
    mags_nl, _ = _branch_spectrogram(
        nonlinear, rate, centers, config, frame_scale=2, n_fft=_SHC_FFT
    )

    # Combine the branches on equal footing; each branch is scaled by its
    # own utterance-wide maximum so absolute gain cancels.
    combined = np.zeros_like(mags_plain)
    for mags in (mags_plain, mags_nl):
        peak = mags.max()
        if peak > 0:
            combined += mags / peak

    grid = _grid_frequencies(config)
    grid_bins = np.round(grid / freq_res).astype(np.int64)
    lo = int(math.ceil(config.fmin_hz / freq_res))
    hi = min(int(math.floor(config.fmax_hz / freq_res)), combined.shape[1] - 1)

    coarse = np.zeros(centers.size)
    gated = nlfer >= config.nlfer_threshold
    for t in np.flatnonzero(gated):
        spectrum = combined[t]
        band_peak = spectrum[lo : hi + 1].max()
        line_ok = spectrum[grid_bins] >= _LINE_FLOOR * band_peak
        if not np.any(line_ok):
            line_ok = np.ones_like(line_ok)  # degenerate; fall back to the full grid
        # Absent harmonics enter the SHC product at a fixed floor rather
        # than at the leakage level: a spectrum with two real lines then
        # always outscores one with a single line, instead of the argmax
        # drifting on leakage noise when the signal is harmonic-poor.
        floored = np.maximum(spectrum, _LINE_FLOOR * spectrum.max())
        shc = _shc_grid(floored, grid, config, freq_res)
        shc = np.where(line_ok, shc, -1.0)
        coarse[t] = grid[int(np.argmax(shc))]
    return SpectralTrack(coarse, nlfer)


def _front_end(
    signal: AudioSignal, config: YaaptConfig
) -> tuple[np.ndarray, tuple[AudioSignal, AudioSignal]]:
    """Rate check, frame centers and the preprocessed branch pair."""
    config.validate_rate(signal.sample_rate_hz)
    centers = frame_centers(len(signal), config.hop_ms, signal.sample_rate_hz)
    return centers, yaapt_preprocess(signal, config)


def spectral_pitch_track(signal: AudioSignal, config: YaaptConfig) -> SpectralTrack:
    """Coarse pitch from the spectrogram stage, gated by NLFER."""
    return _spectral_from_pair(*_front_end(signal, config), config)


def _nccf_peaks(
    frames: np.ndarray, lag_min: int, lag_max: int, rate: float, config: YaaptConfig
) -> list[list[NccfCandidate]]:
    """Per-frame candidates of one branch: the ``n_candidates_per_frame``
    highest positive NCCF maxima (ties to the shorter lag), refined
    parabolically."""
    v = nccf_rows(frames, lag_min, lag_max)
    inner = v[:, 1:-1]
    is_max = (inner > v[:, :-2]) & (inner >= v[:, 2:]) & (inner > 0)
    rows, cols = np.nonzero(is_max)
    cols += 1
    merit = v[rows, cols]
    order = np.lexsort((-merit, rows))  # stable: by frame, then merit descending
    rows, cols, merit = rows[order], cols[order], merit[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    top = rank < config.n_candidates_per_frame
    rows, cols, merit = rows[top], cols[top], merit[top]

    lags = cols + lag_min
    refined = parabolic_vertex(v[rows, cols - 1], merit, v[rows, cols + 1], lags)
    f0 = np.minimum(np.maximum(rate / refined, config.fmin_hz), config.fmax_hz)
    candidates = list(map(NccfCandidate, f0.tolist(), merit.tolist()))
    bounds = np.searchsorted(rows, np.arange(frames.shape[0] + 1)).tolist()
    return [candidates[a:b] for a, b in zip(bounds, bounds[1:])]


def nccf_candidates(
    preprocessed: tuple[AudioSignal, AudioSignal], config: YaaptConfig
) -> list[list[NccfCandidate]]:
    """Per-frame pitch candidates from the NCCF of both branches.

    Each branch contributes up to ``n_candidates_per_frame`` local
    maxima (merit = NCCF value, lag refined parabolically); the two
    lists are merged, collapsing candidates within 2% in frequency onto
    the higher merit. Silent frames yield empty lists.
    """
    rate = preprocessed[0].sample_rate_hz
    frame_len = int(round(config.frame_len_ms * rate / 1000.0))
    centers = frame_centers(len(preprocessed[0]), config.hop_ms, rate)

    lag_min = max(1, int(math.ceil(rate / config.fmax_hz)))
    lag_max = min(int(math.floor(rate / config.fmin_hz)), (frame_len - 1) // 2)
    if lag_min >= lag_max:
        raise ValueError("frame too short for the configured pitch search range")

    per_branch = []
    for branch in preprocessed:
        frames = frame_signal(branch.samples, frame_len, centers)
        per_branch.append([
            cands
            for block in row_blocks(frames, lag_max)
            for cands in _nccf_peaks(block, lag_min, lag_max, rate, config)
        ])

    merged = []
    for frame_lists in zip(*per_branch):
        pool = sorted(
            (c for cands in frame_lists for c in cands), key=lambda c: (c.f0_hz, -c.merit)
        )
        frame_merged: list[NccfCandidate] = []
        for cand in pool:
            if frame_merged and cand.f0_hz / frame_merged[-1].f0_hz < 1.02:
                if cand.merit > frame_merged[-1].merit:
                    frame_merged[-1] = NccfCandidate(frame_merged[-1].f0_hz, cand.merit)
            else:
                frame_merged.append(cand)
        merged.append(frame_merged)
    return merged


def yaapt_dp_select(
    candidates: list[list[NccfCandidate]],
    spectral: SpectralTrack,
    config: YaaptConfig,
    hop_seconds: float = 0.010,
) -> PitchTrack:
    """Pick the cheapest voiced/unvoiced path through the candidates.

    Per frame the states are the candidates plus one unvoiced state.
    A candidate costs (1 - merit) plus, when the frame has a coarse
    spectral estimate, the jump weight times its octave distance from
    it; the unvoiced state costs the frame's NLFER margin above the
    voicing threshold. Transitions between voiced states cost the jump
    weight times their octave distance; crossing into or out of voicing
    costs the switch cost. Cost ties resolve toward the lower-frequency
    state with unvoiced ordered lowest.
    """
    n_frames = len(candidates)
    if n_frames != len(spectral):
        raise ValueError(
            f"frame count mismatch: {n_frames} candidate sets, {len(spectral)} spectral frames"
        )
    if n_frames == 0:
        return PitchTrack(hop_seconds, np.zeros(0))

    w_jump = config.dp_freq_jump_weight
    w_switch = config.dp_voicing_switch_cost

    # state 0 is unvoiced; voiced states follow in ascending frequency
    freqs, costs = [], []
    for t, cands in enumerate(candidates):
        cands = sorted(cands, key=lambda c: c.f0_hz)
        coarse = spectral.coarse_f0_hz[t]
        local = [max(0.0, spectral.nlfer[t] - config.nlfer_threshold)]
        for cand in cands:
            cost = 1.0 - cand.merit
            if coarse > 0:
                cost += w_jump * abs(math.log2(cand.f0_hz / coarse))
            local.append(cost)
        freqs.append(np.array([0.0] + [c.f0_hz for c in cands]))
        costs.append(np.array(local))

    def transition(t: int) -> np.ndarray:
        prev, cur = freqs[t - 1][:, None], freqs[t][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            jump = w_jump * np.abs(np.log2(cur / prev))
        unvoiced = (prev == 0) & (cur == 0)
        return np.where((prev > 0) & (cur > 0), jump, np.where(unvoiced, 0.0, w_switch))

    states = min_cost_path(costs, transition)
    f0 = np.array([f[state] for f, state in zip(freqs, states)])
    return PitchTrack(hop_seconds, f0)


def yaapt_track(signal: AudioSignal, config: YaaptConfig | None = None) -> PitchTrack:
    """Run the full pipeline: preprocess, spectral track, NCCF, DP."""
    if config is None:
        config = YaaptConfig()
    hop_seconds = config.hop_ms / 1000.0
    centers, pair = _front_end(signal, config)
    if len(signal) == 0:
        return PitchTrack(hop_seconds, np.zeros(0))
    spectral = _spectral_from_pair(centers, pair, config)
    candidates = nccf_candidates(pair, config)
    return yaapt_dp_select(candidates, spectral, config, hop_seconds=hop_seconds)
