"""Shared synthetic-signal builders and bit-for-bit oracles for the test
suite."""
import math

import numpy as np
import pytest
from scipy.fft import rfft

from pitchbench import AudioSignal, frame_signal
from pitchbench.signal import frame_centers, lag_frame_len
from pitchbench.yaapt import (
    _LINE_FLOOR,
    _NLFER_FFT,
    _SHC_FFT,
    _SPECTRAL_TARGET_RATE,
    _decimate_for_spectral,
    _grid_frequencies,
    _shc_grid,
    compute_nlfer,
    yaapt_preprocess,
)


def sine(freq_hz, dur_s, rate_hz, amp=0.7, phase=0.0):
    t = np.arange(int(round(dur_s * rate_hz))) / rate_hz
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)


def sawtooth(freq_hz, dur_s, rate_hz, amp=0.6, max_harmonic_hz=4000.0):
    """Band-limited sawtooth: additive 1/k partials, so no aliasing junk."""
    t = np.arange(int(round(dur_s * rate_hz))) / rate_hz
    x = np.zeros_like(t)
    k = 1
    while k * freq_hz < min(0.45 * rate_hz, max_harmonic_hz):
        x += np.sin(2 * np.pi * k * freq_hz * t) / k
        k += 1
    return amp * x / np.max(np.abs(x))


def missing_fundamental(freq_hz, dur_s, rate_hz, amp=0.6, harmonics=(2, 3, 4)):
    """Harmonics of freq_hz with the fundamental itself absent."""
    t = np.arange(int(round(dur_s * rate_hz))) / rate_hz
    x = sum(np.sin(2 * np.pi * h * freq_hz * t) for h in harmonics)
    return amp * x / np.max(np.abs(x))


def padded_tone(samples, rate_hz, lead_s=0.25, trail_s=0.25):
    lead = np.zeros(int(round(lead_s * rate_hz)))
    trail = np.zeros(int(round(trail_s * rate_hz)))
    return AudioSignal(np.concatenate([lead, samples, trail]), rate_hz)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def all_frames_spectral(signal, config):
    """YAAPT's spectral stage transforming every frame of both branches
    whole, then one SHC call per NLFER-gated frame: the coarse track, the
    NLFER, and per branch the frame holding its peak (None for a silent
    branch)."""
    pair = yaapt_preprocess(signal, config)
    centers = frame_centers(len(signal), config.hop_ms, signal.sample_rate_hz)
    rate = pair[0].sample_rate_hz
    factor = max(1, int(round(rate / _SPECTRAL_TARGET_RATE)))
    rate /= factor
    centers = np.round(centers / factor).astype(np.int64)
    plain, nonlinear = (_decimate_for_spectral(branch.samples, factor) for branch in pair)

    def spectrogram(samples, frame_scale, n_fft):
        frame_len = frame_scale * lag_frame_len(config.frame_len_ms, rate, config.fmin_hz)
        n_fft = max(n_fft, frame_len)
        frames = frame_signal(samples, frame_len, centers) * np.hanning(frame_len)
        return np.abs(rfft(frames, n=n_fft, axis=1)), rate / n_fft

    mags_nlfer, nlfer_res = spectrogram(plain, 1, _NLFER_FFT)
    nlfer = compute_nlfer(mags_nlfer, config, nlfer_res)
    combined = None
    peak_frames = []
    for branch in (plain, nonlinear):
        mags, freq_res = spectrogram(branch, 2, _SHC_FFT)
        if combined is None:
            combined = np.zeros_like(mags)
        peak = mags.max(initial=0.0)
        peak_frames.append(int(np.argmax(mags.max(axis=1))) if peak > 0 else None)
        if peak > 0:
            combined += mags / peak

    grid = _grid_frequencies(config)
    grid_bins = np.round(grid / freq_res).astype(np.int64)
    lo = int(math.ceil(config.fmin_hz / freq_res))
    hi = min(int(math.floor(config.fmax_hz / freq_res)), combined.shape[1] - 1)
    coarse = np.zeros(centers.size)
    for t in np.flatnonzero(nlfer >= config.nlfer_threshold):
        spectrum = combined[t]
        line_ok = spectrum[grid_bins] >= _LINE_FLOOR * spectrum[lo : hi + 1].max()
        if not np.any(line_ok):
            line_ok = np.ones_like(line_ok)
        floored = np.maximum(spectrum, _LINE_FLOOR * spectrum.max())
        shc = np.where(line_ok, _shc_grid(floored, grid, config, freq_res), -1.0)
        coarse[t] = grid[int(np.argmax(shc))]
    return coarse, nlfer, peak_frames
