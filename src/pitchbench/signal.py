"""Frame-level signal primitives shared by the pitch engines.

Centered framing, windowed-sinc bandpass filtering, parabolic lag
refinement, and the three lag-domain curves the time-domain estimators
are built on: the YIN difference function, its cumulative mean
normalized form (CMND), and the normalized cross-correlation function
(NCCF).

The lag curves are computed for a 2-D array of frames at once
(``yin_difference_rows``, ``cmnd_rows``, ``nccf_rows``): window
energies come from one cumulative sum along each row, and the
cross-correlation from one FFT round trip per block of rows, blocks
being capped at a fixed spectrum size so they stay in cache. The
engines run their per-frame chains over ``row_blocks`` of an
utterance's frames, so temporaries stay per block. The one-frame
functions ``yin_difference``, ``cmnd`` and ``nccf`` run the same code
on a single row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.signal
from scipy.fft import next_fast_len, rfft, irfft


@dataclass
class AudioSignal:
    """A mono waveform with nominal amplitude range [-1, 1].

    Parameters
    ----------
    samples : array-like, shape (n,)
        Amplitude sequence. Must be finite everywhere.
    sample_rate_hz : float
        Sampling rate in Hz, > 0.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        self.samples = samples
        self.sample_rate_hz = float(self.sample_rate_hz)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass
class FrameGrid:
    """Layout of centered analysis frames over a signal.

    Frame k is centered on sample k * hop_samples, so its timestamp is
    k * hop_samples / sample_rate. With centering, a signal of length L
    yields floor(L / hop) + 1 frames (empty signals yield none).
    """

    frame_len_samples: int
    hop_samples: int
    n_frames: int
    centered: bool = True

    def __post_init__(self):
        if self.frame_len_samples <= 0:
            raise ValueError(f"frame_len_samples must be > 0, got {self.frame_len_samples}")
        if self.hop_samples <= 0:
            raise ValueError(f"hop_samples must be > 0, got {self.hop_samples}")
        if self.n_frames < 0:
            raise ValueError(f"n_frames must be >= 0, got {self.n_frames}")

    def timestamp_s(self, frame_index: int, sample_rate_hz: float) -> float:
        return frame_index * self.hop_samples / sample_rate_hz


@dataclass
class LagCurve:
    """A real-valued function of integer lag (in samples).

    Holds YIN difference, CMND and NCCF curves alike. ``values[i]``
    corresponds to lag ``min_lag_samples + i``.
    """

    values: np.ndarray
    min_lag_samples: int
    max_lag_samples: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if self.min_lag_samples < 0:
            raise ValueError(f"min_lag_samples must be >= 0, got {self.min_lag_samples}")
        if self.min_lag_samples > self.max_lag_samples:
            raise ValueError(
                f"min_lag {self.min_lag_samples} exceeds max_lag {self.max_lag_samples}"
            )
        expected = self.max_lag_samples - self.min_lag_samples + 1
        if values.size != expected:
            raise ValueError(f"expected {expected} values, got {values.size}")
        self.values = values

    def value_at(self, lag: int) -> float:
        if not self.min_lag_samples <= lag <= self.max_lag_samples:
            raise ValueError(f"lag {lag} outside [{self.min_lag_samples}, {self.max_lag_samples}]")
        return float(self.values[lag - self.min_lag_samples])

    def lags(self) -> np.ndarray:
        return np.arange(self.min_lag_samples, self.max_lag_samples + 1)


def frame_signal(
    signal: AudioSignal, frame_len_samples: int, hop_samples: int
) -> tuple[np.ndarray, FrameGrid]:
    """Slice a signal into frames centered on multiples of the hop.

    Frame k spans samples ``k*hop - frame_len//2 .. + frame_len`` of the
    input, zero-padded where it extends past either edge, so frame k's
    middle element is sample ``k*hop``. An empty signal yields zero
    frames.

    Returns
    -------
    frames : ndarray, shape (n_frames, frame_len_samples)
    grid : FrameGrid
    """
    if frame_len_samples <= 0:
        raise ValueError(f"frame_len_samples must be > 0, got {frame_len_samples}")
    if hop_samples <= 0:
        raise ValueError(f"hop_samples must be > 0, got {hop_samples}")

    x = signal.samples
    if x.size == 0:
        grid = FrameGrid(frame_len_samples, hop_samples, 0)
        return np.zeros((0, frame_len_samples)), grid

    n_frames = x.size // hop_samples + 1
    half = frame_len_samples // 2
    # padded start of frame k is k*hop; right pad covers the last frame
    needed = (n_frames - 1) * hop_samples + frame_len_samples
    padded = np.pad(x, (half, max(0, needed - half - x.size)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, frame_len_samples)
    frames = windows[:: hop_samples][:n_frames].copy()
    grid = FrameGrid(frame_len_samples, hop_samples, n_frames)
    return frames, grid


# Spectrum bytes one FFT block may hold: small blocks stay in cache, where
# a whole utterance's 2-D transform at 48 kHz is slower than a frame loop.
_BLOCK_SPECTRUM_BYTES = 512 * 1024


def _fft_size(size: int, max_lag: int) -> int:
    # room for the linear (not circular) correlation of a frame with its head
    return next_fast_len(2 * size - max_lag)


def _block_rows(size: int, max_lag: int) -> int:
    """Rows per FFT block of :func:`_lag_terms` for frames of ``size`` samples."""
    return max(1, _BLOCK_SPECTRUM_BYTES // (16 * (_fft_size(size, max_lag) // 2 + 1)))


def row_blocks(frames: np.ndarray, max_lag: int) -> list[np.ndarray]:
    """Consecutive row blocks of ``frames``, each one FFT block of the lag
    stage. Running a per-frame chain block by block keeps its temporaries
    per block rather than per utterance."""
    step = _block_rows(frames.shape[1], max_lag)
    return [frames[start : start + step] for start in range(0, frames.shape[0], step)]


def _lag_terms(frames: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy and correlation terms of every row's lag curves.

    With ``width = frames.shape[1] - max_lag``, row r yields its head
    energy ``sum_{j<width} x[j]^2``, the lagged-window energies
    ``sum_{j<width} x[j+tau]^2`` and the cross-correlation
    ``sum_{j<width} x[j] x[j+tau]`` for tau in 0..max_lag. The
    correlation runs one FFT round trip per block of rows, with blocks
    capped at ``_BLOCK_SPECTRUM_BYTES`` of spectrum.
    """
    n_rows, size = frames.shape
    width = size - max_lag
    energy = np.zeros((n_rows, size + 1))
    np.cumsum(frames * frames, axis=1, out=energy[:, 1:])
    head = energy[:, width]
    lagged = energy[:, width : width + max_lag + 1] - energy[:, : max_lag + 1]

    n = _fft_size(size, max_lag)
    step = _block_rows(size, max_lag)
    cross = np.empty((n_rows, max_lag + 1))
    for start in range(0, n_rows, step):
        block = frames[start : start + step]
        spec = rfft(block, n, axis=1)
        spec *= np.conj(rfft(block[:, :width], n, axis=1))
        cross[start : start + step] = irfft(spec, n, axis=1)[:, : max_lag + 1]
    return head, lagged, cross


def _check_lags(size: int, min_lag: int, max_lag: int) -> None:
    if min_lag > max_lag:
        raise ValueError(f"min_lag {min_lag} exceeds max_lag {max_lag}")
    if not max_lag < size / 2:
        raise ValueError(f"max_lag {max_lag} must be < half the frame length {size}")


def yin_difference_rows(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """:func:`yin_difference` of every row of a 2-D frame array."""
    frames = np.asarray(frames, dtype=np.float64)
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    _check_lags(frames.shape[1], 1, max_lag)
    head, lagged, cross = _lag_terms(frames, max_lag)
    d = head[:, None] + lagged - 2.0 * cross
    np.maximum(d, 0.0, out=d)  # clip FFT round-off below zero
    d[:, 0] = 0.0
    return d


def cmnd_rows(diff: np.ndarray) -> np.ndarray:
    """:func:`cmnd` of every row of a 2-D array of difference curves."""
    out = np.ones_like(diff)
    running = np.cumsum(diff[:, 1:], axis=1)
    taus = np.arange(1, diff.shape[1])
    np.divide(diff[:, 1:] * taus, running, out=out[:, 1:], where=running > 0)
    return out


def nccf_rows(frames: np.ndarray, min_lag: int, max_lag: int) -> np.ndarray:
    """:func:`nccf` values of every row of a 2-D frame array."""
    frames = np.asarray(frames, dtype=np.float64)
    if min_lag < 1:
        raise ValueError(f"min_lag must be >= 1, got {min_lag}")
    _check_lags(frames.shape[1], min_lag, max_lag)
    head, lagged, cross = _lag_terms(frames, max_lag)
    denom_sq = head[:, None] * lagged[:, min_lag:]
    values = np.zeros_like(denom_sq)
    np.divide(cross[:, min_lag:], np.sqrt(denom_sq), out=values, where=denom_sq > 0)
    np.clip(values, -1.0, 1.0, out=values)
    return values


def yin_difference(frame: np.ndarray, max_lag: int) -> LagCurve:
    """Squared-difference curve d(tau) = sum_j (x[j] - x[j+tau])^2.

    The sum runs over a fixed window of ``len(frame) - max_lag`` terms so
    every lag accumulates the same number of differences. d(0) is 0 and
    all values are non-negative.

    Requires ``max_lag < len(frame) / 2``.
    """
    frame = np.asarray(frame, dtype=np.float64)
    return LagCurve(yin_difference_rows(frame[None], max_lag)[0], 0, max_lag)


def cmnd(diff: LagCurve) -> LagCurve:
    """Cumulative mean normalized difference d'(tau).

    d'(0) = 1 and d'(tau) = d(tau) * tau / sum_{j<=tau} d(j). Where the
    running sum is zero (silence), d'(tau) is defined as 1 so silent
    frames never look periodic.
    """
    values = cmnd_rows(diff.values[None])[0]
    return LagCurve(values, diff.min_lag_samples, diff.max_lag_samples)


def nccf(frame: np.ndarray, min_lag: int, max_lag: int) -> LagCurve:
    """Normalized cross-correlation over lags in [min_lag, max_lag].

    phi(tau) = sum_j x[j]x[j+tau] / sqrt(sum_j x[j]^2 * sum_j x[j+tau]^2)
    with j running over a fixed window of ``len(frame) - max_lag`` terms.
    Values lie in [-1, 1]; lags where either energy term vanishes map
    to 0.

    Requires ``min_lag >= 1`` and ``max_lag < len(frame) / 2``.
    """
    frame = np.asarray(frame, dtype=np.float64)
    return LagCurve(nccf_rows(frame[None], min_lag, max_lag)[0], min_lag, max_lag)


def _bandpass_taps(low_hz: float, high_hz: float, sample_rate_hz: float) -> np.ndarray:
    # Hamming windowed sinc; transition width ~ low edge so a tone one
    # octave below the edge already sits in the stopband. Odd tap count
    # keeps the group delay an integer number of samples.
    numtaps = int(math.ceil(3.3 * sample_rate_hz / low_hz))
    numtaps |= 1
    return scipy.signal.firwin(numtaps, [low_hz, high_hz], pass_zero=False, fs=sample_rate_hz)


def bandpass_filter(signal: AudioSignal, low_hz: float, high_hz: float) -> AudioSignal:
    """Linear-phase FIR bandpass with group-delay compensation.

    Output has the same length and rate as the input and stays aligned
    with it (the filter's integer group delay is removed), so frame
    timestamps survive filtering. Band edges must satisfy
    ``0 < low_hz < high_hz < sample_rate / 2``.
    """
    rate = signal.sample_rate_hz
    if not 0 < low_hz < high_hz < rate / 2:
        raise ValueError(
            f"band [{low_hz}, {high_hz}] Hz must lie strictly inside (0, {rate / 2}) Hz"
        )
    x = signal.samples
    if x.size == 0:
        return AudioSignal(x.copy(), rate)
    taps = _bandpass_taps(low_hz, high_hz, rate)
    delay = taps.size // 2
    y = scipy.signal.fftconvolve(x, taps, mode="full")[delay : delay + x.size]
    return AudioSignal(y, rate)


def parabolic_refine(curve: LagCurve, lag: int) -> float:
    """Refine an extremum location to fractional-lag precision.

    Fits a parabola through the curve values at ``lag - 1, lag, lag + 1``
    and returns the abscissa of its vertex, clamped to ``[lag-1, lag+1]``.
    Collinear points, or a lag on the curve boundary, return ``lag``
    unchanged.
    """
    if not curve.min_lag_samples <= lag <= curve.max_lag_samples:
        raise ValueError(
            f"lag {lag} outside [{curve.min_lag_samples}, {curve.max_lag_samples}]"
        )
    if lag in (curve.min_lag_samples, curve.max_lag_samples):
        return float(lag)
    i = lag - curve.min_lag_samples
    y = curve.values
    return float(parabolic_vertex(y[i - 1], y[i], y[i + 1], lag))


def parabolic_vertex(y0, y1, y2, lag):
    """Elementwise core of :func:`parabolic_refine` for interior lags.

    ``y0, y1, y2`` are the curve values at ``lag - 1, lag, lag + 1``;
    scalars and arrays alike broadcast.
    """
    denom = y0 - 2.0 * y1 + y2
    flat = denom == 0.0
    vertex = lag + 0.5 * (y0 - y2) / np.where(flat, 1.0, denom)
    return np.where(flat, lag, np.minimum(np.maximum(vertex, lag - 1.0), lag + 1.0))
