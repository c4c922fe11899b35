"""Frame-level signal primitives shared by the pitch engines.

Frame placement, lag-frame sizing and centered framing, the min-cost
trellis decoder both engines smooth their tracks with, windowed-sinc
bandpass filtering, parabolic lag refinement, and the three lag-domain
curves the time-domain estimators are built on: the YIN difference
function, its cumulative mean normalized form (CMND), and the
normalized cross-correlation function (NCCF).

The lag curves are computed for a 2-D array of frames at once
(``yin_difference_rows``, ``cmnd_rows``, ``nccf_rows``): window
energies come from one cumulative sum along each row, and the
cross-correlation from one FFT round trip. The engines call these row
functions one block of frames at a time (frames are views of the
signal), and the one-frame functions ``yin_difference``, ``cmnd`` and
``nccf`` call them on a single row.

One block budget sizes every block. The lag stage allocates its block
arrays: they come one after another in the same few sizes, which the
allocator serves again without new page faults. The bandpass spectrum,
the squared branch, the decimation phases, the spectral stage's frames
and spectra and SHC scoring take theirs from a :func:`workspace`, a
per-thread buffer kept across calls: allocated afresh, the first three
let the allocator hand memory back to the system after some utterances
and fault it in again.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.fft import irfft, rfft
from scipy.fft import next_fast_len


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


def frame_centers(n_samples: int, hop_ms: float, sample_rate_hz: float) -> np.ndarray:
    """Sample on which each analysis frame of a signal is centered.

    With a hop of ``hop_ms * rate / 1000`` samples (not rounded), frame
    k is centered on ``round(k * hop)`` for k = 0 .. floor(n / hop),
    rounding half to even. Frame k thus lies within half a sample of
    ``k * hop_ms`` ms at every rate, and frames do not drift when the
    hop is not a whole number of samples. An empty signal has no frames.
    """
    hop = hop_ms * sample_rate_hz / 1000.0
    if not hop > 0:
        raise ValueError(f"hop must be > 0 samples, got {hop}")
    n_frames = int(n_samples // hop) + 1 if n_samples else 0
    return np.round(np.arange(n_frames) * hop).astype(np.int64)


def lag_frame_len(frame_len_ms: float, sample_rate_hz: float, fmin_hz: float) -> int:
    """Samples per frame of a lag search down to ``fmin_hz``.

    The nominal ``frame_len_ms``, grown where needed to ``2 * L + 1``
    samples with ``L = floor(rate / fmin)``: lag curves need a longest
    lag below half the frame, so the search then always reaches the
    period of ``fmin`` instead of being clipped short of it.
    """
    nominal = int(round(frame_len_ms * sample_rate_hz / 1000.0))
    return max(nominal, 2 * int(math.floor(sample_rate_hz / fmin_hz)) + 1)


def frame_signal(samples: np.ndarray, frame_len_samples: int, centers: np.ndarray) -> np.ndarray:
    """Frames of ``frame_len_samples`` samples centered on ``centers``.

    Row k spans samples ``centers[k] - frame_len//2 .. + frame_len`` of
    the input, zero-padded where it extends past either edge, so its
    middle element is sample ``centers[k]``. Returns a read-only array of
    shape ``(len(centers), frame_len_samples)``: a strided view of the
    input when the centers rise by a whole hop, copying only to pad an
    edge, else a copy.
    """
    if frame_len_samples <= 0:
        raise ValueError(f"frame_len_samples must be > 0, got {frame_len_samples}")
    centers = np.asarray(centers, dtype=np.int64)
    if centers.size == 0:
        frames = np.zeros((0, frame_len_samples))
        frames.flags.writeable = False
        return frames
    step = int(centers[1] - centers[0]) if centers.size > 1 else 1
    even = step > 0 and bool((centers[1:] - centers[:-1] == step).all())
    low, high = (centers[0], centers[-1]) if even else (centers.min(), centers.max())
    low, high = int(low), int(high)
    if low < 0:
        raise ValueError(f"frame centers must be >= 0, got {low}")
    x = np.ascontiguousarray(samples, dtype=np.float64)
    # window only the span the frames cover, copied only to pad an edge, so
    # framing costs what it returns however long the signal; span[i] is
    # sample first + i
    first = low - frame_len_samples // 2
    stop = high - frame_len_samples // 2 + frame_len_samples
    span = x[max(first, 0) : stop]
    if first < 0 or stop > x.size:
        padded = np.zeros(stop - first)
        padded[max(0, -first) : max(0, -first) + span.size] = span
        span = padded
    if even:
        shape, strides = (centers.size, frame_len_samples), (8 * step, 8)
    else:
        shape, strides = (span.size - frame_len_samples + 1, frame_len_samples), (8, 8)
    frames = np.ndarray(shape, np.float64, span, 0, strides)
    if not even:
        frames = frames[centers - low]
    frames.flags.writeable = False
    return frames


def min_cost_path(
    costs: Sequence[np.ndarray], transition: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Cheapest state sequence through a trellis; returns one state index
    per frame.

    ``costs[t][j]`` is the cost of state j at frame t and
    ``transition(t)`` the matrix of costs of moving from each state of
    frame t-1 (rows) to each state of frame t (columns); a path costs
    the sum of its state and transition costs. Frames may differ in
    their number of states, and costs may be infinite. Ties, at every
    step and at the end, go to the lowest state index.
    """
    n_frames = len(costs)
    if n_frames == 0:
        return np.zeros(0, dtype=np.int64)
    cost = np.array(costs[0], dtype=np.float64)
    backptrs = []
    for t in range(1, n_frames):
        stepped = cost[:, None] + transition(t)
        back = stepped.argmin(axis=0)
        backptrs.append(back)
        cost = stepped.min(axis=0) + costs[t]  # the value at ``back``

    states = np.zeros(n_frames, dtype=np.int64)
    states[-1] = int(np.argmin(cost))
    for t in range(n_frames - 1, 0, -1):
        states[t - 1] = backptrs[t - 1][states[t]]
    return states


# Bytes one block of rows may take, all its arrays together: a
# block this size stays in cache, where a whole utterance's 2-D transform
# at 48 kHz is slower than a loop over blocks. It gives the lag stage the
# row counts its old spectrum cap gave (21 pYIN frames at 48 kHz, 63 at
# 16 kHz), and holds a 1 s utterance's bandpass spectrum with its squared
# branch, and its decimation phases at 48 kHz.
_BLOCK_BYTES = 960 * 1024
_ALIGN = 64  # bytes; each workspace array starts on a cache line


def budget_rows(row_bytes: int) -> int:
    """Rows per block when each row takes ``row_bytes``."""
    return max(1, _BLOCK_BYTES // row_bytes)


class _Arena(threading.local):
    """The calling thread's workspace: one byte buffer of the block budget,
    kept across calls and utterances, handed out front to back."""

    def __init__(self):
        self.buffer = np.empty(0, dtype=np.uint8)
        self.used = 0


_arena = _Arena()


@contextmanager
def workspace() -> Iterator[Callable[..., np.ndarray]]:
    """A ``take(shape, dtype)`` that hands out uninitialised arrays, like
    ``np.empty``, from the thread's reusable buffer; they stay valid until
    the ``with`` block ends. Arrays that no longer fit the buffer are
    allocated afresh. Nothing that leaves the package may be a view of
    one: public functions copy their results out."""
    arena = _arena
    if not arena.buffer.size:
        # room for the alignment padding of a block's arrays
        arena.buffer = np.empty(_BLOCK_BYTES + 16 * _ALIGN, dtype=np.uint8)
    mark = arena.used

    def take(shape, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = -(-arena.used // _ALIGN) * _ALIGN
        arena.used = start + math.prod(shape) * dtype.itemsize
        if arena.used > arena.buffer.size:
            return np.empty(shape, dtype)
        return arena.buffer[start : arena.used].view(dtype).reshape(shape)

    try:
        yield take
    finally:
        arena.used = mark


def _block_rows(size: int) -> int:
    """Rows per block of the lag stage for frames of ``size`` samples: as
    many as its arrays (energies and two spectra) keep within the block
    budget."""
    n = next_fast_len(size, real=True)
    return budget_rows(8 * (size + 1) + 32 * (n // 2 + 1))


def _lag_terms(frames: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy and correlation terms of every row's lag curves.

    With ``width = frames.shape[1] - max_lag``, row r yields its head
    energy ``sum_{j<width} x[j]^2``, the lagged-window energies
    ``sum_{j<width} x[j+tau]^2`` and the cross-correlation
    ``sum_{j<width} x[j] x[j+tau]`` for tau in 0..max_lag, in one energy
    array and two spectra: the inverse transform overwrites the head's
    spectrum, and the lagged energies the frames' spectrum, once each is
    spent. The correlation is one FFT round trip. Its terms reach sample
    ``width - 1 + max_lag = size - 1`` at most, so a circular
    correlation over ``size`` points or more never wraps around: the
    transform is the fastest length of at least ``size``.
    """
    n_rows, size = frames.shape
    width = size - max_lag
    energy = np.empty((n_rows, size + 1))
    energy[:, 0] = 0.0
    np.multiply(frames, frames, out=energy[:, 1:])
    np.cumsum(energy[:, 1:], axis=1, out=energy[:, 1:])

    n = next_fast_len(size, real=True)
    spec = rfft(frames, n, axis=1)
    head_spec = rfft(frames[:, :width], n, axis=1)
    spec *= np.conjugate(head_spec, out=head_spec)
    cross = irfft(spec, n, axis=1, out=head_spec.view(np.float64)[:, :n])
    lagged = spec.view(np.float64)[:, : max_lag + 1]
    np.subtract(energy[:, width : width + max_lag + 1], energy[:, : max_lag + 1], out=lagged)
    return energy[:, width], lagged, cross[:, : max_lag + 1]


def _check_lags(size: int, min_lag: int, max_lag: int) -> None:
    if min_lag > max_lag:
        raise ValueError(f"min_lag {min_lag} exceeds max_lag {max_lag}")
    if not max_lag < size / 2:
        raise ValueError(f"max_lag {max_lag} must be < half the frame length {size}")


def check_search_band(
    lag_min: int, lag_max: int, fmin_hz: float, fmax_hz: float, sample_rate_hz: float
) -> None:
    """Reject a pitch search whose lags ``lag_min .. lag_max`` hold no
    interior lag, where no curve extremum can be found."""
    if lag_min >= lag_max:
        raise ValueError(
            f"pitch search range {fmin_hz}-{fmax_hz} Hz spans less than"
            f" two lags at {sample_rate_hz} Hz"
        )


# The row functions finish the lag terms in place, with the operations of
# their textbook forms in the same order, so each value has the bits the
# out-of-place expression would give it.

def yin_difference_rows(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """:func:`yin_difference` of every row of a 2-D frame array."""
    frames = np.asarray(frames, dtype=np.float64)
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    _check_lags(frames.shape[1], 1, max_lag)
    head, d, cross = _lag_terms(frames, max_lag)
    d += head[:, None]  # head + lagged - 2 cross
    cross *= 2.0
    d -= cross
    np.maximum(d, 0.0, out=d)  # clip FFT round-off below zero
    d[:, 0] = 0.0
    return d


def cmnd_rows(diff: np.ndarray) -> np.ndarray:
    """:func:`cmnd` of every row of a 2-D array of difference curves."""
    out = np.empty_like(diff)
    out[:, 0] = 1.0
    running = np.cumsum(diff[:, 1:], axis=1)
    tail = out[:, 1:]
    np.multiply(diff[:, 1:], np.arange(1, diff.shape[1]), out=tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail /= running
    tail[~(running > 0)] = 1.0
    return out


def nccf_rows(frames: np.ndarray, min_lag: int, max_lag: int) -> np.ndarray:
    """:func:`nccf` values of every row of a 2-D frame array."""
    frames = np.asarray(frames, dtype=np.float64)
    if min_lag < 1:
        raise ValueError(f"min_lag must be >= 1, got {min_lag}")
    _check_lags(frames.shape[1], min_lag, max_lag)
    head, lagged, cross = _lag_terms(frames, max_lag)
    denom = lagged[:, min_lag:]
    denom *= head[:, None]
    values = cross[:, min_lag:]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(denom, out=denom)  # nan where round-off left it negative
        values /= denom
    values[~(denom > 0)] = 0.0  # either energy term vanishes
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


# a process needs a few designs: one bandpass per band and rate, one
# low-pass per decimation factor
@lru_cache(maxsize=32)
def _fir_taps(numtaps: int, low: float, high: float | None = None) -> np.ndarray:
    """Hamming-windowed sinc FIR taps, band edges as fractions of Nyquist.

    A low-pass to ``low`` when ``high`` is None, else a bandpass from
    ``low`` to ``high``; scaled to unit gain at DC or at the band centre.
    The steps are ``scipy.signal.firwin``'s, in its order, so the taps
    have its bits. Computed once per design; the array is read-only.
    """
    left, right = (0.0, low) if high is None else (low, high)
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = np.zeros(numtaps)
    h += right * np.sinc(right * m)
    h -= left * np.sinc(left * m)
    # the symmetric window as a cosine sum; np.hamming rounds differently
    window = np.zeros(numtaps)
    window += 0.54
    window += (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    h *= window
    centre = 0.5 * (left + right) if left else 0.0
    h /= np.sum(h * np.cos(np.pi * m * centre))
    h.flags.writeable = False
    return h


def _bandpass_taps(low_hz: float, high_hz: float, sample_rate_hz: float) -> np.ndarray:
    # Hamming windowed sinc; transition width ~ low edge so a tone one
    # octave below the edge already sits in the stopband. Odd tap count
    # keeps the group delay an integer number of samples.
    numtaps = int(math.ceil(3.3 * sample_rate_hz / low_hz))
    numtaps |= 1
    nyquist = 0.5 * sample_rate_hz
    return _fir_taps(numtaps, low_hz / nyquist, high_hz / nyquist)


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
    # the full linear convolution as scipy.signal.fftconvolve computes it,
    # for its bits: one FFT round trip at the fastest length, in this
    # operand order, or a plain product for a one-sample input
    if x.size == 1:
        return AudioSignal((x * taps)[delay : delay + 1], rate)
    n = next_fast_len(x.size + taps.size - 1, True)
    with workspace() as take:
        spectrum = rfft(x, n, out=take((n // 2 + 1,), np.complex128))
        spectrum *= _taps_spectrum(low_hz, high_hz, rate, n)
        full = irfft(spectrum, n)
    return AudioSignal(full[delay : delay + x.size], rate)


# the two branches of a YAAPT call share one, and so do files of one length
@lru_cache(maxsize=2)
def _taps_spectrum(low_hz: float, high_hz: float, sample_rate_hz: float, n: int) -> np.ndarray:
    """``n``-point spectrum of the bandpass taps, computed once per design
    and transform length; read-only."""
    spectrum = rfft(_bandpass_taps(low_hz, high_hz, sample_rate_hz), n)
    spectrum.flags.writeable = False
    return spectrum


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
