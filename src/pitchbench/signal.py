"""Frame-level signal primitives shared by the pitch engines.

Frame placement, lag-frame sizing and centered framing, the min-cost
trellis decoder both engines smooth their tracks with, the one reader of
their decoders' candidate lists, windowed-sinc bandpass filtering, the
decimator to the 16 kHz working rate both engines search at, parabolic
lag refinement, and the three lag-domain curves the
time-domain estimators are built on: the YIN difference function, its
cumulative mean normalized form (CMND), and the normalized
cross-correlation function (NCCF).

The lag curves are computed for a 2-D array of frames at once
(``yin_difference_rows``, ``cmnd_rows``, ``nccf_rows``): window
energies come from one cumulative sum along each row, and the
cross-correlation from one FFT round trip. The engines call these row
functions one block of frames at a time (frames are views of the
signal), and the one-frame functions ``yin_difference``, ``cmnd`` and
``nccf`` call them on a single row.

One block budget sizes every block, and every stage allocates its own
arrays. That they come back without new page faults rests on one
allocation at import, beside ``_BLOCK_BYTES``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence

import numpy as np
from numpy.fft import irfft, rfft


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
        if not np.all(np.isfinite(samples)):
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
    period of ``fmin`` instead of being clipped short of it. Raises
    ``ValueError`` for a frame longer than any float64 array can hold.
    """
    nominal = frame_len_ms * sample_rate_hz / 1000.0  # as floats, which cannot overflow
    longest_lag = sample_rate_hz / fmin_hz
    size = max(nominal, 2 * longest_lag + 1)
    if not size <= np.iinfo(np.intp).max // 8:  # an array's byte count is an intp
        raise ValueError(
            f"frame_len_ms {frame_len_ms} and fmin_hz {fmin_hz} at {sample_rate_hz} Hz give"
            f" frames of {size:.6g} samples, more than a float64 array can hold"
        )
    return max(int(round(nominal)), 2 * int(math.floor(longest_lag)) + 1)


def _check_engine_settings(config) -> None:
    """The setting rules both engines' configs share: 0 < fmin < fmax, and
    a frame and a hop that are finite and > 0."""
    if not 0 < config.fmin_hz < config.fmax_hz:
        raise ValueError(f"need 0 < fmin < fmax, got ({config.fmin_hz}, {config.fmax_hz})")
    if not (0 < config.frame_len_ms < math.inf and 0 < config.hop_ms < math.inf):
        raise ValueError(
            "frame_len_ms and hop_ms must be finite and > 0,"
            f" got ({config.frame_len_ms}, {config.hop_ms})"
        )


def _check_count(config, name: str) -> None:
    """A config field that counts something is a Python or NumPy integer >= 1."""
    value = getattr(config, name)
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value}")


def _check_engine_rate(config, sample_rate_hz: float) -> None:
    """The rate rules both engines' configs share: fmax below Nyquist, a
    hop of at least one sample (``frame_centers`` rounds each center to a
    sample, so a shorter hop would only repeat frames), a frame that fits."""
    nyquist = sample_rate_hz / 2
    if not config.fmax_hz < nyquist:
        raise ValueError(f"fmax {config.fmax_hz} Hz must be below Nyquist {nyquist} Hz")
    if config.hop_ms * sample_rate_hz / 1000.0 < 1:
        raise ValueError(
            f"hop {config.hop_ms} ms is shorter than one sample at {sample_rate_hz} Hz"
        )
    lag_frame_len(config.frame_len_ms, sample_rate_hz, config.fmin_hz)


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
    n_windows = span.size - frame_len_samples + 1  # window i is centered on sample low + i
    windows = np.ndarray((n_windows, frame_len_samples), np.float64, span, 0, (8, 8))
    frames = windows[::step] if even else windows[centers - low]
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


def _candidate_table(candidate_sets: Sequence, weight_name: str) -> tuple[np.ndarray, ...]:
    """Both decoders' per-frame ``(f0, weight)`` candidate lists as
    ``(rows, f0, weight)`` arrays, in frame order, then list order.
    Raises ``ValueError`` for the first candidate in that order that is
    not a pair; then for the first whose f0 is not finite and > 0 or
    whose weight lies outside [0, 1]."""
    flat = list(chain.from_iterable(candidate_sets))
    rows = np.repeat(np.arange(len(candidate_sets)), list(map(len, candidate_sets)))

    def named(i: int) -> str:
        return f"frame {rows[i]}, candidate {i - np.searchsorted(rows, rows[i])}"

    try:
        pairs = set(map(len, flat)) <= {2}
    except TypeError:  # a candidate without a length
        pairs = False
    if not pairs:
        i = next(i for i, c in enumerate(flat) if not (hasattr(c, "__len__") and len(c) == 2))
        raise ValueError(f"{named(i)}: {flat[i]!r} is not an (f0, {weight_name}) pair")
    f0, weight = np.fromiter(chain.from_iterable(flat), np.float64, 2 * len(flat)).reshape(-1, 2).T
    bad = np.flatnonzero(~((f0 > 0.0) & (f0 < np.inf) & (weight >= 0.0) & (weight <= 1.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{named(i)}: f0 {f0[i]} Hz must be finite and > 0 and {weight_name} {weight[i]}"
            " within [0, 1]"
        )
    return rows, f0, weight


def _log2_ratios(num: np.ndarray, den) -> np.ndarray:
    """``math.log2(num / den)`` per value, bit for bit; a ratio that underflows
    to 0 is taken as the least positive float, one that overflows as inf."""
    with np.errstate(over="ignore"):
        ratio = np.maximum(num / den, 5e-324)
    return np.fromiter(map(math.log2, ratio.tolist()), np.float64, ratio.size)


# Bytes one block of rows may take, all its arrays together: a
# block this size stays in cache, where a whole utterance's 2-D transform
# at 48 kHz is slower than a loop over blocks. It gives the lag stage the
# row counts its old spectrum cap gave (21 pYIN frames at 48 kHz, 63 at
# 16 kHz).
_BLOCK_BYTES = 960 * 1024

# glibc serves an allocation of at least M_MMAP_THRESHOLD bytes (128 KiB
# at start) by mmap; freeing such a block raises the threshold to its
# size, and glibc then trims the top of its heap only beyond twice that
# (mallopt(3)). The stages' arrays are a few hundred KiB to a few MiB, so
# with the initial thresholds glibc hands them back to the system between
# utterances and faults them in again. Freeing one untouched 8 MiB block
# here sets the thresholds once, as one 66 s utterance at 16 or 48 kHz would.
# Median minor faults per warm compare over the benchmark's corpora: 0
# at 16 kHz and 4 at 48 kHz, against 9.9k and 5.5k without the block. A 1
# or 2 MiB block left 2.4k-11k per compare at 16 kHz, and 3 MiB up to
# 1.6k; 4, 8 and 16 MiB left a median of 0; 32 MiB is past glibc's cap on
# the threshold and changes nothing. Elsewhere this is one allocation
# that touches no page.
np.empty(8 << 20, dtype=np.uint8)


def budget_rows(row_bytes: int) -> int:
    """Rows per block when each row takes ``row_bytes``."""
    return max(1, _BLOCK_BYTES // row_bytes)


# a search costs about 15 us, and the lag stage asks again for every block
# at one of a few frame sizes
@lru_cache(maxsize=64)
def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c that is at least ``n`` (``n`` >= 1): the
    length ``scipy.fft.next_fast_len(n, real=True)`` gives, so every
    transform keeps the bits it had at that length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the fewest doublings of p35 that reach n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _block_rows(size: int) -> int:
    """Rows per block of the lag stage for frames of ``size`` samples: as
    many as its arrays (energies and two spectra) keep within the block
    budget."""
    n = _fast_len(size)
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

    n = _fast_len(size)
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
    # a copy, so that the curve does not keep its row's spectrum alive
    return LagCurve(yin_difference_rows(frame[None], max_lag)[0].copy(), 0, max_lag)


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
    return LagCurve(nccf_rows(frame[None], min_lag, max_lag)[0].copy(), min_lag, max_lag)


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
    taps = _bandpass_taps(low_hz, high_hz, rate)
    delay = taps.size // 2
    # the full linear convolution as scipy.signal.fftconvolve computes it,
    # for its bits: one FFT round trip at the fastest length, in this
    # operand order, or a plain product for a one-sample input
    if x.size == 1:
        return AudioSignal((x * taps)[delay : delay + 1], rate)
    n = _fast_len(x.size + taps.size - 1)
    spectrum = rfft(x, n)
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


def _working_factor(rate: float) -> int:
    """Decimation factor that brings ``rate`` nearest the 16 kHz working rate."""
    return max(1, int(round(rate / 16000.0)))


def _decimate(samples: np.ndarray, factor: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Outputs ``lo .. hi - 1`` (by default all ``ceil(n / factor)``) of
    every ``factor``-th sample after a zero-phase low-pass to the new
    Nyquist (Hamming-windowed sinc, ``20 * factor + 1`` taps).

    Output m is centred on input sample ``m * factor``. Each output sums
    its terms from +0.0 in increasing input order, as the polyphase
    filter of ``scipy.signal.decimate(..., ftype="fir")`` does, so the
    bits are that function's whichever span is asked for.
    """
    n_out = -(-samples.size // factor)
    hi = n_out if hi is None else hi
    if factor == 1:
        return samples[lo:hi]
    half = 10 * factor
    taps = _fir_taps(2 * half + 1, 1.0 / factor)
    # padded[i] is samples[first + i], 0 outside them; phases[r, i] is
    # padded[i * factor + r], so input offset u = a * factor + r of output
    # lo + m is phases[r, m + a]
    n = hi - lo
    rows = n + 2 * half // factor
    first = lo * factor - half
    padded = np.zeros(rows * factor)
    start, stop = max(first, 0), min(first + padded.size, samples.size)
    padded[start - first : stop - first] = samples[start:stop]
    phases = padded.reshape(rows, factor).T.copy()
    out = np.zeros(n)
    for u in range(2 * half + 1):
        a, r = divmod(u, factor)
        out += phases[r, a : a + n] * taps[2 * half - u]
    return out


def parabolic_vertex(y0, y1, y2, lag):
    """Fractional lag of an extremum: the vertex of the parabola through
    the curve values ``y0, y1, y2`` at an interior ``lag - 1, lag, lag + 1``,
    clamped to ``[lag - 1, lag + 1]``; collinear points give ``lag``.
    Scalars and arrays alike broadcast."""
    denom = y0 - 2.0 * y1 + y2
    flat = denom == 0.0
    vertex = lag + 0.5 * (y0 - y2) / np.where(flat, 1.0, denom)
    return np.where(flat, lag, np.minimum(np.maximum(vertex, lag - 1.0), lag + 1.0))
