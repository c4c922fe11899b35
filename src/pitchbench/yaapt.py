"""YAAPT-style pitch engine: dual preprocessing, a spectral coarse
track, NCCF candidates, and dynamic-programming selection.

Preprocessing produces two signals: the original and a nonlinearity of
it (squaring by default, formed at the input rate), the latter
restoring fundamental-frequency energy when the signal carries mostly
harmonics. Each is decimated once, to one working rate of about 16 kHz,
and bandpassed there; each later stage reads that pair. The spectral stage
scores a log-spaced frequency grid with the spectral harmonics
correlation (SHC) of the *combined* spectrograms of both branches and
gates frames by the normalized low-frequency energy ratio (NLFER).
Because an SHC built from magnitude products rewards subharmonics
through window leakage on harmonic-poor signals, grid points whose own
spectral line is absent (below 5% of the band maximum) are excluded
before the argmax; a true fundamental always has a line in at least one
branch, while subharmonics never do. The final pass scores NCCF
candidates against the coarse track with additive costs in
log-frequency and picks the cheapest path by dynamic programming, ties
resolving toward the lower-frequency state with unvoiced ordered lowest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import rfft

from .signal import (
    AudioSignal,
    _block_rows,
    _check_engine_rate,
    _check_count,
    _check_engine_settings,
    _candidate_table,
    _decimate,
    _log2_ratios,
    _working_factor,
    bandpass_filter,
    budget_rows,
    frame_centers,
    frame_signal,
    lag_frame_len,
    min_cost_path,
    nccf_rows,
    parabolic_vertex,
)
from .trackio import PitchTrack

_NLFER_FFT = 1024
_SHC_FFT = 2048  # the SHC stage doubles the analysis window, needing more room
_GRID_STEPS_PER_OCTAVE = 24
_LINE_FLOOR = 0.05  # fraction of the band maximum a grid point's own line must reach
_BOUND_SPANS = 16  # spans per frame of the bound on a frame's windowed L1 norm


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
        _check_engine_settings(self)
        if not 0 < self.bp_low_hz < self.bp_high_hz:
            raise ValueError(f"bad band ({self.bp_low_hz}, {self.bp_high_hz})")
        _check_count(self, "shc_num_harmonics")
        if not self.shc_window_hz > 0:
            raise ValueError(f"shc_window_hz must be > 0, got {self.shc_window_hz}")
        if self.fmin_hz < self.shc_window_hz / 2:  # SHC terms would read below 0 Hz
            raise ValueError(
                f"fmin {self.fmin_hz} Hz is below half the SHC window {self.shc_window_hz} Hz"
            )
        if not self.nlfer_threshold > 0:
            raise ValueError(f"nlfer_threshold must be > 0, got {self.nlfer_threshold}")
        _check_count(self, "n_candidates_per_frame")
        # an infinite jump weight times a zero octave distance is a nan cost
        if not (0 <= self.dp_freq_jump_weight < math.inf and self.dp_voicing_switch_cost >= 0):
            raise ValueError(
                "dynamic-programming weights must be >= 0, the jump weight finite, got"
                f" ({self.dp_freq_jump_weight}, {self.dp_voicing_switch_cost})"
            )
        if self.nonlinearity not in ("square", "abs"):
            raise ValueError(f"nonlinearity must be 'square' or 'abs', got {self.nonlinearity!r}")

    def validate_rate(self, sample_rate_hz: float) -> None:
        _check_engine_rate(self, sample_rate_hz)
        # the bandpass, the SHC terms' range rule and the NCCF's lag rule, at the working rate
        working_rate = sample_rate_hz / _working_factor(sample_rate_hz)
        nyquist = working_rate / 2
        if not self.bp_high_hz < nyquist:
            raise ValueError(f"band edge {self.bp_high_hz} Hz must be below Nyquist {nyquist} Hz")
        shc_top = (self.shc_num_harmonics + 1) * self.fmax_hz + self.shc_window_hz / 2
        if shc_top > nyquist:
            raise ValueError(
                f"SHC reaches {shc_top} Hz ((shc_num_harmonics + 1) * fmax + shc_window / 2),"
                f" past the spectral stage's Nyquist {nyquist} Hz"
            )
        # the NLFER's band rule, at its resolution
        n_fft = max(_NLFER_FFT, lag_frame_len(self.frame_len_ms, working_rate, self.fmin_hz))
        _band_bins(self, working_rate / n_fft, n_fft // 2 + 1)
        _nccf_lags(working_rate, self)


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
        values = np.concatenate([self.coarse_f0_hz, self.nlfer])
        if not np.all((values >= 0) & (values < np.inf)):
            raise ValueError("coarse_f0_hz and nlfer must be finite and >= 0")

    def __len__(self) -> int:
        return self.coarse_f0_hz.size


class NccfCandidate(NamedTuple):
    f0_hz: float
    merit: float


def yaapt_preprocess(
    signal: AudioSignal, config: YaaptConfig
) -> tuple[AudioSignal, AudioSignal, np.ndarray]:
    """Bandpass the signal and a nonlinearity of it, at the working rate.

    Returns ``(plain, nonlinear, centers)``: the original and its
    nonlinearity (formed at the input rate), each decimated once to the
    working rate of about 16 kHz and bandpassed there, and the branch
    sample each frame is centered on, the one nearest the k-th of the
    signal's :func:`frame_centers`. Squaring the waveform creates energy
    at harmonic differences, so a missing fundamental reappears in the
    second branch; the bandpass removes the DC term squaring introduces.
    """
    rate = signal.sample_rate_hz
    config.validate_rate(rate)
    factor = _working_factor(rate)
    centers = np.round(frame_centers(len(signal), config.hop_ms, rate) / factor).astype(np.int64)

    def working(samples: np.ndarray) -> AudioSignal:
        return AudioSignal(_decimate(samples, factor), rate / factor)

    low, high = config.bp_low_hz, config.bp_high_hz
    x = signal.samples
    plain = bandpass_filter(working(x), low, high)
    nonlinear = bandpass_filter(
        working(x * x if config.nonlinearity == "square" else np.abs(x)), low, high
    )
    return plain, nonlinear, centers


def compute_nlfer(
    spectra: np.ndarray, config: YaaptConfig, freq_resolution_hz: float
) -> np.ndarray:
    """Normalized low-frequency energy ratio per frame.

    ``spectra`` is the utterance's magnitude spectrogram, one frame per
    row. Each frame's energy in [fmin, fmax] is divided by the mean of
    that band energy over all frames, so the returned values average to
    1; an all-silent utterance returns all zeros, and one without
    frames an empty array.
    """
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.ndim != 2:
        raise ValueError(f"expected a 2-D spectrogram, got shape {spectra.shape}")
    lo, hi = _band_bins(config, freq_resolution_hz, spectra.shape[1])
    band = spectra[:, lo : hi + 1]
    energy = np.sum(band * band, axis=1)
    mean = energy.mean() if energy.size else 0.0
    if mean == 0.0:
        return np.zeros(spectra.shape[0])
    return energy / mean


def _band_bins(config: YaaptConfig, freq_resolution_hz: float, n_bins: int) -> tuple[int, int]:
    """First and last of ``n_bins`` bins ``freq_resolution_hz`` apart that
    lie in [fmin, fmax]; raises ``ValueError`` if none does."""
    lo = int(math.ceil(config.fmin_hz / freq_resolution_hz))
    hi = min(int(math.floor(config.fmax_hz / freq_resolution_hz)), n_bins - 1)
    if lo > hi:
        raise ValueError(
            f"pitch search range {config.fmin_hz}-{config.fmax_hz} Hz holds no spectral bin"
            f" at a resolution of {freq_resolution_hz} Hz"
        )
    return lo, hi


def _shc_grid(
    spectra: np.ndarray,
    grid_hz: np.ndarray,
    config: YaaptConfig,
    freq_resolution_hz: float,
) -> np.ndarray:
    """Spectral harmonics correlation at every frequency f of a grid, of one
    spectrum or of every row of a 2-D array of spectra: the sum over window
    offsets f' in [-W/2, W/2], on the bin grid, of the product over
    r = 1 .. NH+1 of |S(r f + f')|. A term past the spectrum raises
    ``IndexError``."""
    idx = _shc_bins(grid_hz, config, freq_resolution_hz)
    if idx.max() >= spectra.shape[-1]:
        raise IndexError(f"SHC bin {idx.max()} is past the {spectra.shape[-1]} bins of a spectrum")
    # one (grid point, offset) slab per harmonic, as spectra[..., idx[:, r]]
    # with negative bins counting from the end, multiplied in harmonic
    # order: the order a product over a strided harmonic axis takes
    product = np.take(spectra, idx[:, 0], axis=-1, mode="wrap")
    for r in range(1, idx.shape[1]):
        product *= np.take(spectra, idx[:, r], axis=-1, mode="wrap")
    # NumPy sums a contiguous axis pairwise; summing over contiguous
    # offsets, as for one spectrum, gives every row the same bits as a
    # one-spectrum call
    return np.sum(product, axis=-1)


def _shc_bins(grid_hz: np.ndarray, config: YaaptConfig, freq_resolution_hz: float) -> np.ndarray:
    """Spectrum bin of each SHC term: ``[grid point, harmonic, window
    offset]``."""
    k = int(math.floor(config.shc_window_hz / 2.0 / freq_resolution_hz))
    harmonics = np.arange(1, config.shc_num_harmonics + 2)
    base = np.round(grid_hz[:, None] * harmonics[None, :] / freq_resolution_hz).astype(np.int64)
    return base[:, :, None] + np.arange(-k, k + 1)[None, None, :]


def _magnitudes(
    samples: np.ndarray,
    centers: np.ndarray,
    rows: np.ndarray,
    frame_len: int,
    n_fft: int,
    bins: int,
) -> np.ndarray:
    """Magnitudes of bins ``0 .. bins - 1`` of the ``n_fft``-point spectra
    of the Hann-windowed frames ``rows`` of a decimated branch, frame k
    centered on sample ``centers[k]``, cut and transformed a block at a
    time; a frame's spectrum has the same bits whichever frames share
    its block."""
    window = np.hanning(frame_len)
    mags = np.empty((rows.size, bins))
    step = budget_rows(8 * frame_len + 16 * (n_fft // 2 + 1))
    for start in range(0, rows.size, step):
        frames = frame_signal(samples, frame_len, centers[rows[start : start + step]]) * window
        np.abs(rfft(frames, n_fft, axis=1)[:, :bins], out=mags[start : start + step])
    return mags


def _l1_bounds(
    samples: np.ndarray, centers: np.ndarray, rows: np.ndarray, frame_len: int
) -> np.ndarray:
    """An upper bound on the windowed L1 norm ``sum |w x|`` of the frames
    ``rows`` as :func:`_magnitudes` cuts them, which bounds every magnitude
    of a frame's spectrum: over ``_BOUND_SPANS`` equal spans (one a sample
    in a shorter frame), the sum of the window's largest value in a span
    times the span's ``sum |x|``, read from one running sum of ``|x|``,
    with slack for rounding."""
    running = np.zeros(samples.size + 1)
    np.cumsum(np.abs(samples), out=running[1:])
    # a prefix sum errs by under n eps of the total, and a norm by under
    # frame_len eps of its value (eps = 2^-52); the slack is four times each,
    # plus frame_len smallest subnormals for products that underflow
    slack = 2.0 ** -50 * samples.size * running[-1]
    if not slack < np.inf:  # a span's sum could read inf - inf
        return np.full(rows.size, np.inf)
    spans = min(_BOUND_SPANS, frame_len)
    edges = np.arange(spans + 1) * frame_len // spans
    weights = np.maximum.reduceat(np.hanning(frame_len), edges[:-1])
    ends = np.clip((centers[rows] - frame_len // 2)[:, None] + edges, 0, samples.size)
    sums = np.diff(running[ends], axis=1)
    sums += slack
    return (sums * weights).sum(axis=1) * (1.0 + 2.0 ** -50 * frame_len) + frame_len * 5e-324


def _grid_frequencies(config: YaaptConfig) -> np.ndarray:
    n_steps = int(math.floor(math.log2(config.fmax_hz / config.fmin_hz) * _GRID_STEPS_PER_OCTAVE))
    return config.fmin_hz * 2.0 ** (np.arange(n_steps + 1) / _GRID_STEPS_PER_OCTAVE)


def spectral_pitch_track(
    branches: tuple[AudioSignal, AudioSignal, np.ndarray], config: YaaptConfig
) -> SpectralTrack:
    """Coarse pitch from the spectrogram stage, gated by NLFER, on the
    working-rate branches and frame centers of :func:`yaapt_preprocess`."""
    plain, nonlinear, centers = branches
    rate = plain.sample_rate_hz
    frame_len = lag_frame_len(config.frame_len_ms, rate, config.fmin_hz)
    n_fft = max(_NLFER_FFT, frame_len)
    res = rate / n_fft
    # NLFER reads no bin above fmax
    bins = min(int(math.floor(config.fmax_hz / res)), n_fft // 2) + 1
    every = np.arange(centers.size)
    nlfer = compute_nlfer(
        _magnitudes(plain.samples, centers, every, frame_len, n_fft, bins), config, res
    )
    coarse = np.zeros(centers.size)
    gated = np.flatnonzero(nlfer >= config.nlfer_threshold)
    if not gated.size:
        return SpectralTrack(coarse, nlfer)

    # Combine the branches on equal footing, each scaled by its own
    # utterance-wide peak so absolute gain cancels; only gated frames are
    # scored, so only theirs are kept. Another frame can raise the peak
    # only if its windowed L1 norm reaches the gated frames' peak (less
    # 1e-9 for round-off), so only those whose upper bound on that norm
    # reaches it are transformed: bit for bit the peak over all frames.
    frame_len *= 2  # the narrower mainlobe keeps near-miss harmonic combs on sidelobes
    n_fft = max(_SHC_FFT, frame_len)
    freq_res, bins = rate / n_fft, n_fft // 2 + 1
    rest = np.delete(every, gated)
    combined = None
    for samples in (plain.samples, nonlinear.samples):
        mags = _magnitudes(samples, centers, gated, frame_len, n_fft, bins)
        peak = mags.max(initial=0.0)
        loud = rest[_l1_bounds(samples, centers, rest, frame_len) >= peak * (1.0 - 1e-9)]
        peak = _magnitudes(samples, centers, loud, frame_len, n_fft, bins).max(initial=peak)
        if peak > 0:
            mags /= peak
        combined = mags if combined is None else np.add(combined, mags, out=combined)

    grid = _grid_frequencies(config)
    grid_bins = np.round(grid / freq_res).astype(np.int64)
    lo, hi = _band_bins(config, freq_res, bins)

    # Absent harmonics enter the SHC product at a fixed floor rather than
    # at the leakage level: a spectrum with two real lines then always
    # outscores one with a single line, instead of the argmax drifting on
    # leakage noise when the signal is harmonic-poor. Only the bins the SHC
    # terms reach are floored, the floor still set by the whole spectrum. A
    # block's arrays per frame are its floored bins, one harmonic's gathered
    # terms and their running product.
    terms = _shc_bins(grid, config, freq_res)
    reach = int(terms.max()) + 1
    step = budget_rows(8 * (reach + 2 * grid.size * terms.shape[-1]))
    for start in range(0, gated.size, step):
        spectra = combined[start : start + step]
        band_peak = spectra[:, lo : hi + 1].max(axis=1, keepdims=True)
        line_ok = spectra[:, grid_bins] >= _LINE_FLOOR * band_peak
        line_ok[~line_ok.any(axis=1)] = True  # degenerate; fall back to the full grid
        floored = np.maximum(spectra[:, :reach], _LINE_FLOOR * spectra.max(axis=1, keepdims=True))
        shc = np.where(line_ok, _shc_grid(floored, grid, config, freq_res), -1.0)
        coarse[gated[start : start + step]] = grid[np.argmax(shc, axis=1)]
    return SpectralTrack(coarse, nlfer)


def _nccf_peaks(
    frames: np.ndarray, lag_min: int, lag_max: int, rate: float, config: YaaptConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates of a block of frames of one branch as (frame, f0, merit)
    arrays, by frame and then merit: each frame's
    ``n_candidates_per_frame`` highest positive NCCF maxima (ties to the
    shorter lag), refined parabolically."""
    v = nccf_rows(frames, lag_min, lag_max)
    inner = v[:, 1:-1]
    is_max = (inner > v[:, :-2]) & (inner >= v[:, 2:]) & (inner > 0)
    rows, cols = np.nonzero(is_max)
    cols += 1
    merit = v[rows, cols]
    order = np.lexsort((-merit, rows))  # stable: by frame, then merit descending
    rows, cols, merit = rows[order], cols[order], merit[order]
    top = _rank_in_frame(rows) < config.n_candidates_per_frame
    rows, cols, merit = rows[top], cols[top], merit[top]

    lags = cols + lag_min
    refined = parabolic_vertex(v[rows, cols - 1], merit, v[rows, cols + 1], lags)
    f0 = np.minimum(np.maximum(rate / refined, config.fmin_hz), config.fmax_hz)
    return rows, f0, merit


def _rank_in_frame(rows: np.ndarray) -> np.ndarray:
    """Position of each entry within its frame, for entries grouped by frame."""
    return np.arange(rows.size) - np.searchsorted(rows, rows)


def _merge_close(
    rows: np.ndarray, f0: np.ndarray, merit: np.ndarray, n_frames: int
) -> list[list[NccfCandidate]]:
    """Per frame, collapse candidates within 2% in frequency.

    Each frame's pool is taken in order of frequency, then merit
    descending, then input order. A candidate less than 2% above the
    first member of the current group joins it; otherwise it starts a
    new group. A group keeps its first member's frequency and the
    highest merit among its members (merits are positive NCCF values).
    """
    order = np.lexsort((-merit, f0, rows))  # stable: ties keep input order
    merged = [[] for _ in range(n_frames)]
    frame, lead, best = -1, 0.0, 0.0
    for r, f, m in zip(rows[order].tolist(), f0[order].tolist(), merit[order].tolist()):
        if r == frame and f / lead < 1.02:
            if m > best:
                best = m
            continue
        if frame >= 0:
            merged[frame].append(NccfCandidate(lead, best))
        frame, lead, best = r, f, m
    if frame >= 0:
        merged[frame].append(NccfCandidate(lead, best))
    return merged


def nccf_candidates(
    branches: tuple[AudioSignal, AudioSignal, np.ndarray], config: YaaptConfig
) -> list[list[NccfCandidate]]:
    """Per-frame pitch candidates from the NCCF of both working-rate
    branches of :func:`yaapt_preprocess`.

    Each branch contributes up to ``n_candidates_per_frame`` local
    maxima (merit = NCCF value, lag refined parabolically); the two
    lists are merged, collapsing candidates within 2% in frequency onto
    the higher merit. Silent frames yield empty lists.
    """
    plain, nonlinear, centers = branches
    rate = plain.sample_rate_hz
    frame_len = lag_frame_len(config.frame_len_ms, rate, config.fmin_hz)
    lag_min, lag_max = _nccf_lags(rate, config)

    # (frame, f0, merit) arrays per block of each branch; the empty first
    # entry stands in for an utterance without frames
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    step = _block_rows(frame_len)
    for branch in (plain, nonlinear):
        for start in range(0, centers.size, step):
            frames = frame_signal(branch.samples, frame_len, centers[start : start + step])
            rows, f0, merit = _nccf_peaks(frames, lag_min, lag_max, rate, config)
            parts.append((rows + start, f0, merit))
    rows, f0, merit = (np.concatenate(column) for column in zip(*parts))
    return _merge_close(rows, f0, merit, centers.size)


def _nccf_lags(rate: float, config: YaaptConfig) -> tuple[int, int]:
    """The NCCF's shortest and longest lag at the working rate ``rate``;
    raises ``ValueError`` unless a lag lies strictly between, as a peak needs."""
    lag_min = max(1, int(math.ceil(rate / config.fmax_hz)))
    lag_max = int(math.floor(rate / config.fmin_hz))
    if lag_max - lag_min < 2:
        raise ValueError(
            f"pitch search range {config.fmin_hz}-{config.fmax_hz} Hz spans less than two lags"
            f" at {rate} Hz, the NCCF's working rate (lags {lag_min}..{lag_max}, none between)"
        )
    return lag_min, lag_max


def yaapt_dp_select(
    candidates: list[list[NccfCandidate]],
    spectral: SpectralTrack,
    config: YaaptConfig,
    hop_seconds: float | None = None,
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

    The track's hop defaults to the config's. Raises ``ValueError`` for
    the first candidate, in frame order, whose f0 is not finite and
    > 0 or whose merit lies outside [0, 1].
    """
    n_frames = len(candidates)
    if n_frames != len(spectral):
        raise ValueError(
            f"frame count mismatch: {n_frames} candidate sets, {len(spectral)} spectral frames"
        )

    w_jump = config.dp_freq_jump_weight
    w_switch = config.dp_voicing_switch_cost

    rows, f0, merit = _candidate_table(candidates, "merit")
    # state 0 is unvoiced; voiced states follow in ascending frequency,
    # padded to the largest frame with states of frequency 0 and cost inf
    order = np.lexsort((f0, rows))  # stable: each frame's candidates by frequency
    rows, f0, merit = rows[order], f0[order], merit[order]
    cols = 1 + _rank_in_frame(rows)
    freqs = np.zeros((n_frames, cols.max(initial=0) + 1))
    freqs[rows, cols] = f0

    costs = np.full_like(freqs, np.inf)
    margin = spectral.nlfer - config.nlfer_threshold
    costs[:, 0] = np.where(margin > 0.0, margin, 0.0)
    local = 1.0 - merit
    coarse = spectral.coarse_f0_hz[rows]
    near = np.flatnonzero(coarse > 0)
    local[near] += w_jump * np.abs(_log2_ratios(f0[near], coarse[near]))
    costs[rows, cols] = local

    # every transition matrix at once; frame t's is trans[t - 1]
    prev, cur = freqs[:-1, :, None], freqs[1:, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        jump = w_jump * np.abs(np.log2(cur / prev))
    unvoiced = (prev == 0) & (cur == 0)
    trans = np.where((prev > 0) & (cur > 0), jump, np.where(unvoiced, 0.0, w_switch))

    # padded states follow every real one and cost inf, so none wins a step or the end
    states = min_cost_path(costs, lambda t: trans[t - 1])
    if hop_seconds is None:
        hop_seconds = config.hop_ms / 1000.0
    return PitchTrack(hop_seconds, freqs[np.arange(n_frames), states])


def yaapt_track(signal: AudioSignal, config: YaaptConfig | None = None) -> PitchTrack:
    """Run the full pipeline: preprocess, spectral track, NCCF, DP."""
    if config is None:
        config = YaaptConfig()
    branches = yaapt_preprocess(signal, config)
    spectral = spectral_pitch_track(branches, config)
    return yaapt_dp_select(nccf_candidates(branches, config), spectral, config)
