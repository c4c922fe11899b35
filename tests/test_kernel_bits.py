"""Each rewritten per-frame kernel against the literal form it replaced.

YAAPT's SHC product and floored reach, pYIN's threshold search, the
decoders' candidate flattening and the track writer each do less work
than their first forms with the same floating-point operations in the
same order. Each test runs the literal form beside the kernel, on random
inputs and on edge values (zeros, subnormals, 1e300), and compares
bytes. YAAPT's bound on a frame's windowed L1 norm is checked against
the literal norm it must never fall below.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitchbench import (
    NccfCandidate,
    PitchCandidate,
    PitchTrack,
    PyinConfig,
    YaaptConfig,
    spectral_pitch_track,
    yaapt_preprocess,
)
from pitchbench.pyin import _candidate_sets, _threshold_weights
from pitchbench.signal import (
    _candidate_table,
    cmnd_rows,
    frame_signal,
    parabolic_vertex,
    yin_difference_rows,
)
from pitchbench.trackio import write_track
from pitchbench.yaapt import _grid_frequencies, _l1_bounds, _shc_bins, _shc_grid
from conftest import all_frames_spectral, padded_tone, same_bits, sawtooth

EDGES = [0.0, 5e-324, 2.5e-310, 1e300]


def edge_values(rng, shape):
    """Positive random magnitudes, a quarter each replaced by 0, a
    subnormal and a value near 1e300."""
    values = np.abs(rng.standard_normal(shape))
    pick = rng.integers(0, 4, shape)
    values[pick == 1] = 0.0
    values[pick == 2] *= 1e-310
    values[pick == 3] *= 1e300
    return values


# ---------------------------------------------------------------------------
# YAAPT: SHC product, floored reach, L1 bound
# ---------------------------------------------------------------------------

SHC_CONFIGS = [
    YaaptConfig(),
    YaaptConfig(shc_window_hz=90.0, shc_num_harmonics=2),
    YaaptConfig(shc_num_harmonics=5, fmax_hz=250.0),
    YaaptConfig(shc_num_harmonics=1, fmin_hz=45.0),
]


def literal_shc(spectra, grid, config, freq_res):
    """Every term gathered at once, then the product over the strided
    harmonic axis and the sum over window offsets."""
    gathered = np.take(spectra, _shc_bins(grid, config, freq_res), axis=-1, mode="wrap")
    return np.sum(np.prod(gathered, axis=-2), axis=-1)


# products of terms near 1e300 overflow to inf, and inf times 0 is nan,
# on both sides alike
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestShcProduct:
    @pytest.mark.parametrize("config", SHC_CONFIGS)
    def test_random_and_edge_spectra(self, config):
        rng = np.random.default_rng(11)
        grid, freq_res = _grid_frequencies(config), 16000 / 2048
        cases = [np.abs(rng.standard_normal((40, 1025))), edge_values(rng, (40, 1025))]
        cases += [np.full((3, 1025), value) for value in EDGES]
        for spectra in cases:
            assert same_bits(_shc_grid(spectra, grid, config, freq_res),
                             literal_shc(spectra, grid, config, freq_res))
            assert same_bits(_shc_grid(spectra[0], grid, config, freq_res),
                             literal_shc(spectra[0], grid, config, freq_res))

    @pytest.mark.parametrize("config", SHC_CONFIGS)
    def test_floored_reach_scores_as_the_floored_spectrum(self, config):
        # the stage floors bins 0 .. max term alone, the floor still set by
        # the whole spectrum
        rng = np.random.default_rng(12)
        grid, freq_res = _grid_frequencies(config), 16000 / 2048
        reach = int(_shc_bins(grid, config, freq_res).max()) + 1
        for spectra in (np.abs(rng.standard_normal((30, 1025))), edge_values(rng, (30, 1025))):
            floor = 0.05 * spectra.max(axis=1, keepdims=True)
            assert same_bits(
                _shc_grid(np.maximum(spectra[:, :reach], floor), grid, config, freq_res),
                literal_shc(np.maximum(spectra, floor), grid, config, freq_res),
            )

    @pytest.mark.parametrize("gain", [1e-310, 1e-150, 1.0, 1e140])
    @pytest.mark.parametrize("config", [
        YaaptConfig(), YaaptConfig(shc_num_harmonics=5, fmax_hz=250.0, nlfer_threshold=0.3),
    ])
    def test_stage_at_edge_gains_matches_every_frame_transformed(self, gain, config):
        # all_frames_spectral transforms every frame whole and floors every bin
        rng = np.random.default_rng(13)
        tone = sawtooth(160.0, 0.6, 16000) + 0.05 * rng.standard_normal(9600)
        signal = padded_tone(gain * tone, 16000, 0.1, 0.1)
        track = spectral_pitch_track(yaapt_preprocess(signal, config), config)
        coarse, nlfer, _peak_frames = all_frames_spectral(signal, config)
        assert same_bits(track.coarse_f0_hz, coarse) and same_bits(track.nlfer, nlfer)


# 1.7e308: two of them overflow a running sum, and a norm, to inf
SAMPLE = st.one_of(
    st.floats(-1.0, 1.0), st.floats(-1e300, 1e300),
    st.sampled_from([-x for x in EDGES] + EDGES + [1.7e308]),
)


@st.composite
def framed_signals(draw):
    """Samples of any finite magnitude, a frame length and frame centers,
    some past either edge of the signal."""
    samples = np.array(draw(st.lists(SAMPLE, min_size=1, max_size=200)))
    frame_len = draw(st.integers(1, 48))
    limit = samples.size + frame_len
    centers = np.array(draw(st.lists(st.integers(0, limit), max_size=30)), dtype=np.int64)
    if draw(st.booleans()):  # evenly spaced, as frame_centers places them
        centers = np.arange(centers.size, dtype=np.int64) * draw(st.integers(1, 8))
    return samples, centers, frame_len


def literal_l1_norms(samples, centers, frame_len):
    """The windowed L1 norm ``sum |w x|`` of every frame, cut and windowed
    as the spectral stage cuts them: it bounds every magnitude of the
    frame's spectrum."""
    return np.abs(frame_signal(samples, frame_len, centers) * np.hanning(frame_len)).sum(axis=1)


class TestL1Bound:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(framed_signals())
    def test_bound_covers_every_norm(self, framed):
        samples, centers, frame_len = framed
        every = np.arange(centers.size)
        bounds = _l1_bounds(samples, centers, every, frame_len)
        assert np.all(bounds >= literal_l1_norms(samples, centers, frame_len))
        assert same_bits(_l1_bounds(samples, centers, every[::2], frame_len), bounds[::2])

    def test_edge_padded_frames_of_a_tone(self):
        # every frame of a 1 s tone at the engine's hop, the first and last
        # reaching past the signal; a plain sum would be about twice the norm
        tone = sawtooth(140.0, 1.0, 16000)
        centers = np.arange(101, dtype=np.int64) * 160
        norms = literal_l1_norms(tone, centers, 1120)
        bounds = _l1_bounds(tone, centers, np.arange(centers.size), 1120)
        assert np.all(bounds >= norms)
        interior = (centers >= 560) & (centers + 560 <= tone.size)
        assert np.all(bounds[interior] <= 1.15 * norms[interior])


# ---------------------------------------------------------------------------
# pYIN threshold search
# ---------------------------------------------------------------------------

def literal_candidate_sets(d, lag_min, config, rate):
    """The threshold search as first written: every local minimum, a full
    ceiling array and one slice sum per selected span."""
    lag_max = d.shape[1] - 1
    band = d[:, lag_min:lag_max]
    is_min = (band < d[:, lag_min - 1 : lag_max - 1]) & (band <= d[:, lag_min + 1 :])
    rows, cols = np.nonzero(is_min)
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
    f0 = np.minimum(np.maximum(rate / refined, config.fmin_hz), config.fmax_hz)
    order = np.lexsort((f0, rows))
    sets = [[] for _ in range(d.shape[0])]
    for r, f, m in zip(rows[order].tolist(), f0[order].tolist(), mass[order].tolist()):
        sets[r].append(PitchCandidate(f, m))
    return sets


def as_bits(candidate_sets):
    return [np.array(cands, dtype=np.float64).tobytes() for cands in candidate_sets]


class TestThresholdSearch:
    @pytest.mark.parametrize("n_thresholds", [1, 7, 100, 300, 1000])
    def test_span_sums_are_slice_sums(self, n_thresholds):
        # the kernel sums weights[a:b] for every span a < b with one reduceat
        # over the weights padded with one 0
        _thresholds, weights = _threshold_weights(PyinConfig(n_thresholds=n_thresholds))
        a, b = np.triu_indices(n_thresholds + 1, 1)
        spans = np.add.reduceat(np.append(weights, 0.0), np.stack([a, b], axis=1).ravel())[::2]
        assert same_bits(spans, np.array([weights[i:j].sum() for i, j in zip(a, b)]))

    @pytest.mark.parametrize("n_thresholds", [1, 7, 100, 300, 1000])
    def test_random_curves(self, n_thresholds):
        config = PyinConfig(n_thresholds=n_thresholds)
        thresholds, _weights = _threshold_weights(config)
        rng = np.random.default_rng(n_thresholds)
        # depths on the thresholds, at 1 and past it, and anywhere, so that
        # minima tie, sit on a threshold and reach the top one
        palette = np.concatenate([thresholds, [0.0, 1.0, 1.0, 1.3, 5e-324]])
        d = np.where(rng.random((60, 240)) < 0.5, rng.choice(palette, (60, 240)),
                     rng.uniform(0.0, 1.5, (60, 240)))
        d[:, 0] = 1.0
        for lag_min in (2, 40):
            assert as_bits(_candidate_sets(d, lag_min, config, 16000.0)) == as_bits(
                literal_candidate_sets(d, lag_min, config, 16000.0))

    @pytest.mark.parametrize("n_thresholds", [7, 100, 1000])
    def test_curves_of_a_noisy_tone(self, n_thresholds):
        config = PyinConfig(n_thresholds=n_thresholds)
        rng = np.random.default_rng(5)
        tone = sawtooth(180.0, 0.5, 16000) + 0.3 * rng.standard_normal(8000)
        frames = frame_signal(tone, 640, np.arange(0, 8000, 160))
        d = cmnd_rows(yin_difference_rows(frames, 266))
        assert as_bits(_candidate_sets(d, 40, config, 16000.0)) == as_bits(
            literal_candidate_sets(d, 40, config, 16000.0))


# ---------------------------------------------------------------------------
# Candidate flattening
# ---------------------------------------------------------------------------

def literal_table(candidate_sets):
    """Every candidate flattened by ``np.array``, as first written."""
    flat = [cand for cands in candidate_sets for cand in cands]
    f0, weight = np.array(flat, dtype=np.float64).reshape(-1, 2).T
    rows = np.repeat(np.arange(len(candidate_sets)), [len(cands) for cands in candidate_sets])
    return rows, f0, weight


class TestCandidateFlattening:
    @pytest.mark.parametrize("pair", [
        PitchCandidate, NccfCandidate, lambda f, w: (f, w), lambda f, w: [f, w],
        lambda f, w: (np.float64(f), np.float64(w)), lambda f, w: np.array([f, w]),
    ])
    def test_matches_np_array(self, pair):
        rng = np.random.default_rng(17)
        sets = [[pair(f, w) for f, w in zip(edge_values(rng, k) + 5e-324, rng.random(k))]
                for k in rng.integers(0, 6, 300)]
        sets[3] = [pair(1e300, 0.0), pair(5e-324, 1.0), pair(2.5e-310, 5e-324)]
        got, want = _candidate_table(sets, "weight"), literal_table(sets)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_no_candidates(self):
        for sets in ([], [[], []]):
            got, want = _candidate_table(sets, "weight"), literal_table(sets)
            assert all(same_bits(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# Track writer
# ---------------------------------------------------------------------------

def literal_write_track(track, path):
    """One formatted write per row, as first written."""
    with_conf = track.confidence is not None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame,time_s,f0_hz,confidence\n" if with_conf else "frame,time_s,f0_hz\n")
        for i, f0 in enumerate(track.frames):
            row = f"{i},{i * track.hop_seconds:.6f},{f0:.6g}"
            if with_conf:
                row += f",{float(track.confidence[i])!r}"
            fh.write(row + "\n")


class TestTrackWriter:
    @pytest.mark.parametrize("hop", [0.01, 0.0125, 1 / 3, 1e-5, 1e3])
    @pytest.mark.parametrize("with_conf", [False, True])
    def test_bytes_match_row_writes(self, tmp_path, hop, with_conf):
        rng = np.random.default_rng(19)
        f0 = edge_values(rng, 500) * 200.0
        conf = rng.random(500) if with_conf else None
        if with_conf:
            conf[:4] = [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]
        for n in (0, 1, 500):
            track = PitchTrack(hop, f0[:n], None if conf is None else conf[:n])
            write_track(track, tmp_path / "new.csv")
            literal_write_track(track, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
