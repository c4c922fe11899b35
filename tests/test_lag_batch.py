"""Agreement of the blocked, frame-batched lag stage with one-frame calls.

The engines compute YIN/CMND/NCCF rows for a whole utterance in FFT
blocks of rows; the one-frame public functions and the per-frame
candidate extractors serve as oracles.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitchbench import (
    AudioSignal,
    NccfCandidate,
    PyinConfig,
    SpectralTrack,
    YaaptConfig,
    bandpass_filter,
    cmnd,
    frame_centers,
    frame_signal,
    nccf,
    nccf_candidates,
    pyin_track,
    spectral_pitch_track,
    yaapt_dp_select,
    yaapt_preprocess,
    yaapt_track,
    yin_difference,
)
from pitchbench.pyin import _threshold_weights
from pitchbench.signal import (
    _block_rows,
    cmnd_rows,
    nccf_rows,
    yin_difference_rows,
)
from conftest import assert_tracks_agree, padded_tone, sawtooth
from test_pyin import frame_candidates, working_rate_oracle

# (frame length, min lag, max lag) of the engines' default lag searches
LAG_SHAPES = {
    16000: [(640, 2, 266), (560, 40, 266)],
    48000: [(1920, 2, 800), (1680, 120, 800)],
}


def _row_counts(size):
    block = _block_rows(size)
    return [0, 1, block - 1, block, block + 1]


@st.composite
def frame_batches(draw):
    rate = draw(st.sampled_from(sorted(LAG_SHAPES)))
    size, min_lag, max_lag = draw(st.sampled_from(LAG_SHAPES[rate]))
    n_rows = draw(st.sampled_from(_row_counts(size)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(size) / rate
    rows = []
    for _ in range(n_rows):
        kind = rng.integers(3)
        if kind == 0:
            rows.append(rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 1))
        elif kind == 1:
            rows.append(np.sin(2 * np.pi * rng.uniform(60, 400) * t + rng.uniform(0, 6)))
        else:
            rows.append(np.zeros(size))
    return np.array(rows).reshape(n_rows, size), min_lag, max_lag


def _assert_rows_close(batched, single):
    scale = max(np.max(np.abs(single)), 1.0) if single.size else 1.0
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12 * scale)


class TestBlockedLagRows:
    @settings(max_examples=40, deadline=None)
    @given(frame_batches())
    def test_rows_match_one_frame_functions(self, batch):
        frames, min_lag, max_lag = batch
        diff = yin_difference_rows(frames, max_lag)
        norm = cmnd_rows(diff)
        corr = nccf_rows(frames, min_lag, max_lag)
        assert diff.shape == norm.shape == (frames.shape[0], max_lag + 1)
        assert corr.shape == (frames.shape[0], max_lag - min_lag + 1)
        for r, frame in enumerate(frames):
            one = yin_difference(frame, max_lag)
            _assert_rows_close(diff[r], one.values)
            _assert_rows_close(norm[r], cmnd(one).values)
            _assert_rows_close(corr[r], nccf(frame, min_lag, max_lag).values)

    @pytest.mark.parametrize("rate", sorted(LAG_SHAPES))
    def test_block_boundaries(self, rate):
        size, min_lag, max_lag = LAG_SHAPES[rate][0]
        rng = np.random.default_rng(rate)
        for n_rows in _row_counts(size):
            frames = rng.standard_normal((n_rows, size))
            diff = yin_difference_rows(frames, max_lag)
            corr = nccf_rows(frames, min_lag, max_lag)
            for r, frame in enumerate(frames):
                _assert_rows_close(diff[r], yin_difference(frame, max_lag).values)
                _assert_rows_close(corr[r], nccf(frame, min_lag, max_lag).values)

    def test_block_is_a_few_rows_at_48k(self):
        assert 8 <= _block_rows(1920) <= 32

    def test_validation_shared_with_one_frame_functions(self):
        with pytest.raises(ValueError, match="half the frame"):
            yin_difference_rows(np.zeros((3, 100)), 50)
        with pytest.raises(ValueError, match="min_lag"):
            nccf_rows(np.zeros((3, 100)), 0, 10)


class TestThresholdWeightsCache:
    def test_read_only_and_identical(self):
        cfg = PyinConfig()
        thresholds, weights = _threshold_weights(cfg)
        again = _threshold_weights(PyinConfig())
        np.testing.assert_array_equal(again[0], thresholds)
        np.testing.assert_array_equal(again[1], weights)
        for arr in (thresholds, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_distinct_configs_get_their_own_prior(self):
        coarse = _threshold_weights(PyinConfig(n_thresholds=20))
        assert coarse[0].size == 20
        assert _threshold_weights(PyinConfig())[0].size == 100


def literal_pyin_candidates(frame, cfg, rate):
    """Each threshold in turn picks the first CMND minimum below it."""
    lag_min = max(2, math.ceil(rate / cfg.fmax_hz))
    lag_max = min(math.floor(rate / cfg.fmin_hz), (frame.size - 1) // 2)
    curve = cmnd(yin_difference(frame, lag_max))
    d = curve.values
    minima = [tau for tau in range(lag_min, lag_max) if d[tau - 1] > d[tau] <= d[tau + 1]]
    mass = {}
    for s, w in zip(*_threshold_weights(cfg)):
        for tau in minima:
            if d[tau] < s:
                mass[tau] = mass.get(tau, 0.0) + w
                break
    cands = []
    for tau, m in mass.items():
        y0, y1, y2 = d[tau - 1 : tau + 2]  # the parabola through them, and its vertex
        denom = y0 - 2.0 * y1 + y2
        vertex = tau + 0.5 * (y0 - y2) / denom if denom else tau
        f0 = rate / min(max(vertex, tau - 1), tau + 1)
        if m > 0:
            cands.append((min(max(f0, cfg.fmin_hz), cfg.fmax_hz), m))
    return sorted(cands)


class TestPyinCandidatesOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([16000, 48000]),
        st.floats(60.0, 400.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_masses_match_literal_threshold_search(self, rate, f0, noise, seed):
        n = int(round(0.04 * rate))
        rng = np.random.default_rng(seed)
        frame = sawtooth(f0, 0.04, rate)[:n] + noise * rng.standard_normal(n)
        got = frame_candidates(frame, PyinConfig(), rate)
        want = literal_pyin_candidates(frame, PyinConfig(), rate)
        assert len(got) == len(want)
        for cand, (f, m) in zip(got, want):
            assert cand.f0_hz == pytest.approx(f, rel=1e-12)
            assert cand.probability == pytest.approx(m, rel=1e-12, abs=1e-15)


def _voiced_signal(seed, rate):
    rng = np.random.default_rng(seed)
    f0 = rng.uniform(90, 300)
    # 0.83 s: 84 frames, more than one row block of either engine at 16 kHz
    tone = sawtooth(f0, 0.7, rate) * np.linspace(0.3, 1.0, int(round(0.7 * rate)))
    tone = tone + 0.02 * rng.standard_normal(tone.size)
    return padded_tone(tone, rate, lead_s=0.05, trail_s=0.08)


def _per_frame_nccf_candidates(branches, config):
    """Candidate extraction one frame at a time from the one-frame NCCF, on
    the working-rate branches."""
    plain, nonlinear, centers = branches
    rate = plain.sample_rate_hz
    frame_len = int(round(config.frame_len_ms * rate / 1000.0))
    lag_min = max(1, int(math.ceil(rate / config.fmax_hz)))
    lag_max = min(int(math.floor(rate / config.fmin_hz)), (frame_len - 1) // 2)
    per_branch = []
    for branch in (plain, nonlinear):
        frames = frame_signal(branch.samples, frame_len, centers)
        branch_cands = []
        for frame in frames:
            curve = nccf(frame, lag_min, lag_max)
            v = curve.values
            peaks = [i for i in range(1, v.size - 1) if v[i] > v[i - 1] and v[i] >= v[i + 1]]
            peaks = sorted((p for p in peaks if v[p] > 0), key=lambda p: -v[p])
            cands = []
            for p in peaks[: config.n_candidates_per_frame]:
                lag, (y0, y1, y2) = p + lag_min, v[p - 1 : p + 2]  # the parabola through them
                denom = y0 - 2.0 * y1 + y2
                vertex = lag + 0.5 * (y0 - y2) / denom if denom else lag
                refined = min(max(vertex, lag - 1), lag + 1)
                f0 = min(max(rate / refined, config.fmin_hz), config.fmax_hz)
                cands.append(NccfCandidate(f0, float(v[p])))
            branch_cands.append(cands)
        per_branch.append(branch_cands)
    merged = []
    for frame_lists in zip(*per_branch):
        pool = sorted((c for cs in frame_lists for c in cs), key=lambda c: (c.f0_hz, -c.merit))
        out = []
        for cand in pool:
            if out and cand.f0_hz / out[-1].f0_hz < 1.02:
                if cand.merit > out[-1].merit:
                    out[-1] = NccfCandidate(out[-1].f0_hz, cand.merit)
            else:
                out.append(cand)
        merged.append(out)
    return merged


class TestEnginesAgreeWithPerFrameOracles:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([16000, 48000]))
    def test_pyin_track_matches_per_frame_candidates(self, seed, rate):
        # at the 16 kHz working rate, the whole signal decimated at once
        signal = _voiced_signal(seed, rate)
        cfg = PyinConfig()
        oracle = working_rate_oracle(signal, cfg, round(rate / 16000))
        assert_tracks_agree(pyin_track(signal, cfg), oracle)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([16000, 48000]))
    def test_yaapt_track_matches_per_frame_nccf(self, seed, rate):
        signal = _voiced_signal(seed, rate)
        cfg = YaaptConfig()
        branches = yaapt_preprocess(signal, cfg)
        oracle_cands = _per_frame_nccf_candidates(branches, cfg)
        cands = nccf_candidates(branches, cfg)
        assert [len(c) for c in cands] == [len(c) for c in oracle_cands]
        got = np.array([tuple(c) for cs in cands for c in cs]).reshape(-1, 2)
        want = np.array([tuple(c) for cs in oracle_cands for c in cs]).reshape(-1, 2)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

        spectral = spectral_pitch_track(branches, cfg)
        oracle = yaapt_dp_select(oracle_cands, spectral, cfg, hop_seconds=cfg.hop_ms / 1000.0)
        assert_tracks_agree(yaapt_track(signal, cfg), oracle)

    def test_empty_signal(self):
        # and one or two samples, one frame; YAAPT decimates these rates by
        # 1, 2 or 3
        for rate in (8000, 11025, 16000, 22050, 32000, 44100, 48000):
            for n in (0, 1, 2):
                signal = AudioSignal(np.full(n, 0.5), rate)
                n_frames = frame_centers(n, 10.0, rate).size
                assert len(pyin_track(signal)) == n_frames
                assert len(yaapt_track(signal)) == n_frames
        assert len(yaapt_dp_select([], SpectralTrack([], []), YaaptConfig())) == 0
        assert len(bandpass_filter(AudioSignal(np.zeros(0), 16000), 50.0, 1500.0)) == 0
