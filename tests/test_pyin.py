import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.signal import decimate

from pitchbench import (
    AudioSignal,
    PitchCandidate,
    PyinConfig,
    frame_centers,
    frame_signal,
    pyin_track,
    pyin_viterbi,
)
from pitchbench.pyin import (
    _bins_of,
    _candidate_sets,
    _decode_trellis,
    _lag_range,
    _pyin_factor,
    _threshold_weights,
    _trellis,
)
from pitchbench.signal import cmnd_rows, yin_difference_rows
from conftest import padded_tone, sawtooth, sine


def frame_candidates(frame, config, rate):
    """pyin_track's candidate stage on one frame, the engine's own path: the
    rate check, the lag band, the lag curves of a one-row block and their
    candidates."""
    config.validate_rate(rate)
    lag_min, lag_max = _lag_range(config, rate)
    d = cmnd_rows(yin_difference_rows(np.asarray(frame, dtype=np.float64)[None], lag_max))
    return _candidate_sets(d, lag_min, config, rate)[0]


def working_rate_oracle(signal, config, factor):
    """pyin_track by its stated rule, one frame at a time: the whole signal
    decimated by SciPy (for a factor above 1), frame k on the working-rate
    sample nearest center k / factor, each frame's candidates, the decoder."""
    rate = signal.sample_rate_hz
    x = signal.samples if factor == 1 else decimate(signal.samples, factor, ftype="fir")
    working_rate = rate / factor
    frame_len = int(round(config.frame_len_ms * working_rate / 1000.0))
    centers = np.round(frame_centers(len(signal), config.hop_ms, rate) / factor).astype(np.int64)
    frames = frame_signal(x, frame_len, centers)
    sets = [frame_candidates(frame, config, working_rate) for frame in frames]
    return pyin_viterbi(sets, config, hop_seconds=config.hop_ms / 1000.0)


# ---------------------------------------------------------------------------
# Independent HMM scoring for the exhaustive Viterbi oracle. Rebuilt from
# the documented model, not the module internals.
# ---------------------------------------------------------------------------

def oracle_n_bins(cfg):
    return int(math.floor(12.0 * cfg.bins_per_semitone * math.log2(cfg.fmax_hz / cfg.fmin_hz))) + 1


def oracle_bin(cfg, f0):
    raw = 12.0 * cfg.bins_per_semitone * math.log2(f0 / cfg.fmin_hz)
    return min(max(int(round(raw)), 0), oracle_n_bins(cfg) - 1)


def oracle_transition(cfg, prev, cur):
    """prev/cur are None for unvoiced, else a bin index."""
    sp = cfg.switch_prob
    if prev is None and cur is None:
        return 1.0 - sp
    if (prev is None) != (cur is None):
        return sp
    width = cfg.max_transition_semitones * cfg.bins_per_semitone
    return (1.0 - sp) * max(0.0, 1.0 - abs(prev - cur) / width)


def oracle_frame_obs(cfg, candidates):
    obs = {}
    total = 0.0
    for cand in candidates:
        b = oracle_bin(cfg, cand.f0_hz)
        obs[b] = obs.get(b, 0.0) + cand.probability
        total += cand.probability
    obs[None] = max(0.0, 1.0 - total)
    return obs


def oracle_best_path_score(cfg, candidate_sets):
    """Enumerate every reachable path; return the maximal score."""
    frame_obs = [oracle_frame_obs(cfg, cands) for cands in candidate_sets]
    frame_states = [[s for s, p in obs.items() if p > 0.0] for obs in frame_obs]
    best = -1.0
    for path in itertools.product(*frame_states):
        score = frame_obs[0][path[0]]
        for t in range(1, len(path)):
            score *= oracle_transition(cfg, path[t - 1], path[t]) * frame_obs[t][path[t]]
        best = max(best, score)
    return best


def oracle_path_score(cfg, candidate_sets, decoded_f0):
    frame_obs = [oracle_frame_obs(cfg, cands) for cands in candidate_sets]
    states = [None if f == 0.0 else oracle_bin(cfg, f) for f in decoded_f0]
    score = frame_obs[0].get(states[0], 0.0)
    for t in range(1, len(states)):
        score *= oracle_transition(cfg, states[t - 1], states[t])
        score *= frame_obs[t].get(states[t], 0.0)
    return score


class TestThresholdPrior:
    def test_weights_sum_to_one(self):
        thresholds, weights = _threshold_weights(PyinConfig())
        assert thresholds.size == 100
        assert thresholds[0] == pytest.approx(0.01)
        assert thresholds[-1] == pytest.approx(1.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_prior_concentrated_near_mean(self):
        thresholds, weights = _threshold_weights(PyinConfig())
        assert np.sum(weights * thresholds) == pytest.approx(0.1, abs=0.02)


class TestPyinCandidates:
    def test_silent_frame_empty(self):
        assert frame_candidates(np.zeros(2048), PyinConfig(), 48000.0) == []

    def test_pure_sine_dominant_candidate(self):
        frame = sine(220.0, 0.04, 48000)
        cands = frame_candidates(frame, PyinConfig(), 48000.0)
        near = [c for c in cands if abs(c.f0_hz / 220.0 - 1) < 0.01]
        assert sum(c.probability for c in near) >= 0.9

    def test_two_tone_yields_both_candidates(self):
        rate = 48000.0
        t = np.arange(int(0.04 * rate)) / rate
        frame = 0.35 * np.sin(2 * np.pi * 100 * t) + 1.0 * np.sin(2 * np.pi * 200 * t)
        cands = frame_candidates(frame, PyinConfig(), rate)
        assert any(abs(c.f0_hz / 100.0 - 1) < 0.03 for c in cands)
        assert any(abs(c.f0_hz / 200.0 - 1) < 0.03 for c in cands)
        assert sum(c.probability for c in cands) <= 1.0 + 1e-9

    def test_probability_mass_bounded(self, rng):
        cfg = PyinConfig()
        for _ in range(100):
            frame = rng.standard_normal(1024)
            cands = frame_candidates(frame, cfg, 16000.0)
            assert sum(c.probability for c in cands) <= 1.0 + 1e-9
            for c in cands:
                assert cfg.fmin_hz <= c.f0_hz <= cfg.fmax_hz

    def test_candidates_within_search_band(self):
        frame = sawtooth(150.0, 0.04, 48000)
        for c in frame_candidates(frame, PyinConfig(), 48000.0):
            assert 60.0 <= c.f0_hz <= 400.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PyinConfig(fmin_hz=400, fmax_hz=60)
        with pytest.raises(ValueError):
            PyinConfig(switch_prob=0.0)
        with pytest.raises(ValueError):
            frame_candidates(np.zeros(100), PyinConfig(fmax_hz=9000), 16000.0)


class TestPyinViterbi:
    @pytest.mark.parametrize("sets, named", [
        ([[(200.0, 0.5, 1.0)], [(210.0, 0.4, 1.0)]], "frame 0, candidate 0: (200.0, 0.5, 1.0)"),
        ([[(200.0, 0.5)], [(210.0, 0.4), (210.0,)], [(220.0, 0.3, 0.1)]],
         "frame 1, candidate 1: (210.0,)"),
        # a bad value before it: the pair rule is checked first
        ([[(-200.0, 0.5)], [], [[220.0, 0.3], 220.0]], "frame 2, candidate 1: 220.0"),
    ])
    def test_candidate_that_is_not_a_pair_is_named(self, sets, named):
        with pytest.raises(ValueError) as raised:
            pyin_viterbi(sets, PyinConfig())
        assert str(raised.value) == f"{named} is not an (f0, probability) pair"

    def test_empty_candidates_all_unvoiced(self):
        cfg = PyinConfig()
        track = pyin_viterbi([[] for _ in range(20)], cfg)
        assert len(track) == 20
        assert not track.voiced.any()

    def test_empty_input_empty_track(self):
        assert len(pyin_viterbi([], PyinConfig())) == 0

    @pytest.mark.parametrize("f0, fmin, top", [
        (1e-320, 60.0, False),
        (5e-324, 60.0, False),  # f0 / fmin underflows to 0
        (1e300, 0.5, True),
        (1.7e308, 0.5, True),  # f0 / fmin overflows to infinity
    ])
    def test_any_finite_f0_above_0_takes_a_bin(self, f0, fmin, top):
        cfg = PyinConfig(fmin_hz=fmin)
        _frame, state, _obs, _f0 = _trellis([[PitchCandidate(f0, 0.9)]], cfg)
        np.testing.assert_array_equal(state, [0, cfg.n_bins if top else 1])
        np.testing.assert_array_equal(pyin_viterbi([[PitchCandidate(f0, 0.9)]], cfg).frames, [f0])

    @given(
        f0=st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False),
        fmin=st.sampled_from([0.5, 60.0, 399.0]),
    )
    @example(f0=5e-324, fmin=60.0)  # log2 of an underflowed ratio
    @example(f0=1.7e308, fmin=0.5)  # an overflowed ratio
    def test_bin_of_is_the_one_frequency_case(self, f0, fmin):
        # _bins_of on a one-element array: a bin in range, by the textbook rule
        cfg = PyinConfig(fmin_hz=fmin)
        (b,) = _bins_of(np.array([f0]), cfg).tolist()
        assert 0 <= b < cfg.n_bins
        ratio = f0 / fmin
        if 0.0 < ratio < math.inf:  # the textbook rule, where it is defined
            raw = 12.0 * cfg.bins_per_semitone * math.log2(ratio)
            assert b == min(max(round(raw), 0), cfg.n_bins - 1)

    @pytest.mark.parametrize("n_frames", [0, 3])
    def test_hop_defaults_to_the_config(self, n_frames):
        cfg = PyinConfig(hop_ms=5.0)
        sets = [[PitchCandidate(150.0, 0.9)] for _ in range(n_frames)]
        assert pyin_viterbi(sets, cfg).hop_seconds == 0.005
        assert pyin_viterbi(sets, cfg, hop_seconds=0.02).hop_seconds == 0.02

    def test_constant_dominant_candidate(self):
        cfg = PyinConfig()
        sets = [[PitchCandidate(150.0, 0.99)] for _ in range(50)]
        track = pyin_viterbi(sets, cfg)
        assert track.voiced.all()
        np.testing.assert_allclose(track.frames, 150.0)

    def test_no_octave_flapping_between_equal_candidates(self):
        cfg = PyinConfig()
        sets = [
            [PitchCandidate(150.0, 0.5), PitchCandidate(300.0, 0.5)] for _ in range(30)
        ]
        track = pyin_viterbi(sets, cfg)
        assert track.voiced.all()
        assert np.unique(track.frames).size == 1  # constant, one of the two

    def test_matches_exhaustive_enumeration(self, rng):
        cfg = PyinConfig()
        for trial in range(120):
            n_frames = int(rng.integers(1, 9))
            sets = []
            for _ in range(n_frames):
                k = int(rng.integers(0, 4))
                freqs = rng.uniform(65, 390, k)
                probs = rng.random(k)
                total = probs.sum()
                if total > 0:
                    probs = probs / total * rng.uniform(0.2, 1.0)
                sets.append([PitchCandidate(f, p) for f, p in zip(freqs, probs)])
            decoded = pyin_viterbi(sets, cfg)
            got = oracle_path_score(cfg, sets, decoded.frames)
            best = oracle_best_path_score(cfg, sets)
            assert got == pytest.approx(best, rel=1e-9), f"trial {trial}: {got} vs {best}"

    def test_scaling_all_observations_leaves_path_unchanged(self, rng):
        cfg = PyinConfig()
        sets = []
        for _ in range(40):
            k = int(rng.integers(0, 3))
            freqs = rng.uniform(70, 380, k)
            probs = rng.random(k) / max(k, 1)
            sets.append([PitchCandidate(f, p) for f, p in zip(freqs, probs)])
        frame, state, obs, _f0 = _trellis(sets, cfg)
        baseline = _decode_trellis(frame, state, obs, cfg)
        for c in (0.1, 0.5, 1.0):
            np.testing.assert_array_equal(_decode_trellis(frame, state, c * obs, cfg), baseline)


class TestPyinTrack:
    def test_silence_all_unvoiced(self):
        track = pyin_track(AudioSignal(np.zeros(48000), 48000.0))
        assert len(track) == 101
        assert not track.voiced.any()
        assert track.hop_seconds == pytest.approx(0.010)

    def test_pure_sine_tracked(self):
        track = pyin_track(AudioSignal(sine(220.0, 1.0, 48000), 48000.0))
        interior = track.frames[3:-3]
        within = np.abs(interior / 220.0 - 1) < 0.01
        assert np.mean(within) >= 0.95

    def test_silence_then_sawtooth_boundary(self):
        rate = 48000
        silence = np.zeros(int(0.5 * rate))
        tone = sawtooth(120.0, 0.5, rate)
        track = pyin_track(AudioSignal(np.concatenate([silence, tone]), rate))
        onset = int(np.argmax(track.voiced))
        assert abs(onset - 50) <= 2
        assert not track.voiced[:onset].any()
        voiced_after = track.frames[onset : len(track) - 2]
        assert np.mean(np.abs(voiced_after / 120.0 - 1) < 0.02) >= 0.95

    def test_gain_invariance(self):
        rate = 48000
        base = padded_tone(sine(196.0, 0.6, rate, amp=0.4), rate)
        reference = pyin_track(base)
        for alpha in (0.1, 0.5, 2.0):
            scaled = pyin_track(AudioSignal(alpha * base.samples, rate))
            np.testing.assert_array_equal(scaled.voiced, reference.voiced)
            np.testing.assert_allclose(scaled.frames, reference.frames, rtol=1e-9)

    def test_no_octave_jumps_on_constant_tone(self):
        track = pyin_track(AudioSignal(sawtooth(110.0, 1.0, 48000), 48000.0))
        interior = track.frames[3:-3]
        voiced = interior[interior > 0]
        jumps = np.abs(np.diff(np.log2(voiced)))
        assert np.all(jumps < 0.5)


class TestWorkingRate:
    """The lag search runs at ``rate / factor`` with the largest factor up to
    ``round(rate / 16000)`` that the config accepts and that keeps fmax below
    a quarter of that rate, else at the input rate; the track keeps the
    input rate's frame centers and hop."""

    # 44.1 kHz runs at 14.7 kHz; at 176.4 kHz the 1764-sample hop is 160.36
    # working samples, so the centers step by 160 and 161
    FACTORS = {8000: 1, 11025: 1, 16000: 1, 22050: 1, 24000: 2, 32000: 2, 44100: 3,
               48000: 3, 88200: 6, 96000: 6, 176400: 11, 192000: 12}

    @pytest.mark.parametrize("rate", sorted(FACTORS))
    def test_track_keeps_the_input_rate_frames(self, rate):
        cfg = PyinConfig()
        assert _pyin_factor(cfg, rate) == self.FACTORS[rate]
        signal = padded_tone(sawtooth(150.0, 0.3, rate), rate)
        track = pyin_track(signal, cfg)
        assert track.hop_seconds == 0.010
        assert len(track) == frame_centers(len(signal), cfg.hop_ms, rate).size
        voiced = track.frames[track.voiced]
        assert voiced.size >= 25 and np.all(np.abs(voiced / 150.0 - 1) < 0.01)

    @pytest.mark.parametrize("cfg, factor, f0", [
        (PyinConfig(fmax_hz=7000.0), 1, 220.0),  # above a quarter of 24 and 16 kHz
        (PyinConfig(fmin_hz=395.0, fmax_hz=400.0), 1, 397.0),  # under two lags at 24 and 16 kHz
        (PyinConfig(hop_ms=0.05), 2, 220.0),  # 1.2 samples at 24 kHz, 0.8 at 16 kHz
        (PyinConfig(hop_ms=0.03), 1, 220.0),  # under a sample at 24 and 16 kHz
    ])
    def test_configs_the_working_rate_cannot_take_still_run(self, cfg, factor, f0):
        rate = 48000
        cfg.validate_rate(rate)
        assert _pyin_factor(cfg, rate) == factor
        signal = AudioSignal(sawtooth(f0, 0.05, rate), rate)
        track = pyin_track(signal, cfg)
        assert len(track) == frame_centers(len(signal), cfg.hop_ms, rate).size
        oracle = working_rate_oracle(signal, cfg, factor)
        np.testing.assert_array_equal(track.voiced, oracle.voiced)
        np.testing.assert_allclose(track.frames, oracle.frames, rtol=1e-9, atol=0)


class TestWorkingSet:
    """``pyin_track`` holds one block of frames and the per-frame results,
    so its peak grows little with the recording; an array of frames x
    pitch bins would add about 0.33 MiB per audio second."""

    @staticmethod
    def peak(seconds, rate) -> int:
        signal = AudioSignal(sawtooth(150.0, seconds, rate), rate)
        tracemalloc.start()
        try:
            pyin_track(signal)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_peak_per_audio_second(self, rate):
        self.peak(0.5, rate)  # fills the per-config caches
        mib_per_second = (self.peak(30.0, rate) - self.peak(5.0, rate)) / 25.0 / 2**20
        assert mib_per_second < 0.1

    def test_config_caches_stay_bounded(self):
        # each config's transition costs are a 166 x 166 matrix at these
        # bins (0.2 MiB); 100 configs kept alive would hold about 21 MiB
        frame = sawtooth(150.0, 0.04, 16000)
        sets = [[PitchCandidate(150.0, 0.8)], [PitchCandidate(151.0, 0.7)]]
        tracemalloc.start()
        try:
            for k in range(100):
                cfg = PyinConfig(switch_prob=0.01 + k * 1e-4)
                frame_candidates(frame, cfg, 16000.0)
                pyin_viterbi(sets, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**20
