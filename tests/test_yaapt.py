import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.fft import rfft

from pitchbench import (
    AudioSignal,
    NccfCandidate,
    SpectralTrack,
    YaaptConfig,
    compute_nlfer,
    compute_shc,
    nccf_candidates,
    spectral_pitch_track,
    yaapt_dp_select,
    yaapt_preprocess,
    yaapt_track,
)
from conftest import missing_fundamental, padded_tone, sawtooth, sine


def spectrum_peak_hz(samples, rate):
    mags = np.abs(rfft(samples * np.hanning(samples.size)))
    return float(np.argmax(mags) * rate / samples.size)


# ---------------------------------------------------------------------------
# Independent path enumeration for the dynamic-programming oracle.
# ---------------------------------------------------------------------------

def oracle_local_cost(cfg, state, coarse, nlfer):
    if state is None:
        return max(0.0, nlfer - cfg.nlfer_threshold)
    cost = 1.0 - state.merit
    if coarse > 0:
        cost += cfg.dp_freq_jump_weight * abs(math.log2(state.f0_hz / coarse))
    return cost


def oracle_transition_cost(cfg, prev, cur):
    if prev is None and cur is None:
        return 0.0
    if (prev is None) != (cur is None):
        return cfg.dp_voicing_switch_cost
    return cfg.dp_freq_jump_weight * abs(math.log2(cur.f0_hz / prev.f0_hz))


def oracle_min_cost(cfg, candidates, spectral):
    frame_states = [[None] + list(cands) for cands in candidates]
    best = math.inf
    for path in itertools.product(*frame_states):
        total = oracle_local_cost(cfg, path[0], spectral.coarse_f0_hz[0], spectral.nlfer[0])
        for t in range(1, len(path)):
            total += oracle_transition_cost(cfg, path[t - 1], path[t])
            total += oracle_local_cost(
                cfg, path[t], spectral.coarse_f0_hz[t], spectral.nlfer[t]
            )
        best = min(best, total)
    return best


def oracle_path_cost(cfg, candidates, spectral, decoded_f0):
    def to_state(t, f0):
        if f0 == 0.0:
            return None
        match = [c for c in candidates[t] if c.f0_hz == f0]
        assert match, f"frame {t}: decoded f0 {f0} is not a candidate"
        return match[0]

    states = [to_state(t, f0) for t, f0 in enumerate(decoded_f0)]
    total = oracle_local_cost(cfg, states[0], spectral.coarse_f0_hz[0], spectral.nlfer[0])
    for t in range(1, len(states)):
        total += oracle_transition_cost(cfg, states[t - 1], states[t])
        total += oracle_local_cost(cfg, states[t], spectral.coarse_f0_hz[t], spectral.nlfer[t])
    return total


class TestPreprocess:
    def test_zero_in_zero_out(self):
        sig = AudioSignal(np.zeros(48000), 48000.0)
        plain, nonlinear = yaapt_preprocess(sig, YaaptConfig())
        assert not plain.samples.any()
        assert not nonlinear.samples.any()
        assert len(plain) == len(nonlinear) == 48000

    def test_sine_passband_and_squared_harmonic(self):
        rate = 48000.0
        sig = AudioSignal(sine(300.0, 1.0, rate), rate)
        plain, nonlinear = yaapt_preprocess(sig, YaaptConfig())
        rms_ratio = np.sqrt(np.mean(plain.samples**2) / np.mean(sig.samples**2))
        assert abs(20 * np.log10(rms_ratio)) < 1.0
        # squaring a 300 Hz tone puts its energy at 600 Hz (DC removed)
        assert spectrum_peak_hz(nonlinear.samples[4800:-4800], rate) == pytest.approx(600.0, abs=5.0)

    def test_missing_fundamental_restored(self):
        rate = 48000.0
        t = np.arange(int(rate)) / rate
        x = 0.4 * np.sin(2 * np.pi * 200 * t) + 0.4 * np.sin(2 * np.pi * 300 * t)
        _, nonlinear = yaapt_preprocess(AudioSignal(x, rate), YaaptConfig())
        assert spectrum_peak_hz(nonlinear.samples[4800:-4800], rate) == pytest.approx(100.0, abs=5.0)

    def test_abs_nonlinearity_option(self):
        rate = 48000.0
        sig = AudioSignal(sine(300.0, 0.5, rate), rate)
        cfg = YaaptConfig(nonlinearity="abs")
        _, nonlinear = yaapt_preprocess(sig, cfg)
        assert spectrum_peak_hz(nonlinear.samples[4800:-4800], rate) == pytest.approx(600.0, abs=5.0)


class TestNlfer:
    def test_identical_frames_all_one(self, rng):
        spectrum = np.abs(rng.standard_normal(513))
        spectra = np.tile(spectrum, (12, 1))
        values = compute_nlfer(spectra, YaaptConfig(), 15.625)
        np.testing.assert_allclose(values, 1.0)

    def test_one_loud_frame_among_silent(self):
        spectra = np.zeros((10, 513))
        spectra[3, 10] = 2.0  # bin 10 at 15.625 Hz/bin = 156 Hz, inside the band
        values = compute_nlfer(spectra, YaaptConfig(), 15.625)
        assert values[3] == pytest.approx(10.0)
        np.testing.assert_array_equal(np.delete(values, 3), 0.0)

    def test_all_zero_utterance(self):
        values = compute_nlfer(np.zeros((8, 513)), YaaptConfig(), 15.625)
        np.testing.assert_array_equal(values, 0.0)

    def test_no_frames_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = compute_nlfer(np.zeros((0, 513)), YaaptConfig(), 15.625)
            track = spectral_pitch_track(AudioSignal(np.zeros(0), 16000), YaaptConfig())
        assert values.shape == (0,)
        assert len(track) == 0

    def test_mean_is_one(self, rng):
        spectra = np.abs(rng.standard_normal((40, 513)))
        values = compute_nlfer(spectra, YaaptConfig(), 15.625)
        assert values.mean() == pytest.approx(1.0, abs=1e-9)


class TestShc:
    def _line_spectrum(self):
        spectrum = np.zeros(2000)  # 1 Hz resolution, Nyquist 1999 Hz
        spectrum[[100, 200, 300, 400]] = 1.0
        return spectrum

    def test_harmonic_lines_peak_at_fundamental(self):
        cfg = YaaptConfig()
        spectrum = self._line_spectrum()
        at_100 = compute_shc(spectrum, 100.0, cfg, 1.0)
        assert at_100 > 0
        for f in range(60, 401):
            if f == 100:
                continue
            assert compute_shc(spectrum, float(f), cfg, 1.0) < at_100

    def test_flat_spectrum_constant(self):
        cfg = YaaptConfig()
        spectrum = np.ones(2000)
        values = {compute_shc(spectrum, float(f), cfg, 1.0) for f in (60, 150, 290, 400)}
        assert len(values) == 1

    def test_zero_spectrum(self):
        assert compute_shc(np.zeros(2000), 100.0, YaaptConfig(), 1.0) == 0.0

    def test_out_of_range_frequency(self):
        cfg = YaaptConfig()
        with pytest.raises(ValueError):
            compute_shc(np.zeros(2000), 600.0, cfg, 1.0)  # 4*600 beyond Nyquist
        with pytest.raises(ValueError):
            compute_shc(np.zeros(2000), 10.0, cfg, 1.0)  # window below 0 Hz
        with pytest.raises(ValueError):
            compute_shc(np.zeros(2000), -5.0, cfg, 1.0)


class TestSpectralPitchTrack:
    def test_silence_all_unvoiced(self):
        track = spectral_pitch_track(AudioSignal(np.zeros(48000), 48000.0), YaaptConfig())
        assert len(track) == 101
        np.testing.assert_array_equal(track.coarse_f0_hz, 0.0)

    def test_sawtooth_coarse_within_grid_step(self):
        sig = AudioSignal(sawtooth(150.0, 1.0, 48000), 48000.0)
        track = spectral_pitch_track(sig, YaaptConfig())
        interior = track.coarse_f0_hz[3:-3]
        voiced = interior[interior > 0]
        assert voiced.size >= 0.95 * interior.size
        step = 1.0 / 24.0  # octaves per grid step
        within = np.abs(np.log2(voiced / 150.0)) <= step + 1e-9
        assert np.mean(within) >= 0.95

    def test_amplitude_ramp_gates_head(self):
        rate = 48000
        tone = sawtooth(150.0, 1.0, rate)
        ramp = np.linspace(0.0, 1.0, tone.size)
        track = spectral_pitch_track(AudioSignal(tone * ramp, rate), YaaptConfig())
        n = len(track)
        head = track.coarse_f0_hz[: int(0.3 * n)]
        tail = track.coarse_f0_hz[int(0.75 * n) : n - 2]
        assert np.mean(head == 0) >= 0.9
        assert np.mean(tail > 0) >= 0.9

    def test_gate_matches_threshold_exactly(self):
        sig = padded_tone(sawtooth(200.0, 0.6, 48000), 48000)
        cfg = YaaptConfig()
        track = spectral_pitch_track(sig, cfg)
        np.testing.assert_array_equal(
            track.coarse_f0_hz > 0, track.nlfer >= cfg.nlfer_threshold
        )


class TestNccfCandidates:
    def test_silence_empty_sets(self):
        pair = yaapt_preprocess(AudioSignal(np.zeros(24000), 48000.0), YaaptConfig())
        sets = nccf_candidates(pair, YaaptConfig())
        assert len(sets) == 51
        assert all(len(s) == 0 for s in sets)

    def test_sine_true_pitch_carries_top_merit(self):
        # a perfectly periodic tone correlates equally well at every
        # multiple of its period, so the true pitch must sit at (or tie)
        # the top merit rather than being the unique maximum
        sig = AudioSignal(sine(200.0, 0.5, 48000), 48000.0)
        cfg = YaaptConfig()
        sets = nccf_candidates(yaapt_preprocess(sig, cfg), cfg)
        mid = sets[len(sets) // 2]
        assert mid, "no candidates on a loud sine"
        near = [c for c in mid if abs(c.f0_hz / 200.0 - 1) < 0.01]
        assert near, f"no candidate near 200 Hz in {mid}"
        best_near = max(c.merit for c in near)
        assert best_near >= 0.99
        assert best_near >= max(c.merit for c in mid) - 1e-9

    def test_pulse_train_contains_fundamental(self):
        rate = 48000
        period = rate // 100
        x = np.zeros(rate // 2)
        x[::period] = 1.0
        cfg = YaaptConfig()
        sets = nccf_candidates(yaapt_preprocess(AudioSignal(x, rate), cfg), cfg)
        mid = sets[len(sets) // 2]
        assert any(abs(c.f0_hz / 100.0 - 1) < 0.02 for c in mid)

    def test_merits_in_unit_interval(self, rng):
        sig = AudioSignal(rng.standard_normal(24000) * 0.3, 48000.0)
        cfg = YaaptConfig()
        for frame_cands in nccf_candidates(yaapt_preprocess(sig, cfg), cfg):
            for cand in frame_cands:
                assert 0.0 <= cand.merit <= 1.0
                assert cfg.fmin_hz <= cand.f0_hz <= cfg.fmax_hz


class TestDpSelect:
    def test_single_frame_single_candidate(self):
        cfg = YaaptConfig()
        spectral = SpectralTrack(np.array([150.0]), np.array([2.0]))
        track = yaapt_dp_select([[NccfCandidate(150.0, 1.0)]], spectral, cfg)
        np.testing.assert_array_equal(track.frames, [150.0])

    def test_spurious_high_merit_candidate_rejected(self):
        cfg = YaaptConfig()
        n = 10
        candidates = [[NccfCandidate(150.0, 0.9)] for _ in range(n)]
        candidates[5] = [NccfCandidate(150.0, 0.9), NccfCandidate(300.0, 0.99)]
        spectral = SpectralTrack(np.full(n, 150.0), np.full(n, 2.0))
        track = yaapt_dp_select(candidates, spectral, cfg)
        np.testing.assert_array_equal(track.frames, 150.0)
        cost = oracle_path_cost(cfg, candidates, spectral, track.frames)
        assert cost == pytest.approx(oracle_min_cost(cfg, candidates, spectral), rel=1e-12)

    def test_all_empty_all_unvoiced(self):
        cfg = YaaptConfig()
        spectral = SpectralTrack(np.zeros(6), np.zeros(6))
        track = yaapt_dp_select([[] for _ in range(6)], spectral, cfg)
        assert not track.voiced.any()

    def test_frame_count_mismatch(self):
        spectral = SpectralTrack(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="mismatch"):
            yaapt_dp_select([[], []], spectral, YaaptConfig())

    def test_matches_exhaustive_enumeration(self, rng):
        cfg = YaaptConfig()
        for trial in range(150):
            n = int(rng.integers(1, 9))
            candidates = []
            for _ in range(n):
                k = int(rng.integers(0, 4))
                cands = [
                    NccfCandidate(float(f), float(m))
                    for f, m in zip(rng.uniform(60, 400, k), rng.uniform(0, 1, k))
                ]
                candidates.append(cands)
            coarse = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(60, 400, n))
            nlfer = rng.uniform(0, 3, n)
            spectral = SpectralTrack(coarse, nlfer)
            track = yaapt_dp_select(candidates, spectral, cfg)
            got = oracle_path_cost(cfg, candidates, spectral, track.frames)
            best = oracle_min_cost(cfg, candidates, spectral)
            assert got == pytest.approx(best, rel=1e-9, abs=1e-12), f"trial {trial}"


class TestYaaptTrack:
    def test_silence_all_unvoiced(self):
        track = yaapt_track(AudioSignal(np.zeros(48000), 48000.0))
        assert len(track) == 101
        assert not track.voiced.any()

    def test_sawtooth_tracked(self):
        track = yaapt_track(AudioSignal(sawtooth(120.0, 1.0, 48000), 48000.0))
        interior = track.frames[3:-3]
        assert np.mean(np.abs(interior / 120.0 - 1) < 0.01) >= 0.95

    def test_missing_fundamental_not_a_harmonic(self):
        sig = padded_tone(missing_fundamental(110.0, 1.0, 48000), 48000)
        track = yaapt_track(sig)
        interior = track.frames[30:121]
        voiced = interior[interior > 0]
        assert voiced.size > 0
        assert np.mean(np.abs(voiced / 110.0 - 1) < 0.01) >= 0.90

    def test_gain_invariance(self):
        rate = 48000
        base = padded_tone(sawtooth(180.0, 0.6, rate, amp=0.4), rate)
        reference = yaapt_track(base)
        for alpha in (0.1, 2.0):
            scaled = yaapt_track(AudioSignal(alpha * base.samples, rate))
            np.testing.assert_array_equal(scaled.voiced, reference.voiced)
            np.testing.assert_allclose(scaled.frames, reference.frames, rtol=1e-6)

    def test_voicing_monotone_in_nlfer_threshold(self):
        rate = 48000
        tone = sawtooth(140.0, 0.8, rate)
        ramp = np.linspace(0.0, 1.0, tone.size)
        sig = padded_tone(tone * ramp, rate)
        counts = []
        for threshold in (0.9, 0.75, 0.5, 0.3):
            cfg = dataclasses.replace(YaaptConfig(), nlfer_threshold=threshold)
            counts.append(int(yaapt_track(sig, cfg).voiced.sum()))
        assert counts == sorted(counts)

    def test_16k_rate_supported(self):
        track = yaapt_track(AudioSignal(sawtooth(150.0, 1.0, 16000), 16000.0))
        interior = track.frames[3:-3]
        assert np.mean(np.abs(interior / 150.0 - 1) < 0.01) >= 0.95


class TestToneEdges:
    """Known defect, pinned until it is fixed: on the ``TestCompare`` tones
    (16 kHz, 0.6 s between 0.15 s of silence) frames 16-17 and 73-74,
    the first two and last two voiced ones, read about half the pitch."""

    @pytest.mark.xfail(strict=True, reason="half pitch on the edge frames of a clean tone")
    @pytest.mark.parametrize("f0", [150.0, 220.0])
    def test_edge_frames_carry_the_tone_pitch(self, f0):
        rate = 16000
        silence = np.zeros(int(0.15 * rate))
        samples = np.concatenate([silence, sine(f0, 0.6, rate), silence])
        track = yaapt_track(AudioSignal(samples, rate))
        voiced = np.flatnonzero(track.voiced)
        assert voiced.size > 50
        np.testing.assert_allclose(track.frames[voiced], f0, rtol=0.2)
