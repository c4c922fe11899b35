import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import rfft

from pitchbench import (
    AudioSignal,
    NccfCandidate,
    SpectralTrack,
    YaaptConfig,
    bandpass_filter,
    compute_nlfer,
    frame_centers,
    nccf_candidates,
    spectral_pitch_track,
    yaapt_dp_select,
    yaapt_preprocess,
    yaapt_track,
)
from pitchbench import yaapt
from conftest import missing_fundamental, padded_tone, same_bits, sawtooth, sine


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


def interior(branch):
    """A working-rate branch without its first and last 0.1 s."""
    trim = int(round(0.1 * branch.sample_rate_hz))
    return branch.samples[trim:-trim]


class TestPreprocess:
    @pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000])
    @pytest.mark.parametrize("n", [0, 1, 479, 480, 481, 4801])
    def test_working_rate_contract(self, rate, n):
        factor = max(1, round(rate / 16000))
        cfg = YaaptConfig()
        x = np.random.default_rng(n).standard_normal(n) * 0.3
        plain, nonlinear, centers = yaapt_preprocess(AudioSignal(x, rate), cfg)
        for branch in (plain, nonlinear):
            assert branch.sample_rate_hz == rate / factor
            assert len(branch) == -(-n // factor)
        band = bandpass_filter(AudioSignal(x, rate), cfg.bp_low_hz, cfg.bp_high_hz)
        assert same_bits(plain.samples, yaapt._decimate_for_spectral(band.samples, factor))
        full_rate = frame_centers(n, cfg.hop_ms, rate)
        assert centers.dtype == np.int64
        np.testing.assert_array_equal(centers, np.round(full_rate / factor))

    def test_zero_in_zero_out(self):
        sig = AudioSignal(np.zeros(48000), 48000.0)
        plain, nonlinear, centers = yaapt_preprocess(sig, YaaptConfig())
        assert not plain.samples.any()
        assert not nonlinear.samples.any()
        assert len(plain) == len(nonlinear) == 16000
        assert centers.size == 101

    def test_sine_passband_and_squared_harmonic(self):
        rate = 48000.0
        sig = AudioSignal(sine(300.0, 1.0, rate), rate)
        plain, nonlinear, _ = yaapt_preprocess(sig, YaaptConfig())
        rms_ratio = np.sqrt(np.mean(plain.samples**2) / np.mean(sig.samples**2))
        assert abs(20 * np.log10(rms_ratio)) < 1.0
        # squaring a 300 Hz tone puts its energy at 600 Hz (DC removed)
        peak = spectrum_peak_hz(interior(nonlinear), nonlinear.sample_rate_hz)
        assert peak == pytest.approx(600.0, abs=5.0)

    def test_missing_fundamental_restored(self):
        # squaring 200 + 300 Hz gives lines of equal amplitude at 100 and
        # 500 Hz, so the 100 Hz line must be (nearly) the largest
        rate = 48000.0
        t = np.arange(int(rate)) / rate
        x = 0.4 * np.sin(2 * np.pi * 200 * t) + 0.4 * np.sin(2 * np.pi * 300 * t)
        plain, nonlinear, _ = yaapt_preprocess(AudioSignal(x, rate), YaaptConfig())
        for branch, low, high in ((plain, 0.0, 0.01), (nonlinear, 0.99, 1.0)):
            samples = interior(branch)
            mags = np.abs(rfft(samples * np.hanning(samples.size)))
            line = mags[round(100.0 * samples.size / branch.sample_rate_hz)]
            assert low <= line / mags.max() <= high

    def test_abs_nonlinearity_option(self):
        rate = 48000.0
        sig = AudioSignal(sine(300.0, 0.5, rate), rate)
        cfg = YaaptConfig(nonlinearity="abs")
        _, nonlinear, _ = yaapt_preprocess(sig, cfg)
        peak = spectrum_peak_hz(interior(nonlinear), nonlinear.sample_rate_hz)
        assert peak == pytest.approx(600.0, abs=5.0)

    @staticmethod
    def peak(seconds, rate, nonlinearity) -> int:
        signal = AudioSignal(sawtooth(150.0, seconds, rate), rate)
        config = YaaptConfig(nonlinearity=nonlinearity)
        yaapt_preprocess(signal, config)  # fills the filter caches for this length
        tracemalloc.start()
        try:
            yaapt_preprocess(signal, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("nonlinearity", ["square", "abs"])
    def test_peak_per_audio_second(self, nonlinearity):
        # a full-rate float64 array is 0.37 MiB per audio second at 48 kHz;
        # the front end peaks at 1.47 MiB per audio second, and at 1.83 while
        # the full-rate nonlinearity was still held through its decimation
        peaks = [self.peak(seconds, 48000, nonlinearity) for seconds in (2.0, 10.0)]
        mib_per_second = (peaks[1] - peaks[0]) / 8.0 / 2**20
        assert mib_per_second < 1.65


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
            cfg = YaaptConfig()
            values = compute_nlfer(np.zeros((0, 513)), cfg, 15.625)
            branches = yaapt_preprocess(AudioSignal(np.zeros(0), 16000), cfg)
            track = spectral_pitch_track(branches, cfg)
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

    @staticmethod
    def shc(spectrum, f_hz, cfg):
        """SHC at one frequency, on a 1 Hz bin grid."""
        return float(yaapt._shc_grid(spectrum, np.array([f_hz]), cfg, 1.0)[0])

    def test_harmonic_lines_peak_at_fundamental(self):
        cfg = YaaptConfig()
        spectrum = self._line_spectrum()
        at_100 = self.shc(spectrum, 100.0, cfg)
        assert at_100 > 0
        for f in range(60, 401):
            if f == 100:
                continue
            assert self.shc(spectrum, float(f), cfg) < at_100

    def test_flat_spectrum_constant(self):
        cfg = YaaptConfig()
        spectrum = np.ones(2000)
        values = {self.shc(spectrum, float(f), cfg) for f in (60, 150, 290, 400)}
        assert len(values) == 1

    def test_zero_spectrum(self):
        assert self.shc(np.zeros(2000), 100.0, YaaptConfig()) == 0.0

    def test_out_of_range_frequency(self):
        with pytest.raises(IndexError, match="past the 2000 bins"):
            self.shc(np.zeros(2000), 600.0, YaaptConfig())  # 4*600 beyond Nyquist


class TestSpectralTrackValues:
    @pytest.mark.parametrize("field", ["coarse_f0_hz", "nlfer"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_or_negative(self, field, value):
        values = {"coarse_f0_hz": np.zeros(4), "nlfer": np.zeros(4)}
        values[field][1] = value
        with pytest.raises(ValueError, match="finite and >= 0"):
            SpectralTrack(**values)


class TestSpectralPitchTrack:
    def test_silence_all_unvoiced(self):
        cfg = YaaptConfig()
        branches = yaapt_preprocess(AudioSignal(np.zeros(48000), 48000.0), cfg)
        track = spectral_pitch_track(branches, cfg)
        assert len(track) == 101
        np.testing.assert_array_equal(track.coarse_f0_hz, 0.0)

    def test_sawtooth_coarse_within_grid_step(self):
        sig = AudioSignal(sawtooth(150.0, 1.0, 48000), 48000.0)
        cfg = YaaptConfig()
        track = spectral_pitch_track(yaapt_preprocess(sig, cfg), cfg)
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
        cfg = YaaptConfig()
        track = spectral_pitch_track(yaapt_preprocess(AudioSignal(tone * ramp, rate), cfg), cfg)
        n = len(track)
        head = track.coarse_f0_hz[: int(0.3 * n)]
        tail = track.coarse_f0_hz[int(0.75 * n) : n - 2]
        assert np.mean(head == 0) >= 0.9
        assert np.mean(tail > 0) >= 0.9

    def test_gate_matches_threshold_exactly(self):
        sig = padded_tone(sawtooth(200.0, 0.6, 48000), 48000)
        cfg = YaaptConfig()
        track = spectral_pitch_track(yaapt_preprocess(sig, cfg), cfg)
        np.testing.assert_array_equal(
            track.coarse_f0_hz > 0, track.nlfer >= cfg.nlfer_threshold
        )


class TestNccfCandidates:
    def test_silence_empty_sets(self):
        branches = yaapt_preprocess(AudioSignal(np.zeros(24000), 48000.0), YaaptConfig())
        sets = nccf_candidates(branches, YaaptConfig())
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

    @pytest.mark.parametrize("f0, merit", [
        (300.0, math.nan), (300.0, 5.0), (300.0, -0.1),
        (-300.0, 0.5), (0.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
    ])
    def test_bad_candidate_named(self, f0, merit):
        # frame 2's second candidate is the first bad one in frame order
        candidates = [[NccfCandidate(300.0, 0.9)] for _ in range(4)]
        candidates[2] = [NccfCandidate(300.0, 0.9), NccfCandidate(f0, merit)]
        candidates[3] = [NccfCandidate(f0, merit)]
        spectral = SpectralTrack(np.full(4, 300.0), np.full(4, 2.0))
        with pytest.raises(ValueError, match="^frame 2, candidate 1: "):
            yaapt_dp_select(candidates, spectral, YaaptConfig())

    @pytest.mark.parametrize("candidates, named", [
        ([[(200.0, 0.5, 1.0)], [(210.0, 0.4, 1.0)]], "frame 0, candidate 0: (200.0, 0.5, 1.0)"),
        ([[(200.0, 0.5)], [(210.0, 0.4), (210.0,)], [(220.0, 0.3, 0.1)]],
         "frame 1, candidate 1: (210.0,)"),
        # a bad value before it: the pair rule is checked first
        ([[(-200.0, 0.5)], [], [[220.0, 0.3], 220.0]], "frame 2, candidate 1: 220.0"),
    ])
    def test_candidate_that_is_not_a_pair_is_named(self, candidates, named):
        n = len(candidates)
        spectral = SpectralTrack(np.full(n, 200.0), np.ones(n))
        with pytest.raises(ValueError) as raised:
            yaapt_dp_select(candidates, spectral, YaaptConfig())
        assert str(raised.value) == f"{named} is not an (f0, merit) pair"

    def test_any_finite_f0_above_0_decodes(self):
        # against the coarse track and the previous frame, 5e-324 Hz
        # underflows to a ratio of 0 and 1.7e308 Hz overflows to infinity
        candidates = [[NccfCandidate(f0, 0.9)] for f0 in (5e-324, 1e-320, 1.7e308, 150.0)]
        spectral = SpectralTrack(np.array([150.0, 150.0, 0.5, 150.0]), np.full(4, 2.0))
        track = yaapt_dp_select(candidates, spectral, YaaptConfig())
        assert len(track) == 4 and track.frames[3] == 150.0

    @pytest.mark.parametrize("n_frames", [0, 3])
    def test_hop_defaults_to_the_config(self, n_frames):
        cfg = YaaptConfig(hop_ms=5.0)
        candidates = [[NccfCandidate(150.0, 0.9)] for _ in range(n_frames)]
        spectral = SpectralTrack(np.full(n_frames, 150.0), np.full(n_frames, 2.0))
        assert yaapt_dp_select(candidates, spectral, cfg).hop_seconds == 0.005
        track = yaapt_dp_select(candidates, spectral, cfg, hop_seconds=0.02)
        assert track.hop_seconds == 0.02

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

    @pytest.mark.parametrize("rate,factor", [(16000, 1), (48000, 3)])
    def test_each_branch_decimated_once(self, rate, factor, monkeypatch):
        # the spectral and NCCF stages share one decimated pair
        factors = []
        decimate = yaapt._decimate_for_spectral

        def counted(samples, k):
            factors.append(k)
            return decimate(samples, k)

        monkeypatch.setattr(yaapt, "_decimate_for_spectral", counted)
        track = yaapt_track(padded_tone(sawtooth(150.0, 0.5, rate), rate))
        assert track.voiced.any()
        assert factors == [factor, factor]

    @pytest.mark.parametrize("rate", [11025, 16000, 44100, 48000])
    def test_public_stages_compose_into_the_track(self, rate):
        cfg = YaaptConfig()
        rng = np.random.default_rng(rate)
        tone = sawtooth(150.0, 0.5, rate) + 0.01 * rng.standard_normal(rate // 2)
        sig = padded_tone(tone, rate)
        branches = yaapt_preprocess(sig, cfg)
        spectral = spectral_pitch_track(branches, cfg)
        staged = yaapt_dp_select(nccf_candidates(branches, cfg), spectral, cfg)
        track = yaapt_track(sig, cfg)
        assert track.voiced.any()
        assert staged.hop_seconds == track.hop_seconds
        assert staged.frames.tobytes() == track.frames.tobytes()

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
