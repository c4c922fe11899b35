"""The engines' trimmed FFT work against direct formulations.

The lag stage correlates each frame with its head by a circular FFT
only as long as the frame; direct dot products show no term wraps
around. The spectral stage transforms only the NLFER-gated frames, the
ones it scores, and scales each branch by its peak over them; a literal
stage that transforms every frame and takes the same peak shows the
coarse track and the NLFER keep every bit, and no ungated sound moves a
scored frame.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from pitchbench import AudioSignal, YaaptConfig, spectral_pitch_track, yaapt_preprocess
from pitchbench.signal import _lag_terms
from conftest import all_frames_spectral, missing_fundamental, padded_tone, same_bits, sawtooth


# ---------------------------------------------------------------------------
# Lag stage: no wrap-around
# ---------------------------------------------------------------------------

# frame lengths of the engines at 44.1 and 22.05 kHz, whose fastest
# transform is longer than the frame, and odd lengths
PADDED_SIZES = [1544, 772]
assert all(next_fast_len(size, real=True) > size for size in PADDED_SIZES)


@st.composite
def lag_problems(draw):
    size = draw(st.one_of(
        st.sampled_from(PADDED_SIZES + [1920, 1680, 640, 560]),
        st.integers(3, 2000).map(lambda n: n | 1),
        st.integers(3, 2000),
    ))
    max_lag = draw(st.integers(1, (size - 1) // 2))  # below half the frame
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 3))
    t = np.arange(size)
    frames = rng.standard_normal((n_rows, size)) * 10.0 ** rng.uniform(-3, 1, (n_rows, 1))
    # a strong periodic part, so wrapped-around tail terms would not cancel
    frames += np.sin(2 * np.pi * t / rng.uniform(2.5, max(3.0, size / 3)))
    return frames, max_lag


class TestLagTermsDoNotWrap:
    @settings(max_examples=80, deadline=None)
    @given(lag_problems())
    def test_terms_match_direct_sums(self, problem):
        frames, max_lag = problem
        head, lagged, cross = _lag_terms(frames, max_lag)
        width = frames.shape[1] - max_lag
        for r, x in enumerate(frames):
            energy = np.dot(x, x)
            tol = 1e-12 * energy
            window = x[:width]
            assert abs(head[r] - np.dot(window, window)) <= tol
            for tau in range(max_lag + 1):
                shifted = x[tau : tau + width]
                assert abs(lagged[r, tau] - np.dot(shifted, shifted)) <= tol
                assert abs(cross[r, tau] - np.dot(window, shifted)) <= tol


# ---------------------------------------------------------------------------
# Spectral stage: SHC spectra of the gated frames only
# ---------------------------------------------------------------------------

def assert_stage_matches(signal, config):
    track = spectral_pitch_track(yaapt_preprocess(signal, config), config)
    coarse, nlfer = all_frames_spectral(signal, config)
    assert same_bits(track.coarse_f0_hz, coarse)
    assert same_bits(track.nlfer, nlfer)
    return track


# 11.025 and 22.05 kHz frame the spectral stage at uneven hops, and 44.1 kHz
# decimates 3:1, so edge frames reach past either end of its branches
RATES = [8000, 11025, 16000, 22050, 44100, 48000]


class TestShcSpectraOnlyWhereNeeded:
    @pytest.mark.parametrize("rate,short", [
        *(pytest.param(rate, False, id=str(rate)) for rate in RATES),
        *(pytest.param(rate, True, id=f"{rate}-short") for rate in RATES),
    ])
    def test_loud_ungated_burst_sets_the_peak(self, rate, short):
        # quiet missing-fundamental voicing, then a Hann-shaped 1.2 kHz
        # burst (0.3 s, or 3 ms after a silent gap): its frames carry little
        # band energy, so they are not gated, but at 0.9 it sets the plain
        # branch's utterance-wide peak. Scaled by that peak, the plain branch
        # would shrink beside the nonlinear one and move the voiced frames'
        # coarse f0; scaled by the gated frames' peak, no frame moves
        def signal(burst_amp):
            voiced = 0.05 * missing_fundamental(140.0, 0.5, rate)
            t = np.arange(int(round((0.003 if short else 0.3) * rate))) / rate
            burst = burst_amp * np.sin(2 * np.pi * 1200.0 * t) * np.hanning(t.size)
            gap = np.zeros(int(round(0.1 * rate)) if short else 0)
            return padded_tone(np.concatenate([voiced, gap, burst]), rate, 0.1, 0.1)

        config = YaaptConfig()
        quiet, loud = (assert_stage_matches(signal(amp), config) for amp in (0.01, 0.9))
        gated = quiet.nlfer >= config.nlfer_threshold
        assert gated.any() and np.array_equal(gated, loud.nlfer >= config.nlfer_threshold)
        assert same_bits(quiet.coarse_f0_hz, loud.coarse_f0_hz)

    @pytest.mark.parametrize("rate", RATES)
    def test_no_frame_gated(self, rate):
        signal = padded_tone(sawtooth(150.0, 0.4, rate), rate, 0.1, 0.1)
        track = assert_stage_matches(signal, YaaptConfig(nlfer_threshold=1000.0))
        assert not track.coarse_f0_hz.any()

    @pytest.mark.parametrize("rate", RATES)
    def test_every_frame_gated(self, rate):
        rng = np.random.default_rng(rate)
        tone = sawtooth(180.0, 0.6, rate) + 0.05 * rng.standard_normal(int(round(0.6 * rate)))
        track = assert_stage_matches(AudioSignal(tone, rate), YaaptConfig(nlfer_threshold=1e-6))
        assert track.coarse_f0_hz.all()

    @pytest.mark.parametrize("rate", RATES)
    def test_silence(self, rate):
        track = assert_stage_matches(AudioSignal(np.zeros(rate // 2), rate), YaaptConfig())
        assert not track.coarse_f0_hz.any()

    @pytest.mark.parametrize("rate", RATES)
    def test_empty_signal(self, rate):
        config = YaaptConfig()
        signal = AudioSignal(np.zeros(0), rate)
        track = spectral_pitch_track(yaapt_preprocess(signal, config), config)
        assert len(track) == 0
