"""Invariants of the engines checked as properties over generated input."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitchbench import AudioSignal, pyin_track, yaapt_track
from conftest import padded_tone, sawtooth

ENGINES = {"pyin": pyin_track, "yaapt": yaapt_track}


@st.composite
def voiced_signals(draw):
    """A sawtooth with noise between silent edges, at a rate both engines
    accept with default configs."""
    rate = draw(st.sampled_from([8000, 16000, 22050, 48000]))
    f0 = draw(st.floats(80.0, 350.0))
    noise = draw(st.floats(0.0, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tone = sawtooth(f0, 0.3, rate)
    tone = tone + noise * rng.standard_normal(tone.size)
    return padded_tone(tone, rate, lead_s=0.05, trail_s=0.05)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ENGINES)), voiced_signals(), st.integers(-20, 20))
def test_gain_invariance(engine, signal, k):
    # scaling by a power of two is exact through every transform,
    # normalisation and threshold, so the track keeps its bits
    track = ENGINES[engine]
    scaled = AudioSignal(signal.samples * 2.0**k, signal.sample_rate_hz)
    assert track(scaled).frames.tobytes() == track(signal).frames.tobytes()


# Whole-hop shifts: 441 samples are 4 hops of 10 ms at 11.025 kHz and 2 at
# 22.05 kHz, where the hop is not a whole number of samples
SHIFT = 441
HOPS = {11025: 4, 22050: 2}


def shifted_pair(rate, f0, noise, seed):
    """A noisy sawtooth between silent edges, and the same content SHIFT
    samples later in a signal of equal length."""
    tone = sawtooth(f0, 0.3, rate)
    tone = tone + noise * np.random.default_rng(seed).standard_normal(tone.size)
    lead = int(0.05 * rate)
    first, later = np.zeros((2, 2 * lead + tone.size + SHIFT))
    first[lead : lead + tone.size] = tone
    later[lead + SHIFT : lead + SHIFT + tone.size] = tone
    return AudioSignal(first, rate), AudioSignal(later, rate)


def shifted_tracks(engine, pair):
    """Both tracks on the frames they share, frame k of the first against
    frame k + SHIFT / hop of the second, and which of these frames are
    centred on a whole sample."""
    first, later = pair
    rate = int(first.sample_rate_hz)
    hops = HOPS[rate]
    a = ENGINES[engine](first).frames[:-hops]
    b = ENGINES[engine](later).frames[hops:]
    whole = np.arange(a.size) * (rate / 100) % 1 == 0
    return a, b, whole


def assert_shifted(engine, a, b):
    if engine == "pyin":
        # every frame sees the same samples, so the track keeps its bits
        assert a.tobytes() == b.tobytes()
    else:
        # YAAPT's whole-signal FFT bandpass rounds differently once the
        # content moves; the NLFER mean sees the same frames
        assert ((a > 0) == (b > 0)).all()
        np.testing.assert_allclose(b, a, rtol=1e-9, atol=0.0)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(ENGINES)),
    st.sampled_from(sorted(HOPS)),
    st.floats(80.0, 350.0),
    st.floats(0.0, 0.1),
    st.integers(0, 2**32 - 1),
)
def test_whole_hop_shift_equivariance(engine, rate, f0, noise, seed):
    # on the frames centred on a whole sample; see the test below for the rest
    a, b, whole = shifted_tracks(engine, shifted_pair(rate, f0, noise, seed))
    assert_shifted(engine, a[whole], b[whole])


# A plain test, not a property: frame placement depends only on the rate
# and the shift, so one fixed tone per engine and rate shows the defect.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="frame_centers rounds half to even, so a frame centred half way"
    " between samples moves by SHIFT + 1 samples, not SHIFT",
)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("rate", sorted(HOPS))
def test_whole_hop_shift_moves_every_frame(engine, rate):
    a, b, _ = shifted_tracks(engine, shifted_pair(rate, 190.0, 0.05, 0))
    assert_shifted(engine, a, b)
