"""Invariants of the engines checked as properties over generated input."""
import numpy as np
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
