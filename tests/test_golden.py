"""Golden-output regression: both engines on fixed synthetic signals.

``golden_tracks.npz`` holds the f0 arrays that pYIN and YAAPT produced
for the signals below at commit 3c9b3ab, before framing and decoding
were unified. Voicing must match exactly and f0 within 1e-9 relative:
FFT SIMD code paths may move the last bits of a lag curve, so the
comparison is not bit-exact.

Re-record (only on a commit whose tracks are the intended reference):
``PYTHONPATH=src python tests/test_golden.py``.
"""
from pathlib import Path

import numpy as np
import pytest

from pitchbench import pyin_track, yaapt_track
from conftest import missing_fundamental, padded_tone, sawtooth, sine

GOLDEN = Path(__file__).with_name("golden_tracks.npz")
RATES = (8000, 16000, 44100, 48000)
ENGINES = {"pyin": pyin_track, "yaapt": yaapt_track}


def _noise(n, seed, amp):
    # uniform doubles: the simplest, most version-stable Generator stream
    return amp * (2.0 * np.random.default_rng(seed).random(n) - 1.0)


def golden_signal(kind, rate):
    """0.5 s of ``kind`` between 0.1 s of silence on either side."""
    if kind == "sine":
        tone = sine(220.0, 0.5, rate)
    elif kind == "sawtooth":
        tone = sawtooth(130.0, 0.5, rate)
    elif kind == "missing_fundamental":
        tone = missing_fundamental(180.0, 0.5, rate)
    elif kind == "noisy":
        tone = sawtooth(200.0, 0.5, rate)
        tone = tone + _noise(tone.size, rate, 0.1)
    else:
        tone = _noise(int(round(0.5 * rate)), rate + 1, 0.3)
    return padded_tone(tone, rate, lead_s=0.1, trail_s=0.1)


KINDS = ("sine", "sawtooth", "missing_fundamental", "noisy", "noise")
CASES = [(engine, kind, rate) for engine in ENGINES for kind in KINDS for rate in RATES]


def _key(engine, kind, rate):
    return f"{engine}_{kind}_{rate}"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("engine,kind,rate", CASES, ids=[_key(*c) for c in CASES])
def test_track_matches_golden(golden, engine, kind, rate):
    want = golden[_key(engine, kind, rate)]
    track = ENGINES[engine](golden_signal(kind, rate))
    assert track.hop_seconds == 0.010
    np.testing.assert_array_equal(track.voiced, want > 0)
    np.testing.assert_allclose(track.frames, want, rtol=1e-9, atol=0)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*c) for c in CASES)


if __name__ == "__main__":
    tracks = {_key(e, k, r): ENGINES[e](golden_signal(k, r)).frames for e, k, r in CASES}
    np.savez_compressed(GOLDEN, **tracks)
    print(f"wrote {len(tracks)} tracks to {GOLDEN}")
