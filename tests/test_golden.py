"""Golden-output regression: both engines on fixed synthetic signals.

``golden_tracks.npz`` holds the f0 arrays that pYIN and YAAPT produced
for the signals below at commit 3c9b3ab, before framing and decoding
were unified; YAAPT's 44.1 and 48 kHz entries were re-recorded when its
NCCF stage moved to the working rate and again when its bandpass did,
and pYIN's (all but ``noise``) when its lag search moved there too.
Voicing must match exactly and f0 within 1e-9 relative: FFT SIMD code
paths may move the last bits of a lag curve, so the comparison is not
bit-exact.

Re-record (only on a commit whose tracks are the intended reference):
``PYTHONPATH=src python tests/test_golden.py [KEY ...]``. Given keys such
as ``yaapt_sine_48000``, it rewrites only those entries and keeps every
other array as it was; given none, it rewrites every entry.
"""
import sys
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


def record(keys, path=GOLDEN) -> list[str]:
    """Record the entries ``keys`` of the golden file at ``path`` (every
    entry when ``keys`` is empty), keeping the other arrays there as they
    are; returns the keys recorded."""
    cases = {_key(*c): c for c in CASES}
    unknown = sorted(set(keys) - cases.keys())
    if unknown:
        raise ValueError(f"no golden case named {', '.join(unknown)}")
    tracks = {}
    if keys:
        with np.load(path) as data:
            tracks = dict(data)
    for key in keys or cases:
        engine, kind, rate = cases[key]
        tracks[key] = ENGINES[engine](golden_signal(kind, rate)).frames
    np.savez_compressed(path, **tracks)
    return list(keys or cases)


def test_record_rewrites_only_the_named_entries(golden, tmp_path):
    key = "yaapt_noise_8000"
    path = tmp_path / "golden.npz"
    np.savez_compressed(path, **{**golden, key: np.full(3, 7.0)})
    assert record([key], path) == [key]
    with np.load(path) as data:
        rerecorded = dict(data)
    assert sorted(rerecorded) == sorted(golden)
    for name, want in golden.items():
        got = rerecorded[name]
        assert got.dtype == want.dtype and got.shape == want.shape
        if name != key:
            assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(rerecorded[key], golden[key], rtol=1e-9, atol=0)


def test_record_rejects_an_unknown_key(tmp_path):
    with pytest.raises(ValueError, match="no golden case named yaapt_hum_8000"):
        record(["yaapt_hum_8000"], tmp_path / "golden.npz")


if __name__ == "__main__":
    written = record(sys.argv[1:])
    print(f"wrote {len(written)} tracks to {GOLDEN}")
