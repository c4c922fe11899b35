import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pitchbench import (
    PitchTrack,
    TrackFormatError,
    WavFormatError,
    read_external_track,
    read_reference_track,
    read_wav,
    write_track,
)


def write_wav_24bit(path, rate, samples):
    """Minimal 24-bit PCM writer (scipy has no 24-bit support)."""
    ints = np.clip(np.round(samples * (1 << 23)), -(1 << 23), (1 << 23) - 1).astype(np.int64)
    payload = b"".join(struct.pack("<i", int(v) << 8)[1:] for v in ints)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24)
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestReadWav:
    def test_full_scale_16bit(self, tmp_path):
        path = tmp_path / "full.wav"
        scipy.io.wavfile.write(path, 48000, np.array([32767], dtype=np.int16))
        sig = read_wav(path)
        assert sig.sample_rate_hz == 48000
        assert sig.samples[0] == pytest.approx(0.99997, abs=1e-5)

    def test_int16_roundtrip_within_quantum(self, tmp_path, rng):
        x = rng.uniform(-0.9, 0.9, size=2000)
        ints = np.round(x * 32768).clip(-32768, 32767).astype(np.int16)
        path = tmp_path / "rt16.wav"
        scipy.io.wavfile.write(path, 16000, ints)
        sig = read_wav(path)
        np.testing.assert_allclose(sig.samples, x, atol=1.0 / 32768)

    def test_int32_roundtrip(self, tmp_path, rng):
        x = rng.uniform(-0.9, 0.9, size=500)
        ints = np.round(x * (1 << 31)).clip(-(1 << 31), (1 << 31) - 1).astype(np.int32)
        path = tmp_path / "rt32.wav"
        scipy.io.wavfile.write(path, 22050, ints)
        sig = read_wav(path)
        np.testing.assert_allclose(sig.samples, x, atol=1.0 / (1 << 31))

    def test_float32_roundtrip(self, tmp_path, rng):
        x = rng.uniform(-0.9, 0.9, size=500).astype(np.float32)
        path = tmp_path / "rtf.wav"
        scipy.io.wavfile.write(path, 44100, x)
        sig = read_wav(path)
        np.testing.assert_allclose(sig.samples, x.astype(np.float64), atol=1e-7)

    def test_24bit_roundtrip(self, tmp_path, rng):
        x = rng.uniform(-0.9, 0.9, size=300)
        path = tmp_path / "rt24.wav"
        write_wav_24bit(path, 48000, x)
        sig = read_wav(path)
        assert sig.sample_rate_hz == 48000
        np.testing.assert_allclose(sig.samples, x, atol=1.0 / (1 << 23))

    def test_stereo_takes_channel_zero(self, tmp_path):
        left = np.array([1000, 2000, 3000], dtype=np.int16)
        right = np.array([-1, -2, -3], dtype=np.int16)
        path = tmp_path / "stereo.wav"
        scipy.io.wavfile.write(path, 48000, np.stack([left, right], axis=1))
        sig = read_wav(path)
        assert sig.sample_rate_hz == 48000
        np.testing.assert_allclose(sig.samples, left / 32768.0)

    def test_truncated_header_names_missing_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(b"RIFF\x24\x00\x00\x00WAVE")
        with pytest.raises(WavFormatError, match="fmt"):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        body = b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
        path = tmp_path / "nodata.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="data"):
            read_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"OggS" + bytes(40))
        with pytest.raises(WavFormatError) as err:
            read_wav(path)
        assert err.value.byte_offset == 0

    def test_error_survives_pickling(self, tmp_path):
        # compare's worker processes hand reader errors back pickled
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"RIFF" + bytes(4) + b"WAVE")
        with pytest.raises(WavFormatError) as err:
            read_wav(path)
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is WavFormatError
        assert str(copy) == str(err.value) == "missing 'fmt ' chunk (byte offset 12)"
        assert copy.byte_offset == 12

    def test_unsupported_codec_reports_offset(self, tmp_path):
        # format tag 6 = a-law
        body = (
            b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 6, 1, 8000, 8000, 1, 8)
            + b"data" + struct.pack("<I", 4) + bytes(4)
        )
        path = tmp_path / "alaw.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="0x0006") as err:
            read_wav(path)
        assert err.value.byte_offset > 0

    def test_truncated_data_chunk(self, tmp_path):
        body = (
            b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
            + b"data" + struct.pack("<I", 100) + bytes(10)
        )
        path = tmp_path / "short.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="truncated"):
            read_wav(path)


class TestReadReferenceTrack:
    def test_basic_three_lines(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("0.0\n188.5\n0.0\n")
        track = read_reference_track(path)
        assert track.hop_seconds == 0.010
        np.testing.assert_array_equal(track.frames, [0.0, 188.5, 0.0])

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("120.5 1 0.9 0.2\n")
        track = read_reference_track(path)
        np.testing.assert_array_equal(track.frames, [120.5])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("100.0\n\n  \n200.0\n")
        assert len(read_reference_track(path)) == 2

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("100.0\npitch\n")
        with pytest.raises(TrackFormatError, match=":2:"):
            read_reference_track(path)

    def test_negative_f0_rejected(self, tmp_path):
        path = tmp_path / "ref.txt"
        path.write_text("-5.0\n")
        with pytest.raises(TrackFormatError, match="negative"):
            read_reference_track(path)


class TestReadExternalTrack:
    def test_confidence_threshold_applied(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("time_s,f0_hz,confidence\n0.00,200,0.9\n0.01,210,0.4\n")
        track = read_external_track(path)
        np.testing.assert_array_equal(track.frames, [200.0, 0.0])
        assert track.hop_seconds == pytest.approx(0.01)

    def test_no_confidence_column_keeps_all(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("time_s,f0_hz\n0.00,200\n0.01,210\n")
        track = read_external_track(path)
        np.testing.assert_array_equal(track.frames, [200.0, 210.0])
        assert track.confidence is None

    def test_zero_threshold_keeps_everything(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("time_s,f0_hz,confidence\n0.00,200,0.0\n0.01,210,0.01\n")
        track = read_external_track(path, confidence_threshold=0.0)
        np.testing.assert_array_equal(track.frames, [200.0, 210.0])

    def test_non_uniform_timestamps_rejected(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("time_s,f0_hz\n0.00,200\n0.01,210\n0.03,220\n")
        with pytest.raises(TrackFormatError, match="uniform"):
            read_external_track(path)

    def test_missing_f0_column(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("time_s,frequency\n0.00,200\n")
        with pytest.raises(TrackFormatError, match="f0_hz"):
            read_external_track(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5.0"])
    def test_bad_f0_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "ext.csv"
        path.write_text(f"time_s,f0_hz\n0.00,200\n\n0.01,{value}\n0.02,210\n")
        with pytest.raises(TrackFormatError, match=rf"ext\.csv:4: f0_hz must be finite and >= 0"):
            read_external_track(path)

    def test_non_finite_time_names_file_and_line(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("time_s,f0_hz\n0.00,200\nnan,210\n0.02,220\n")
        with pytest.raises(TrackFormatError, match=r"ext\.csv:3: time_s must be finite"):
            read_external_track(path)

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_confidence_outside_unit_interval_rejected(self, tmp_path, value):
        path = tmp_path / "ext.csv"
        path.write_text(f"time_s,f0_hz,confidence\n0.00,200,0.9\n0.01,210,{value}\n")
        with pytest.raises(TrackFormatError, match=r"ext\.csv:3: confidence must lie in \[0, 1\]"):
            read_external_track(path)

    def test_unit_interval_confidence_bounds_accepted(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("time_s,f0_hz,confidence\n0.00,200,0\n0.01,210,1\n")
        track = read_external_track(path)
        np.testing.assert_array_equal(track.frames, [0.0, 210.0])


class TestWriteTrack:
    def test_two_rows_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_track(PitchTrack(0.01, np.array([0.0, 150.0])), path)
        lines = path.read_text().splitlines()
        assert lines == ["frame,time_s,f0_hz", "0,0.000000,0", "1,0.010000,150"]

    def test_empty_track_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_track(PitchTrack(0.01, np.zeros(0)), path)
        assert path.read_text() == "frame,time_s,f0_hz\n"

    def test_roundtrip_random_track(self, tmp_path, rng):
        f0 = np.where(rng.random(100) < 0.4, 0.0, rng.uniform(60, 400, 100))
        track = PitchTrack(0.01, f0)
        path = tmp_path / "rt.csv"
        write_track(track, path)
        back = read_external_track(path)
        np.testing.assert_array_equal(back.voiced, track.voiced)
        voiced = track.voiced
        np.testing.assert_allclose(back.frames[voiced], track.frames[voiced], rtol=1e-4)

    def test_write_read_write_idempotent(self, tmp_path, rng):
        f0 = np.where(rng.random(50) < 0.3, 0.0, rng.uniform(60, 400, 50))
        conf = rng.random(50)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_track(PitchTrack(0.01, f0, conf), first)
        back = read_external_track(first, confidence_threshold=0.0)
        write_track(back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_read_write_composition_idempotent_with_thresholding(self, tmp_path, rng):
        # the first pass may zero low-confidence frames; a second pass
        # must then be a fixed point
        f0 = rng.uniform(60, 400, 40)
        conf = rng.random(40)
        origin = tmp_path / "origin.csv"
        once = tmp_path / "once.csv"
        twice = tmp_path / "twice.csv"
        write_track(PitchTrack(0.01, f0, conf), origin)
        write_track(read_external_track(origin), once)
        write_track(read_external_track(once), twice)
        assert once.read_bytes() == twice.read_bytes()

    def test_confidence_column_roundtrip(self, tmp_path):
        track = PitchTrack(0.01, np.array([100.0, 200.0]), np.array([0.25, 0.75]))
        path = tmp_path / "c.csv"
        write_track(track, path)
        header = path.read_text().splitlines()[0]
        assert header == "frame,time_s,f0_hz,confidence"
        back = read_external_track(path, confidence_threshold=0.5)
        np.testing.assert_array_equal(back.frames, [0.0, 200.0])


HOP_S = 0.010  # the engines' hop


@st.composite
def written_tracks(draw):
    """A track at the engines' hop, with or without confidence, and a
    confidence threshold to read it back with."""
    n = draw(st.integers(0, 120))
    f0 = st.one_of(st.just(0.0), st.floats(1e-3, 2e4))
    frames = np.array(draw(st.lists(f0, min_size=n, max_size=n)), dtype=np.float64)
    confidence = None
    if draw(st.booleans()):
        conf = st.floats(0.0, 1.0)
        confidence = np.array(draw(st.lists(conf, min_size=n, max_size=n)), dtype=np.float64)
    return PitchTrack(HOP_S, frames, confidence), draw(st.floats(0.0, 1.0))


class TestWriteReadProperty:
    @settings(max_examples=150, deadline=None)
    @given(written_tracks())
    # a confidence that six significant digits would round up to the threshold
    @example((PitchTrack(HOP_S, np.array([200.0, 200.0]), np.array([0.4999996, 0.5])), 0.5))
    def test_round_trip(self, case):
        track, threshold = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "track.csv"
            write_track(track, path)
            back = read_external_track(path, confidence_threshold=threshold)
        expected_voiced = track.frames > 0
        if track.confidence is not None:
            expected_voiced &= track.confidence >= threshold
        np.testing.assert_array_equal(back.frames > 0, expected_voiced)
        if track.confidence is None:
            assert back.confidence is None
        else:
            np.testing.assert_array_equal(back.confidence, track.confidence)
        # six significant digits: within half a unit of the sixth digit,
        # plus the rounding of reading the decimal back
        f0, f0_back = track.frames[expected_voiced], back.frames[expected_voiced]
        assert np.all(np.abs(f0_back - f0) <= 5e-6 * f0 + np.spacing(f0))
        assert back.hop_seconds == HOP_S


class TestTrackTypes:
    def test_pitch_track_validation(self):
        with pytest.raises(ValueError):
            PitchTrack(0.01, np.array([-1.0]))
        with pytest.raises(ValueError):
            PitchTrack(0.0, np.array([100.0]))
        with pytest.raises(ValueError):
            PitchTrack(0.01, np.array([100.0]), np.array([0.5, 0.5]))
