"""``read_wav`` on hostile input: non-finite float samples, a short
extensible ``fmt `` chunk, a rate field above the ceiling, and a fuzz over
truncated and mutated files.

Whatever the bytes, the reader returns a signal or raises
:class:`WavFormatError`; inputs are small byte strings, and the reader
never allocates what a header claims, only what the file holds.
"""
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchbench
from pitchbench import AudioSignal, WavFormatError, read_wav

PCM, FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE


def chunk(tag: bytes, body: bytes) -> bytes:
    return tag + struct.pack("<I", len(body)) + body + b"\0" * (len(body) & 1)


def fmt_body(fmt=PCM, channels=1, rate=16000, bits=16, sub_format=None) -> bytes:
    align = channels * bits // 8
    body = struct.pack("<HHIIHH", fmt, channels, rate, rate * align % 2**32, align, bits)
    if sub_format is not None:  # cbSize, valid bits, channel mask, GUID
        body += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", sub_format) + bytes(14)
    return body


def wav(*chunks: bytes) -> bytes:
    payload = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(payload)) + payload


def float_wav(samples, channels=1) -> bytes:
    data = np.asarray(samples, dtype="<f4").tobytes()
    return wav(chunk(b"fmt ", fmt_body(FLOAT, channels, bits=32)), chunk(b"data", data))


class TestNonFiniteFloatSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_sample_is_named_by_offset(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        path.write_bytes(float_wav([0.1, 0.2, bad, 0.3, bad]))
        data_offset = 12 + 8 + 16 + 8
        with pytest.raises(WavFormatError, match="not finite") as err:
            read_wav(path)
        assert err.value.byte_offset == data_offset + 2 * 4

    def test_signalling_nan_is_rejected_without_a_warning(self, tmp_path):
        # 0x7f800001 is a signalling NaN; widening it to float64 warns
        data = struct.pack("<fI", 0.5, 0x7F800001)
        path = tmp_path / "snan.wav"
        path.write_bytes(wav(chunk(b"fmt ", fmt_body(FLOAT, bits=32)), chunk(b"data", data)))
        with pytest.raises(WavFormatError) as err:
            read_wav(path)
        assert err.value.byte_offset == 12 + 8 + 16 + 8 + 4

    def test_offset_counts_every_channel(self, tmp_path):
        path = tmp_path / "stereo.wav"
        # frames (0.1, nan) (0.2, 0.0) (nan, 0.0): channel 1 is not read
        path.write_bytes(float_wav([0.1, np.nan, 0.2, 0.0, np.nan, 0.0], channels=2))
        with pytest.raises(WavFormatError) as err:
            read_wav(path)
        assert err.value.byte_offset == 12 + 8 + 16 + 8 + 2 * 2 * 4

    def test_finite_floats_read_back(self, tmp_path):
        path = tmp_path / "ok.wav"
        path.write_bytes(float_wav([0.25, -0.5]))
        np.testing.assert_array_equal(read_wav(path).samples, [0.25, -0.5])


class TestExtensibleFmt:
    def test_sixteen_byte_extensible_chunk_is_rejected(self, tmp_path):
        # the word after the short chunk is the next chunk's tag; it must
        # not be taken for the format
        path = tmp_path / "short.wav"
        data = chunk(b"data", np.zeros(4, dtype="<i2").tobytes())
        path.write_bytes(wav(chunk(b"fmt ", fmt_body(EXTENSIBLE)), data, data))
        with pytest.raises(WavFormatError, match="shorter than 26") as err:
            read_wav(path)
        assert err.value.byte_offset == 12 + 8

    @pytest.mark.parametrize("sub_format, bits", [(PCM, 16), (FLOAT, 32)])
    def test_full_extensible_chunk_reads(self, tmp_path, sub_format, bits):
        samples = np.array([0.5, -0.25])
        raw = (samples.astype("<f4") if sub_format == FLOAT
               else np.round(samples * 32768).astype("<i2")).tobytes()
        path = tmp_path / "ext.wav"
        fmt = fmt_body(EXTENSIBLE, bits=bits, sub_format=sub_format)
        path.write_bytes(wav(chunk(b"fmt ", fmt), chunk(b"data", raw)))
        np.testing.assert_array_equal(read_wav(path).samples, samples)


def tone_wav(rate: int) -> bytes:
    """800 samples of a 16-bit tone under a canonical 44-byte header, the
    rate field at byte 24: 1,644 bytes."""
    pcm = np.round(16384 * np.sin(2 * np.pi * np.arange(800) / 53)).astype("<i2")
    return wav(chunk(b"fmt ", fmt_body(rate=rate)), chunk(b"data", pcm.tobytes()))


# A detect on the 4.28 GHz file below asked the engines for 1.28 GiB (pYIN)
# and 2.10 GiB (YAAPT) before the ceiling; the child runs under this cap.
ADDRESS_SPACE_CAP = 1_500_000 * 1024

DETECT_CHILD = """
import resource
import sys

cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from pitchbench.cli import main

sys.exit(main(["detect", "--algo", sys.argv[2], "--in", sys.argv[3], "--out", sys.argv[4]]))
"""


class TestRateCeiling:
    """``read_wav`` rejects a rate field above 768 kHz, naming the field's
    offset, before any engine sizes a frame or a filter from it."""

    def test_rate_above_the_ceiling_is_rejected(self, tmp_path):
        path = tmp_path / "fast.wav"
        path.write_bytes(tone_wav(4_280_000_000))
        assert path.stat().st_size == 1644
        tracemalloc.start()
        try:
            with pytest.raises(WavFormatError, match="768000 Hz ceiling") as err:
                read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.byte_offset == 24
        assert peak < 2**20

    def test_ceiling_itself_reads(self, tmp_path):
        path = tmp_path / "edge.wav"
        path.write_bytes(tone_wav(768_000))
        assert read_wav(path).sample_rate_hz == 768_000.0
        path.write_bytes(tone_wav(768_001))
        with pytest.raises(WavFormatError, match="sample rate 768001 Hz"):
            read_wav(path)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS of Linux")
    @pytest.mark.parametrize("algo", ["pyin", "yaapt"])
    def test_detect_names_the_wav_and_the_ceiling(self, tmp_path, algo):
        wav_path, out = tmp_path / "fast.wav", tmp_path / "fast.csv"
        wav_path.write_bytes(tone_wav(4_280_000_000))
        src = str(Path(pitchbench.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        argv = [str(ADDRESS_SPACE_CAP), algo, str(wav_path), str(out)]
        result = subprocess.run([sys.executable, "-c", DETECT_CHILD, *argv],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 1, result.stderr
        assert result.stderr.splitlines() == [
            f"error: {wav_path}: sample rate 4280000000 Hz is above the 768000 Hz ceiling"
            " (byte offset 24)"
        ]
        assert not out.exists()


# ---------------------------------------------------------------------------
# Fuzz
# ---------------------------------------------------------------------------

@st.composite
def wav_bytes(draw):
    fmt = draw(st.sampled_from([PCM, FLOAT, EXTENSIBLE, 0x0055]))
    sub_format = draw(st.sampled_from([PCM, FLOAT, 0x0002])) if fmt == EXTENSIBLE else None
    floats = FLOAT in (fmt, sub_format)
    bits = draw(st.sampled_from([32, 32, 64] if floats else [8, 16, 24, 32]))
    channels = draw(st.integers(0, 3))
    rate = draw(st.sampled_from([0, 8000, 44100, 2**32 - 1]))
    extensible_body = draw(st.booleans())
    body = fmt_body(fmt, channels, rate, bits, sub_format if extensible_body else None)
    if floats:
        values = draw(st.lists(st.sampled_from([0.5, -1.0, np.nan, np.inf, -np.inf, 0.0]),
                               max_size=8))
        payload = np.array(values, dtype="<f4").tobytes()
    else:
        payload = draw(st.binary(max_size=24))
    parts = [chunk(b"fmt ", body), chunk(b"data", payload)]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, 2)), chunk(b"LIST", draw(st.binary(max_size=5))))
    data = bytearray(wav(*parts))
    # mutations: overwrite bytes (chunk sizes, tags, header fields), odd or
    # huge claimed sizes, truncation
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        data[pos : pos + 1] = bytes([draw(st.integers(0, 255))])
    if draw(st.booleans()):
        pos = draw(st.integers(0, max(0, len(data) - 4)))
        size = draw(st.sampled_from([1, 3, 25, 2**31, 2**32 - 1]))
        data[pos : pos + 4] = struct.pack("<I", size)
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(wav_bytes())
def test_reader_returns_a_signal_or_raises_wav_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.wav"
    path.write_bytes(data)
    try:
        signal = read_wav(path)
    except WavFormatError:
        return
    assert isinstance(signal, AudioSignal)
    assert np.all(np.isfinite(signal.samples))
    assert signal.samples.size <= len(data)
