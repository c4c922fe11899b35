"""Ingestion and serialization of audio and pitch tracks.

Covers RIFF/WAVE reading (PCM 16/24/32-bit int and 32-bit float),
whitespace-delimited reference pitch trajectories, external per-frame
tracks with confidence thresholding, and the canonical track CSV
format ``frame,time_s,f0_hz[,confidence]``.
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .signal import AudioSignal


class WavFormatError(ValueError):
    """Malformed or unsupported WAV data; carries the offending byte offset."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.message = message
        self.byte_offset = byte_offset

    def __reduce__(self):
        # rebuilt from both constructor arguments, so it crosses process pools
        return type(self), (self.message, self.byte_offset)


class TrackFormatError(ValueError):
    """Malformed pitch-track file."""


@dataclass
class PitchTrack:
    """Per-frame fundamental frequency at a uniform hop.

    ``frames[k]`` is the f0 in Hz at time ``k * hop_seconds``; 0.0
    encodes an unvoiced frame. ``confidence``, when present, holds one
    value in [0, 1] per frame.
    """

    hop_seconds: float
    frames: np.ndarray
    confidence: np.ndarray | None = None

    def __post_init__(self):
        if not self.hop_seconds > 0:
            raise ValueError(f"hop_seconds must be > 0, got {self.hop_seconds}")
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 1:
            raise ValueError(f"frames must be 1-D, got shape {frames.shape}")
        if frames.size and (not np.all(np.isfinite(frames)) or np.any(frames < 0)):
            raise ValueError("frame f0 values must be finite and >= 0")
        self.frames = frames
        self.hop_seconds = float(self.hop_seconds)
        if self.confidence is not None:
            conf = np.asarray(self.confidence, dtype=np.float64)
            if conf.shape != frames.shape:
                raise ValueError(
                    f"confidence length {conf.size} does not match {frames.size} frames"
                )
            self.confidence = conf

    def __len__(self) -> int:
        return self.frames.size

    @property
    def voiced(self) -> np.ndarray:
        """Boolean mask of voiced frames."""
        return self.frames > 0


# ---------------------------------------------------------------------------
# WAV reading
# ---------------------------------------------------------------------------

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _decode_pcm(raw: bytes, bits: int, fmt: int, data_offset: int) -> np.ndarray:
    if fmt == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise WavFormatError(f"unsupported float bit depth {bits}", data_offset)
        with np.errstate(invalid="ignore"):  # signalling NaNs; read_wav rejects them
            return np.frombuffer(raw[: len(raw) // 4 * 4], dtype="<f4").astype(np.float64)
    if bits == 16:
        ints = np.frombuffer(raw[: len(raw) // 2 * 2], dtype="<i2")
        return ints.astype(np.float64) / 32768.0
    if bits == 24:
        usable = len(raw) // 3 * 3
        b = np.frombuffer(raw[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        return vals.astype(np.float64) / float(1 << 23)
    if bits == 32:
        ints = np.frombuffer(raw[: len(raw) // 4 * 4], dtype="<i4")
        return ints.astype(np.float64) / float(1 << 31)
    raise WavFormatError(f"unsupported PCM bit depth {bits}", data_offset)


def read_wav(path) -> AudioSignal:
    """Read a RIFF/WAVE file into a normalized mono signal.

    Integer PCM samples are scaled by the full-scale of their bit depth
    to [-1, 1]; 32-bit float data is taken as-is. Multi-channel files
    contribute channel 0 only. Malformed or unsupported files raise
    :class:`WavFormatError` naming the offending chunk and byte offset.
    """
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise WavFormatError("file too short for a RIFF header", 0)
    if data[0:4] != b"RIFF":
        raise WavFormatError(f"missing 'RIFF' tag, found {data[0:4]!r}", 0)
    if data[8:12] != b"WAVE":
        raise WavFormatError(f"missing 'WAVE' tag, found {data[8:12]!r}", 8)

    fmt_fields = None
    fmt_offset = 12
    fmt_size = 0
    pcm_raw = None
    data_offset = 12
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise WavFormatError(
                f"truncated {chunk_id.decode('ascii', 'replace')!r} chunk", pos
            )
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavFormatError("'fmt ' chunk shorter than 16 bytes", pos)
            fmt_fields = struct.unpack_from("<HHIIHH", body, 0)
            fmt_offset = pos + 8
            fmt_size = chunk_size
        elif chunk_id == b"data":
            pcm_raw = body
            data_offset = pos + 8
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt_fields is None:
        raise WavFormatError("missing 'fmt ' chunk", len(data))
    if pcm_raw is None:
        raise WavFormatError("missing 'data' chunk", len(data))

    audio_format, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt_fields
    if audio_format == _WAVE_FORMAT_EXTENSIBLE:
        # actual format is the first word of the SubFormat GUID
        if fmt_size < 26:
            raise WavFormatError("extensible 'fmt ' chunk shorter than 26 bytes", fmt_offset)
        (audio_format,) = struct.unpack_from("<H", data, fmt_offset + 24)
    if audio_format not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
        raise WavFormatError(
            f"unsupported audio codec 0x{audio_format:04x} (only PCM and IEEE float)",
            fmt_offset,
        )
    if n_channels < 1:
        raise WavFormatError("channel count is 0", fmt_offset)
    if sample_rate == 0:
        raise WavFormatError("sample rate is 0", fmt_offset)

    samples = _decode_pcm(pcm_raw, bits, audio_format, data_offset)
    if n_channels > 1:
        samples = samples[: samples.size // n_channels * n_channels]
        samples = samples.reshape(-1, n_channels)[:, 0].copy()
    bad = np.flatnonzero(~np.isfinite(samples))  # only float data can hold any
    if bad.size:
        k = int(bad[0])
        raise WavFormatError(
            f"sample {k} is {samples[k]}, not finite", data_offset + k * n_channels * bits // 8
        )
    return AudioSignal(samples, float(sample_rate))


# ---------------------------------------------------------------------------
# Reference trajectories (plain text, one frame per line)
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1024  # lines or CSV rows a track reader converts at a time


def _chunks(rows) -> Iterator[list]:
    """Successive lists of up to ``_CHUNK_ROWS`` items of ``rows``; a decode
    or CSV error comes after the items read before it, as item by item."""
    while True:
        chunk = []
        try:
            chunk.extend(islice(rows, _CHUNK_ROWS))
        except (ValueError, csv.Error):
            yield chunk
            raise
        if not chunk:
            return
        yield chunk


def read_reference_track(path, hop_seconds: float = 0.010) -> PitchTrack:
    """Read a reference pitch trajectory: one frame per line, first
    whitespace-separated field is f0 in Hz (0 = unvoiced), any further
    columns ignored, blank lines skipped.
    """
    parts, lineno = [np.empty(0)], 1
    with open(path, "r", encoding="utf-8") as fh:
        for lines in _chunks(fh):
            tokens = [fields[0] for fields in map(str.split, lines) if fields]
            try:
                f0 = np.fromiter(map(float, tokens), np.float64, len(tokens))
                ok = np.all((f0 >= 0) & (f0 < np.inf))
            except ValueError:
                ok = False
            if not ok:
                _raise_first_bad_line(path, lines, lineno)
            parts.append(f0)
            lineno += len(lines)
    return PitchTrack(hop_seconds, np.concatenate(parts))


def _raise_first_bad_line(path, lines: list[str], lineno: int) -> None:
    """Raise for the first of ``lines`` (numbered from ``lineno``) with a bad f0."""
    for lineno, fields in enumerate(map(str.split, lines), start=lineno):
        token = fields[0] if fields else "0"
        try:
            f0 = float(token)
        except ValueError:
            raise TrackFormatError(
                f"{path}:{lineno}: non-numeric f0 field {token!r}"
            ) from None
        if not np.isfinite(f0):
            raise TrackFormatError(f"{path}:{lineno}: non-finite f0 {token!r}")
        if f0 < 0:
            raise TrackFormatError(f"{path}:{lineno}: negative f0 {f0}")


# ---------------------------------------------------------------------------
# External tracks (CSV with header) and the canonical writer
# ---------------------------------------------------------------------------

def read_external_track(path, confidence_threshold: float = 0.5) -> PitchTrack:
    """Read an externally computed track from CSV.

    Expects a header naming at least ``time_s`` and ``f0_hz``; a
    ``confidence`` column is optional. Frames whose confidence is below
    the threshold are forced unvoiced (f0 = 0). The hop is inferred from
    consecutive timestamps, which must be uniform within 1e-6 s; files
    with fewer than two rows fall back to the canonical 10 ms hop. A time or
    f0 that is not finite, a negative f0, or a confidence outside [0, 1]
    raises :class:`TrackFormatError` naming the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrackFormatError(f"{path}: empty file, expected a CSV header") from None
        columns = {name.strip(): i for i, name in enumerate(header)}
        if "f0_hz" not in columns:
            raise TrackFormatError(f"{path}: missing 'f0_hz' column in header {header}")
        if "time_s" not in columns:
            raise TrackFormatError(f"{path}: missing 'time_s' column in header {header}")
        t_col, f_col = columns["time_s"], columns["f0_hz"]
        c_col = columns.get("confidence")
        cols = [t_col, f_col] if c_col is None else [t_col, f_col, c_col]

        def convert(rows):
            return [np.fromiter(map(float, map(itemgetter(c), rows)), np.float64, len(rows))
                    for c in cols]

        parts, skipped, lineno = [convert([])], [], 2
        for rows in _chunks(reader):
            try:
                parts.append(convert(rows))
            except (ValueError, IndexError):  # blank or malformed rows: one at a time
                kept = []
                for n, row in enumerate(rows, start=lineno):
                    if not any(map(str.strip, row)):
                        skipped.append(n)
                        continue
                    try:
                        convert([row])
                    except (ValueError, IndexError):
                        raise TrackFormatError(f"{path}:{n}: malformed row {row}") from None
                    kept.append(row)
                parts.append(convert(kept))
            lineno += len(rows)

    times, f0s, *confs = (np.concatenate(column) for column in zip(*parts))
    confidence = confs[0] if confs else None
    checks = [
        (np.isfinite(times), "time_s must be finite", times),
        (np.isfinite(f0s) & (f0s >= 0), "f0_hz must be finite and >= 0", f0s),
    ]
    if confidence is not None:
        in_range = (confidence >= 0) & (confidence <= 1)
        checks.append((in_range, "confidence must lie in [0, 1]", confidence))
    for ok, rule, values in checks:
        if not ok.all():
            i = int(np.argmin(ok))
            lineno = i + 2
            for n in skipped:  # each blank row up to it moves it down a row
                lineno += n <= lineno
            raise TrackFormatError(f"{path}:{lineno}: {rule}, got {values[i]}")
    if times.size >= 2:
        hops = np.diff(times)
        if np.any(np.abs(hops - hops[0]) > 1e-6):
            raise TrackFormatError(f"{path}: timestamps are not uniformly spaced")
        hop = float(hops[0])
        if hop <= 0:
            raise TrackFormatError(f"{path}: non-increasing timestamps")
    else:
        hop = 0.010

    if confidence is not None:
        f0s = np.where(confidence < confidence_threshold, 0.0, f0s)
    return PitchTrack(hop, f0s, confidence)


def write_track(track: PitchTrack, path) -> None:
    """Write a track as canonical CSV: ``frame,time_s,f0_hz[,confidence]``.

    Times carry six decimal places and f0 six significant digits, so a
    write/read cycle preserves voicing exactly and f0 to within 5e-6
    relative. Confidence is written with the shortest digits that read
    back to the same float: rounded, a confidence just below the
    reader's threshold could read back at it and voice its frame.
    """
    with_conf = track.confidence is not None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame,time_s,f0_hz,confidence\n" if with_conf else "frame,time_s,f0_hz\n")
        for i, f0 in enumerate(track.frames):
            row = f"{i},{i * track.hop_seconds:.6f},{f0:.6g}"
            if with_conf:
                row += f",{float(track.confidence[i])!r}"
            fh.write(row + "\n")
