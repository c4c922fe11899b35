"""Ingestion and serialization of audio and pitch tracks.

Covers RIFF/WAVE reading (PCM 16/24/32-bit int and 32-bit float),
whitespace-delimited reference pitch trajectories, external per-frame
tracks with confidence thresholding, and the canonical track CSV
format ``frame,time_s,f0_hz[,confidence]``.
"""
from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

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
            outside = np.flatnonzero(~((conf >= 0) & (conf <= 1)))  # nan too
            if outside.size:
                raise ValueError(f"confidence must lie in [0, 1], got {conf[outside[0]]}")
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
# Track text: NumPy's C reader, and a row loop where it cannot decide
# ---------------------------------------------------------------------------
#
# Each reader parses the whole file with one ``np.loadtxt`` call and checks
# its value rules on the arrays. Only when that reader refuses the text (a
# decode error, or a token such as ``1_0`` or a whitespace-only CSV row that
# ``float`` and ``csv`` accept) or a rule fails does the file go to the row
# loop, which returns its values or names its first bad line exactly as a
# line-by-line reader would.

def _c_columns(lines, delimiter: str | None, usecols: list[int]) -> np.ndarray | None:
    """The ``usecols`` of the lines of ``lines`` that are not blank, one row
    per column, parsed by NumPy's C reader; None if that reader refuses them.
    Blank leading lines are skipped here, so the reader, which warns on
    input without data, never sees such input."""
    try:
        for line in lines:
            if not line.isspace():
                break
        else:
            return np.empty((len(usecols), 0))
        return np.loadtxt(chain([line], lines), delimiter=delimiter, usecols=usecols,
                          comments=None, quotechar=None, ndmin=2, unpack=True)
    except ValueError:  # UnicodeDecodeError too
        return None


def read_reference_track(path) -> PitchTrack:
    """Read a reference pitch trajectory at its format's 10 ms hop: one
    frame per line, first whitespace-separated field is f0 in Hz (0 =
    unvoiced), any further columns ignored, blank lines skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        columns = _c_columns(fh, None, [0])
        if columns is None or not np.all((columns >= 0) & (columns < np.inf)):
            fh.seek(0)
            return PitchTrack(0.010, _reference_lines(path, fh))
    return PitchTrack(0.010, columns[0])


def _reference_lines(path, lines) -> list[float]:
    """The f0 of each line of ``lines`` that is not blank; raises for the first bad one."""
    values = []
    for lineno, fields in enumerate(map(str.split, lines), start=1):
        if not fields:
            continue
        token = fields[0]
        try:
            f0 = float(token)
        except ValueError:
            raise TrackFormatError(
                f"{path}:{lineno}: non-numeric f0 field {token!r}"
            ) from None
        if not math.isfinite(f0):
            raise TrackFormatError(f"{path}:{lineno}: non-finite f0 {token!r}")
        if f0 < 0:
            raise TrackFormatError(f"{path}:{lineno}: negative f0 {f0}")
        values.append(f0)
    return values


# ---------------------------------------------------------------------------
# External tracks (CSV with header) and the canonical writer
# ---------------------------------------------------------------------------

def check_confidence_threshold(value: float) -> None:
    """Raise ``ValueError`` unless 0 <= ``value`` <= 1 (so for nan too)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"confidence threshold must be in [0, 1], got {value}")


def read_external_track(path, confidence_threshold: float = 0.5) -> PitchTrack:
    """Read an externally computed track from CSV.

    Expects a header naming at least ``time_s`` and ``f0_hz``; a
    ``confidence`` column is optional. Frames whose confidence is below
    the threshold, itself in [0, 1], are forced unvoiced (f0 = 0). The hop
    is inferred from consecutive timestamps, which must be uniform within
    1e-6 s; files with fewer than two rows fall back to the canonical 10 ms
    hop. A time or f0 that is not finite, a negative f0, or a confidence
    outside [0, 1] raises :class:`TrackFormatError` naming the file and line.
    """
    check_confidence_threshold(confidence_threshold)
    with open(path, "rb") as fh:
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    columns = None if any(byte in raw for byte in _ROW_LOOP_BYTES) else _c_csv(path, text)
    if columns is None or _broken_rule(columns):
        text.seek(0)
        columns = _csv_rows(path, text)

    times, f0s, *confs = columns
    confidence = confs[0] if confs else None
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


# Bytes that send a CSV to the row loop: ``csv`` reads quoted cells, which
# may hold commas and line breaks the C reader would split on; Python 3.10's
# ``csv`` refuses NUL; and the C reader strips \x1c-\x1f around a number,
# which ``float`` refuses.
_ROW_LOOP_BYTES = b'"\0\x1c\x1d\x1e\x1f'


def _usecols(path, header: list[str]) -> list[int]:
    """Where ``header`` holds ``time_s``, ``f0_hz`` and, if there, ``confidence``."""
    columns = {name.strip(): i for i, name in enumerate(header)}
    if "f0_hz" not in columns:
        raise TrackFormatError(f"{path}: missing 'f0_hz' column in header {header}")
    if "time_s" not in columns:
        raise TrackFormatError(f"{path}: missing 'time_s' column in header {header}")
    return [columns[name] for name in ("time_s", "f0_hz", "confidence") if name in columns]


def _broken_rule(columns: np.ndarray) -> tuple[int, str] | None:
    """The index of the first frame of ``columns`` (time, f0 and, if there,
    confidence) to break a value rule, and that rule with the value, the
    rules checked in this order; None if no frame does."""
    times, f0s, *confs = columns
    checks = [
        (np.isfinite(times), "time_s must be finite", times),
        (np.isfinite(f0s) & (f0s >= 0), "f0_hz must be finite and >= 0", f0s),
    ]
    if confs:
        in_range = (confs[0] >= 0) & (confs[0] <= 1)
        checks.append((in_range, "confidence must lie in [0, 1]", confs[0]))
    for ok, rule, values in checks:
        if not ok.all():
            i = int(np.argmin(ok))
            return i, f"{rule}, got {values[i]}"
    return None


def csv_records(path, lines):
    """The rows ``csv.reader`` reads from ``lines``; its ``csv.Error`` (a
    field past its size limit, or NUL under Python 3.10) becomes a
    :class:`TrackFormatError` naming ``path`` and the line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise TrackFormatError(f"{path}:{reader.line_num}: {exc}") from None


def _c_csv(path, text) -> np.ndarray | None:
    """The columns of a CSV free of ``_ROW_LOOP_BYTES`` as NumPy's C reader
    parses them; None if it refuses them or the header lacks a column."""
    try:
        usecols = _usecols(path, next(csv.reader([text.readline()])))
    except (ValueError, csv.Error):  # a decode or csv error; the row loop raises it again
        return None
    return _c_columns(text, ",", usecols)


def _csv_rows(path, text) -> np.ndarray:
    """The columns of the CSV ``text`` read row by row with ``csv``; raises
    for its first malformed row, else for its first row to break a rule."""
    reader = csv_records(path, text)
    try:
        usecols = _usecols(path, next(reader))
    except StopIteration:
        raise TrackFormatError(f"{path}: empty file, expected a CSV header") from None
    rows, linenos = [], []
    for lineno, row in enumerate(reader, start=2):
        if not any(map(str.strip, row)):
            continue
        try:
            rows.append([float(row[c]) for c in usecols])
        except (ValueError, IndexError):
            raise TrackFormatError(f"{path}:{lineno}: malformed row {row}") from None
        linenos.append(lineno)
    columns = np.array(rows, dtype=np.float64).reshape(-1, len(usecols)).T
    broken = _broken_rule(columns)
    if broken:
        i, message = broken
        raise TrackFormatError(f"{path}:{linenos[i]}: {message}")
    return columns


def write_track(track: PitchTrack, path) -> None:
    """Write a track as canonical CSV: ``frame,time_s,f0_hz[,confidence]``.

    Times carry six decimal places and f0 six significant digits, so a
    write/read cycle preserves voicing exactly and f0 to within 5e-6
    relative. Confidence is written with the shortest digits that read
    back to the same float: rounded, a confidence just below the
    reader's threshold could read back at it and voice its frame.
    """
    hop = track.hop_seconds
    lines = [f"{i},{i * hop:.6f},{f0:.6g}" for i, f0 in enumerate(track.frames.tolist())]
    header = "frame,time_s,f0_hz"
    if track.confidence is not None:
        header += ",confidence"
        lines = [f"{line},{conf!r}" for line, conf in zip(lines, track.confidence.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *lines]) + "\n")
