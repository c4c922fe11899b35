"""The track readers against the line-by-line readers they replaced.

``line_by_line_reference`` and ``line_by_line_external`` are those readers,
kept verbatim as oracles. For any file both must give the same f0 and
confidence bits and the same hop, or raise the same exception type with the
same message: the same first bad line of a reference, and for an external
track the first malformed row of the whole file before any value rule, then
the time, f0 and confidence rules in that order. The readers parse a file
with NumPy's C reader and send it to a row loop where that reader refuses
it or a rule fails; the examples sit at the boundary between the two.
"""
import csv
import importlib.util
import os
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pitchbench import PitchTrack, TrackFormatError, trackio
from pitchbench.cli import main
from pitchbench.trackio import read_external_track, read_reference_track


def line_by_line_reference(path, hop_seconds: float = 0.010) -> PitchTrack:
    """Read a reference pitch trajectory: one frame per line, first
    whitespace-separated field is f0 in Hz (0 = unvoiced), any further
    columns ignored, blank lines skipped.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            token = stripped.split()[0]
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
            values.append(f0)
    return PitchTrack(hop_seconds, np.asarray(values, dtype=np.float64))


def line_by_line_external(path, confidence_threshold: float = 0.5) -> PitchTrack:
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

        times, f0s, confs, linenos = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            linenos.append(lineno)
            try:
                times.append(float(row[t_col]))
                f0s.append(float(row[f_col]))
                if c_col is not None:
                    confs.append(float(row[c_col]))
            except (ValueError, IndexError):
                raise TrackFormatError(f"{path}:{lineno}: malformed row {row}") from None

    times = np.asarray(times)
    f0s = np.asarray(f0s, dtype=np.float64)
    confidence = np.asarray(confs, dtype=np.float64) if c_col is not None else None
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
            raise TrackFormatError(f"{path}:{linenos[i]}: {rule}, got {values[i]}")
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


# ---------------------------------------------------------------------------
# Comparing the two
# ---------------------------------------------------------------------------

def outcome(read, path, arg):
    """What ``read(path, arg)`` returns or raises; ``read_reference_track``,
    which takes no hop, has its frames placed at the oracle's hop ``arg``."""
    try:
        if read is read_reference_track:
            track = PitchTrack(arg, read(path).frames)
        else:
            track = read(path, arg)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    conf = None if track.confidence is None else track.confidence.tobytes()
    return track.hop_seconds.hex(), track.frames.tobytes(), conf


def assert_same(data: bytes, read, oracle, arg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "track.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        expected = outcome(oracle, path, arg)
        got = outcome(read, path, arg)
    assert got == expected
    return expected


# tokens whose float() is a number, then ones that break a rule: not a
# number, not finite, negative, outside [0, 1], empty
NUMBERS = ["0", "0.0", "110.5", "220", "-0", "+5", " 7 ", "1_0", "1e2", "٣", "３.５", "0.25"]
SPECIALS = ["nan", "-NaN", "inf", "-inf", "-3", "-0.5", "1.5", "2", "abc", "", "0x10", "1__0",
            "1.2.3", "_1", "1e", "++1"]
TOKENS = NUMBERS * 4 + SPECIALS
ENDINGS = ["\n", "\n", "\r\n", "\r"]
WHITESPACE = ["", " ", "\t", "\x0b", "\x0c", "\xa0", " ", "\x85", "  "]


def join_lines(draw, lines: list[str]) -> bytes:
    ends = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line ending after the last line
    return text.encode("utf-8")


@st.composite
def reference_files(draw, max_lines=30):
    lines = []
    for _ in range(draw(st.integers(0, max_lines))):
        if draw(st.integers(0, 5)) == 0:  # blank or whitespace-only
            lines.append("".join(draw(st.lists(st.sampled_from(WHITESPACE), max_size=3))))
            continue
        lead, trail = (draw(st.sampled_from(WHITESPACE)) for _ in range(2))
        extra = draw(st.sampled_from(["", "", " 1 2", "\tx", " nan"]))
        lines.append(lead + draw(st.sampled_from(TOKENS)) + extra + trail)
    return join_lines(draw, lines)


HEADERS = ["frame,time_s,f0_hz,confidence", "time_s,f0_hz", " f0_hz, time_s ,confidence",
           "time_s,f0_hz,confidence,note", "frame,time_s,conf", "f0_hz"]
# cells as they stand in the file: quoted fields hold commas, newlines and quotes
QUOTED = ['"7"', '"1,5"', '"x\ny"', '"a""b"', '"0.5"', '" 110 "']
BLANK_ROWS = ["", " ", " , ", "\t,,", ",", " ,\xa0"]


@st.composite
def external_files(draw, max_rows=30):
    if draw(st.integers(0, 20)) == 0:
        return draw(st.sampled_from([b"", b"\n", b"\r\n"]))
    header = draw(st.sampled_from(HEADERS))
    names = [name.strip() for name in header.split(",")]
    valid = {"time_s": None, "f0_hz": ["0", "110.5", "220", "97.25", "0.0"],
             "confidence": ["0.0", "0.25", "0.5", "0.75", "1", "1.0"]}
    lines, k = [header], 0
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["ok"] * 6 + ["token", "quoted", "short", "extra", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANK_ROWS)))
            continue
        cells = [f"{k * 0.01:.6f}" if name == "time_s" else
                 draw(st.sampled_from(valid.get(name) or [str(k)])) for name in names]
        k += 1
        at = draw(st.integers(0, len(cells) - 1))
        if kind == "token":
            cells[at] = draw(st.sampled_from(TOKENS))
        elif kind == "quoted":
            cells[at] = draw(st.sampled_from(QUOTED))
        elif kind == "short":
            cells = cells[:at]
        elif kind == "extra":
            cells += draw(st.lists(st.sampled_from(TOKENS + QUOTED), min_size=1, max_size=2))
        lines.append(",".join(cells))
    return join_lines(draw, lines)


class TestSmallFilesManyChunks:
    """Short files of every kind; the name dates from the 1024-row chunked
    readers, whose chunk boundaries these files were read across."""

    @settings(max_examples=200, deadline=None)
    @given(reference_files(), st.sampled_from([0.01, 0.005]))
    @example(b"", 0.01)
    @example(b"\n \n\t\r\n", 0.01)
    @example(b"1\n2\nnan\n-1\nx\n", 0.01)  # the first bad line wins, whatever its rule
    @example(b"1\n\n-0\n \xc2\xa0\n1_0 7\r\n\xd9\xa3\r\n", 0.01)
    @example(b"1\x002\n", 0.01)  # NUL inside the first field
    @example(b"1 \x00\n\x00 1\n", 0.01)  # NUL in a later field, then a leading one
    @example(b"#1\n2\n", 0.01)  # no comment character
    @example(b"7", 0.01)  # one line, no line ending
    @example(b"1\r\n2\r3\r\n\r4", 0.01)  # CRLF and lone-CR endings
    @example("5\x1c7\n\x1d6\n\x1e\n8\x1f\n\x85 4\n4\u2028 5\n".encode(), 0.01)
    @example(b"\n\n \n1\n\n-2\n", 0.01)  # the bad line counts the blank ones
    def test_reference(self, data, hop):
        assert_same(data, read_reference_track, line_by_line_reference, hop)

    @settings(max_examples=300, deadline=None)
    @given(external_files(), st.sampled_from([0.0, 0.5, 0.7]))
    @example(b"time_s,f0_hz\n", 0.5)  # header only
    @example(b"time_s,f0_hz,confidence\r\n0,1,2\r\n0.01,-1,1\r\n0.02,abc,1\r\n", 0.5)
    @example(b"time_s,f0_hz\n0,nan\n\n0.01\n", 0.5)  # malformed after a value error
    @example(b"time_s,f0_hz,confidence\n\n \n0,-1,2\n,\n0.01,1,0.5\ninf,1,1\n", 0.5)
    @example(b'time_s,f0_hz\n0,"1\n0"\n0.01,"2,5"\n', 0.5)
    @example(b"time_s,f0_hz\n0,1\x00\n", 0.5)  # NUL in a cell
    @example(b"frame,time_s,f0_hz\n\x00,0,1\n", 0.5)  # NUL in a column not read
    @example(b"time_s,f0_hz\n#0,1\n0,1\n", 0.5)  # no comment character
    @example(b"#time_s,f0_hz\n0,1\n", 0.5)
    @example(b"time_s,f0_hz\n\n\r\n\n", 0.5)  # header, then empty lines
    @example(b"time_s,f0_hz,confidence\n0,110,0.5", 0.5)  # one row, no line ending
    @example(b"time_s,f0_hz\r\n0,1\r\n0.01,2\r\n", 0.5)
    @example(b"time_s,f0_hz\r0,1\r0.01,2\r", 0.5)
    @example(b"time_s,f0_hz\n\n\n0,1\n\n0.01,-1\n", 0.5)  # the bad row counts the blank ones
    @example(b"time_s,f0_hz\n0,\x1c1\n0.01,2\x1f\n", 0.5)  # float() keeps \x1c-\x1f, C strips
    # a quoted comma or line break in a column not read moves the columns read
    @example(b'a,b,c,time_s,f0_hz\n"x,y",z,0.01,110,5\n"x,y",z,0.02,120,5\n', 0.5)
    @example(b'time_s,f0_hz,note\n0,100,"x\n0.01,110,y"\n', 0.5)
    def test_external(self, data, threshold):
        assert_same(data, read_external_track, line_by_line_external, threshold)


# error kinds of a long external track: the row's text given its index
EXTERNAL_FAULTS = {
    "malformed": lambda k: f"{k * 0.01:.6f},oops,0.5",
    "short": lambda k: f"{k * 0.01:.6f}",
    "time": lambda k: "nan,110,0.5",
    "f0": lambda k: f"{k * 0.01:.6f},-110,0.5",
    "confidence": lambda k: f"{k * 0.01:.6f},110,1.5",
    "blank": lambda k: " , ,",
}
REFERENCE_FAULTS = {"text": "x1", "non-finite": "inf", "negative": "-2", "blank": " \t"}
LONG = 2049


class TestLongFilesModuleChunks:
    """Files of over 2048 rows, with faults of different rules close
    together and far apart (once in one 1024-row chunk, or in different
    ones, of the chunked readers these replaced)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(LONG, LONG + 600),
           st.dictionaries(st.integers(0, LONG + 600), st.sampled_from(sorted(EXTERNAL_FAULTS)),
                           max_size=4))
    @example(LONG, {3000: "malformed", 5: "time"})  # a malformed row far down wins
    @example(LONG, {10: "confidence", 2500: "f0", 1500: "time"})  # then time, f0, confidence
    @example(LONG, {1023: "blank", 1024: "blank", 2000: "f0"})  # rows still count blank rows
    @example(LONG, {7: "blank", 8: "f0", 9: "malformed"})  # all close together
    def test_external(self, n_rows, faults):
        rows = ["time_s,f0_hz,confidence"]
        for k in range(n_rows):
            fault = faults.get(k)
            rows.append(EXTERNAL_FAULTS[fault](k) if fault else f"{k * 0.01:.6f},{110 + k % 7},0.75")
        assert_same("\n".join(rows).encode(), read_external_track, line_by_line_external, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(LONG, LONG + 600),
           st.dictionaries(st.integers(0, LONG + 600), st.sampled_from(sorted(REFERENCE_FAULTS)),
                           max_size=4))
    @example(LONG, {2100: "text", 2200: "negative"})
    @example(LONG, {1024: "blank", 2047: "non-finite", 2048: "text"})
    def test_reference(self, n_lines, faults):
        lines = [REFERENCE_FAULTS.get(faults.get(k), f"{100 + k % 9}.5") for k in range(n_lines)]
        assert_same("\n".join(lines).encode(), read_reference_track, line_by_line_reference, 0.01)


class TestDecodeErrors:
    """A file that is not UTF-8 fails where it would line by line: a bad row
    wins if it lies in a block of the file decoded before the undecodable
    one; later rows, even in that block, are never read."""

    @pytest.mark.parametrize("bad_row, wins", [(None, UnicodeDecodeError), (5, TrackFormatError),
                                               (1500, TrackFormatError), (1999, UnicodeDecodeError),
                                               (2900, UnicodeDecodeError)])
    def test_external(self, bad_row, wins):
        rows = [b"time_s,f0_hz"] + [b"%.6f,%d" % (k * 0.01, 100 + k % 5) for k in range(3000)]
        if bad_row is not None:
            rows[bad_row] = b"x,y"
        rows[2000] = b"\xff\xfe"
        assert assert_same(b"\n".join(rows), read_external_track, line_by_line_external, 0.5)[0] is wins

    @pytest.mark.parametrize("bad_line, wins", [(None, UnicodeDecodeError), (5, TrackFormatError),
                                                (1100, TrackFormatError), (1500, UnicodeDecodeError),
                                                (2900, UnicodeDecodeError)])
    def test_reference(self, bad_line, wins):
        lines = [b"%d.25" % (100 + k % 5) for k in range(3000)]
        if bad_line is not None:
            lines[bad_line] = b"nan"
        lines[2000] = b"\xff"
        assert assert_same(b"\n".join(lines), read_reference_track, line_by_line_reference, 0.01)[0] is wins


class TestWorkingSet:
    """Reading a 60 000-row track allocates at its peak no more than the
    line-by-line reader did; a whole-file read would."""

    N_ROWS = 60_000

    @staticmethod
    def peak(read, path) -> int:
        tracemalloc.start()
        try:
            read(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_external(self, tmp_path):
        rng = np.random.default_rng(3)
        f0 = np.where(rng.random(self.N_ROWS) < 0.4, 0.0, rng.uniform(60, 400, self.N_ROWS))
        path = tmp_path / "ext.csv"
        trackio.write_track(PitchTrack(0.01, f0, rng.random(self.N_ROWS)), path)
        assert self.peak(read_external_track, path) <= self.peak(line_by_line_external, path)

    def test_reference(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "ref.txt"
        path.write_text("".join(f"{v:.3f}\n" for v in rng.uniform(0, 400, self.N_ROWS)))
        assert self.peak(read_reference_track, path) <= self.peak(line_by_line_reference, path)


def load_corpus_module():
    """``perfbench/corpus.py``, which writes the benchmark's tracks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: corpus}):  # its dataclasses look it up
        spec.loader.exec_module(corpus)
    return corpus


class TestCPath:
    """Canonical files, and the ones the benchmark reads, never reach the
    row loop: with it patched to raise they still read as the oracles do."""

    @staticmethod
    def read_without_row_loop(read, path, arg):
        loop_raises = AssertionError("the row loop ran")
        with mock.patch.object(trackio, "_csv_rows", side_effect=loop_raises), \
                mock.patch.object(trackio, "_reference_lines", side_effect=loop_raises):
            return outcome(read, path, arg)

    def test_write_track_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        f0 = np.where(rng.random(500) < 0.4, 0.0, rng.uniform(60, 400, 500))
        for name, conf in (("plain", None), ("conf", rng.random(500))):
            path = tmp_path / f"{name}.csv"
            trackio.write_track(PitchTrack(0.01, f0, conf), path)
            expected = outcome(line_by_line_external, path, 0.5)
            assert isinstance(expected[0], str)  # a track, not an error
            assert self.read_without_row_loop(read_external_track, path, 0.5) == expected

    def test_benchmark_corpus(self, tmp_path):
        corpus = load_corpus_module().external_corpus(tmp_path, 3, 2, 700, ("L1", "L2"))
        for utt in corpus.utterances:
            expected = outcome(line_by_line_reference, utt.ref, 0.01)
            assert isinstance(expected[0], str)
            assert self.read_without_row_loop(read_reference_track, utt.ref, 0.01) == expected
            for directory in corpus.externals.values():
                path = directory / f"{utt.utt_id}.csv"
                expected = outcome(line_by_line_external, path, 0.5)
                assert isinstance(expected[0], str)
                assert self.read_without_row_loop(read_external_track, path, 0.5) == expected


class TestNoData:
    """An empty reference or a header-only CSV reads as an empty track, and
    ``evaluate`` scores the pair, with no warning and nothing on stderr."""

    @pytest.mark.parametrize("ref_text, est_text", [
        ("", "time_s,f0_hz\n"),
        ("\n \n", "time_s,f0_hz,confidence\r\n\r\n"),
    ])
    def test_read_and_evaluate(self, tmp_path, capfd, ref_text, est_text):
        ref, est = tmp_path / "ref.txt", tmp_path / "est.csv"
        ref.write_text(ref_text)
        est.write_text(est_text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(read_reference_track(ref)) == 0
            assert len(read_external_track(est)) == 0
            code = main(["evaluate", "--est", str(est), "--ref", str(ref),
                         "--out", str(tmp_path / "stats.json")])
        assert code == 0
        assert caught == []
        assert capfd.readouterr() == ("", "")
