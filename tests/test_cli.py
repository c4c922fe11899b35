import contextlib
import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchbench
from pitchbench.cli import _build_parser, format_comparison_csv, main
from conftest import sine
from test_metrics import TABLE_ROWS, corpus_from_row


def write_wav(path, rate, samples):
    ints = np.round(np.clip(samples, -1, 1) * 32767).astype(np.int16)
    scipy.io.wavfile.write(path, rate, ints)


def write_reference_for_tone(path, n_frames, f0, voiced_span):
    lines = []
    for k in range(n_frames):
        voiced = voiced_span[0] <= k <= voiced_span[1]
        lines.append(f"{f0 if voiced else 0.0}")
    path.write_text("\n".join(lines) + "\n")


def fresh_interpreter(code: str, *args) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this package, with
    ``args`` as its ``sys.argv[1:]``."""
    src = str(Path(pitchbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def pools_started(monkeypatch):
    """The ``max_workers`` of every pool compare starts; the pool runs its
    jobs in this process, so no worker is ever forked."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("pitchbench.cli.ProcessPoolExecutor", SerialPool)
    return started


@pytest.fixture
def tone_wav(tmp_path):
    rate = 16000
    samples = np.concatenate([np.zeros(4000), sine(220.0, 0.8, rate), np.zeros(4000)])
    path = tmp_path / "tone.wav"
    write_wav(path, rate, samples)
    return path


class TestDetect:
    def test_pyin_on_sine(self, tmp_path, tone_wav):
        out = tmp_path / "track.csv"
        assert main(["detect", "--algo", "pyin", "--in", str(tone_wav), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "frame,time_s,f0_hz"
        f0 = np.array([float(r.split(",")[2]) for r in rows[1:]])
        interior = f0[30 : len(f0) - 30]
        voiced = interior[interior > 0]
        assert voiced.size > 0
        assert np.all(np.abs(voiced / 220.0 - 1) < 0.01)

    def test_yaapt_on_silence_all_zero(self, tmp_path):
        wav = tmp_path / "sil.wav"
        write_wav(wav, 16000, np.zeros(16000))
        out = tmp_path / "track.csv"
        assert main(["detect", "--algo", "yaapt", "--in", str(wav), "--out", str(out)]) == 0
        f0 = [float(r.split(",")[2]) for r in out.read_text().splitlines()[1:]]
        assert f0 and all(v == 0.0 for v in f0)

    def test_crepe_is_a_usage_error(self, tmp_path, tone_wav, capsys):
        out = tmp_path / "track.csv"
        code = main(["detect", "--algo", "crepe", "--in", str(tone_wav), "--out", str(out)])
        assert code == 2
        assert "external" in capsys.readouterr().err

    def test_unknown_algo_usage_error(self, tmp_path, tone_wav):
        out = tmp_path / "t.csv"
        assert main(["detect", "--algo", "swipe", "--in", str(tone_wav), "--out", str(out)]) == 2

    def test_missing_input_is_runtime_error(self, tmp_path):
        code = main([
            "detect", "--algo", "pyin",
            "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1

    def test_repeat_runs_byte_identical(self, tmp_path, tone_wav):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert main(["detect", "--algo", "yaapt", "--in", str(tone_wav), "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_search_band_flags_respected(self, tmp_path, tone_wav):
        # restricting the band above the tone forces everything unvoiced
        out = tmp_path / "narrow.csv"
        code = main([
            "detect", "--algo", "pyin", "--in", str(tone_wav), "--out", str(out),
            "--fmin", "280", "--fmax", "400",
        ])
        assert code == 0
        f0 = [float(r.split(",")[2]) for r in out.read_text().splitlines()[1:]]
        assert all(v == 0.0 or v >= 280.0 for v in f0)

    @pytest.mark.parametrize("algo", ["pyin", "yaapt"])
    def test_band_of_one_lag_is_a_runtime_error(self, tmp_path, algo, capsys):
        wav = tmp_path / "tone8k.wav"
        write_wav(wav, 8000, sine(390.0, 0.5, 8000))
        code = main([
            "detect", "--algo", algo, "--in", str(wav), "--out", str(tmp_path / "t.csv"),
            "--fmin", "385", "--fmax", "400",
        ])
        assert code == 1
        assert "spans less than two lags" in capsys.readouterr().err

    def test_yaapt_band_without_an_interior_lag_at_48k(self, tmp_path, capsys):
        # 120..123 at 48 kHz, but YAAPT's NCCF runs at 16 kHz: lags 40..41
        wav = tmp_path / "tone48k.wav"
        write_wav(wav, 48000, sine(395.0, 0.5, 48000))
        code = main([
            "detect", "--algo", "yaapt", "--in", str(wav), "--out", str(tmp_path / "t.csv"),
            "--fmin", "390", "--fmax", "400",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at 16000.0 Hz, the NCCF's working rate" in err
        assert "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    # each fails before any large allocation: a long finite frame or a short
    # valid hop on a long file would really allocate, so none is tried here
    # (test_memory_error_is_one_error_line stands in for them)
    @pytest.mark.parametrize("flag, value", [
        ("--frame-ms", "inf"), ("--frame-ms", "1e300"), ("--hop-ms", "inf"), ("--hop-ms", "1e-9"),
        ("--fmin", "1e-300"),
    ])
    @pytest.mark.parametrize("algo", ["pyin", "yaapt"])
    def test_unusable_setting_is_one_error_line(self, tmp_path, tone_wav, capsys, algo, flag,
                                                value):
        out = tmp_path / "t.csv"
        code = main(["detect", "--algo", algo, "--in", str(tone_wav), "--out", str(out),
                     flag, value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(float(value)) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["pyin", "yaapt"])
    def test_bad_wav_is_one_error_line_naming_it(self, tmp_path, tone_wav, capsys, algo):
        data = tone_wav.read_bytes()
        truncated, rate_3 = tmp_path / "truncated.wav", tmp_path / "rate_3.wav"
        truncated.write_bytes(data[:-10])
        rate_3.write_bytes(data[:24] + struct.pack("<I", 3) + data[28:])
        out = tmp_path / "t.csv"
        for wav, message in [(truncated, "truncated 'data' chunk (byte offset 36)"),
                             (rate_3, "fmax 400.0 Hz must be below Nyquist 1.5 Hz")]:
            code = main(["detect", "--algo", algo, "--in", str(wav), "--out", str(out)])
            assert code == 1
            assert capsys.readouterr().err == f"error: {wav}: {message}\n"
            assert not out.exists()

    def test_hop_flag_changes_timebase(self, tmp_path, tone_wav):
        out = tmp_path / "hop20.csv"
        code = main([
            "detect", "--algo", "pyin", "--in", str(tone_wav), "--out", str(out),
            "--hop-ms", "20",
        ])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[2].split(",")[1] == "0.020000"


class TestRates:
    @pytest.mark.parametrize("rate", [8000, 11025, 22050, 44100])
    @pytest.mark.parametrize("algo", ["pyin", "yaapt"])
    def test_detect_then_evaluate_at_any_rate(self, tmp_path, algo, rate):
        samples = np.concatenate([np.zeros(int(0.2 * rate)), sine(200.0, 0.4, rate)])
        wav = tmp_path / "tone.wav"
        write_wav(wav, rate, samples)
        n_frames = samples.size * 100 // rate + 1
        ref = tmp_path / "ref.txt"
        write_reference_for_tone(ref, n_frames, 200.0, (23, n_frames - 4))
        track, stats = tmp_path / "track.csv", tmp_path / "stats.json"
        assert main(["detect", "--algo", algo, "--in", str(wav), "--out", str(track)]) == 0
        rows = track.read_text().splitlines()
        assert len(rows) == n_frames + 1
        assert rows[-1].split(",")[1] == f"{(n_frames - 1) / 100:.6f}"
        assert main(["evaluate", "--est", str(track), "--ref", str(ref), "--out", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["total_frames"] == n_frames
        assert payload["gross_errors"] == 0


class TestEvaluate:
    def test_identical_tracks_zero_errors(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("0.0\n150.0\n151.0\n0.0\n")
        est = tmp_path / "est.csv"
        est.write_text(
            "frame,time_s,f0_hz\n0,0.000000,0\n1,0.010000,150\n2,0.020000,151\n3,0.030000,0\n"
        )
        out = tmp_path / "stats.json"
        assert main(["evaluate", "--est", str(est), "--ref", str(ref), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["total_frames"] == 4
        assert payload["u2v_errors"] == 0
        assert payload["v2u_errors"] == 0
        assert payload["gross_errors"] == 0
        assert payload["fine_frames"] == 2
        assert payload["fom"]["total"] == 4

    def test_confidence_threshold_applied_before_scoring(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("200.0\n200.0\n")
        est = tmp_path / "est.csv"
        est.write_text("time_s,f0_hz,confidence\n0.00,200,0.9\n0.01,200,0.4\n")
        out = tmp_path / "stats.json"
        assert main(["evaluate", "--est", str(est), "--ref", str(ref), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["v2u_errors"] == 1  # the low-confidence frame went unvoiced
        assert payload["fine_frames"] == 1

    @pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5", "inf"])
    def test_threshold_outside_unit_interval_usage_error(self, tmp_path, threshold):
        # a nan threshold used to drop no frame: every comparison with it is false
        ref = tmp_path / "ref.txt"
        ref.write_text("200.0\n200.0\n200.0\n")
        est = tmp_path / "est.csv"
        est.write_text("time_s,f0_hz,confidence\n0.00,200,0.9\n0.01,200,0.4\n0.02,200,0.3\n")
        out = tmp_path / "stats.json"
        code = main([
            "evaluate", "--est", str(est), "--ref", str(ref), "--out", str(out),
            "--confidence-threshold", threshold,
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["0", "1"])
    def test_threshold_bounds_accepted(self, tmp_path, threshold):
        ref = tmp_path / "ref.txt"
        ref.write_text("200.0\n200.0\n")
        est = tmp_path / "est.csv"
        est.write_text("time_s,f0_hz,confidence\n0.00,200,1.0\n0.01,200,0.4\n")
        out = tmp_path / "stats.json"
        code = main([
            "evaluate", "--est", str(est), "--ref", str(ref), "--out", str(out),
            "--confidence-threshold", threshold,
        ])
        assert code == 0
        assert json.loads(out.read_text())["v2u_errors"] == int(threshold)

    def test_hop_mismatch_exits_one_without_output(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("100.0\n100.0\n")
        est = tmp_path / "est.csv"
        est.write_text("time_s,f0_hz\n0.00,100\n0.02,100\n")  # 20 ms hop
        out = tmp_path / "stats.json"
        assert main(["evaluate", "--est", str(est), "--ref", str(ref), "--out", str(out)]) == 1
        # the error names both files
        err = capsys.readouterr().err
        assert err == f"error: {est} against {ref}: hop mismatch: est 0.02 s vs ref 0.01 s\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,line", [
        # a quote sends the file to the row loop
        ('time_s,f0_hz,note\n0.00,200,a\n0.01,200,"{big}"\n', 3),
        # the C path's header parse refuses it too
        ("time_s,f0_hz,{big}\n0.00,200,a\n0.01,200,b\n", 1),
    ])
    def test_cell_past_the_csv_field_limit_names_file_and_line(self, tmp_path, capsys, text,
                                                                line):
        # csv refuses a field over its 128 KiB limit
        ref = tmp_path / "ref.txt"
        ref.write_text("200.0\n200.0\n")
        est = tmp_path / "est.csv"
        est.write_text(text.format(big="x" * 140_000))
        out = tmp_path / "stats.json"
        assert main(["evaluate", "--est", str(est), "--ref", str(ref), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {est}:{line}: field larger than field limit")
        assert "Traceback" not in err
        assert not out.exists()


# detect with both engines and a serial compare import no pool; the
# first compare with --jobs 2 does, and writes the serial table
POOL_CHILD = """
import sys
from pitchbench.cli import main

wav, track, manifest, serial, parallel = sys.argv[1:]
for algo in ("pyin", "yaapt"):
    assert main(["detect", "--algo", algo, "--in", wav, "--out", track]) == 0
for jobs, table in (("1", serial), ("2", parallel)):
    assert main(["compare", "--manifest", manifest, "--out", table, "--jobs", jobs]) == 0
    print(",".join(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
"""


class TestCompare:
    def _build_corpus(self, tmp_path, n=3, rate=16000):
        manifest = tmp_path / "manifest.csv"
        lines = ["utterance_id,wav_path,reference_path"]
        for i, f0 in enumerate([150.0, 220.0, 300.0][:n]):
            silence = np.zeros(int(0.15 * rate))
            samples = np.concatenate([silence, sine(f0, 0.6, rate), silence])
            wav = tmp_path / f"utt{i}.wav"
            write_wav(wav, rate, samples)
            n_frames = samples.size * 100 // rate + 1
            ref = tmp_path / f"utt{i}_f0.txt"
            write_reference_for_tone(ref, n_frames, f0, (17, 73))
            lines.append(f"utt{i},{wav.name},{ref.name}")
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_both_engines_over_synthetic_corpus(self, tmp_path):
        manifest = self._build_corpus(tmp_path)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == (
            "pda,total_frames,unvoiced_frames,u2v_pct,voiced_frames,v2u_pct,"
            "gross_errors,fine_frames,mean_fine,stdev_fine,fom"
        )
        assert len(rows) == 3
        assert rows[1].startswith("pyin,") and rows[2].startswith("yaapt,")
        for row in rows[1:]:
            fields = row.split(",")
            assert len(fields) == 11
            assert 4 <= int(fields[-1]) <= 12

    def test_external_tracks_ingested(self, tmp_path):
        manifest = self._build_corpus(tmp_path, n=2)
        ext_dir = tmp_path / "ext"
        ext_dir.mkdir()
        for i, f0 in enumerate([150.0, 220.0]):
            ref_lines = (tmp_path / f"utt{i}_f0.txt").read_text().splitlines()
            rows = ["time_s,f0_hz,confidence"]
            for k, line in enumerate(ref_lines):
                rows.append(f"{k * 0.01:.6f},{float(line)},0.9")
            (ext_dir / f"utt{i}.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "table.csv"
        code = main([
            "compare", "--manifest", str(manifest), "--algos", "pyin",
            "--external", f"ext={ext_dir}", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[2].startswith("ext,")
        fields = rows[2].split(",")
        assert int(fields[6]) == 0  # external track equals the reference: no gross errors
        assert int(fields[-1]) == 4

    def test_empty_manifest_usage_error(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("utterance_id,wav_path,reference_path\n")
        assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "-1", "2"])
    def test_threshold_outside_unit_interval_usage_error(self, tmp_path, capsys, threshold):
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "o.csv"
        code = main([
            "compare", "--manifest", str(manifest), "--algos", "pyin",
            "--confidence-threshold", threshold, "--out", str(out),
        ])
        assert code == 2
        assert "--confidence-threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_crepe_in_algos_points_to_external(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=2)
        code = main([
            "compare", "--manifest", str(manifest), "--algos", "pyin,crepe",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "--external" in capsys.readouterr().err

    def _rename_second(self, tmp_path, new_id):
        manifest = self._build_corpus(tmp_path, n=2)
        lines = manifest.read_text().splitlines()
        lines[2] = new_id + lines[2][len("utt1"):]
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    @pytest.mark.parametrize("utt_id", ["", ".", "..", "../x", "a/b"])
    def test_id_that_is_not_a_file_name_is_rejected(self, tmp_path, capsys, utt_id):
        # compare reads DIR/<id>.csv from each --external DIR
        manifest = self._rename_second(tmp_path, utt_id)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{manifest}:3: utterance id {utt_id!r} is not a single file name" in err
        assert not out.exists()

    def test_duplicate_id_names_the_id_and_both_lines(self, tmp_path, capsys):
        manifest = self._rename_second(tmp_path, "utt0")
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert f"{manifest}:3: duplicate utterance id 'utt0' (first on line 2)" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_cell_past_the_csv_field_limit_names_file_and_line(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=2)
        big = "x" * 140_000
        manifest.write_text(manifest.read_text() + f'utt9,"{big}",utt0_f0.txt\n')
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:4: field larger than field limit")
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_reference_lists_offenders(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=2)
        (tmp_path / "utt1_f0.txt").unlink()
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert "utt1_f0.txt" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        manifest = self._build_corpus(tmp_path)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(serial)]) == 0
        assert main([
            "compare", "--manifest", str(manifest), "--out", str(parallel), "--jobs", "2",
        ]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_pool_is_imported_by_the_first_compare_that_starts_one(self, tmp_path):
        manifest = self._build_corpus(tmp_path, n=2)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        result = fresh_interpreter(POOL_CHILD, tmp_path / "utt0.wav", tmp_path / "track.csv",
                                   manifest, serial, parallel)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["", "multiprocessing,concurrent.futures.process"]
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-1", "abc", "1.5", ""])
    def test_bad_jobs_flag_is_a_usage_error(self, tmp_path, capsys, jobs):
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs])
        assert code == 2
        assert f"--jobs must be a positive integer, got '{jobs}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2", "abc", "0", ""])
    def test_jobs_variable_is_ignored(self, tmp_path, monkeypatch, pools_started, value):
        # --jobs alone sets the worker count, and it defaults to 1
        manifest = self._build_corpus(tmp_path, n=2)
        serial, out = tmp_path / "serial.csv", tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(serial),
                     "--jobs", "1"]) == 0
        monkeypatch.setenv("PITCHBENCH_JOBS", value)
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert pools_started == []
        assert out.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("value, flag, workers", [("2", ["--jobs", "1"], []),
                                                      ("1", ["--jobs", "2"], [2])])
    def test_jobs_flag_alone_sets_the_workers(self, tmp_path, monkeypatch, pools_started,
                                              value, flag, workers):
        monkeypatch.setenv("PITCHBENCH_JOBS", value)
        manifest = self._build_corpus(tmp_path, n=2)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out), *flag]) == 0
        assert pools_started == workers

    @pytest.mark.parametrize("n, workers", [(1, []), (2, [2]), (3, [3])])
    def test_at_most_one_worker_per_utterance(self, tmp_path, pools_started, n, workers):
        manifest = self._build_corpus(tmp_path, n=n)
        out = tmp_path / "table.csv"
        assert main([
            "compare", "--manifest", str(manifest), "--out", str(out), "--jobs", "64",
        ]) == 0
        assert pools_started == workers
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("rate", [11025, 22050])
    def test_rates_with_fractional_hop_are_scored(self, tmp_path, rate):
        manifest = self._build_corpus(tmp_path, n=2, rate=rate)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        ref_frames = sum(len((tmp_path / f"utt{i}_f0.txt").read_text().split()) for i in (0, 1))
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            assert int(row.split(",")[1]) == ref_frames  # no frame dropped or lacking
            fields = row.split(",")
            assert float(fields[5]) == 0.0  # no voiced frame lost
            assert int(fields[6]) <= 0.05 * int(fields[4])  # tone edges only

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_wav_names_the_utterance(self, tmp_path, capsys, jobs):
        manifest = self._build_corpus(tmp_path)
        (tmp_path / "utt1.wav").write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: utterance utt1 [wav] ")
        assert str(tmp_path / "utt1.wav") in err[0]
        assert "missing 'fmt ' chunk" in err[0]
        assert not out.exists()

    def test_overflowing_frame_names_the_utterance(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "table.csv"
        for algos, flag, value in [("pyin,yaapt", "--frame-ms", "1e300"),
                                   ("yaapt", "--frame-ms", "1e300"),
                                   ("pyin", "--fmin", "1e-300")]:
            code = main(["compare", "--manifest", str(manifest), "--out", str(out),
                         "--algos", algos, flag, value])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            label = algos.split(",")[0]
            assert len(err) == 1 and err[0].startswith(f"error: utterance utt0 [{label}] ")
            assert "frame_len_ms" in err[0] and "fmin_hz" in err[0]
            assert str(float(value)) in err[0] and "16000.0 Hz" in err[0]
            assert not out.exists()

    @pytest.mark.parametrize("algo", ["pyin", "yaapt"])
    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch, algo):
        # as NumPy reports an allocation the system refuses
        def refused(signal, config):
            raise MemoryError("Unable to allocate 119. GiB for an array")

        monkeypatch.setattr(f"pitchbench.cli.{algo}_track", refused)
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "out.csv"
        wav = tmp_path / "utt0.wav"
        code = main(["detect", "--algo", algo, "--in", str(wav), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {wav}: Unable to allocate 119. GiB for an array\n"
        code = main(["compare", "--manifest", str(manifest), "--out", str(out),
                     "--algos", algo])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: utterance utt0 [{algo}] ")
        assert err[0].endswith(": Unable to allocate 119. GiB for an array")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_external_track_names_utterance_and_label(self, tmp_path, capsys, jobs):
        manifest = self._build_corpus(tmp_path, n=2)
        ext_dir = tmp_path / "ext"
        ext_dir.mkdir()
        (ext_dir / "utt0.csv").write_text("time_s,f0_hz\n0.00,100\n0.01,100\n")
        (ext_dir / "utt1.csv").write_text("time_s,f0_hz\n0.00,100\n0.01,-5\n")
        code = main([
            "compare", "--manifest", str(manifest), "--algos", "", "--jobs", jobs,
            "--external", f"crepe={ext_dir}", "--out", str(tmp_path / "table.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: utterance utt1 [crepe] ")
        assert "utt1.csv:3: f0_hz must be finite and >= 0" in err

    def _external_dir(self, tmp_path, name="ext", n=2):
        """Per-utterance tracks that copy the references of _build_corpus."""
        ext_dir = tmp_path / name
        ext_dir.mkdir()
        for i in range(n):
            ref_lines = (tmp_path / f"utt{i}_f0.txt").read_text().splitlines()
            rows = ["time_s,f0_hz"] + [f"{k * 0.01:.6f},{float(v)}" for k, v in enumerate(ref_lines)]
            (ext_dir / f"utt{i}.csv").write_text("\n".join(rows) + "\n")
        return ext_dir

    def test_no_label_is_a_usage_error(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--algos", "", "--out", str(out)]) == 2
        assert "nothing to compare" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, label", [
        (["--algos", "pyin,pyin"], "pyin"),
        (["--algos", "", "--external", "L1=A", "--external", "L1=B"], "L1"),
        (["--algos", "pyin", "--external", "pyin=A"], "pyin"),
    ])
    def test_label_used_twice_is_a_usage_error(self, tmp_path, capsys, flags, label):
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), *flags, "--out", str(out)]) == 2
        assert f"label {label!r} is used more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\nb", "a\rb", "a\u2028b"])
    def test_label_that_breaks_a_csv_row_is_a_usage_error(self, tmp_path, capsys, label):
        manifest = self._build_corpus(tmp_path, n=2)
        ext_dir = self._external_dir(tmp_path)
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(manifest), "--algos", "",
                     "--external", f"{label}={ext_dir}", "--out", str(out)])
        assert code == 2
        assert f"label {label!r} holds a comma, a double quote or a line break" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_external_only_compare_needs_no_wav(self, tmp_path):
        manifest = self._build_corpus(tmp_path, n=2)
        ext_dir = self._external_dir(tmp_path)
        argv = ["compare", "--manifest", str(manifest), "--algos", "", "--external", f"ext={ext_dir}"]
        with_wavs = tmp_path / "with_wavs.csv"
        assert main([*argv, "--out", str(with_wavs)]) == 0
        for i in range(2):
            (tmp_path / f"utt{i}.wav").unlink()
        without_wavs = tmp_path / "without_wavs.csv"
        assert main([*argv, "--out", str(without_wavs)]) == 0
        assert without_wavs.read_bytes() == with_wavs.read_bytes()

    def test_engine_compare_still_needs_its_wavs(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=2)
        ext_dir = self._external_dir(tmp_path)
        (tmp_path / "utt1.wav").unlink()
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(manifest), "--algos", "pyin",
                     "--external", f"ext={ext_dir}", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: utterance utt1 [wav] {tmp_path / 'utt1.wav'}: missing input\n")
        assert not out.exists()

    # a missing WAV: test_engine_compare_still_needs_its_wavs
    @pytest.mark.parametrize("label, name", [("reference", "utt1_f0.txt"), ("ext", "ext/utt1.csv")])
    def test_missing_input_is_one_line_naming_its_label(self, tmp_path, capsys, label, name):
        manifest = self._build_corpus(tmp_path, n=2)
        ext_dir = self._external_dir(tmp_path)
        (tmp_path / name).unlink()
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(manifest), "--external", f"ext={ext_dir}",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: utterance utt1 [{label}] {tmp_path / name}: missing input\n")
        assert not out.exists()

    def test_missing_inputs_are_listed_by_utterance_then_reading_order(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=3)
        # the manifest lists utt2 first; the lines follow the utterance ids
        header, *rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join([header, *reversed(rows)]) + "\n")
        ext_dir = self._external_dir(tmp_path, n=3)
        crepe_dir = self._external_dir(tmp_path, name="crepe", n=3)
        missing = [("utt0", "crepe", "crepe/utt0.csv"),
                   ("utt1", "reference", "utt1_f0.txt"), ("utt1", "wav", "utt1.wav"),
                   ("utt1", "ext", "ext/utt1.csv"), ("utt1", "crepe", "crepe/utt1.csv"),
                   ("utt2", "wav", "utt2.wav")]
        for _utt, _label, name in missing:
            (tmp_path / name).unlink()
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(manifest), "--algos", "yaapt",
                     "--external", f"ext={ext_dir}", "--external", f"crepe={crepe_dir}",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: utterance {utt} [{label}] {tmp_path / name}: missing input"
            for utt, label, name in missing]
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_missing_input_stops_compare_before_any_engine(self, tmp_path, monkeypatch, jobs):
        def refused(*args, **kwargs):
            raise AssertionError("called after an input was found missing")

        for name in ("pyin_track", "yaapt_track", "ProcessPoolExecutor"):
            monkeypatch.setattr(f"pitchbench.cli.{name}", refused)
        manifest = self._build_corpus(tmp_path, n=3)
        ext_dir = self._external_dir(tmp_path, n=3)
        (ext_dir / "utt2.csv").unlink()
        out = tmp_path / "table.csv"
        code, err = run_main(["compare", "--manifest", str(manifest), "--jobs", jobs,
                              "--external", f"ext={ext_dir}", "--out", str(out)])
        assert code == 1
        assert err == f"error: utterance utt2 [ext] {ext_dir / 'utt2.csv'}: missing input\n"
        assert not out.exists()

    def test_compare_takes_no_hop_flag(self, tmp_path, capsys):
        # references are 10 ms apart by their format; argparse refuses the
        # flag before the manifest, absent here, is opened
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(tmp_path / "absent.csv"), "--out", str(out),
                     "--hop-ms", "5"])
        assert code == 2
        assert "unrecognized arguments: --hop-ms 5" in capsys.readouterr().err
        assert not out.exists()

    def test_published_rows_reproduce_fom_column(self):
        rows = [
            (label, corpus_from_row(row))
            for row, label in zip(TABLE_ROWS, ["CREPE", "YAAPT", "pYIN"])
        ]
        text = format_comparison_csv(rows)
        foms = [line.split(",")[-1] for line in text.strip().splitlines()[1:]]
        assert foms == ["7", "5", "6"]


class TestHist:
    def test_all_unvoiced_header_only(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("0.0\n0.0\n0.0\n")
        out = tmp_path / "hist.csv"
        assert main(["hist", "--ref", str(ref), "--out", str(out)]) == 0
        assert out.read_text() == "bin_low_hz,count\n"

    def test_counts_cover_observed_range_only(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("\n".join(["110.0", "115.0", "0.0", "290.0"]) + "\n")
        out = tmp_path / "hist.csv"
        assert main(["hist", "--ref", str(ref), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        parsed = {float(r.split(",")[0]): int(r.split(",")[1]) for r in rows}
        assert parsed == {110.0: 2, 290.0: 1}
        assert sum(parsed.values()) == 3

    def test_zero_bin_width_usage_error(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("100.0\n")
        assert main(["hist", "--ref", str(ref), "--bin-hz", "0", "--out", str(tmp_path / "h.csv")]) == 2

    @pytest.mark.parametrize("width", ["inf", "-inf", "nan"])
    def test_non_finite_bin_width_usage_error(self, tmp_path, width):
        # an infinite width used to write the row "nan,1" after a RuntimeWarning
        ref = tmp_path / "ref.txt"
        ref.write_text("100.0\n")
        out = tmp_path / "h.csv"
        assert main(["hist", "--ref", str(ref), "--bin-hz", width, "--out", str(out)]) == 2
        assert not out.exists()

    def test_unreadable_file_exit_one(self, tmp_path):
        assert main(["hist", "--ref", str(tmp_path / "no.txt"), "--out", str(tmp_path / "h.csv")]) == 1

    def test_bin_width_too_small_to_index_exit_one(self, tmp_path, capsys):
        # it used to exit 0 and write the one bin "-9.22337e-282,2"
        ref = tmp_path / "ref.txt"
        ref.write_text("100\n0\n250\n")
        out = tmp_path / "h.csv"
        assert main(["hist", "--ref", str(ref), "--bin-hz", "1e-300", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {ref}: bin width 1e-300 Hz is too small to index f0 250.0 Hz"]
        assert not out.exists()


class TestUsage:
    def test_no_command_exits_two(self):
        assert main([]) == 2

    def test_jobs_variable_is_read_by_no_command(self, tmp_path, tone_wav, monkeypatch):
        monkeypatch.setenv("PITCHBENCH_JOBS", "abc")
        paths = text_inputs(tmp_path)
        for command in ("evaluate", "compare", "hist"):
            assert main(harness_argv(command, paths, tmp_path / f"{command}.csv")) == 0
        track = tmp_path / "track.csv"
        assert main(["detect", "--algo", "pyin", "--in", str(tone_wav), "--out", str(track)]) == 0

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# Text inputs: a byte-order mark, an undecodable byte, mutated files
# ---------------------------------------------------------------------------

BOM = b"\xef\xbb\xbf"
REF_BYTES = b"0\n0\n150.5\n151\n152.25\n0\n"
CSV_BYTES = (b"time_s,f0_hz,confidence\n0.000000,0,0.9\n0.010000,0,0.9\n0.020000,150,0.8\n"
             b"0.030000,151.5,0.6\n0.040000,152,0.4\n0.050000,0,0.9\n")
MANIFEST_BYTES = b"utterance_id,wav_path,reference_path\nu0,u0.wav,u0.txt\n"


def text_inputs(directory: Path) -> dict[str, Path]:
    """A reference, an external track of the same utterance and a manifest
    listing it, written to ``directory``."""
    (directory / "ext").mkdir()
    paths = {"ref": directory / "u0.txt", "est": directory / "ext" / "u0.csv",
             "manifest": directory / "manifest.csv"}
    for name, data in (("ref", REF_BYTES), ("est", CSV_BYTES), ("manifest", MANIFEST_BYTES)):
        paths[name].write_bytes(data)
    return paths


def harness_argv(command: str, paths: dict[str, Path], out: Path) -> list[str]:
    """``command`` over the files of ``text_inputs``; compare scores the
    external track alone, so no WAV is read."""
    if command == "evaluate":
        return ["evaluate", "--est", str(paths["est"]), "--ref", str(paths["ref"]),
                "--out", str(out)]
    if command == "compare":
        return ["compare", "--manifest", str(paths["manifest"]), "--algos", "",
                "--external", f"ext={paths['est'].parent}", "--out", str(out)]
    return ["hist", "--ref", str(paths["ref"]), "--out", str(out)]


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


READS = [("evaluate", "est"), ("evaluate", "ref"), ("compare", "manifest"), ("compare", "ref"),
         ("compare", "est"), ("hist", "ref")]


class TestByteOrderMark:
    @pytest.mark.parametrize("command, name", READS)
    def test_output_bytes_do_not_change(self, tmp_path, command, name):
        paths = text_inputs(tmp_path)
        plain, marked = tmp_path / "plain.out", tmp_path / "marked.out"
        assert run_main(harness_argv(command, paths, plain)) == (0, "")
        paths[name].write_bytes(BOM + paths[name].read_bytes())
        assert run_main(harness_argv(command, paths, marked)) == (0, "")
        assert marked.read_bytes() == plain.read_bytes()


class TestErrorsNameTheFile:
    @pytest.mark.parametrize("command, name", READS)
    def test_undecodable_byte_names_the_file(self, tmp_path, command, name):
        paths = text_inputs(tmp_path)
        paths[name].write_bytes(paths[name].read_bytes() + b"\xff\n")
        out = tmp_path / "out"
        code, err = run_main(harness_argv(command, paths, out))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(paths[name]) in err and "can't decode byte 0xff" in err
        assert not out.exists()


# every character str.splitlines breaks a line at
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestOneLinePerError:
    """An error line names paths as given; each line break a path holds is
    written as its escape, so every error stays one line."""

    @pytest.mark.parametrize("char", LINE_BREAKS)
    def test_missing_input_line(self, tmp_path, char):
        paths = text_inputs(tmp_path)
        with open(paths["manifest"], "w", newline="") as fh:  # quotes a cell holding \n or \r
            csv.writer(fh).writerows([["utterance_id", "wav_path", "reference_path"],
                                      ["u0", f"u0.{char}av", "u0.txt"]])
        out = tmp_path / "out.csv"
        code, err = run_main(["compare", "--manifest", str(paths["manifest"]), "--algos", "pyin",
                              "--out", str(out)])
        assert code == 1 and not out.exists()
        wav = tmp_path / f"u0.{ascii(char)[1:-1]}av"
        assert err.splitlines() == [f"error: utterance u0 [wav] {wav}: missing input"]

    @pytest.mark.parametrize("char", LINE_BREAKS)
    def test_error_and_usage_error_lines(self, tmp_path, char):
        name = f"r{char}f"
        escaped = tmp_path / f"r{ascii(char)[1:-1]}f"
        (tmp_path / name).write_text("abc\n")
        code, err = run_main(["hist", "--ref", str(tmp_path / name), "--out", str(tmp_path / "h")])
        assert code == 1
        assert err.splitlines() == [f"error: {escaped}:1: non-numeric f0 field 'abc'"]
        (tmp_path / name).write_text("utterance_id,wav_path,reference_path\n")
        code, err = run_main(["compare", "--manifest", str(tmp_path / name), "--out",
                              str(tmp_path / "t")])
        assert code == 2
        assert err.splitlines() == [f"usage error: manifest {escaped} lists no utterances"]


MAIN_CHILD = """
import json, sys
from pitchbench.cli import main
sys.exit(main(json.loads(sys.argv[1])))
"""


class TestOneParserPerProcess:
    """``main`` builds its parser once per process: a usage error, then
    help, then two valid commands in one process write what each writes
    in a fresh interpreter."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_in_one_process_match_fresh_interpreters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps alike on both sides
        paths = text_inputs(tmp_path)

        def commands(tag: str) -> list[list[str]]:
            return [
                ["evaluate", "--est", str(paths["est"])],  # no --ref or --out
                ["detect", "--help"],
                harness_argv("evaluate", paths, tmp_path / f"{tag}.json"),
                harness_argv("compare", paths, tmp_path / f"{tag}.csv") + ["--jobs", "1"],
            ]

        in_process = []
        for argv in commands("reused"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            in_process.append((code, out.getvalue(), err.getvalue()))
        fresh = []
        for argv in commands("fresh"):
            result = fresh_interpreter(MAIN_CHILD, json.dumps(argv))
            fresh.append((result.returncode, result.stdout, result.stderr))
        assert [code for code, _out, _err in in_process] == [2, 0, 0, 0]
        assert in_process == fresh
        for suffix in (".json", ".csv"):
            assert (tmp_path / f"reused{suffix}").read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()


# bytes inserted into a valid file: CSV and number syntax, NUL, a byte
# that is never UTF-8, and a byte-order mark
INSERTS = [bytes([c]) for c in b",.\r\n-+e_"] + [b"\0", b"\xff", BOM]


@st.composite
def mutations(draw, data: bytes, header: int = 0) -> bytes:
    """``data`` with one to four bytes flipped or inserted, half of them in
    its first ``header`` bytes when it has one."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        head = header and draw(st.booleans())
        at = draw(st.integers(0, header - 1) if head else st.integers(0, len(data)))
        if at < len(data) and draw(st.booleans()):
            data[at] ^= draw(st.integers(1, 255))
        else:
            data[at:at] = draw(st.sampled_from(INSERTS))
    return bytes(data)


class TestMutatedInputs:
    """``evaluate`` and ``hist`` on a valid reference or external track with
    a few bytes changed: the file scores, or the command exits nonzero with
    one error line and no output; no exception escapes ``main``. Each
    ``evaluate`` error names the changed file."""

    @staticmethod
    def run(command: str, name: str, data: bytes) -> tuple[int, str, Path]:
        with tempfile.TemporaryDirectory() as tmp:
            paths = text_inputs(Path(tmp))
            paths[name].write_bytes(data)
            out = Path(tmp) / "out"
            code, err = run_main(harness_argv(command, paths, out))
            assert code in (0, 1, 2)
            if code:
                assert err.count("\n") == 1 and re.match(r"(usage )?error: ", err), err
                assert not out.exists()
            return code, err, paths[name]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["ref", "est"]).flatmap(
        lambda name: st.tuples(st.just(name),
                               mutations(REF_BYTES if name == "ref" else CSV_BYTES))))
    def test_evaluate(self, mutated):
        code, err, path = self.run("evaluate", *mutated)
        assert not code or str(path) in err

    @settings(max_examples=100, deadline=None)
    @given(mutations(REF_BYTES))
    def test_hist(self, data):
        self.run("hist", "ref", data)


def tone_wav_bytes() -> bytes:
    """A 16-bit mono WAV of a 150 Hz tone: 50 ms at 8 kHz, as many 10 ms
    frames as REF_BYTES has values, after a 44-byte header."""
    rate = 8000
    t = np.arange(rate // 20) / rate
    buf = io.BytesIO()
    scipy.io.wavfile.write(buf, rate, np.round(16384 * np.sin(2 * np.pi * 150.0 * t)).astype("<i2"))
    return buf.getvalue()


WAV_BYTES = tone_wav_bytes()
# every mutated WAV keeps byte 27, the rate field's top byte, at 0: set, it gives
# rates of 16.7 MHz to 4.3 GHz, and near the top a detect on these 400 samples
# allocates frames of over a GiB
MUTATED = {"wav": mutations(WAV_BYTES, header=44).filter(lambda data: data[27] == 0),
           "manifest": mutations(MANIFEST_BYTES), "ref": mutations(REF_BYTES),
           "est": mutations(CSV_BYTES)}


class TestMutatedEngineInputs:
    """``detect`` with both engines, and ``compare`` of both engines and an
    external track at ``--jobs 1``, on valid inputs with a few bytes changed:
    the command succeeds, or exits nonzero with no output and every stderr
    line an error naming the changed file; no exception escapes ``main``.
    A changed manifest may instead name what it lists, in an error about
    one of its utterances."""

    @staticmethod
    def check(argv: list[str], path: Path, out: Path, listed: bool = False) -> int:
        code, err = run_main(argv)
        assert code in (0, 1, 2)
        if code:
            assert err.endswith("\n"), argv
            for line in err.splitlines():
                assert re.match(r"(usage )?error: ", line), err
                assert str(path) in line or (listed and line.startswith("error: utterance ")), err
            assert not out.exists()
        return code

    @staticmethod
    def inputs(directory: Path) -> dict[str, Path]:
        paths = text_inputs(directory)
        paths["wav"] = directory / "u0.wav"
        paths["wav"].write_bytes(WAV_BYTES)
        return paths

    @staticmethod
    def compare_argv(paths: dict[str, Path], out: Path) -> list[str]:
        return ["compare", "--manifest", str(paths["manifest"]), "--external",
                f"ext={paths['est'].parent}", "--jobs", "1", "--out", str(out)]

    def test_unchanged_inputs_succeed(self, tmp_path):
        paths, out = self.inputs(tmp_path), tmp_path / "out.csv"
        for algo in ("pyin", "yaapt"):
            assert self.check(["detect", "--algo", algo, "--in", str(paths["wav"]),
                               "--out", str(out)], paths["wav"], out) == 0
        assert self.check(self.compare_argv(paths, out), paths["manifest"], out) == 0
        assert [row.split(",")[0] for row in out.read_text().splitlines()] == [
            "pda", "pyin", "yaapt", "ext"]

    @settings(max_examples=100, deadline=None)
    @given(MUTATED["wav"])
    def test_detect(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            wav, out = Path(tmp) / "u0.wav", Path(tmp) / "out.csv"
            wav.write_bytes(data)
            for algo in ("pyin", "yaapt"):
                if self.check(["detect", "--algo", algo, "--in", str(wav), "--out", str(out)],
                              wav, out) == 0:
                    out.unlink()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(MUTATED)).flatmap(
        lambda name: st.tuples(st.just(name), MUTATED[name])))
    def test_compare(self, mutated):
        name, data = mutated
        with tempfile.TemporaryDirectory() as tmp:
            paths, out = self.inputs(Path(tmp)), Path(tmp) / "out.csv"
            paths[name].write_bytes(data)
            self.check(self.compare_argv(paths, out), paths[name], out, name == "manifest")


# what an extra cell may hold: no separator, quote or line break of any reader
CELL = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._+-", max_size=6)


@st.composite
def uninterpreted(draw) -> dict[str, bytes]:
    """The files of ``TestMutatedEngineInputs.inputs`` with bytes that no
    reader interprets added: a second column on some reference lines, an
    extra external CSV column, manifest columns after the third, and an
    unknown RIFF chunk before ``data``; each added or not."""
    files = {}
    if draw(st.booleans()):
        lines = []
        for line in REF_BYTES.splitlines():
            if draw(st.booleans()):
                line += (draw(st.sampled_from(" \t")) + draw(CELL.filter(bool))).encode()
            lines.append(line + b"\n")
        files["ref"] = b"".join(lines)
    if draw(st.booleans()):
        at = draw(st.integers(0, 3))
        name = draw(CELL.filter(lambda c: c not in ("time_s", "f0_hz", "confidence")))
        rows = [line.split(b",") for line in CSV_BYTES.splitlines()]
        for k, row in enumerate(rows):
            row.insert(at, (draw(CELL) if k else name).encode())
        files["est"] = b"".join(b",".join(row) + b"\n" for row in rows)
    if draw(st.booleans()):
        rows = []
        for line in MANIFEST_BYTES.splitlines():
            extra = [cell.encode() for cell in draw(st.lists(CELL, max_size=2))]
            rows.append(b",".join([line, *extra]) + b"\n")
        files["manifest"] = b"".join(rows)
    if draw(st.booleans()):
        chunk_id = draw(st.binary(min_size=4, max_size=4).filter(
            lambda c: c not in (b"fmt ", b"data")))
        body = draw(st.binary(max_size=9))
        chunk = chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)
        # WAV_BYTES holds 'fmt ' at byte 12 and 'data' at 36: the chunk goes before either
        at = draw(st.sampled_from([12, 36]))
        wav = bytearray(WAV_BYTES[:at] + chunk + WAV_BYTES[at:])
        struct.pack_into("<I", wav, 4, len(wav) - 8)
        files["wav"] = bytes(wav)
    return files


class TestUninterpretedBytes:
    """``compare`` of both engines and an external track at ``--jobs 1``
    on inputs that differ from clean ones only in bytes no reader
    interprets: it succeeds and writes the clean inputs' table."""

    @staticmethod
    def table(files: dict[str, bytes]) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            paths, out = TestMutatedEngineInputs.inputs(Path(tmp)), Path(tmp) / "out.csv"
            for name, data in files.items():
                paths[name].write_bytes(data)
            assert run_main(TestMutatedEngineInputs.compare_argv(paths, out)) == (0, "")
            return out.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(uninterpreted())
    def test_compare_writes_the_clean_table(self, files):
        assert self.table(files) == self.table({})
