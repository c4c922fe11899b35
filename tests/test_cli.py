import json

import numpy as np
import pytest
import scipy.io.wavfile

from pitchbench.cli import format_comparison_csv, main
from pitchbench.metrics import fom_rank
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

    def test_hop_mismatch_exits_one_without_output(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("100.0\n100.0\n")
        est = tmp_path / "est.csv"
        est.write_text("time_s,f0_hz\n0.00,100\n0.02,100\n")  # 20 ms hop
        out = tmp_path / "stats.json"
        assert main(["evaluate", "--est", str(est), "--ref", str(ref), "--out", str(out)]) == 1
        assert not out.exists()


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

    def test_crepe_in_algos_points_to_external(self, tmp_path, capsys):
        manifest = self._build_corpus(tmp_path, n=2)
        code = main([
            "compare", "--manifest", str(manifest), "--algos", "pyin,crepe",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "--external" in capsys.readouterr().err

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

    @pytest.mark.parametrize("jobs", ["0", "-1", "abc", "1.5"])
    def test_bad_jobs_flag_is_a_usage_error(self, tmp_path, capsys, jobs):
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "table.csv"
        code = main(["compare", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs])
        assert code == 2
        assert f"--jobs must be a positive integer, got '{jobs}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", ""])
    def test_bad_jobs_variable_is_a_usage_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("PITCHBENCH_JOBS", value)
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"PITCHBENCH_JOBS must be a positive integer, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, flag, workers", [("2", [], [2]), ("2", ["--jobs", "1"], [])])
    def test_jobs_variable_is_the_default_of_the_flag(self, tmp_path, monkeypatch, value, flag,
                                                      workers):
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
        monkeypatch.setenv("PITCHBENCH_JOBS", value)
        manifest = self._build_corpus(tmp_path, n=1)
        out = tmp_path / "table.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out), *flag]) == 0
        assert started == workers

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

    def test_published_rows_reproduce_fom_column(self):
        rows = [
            (label, corpus_from_row(row), fom_rank(corpus_from_row(row)))
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

    def test_unreadable_file_exit_one(self, tmp_path):
        assert main(["hist", "--ref", str(tmp_path / "no.txt"), "--out", str(tmp_path / "h.csv")]) == 1


class TestUsage:
    def test_no_command_exits_two(self):
        assert main([]) == 2

    def test_jobs_variable_is_read_only_by_compare(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PITCHBENCH_JOBS", "abc")
        ref = tmp_path / "ref.txt"
        ref.write_text("100.0\n")
        assert main(["hist", "--ref", str(ref), "--out", str(tmp_path / "h.csv")]) == 0

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2
