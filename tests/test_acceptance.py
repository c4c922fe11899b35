"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s or -rP to see them)."""
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from pitchbench import (
    AudioSignal,
    FrameOutcome,
    PitchCandidate,
    PitchTrack,
    PyinConfig,
    YaaptConfig,
    NccfCandidate,
    SpectralTrack,
    classify_frame,
    cmnd,
    evaluate_pair,
    fom_rank,
    nccf,
    pyin_track,
    pyin_viterbi,
    read_external_track,
    read_reference_track,
    write_track,
    yaapt_dp_select,
    yaapt_track,
    yin_difference,
)
from pitchbench.cli import main

from conftest import missing_fundamental, padded_tone, sawtooth, sine
from test_metrics import TABLE_ROWS, corpus_from_row, count_oracle
from test_signal import brute_force_nccf, brute_force_yin
from test_pyin import oracle_best_path_score, oracle_path_score
from test_yaapt import oracle_min_cost, oracle_path_cost


def test_criterion_1_fom_reproduction():
    totals = {row[0]: fom_rank(corpus_from_row(row)).total for row in TABLE_ROWS}
    assert totals == {"CREPE": 7, "YAAPT": 5, "pYIN": 6}
    print("ACCEPTANCE 1 (FOM reproduction 7/5/6): PASS")


def test_criterion_2_table_arithmetic_identity():
    for row in TABLE_ROWS:
        label, _, _, _, voiced, _, gross, fine = row[:8]
        assert fine == voiced - gross, label
    assert TABLE_ROWS[0][7] == 2783 - 3
    print("ACCEPTANCE 2 (fine = voiced - gross on all rows): PASS")


def test_criterion_3_metric_engine_oracle_equivalence():
    rng = np.random.default_rng(777)
    for _ in range(1000):
        n = int(rng.integers(1, 2001))
        ref = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(60, 400, n))
        drift = rng.choice([1.0, 1.005, 1.02, 2.0, 0.5], n)
        est = np.where(rng.random(n) < 0.3, 0.0, ref * drift)
        stats = evaluate_pair(PitchTrack(0.01, est), PitchTrack(0.01, ref))
        counts, errors = count_oracle(est, ref)
        assert stats.u2v_errors == counts["u2v"]
        assert stats.v2u_errors == counts["v2u"]
        assert stats.gross_errors == counts["gross"]
        assert stats.fine_frames == counts["fine"]
        assert stats.total_frames == n
        assert stats.ref_unvoiced_frames == counts["cu"] + counts["u2v"]
        np.testing.assert_allclose(np.sort(stats.fine_errors_samples), np.sort(errors))
    print("ACCEPTANCE 3 (evaluate_pair vs loop oracle, 1000 pairs): PASS")


def test_criterion_4_classification_boundaries():
    assert classify_frame(100.0, 50.0)[0] is FrameOutcome.GROSS_ERROR
    assert classify_frame(50.0, 100.0)[0] is FrameOutcome.GROSS_ERROR
    outcome, err = classify_frame(200.0, 210.0)
    assert outcome is FrameOutcome.CORRECT_VOICED_FINE
    assert abs(err - 3.81) <= 0.01
    # periods 2 ms and 1 ms differ by exactly 1.0 ms in float arithmetic
    assert abs(1.0 / 500.0 - 1.0 / 1000.0) == 1.0 / 1000.0
    assert classify_frame(500.0, 1000.0)[0] is FrameOutcome.CORRECT_VOICED_FINE
    print("ACCEPTANCE 4 (gross/fine boundaries incl. exact 1 ms): PASS")


def test_criterion_5_signal_core_oracles():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        frame = rng.standard_normal(300)
        max_lag = int(rng.integers(20, 140))
        d = yin_difference(frame, max_lag)
        np.testing.assert_allclose(
            d.values, brute_force_yin(frame, max_lag), rtol=1e-9, atol=1e-12
        )
        min_lag = int(rng.integers(1, 10))
        c = nccf(frame, min_lag, max_lag)
        np.testing.assert_allclose(
            c.values, brute_force_nccf(frame, min_lag, max_lag), rtol=1e-9, atol=1e-12
        )
        assert cmnd(d).values[0] == 1.0
    print("ACCEPTANCE 5 (yin/nccf brute-force oracles, cmnd(0)=1): PASS")


def _synthetic_corpus(rate=48000):
    """20 utterances spanning the 80-330 Hz observed pitch range."""
    specs = (
        [("sine", f) for f in (80, 110, 150, 190, 230, 280, 330)]
        + [("saw", f) for f in (85, 120, 160, 200, 240, 290, 325)]
        + [("missing", f) for f in (90, 105, 130, 170, 210, 260)]
    )
    corpus = []
    for kind, f0 in specs:
        if kind == "sine":
            tone = sine(float(f0), 1.0, rate)
        elif kind == "saw":
            tone = sawtooth(float(f0), 1.0, rate)
        else:
            tone = missing_fundamental(float(f0), 1.0, rate)
        corpus.append((f"{kind}{f0}", float(f0), padded_tone(tone, rate)))
    assert len(corpus) == 20
    return corpus


def _check_criterion_6(label, engine, corpus):
    interior_total = 0
    interior_fine = 0
    fine_errors = []
    silence_total = 0
    silence_unvoiced = 0
    octave_jumps = 0
    for _name, f0, sig in corpus:
        track = engine(sig)
        n = len(track)  # 151 frames: silence 0-24, tone 25-125, silence 126-150
        voiced_lo, voiced_hi = 30, 120
        est = track.frames
        for k in range(voiced_lo, voiced_hi + 1):
            outcome, err = classify_frame(est[k], f0)
            interior_total += 1
            if outcome is FrameOutcome.CORRECT_VOICED_FINE:
                interior_fine += 1
                fine_errors.append(err)
        sil = np.concatenate([est[:21], est[n - 21 :]])
        silence_total += sil.size
        silence_unvoiced += int(np.sum(sil == 0))
        run = est[voiced_lo : voiced_hi + 1]
        run = run[run > 0]
        if run.size >= 2:
            octave_jumps += int(np.sum(np.abs(np.diff(np.log2(run))) >= 0.5))
    fine_rate = interior_fine / interior_total
    mean_fine = float(np.mean(fine_errors))
    silence_rate = silence_unvoiced / silence_total
    assert fine_rate >= 0.95, f"{label}: fine rate {fine_rate:.3f}"
    assert mean_fine <= 4.0, f"{label}: mean fine error {mean_fine:.2f} samples"
    assert silence_rate >= 0.99, f"{label}: silence unvoiced rate {silence_rate:.3f}"
    assert octave_jumps == 0, f"{label}: {octave_jumps} octave jumps"
    print(
        f"ACCEPTANCE 6 ({label}: fine {100 * fine_rate:.1f}%, mean "
        f"{mean_fine:.2f} smp, silence {100 * silence_rate:.2f}%, 0 jumps): PASS"
    )


def test_criterion_6_synthetic_corpus_quality():
    corpus = _synthetic_corpus()
    for label, engine in [("pyin", pyin_track), ("yaapt", yaapt_track)]:
        _check_criterion_6(label, engine, corpus)


@pytest.mark.parametrize("rate", [44100, 48000])
def test_criterion_6_holds_for_pyin_at_its_working_rate(rate):
    # pYIN's lag search runs at 14.7 and 16 kHz on these inputs
    _check_criterion_6(f"pyin at {rate} Hz", pyin_track, _synthetic_corpus(rate))


def test_criterion_7_dp_and_viterbi_optimality():
    rng = np.random.default_rng(31337)
    pyin_cfg = PyinConfig()
    for _ in range(100):
        n_frames = int(rng.integers(1, 9))
        sets = []
        for _ in range(n_frames):
            k = int(rng.integers(0, 4))
            freqs = rng.uniform(65, 390, k)
            probs = rng.random(k)
            if probs.sum() > 0:
                probs = probs / probs.sum() * rng.uniform(0.2, 1.0)
            sets.append([PitchCandidate(f, p) for f, p in zip(freqs, probs)])
        decoded = pyin_viterbi(sets, pyin_cfg)
        got = oracle_path_score(pyin_cfg, sets, decoded.frames)
        best = oracle_best_path_score(pyin_cfg, sets)
        assert got == pytest.approx(best, rel=1e-9)

    yaapt_cfg = YaaptConfig()
    for _ in range(100):
        n = int(rng.integers(1, 9))
        candidates = [
            [
                NccfCandidate(float(f), float(m))
                for f, m in zip(
                    rng.uniform(60, 400, int(rng.integers(0, 4))), rng.uniform(0, 1, 3)
                )
            ]
            for _ in range(n)
        ]
        spectral = SpectralTrack(
            np.where(rng.random(n) < 0.4, 0.0, rng.uniform(60, 400, n)),
            rng.uniform(0, 3, n),
        )
        track = yaapt_dp_select(candidates, spectral, yaapt_cfg)
        got = oracle_path_cost(yaapt_cfg, candidates, spectral, track.frames)
        best = oracle_min_cost(yaapt_cfg, candidates, spectral)
        assert got == pytest.approx(best, rel=1e-9, abs=1e-12)
    print("ACCEPTANCE 7 (Viterbi/DP equal exhaustive enumeration): PASS")


def test_criterion_8_determinism_and_roundtrip(tmp_path):
    import scipy.io.wavfile

    rate = 16000
    samples = np.concatenate([np.zeros(2400), sine(220.0, 0.5, rate), np.zeros(2400)])
    wav = tmp_path / "tone.wav"
    scipy.io.wavfile.write(wav, rate, np.round(samples * 32767).astype(np.int16))
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        assert main(["detect", "--algo", "pyin", "--in", str(wav), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    rng = np.random.default_rng(99)
    f0 = np.where(rng.random(100) < 0.4, 0.0, rng.uniform(60, 400, 100))
    track = PitchTrack(0.01, f0)
    path = tmp_path / "rt.csv"
    write_track(track, path)
    back = read_external_track(path)
    np.testing.assert_array_equal(back.voiced, track.voiced)
    mask = track.voiced
    np.testing.assert_allclose(back.frames[mask], track.frames[mask], rtol=1e-4)
    print("ACCEPTANCE 8 (byte-identical reruns, track round-trip): PASS")


GRAZ_DIR = os.environ.get("PITCHBENCH_GRAZ_DIR")


@pytest.mark.skipif(
    not GRAZ_DIR, reason="set PITCHBENCH_GRAZ_DIR to the corpus root to enable"
)
def test_criterion_9_graz_corpus(tmp_path):
    root = Path(GRAZ_DIR)
    f01 = sorted(root.rglob("*F01_si453*f0*.txt"))
    assert f01, f"no F01_si453 reference under {root}"
    track = read_reference_track(f01[0])
    voiced = track.frames[track.voiced]
    assert voiced.size == 168
    assert round(float(voiced.min()), 1) == 81.8
    assert round(float(np.median(voiced)), 1) == 188.5
    assert round(float(voiced.max()), 1) == 284.6

    refs = sorted(root.rglob("*_f0.txt"))
    pairs = []
    for ref in refs:
        stem = ref.name.replace("_f0.txt", "")
        wavs = sorted(root.rglob(f"{stem}.wav"))
        if wavs:
            pairs.append((stem, wavs[0], ref))
    assert len(pairs) >= 20, f"found only {len(pairs)} wav/reference pairs"
    manifest = tmp_path / "manifest.csv"
    lines = ["utterance_id,wav_path,reference_path"]
    for stem, wav, ref in pairs[:20]:
        lines.append(f"{stem},{wav},{ref}")
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "table.csv"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3  # header + pyin + yaapt
    print("ACCEPTANCE 9 (Graz corpus comparison): PASS")
