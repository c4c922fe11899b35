"""Seeded synthetic corpora for the benchmark.

Everything the program under test reads is written here: 16-bit WAVs,
10 ms reference trajectories taken from the known f0 contour, manifests,
and external tracks with an exactly counted number of injected errors.
The same seed always gives byte-identical files.

Utterance layout (durations, voiced share, source kinds) is fixed per
workload; the seed moves the f0 contours, vibrato, timbre, noise and
the exact error counts. That keeps the amount of work, and so the
timings, nearly equal across seeds while the content still varies.
"""
from __future__ import annotations

import math
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HOP_S = 0.010
NOISE_FLOOR = 10 ** (-55 / 20)  # relative to a full-scale voiced peak
PEAK = 0.6
RAMP_S = 0.015
SEARCH_BAND_HZ = (60.0, 400.0)  # both engines' default fmin and fmax


@dataclass
class Utterance:
    utt_id: str
    wav: Path
    ref: Path
    seconds: float  # audio (or reference) seconds the utterance scores


@dataclass
class Corpus:
    manifest: Path
    utterances: list[Utterance]
    # external-scoring only: label -> directory, and the injected counts
    externals: dict[str, Path] = field(default_factory=dict)
    expected: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(u.seconds for u in self.utterances)


def write_wav(path: Path, samples: np.ndarray, rate: int) -> None:
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def write_reference(path: Path, f0: np.ndarray) -> None:
    # second column is a voicing flag, which the reader must ignore
    lines = [f"{v:.3f} {int(v > 0)}\n" for v in f0]
    path.write_text("".join(lines), encoding="utf-8")


def write_manifest(path: Path, utterances: list[Utterance]) -> None:
    rows = ["utterance_id,wav_path,reference_path\n"]
    rows += [f"{u.utt_id},{u.wav.name},{u.ref.name}\n" for u in utterances]
    path.write_text("".join(rows), encoding="utf-8")


def _layout(rng, duration_s: float, voiced_share: float, n_voiced: int):
    """Alternating gaps and voiced segments as (start_s, end_s, kind) with
    kind in {"silence", "noise", "voiced"}; gaps lead and trail."""
    voiced = voiced_share * duration_s / n_voiced * rng.uniform(0.85, 1.15, n_voiced)
    gaps = (1 - voiced_share) * duration_s / (n_voiced + 1) * rng.uniform(0.7, 1.3, n_voiced + 1)
    scale = duration_s / (voiced.sum() + gaps.sum())
    voiced, gaps = voiced * scale, gaps * scale
    segments, t = [], 0.0
    for i in range(n_voiced + 1):
        kind = "noise" if i % 2 else "silence"
        segments.append((t, t + gaps[i], kind))
        t += gaps[i]
        if i < n_voiced:
            segments.append((t, t + voiced[i], "voiced"))
            t += voiced[i]
    return segments


@dataclass
class Voice:
    """Plan of one voiced segment: source kind (see _voiced_source) and
    the quantiles, in [0, 1), of its start pitch, glide and spectral tilt."""

    kind: str
    start_q: float
    glide_q: float
    tilt_q: float


# start-pitch range (Hz) and largest glide (octaves) per source kind. Where
# the second harmonic dominates (the octave-ambiguous drift target, the
# lowest line of a missing fundamental), 2 f0 stays inside the engines'
# default 400 Hz search band.
_PITCH = {"H": (90.0, 240.0, 0.5), "M": (80.0, 150.0, 0.3), "O": (80.0, 150.0, 0.3)}


def _stratified(rng, n: int) -> np.ndarray:
    """n values in [0, 1), one in each of n equal strata, in random order.

    Corpus-level accuracy then varies far less from seed to seed than
    with independent draws, while every seed still gives new contours."""
    return (rng.permutation(n) + rng.random(n)) / n


def plan_voices(rng, sources: str, n: int) -> list[Voice]:
    """n voiced segments cycling through the ``sources`` pattern, with
    pitches stratified within each kind."""
    kinds = [sources[i % len(sources)] for i in range(n)]
    voices: list[Voice | None] = [None] * n
    for kind in sorted(set(kinds)):
        idx = [i for i, k in enumerate(kinds) if k == kind]
        quantiles = [_stratified(rng, len(idx)) for _ in range(3)]
        for i, *q in zip(idx, *quantiles):
            voices[i] = Voice(kind, *map(float, q))
    return voices


def _f0_contour(rng, t: np.ndarray, voice: Voice) -> np.ndarray:
    """Log glide with vibrato, in Hz, for times t from the segment start."""
    low, high, max_octaves = _PITCH[voice.kind]
    f_start = low * (high / low) ** voice.start_q
    octaves = max_octaves * (2 * voice.glide_q - 1)
    span = max(t[-1], 1e-9) if t.size else 1.0
    glide = f_start * 2.0 ** (octaves * t / span)
    vib_rate = rng.uniform(4.5, 6.5)
    vib_depth = rng.uniform(0.2, 0.6)  # semitones
    phase = rng.uniform(0, 2 * math.pi)
    return glide * 2.0 ** (vib_depth / 12 * np.sin(2 * math.pi * vib_rate * t + phase))


def _voiced_source(rng, f0: np.ndarray, rate: int, voice: Voice) -> np.ndarray:
    """Harmonic source: "H" harmonic-rich, "M" missing fundamental, "O"
    octave-ambiguous (odd harmonics fade out over the segment, so the
    waveform drifts towards a tone an octave above the labelled f0)."""
    phase = 2 * math.pi * np.cumsum(f0) / rate
    top = min(4000.0, 0.45 * rate)
    kind = voice.kind
    tilt = 0.8 + 0.6 * voice.tilt_q
    odd_gain = np.geomspace(1.0, 0.02, f0.size) if kind == "O" else 1.0
    x = np.zeros_like(f0)
    power = np.zeros_like(f0)
    for k in range(2 if kind == "M" else 1, 40):
        # harmonics above the band edge fade out instead of aliasing
        gain = np.clip((top - k * f0) / 200.0, 0.0, 1.0)
        if not gain.any():
            break
        if k % 2:
            gain = gain * odd_gain
        # a missing fundamental keeps the level the fundamental would have
        # had on its second harmonic, so it is not simply a quieter source
        rank = k - 1 if kind == "M" else k
        x += gain * np.sin(k * phase + rng.uniform(0, 2 * math.pi)) / rank**tilt
        in_band = (k * f0 >= SEARCH_BAND_HZ[0]) & (k * f0 <= SEARCH_BAND_HZ[1])
        power += in_band * (gain / rank**tilt) ** 2
    # Constant power inside the engines' search band, so that fading
    # harmonics change the timbre and not the low-band level, and an
    # energy-ratio voicing gate treats every voiced segment alike.
    return x / np.sqrt(np.maximum(power, 1e-12))


def _ramp(n: int, rate: int) -> np.ndarray:
    env = np.ones(n)
    r = min(int(RAMP_S * rate), n // 2)
    if r:
        edge = 0.5 - 0.5 * np.cos(np.linspace(0, math.pi, r))
        env[:r] = edge
        env[n - r :] = edge[::-1]
    return env


def synth_utterance(
    rng, rate: int, duration_s: float, voiced_share: float, voices: list[Voice]
) -> tuple[np.ndarray, np.ndarray]:
    """One utterance with one voiced segment per voice: samples in
    [-PEAK, PEAK] and its 10 ms f0 reference."""
    n = int(round(duration_s * rate))
    x = np.zeros(n)
    n_frames = int(math.floor(duration_s / HOP_S)) + 1
    frame_t = np.arange(n_frames) * HOP_S
    ref = np.zeros(n_frames)
    pending = iter(voices)
    for start_s, end_s, kind in _layout(rng, duration_s, voiced_share, len(voices)):
        a, b = int(round(start_s * rate)), min(int(round(end_s * rate)), n)
        if kind == "voiced":
            voice = next(pending)
        if b <= a:
            continue
        if kind == "noise":
            x[a:b] += 0.05 * rng.standard_normal(b - a) * _ramp(b - a, rate)
        elif kind == "voiced":
            t = np.arange(b - a) / rate
            rng_seg = np.random.default_rng(rng.integers(2**63))
            f0 = _f0_contour(rng_seg, t, voice)
            amp = rng.uniform(0.85, 1.0)
            x[a:b] += amp * _voiced_source(rng_seg, f0, rate, voice) * _ramp(b - a, rate)
            inside = (frame_t >= a / rate) & (frame_t < b / rate)
            ref[inside] = np.interp(frame_t[inside] - a / rate, t, f0)
    x += NOISE_FLOOR * rng.standard_normal(n)
    return PEAK * x / np.max(np.abs(x)), ref


def engine_corpus(
    root: Path,
    seed: int,
    rate: int,
    durations_s: list[float],
    voiced_share: float,
    segment_s: float,
    sources: str,
    prefix: str = "utt",
) -> Corpus:
    """Utterances of the given durations; voiced segments last about
    ``segment_s`` and cycle through the ``sources`` pattern across the
    whole corpus."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, rate, len(durations_s)])
    counts = [max(1, int(round(d * voiced_share / segment_s))) for d in durations_s]
    voices = plan_voices(rng, sources, sum(counts))
    utterances = []
    for i, (duration, n_voiced) in enumerate(zip(durations_s, counts)):
        mine, voices = voices[:n_voiced], voices[n_voiced:]
        x, ref = synth_utterance(rng, rate, duration, voiced_share, mine)
        utt = Utterance(f"{prefix}{i:03d}", root / f"{prefix}{i:03d}.wav",
                        root / f"{prefix}{i:03d}_f0.txt", len(x) / rate)
        write_wav(utt.wav, x, rate)
        write_reference(utt.ref, ref)
        utterances.append(utt)
    manifest = root / "manifest.csv"
    write_manifest(manifest, utterances)
    return Corpus(manifest, utterances)


# ---------------------------------------------------------------------------
# External tracks with injected errors
# ---------------------------------------------------------------------------

def _reference_only(rng, n_frames: int, voiced_share: float, segment_frames: int) -> np.ndarray:
    duration = n_frames * HOP_S
    n_voiced = max(1, int(round(n_frames * voiced_share / segment_frames)))
    ref = np.zeros(n_frames)
    frame_t = np.arange(n_frames) * HOP_S
    voices = iter(plan_voices(rng, "H", n_voiced))
    for start_s, end_s, kind in _layout(rng, duration, voiced_share, n_voiced):
        if kind != "voiced":
            continue
        inside = (frame_t >= start_s) & (frame_t < end_s)
        ref[inside] = _f0_contour(rng, frame_t[inside] - start_s, next(voices))
    return np.round(ref, 3)  # what write_reference stores


def _pick(rng, pool: np.ndarray, share: float) -> tuple[np.ndarray, np.ndarray]:
    """Choose round(share * len) (+-2, seeded) frames out of pool; return
    (chosen, rest)."""
    k = int(round(share * pool.size)) + int(rng.integers(-2, 3))
    k = min(max(k, 1), pool.size)
    chosen = rng.choice(pool, size=k, replace=False)
    return np.sort(chosen), np.setdiff1d(pool, chosen)


def _inject(rng, ref: np.ndarray, with_confidence: bool):
    """Corrupt a copy of ref; return (f0, confidence or None, counts)."""
    est = ref.copy()
    conf = np.full(ref.size, 0.9) if with_confidence else None
    voiced = np.flatnonzero(ref > 0)
    unvoiced = np.flatnonzero(ref == 0)

    u2v, unvoiced_rest = _pick(rng, unvoiced, 0.04)
    est[u2v] = np.round(rng.uniform(80, 300, u2v.size), 3)
    v2u, voiced = _pick(rng, voiced, 0.05)
    gross, voiced = _pick(rng, voiced, 0.03)
    fine, _ = _pick(rng, voiced, 0.20)
    est[gross] = np.where(rng.random(gross.size) < 0.5, ref[gross] * 2, ref[gross] / 2)
    # a detune of at most 2% keeps the period error under 0.34 ms at 60 Hz
    detune = rng.uniform(0.005, 0.02, fine.size) * rng.choice([-1, 1], fine.size)
    est[fine] = ref[fine] * (1 + detune)
    if with_confidence:
        # half of the v2u errors come from low confidence on a correct f0,
        # and some voiced guesses on unvoiced frames are gated back off
        gated, zeroed = v2u[: v2u.size // 2], v2u[v2u.size // 2 :]
        conf[gated] = rng.uniform(0.05, 0.45, gated.size)
        est[zeroed] = 0.0
        ghosts, _ = _pick(rng, unvoiced_rest, 0.02)
        est[ghosts] = np.round(rng.uniform(80, 300, ghosts.size), 3)
        conf[ghosts] = rng.uniform(0.05, 0.45, ghosts.size)
    else:
        est[v2u] = 0.0
    counts = {
        "total_frames": int(ref.size),
        "ref_voiced_frames": int(np.sum(ref > 0)),
        "ref_unvoiced_frames": int(np.sum(ref == 0)),
        "u2v_errors": int(u2v.size),
        "v2u_errors": int(v2u.size),
        "gross_errors": int(gross.size),
    }
    counts["fine_frames"] = counts["ref_voiced_frames"] - counts["v2u_errors"] - counts["gross_errors"]
    return est, conf, counts


def write_external(path: Path, f0: np.ndarray, conf: np.ndarray | None) -> None:
    if conf is None:
        lines = ["frame,time_s,f0_hz\n"]
        lines += [f"{i},{i * HOP_S:.6f},{v:.6g}\n" for i, v in enumerate(f0)]
    else:
        lines = ["frame,time_s,f0_hz,confidence\n"]
        lines += [f"{i},{i * HOP_S:.6f},{v:.6g},{c:.3f}\n" for i, (v, c) in enumerate(zip(f0, conf))]
    path.write_text("".join(lines), encoding="utf-8")


def external_corpus(root: Path, seed: int, n_tracks: int, n_frames: int,
                    labels: tuple[str, str]) -> Corpus:
    """References plus two labels of external tracks: the first without a
    confidence column, the second with one."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, n_tracks, n_frames])
    # compare requires every manifest WAV to exist even when no engine runs;
    # one short shared file is enough, as nothing decodes it
    placeholder = root / "placeholder.wav"
    write_wav(placeholder, np.zeros(1600), 16000)
    dirs = {label: root / label for label in labels}
    for d in dirs.values():
        d.mkdir(exist_ok=True)
    utterances = []
    expected: dict[str, dict[str, dict[str, int]]] = {label: {} for label in labels}
    for i in range(n_tracks):
        utt_id = f"trk{i:03d}"
        ref = _reference_only(rng, n_frames, 0.6, 120)
        ref_path = root / f"{utt_id}_f0.txt"
        write_reference(ref_path, ref)
        for label, with_conf in zip(labels, (False, True)):
            est, conf, counts = _inject(rng, ref, with_conf)
            write_external(dirs[label] / f"{utt_id}.csv", est, conf)
            expected[label][utt_id] = counts
        utterances.append(Utterance(utt_id, placeholder, ref_path, n_frames * HOP_S))
    manifest = root / "manifest.csv"
    write_manifest(manifest, utterances)
    return Corpus(manifest, utterances, dirs, expected)
