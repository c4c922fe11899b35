"""Frames as views, one block budget, and the page faults of a warm
process.

The engines frame an utterance a block at a time as read-only views of
the signal, and every stage allocates its own arrays. These tests pin
what that must keep: a result handed to a caller is its own, so a later
call cannot change it; threads running the engines at once get the bits
of a lone call; ``numpy.fft`` gives ``scipy.fft``'s bits at every shape
the engines transform; and a warm process does not pay page faults for
every block or utterance.
"""
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

import pitchbench
from pitchbench import (
    AudioSignal,
    PyinConfig,
    YaaptConfig,
    bandpass_filter,
    frame_centers,
    frame_signal,
    spectral_pitch_track,
    yaapt_preprocess,
)
from pitchbench.pyin import _lag_range, _pyin_factor
from pitchbench.signal import (
    _bandpass_taps,
    _block_rows,
    _working_factor,
    cmnd_rows,
    lag_frame_len,
    nccf_rows,
    yin_difference_rows,
)
from pitchbench.yaapt import _NLFER_FFT, _SHC_FFT
from conftest import padded_tone, same_bits, sawtooth

RATES = [8000, 11025, 16000, 22050, 44100, 48000]


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

class TestFrameViews:
    @pytest.mark.parametrize("hop_ms, rate", [(10.0, 48000), (10.0, 22050), (6.25, 8000)])
    def test_frames_are_read_only(self, hop_ms, rate):
        x = np.random.default_rng(1).standard_normal(rate // 2)
        frames = frame_signal(x, 400, frame_centers(x.size, hop_ms, rate))
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0] = 1.0

    def test_empty_frames_are_read_only(self):
        frames = frame_signal(np.ones(100), 64, np.zeros(0, dtype=np.int64))
        assert frames.shape == (0, 64) and not frames.flags.writeable

    def test_whole_hop_frames_inside_the_signal_are_a_view(self):
        x = np.arange(10_000, dtype=np.float64)
        centers = np.arange(1000, 9000, 160)
        frames = frame_signal(x, 640, centers)
        assert np.shares_memory(frames, x)
        assert same_bits(frames, np.stack([x[c - 320 : c + 320] for c in centers]))

    def test_block_views_are_the_frames_in_order(self):
        # pYIN's 48 kHz frames, cut one lag-stage block at a time as the
        # engines cut them, against one call over every center
        frame_len = 1920
        x = np.random.default_rng(3).standard_normal(300_000)
        centers = np.arange(0, x.size, 480)
        step = _block_rows(frame_len)
        blocks = [frame_signal(x, frame_len, centers[start : start + step])
                  for start in range(0, centers.size, step)]
        assert len(blocks) > 2
        assert all(np.shares_memory(block, x) for block in blocks[1:-1])
        assert same_bits(np.concatenate(blocks), frame_signal(x, frame_len, centers))

    def test_no_centers_no_frames(self):
        assert frame_signal(np.ones(100), 40, np.zeros(0, dtype=np.int64)).size == 0


# ---------------------------------------------------------------------------
# Threads and kept results
# ---------------------------------------------------------------------------

def _spectral_track(signal):
    config = YaaptConfig()
    return spectral_pitch_track(yaapt_preprocess(signal, config), config)


def _engine_calls(seed):
    """Results of a bandpass and a spectral track (at 48 kHz, with the
    decimation); their sizes grow with the seed."""
    rng = np.random.default_rng(seed)
    noise = AudioSignal(rng.standard_normal(8000 * (seed + 1)), 16000)
    tone = sawtooth(rng.uniform(100, 300), 0.2 + 0.05 * seed, 48000)
    tone = padded_tone(tone, 48000, 0.05, 0.05)
    track = _spectral_track(tone)
    return [bandpass_filter(noise, 50.0, 1500.0).samples, track.coarse_f0_hz, track.nlfer]


def test_engines_give_the_same_bits_in_threads():
    # more threads than cores, switching often, each running the front end
    # and the spectral stage: no stage may share a buffer between threads
    expected = [_engine_calls(k) for k in range(4)]
    wrong = []

    def run(k):
        for _ in range(30):
            if not all(map(same_bits, _engine_calls(k), expected[k])):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(expected))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _lag_input(seed):
    # one block of the lag stage
    return np.random.default_rng(seed).standard_normal((7, 640))


# each call: (name, function of a seed returning the result's arrays)
CALLS = [
    ("yin_difference_rows", lambda seed: [yin_difference_rows(_lag_input(seed), 266)]),
    ("cmnd_rows", lambda seed: [cmnd_rows(yin_difference_rows(_lag_input(seed), 266))]),
    ("nccf_rows", lambda seed: [nccf_rows(_lag_input(seed), 40, 266)]),
    ("bandpass_filter", lambda seed: [bandpass_filter(
        AudioSignal(np.random.default_rng(seed).standard_normal(16000), 16000), 50.0, 1500.0
    ).samples]),
    ("spectral_pitch_track", lambda seed: list(vars(_spectral_track(
        padded_tone(sawtooth(120.0 + 40 * seed, 0.5, 16000), 16000, 0.1, 0.1)
    )).values())),
]


class TestResultsOutliveTheWorkspace:
    """A result handed to a caller is its own: a later call leaves it as
    it was."""

    @pytest.mark.parametrize("name, call", CALLS, ids=[name for name, _ in CALLS])
    def test_a_second_call_leaves_the_first_result(self, name, call):
        first = call(1)
        kept = [array.copy() for array in first]
        second = call(2)
        assert not any(same_bits(a, b) for a, b in zip(first, second))
        for array, copy in zip(first, kept):
            assert same_bits(array, copy)


# ---------------------------------------------------------------------------
# numpy.fft gives scipy.fft's bits at the engines' shapes
# ---------------------------------------------------------------------------

def engine_transforms(rate):
    """(input length, transform length, rows) of every transform the engines
    run at ``rate`` with default configs: the lag stage's frame and head
    transforms (pYIN and YAAPT, each at its working rate), the spectral
    stage's NLFER and SHC frames, and the bandpass of a 1 s signal at the
    working rate, where YAAPT runs it, and at ``rate``."""
    shapes = []
    pcfg, ycfg = PyinConfig(), YaaptConfig()
    pyin_rate = rate / _pyin_factor(pcfg, rate)
    frame_len = lag_frame_len(pcfg.frame_len_ms, pyin_rate, pcfg.fmin_hz)
    lag_max = _lag_range(pcfg, pyin_rate)[1]
    shapes.append((frame_len, lag_max))
    yaapt_rate = rate / _working_factor(rate)
    frame_len = lag_frame_len(ycfg.frame_len_ms, yaapt_rate, ycfg.fmin_hz)
    shapes.append((frame_len, int(math.floor(yaapt_rate / ycfg.fmin_hz))))
    out = []
    for size, max_lag in shapes:
        n = scipy.fft.next_fast_len(size, real=True)
        out += [(size, n, 7), (size - max_lag, n, 7)]
    # the spectral stage's frames; its SHC frames are twice as long
    for size, n_fft in ((frame_len, _NLFER_FFT), (2 * frame_len, _SHC_FFT)):
        out.append((size, max(n_fft, size), 7))
    for size, bp_rate in {(-(-rate // _working_factor(rate)), yaapt_rate), (rate, rate)}:
        taps = _bandpass_taps(ycfg.bp_low_hz, ycfg.bp_high_hz, bp_rate).size
        out.append((size, scipy.fft.next_fast_len(size + taps - 1, True), 1))
    return out


@pytest.mark.parametrize("rate", RATES)
def test_numpy_fft_gives_scipy_fft_bits_at_engine_shapes(rate):
    rng = np.random.default_rng(rate)
    for size, n, rows in engine_transforms(rate):
        x = rng.standard_normal(size + 160 * rows)
        contiguous = rng.standard_normal((rows, size))
        strided = sliding_window_view(x, size)[::160][:rows]  # frames as the engines cut them
        for frames in (contiguous, strided):
            spectrum = scipy.fft.rfft(frames, n, axis=1)
            assert same_bits(np.fft.rfft(frames, n, axis=1), spectrum), (size, n)
            out = np.empty((rows, n))
            assert same_bits(np.fft.irfft(spectrum, n, axis=1, out=out),
                             scipy.fft.irfft(spectrum, n, axis=1)), (size, n)


# ---------------------------------------------------------------------------
# Page faults of a warm process
# ---------------------------------------------------------------------------

# Minor faults per pyin_track + yaapt_track pair in FAULTS_CHILD before
# the workspace (blocks allocated afresh, frames copied per 4 MiB chunk),
# on Linux with glibc 2.36, NumPy 2.4.6 and SciPy 1.17.1.
PARENT_FAULTS_PER_PAIR = 1570

FAULTS_CHILD = """
import resource

import numpy as np
from pitchbench import AudioSignal, pyin_track, yaapt_track

rate = 48000
t = np.arange(rate) / rate
tone = np.sin(2 * np.pi * 150 * t) / 2 + np.sin(2 * np.pi * 300 * t) / 4
noise = np.random.default_rng(0).standard_normal(rate) / 100
signal = AudioSignal(tone + noise, rate)
pyin_track(signal)
yaapt_track(signal)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    pyin_track(signal)
    yaapt_track(signal)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts of Linux")
def test_warm_engines_take_a_quarter_of_the_page_faults():
    src = str(Path(pitchbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", FAULTS_CHILD],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    faults = float(result.stdout.strip())
    assert faults <= PARENT_FAULTS_PER_PAIR / 4, faults


# Engine pairs on 16 kHz utterances of three lengths in turn, as a corpus
# of varied files runs them: each length brings arrays of other sizes.
FAULTS_CHILD_16K = """
import resource

import numpy as np
from pitchbench import AudioSignal, pyin_track, yaapt_track

rate = 16000
rng = np.random.default_rng(0)
signals = []
for seconds in (1.0, 1.5, 2.0):
    t = np.arange(int(seconds * rate)) / rate
    tone = np.sin(2 * np.pi * 150 * t) / 2 + np.sin(2 * np.pi * 300 * t) / 4
    signals.append(AudioSignal(tone + rng.standard_normal(t.size) / 100, rate))


def run_pairs():
    for signal in signals:
        pyin_track(signal)
        yaapt_track(signal)


run_pairs()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    run_pairs()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 9)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts of Linux")
def test_warm_engines_on_varied_lengths_take_few_page_faults():
    # with no block freed at import, glibc hands the stages' arrays back
    # to the system between utterances: about 430 faults per pair; 0 with it
    src = str(Path(pitchbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", FAULTS_CHILD_16K],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    faults = float(result.stdout.strip())
    assert faults <= 20, faults
