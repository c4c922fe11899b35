"""Frames as views, one block budget and the reused FFT workspace.

The engines frame an utterance a block at a time as read-only views of
the signal. The bandpass, preprocessing, decimation and spectral stages
run their transforms in a per-thread workspace that outlives the call;
the lag stage allocates its blocks. These tests pin what that must not
change: no result handed to a caller lives in the workspace, so a later
call cannot overwrite it; each thread has its own; ``numpy.fft`` (whose
``out=`` the workspace needs) gives ``scipy.fft``'s bits at every shape
the engines transform; and a warm process no longer pays page faults
for every block.
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
)
from pitchbench import signal as sig
from pitchbench.pyin import _lag_range
from pitchbench.signal import (
    _bandpass_taps,
    _block_rows,
    cmnd_rows,
    lag_frame_len,
    nccf_rows,
    workspace,
    yin_difference_rows,
)
from pitchbench.yaapt import _NLFER_FFT, _SHC_FFT, _SPECTRAL_TARGET_RATE, _frame_and_fft_len
from conftest import padded_tone, sawtooth

RATES = [8000, 11025, 16000, 22050, 44100, 48000]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def in_workspace(array):
    return np.shares_memory(array, sig._arena.buffer)


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
# The workspace
# ---------------------------------------------------------------------------

class TestWorkspace:
    def test_arrays_of_one_scope_do_not_overlap(self):
        with workspace() as take:
            a = take((10, 7))
            b = take((3,), np.complex128)
            with workspace() as inner:
                c = inner((5, 5))
            d = take((4,))
            arrays = [a, b, c, d]
        for i, x in enumerate(arrays):
            assert x.flags.c_contiguous and x.flags.aligned
            for y in arrays[i + 1 :]:
                assert x is c or y is c or not np.shares_memory(x, y)
        assert np.shares_memory(c, d)  # the inner scope's room is handed out again

    def test_an_array_past_the_budget_is_fresh(self):
        with workspace() as take:
            big = take((sig._arena.buffer.size // 8 + 1,))
        assert not in_workspace(big)

    def test_the_buffer_is_kept_across_calls(self):
        with workspace() as take:
            take((1,))
        buffer = sig._arena.buffer
        bandpass_filter(AudioSignal(np.ones(1000), 16000), 50.0, 1500.0)
        assert sig._arena.buffer is buffer


def _workspace_calls(seed):
    """Results of a bandpass and a spectral track, which take their
    arrays from the workspace (at 48 kHz, the decimation too); their
    sizes grow with the seed."""
    rng = np.random.default_rng(seed)
    noise = AudioSignal(rng.standard_normal(8000 * (seed + 1)), 16000)
    tone = sawtooth(rng.uniform(100, 300), 0.2 + 0.05 * seed, 48000)
    tone = padded_tone(tone, 48000, 0.05, 0.05)
    track = spectral_pitch_track(tone, YaaptConfig())
    return [bandpass_filter(noise, 50.0, 1500.0).samples, track.coarse_f0_hz, track.nlfer]


def test_each_thread_has_its_own_workspace():
    # more threads than cores, switching often, each running the stages
    # that take their arrays from the workspace
    expected = [_workspace_calls(k) for k in range(4)]
    wrong = []

    def run(k):
        for _ in range(30):
            if not all(map(same_bits, _workspace_calls(k), expected[k])):
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
    ("spectral_pitch_track", lambda seed: list(vars(spectral_pitch_track(
        padded_tone(sawtooth(120.0 + 40 * seed, 0.5, 16000), 16000, 0.1, 0.1), YaaptConfig()
    )).values())),
]


class TestResultsOutliveTheWorkspace:
    @pytest.mark.parametrize("name, call", CALLS, ids=[name for name, _ in CALLS])
    def test_a_second_call_leaves_the_first_result(self, name, call):
        first = call(1)
        kept = [array.copy() for array in first]
        second = call(2)
        assert not any(same_bits(a, b) for a, b in zip(first, second))
        for array, copy in zip(first, kept):
            assert not in_workspace(array)
            assert same_bits(array, copy)


# ---------------------------------------------------------------------------
# numpy.fft gives scipy.fft's bits at the engines' shapes
# ---------------------------------------------------------------------------

def engine_transforms(rate):
    """(input length, transform length) of every transform the engines run
    at ``rate`` with default configs: the lag stage's frame and head
    transforms (pYIN and YAAPT), the spectral stage's NLFER and SHC
    frames, and the bandpass of a 1 s signal."""
    shapes = []
    pcfg, ycfg = PyinConfig(), YaaptConfig()
    frame_len = lag_frame_len(pcfg.frame_len_ms, rate, pcfg.fmin_hz)
    lag_max = _lag_range(pcfg, rate, frame_len)[1]
    shapes.append((frame_len, lag_max))
    frame_len = lag_frame_len(ycfg.frame_len_ms, rate, ycfg.fmin_hz)
    shapes.append((frame_len, int(math.floor(rate / ycfg.fmin_hz))))
    out = []
    for size, max_lag in shapes:
        n = scipy.fft.next_fast_len(size, real=True)
        out += [(size, n), (size - max_lag, n)]
    factor = max(1, int(round(rate / _SPECTRAL_TARGET_RATE)))
    for scale, n_fft in ((1, _NLFER_FFT), (2, _SHC_FFT)):
        out.append(_frame_and_fft_len(rate / factor, ycfg, scale, n_fft))
    taps = _bandpass_taps(ycfg.bp_low_hz, ycfg.bp_high_hz, rate).size
    out.append((rate, scipy.fft.next_fast_len(rate + taps - 1, True)))
    return out


@pytest.mark.parametrize("rate", RATES)
def test_numpy_fft_gives_scipy_fft_bits_at_engine_shapes(rate):
    rng = np.random.default_rng(rate)
    for size, n in engine_transforms(rate):
        rows = 1 if size == rate else 7
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
