"""The package's own FIR design, bandpass, decimation, transform lengths
and Beta prior against the SciPy functions they replace, the decimation
of a span against the whole, and the import graph they leave behind.

The package imports no SciPy at run time: ``scipy.signal`` pulls in
``scipy.stats``, ``scipy.interpolate`` and ``scipy.optimize``, and even
``scipy.fft`` or ``scipy.special`` alone costs more start-up than the
rest of ``pitchbench.cli``. These tests may import the SciPy functions;
the package may not.
"""
import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import decimate, fftconvolve, firwin
from scipy.stats import beta

import pitchbench
from pitchbench import AudioSignal, PyinConfig, bandpass_filter
from pitchbench.pyin import _threshold_weights
from pitchbench.signal import _bandpass_taps, _decimate, _fast_len
from conftest import same_bits

# input rates, and 12 and 14.7 kHz, where YAAPT bandpasses 24 and 44.1 kHz input
RATES = [8000, 11025, 12000, 14700, 16000, 22050, 44100, 48000]
BANDS = [(50.0, 1500.0), (60.0, 400.0)]  # YAAPT's default band, and a narrow one


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("band", BANDS)
class TestBandpass:
    def test_taps_match_firwin(self, rate, band):
        low, high = band
        numtaps = int(math.ceil(3.3 * rate / low)) | 1
        expected = firwin(numtaps, [low, high], pass_zero=False, fs=rate)
        assert same_bits(_bandpass_taps(low, high, rate), expected)

    def test_filter_matches_fftconvolve(self, rate, band, rng):
        low, high = band
        taps = firwin(int(math.ceil(3.3 * rate / low)) | 1, [low, high], pass_zero=False, fs=rate)
        delay = taps.size // 2
        for n in (1, 2, rate // 5 + 3):
            x = rng.standard_normal(n)
            expected = fftconvolve(x, taps, mode="full")[delay : delay + n]
            assert same_bits(bandpass_filter(AudioSignal(x, rate), low, high).samples, expected)


def test_bandpass_taps_are_cached_and_read_only():
    taps = _bandpass_taps(50.0, 1500.0, 48000.0)
    assert taps is _bandpass_taps(50.0, 1500.0, 48000.0)
    with pytest.raises(ValueError):
        taps[0] = 0.0


@pytest.mark.parametrize("factor", [2, 3, 6])
def test_decimation_matches_scipy(factor, rng):
    # empty, one and two samples, then every residue mod the factor
    lengths = [0, 1, 2] + [10 * factor + r for r in range(factor)] + [16000 + 1]
    for n in lengths:
        x = rng.standard_normal(n)
        expected = decimate(x, factor, ftype="fir", zero_phase=True)
        assert same_bits(_decimate(x, factor), expected), n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.integers(2, 12), st.integers(0, 2**32 - 1), st.data())
def test_decimated_span_is_that_slice_of_the_whole(n, factor, seed, data):
    # pYIN decimates one block's span at a time; each output keeps its bits
    x = np.random.default_rng(seed).standard_normal(n)
    whole = _decimate(x, factor)
    lo = data.draw(st.integers(0, whole.size), label="lo")
    hi = data.draw(st.integers(lo, whole.size), label="hi")
    assert same_bits(_decimate(x, factor, lo, hi), whole[lo:hi])


def test_fast_len_matches_next_fast_len():
    # every length up to 1e5, then seeded random ones up to 1e8
    rng = np.random.default_rng(20)
    lengths = list(range(1, 100_001)) + rng.integers(1, 10**8, 2000, endpoint=True).tolist()
    mismatched = [n for n in lengths if _fast_len(n) != next_fast_len(n, real=True)]
    assert mismatched == []


def exact_prior_weights(n_thresholds, b):
    """The Beta(2, b) prior's weights on the threshold grid to 40 digits:
    ``1 - (1 - x)^b (1 + b x)`` at each grid value, the grid values and
    ``b`` taken as exact decimals, then differenced."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        b = decimal.Decimal(b)
        grid = (decimal.Decimal(float(x)) for x in np.arange(0, n_thresholds + 1) / n_thresholds)
        cdf = [1 - (1 - x) ** b * (1 + b * x) for x in grid]
        return [hi - lo for lo, hi in zip(cdf, cdf[1:])]


def max_error(weights, exact):
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return max(abs(decimal.Decimal(float(w)) - e) for w, e in zip(weights, exact))


# The closed form's weights differ from SciPy's in the last bits, so the
# rule is an accuracy bound, not SciPy's bits: every weight within 8 eps
# of the exact value, the bound SciPy's own beta.cdf meets.
PRIOR_TOLERANCE = 8 * np.finfo(float).eps


@pytest.mark.parametrize("n_thresholds, mean", [(100, 0.1), (100, 0.3), (17, 0.5), (1, 0.05)])
def test_threshold_prior_matches_beta_cdf(n_thresholds, mean):
    config = PyinConfig(n_thresholds=n_thresholds, threshold_prior_mean=mean)
    a = 2.0
    b = a * (1.0 - mean) / mean
    grid = np.arange(0, n_thresholds + 1) / n_thresholds
    thresholds, weights = _threshold_weights(config)
    assert same_bits(thresholds, grid[1:])
    exact = exact_prior_weights(n_thresholds, b)
    assert weights.shape == (n_thresholds,)
    assert max_error(weights, exact) <= PRIOR_TOLERANCE
    assert max_error(np.diff(beta.cdf(grid, a, b)), exact) <= PRIOR_TOLERANCE


GUARD = """
import sys
from pitchbench.cli import main

wav, out, manifest, table = sys.argv[1:]
for algo in ("pyin", "yaapt"):
    assert main(["detect", "--algo", algo, "--in", wav, "--out", out]) == 0
assert main(["compare", "--manifest", manifest, "--out", table, "--jobs", "1"]) == 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_cli_imports_no_scipy(tmp_path):
    """A fresh interpreter runs ``detect`` with both engines and then
    ``compare``, so imports made lazily inside functions are caught too."""
    rate = 48000
    t = np.arange(rate // 2) / rate
    wav = tmp_path / "tone.wav"
    scipy.io.wavfile.write(wav, rate, np.round(0.5 * np.sin(2 * np.pi * 150 * t) * 32767).astype(np.int16))
    (tmp_path / "tone_f0.txt").write_text("150.0\n" * 51)  # 0.5 s at a 10 ms hop
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("utterance_id,wav_path,reference_path\ntone,tone.wav,tone_f0.txt\n")
    src = str(Path(pitchbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = [wav, tmp_path / "track.csv", manifest, tmp_path / "table.csv"]
    result = subprocess.run(
        [sys.executable, "-c", GUARD, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
