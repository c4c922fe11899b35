"""YAAPT configurations whose SHC terms would leave the spectrum.

The spectral stage runs near 16 kHz whatever the input rate, and every SHC
term reads bins from ``(f - W/2)`` to ``(NH + 1) f + W/2``. A configuration
that puts either end outside ``[0, Nyquist]`` of that stage is rejected when
it is made or checked against a rate, rather than failing inside the engine
or reading a wrapped bin.
"""
import numpy as np
import pytest

from pitchbench import AudioSignal, YaaptConfig, yaapt_track
from pitchbench.cli import main
from pitchbench.yaapt import _grid_frequencies, _shc_bins
from conftest import sine
from test_cli import write_wav

# input rate: (rate of the spectral stage, largest fmax its Nyquist admits
# with the default 3 + 1 harmonics and 40 Hz window)
SPECTRAL = {
    8000: (8000.0, 995.0),
    11025: (11025.0, 1373.125),
    16000: (16000.0, 1995.0),
    22050: (22050.0, 2751.25),
    44100: (14700.0, 1832.5),
    48000: (16000.0, 1995.0),
}


class TestFmaxAgainstShcNyquist:
    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_detect_reports_an_error(self, tmp_path, capsys, rate):
        wav = tmp_path / "tone.wav"
        write_wav(wav, rate, sine(200.0, 0.3, rate))
        code = main(["detect", "--algo", "yaapt", "--in", str(wav),
                     "--out", str(tmp_path / "t.csv"), "--fmax", "2500"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "10020.0 Hz" in err and f"Nyquist {SPECTRAL[rate][0] / 2} Hz" in err

    @pytest.mark.parametrize("rate", sorted(SPECTRAL))
    def test_largest_accepted_fmax_runs(self, rate):
        fmax = SPECTRAL[rate][1]
        with pytest.raises(ValueError, match="SHC"):
            YaaptConfig(fmax_hz=np.nextafter(fmax, np.inf)).validate_rate(rate)
        samples = sine(0.9 * fmax, 0.3, rate) + sine(150.0, 0.3, rate)
        track = yaapt_track(AudioSignal(np.concatenate([np.zeros(rate // 10), samples]), rate),
                            YaaptConfig(fmax_hz=fmax))
        assert track.frames.size == 41 and np.all(np.isfinite(track.frames))


class TestFminAgainstShcWindow:
    def test_fmin_below_half_the_window_is_rejected(self):
        with pytest.raises(ValueError, match=r"fmin 10\.0 Hz .* 40\.0 Hz"):
            YaaptConfig(fmin_hz=10.0)
        with pytest.raises(ValueError, match=r"fmin 29\.5 Hz .* 60\.0 Hz"):
            YaaptConfig(fmin_hz=29.5, shc_window_hz=60.0)

    @pytest.mark.parametrize("rate", sorted(SPECTRAL))
    def test_lowest_accepted_fmin_reads_no_wrapped_bin(self, rate):
        config = YaaptConfig(fmin_hz=20.0)
        spectral_rate = SPECTRAL[rate][0]
        for n_fft in (2048, 4096):
            bins = _shc_bins(_grid_frequencies(config), config, spectral_rate / n_fft)
            assert bins.min() >= 0

    def test_lowest_accepted_fmin_runs(self):
        rate = 16000
        signal = AudioSignal(sine(55.0, 0.4, rate) + sine(110.0, 0.4, rate), rate)
        track = yaapt_track(signal, YaaptConfig(fmin_hz=20.0))
        assert np.all(np.isfinite(track.frames)) and np.all(track.frames >= 0)
