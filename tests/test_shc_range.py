"""YAAPT configurations whose spectral terms would leave the spectrum.

The spectral stage runs near 16 kHz whatever the input rate, and every SHC
term reads bins from ``(f - W/2)`` to ``(NH + 1) f + W/2``. A configuration
that puts either end outside ``[0, Nyquist]`` of that stage, or whose
search band holds no bin of the NLFER's spectrum, is rejected when it is
made or checked against a rate, rather than failing inside the engine or
reading a wrapped bin. So is a bandpass whose upper edge is not below the
Nyquist of that rate, where the bandpass runs.
"""
import re

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


class TestBandEdgeAgainstWorkingNyquist:
    @pytest.mark.parametrize("rate", [48000, 44100, 22050])
    def test_edge_at_the_working_nyquist_is_rejected(self, rate):
        nyquist = SPECTRAL[rate][0] / 2  # 8000, 7350 and, at a factor of 1, 11025 Hz
        YaaptConfig(bp_high_hz=np.nextafter(nyquist, 0)).validate_rate(rate)
        message = f"band edge {nyquist} Hz must be below Nyquist {nyquist} Hz"
        with pytest.raises(ValueError, match=re.escape(message)):
            YaaptConfig(bp_high_hz=nyquist).validate_rate(rate)

    def test_edge_below_the_working_nyquist_runs_at_48_khz(self):
        rate = 48000
        signal = AudioSignal(sine(200.0, 0.5, rate), rate)
        track = yaapt_track(signal, YaaptConfig(bp_high_hz=7999.0))
        voiced = track.frames[track.voiced]
        assert voiced.size > 0
        assert np.mean(np.abs(voiced / 200.0 - 1) < 0.01) >= 0.9
        with pytest.raises(ValueError, match=r"band edge 8000\.0 Hz"):
            yaapt_track(signal, YaaptConfig(bp_high_hz=8000.0))


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


class TestSearchBandAgainstNlferBins:
    # the NLFER's bins lie 16000 / 1024 = 15.625 Hz apart at the 16 kHz
    # working rate: bins 6 and 7 sit at 93.75 and 109.375 Hz, so 101-109 Hz
    # holds none
    NARROW = YaaptConfig(fmin_hz=101.0, fmax_hz=109.0)
    MESSAGE = r"101\.0-109\.0 Hz holds no spectral bin at a resolution of 15\.625 Hz"

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_band_without_a_bin_is_rejected(self, rate):
        with pytest.raises(ValueError, match=self.MESSAGE):
            self.NARROW.validate_rate(rate)
        with pytest.raises(ValueError, match=self.MESSAGE):
            yaapt_track(AudioSignal(sine(105.0, 0.3, rate), rate), self.NARROW)

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_detect_names_the_file_and_the_band(self, tmp_path, capsys, rate):
        wav, out = tmp_path / "tone.wav", tmp_path / "t.csv"
        write_wav(wav, rate, sine(105.0, 0.3, rate))
        code = main(["detect", "--algo", "yaapt", "--in", str(wav), "--out", str(out),
                     "--fmin", "101", "--fmax", "109"])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.count("\n") == 1 and err.startswith(f"error: {wav}: ")
        assert "101.0-109.0 Hz" in err

    def test_band_with_one_bin_tracks_at_8_khz(self):
        # 7.8125 Hz apart at 8 kHz: bin 13, at 101.56 Hz, lies in the band
        track = yaapt_track(AudioSignal(sine(105.0, 1.0, 8000), 8000), self.NARROW)
        voiced = track.frames[track.voiced]
        assert len(track) == 101 and voiced.size == 97
        np.testing.assert_allclose(voiced, 105.0, rtol=0.03)
