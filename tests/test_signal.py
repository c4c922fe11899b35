import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitchbench import (
    AudioSignal,
    LagCurve,
    bandpass_filter,
    cmnd,
    frame_centers,
    frame_signal,
    min_cost_path,
    nccf,
    pyin_track,
    yaapt_track,
    yin_difference,
)
from pitchbench.signal import parabolic_vertex
from conftest import padded_tone, sawtooth, sine

RATES = (8000, 11025, 16000, 22050, 44100, 48000)


def brute_force_yin(frame, max_lag):
    """Literal double loop over the fixed difference window."""
    width = len(frame) - max_lag
    d = np.zeros(max_lag + 1)
    for tau in range(max_lag + 1):
        acc = 0.0
        for j in range(width):
            acc += (frame[j] - frame[j + tau]) ** 2
        d[tau] = acc
    return d


def brute_force_nccf(frame, min_lag, max_lag):
    width = len(frame) - max_lag
    head = frame[:width]
    e_head = float(np.dot(head, head))
    out = np.zeros(max_lag - min_lag + 1)
    for tau in range(min_lag, max_lag + 1):
        seg = frame[tau : tau + width]
        e_seg = float(np.dot(seg, seg))
        if e_head * e_seg > 0:
            out[tau - min_lag] = np.dot(head, seg) / np.sqrt(e_head * e_seg)
    return out


class TestAudioSignal:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioSignal(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros(10), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros((10, 2)), 16000)


class TestFrameSignal:
    def test_two_frames_at_10ms_hop(self):
        sig = AudioSignal(np.ones(480), 48000)
        centers = frame_centers(len(sig), 10.0, 48000)
        frames = frame_signal(sig.samples, 480, centers)
        assert centers.size == 2
        assert frames.shape == (2, 480)
        assert centers[0] / 48000 == 0.0
        assert centers[1] / 48000 == pytest.approx(0.01)

    def test_zero_signal_frame_count(self):
        sig = AudioSignal(np.zeros(16000), 16000)
        frames = frame_signal(sig.samples, 1024, frame_centers(len(sig), 10.0, 16000))
        assert frames.shape[0] == 101
        assert not frames.any()

    def test_ramp_frame_centering(self):
        # frame 10 at hop 160 is centered on sample 1600
        sig = AudioSignal(np.arange(10000, dtype=float), 16000)
        frames = frame_signal(sig.samples, 512, frame_centers(len(sig), 10.0, 16000))
        center = 10 * 160
        assert frames[10][256] == sig.samples[center]
        expected = np.arange(center - 256, center + 256, dtype=float)
        np.testing.assert_array_equal(frames[10], expected)

    def test_edge_zero_padding(self):
        sig = AudioSignal(np.ones(100), 8000)
        frames = frame_signal(sig.samples, 64, frame_centers(len(sig), 6.25, 8000))
        assert np.all(frames[0][:32] == 0)
        assert np.all(frames[0][32:] == 1)

    def test_empty_signal(self):
        centers = frame_centers(0, 4.0, 8000)
        frames = frame_signal(np.zeros(0), 64, centers)
        assert centers.size == 0
        assert frames.shape == (0, 64)

    def test_invalid_lengths(self):
        x = np.zeros(100)
        with pytest.raises(ValueError):
            frame_signal(x, 0, [0, 10])
        with pytest.raises(ValueError):
            frame_signal(x, 10, [-1])
        with pytest.raises(ValueError):
            frame_centers(100, 0.0, 8000)


class TestFrameCenters:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(RATES),
        st.sampled_from([5.0, 10.0, 20.0]),
        st.integers(0, 4000),
        st.integers(1, 700),
    )
    def test_frames_sit_on_exact_hop_multiples(self, rate, hop_ms, n, frame_len):
        hop = Fraction(hop_ms) * rate / 1000
        centers = frame_centers(n, hop_ms, rate)
        assert centers.size == (int(n // hop) + 1 if n else 0)
        assert centers.tolist() == [round(k * hop) for k in range(centers.size)]

        x = np.arange(1.0, n + 1.0)  # no sample is zero
        frames = frame_signal(x, frame_len, centers)
        assert frames.shape == (centers.size, frame_len)
        half = frame_len // 2
        for k, c in enumerate(centers):
            if c < n:
                assert frames[k, half] == x[c]
            index = np.arange(c - half, c - half + frame_len)
            inside = (index >= 0) & (index < n)
            np.testing.assert_array_equal(frames[k, inside], x[index[inside]])
            assert not frames[k, ~inside].any()

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("engine", [pyin_track, yaapt_track])
    def test_engine_tracks_keep_exact_10ms_hop(self, engine, rate):
        # 0.5013 s: not a whole number of hops at any of the rates
        signal = padded_tone(sawtooth(150.0, 0.3, rate), rate, lead_s=0.1, trail_s=0.1013)
        track = engine(signal)
        assert track.hop_seconds == 0.010
        assert len(track) == len(signal) * 100 // rate + 1
        assert track.voiced[15:35].all()


def path_cost(costs, transitions, path):
    """A path's cost, summed in the decoder's order of additions."""
    total = costs[0][path[0]]
    for t in range(1, len(path)):
        total = total + transitions[t][path[t - 1], path[t]] + costs[t][path[t]]
    return total


def exhaustive_min_cost_path(costs, transitions):
    """Cheapest cost over all paths and, among the cheapest, the one whose
    states are lowest when compared from the last frame backwards: the
    decoder's end-state and back-pointer ties when the minimum is finite."""
    paths = itertools.product(*(range(len(c)) for c in costs))
    total, reversed_path = min((path_cost(costs, transitions, p), p[::-1]) for p in paths)
    return total, reversed_path[::-1]


class TestMinCostPath:
    def _trellis(self, rng, values):
        n_frames = int(rng.integers(1, 6))
        sizes = rng.integers(1, 5, n_frames)
        costs = [rng.choice(values, size) for size in sizes]
        transitions = [None] + [
            rng.choice(values, (p, q)) for p, q in zip(sizes, sizes[1:])
        ]
        return costs, transitions

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0.0, 1.0, 2.0]),  # small integers: many exact ties
            np.array([0.0, 1.0, np.inf]),
            np.array([0.0, 1.0, 3.0, -np.inf]),
            np.linspace(0.0, 5.0, 1000) ** 1.5,
        ],
        ids=["ties", "plus_inf", "minus_inf", "continuous"],
    )
    def test_matches_exhaustive_enumeration(self, values):
        rng = np.random.default_rng(len(values))
        infinite = 0
        for _ in range(400):
            costs, transitions = self._trellis(rng, values)
            path = tuple(min_cost_path(costs, lambda t: transitions[t]).tolist())
            best, lowest = exhaustive_min_cost_path(costs, transitions)
            assert path_cost(costs, transitions, path) == best
            if np.isfinite(best):
                assert path == lowest  # ties to the lowest state
            else:
                infinite += 1
        if np.isinf(values).any():
            assert infinite > 0  # the infinite case was exercised

    def test_empty_trellis(self):
        assert min_cost_path([], lambda t: None).size == 0

    def test_all_infinite_goes_to_lowest_states(self):
        costs = [np.full(3, np.inf), np.full(2, np.inf)]
        path = min_cost_path(costs, lambda t: np.zeros((3, 2)))
        assert path.tolist() == [0, 0]


class TestYinDifference:
    def test_constant_frame_is_zero(self):
        curve = yin_difference(np.full(400, 0.5), 100)
        np.testing.assert_allclose(curve.values, 0.0, atol=1e-9)

    def test_exact_periodicity(self, rng):
        pattern = rng.standard_normal(100)
        frame = np.tile(pattern, 8)
        curve = yin_difference(frame, 300)
        assert curve.values[100] == pytest.approx(0.0, abs=1e-12)
        assert curve.values[200] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        frame = rng.standard_normal(1024)
        curve = yin_difference(frame, 400)
        expected = brute_force_yin(frame, 400)
        np.testing.assert_allclose(curve.values, expected, rtol=1e-9, atol=1e-12)

    def test_max_lag_too_large(self):
        with pytest.raises(ValueError):
            yin_difference(np.zeros(100), 50)

    def test_nonnegative_on_random_frames(self, rng):
        for _ in range(1000):
            frame = rng.standard_normal(256) + rng.uniform(-1, 1)
            curve = yin_difference(frame, 100)
            assert np.all(curve.values >= 0)
            assert curve.values[0] == 0.0

    def test_values_own_their_memory(self, rng):
        # not a view into the spectrum the curve was computed in
        assert yin_difference(rng.standard_normal(640), 266).values.base is None


class TestCmnd:
    def test_all_zero_difference_gives_ones(self):
        curve = cmnd(LagCurve(np.zeros(50), 0, 49))
        np.testing.assert_array_equal(curve.values, np.ones(50))

    def test_hand_computed_flat_case(self):
        curve = cmnd(LagCurve(np.array([0.0, 2.0, 2.0, 2.0]), 0, 3))
        np.testing.assert_allclose(curve.values, [1.0, 1.0, 1.0, 1.0])

    def test_matches_running_sum_recomputation(self, rng):
        d = np.abs(rng.standard_normal(300))
        d[0] = 0.0
        curve = cmnd(LagCurve(d, 0, 299))
        running = 0.0
        expected = np.ones(300)
        for tau in range(1, 300):
            running += d[tau]
            expected[tau] = d[tau] * tau / running if running > 0 else 1.0
        np.testing.assert_allclose(curve.values, expected, rtol=1e-12)

    def test_lag_zero_always_one(self, rng):
        for _ in range(20):
            d = np.abs(rng.standard_normal(64))
            d[0] = 0.0
            assert cmnd(LagCurve(d, 0, 63)).values[0] == 1.0


class TestNccf:
    def test_sine_peak_location_and_value(self):
        frame = sine(100.0, 0.1, 16000, amp=0.8)  # period exactly 160 samples
        assert frame.size == 1600
        curve = nccf(frame, 80, 240)
        peak_lag = int(np.argmax(curve.values)) + 80
        assert abs(peak_lag - 160) <= 1
        assert curve.values.max() >= 0.99

    def test_zero_frame_gives_zeros(self):
        curve = nccf(np.zeros(500), 10, 200)
        np.testing.assert_array_equal(curve.values, 0.0)

    def test_matches_brute_force(self, rng):
        frame = rng.standard_normal(800)
        curve = nccf(frame, 5, 300)
        expected = brute_force_nccf(frame, 5, 300)
        np.testing.assert_allclose(curve.values, expected, rtol=1e-9, atol=1e-12)

    def test_lag_bounds_validated(self):
        with pytest.raises(ValueError):
            nccf(np.zeros(100), 0, 40)
        with pytest.raises(ValueError):
            nccf(np.zeros(100), 1, 60)
        with pytest.raises(ValueError):
            nccf(np.zeros(100), 30, 20)

    def test_values_within_unit_interval(self, rng):
        for _ in range(50):
            frame = rng.standard_normal(300)
            curve = nccf(frame, 1, 100)
            assert np.all(curve.values <= 1.0)
            assert np.all(curve.values >= -1.0)

    def test_values_own_their_memory(self, rng):
        # not a view into the spectrum the curve was computed in
        assert nccf(rng.standard_normal(640), 40, 266).values.base is None

    def test_sine_extrema_near_true_period(self):
        # lag window bracketing a single period multiple
        for f0, rate in [(110.0, 16000), (220.0, 48000), (330.0, 44100)]:
            period = rate / f0
            frame = sine(f0, 0.08, rate)
            lo, hi = int(0.6 * period), int(1.5 * period)
            corr = nccf(frame, lo, hi)
            best = int(np.argmax(corr.values)) + lo
            assert abs(best - period) <= 1.0
            diff = cmnd(yin_difference(frame, hi))
            dip = int(np.argmin(diff.values[lo:])) + lo
            assert abs(dip - period) <= 1.0


class TestBandpassFilter:
    def test_passband_tone_preserved(self):
        sig = AudioSignal(sine(500.0, 1.0, 16000), 16000)
        out = bandpass_filter(sig, 50.0, 1500.0)
        rms_in = np.sqrt(np.mean(sig.samples**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert abs(20 * np.log10(rms_out / rms_in)) < 3.0

    def test_stopband_tone_attenuated(self):
        sig = AudioSignal(sine(20.0, 2.0, 16000), 16000)
        out = bandpass_filter(sig, 50.0, 1500.0)
        interior = slice(4000, -4000)
        rms_in = np.sqrt(np.mean(sig.samples[interior] ** 2))
        rms_out = np.sqrt(np.mean(out.samples[interior] ** 2))
        assert 20 * np.log10(rms_in / rms_out) >= 20.0

    def test_zero_in_zero_out(self):
        out = bandpass_filter(AudioSignal(np.zeros(5000), 16000), 50.0, 1500.0)
        np.testing.assert_array_equal(out.samples, 0.0)
        assert len(out) == 5000

    def test_linearity(self, rng):
        rate = 16000
        x = AudioSignal(rng.standard_normal(4000), rate)
        y = AudioSignal(rng.standard_normal(4000), rate)
        mix = AudioSignal(2.0 * x.samples + 0.5 * y.samples, rate)
        fx = bandpass_filter(x, 50.0, 1500.0).samples
        fy = bandpass_filter(y, 50.0, 1500.0).samples
        fmix = bandpass_filter(mix, 50.0, 1500.0).samples
        np.testing.assert_allclose(fmix, 2.0 * fx + 0.5 * fy, atol=1e-9)

    def test_band_outside_nyquist(self):
        sig = AudioSignal(np.zeros(100), 1000)
        with pytest.raises(ValueError):
            bandpass_filter(sig, 50.0, 600.0)
        with pytest.raises(ValueError):
            bandpass_filter(sig, 0.0, 400.0)
        with pytest.raises(ValueError):
            bandpass_filter(sig, 300.0, 200.0)

    def test_delay_compensation_keeps_alignment(self):
        # a passband burst must not shift in time
        rate = 16000
        x = np.zeros(8000)
        x[3000:5000] = sine(400.0, 0.125, rate)
        out = bandpass_filter(AudioSignal(x, rate), 50.0, 1500.0)
        envelope_in = np.abs(x)
        envelope_out = np.abs(out.samples)
        assert abs(int(np.argmax(envelope_out > 0.1)) - int(np.argmax(envelope_in > 0.1))) < 50


class TestParabolicRefine:
    """The vertex of the parabola through a curve's values at ``lag - 1,
    lag, lag + 1``, as both engines refine their candidate lags."""

    def test_symmetric_minimum(self):
        assert parabolic_vertex(1.0, 0.0, 1.0, 100) == 100.0

    def test_asymmetric_minimum(self):
        assert parabolic_vertex(4.0, 1.0, 2.0, 50) == pytest.approx(50.25)

    def test_collinear_returns_center(self):
        assert parabolic_vertex(3.0, 2.0, 1.0, 51) == 51.0

    def test_result_clamped(self):
        # nearly flat parabola would put the vertex far away
        assert 19.0 <= parabolic_vertex(1.0, 1.0 - 1e-12, 1.0 + 1e-9, 20) <= 21.0
        # a rising run puts the vertex 1.5 lags below the centre
        assert parabolic_vertex(0.0, 1.0, 3.0, 20) == 19.0

    def test_maximum_also_refined(self):
        assert parabolic_vertex(2.0, 4.0, 2.0, 8) == 8.0
