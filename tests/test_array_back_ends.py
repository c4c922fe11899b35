"""Bit-for-bit agreement of the engines' array back ends with literal loops.

pYIN's sparse decode, its vectorized trellis builder, YAAPT's
batched SHC stage, its array-built DP and its array candidate merge are
each compared with ``tobytes()`` against a straightforward per-frame
(or per-candidate) formulation of the same rule.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitchbench import (
    NccfCandidate,
    PitchCandidate,
    PitchTrack,
    PyinConfig,
    SpectralTrack,
    YaaptConfig,
    min_cost_path,
    pyin_track,
    pyin_viterbi,
    spectral_pitch_track,
    yaapt_dp_select,
    yaapt_preprocess,
    yaapt_track,
)
from pitchbench.pyin import _bins_of, _transition_costs, _trellis
from pitchbench.signal import lag_frame_len
from pitchbench.yaapt import _grid_frequencies, _merge_close, _shc_grid
from conftest import all_frames_spectral, padded_tone, same_bits, sawtooth


# ---------------------------------------------------------------------------
# pYIN trellis
# ---------------------------------------------------------------------------

def first_bad_candidate(candidate_sets, weight_name):
    """Candidate by candidate, frame by frame: the error of the first pair
    whose f0 is not finite and > 0 or whose weight lies outside [0, 1]."""
    for t, cands in enumerate(candidate_sets):
        for i, (f0, weight) in enumerate(cands):
            if not (0.0 < f0 < math.inf and 0.0 <= weight <= 1.0):
                return ValueError(
                    f"frame {t}, candidate {i}: f0 {f0} Hz must be finite and > 0"
                    f" and {weight_name} {weight} within [0, 1]"
                )
    return None


def bin_center(config, index):
    """The frequency at the center of pitch bin ``index``."""
    return config.fmin_hz * 2.0 ** (index / (12.0 * config.bins_per_semitone))


def literal_observations(candidate_sets, config):
    """Every candidate checked, then frame by frame, candidate by
    candidate, over every state: the observation of each state and the
    frequency each bin emits (its center while it holds no candidate of
    probability above 0)."""
    error = first_bad_candidate(candidate_sets, "probability")
    if error:
        raise error
    n_frames = len(candidate_sets)
    n_bins = config.n_bins
    obs = np.zeros((n_frames, n_bins + 1))
    centers = np.array([bin_center(config, b) for b in range(n_bins)])
    freqs = np.tile(centers, (n_frames, 1))
    best_prob = np.zeros((n_frames, n_bins))
    for t, cands in enumerate(candidate_sets):
        total = 0.0
        for cand in cands:
            total += cand.probability
            b = int(_bins_of(np.array([cand.f0_hz]), config)[0])
            obs[t, 1 + b] += cand.probability
            if cand.probability > best_prob[t, b]:
                best_prob[t, b] = cand.probability
                freqs[t, b] = cand.f0_hz
        if total > 1.0 + 1e-9:
            raise ValueError(f"frame {t}: candidate probabilities sum to {total} > 1")
        obs[t, 0] = max(0.0, 1.0 - total)
    return obs, freqs


def dense_decode(obs, config):
    """Every state at every frame, as the trellis was first run."""
    with np.errstate(divide="ignore"):
        costs = -np.log(obs)
    return min_cost_path(costs, lambda _t: _transition_costs(config))


def dense_track(candidate_sets, config):
    """The f0 track of :func:`dense_decode` over the literal observations."""
    obs, freqs = literal_observations(candidate_sets, config)
    states = dense_decode(obs, config)
    voiced = np.flatnonzero(states > 0)
    f0 = np.zeros(len(candidate_sets))
    f0[voiced] = freqs[voiced, states[voiced] - 1]
    return f0


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # its type is compared too
        return type(exc), str(exc)


def assert_same_outcome(candidate_sets, config):
    """Whether the sets decode; the trellis equals the literal loop, or
    raises its first error."""
    got = outcome(_trellis, candidate_sets, config)
    want = outcome(literal_observations, candidate_sets, config)
    if isinstance(want[0], type):
        assert got == want
        return False
    frame, state, obs, f0 = got
    dense_obs, freqs = want
    live = dense_obs > 0.0
    live[:, 0] = True
    rows, states = np.nonzero(live)  # row-major: by frame, then ascending state
    assert same_bits(frame, rows) and same_bits(state, states)
    assert same_bits(obs, dense_obs[rows, states])
    voiced = state > 0
    assert same_bits(f0[voiced], freqs[frame[voiced], state[voiced] - 1])
    assert not f0[~voiced].any()
    return True


def random_candidate_sets(rng, config, n_frames):
    """Frames with no candidates, several in one bin, equal probabilities
    in one bin, candidates on a half-bin boundary or of probability 0,
    and no unvoiced mass left; no frame's total passes 1."""
    step = 12.0 * config.bins_per_semitone
    sets = []
    for _ in range(n_frames):
        k = int(rng.integers(0, 6))
        f0 = config.fmin_hz * 2.0 ** (rng.uniform(-2, config.n_bins + 2, k) / step)
        if k > 1 and rng.random() < 0.4:
            f0[1] = f0[0]  # same bin
        if k and rng.random() < 0.3:  # on a half-bin boundary
            f0[-1] = config.fmin_hz * 2.0 ** ((rng.integers(config.n_bins) + 0.5) / step)
        prob = rng.dirichlet(np.ones(k + 1))[:k] if k else np.zeros(0)
        if k and rng.random() < 0.3:
            prob = prob / prob.sum()  # no unvoiced mass left
        if k > 1 and rng.random() < 0.3:
            prob[:2] = prob[:2].min()  # equal probabilities in one bin, within the total
        if k and rng.random() < 0.1:
            prob[0] = 0.0
        sets.append([PitchCandidate(float(f), float(p)) for f, p in zip(f0, prob)])
    return sets


class TestSparseDecode:
    @pytest.mark.parametrize("config", [
        PyinConfig(),
        PyinConfig(bins_per_semitone=2, max_transition_semitones=1.0, switch_prob=0.3),
    ])
    def test_matches_dense_decode(self, config):
        rng = np.random.default_rng(20141)
        for _ in range(60):
            # every draw is valid; the first-error cases cover invalid sets
            sets = random_candidate_sets(rng, config, int(rng.integers(1, 40)))
            assert same_bits(pyin_viterbi(sets, config).frames, dense_track(sets, config))

    def test_ties_go_to_the_lowest_state_in_both_forms(self):
        cfg = PyinConfig()
        # bins 40, 41 and 42 and the unvoiced state observe 0.25 each: exact
        # four-way ties everywhere but frame 3, an even split of the
        # unvoiced state and bin 90
        quarter = [PitchCandidate(bin_center(cfg, b), 0.25) for b in (40, 41, 42)]
        sets = [list(quarter) for _ in range(6)]
        sets[3] = [PitchCandidate(bin_center(cfg, 90), 0.5)]
        obs, _freqs = literal_observations(sets, cfg)
        assert (obs[:, [0, 41, 42, 43]] == 0.25).all(axis=1).sum() == 5
        assert same_bits(pyin_viterbi(sets, cfg).frames, dense_track(sets, cfg))


class TestVectorizedObservations:
    @pytest.mark.parametrize(
        "config", [PyinConfig(), PyinConfig(fmin_hz=80.0, bins_per_semitone=3)]
    )
    def test_matches_literal_loop(self, config):
        rng = np.random.default_rng(7)
        decoded = 0
        for _ in range(80):
            sets = random_candidate_sets(rng, config, int(rng.integers(1, 30)))
            decoded += assert_same_outcome(sets, config)
        assert decoded == 80  # the first-error cases below cover invalid sets

    @pytest.mark.parametrize("bad", [
        PitchCandidate(150.0, -0.1),
        PitchCandidate(150.0, 1.5),
        PitchCandidate(150.0, math.nan),
        PitchCandidate(0.0, 0.1),
        PitchCandidate(-5.0, 0.1),
        PitchCandidate(math.nan, 0.1),
        PitchCandidate(math.inf, 0.1),
    ])
    @pytest.mark.parametrize("where", range(4))
    def test_first_error_matches_literal_loop(self, bad, where):
        cfg = PyinConfig()
        ok = PitchCandidate(200.0, 0.3)
        over = [PitchCandidate(200.0, 0.7), PitchCandidate(210.0, 0.7)]
        # frame 2 sums past 1; the bad candidate sits before, in, or after
        # it, and is named first: a total over invalid probabilities means
        # nothing
        sets = [[ok], [ok, ok], list(over), [ok], [ok]]
        if where == 0:
            sets[1].insert(1, bad)
        elif where == 1:
            sets[2].append(bad)
        elif where == 2:
            sets[3].append(bad)
        else:
            sets[2] = [ok]
            sets[4].insert(0, bad)
        want = outcome(literal_observations, sets, cfg)
        named = ["frame 1, candidate 1: ", "frame 2, candidate 2: ",
                 "frame 3, candidate 1: ", "frame 4, candidate 0: "][where]
        assert want[0] is ValueError and want[1].startswith(named)
        assert outcome(_trellis, sets, cfg) == want

    def test_frame_total_past_one_is_named(self):
        cfg = PyinConfig()
        sets = [[PitchCandidate(200.0, 0.3)], [PitchCandidate(200.0, 0.7)] * 2]
        want = outcome(literal_observations, sets, cfg)
        assert want == (ValueError, "frame 1: candidate probabilities sum to 1.4 > 1")
        assert outcome(_trellis, sets, cfg) == want

    def test_no_candidates_at_all(self):
        cfg = PyinConfig()
        assert_same_outcome([[], [], []], cfg)


# ---------------------------------------------------------------------------
# Both decoders' candidate rule
# ---------------------------------------------------------------------------

BAD_F0 = [math.nan, math.inf, -math.inf, 0.0, -150.0]
BAD_WEIGHT = [math.nan, math.inf, -math.inf, 1.5, -0.1]


@st.composite
def candidate_lists(draw):
    """Per-frame ``(f0, weight)`` lists, at most four a frame of weight
    at most 1/4 each so no frame total passes 1, with up to two pairs
    given a bad f0 or a bad weight."""
    pair = st.tuples(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.floats(0.0, 0.25)
    )
    frames = draw(st.lists(st.lists(pair, max_size=4), max_size=8))
    slots = [(t, i) for t, cands in enumerate(frames) for i in range(len(cands))]
    for t, i in draw(st.lists(st.sampled_from(slots), max_size=2)) if slots else []:
        f0, weight = frames[t][i]
        if draw(st.booleans()):
            f0 = draw(st.sampled_from(BAD_F0))
        else:
            weight = draw(st.sampled_from(BAD_WEIGHT))
        frames[t][i] = (f0, weight)
    return frames


class TestOneCandidateRule:
    @settings(max_examples=150, deadline=None)
    @given(candidate_lists())
    def test_both_decoders_name_the_first_bad_pair(self, frames):
        n = len(frames)
        pyin = outcome(
            pyin_viterbi, [[PitchCandidate(*c) for c in cands] for cands in frames], PyinConfig()
        )
        spectral = SpectralTrack(np.resize([0.0, 150.0], n), np.full(n, 0.5))
        yaapt = outcome(
            yaapt_dp_select,
            [[NccfCandidate(*c) for c in cands] for cands in frames],
            spectral,
            YaaptConfig(),
        )
        error = first_bad_candidate(frames, "weight")
        if error is None:
            for got in (pyin, yaapt):
                assert isinstance(got, PitchTrack) and len(got) == n
            return
        prefix = str(error).split(": ")[0] + ": "
        for got in (pyin, yaapt):
            assert got[0] is ValueError and got[1].startswith(prefix)


# ---------------------------------------------------------------------------
# YAAPT spectral stage
# ---------------------------------------------------------------------------

class TestBatchedShc:
    @pytest.mark.parametrize("config", [
        YaaptConfig(),
        YaaptConfig(shc_window_hz=90.0, shc_num_harmonics=2),  # 11 window bins: pairwise sums
        YaaptConfig(shc_num_harmonics=5, fmax_hz=250.0, nlfer_threshold=0.3),
    ])
    def test_rows_match_one_spectrum_calls(self, config):
        rng = np.random.default_rng(3)
        spectra = np.abs(rng.standard_normal((70, 1025)))
        grid = _grid_frequencies(config)
        batched = _shc_grid(spectra, grid, config, 16000 / 2048)
        for row, values in zip(spectra, batched):
            assert same_bits(values, _shc_grid(row, grid, config, 16000 / 2048))

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 48000])
    @pytest.mark.parametrize("config", [
        YaaptConfig(),
        YaaptConfig(shc_window_hz=90.0, nlfer_threshold=0.2, nonlinearity="abs"),
    ])
    def test_stage_matches_per_frame_loop(self, rate, config):
        rng = np.random.default_rng(rate)
        # 1.3 s: more gated frames than one SHC block holds
        tone = sawtooth(rng.uniform(90, 250), 1.3, rate)
        signal = padded_tone(tone + 0.05 * rng.standard_normal(tone.size), rate, 0.1, 0.1)
        track = spectral_pitch_track(yaapt_preprocess(signal, config), config)
        coarse, nlfer, _peak_frames = all_frames_spectral(signal, config)
        assert np.count_nonzero(coarse) > 100
        assert same_bits(track.coarse_f0_hz, coarse) and same_bits(track.nlfer, nlfer)


# ---------------------------------------------------------------------------
# YAAPT candidate merge
# ---------------------------------------------------------------------------

def literal_merge(branches, n_frames):
    """Pool both branches' lists per frame and merge them one by one."""
    per_branch = []
    for rows, f0, merit in branches:
        lists = [[] for _ in range(n_frames)]
        for r, f, m in zip(rows.tolist(), f0.tolist(), merit.tolist()):
            lists[r].append(NccfCandidate(f, m))
        per_branch.append(lists)
    merged = []
    for frame_lists in zip(*per_branch):
        pool = sorted(
            (c for cands in frame_lists for c in cands), key=lambda c: (c.f0_hz, -c.merit)
        )
        kept = []
        for cand in pool:
            if kept and cand.f0_hz / kept[-1].f0_hz < 1.02:
                if cand.merit > kept[-1].merit:
                    kept[-1] = NccfCandidate(kept[-1].f0_hz, cand.merit)
            else:
                kept.append(cand)
        merged.append(kept)
    return merged


def random_branch(rng, n_frames, n_per_frame):
    rows, f0, merit = [], [], []
    palette = np.array([100.0, 101.0, 101.9, 102.0, 103.5, 150.0, 153.0, 200.0])
    for t in range(n_frames):
        k = int(rng.integers(0, n_per_frame + 1))
        f = np.where(rng.random(k) < 0.5, rng.choice(palette, k), rng.uniform(60, 400, k))
        m = np.where(rng.random(k) < 0.3, 0.5, rng.uniform(0.01, 1.0, k))  # merit ties
        order = np.lexsort((-m,))  # each branch lists a frame by merit, descending
        rows += [t] * k
        f0 += f[order].tolist()
        merit += m[order].tolist()
    return np.array(rows, dtype=np.int64), np.array(f0), np.array(merit)


def flatten(candidate_sets):
    return (
        np.array([len(c) for c in candidate_sets]),
        np.array([tuple(c) for cs in candidate_sets for c in cs], dtype=np.float64).reshape(-1, 2),
    )


class TestArrayMerge:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6))
    def test_matches_literal_merge(self, seed, n_frames, n_per_frame):
        rng = np.random.default_rng(seed)
        branches = [random_branch(rng, n_frames, n_per_frame) for _ in range(2)]
        rows, f0, merit = (np.concatenate(c) for c in zip(*branches))
        got = flatten(_merge_close(rows, f0, merit, n_frames))
        want = flatten(literal_merge(branches, n_frames))
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_chain_within_two_percent_of_the_first(self):
        # 101.5 joins 100; 102 is 2% above 100, so it starts a new group
        # that 103 joins; equal (f0, merit) pairs keep branch order
        branches = [
            (np.array([0, 0, 0]), np.array([100.0, 102.0, 150.0]), np.array([0.3, 0.2, 0.4])),
            (np.array([0, 0, 0]), np.array([101.5, 103.0, 150.0]), np.array([0.9, 0.8, 0.4])),
        ]
        rows, f0, merit = (np.concatenate(c) for c in zip(*branches))
        got = _merge_close(rows, f0, merit, 2)
        assert got == literal_merge(branches, 2)
        assert got == [[(100.0, 0.9), (102.0, 0.8), (150.0, 0.4)], []]

    def test_no_candidates(self):
        empty = np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
        assert _merge_close(*empty, 3) == [[], [], []]


# ---------------------------------------------------------------------------
# YAAPT dynamic programming
# ---------------------------------------------------------------------------

def literal_dp(candidates, spectral, config):
    """Per-frame lists and one transition matrix built per step."""
    w_jump, w_switch = config.dp_freq_jump_weight, config.dp_voicing_switch_cost
    freqs, costs = [], []
    for t, cands in enumerate(candidates):
        cands = sorted(cands, key=lambda c: c.f0_hz)
        coarse = spectral.coarse_f0_hz[t]
        local = [max(0.0, spectral.nlfer[t] - config.nlfer_threshold)]
        for cand in cands:
            cost = 1.0 - cand.merit
            if coarse > 0:
                cost += w_jump * abs(math.log2(cand.f0_hz / coarse))
            local.append(cost)
        freqs.append(np.array([0.0] + [c.f0_hz for c in cands]))
        costs.append(np.array(local))

    def transition(t):
        prev, cur = freqs[t - 1][:, None], freqs[t][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            jump = w_jump * np.abs(np.log2(cur / prev))
        unvoiced = (prev == 0) & (cur == 0)
        return np.where((prev > 0) & (cur > 0), jump, np.where(unvoiced, 0.0, w_switch))

    states = min_cost_path(costs, transition)
    return np.array([f[s] for f, s in zip(freqs, states)])


class TestArrayDp:
    @pytest.mark.parametrize("config", [YaaptConfig(), YaaptConfig(dp_freq_jump_weight=0.0)])
    def test_matches_literal_dp(self, config):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            candidates = []
            for _t in range(n):
                k = int(rng.integers(0, 8))
                f0 = np.clip(rng.uniform(40, 420, k), config.fmin_hz, config.fmax_hz)
                merit = np.where(rng.random(k) < 0.2, 0.5, rng.uniform(0, 1, k))
                candidates.append([NccfCandidate(float(f), float(m)) for f, m in zip(f0, merit)])
            coarse = np.where(rng.random(n) < 0.5, rng.uniform(60, 400, n), 0.0)
            spectral = SpectralTrack(coarse, rng.uniform(0, 2, n))
            track = yaapt_dp_select(candidates, spectral, config)
            assert same_bits(track.frames, literal_dp(candidates, spectral, config))

    @pytest.mark.parametrize("config", [YaaptConfig(), YaaptConfig(dp_freq_jump_weight=0.0)])
    @pytest.mark.parametrize("full", [0, 2, 4])
    def test_one_full_frame_among_empty_ones(self, config, full):
        # both branches' candidates with none merged, the widest frame the DP
        # gets: every other frame is its unvoiced state, then padding
        width = 2 * config.n_candidates_per_frame
        rng = np.random.default_rng(full)
        for nlfer in (0.0, 1.0, 4.0):
            candidates = [[] for _ in range(5)]
            f0 = rng.uniform(config.fmin_hz, config.fmax_hz, width)
            merit = np.where(rng.random(width) < 0.3, 0.5, rng.uniform(0, 1, width))
            candidates[full] = [NccfCandidate(float(f), float(m)) for f, m in zip(f0, merit)]
            coarse = np.where(rng.random(5) < 0.5, rng.uniform(60, 400, 5), 0.0)
            spectral = SpectralTrack(coarse, np.full(5, nlfer))
            track = yaapt_dp_select(candidates, spectral, config)
            assert same_bits(track.frames, literal_dp(candidates, spectral, config))
            # at 4.0, staying unvoiced costs more than any candidate and two switches
            assert (track.frames > 0).tolist() == [nlfer == 4.0 and t == full for t in range(5)]


# ---------------------------------------------------------------------------
# One lag-frame rule for both engines
# ---------------------------------------------------------------------------

RATES = [8000, 11025, 16000, 22050, 44100, 48000]


class TestLagFrameLength:
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("config", [PyinConfig(), YaaptConfig()])
    def test_defaults_keep_their_nominal_frame(self, rate, config):
        nominal = int(round(config.frame_len_ms * rate / 1000.0))
        assert lag_frame_len(config.frame_len_ms, rate, config.fmin_hz) == nominal

    @pytest.mark.parametrize("rate", RATES)
    def test_frame_holds_the_longest_lag(self, rate):
        for fmin in (20.0, 40.0, 45.5, 60.0, 97.3):
            for frame_ms in (1.0, 5.0, 35.0):
                max_lag = math.floor(rate / fmin)
                assert max_lag < lag_frame_len(frame_ms, rate, fmin) / 2

    def test_longest_frame_an_array_can_hold(self):
        # at 1 kHz frame_len_ms counts samples; an array's byte count is an intp
        longest = np.iinfo(np.intp).max // 8
        assert lag_frame_len(float(longest - 255), 1000.0, 100.0) == longest - 255
        for frame_ms, fmin in ((float(longest + 1), 100.0), (40.0, 1e-300)):
            with pytest.raises(ValueError, match="more than a float64 array can hold"):
                lag_frame_len(frame_ms, 1000.0, fmin)

    @pytest.mark.parametrize("rate", [8000, 16000, 48000])
    def test_low_fmin_reaches_45_hz(self, rate):
        signal = padded_tone(sawtooth(45.0, 0.6, rate), rate, 0.1, 0.1)
        for track in (pyin_track(signal, PyinConfig(fmin_hz=40.0)),
                      yaapt_track(signal, YaaptConfig(fmin_hz=40.0))):
            voiced = track.frames[track.voiced]
            assert voiced.size >= 40
            np.testing.assert_allclose(voiced, 45.0, rtol=0.03)

    @pytest.mark.parametrize("rate", [8000, 16000, 48000])
    def test_short_frames_still_track(self, rate):
        signal = padded_tone(sawtooth(150.0, 0.6, rate), rate, 0.1, 0.1)
        for track in (pyin_track(signal, PyinConfig(frame_len_ms=5.0)),
                      yaapt_track(signal, YaaptConfig(frame_len_ms=5.0))):
            assert len(track) == len(signal) * 100 // rate + 1
            voiced = track.frames[track.voiced]
            assert voiced.size >= 40
            np.testing.assert_allclose(voiced, 150.0, rtol=0.03)

    def test_band_narrower_than_a_lag_step_is_reported(self):
        # at 8 kHz, 385-400 Hz holds the single lag 20
        signal = padded_tone(sawtooth(390.0, 0.2, 8000), 8000, 0.1, 0.1)
        with pytest.raises(ValueError, match="spans less than two lags"):
            yaapt_track(signal, YaaptConfig(fmin_hz=385.0, fmax_hz=400.0))

    @pytest.mark.parametrize("rate,fmin", [
        (8000, 380.0),   # lags 20..21
        (16000, 385.0),  # lags 40..41
        (16000, 390.0),
        (48000, 390.0),  # lags 40..41 at the 16 kHz working rate (120..123 at 48 kHz)
    ])
    def test_yaapt_band_without_an_interior_lag_is_reported(self, rate, fmin):
        # an NCCF peak needs a lag strictly inside the band, at the rate the
        # NCCF runs; without one every frame would decode unvoiced
        cfg = YaaptConfig(fmin_hz=fmin, fmax_hz=400.0)
        message = f"spans less than two lags at {min(rate, 16000)}.0 Hz, the NCCF's working rate"
        with pytest.raises(ValueError, match=message):
            cfg.validate_rate(rate)
        with pytest.raises(ValueError, match=message):
            yaapt_track(padded_tone(sawtooth(395.0, 0.2, rate), rate, 0.1, 0.1), cfg)

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_yaapt_band_with_one_interior_lag_tracks(self, rate):
        # 380-400 Hz: lags 40..42 at 16 kHz, 41 inside
        signal = padded_tone(sawtooth(390.0, 0.6, rate), rate, 0.1, 0.1)
        track = yaapt_track(signal, YaaptConfig(fmin_hz=380.0, fmax_hz=400.0))
        voiced = track.frames[track.voiced]
        assert voiced.size >= 40
        np.testing.assert_allclose(voiced, 390.0, rtol=0.03)

    def test_pyin_band_of_two_lags_still_tracks(self):
        # pYIN's minima compare against the lags either side of the band,
        # so its check stays at one lag: at 8 kHz 380-400 Hz is lags 20..21
        signal = padded_tone(sawtooth(395.0, 0.6, 8000), 8000, 0.1, 0.1)
        track = pyin_track(signal, PyinConfig(fmin_hz=380.0, fmax_hz=400.0))
        voiced = track.frames[track.voiced]
        assert voiced.size >= 40
        np.testing.assert_allclose(voiced, 395.0, rtol=0.03)

    @pytest.mark.xfail(strict=True, reason=(
        "pYIN takes minima at lag_min .. lag_max - 1 only, so a period at lag_max is never"
        " found; reaching lag_max widens the YIN lag curve, changing its window and so every"
        " track, which needs ROADMAP item 2's accuracy baseline"))
    def test_pyin_finds_a_period_at_the_longest_lag(self):
        # at 16 kHz, 385-400 Hz is lags 40..41: minima are taken at lag 40 only
        for f0 in (390.0, 395.0):
            signal = padded_tone(sawtooth(f0, 0.6, 16000), 16000, 0.1, 0.1)
            track = pyin_track(signal, PyinConfig(fmin_hz=385.0, fmax_hz=400.0))
            voiced = track.frames[track.voiced]
            assert voiced.size >= 40
            np.testing.assert_allclose(voiced, f0, rtol=0.03)

    def test_pyin_band_narrower_than_a_lag_step_is_reported(self):
        # the same single lag: pYIN has no interior lag to find a minimum at
        cfg = PyinConfig(fmin_hz=385.0, fmax_hz=400.0)
        signal = padded_tone(sawtooth(390.0, 0.2, 8000), 8000, 0.1, 0.1)
        with pytest.raises(ValueError, match="spans less than two lags at 8000.0 Hz"):
            pyin_track(signal, cfg)
        with pytest.raises(ValueError, match="spans less than two lags at 8000 Hz"):
            cfg.validate_rate(8000)
