import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pitchbench import (
    CorpusStats,
    FomScore,
    FrameOutcome,
    PitchTrack,
    UtteranceStats,
    aggregate,
    classify_frame,
    evaluate_pair,
    fom_rank,
    pitch_histogram,
    stats_json_dict,
)

# Published comparison rows used as fixtures: (label, total, unvoiced,
# u2v%, voiced, v2u%, gross, fine, mean fine, stdev fine, expected FOM)
TABLE_ROWS = [
    ("CREPE", 14477, 10411, 7.0, 2783, 19.0, 3, 2780, 0.96, 7.44, 7),
    ("YAAPT", 14477, 10552, 6.0, 3177, 4.0, 0, 3177, 0.29, 12.42, 5),
    ("pYIN", 14457, 9882, 13.0, 2890, 14.0, 0, 2890, 0.44, 6.18, 6),
]


def corpus_from_row(row) -> CorpusStats:
    _, total, unvoiced, u2v_pct, voiced, v2u_pct, gross, fine, mean, stdev, _ = row
    return CorpusStats(
        total_frames=total, ref_unvoiced_frames=unvoiced, ref_voiced_frames=voiced,
        both_voiced_frames=gross + fine, u2v_errors=round(unvoiced * u2v_pct / 100),
        v2u_errors=round(voiced * v2u_pct / 100), gross_errors=gross, fine_frames=fine,
        u2v_pct=u2v_pct, v2u_pct=v2u_pct, mean_fine_samples=mean, stdev_fine_samples=stdev,
    )


def classify_oracle(f_est, f_ref):
    """Independent single-frame re-classification."""
    if f_ref == 0 and f_est == 0:
        return "cu", 0.0
    if f_ref == 0:
        return "u2v", 0.0
    if f_est == 0:
        return "v2u", 0.0
    dp = abs(1.0 / f_est - 1.0 / f_ref)
    if dp > 1e-3:
        return "gross", 0.0
    return "fine", dp * 16000.0


ORACLE_KINDS = {
    "cu": FrameOutcome.CORRECT_UNVOICED, "u2v": FrameOutcome.UNVOICED_TO_VOICED,
    "v2u": FrameOutcome.VOICED_TO_UNVOICED, "gross": FrameOutcome.GROSS_ERROR,
    "fine": FrameOutcome.CORRECT_VOICED_FINE,
}


def count_oracle(est_frames, ref_frames):
    """Plain-loop recount of everything evaluate_pair reports."""
    counts = {"cu": 0, "u2v": 0, "v2u": 0, "gross": 0, "fine": 0}
    errors = []
    for fe, fr in zip(est_frames, ref_frames):
        kind, err = classify_oracle(fe, fr)
        counts[kind] += 1
        if kind == "fine":
            errors.append(err)
    return counts, errors


class TestClassifyFrame:
    def test_both_unvoiced(self):
        assert classify_frame(0.0, 0.0) == (FrameOutcome.CORRECT_UNVOICED, 0.0)

    def test_voicing_mismatches(self):
        assert classify_frame(120.0, 0.0)[0] is FrameOutcome.UNVOICED_TO_VOICED
        assert classify_frame(0.0, 120.0)[0] is FrameOutcome.VOICED_TO_UNVOICED

    def test_halving_and_doubling_are_gross(self):
        # periods 20 ms vs 10 ms differ by 10 ms
        assert classify_frame(50.0, 100.0)[0] is FrameOutcome.GROSS_ERROR
        assert classify_frame(100.0, 50.0)[0] is FrameOutcome.GROSS_ERROR

    def test_fine_error_magnitude(self):
        outcome, err = classify_frame(200.0, 210.0)
        assert outcome is FrameOutcome.CORRECT_VOICED_FINE
        assert err == pytest.approx(3.81, abs=0.01)

    def test_exact_boundary_is_fine(self):
        # periods 2 ms and 1 ms: the float difference is exactly 1 ms
        assert abs(1.0 / 500.0 - 1.0 / 1000.0) == 1.0 / 1000.0
        outcome, err = classify_frame(500.0, 1000.0)
        assert outcome is FrameOutcome.CORRECT_VOICED_FINE
        assert err == pytest.approx(16.0)

    def test_symmetric_in_gross_fine_decision(self, rng):
        for _ in range(200):
            fe, fr = rng.uniform(50, 500, 2)
            assert classify_frame(fe, fr)[0] == classify_frame(fr, fe)[0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_frame(-1.0, 100.0)
        with pytest.raises(ValueError):
            classify_frame(100.0, float("nan"))


class TestEvaluatePair:
    def test_identical_tracks(self):
        f0 = np.array([0.0, 100.0, 150.0, 0.0, 200.0])
        stats = evaluate_pair(PitchTrack(0.01, f0), PitchTrack(0.01, f0))
        assert stats.total_frames == 5
        assert stats.u2v_errors == stats.v2u_errors == stats.gross_errors == 0
        assert stats.fine_frames == 3
        np.testing.assert_array_equal(stats.fine_errors_samples, 0.0)

    def test_all_unvoiced_estimate(self):
        ref = PitchTrack(0.01, np.concatenate([np.full(10, 120.0), np.zeros(5)]))
        est = PitchTrack(0.01, np.zeros(15))
        stats = evaluate_pair(est, ref)
        assert stats.v2u_errors == 10
        assert stats.u2v_errors == 0
        assert stats.gross_errors == 0 and stats.fine_frames == 0

    def test_matches_loop_oracle(self, rng):
        n = 1000
        ref = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(60, 400, n))
        est = np.where(rng.random(n) < 0.4, 0.0, ref * rng.choice([1.0, 1.01, 2.0], n))
        stats = evaluate_pair(PitchTrack(0.01, est), PitchTrack(0.01, ref))
        counts, errors = count_oracle(est, ref)
        assert stats.u2v_errors == counts["u2v"]
        assert stats.v2u_errors == counts["v2u"]
        assert stats.gross_errors == counts["gross"]
        assert stats.fine_frames == counts["fine"]
        np.testing.assert_allclose(np.sort(stats.fine_errors_samples), np.sort(errors))

    def test_truncates_to_shorter(self):
        est = PitchTrack(0.01, np.full(120, 100.0))
        ref = PitchTrack(0.01, np.full(100, 100.0))
        assert evaluate_pair(est, ref).total_frames == 100

    def test_hop_mismatch_rejected(self):
        with pytest.raises(ValueError, match="hop"):
            evaluate_pair(PitchTrack(0.01, np.zeros(5)), PitchTrack(0.02, np.zeros(5)))

    def test_counter_identities(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 300))
            ref = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(60, 400, n))
            est = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(60, 400, n))
            s = evaluate_pair(PitchTrack(0.01, est), PitchTrack(0.01, ref))
            assert s.ref_unvoiced_frames + s.ref_voiced_frames == s.total_frames
            assert s.v2u_errors + s.gross_errors + s.fine_frames == s.ref_voiced_frames
            assert s.both_voiced_frames == s.gross_errors + s.fine_frames


track_frames = st.lists(st.one_of(st.just(0.0), st.floats(20.0, 2000.0)), max_size=150).map(
    lambda f0: np.array(f0, dtype=np.float64)
)


class TestEvaluatePairProperty:
    @settings(max_examples=200, deadline=None)
    @given(est=track_frames, ref=track_frames)
    def test_counter_identities(self, est, ref):
        s = evaluate_pair(PitchTrack(0.01, est), PitchTrack(0.01, ref))
        assert s.total_frames == min(est.size, ref.size)
        assert s.ref_voiced_frames + s.ref_unvoiced_frames == s.total_frames
        assert s.gross_errors + s.fine_frames == s.both_voiced_frames
        assert s.u2v_errors <= s.ref_unvoiced_frames
        assert s.v2u_errors <= s.ref_voiced_frames
        assert len(s.fine_errors_samples) == s.fine_frames


COUNTERS = (
    "total_frames", "ref_unvoiced_frames", "ref_voiced_frames", "both_voiced_frames",
    "u2v_errors", "v2u_errors", "gross_errors", "fine_frames",
)
utterances = st.lists(st.tuples(track_frames, track_frames), max_size=4).map(
    lambda pairs: [evaluate_pair(PitchTrack(0.01, e), PitchTrack(0.01, r)) for e, r in pairs]
)


f0_values = st.one_of(st.just(0.0), st.floats(20.0, 2000.0))


def near_boundary(f_ref, sign, ulps):
    """An estimate whose period is ``f_ref``'s plus or minus 1 ms, moved
    by a few ulps, so the pair lands on either side of the gross rule."""
    f_est = 1.0 / (1.0 / f_ref + sign * 1e-3)
    for _ in range(abs(ulps)):
        f_est = math.nextafter(f_est, math.copysign(math.inf, ulps))
    return f_est, f_ref


# (f_est, f_ref) pairs: either voiced or not, and exact-boundary periods
frame_pairs = st.one_of(
    st.tuples(f0_values, f0_values),
    st.sampled_from([(500.0, 1000.0), (1000.0, 500.0)]),
    st.builds(near_boundary, st.floats(20.0, 900.0), st.sampled_from([-1, 1]), st.integers(-2, 2)),
)


def one_frame_track(f0):
    return PitchTrack(0.01, np.array([f0], dtype=np.float64))


class TestOneFrameRule:
    """``classify_frame`` is ``evaluate_pair``'s one-frame case, and
    ``evaluate_pair`` counts what ``classify_frame`` says of each frame."""

    @settings(max_examples=300, deadline=None)
    @given(pair=frame_pairs)
    @example(pair=(500.0, 1000.0))
    @example(pair=(1000.0, 500.0))
    def test_classify_frame_is_the_one_frame_case(self, pair):
        f_est, f_ref = pair
        outcome, error = classify_frame(f_est, f_ref)
        s = evaluate_pair(one_frame_track(f_est), one_frame_track(f_ref))
        counted = {
            FrameOutcome.CORRECT_UNVOICED: s.ref_unvoiced_frames - s.u2v_errors,
            FrameOutcome.UNVOICED_TO_VOICED: s.u2v_errors,
            FrameOutcome.VOICED_TO_UNVOICED: s.v2u_errors,
            FrameOutcome.GROSS_ERROR: s.gross_errors,
            FrameOutcome.CORRECT_VOICED_FINE: s.fine_frames,
        }
        assert counted == {o: int(o is outcome) for o in FrameOutcome}
        fine = outcome is FrameOutcome.CORRECT_VOICED_FINE
        assert s.fine_errors_samples.tobytes() == (np.float64([error]).tobytes() if fine else b"")
        kind, oracle_error = classify_oracle(f_est, f_ref)
        assert (outcome, error) == (ORACLE_KINDS[kind], oracle_error)

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(frame_pairs, max_size=150), tail=st.lists(f0_values, max_size=5),
           tail_on_est=st.booleans())
    def test_evaluate_pair_counts_classify_frame(self, pairs, tail, tail_on_est):
        est = np.array([e for e, _ in pairs] + (tail if tail_on_est else []), dtype=np.float64)
        ref = np.array([r for _, r in pairs] + ([] if tail_on_est else tail), dtype=np.float64)
        s = evaluate_pair(PitchTrack(0.01, est), PitchTrack(0.01, ref))
        outcomes = [classify_frame(e, r) for e, r in pairs]
        count = {o: sum(c is o for c, _ in outcomes) for o in FrameOutcome}
        ref_voiced = sum(r > 0 for _, r in pairs)
        assert {name: getattr(s, name) for name in COUNTERS} == {
            "total_frames": len(pairs),
            "ref_unvoiced_frames": len(pairs) - ref_voiced,
            "ref_voiced_frames": ref_voiced,
            "both_voiced_frames": sum(e > 0 and r > 0 for e, r in pairs),
            "u2v_errors": count[FrameOutcome.UNVOICED_TO_VOICED],
            "v2u_errors": count[FrameOutcome.VOICED_TO_UNVOICED],
            "gross_errors": count[FrameOutcome.GROSS_ERROR],
            "fine_frames": count[FrameOutcome.CORRECT_VOICED_FINE],
        }
        fine = [e for c, e in outcomes if c is FrameOutcome.CORRECT_VOICED_FINE]
        assert s.fine_errors_samples.tobytes() == np.array(fine, dtype=np.float64).tobytes()


class TestAggregateProperty:
    @settings(max_examples=100, deadline=None)
    @given(a=utterances, b=utterances)
    def test_counters_sum_over_a_split(self, a, b):
        assume(a + b)
        corpus = aggregate(a + b)
        sums = {name: sum(getattr(s, name) for s in a + b) for name in COUNTERS}
        assert {name: getattr(corpus, name) for name in COUNTERS} == sums
        if a and b:
            parts = aggregate(a), aggregate(b)
            assert all(getattr(corpus, n) == sum(getattr(p, n) for p in parts) for n in COUNTERS)
        unvoiced, voiced = sums["ref_unvoiced_frames"], sums["ref_voiced_frames"]
        assert corpus.u2v_pct == (100.0 * sums["u2v_errors"] / unvoiced if unvoiced else 0.0)
        assert corpus.v2u_pct == (100.0 * sums["v2u_errors"] / voiced if voiced else 0.0)


class TestAggregate:
    def _stats(self, **kw):
        base = dict(
            total_frames=0, ref_unvoiced_frames=0, ref_voiced_frames=0,
            both_voiced_frames=0, u2v_errors=0, v2u_errors=0, gross_errors=0,
            fine_frames=0, fine_errors_samples=np.zeros(0),
        )
        base.update(kw)
        return UtteranceStats(**base)

    def test_two_point_statistics(self):
        s = self._stats(
            total_frames=2, ref_voiced_frames=2, both_voiced_frames=2,
            fine_frames=2, fine_errors_samples=np.array([3.0, 5.0]),
        )
        corpus = aggregate([s])
        assert corpus.mean_fine_samples == pytest.approx(4.0)
        assert corpus.stdev_fine_samples == pytest.approx(1.0)

    def test_pooled_percentage(self):
        utts = [
            self._stats(total_frames=100, ref_unvoiced_frames=100, u2v_errors=7)
            for _ in range(2)
        ]
        corpus = aggregate(utts)
        assert corpus.u2v_pct == pytest.approx(7.0)

    def test_pooled_equals_concatenated(self, rng):
        utts = []
        all_errors = []
        for _ in range(5):
            errs = rng.uniform(0, 15, int(rng.integers(1, 50)))
            all_errors.append(errs)
            utts.append(self._stats(
                total_frames=errs.size, ref_voiced_frames=errs.size,
                both_voiced_frames=errs.size, fine_frames=errs.size,
                fine_errors_samples=errs,
            ))
        corpus = aggregate(utts)
        pooled = np.concatenate(all_errors)
        assert corpus.mean_fine_samples == pytest.approx(np.mean(pooled))
        assert corpus.stdev_fine_samples == pytest.approx(np.std(pooled))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_zero_denominators_flagged(self):
        corpus = aggregate([self._stats(total_frames=0)])
        assert corpus.u2v_pct == 0.0
        assert corpus.v2u_pct == 0.0


class TestFomRank:
    @pytest.mark.parametrize("row", TABLE_ROWS, ids=[r[0] for r in TABLE_ROWS])
    def test_published_rows(self, row):
        fom = fom_rank(corpus_from_row(row))
        assert fom.total == row[-1]

    def test_rank_breakdown(self):
        fom = fom_rank(corpus_from_row(TABLE_ROWS[0]))  # 7%, 19%, 0.96, 7.44
        assert (fom.rank_u2v, fom.rank_v2u, fom.rank_mean_fine, fom.rank_stdev_fine) == (1, 3, 2, 1)

    def test_bin_boundaries(self):
        def corpus(u2v=0.0, v2u=0.0, mean=0.0, stdev=0.0):
            return CorpusStats(0, 0, 0, 0, 0, 0, 0, 0, u2v, v2u, mean, stdev)

        assert fom_rank(corpus(u2v=7.99)).rank_u2v == 1
        assert fom_rank(corpus(u2v=8.0)).rank_u2v == 2
        assert fom_rank(corpus(u2v=16.0)).rank_u2v == 3
        assert fom_rank(corpus(mean=0.49)).rank_mean_fine == 1
        assert fom_rank(corpus(mean=0.5)).rank_mean_fine == 2
        assert fom_rank(corpus(mean=1.0)).rank_mean_fine == 3
        assert fom_rank(corpus(stdev=7.99)).rank_stdev_fine == 1
        assert fom_rank(corpus(stdev=8.0)).rank_stdev_fine == 2
        assert fom_rank(corpus(stdev=16.0)).rank_stdev_fine == 3

    def test_monotone_in_each_statistic(self, rng):
        def corpus(u2v, v2u, mean, stdev):
            return CorpusStats(0, 0, 0, 0, 0, 0, 0, 0, u2v, v2u, mean, stdev)

        for _ in range(100):
            u2v, v2u = rng.uniform(0, 25, 2)
            mean = rng.uniform(0, 2)
            stdev = rng.uniform(0, 25)
            base = fom_rank(corpus(u2v, v2u, mean, stdev))
            bumped = fom_rank(corpus(u2v + 1, v2u + 1, mean + 0.1, stdev + 1))
            assert bumped.rank_u2v >= base.rank_u2v
            assert bumped.rank_v2u >= base.rank_v2u
            assert bumped.rank_mean_fine >= base.rank_mean_fine
            assert bumped.rank_stdev_fine >= base.rank_stdev_fine

    def test_fom_total_range(self):
        with pytest.raises(ValueError):
            FomScore(1, 1, 1, 1, 5)
        score = FomScore(3, 3, 3, 3, 12)
        assert score.total == 12


class TestTableConsistency:
    def test_fine_equals_voiced_minus_gross(self):
        for row in TABLE_ROWS:
            _, _, _, _, voiced, _, gross, fine, _, _, _ = row
            assert fine == voiced - gross


class TestPitchHistogram:
    def test_all_unvoiced_empty(self):
        assert pitch_histogram(PitchTrack(0.01, np.zeros(20))) == []

    def test_direct_binning(self):
        track = PitchTrack(0.01, np.array([150.0, 150.0, 155.0, 210.0]))
        assert pitch_histogram(track) == [(150.0, 3), (210.0, 1)]

    def test_matches_recount_oracle(self, rng):
        f0 = np.where(rng.random(500) < 0.3, 0.0, rng.uniform(60, 400, 500))
        hist = dict(pitch_histogram(PitchTrack(0.01, f0), bin_width_hz=25.0))
        expected = {}
        for v in f0:
            if v > 0:
                low = (v // 25.0) * 25.0
                expected[low] = expected.get(low, 0) + 1
        assert hist == expected
        assert sum(hist.values()) == int(np.sum(f0 > 0))

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            pitch_histogram(PitchTrack(0.01, np.zeros(5)), bin_width_hz=0.0)

    @pytest.mark.parametrize("width", [math.inf, -math.inf, math.nan])
    def test_non_finite_bin_width(self, width):
        # an infinite width would put every frame in one bin whose low
        # edge is 0 * inf, that is nan
        with pytest.raises(ValueError, match="finite"):
            pitch_histogram(PitchTrack(0.01, np.array([150.0, 210.0])), bin_width_hz=width)

    @pytest.mark.parametrize("width", [1e-300, 1e-320, 250.0 / 2.0**63])
    def test_bin_width_too_small_to_index(self, width):
        # 1e-300 used to write one negative bin holding both 100 and 250 Hz;
        # at 1e-320 the quotient overflowed to inf
        track = PitchTrack(0.01, np.array([100.0, 0.0, 250.0]))
        with pytest.raises(ValueError, match=rf"bin width {width} Hz .* f0 250\.0 Hz"):
            pitch_histogram(track, bin_width_hz=width)

    def test_smallest_indexable_bin_width(self):
        # the largest f0's bin index just fits in int64
        width = math.nextafter(250.0 / 2.0**63, math.inf)
        (low, count), = pitch_histogram(PitchTrack(0.01, np.array([250.0])), bin_width_hz=width)
        assert count == 1 and 0 < low <= 250.0


class TestStatsJson:
    def test_canonical_keys(self):
        corpus = corpus_from_row(TABLE_ROWS[1])
        payload = stats_json_dict(corpus)
        assert list(payload) == [
            "total_frames", "ref_unvoiced_frames", "ref_voiced_frames",
            "both_voiced_frames", "u2v_errors", "v2u_errors", "u2v_pct", "v2u_pct",
            "gross_errors", "fine_frames", "mean_fine_samples", "stdev_fine_samples",
            "fom",
        ]
        assert list(payload["fom"]) == [
            "rank_u2v", "rank_v2u", "rank_mean_fine", "rank_stdev_fine", "total",
        ]
        assert payload["fom"]["total"] == 5


class TestUtteranceStatsValidation:
    def test_accounting_enforced(self):
        with pytest.raises(ValueError):
            UtteranceStats(10, 4, 5, 0, 0, 0, 0, 0)  # 4 + 5 != 10
        with pytest.raises(ValueError):
            UtteranceStats(10, 5, 5, 3, 0, 0, 1, 1)  # both != gross + fine
        with pytest.raises(ValueError):
            UtteranceStats(10, 5, 5, 0, 6, 0, 0, 0)  # u2v > unvoiced
