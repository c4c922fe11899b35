"""Pitch-track evaluation: frame outcomes, corpus statistics, FOM ranks.

A frame where both tracks are voiced is a gross error when the two
pitch periods differ by more than 1 ms, otherwise a fine error whose
magnitude is reported in equivalent samples at 16 kHz. Voicing
mismatches are counted separately in both directions and never as
pitch errors. The figure of merit sums four bin ranks (unvoiced-to-
voiced %, voiced-to-unvoiced %, mean fine error, fine-error standard
deviation); gross errors are excluded from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .trackio import PitchTrack

GROSS_THRESHOLD_MS = 1.0
NORM_RATE_HZ = 16000.0


class FrameOutcome(Enum):
    CORRECT_UNVOICED = "correct_unvoiced"
    CORRECT_VOICED_FINE = "correct_voiced_fine"
    GROSS_ERROR = "gross_error"
    UNVOICED_TO_VOICED = "unvoiced_to_voiced"
    VOICED_TO_UNVOICED = "voiced_to_unvoiced"


def classify_frame(
    f_est: float,
    f_ref: float,
    norm_rate_hz: float = NORM_RATE_HZ,
    gross_ms: float = GROSS_THRESHOLD_MS,
) -> tuple[FrameOutcome, float]:
    """Classify one estimated/reference frame pair.

    Returns the outcome plus, for fine frames, the period error in
    equivalent samples at ``norm_rate_hz`` (0.0 for every other
    outcome). Both-voiced frames compare pitch *periods*: a difference
    strictly greater than ``gross_ms`` is a gross error, anything up to
    and including the boundary is fine.
    """
    if not (np.isfinite(f_est) and np.isfinite(f_ref)):
        raise ValueError(f"non-finite inputs ({f_est}, {f_ref})")
    if f_est < 0 or f_ref < 0:
        raise ValueError(f"negative f0 ({f_est}, {f_ref})")

    if f_ref == 0 and f_est == 0:
        return FrameOutcome.CORRECT_UNVOICED, 0.0
    if f_ref == 0:
        return FrameOutcome.UNVOICED_TO_VOICED, 0.0
    if f_est == 0:
        return FrameOutcome.VOICED_TO_UNVOICED, 0.0
    period_diff = abs(1.0 / f_est - 1.0 / f_ref)
    if period_diff > gross_ms / 1000.0:
        return FrameOutcome.GROSS_ERROR, 0.0
    return FrameOutcome.CORRECT_VOICED_FINE, period_diff * norm_rate_hz


@dataclass
class UtteranceStats:
    """Outcome counters for one estimated/reference track pair."""

    total_frames: int
    ref_unvoiced_frames: int
    ref_voiced_frames: int
    both_voiced_frames: int
    u2v_errors: int
    v2u_errors: int
    gross_errors: int
    fine_frames: int
    fine_errors_samples: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.fine_errors_samples = np.asarray(self.fine_errors_samples, dtype=np.float64)
        counters = (
            self.total_frames, self.ref_unvoiced_frames, self.ref_voiced_frames,
            self.both_voiced_frames, self.u2v_errors, self.v2u_errors,
            self.gross_errors, self.fine_frames,
        )
        if any(c < 0 for c in counters):
            raise ValueError(f"negative counter in {counters}")
        if self.ref_unvoiced_frames + self.ref_voiced_frames != self.total_frames:
            raise ValueError("ref unvoiced + voiced must equal total frames")
        if self.both_voiced_frames != self.gross_errors + self.fine_frames:
            raise ValueError("both-voiced must equal gross + fine")
        if self.u2v_errors > self.ref_unvoiced_frames:
            raise ValueError("u2v errors exceed reference unvoiced frames")
        if self.v2u_errors > self.ref_voiced_frames:
            raise ValueError("v2u errors exceed reference voiced frames")
        if self.fine_errors_samples.size != self.fine_frames:
            raise ValueError(
                f"{self.fine_errors_samples.size} fine errors for {self.fine_frames} fine frames"
            )


def evaluate_pair(
    est: PitchTrack,
    ref: PitchTrack,
    norm_rate_hz: float = NORM_RATE_HZ,
    gross_ms: float = GROSS_THRESHOLD_MS,
) -> UtteranceStats:
    """Score an estimated track against a reference.

    Both tracks must share a 10 ms-class hop (equal within 1e-6 s);
    comparison runs over the first ``min(len(est), len(ref))`` frames,
    and that truncated count is what ``total_frames`` records.
    """
    if abs(est.hop_seconds - ref.hop_seconds) > 1e-6:
        raise ValueError(
            f"hop mismatch: est {est.hop_seconds} s vs ref {ref.hop_seconds} s"
        )
    n = min(len(est), len(ref))
    f_est = est.frames[:n]
    f_ref = ref.frames[:n]

    ref_voiced = f_ref > 0
    est_voiced = f_est > 0
    u2v = ~ref_voiced & est_voiced
    v2u = ref_voiced & ~est_voiced
    both = ref_voiced & est_voiced

    period_diff = np.zeros(n)
    np.divide(1.0, f_est, out=period_diff, where=both)
    ref_period = np.zeros(n)
    np.divide(1.0, f_ref, out=ref_period, where=both)
    period_diff = np.abs(period_diff - ref_period)

    gross = both & (period_diff > gross_ms / 1000.0)
    fine = both & ~gross
    return UtteranceStats(
        total_frames=n,
        ref_unvoiced_frames=int(np.sum(~ref_voiced)),
        ref_voiced_frames=int(np.sum(ref_voiced)),
        both_voiced_frames=int(np.sum(both)),
        u2v_errors=int(np.sum(u2v)),
        v2u_errors=int(np.sum(v2u)),
        gross_errors=int(np.sum(gross)),
        fine_frames=int(np.sum(fine)),
        fine_errors_samples=period_diff[fine] * norm_rate_hz,
    )


@dataclass
class CorpusStats:
    """Summed counters plus pooled fine-error statistics for a corpus.

    No cross-field arithmetic is enforced here: published comparison
    tables are themselves loadable as fixtures, and their voiced/
    unvoiced columns do not always sum to the total.
    """

    total_frames: int
    ref_unvoiced_frames: int
    ref_voiced_frames: int
    both_voiced_frames: int
    u2v_errors: int
    v2u_errors: int
    gross_errors: int
    fine_frames: int
    u2v_pct: float
    v2u_pct: float
    mean_fine_samples: float
    stdev_fine_samples: float
    u2v_pct_defined: bool = True
    v2u_pct_defined: bool = True


def aggregate(stats: list[UtteranceStats]) -> CorpusStats:
    """Fold per-utterance counters into corpus statistics.

    Fine-error mean and standard deviation (population) are computed
    over the pooled fine errors of all utterances. A zero unvoiced or
    voiced denominator defines the corresponding percentage as 0 and
    clears its ``*_defined`` flag.
    """
    if not stats:
        raise ValueError("cannot aggregate an empty list of utterance stats")
    ref_unvoiced = sum(s.ref_unvoiced_frames for s in stats)
    ref_voiced = sum(s.ref_voiced_frames for s in stats)
    u2v = sum(s.u2v_errors for s in stats)
    v2u = sum(s.v2u_errors for s in stats)
    pooled = np.concatenate([s.fine_errors_samples for s in stats])

    u2v_defined = ref_unvoiced > 0
    v2u_defined = ref_voiced > 0
    return CorpusStats(
        total_frames=sum(s.total_frames for s in stats),
        ref_unvoiced_frames=ref_unvoiced,
        ref_voiced_frames=ref_voiced,
        both_voiced_frames=sum(s.both_voiced_frames for s in stats),
        u2v_errors=u2v,
        v2u_errors=v2u,
        gross_errors=sum(s.gross_errors for s in stats),
        fine_frames=sum(s.fine_frames for s in stats),
        u2v_pct=100.0 * u2v / ref_unvoiced if u2v_defined else 0.0,
        v2u_pct=100.0 * v2u / ref_voiced if v2u_defined else 0.0,
        mean_fine_samples=float(np.mean(pooled)) if pooled.size else 0.0,
        stdev_fine_samples=float(np.std(pooled)) if pooled.size else 0.0,
        u2v_pct_defined=u2v_defined,
        v2u_pct_defined=v2u_defined,
    )


@dataclass
class FomScore:
    """The four bin ranks and their sum (lower is better)."""

    rank_u2v: int
    rank_v2u: int
    rank_mean_fine: int
    rank_stdev_fine: int
    total: int

    def __post_init__(self):
        ranks = (self.rank_u2v, self.rank_v2u, self.rank_mean_fine, self.rank_stdev_fine)
        if any(r not in (1, 2, 3) for r in ranks):
            raise ValueError(f"ranks must be in 1..3, got {ranks}")
        if self.total != sum(ranks):
            raise ValueError(f"total {self.total} does not equal sum of ranks {sum(ranks)}")


def _bin_rank(value: float, mid: float, high: float) -> int:
    # left-closed bins [0, mid) -> 1, [mid, high) -> 2, [high, inf) -> 3
    if value < mid:
        return 1
    if value < high:
        return 2
    return 3


def fom_rank(corpus: CorpusStats) -> FomScore:
    """Bin the four corpus statistics into ranks and sum them.

    Voicing error percentages bin at 8 and 16; mean fine error (in
    16 kHz samples) at 0.5 and 1; fine-error standard deviation at 8
    and 16 samples. Gross errors do not participate.
    """
    r_u2v = _bin_rank(corpus.u2v_pct, 8.0, 16.0)
    r_v2u = _bin_rank(corpus.v2u_pct, 8.0, 16.0)
    r_mean = _bin_rank(corpus.mean_fine_samples, 0.5, 1.0)
    r_stdev = _bin_rank(corpus.stdev_fine_samples, 8.0, 16.0)
    return FomScore(r_u2v, r_v2u, r_mean, r_stdev, r_u2v + r_v2u + r_mean + r_stdev)


def pitch_histogram(ref: PitchTrack, bin_width_hz: float = 10.0) -> list[tuple[float, int]]:
    """Histogram of voiced f0 values: (bin_low_hz, count) pairs.

    Bins are ``[k*w, (k+1)*w)``; only non-empty bins are returned, in
    ascending order, and the counts sum to the number of voiced frames.
    """
    if not bin_width_hz > 0:
        raise ValueError(f"bin width must be > 0, got {bin_width_hz}")
    voiced = ref.frames[ref.voiced]
    if voiced.size == 0:
        return []
    indices = np.floor(voiced / bin_width_hz).astype(np.int64)
    uniq, counts = np.unique(indices, return_counts=True)
    return [(float(k * bin_width_hz), int(c)) for k, c in zip(uniq, counts)]


def stats_json_dict(corpus: CorpusStats, fom: FomScore | None = None) -> dict:
    """Serialize corpus statistics (plus FOM) with the canonical keys."""
    if fom is None:
        fom = fom_rank(corpus)
    return {
        "total_frames": corpus.total_frames,
        "ref_unvoiced_frames": corpus.ref_unvoiced_frames,
        "ref_voiced_frames": corpus.ref_voiced_frames,
        "both_voiced_frames": corpus.both_voiced_frames,
        "u2v_errors": corpus.u2v_errors,
        "v2u_errors": corpus.v2u_errors,
        "u2v_pct": corpus.u2v_pct,
        "v2u_pct": corpus.v2u_pct,
        "gross_errors": corpus.gross_errors,
        "fine_frames": corpus.fine_frames,
        "mean_fine_samples": corpus.mean_fine_samples,
        "stdev_fine_samples": corpus.stdev_fine_samples,
        "fom": {
            "rank_u2v": fom.rank_u2v,
            "rank_v2u": fom.rank_v2u,
            "rank_mean_fine": fom.rank_mean_fine,
            "rank_stdev_fine": fom.rank_stdev_fine,
            "total": fom.total,
        },
    }
