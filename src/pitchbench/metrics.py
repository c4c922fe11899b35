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

from dataclasses import asdict, dataclass, field, fields
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


# outcome code = 2 * ref voiced + est voiced + gross, indexing this tuple
_OUTCOMES = (
    FrameOutcome.CORRECT_UNVOICED, FrameOutcome.UNVOICED_TO_VOICED,
    FrameOutcome.VOICED_TO_UNVOICED, FrameOutcome.CORRECT_VOICED_FINE, FrameOutcome.GROSS_ERROR,
)
_FINE = _OUTCOMES.index(FrameOutcome.CORRECT_VOICED_FINE)


def _frame_outcomes(
    f_est: np.ndarray, f_ref: np.ndarray, norm_rate_hz: float, gross_ms: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's outcome code, an index into ``_OUTCOMES``, and its fine
    error in samples at ``norm_rate_hz`` (0.0 unless the frame is fine)."""
    ref_voiced = f_ref > 0
    est_voiced = f_est > 0
    both = ref_voiced & est_voiced
    est_period = np.divide(1.0, f_est, out=np.zeros(len(f_est)), where=both)
    ref_period = np.divide(1.0, f_ref, out=np.zeros(len(f_ref)), where=both)
    period_diff = np.abs(est_period - ref_period)
    gross = both & (period_diff > gross_ms / 1000.0)
    codes = 2 * ref_voiced.astype(np.int8) + est_voiced + gross
    return codes, np.where(codes == _FINE, period_diff * norm_rate_hz, 0.0)


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
    est_ref = np.array([[f_est], [f_ref]], dtype=np.float64)
    codes, errors = _frame_outcomes(*est_ref, norm_rate_hz, gross_ms)
    return _OUTCOMES[codes[0]], float(errors[0])


@dataclass
class _FrameCounts:
    """The frame counters, in field order; CorpusStats holds their sums."""

    total_frames: int
    ref_unvoiced_frames: int
    ref_voiced_frames: int
    both_voiced_frames: int
    u2v_errors: int
    v2u_errors: int
    gross_errors: int
    fine_frames: int


_COUNTERS = tuple(f.name for f in fields(_FrameCounts))


@dataclass
class UtteranceStats(_FrameCounts):
    """Outcome counters for one estimated/reference track pair."""

    fine_errors_samples: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.fine_errors_samples = np.asarray(self.fine_errors_samples, dtype=np.float64)
        counters = tuple(getattr(self, name) for name in _COUNTERS)
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


def evaluate_pair(est: PitchTrack, ref: PitchTrack) -> UtteranceStats:
    """Score an estimated track against a reference, as ``classify_frame``
    does at its defaults.

    Both tracks must share a 10 ms-class hop (equal within 1e-6 s);
    comparison runs over the first ``min(len(est), len(ref))`` frames,
    and that truncated count is what ``total_frames`` records.
    """
    if abs(est.hop_seconds - ref.hop_seconds) > 1e-6:
        raise ValueError(
            f"hop mismatch: est {est.hop_seconds} s vs ref {ref.hop_seconds} s"
        )
    n = min(len(est), len(ref))
    codes, errors = _frame_outcomes(est.frames[:n], ref.frames[:n], NORM_RATE_HZ,
                                    GROSS_THRESHOLD_MS)
    unvoiced, u2v, v2u, fine, gross = np.bincount(codes, minlength=len(_OUTCOMES)).tolist()
    return UtteranceStats(
        total_frames=n,
        ref_unvoiced_frames=unvoiced + u2v,
        ref_voiced_frames=v2u + fine + gross,
        both_voiced_frames=fine + gross,
        u2v_errors=u2v,
        v2u_errors=v2u,
        gross_errors=gross,
        fine_frames=fine,
        fine_errors_samples=errors[codes == _FINE],
    )


@dataclass
class CorpusStats(_FrameCounts):
    """Summed counters plus pooled fine-error statistics for a corpus.

    No cross-field arithmetic is enforced here: published comparison
    tables are themselves loadable as fixtures, and their voiced/
    unvoiced columns do not always sum to the total.
    """

    u2v_pct: float
    v2u_pct: float
    mean_fine_samples: float
    stdev_fine_samples: float


def aggregate(stats: list[UtteranceStats]) -> CorpusStats:
    """Fold per-utterance counters into corpus statistics.

    Fine-error mean and standard deviation (population) are computed
    over the pooled fine errors of all utterances. A zero unvoiced or
    voiced denominator defines the corresponding percentage as 0.
    """
    if not stats:
        raise ValueError("cannot aggregate an empty list of utterance stats")
    sums = {name: sum(getattr(s, name) for s in stats) for name in _COUNTERS}
    unvoiced, voiced = sums["ref_unvoiced_frames"], sums["ref_voiced_frames"]
    pooled = np.concatenate([s.fine_errors_samples for s in stats])
    return CorpusStats(
        **sums,
        u2v_pct=100.0 * sums["u2v_errors"] / unvoiced if unvoiced else 0.0,
        v2u_pct=100.0 * sums["v2u_errors"] / voiced if voiced else 0.0,
        mean_fine_samples=float(np.mean(pooled)) if pooled.size else 0.0,
        stdev_fine_samples=float(np.std(pooled)) if pooled.size else 0.0,
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
    if not 0 < bin_width_hz < np.inf:
        raise ValueError(f"bin width must be finite and > 0, got {bin_width_hz}")
    voiced = ref.frames[ref.voiced]
    # the largest f0 has the largest bin index, which must fit in int64
    top = float(voiced.max(initial=0.0))
    if not top / float(bin_width_hz) < 2.0**63:
        raise ValueError(f"bin width {bin_width_hz} Hz is too small to index f0 {top} Hz")
    indices = np.floor(voiced / bin_width_hz).astype(np.int64)
    uniq, counts = np.unique(indices, return_counts=True)
    return [(float(k * bin_width_hz), int(c)) for k, c in zip(uniq, counts)]


# the statistics JSON's keys in its order; the FOM ranks follow under "fom"
_JSON_KEYS = (
    "total_frames", "ref_unvoiced_frames", "ref_voiced_frames", "both_voiced_frames",
    "u2v_errors", "v2u_errors", "u2v_pct", "v2u_pct", "gross_errors", "fine_frames",
    "mean_fine_samples", "stdev_fine_samples",
)


def stats_json_dict(corpus: CorpusStats) -> dict:
    """Serialize corpus statistics, then their FOM ranks, with the canonical keys."""
    payload = {key: getattr(corpus, key) for key in _JSON_KEYS}
    payload["fom"] = asdict(fom_rank(corpus))
    return payload
