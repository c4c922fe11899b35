"""Pitch detection engines (pYIN, YAAPT) and a pitch-track evaluation
harness with voicing/gross/fine error accounting and FOM ranking."""

from .signal import (
    AudioSignal,
    LagCurve,
    bandpass_filter,
    cmnd,
    frame_centers,
    frame_signal,
    min_cost_path,
    nccf,
    yin_difference,
)
from .trackio import (
    PitchTrack,
    TrackFormatError,
    WavFormatError,
    read_external_track,
    read_reference_track,
    read_wav,
    write_track,
)
from .metrics import (
    CorpusStats,
    FomScore,
    FrameOutcome,
    UtteranceStats,
    aggregate,
    classify_frame,
    evaluate_pair,
    fom_rank,
    pitch_histogram,
    stats_json_dict,
)
from .pyin import PitchCandidate, PyinConfig, pyin_track, pyin_viterbi
from .yaapt import (
    NccfCandidate,
    SpectralTrack,
    YaaptConfig,
    compute_nlfer,
    nccf_candidates,
    spectral_pitch_track,
    yaapt_dp_select,
    yaapt_preprocess,
    yaapt_track,
)

__version__ = "0.1.0"

__all__ = [
    "AudioSignal", "LagCurve", "frame_centers", "frame_signal", "min_cost_path",
    "yin_difference", "cmnd", "nccf", "bandpass_filter",
    "PitchTrack", "WavFormatError", "TrackFormatError",
    "read_wav", "read_reference_track", "read_external_track", "write_track",
    "FrameOutcome", "UtteranceStats", "CorpusStats", "FomScore",
    "classify_frame", "evaluate_pair", "aggregate", "fom_rank",
    "pitch_histogram", "stats_json_dict",
    "PyinConfig", "PitchCandidate", "pyin_viterbi", "pyin_track",
    "YaaptConfig", "SpectralTrack", "NccfCandidate", "yaapt_preprocess",
    "compute_nlfer", "spectral_pitch_track", "nccf_candidates",
    "yaapt_dp_select", "yaapt_track",
]
