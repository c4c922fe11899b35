"""Configuration errors name the value that was rejected."""
import math

import pytest

from pitchbench import PyinConfig, YaaptConfig

# one distinctive bad value per check, so finding it in the message
# cannot happen by accident
BAD_VALUES = [
    (PyinConfig, "fmin_hz", -3.5),
    (PyinConfig, "frame_len_ms", -40.25),
    (PyinConfig, "frame_len_ms", math.inf),
    (PyinConfig, "frame_len_ms", math.nan),
    (PyinConfig, "hop_ms", -0.125),
    (PyinConfig, "hop_ms", math.inf),
    (PyinConfig, "hop_ms", math.nan),
    (PyinConfig, "n_thresholds", -7),
    (PyinConfig, "n_thresholds", math.nan),
    (PyinConfig, "n_thresholds", 2.5),
    (PyinConfig, "threshold_prior_mean", 1.375),
    (PyinConfig, "bins_per_semitone", -3),
    (PyinConfig, "bins_per_semitone", math.nan),
    (PyinConfig, "bins_per_semitone", 2.5),
    (PyinConfig, "switch_prob", 1.625),
    (PyinConfig, "max_transition_semitones", -12.5),
    (PyinConfig, "max_transition_semitones", math.nan),
    (YaaptConfig, "fmin_hz", -3.5),
    (YaaptConfig, "bp_low_hz", -50.5),
    (YaaptConfig, "frame_len_ms", -35.25),
    (YaaptConfig, "frame_len_ms", math.inf),
    (YaaptConfig, "frame_len_ms", math.nan),
    (YaaptConfig, "hop_ms", -0.125),
    (YaaptConfig, "hop_ms", math.inf),
    (YaaptConfig, "hop_ms", math.nan),
    (YaaptConfig, "shc_num_harmonics", -2),
    (YaaptConfig, "shc_num_harmonics", math.nan),
    (YaaptConfig, "shc_num_harmonics", 2.5),
    (YaaptConfig, "shc_window_hz", -40.5),
    (YaaptConfig, "shc_window_hz", math.nan),
    (YaaptConfig, "nlfer_threshold", -0.875),
    (YaaptConfig, "nlfer_threshold", math.nan),
    (YaaptConfig, "n_candidates_per_frame", -4),
    (YaaptConfig, "n_candidates_per_frame", math.nan),
    (YaaptConfig, "n_candidates_per_frame", 2.5),
    (YaaptConfig, "dp_freq_jump_weight", -0.375),
    (YaaptConfig, "dp_freq_jump_weight", math.inf),
    (YaaptConfig, "dp_freq_jump_weight", math.nan),
    (YaaptConfig, "dp_voicing_switch_cost", -0.625),
    (YaaptConfig, "dp_voicing_switch_cost", math.nan),
    (YaaptConfig, "nonlinearity", "cube"),
]


def case_ids(rows):
    # a field's first row is named by the field; a later row of the same
    # field also carries its value
    seen, ids = set(), []
    for config_type, field, value in rows:
        name = f"{config_type.__name__}.{field}"
        ids.append(f"{name}-{value}" if name in seen else name)
        seen.add(name)
    return ids


@pytest.mark.parametrize("config_type, field, value", BAD_VALUES, ids=case_ids(BAD_VALUES))
def test_error_names_the_bad_value(config_type, field, value):
    with pytest.raises(ValueError) as err:
        config_type(**{field: value})
    assert str(value) in str(err.value)
