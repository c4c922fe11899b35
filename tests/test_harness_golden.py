"""Byte-exact harness outputs on a small fixed corpus.

The statistics JSON of ``detect`` + ``evaluate`` for both engines, and
the comparison CSV of ``compare`` over both engines and one external
label, must match the text below to the byte: float format, key order,
indent and the trailing newline. The expected text was recorded at
commit 4ac4f60. Engine f0 reaches ``evaluate`` through the track CSV's
six decimals and ``compare``'s columns through ``.6g``, so the last bits
of a lag curve cannot move these bytes.
"""
import pytest

from pitchbench.cli import main
from test_bench_hooks import small_corpus

EXPECTED_JSON = {
    "pyin": """\
{
  "total_frames": 61,
  "ref_unvoiced_frames": 24,
  "ref_voiced_frames": 37,
  "both_voiced_frames": 37,
  "u2v_errors": 1,
  "v2u_errors": 0,
  "u2v_pct": 4.166666666666667,
  "v2u_pct": 0.0,
  "gross_errors": 0,
  "fine_frames": 37,
  "mean_fine_samples": 7.260895423544839,
  "stdev_fine_samples": 0.006466339166384655,
  "fom": {
    "rank_u2v": 1,
    "rank_v2u": 1,
    "rank_mean_fine": 3,
    "rank_stdev_fine": 1,
    "total": 6
  }
}
""",
    "yaapt": """\
{
  "total_frames": 61,
  "ref_unvoiced_frames": 24,
  "ref_voiced_frames": 37,
  "both_voiced_frames": 37,
  "u2v_errors": 2,
  "v2u_errors": 0,
  "u2v_pct": 8.333333333333334,
  "v2u_pct": 0.0,
  "gross_errors": 0,
  "fine_frames": 37,
  "mean_fine_samples": 7.267439974191219,
  "stdev_fine_samples": 0.0219179673638442,
  "fom": {
    "rank_u2v": 2,
    "rank_v2u": 1,
    "rank_mean_fine": 3,
    "rank_stdev_fine": 1,
    "total": 7
  }
}
""",
}

EXPECTED_TABLE = """\
pda,total_frames,unvoiced_frames,u2v_pct,voiced_frames,v2u_pct,gross_errors,fine_frames,mean_fine,stdev_fine,fom
pyin,122,48,4.16667,74,0,37,37,7.26085,0.00651633,6
yaapt,122,48,8.33333,74,0,37,37,7.26742,0.0219199,7
ext,122,48,50,74,51.3514,0,36,0,0,8
"""


@pytest.mark.parametrize("algo", ["pyin", "yaapt"])
def test_detect_then_evaluate_json_bytes(tmp_path, algo):
    small_corpus(tmp_path)
    track, stats = tmp_path / "track.csv", tmp_path / "stats.json"
    # u1 is a 220 Hz sawtooth against a 200 Hz reference: fine errors only
    assert main(["detect", "--algo", algo, "--in", str(tmp_path / "u1.wav"),
                 "--out", str(track)]) == 0
    assert main(["evaluate", "--est", str(track), "--ref", str(tmp_path / "u1.txt"),
                 "--out", str(stats)]) == 0
    assert stats.read_bytes() == EXPECTED_JSON[algo].encode()


def test_compare_table_bytes(tmp_path):
    manifest, ext = small_corpus(tmp_path)
    table = tmp_path / "table.csv"
    assert main(["compare", "--manifest", str(manifest), "--algos", "pyin,yaapt",
                 "--jobs", "1", "--external", f"ext={ext}", "--out", str(table)]) == 0
    assert table.read_bytes() == EXPECTED_TABLE.encode()
