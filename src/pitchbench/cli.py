"""Batch command-line front end.

Subcommands: ``detect`` runs an engine over one WAV and writes a track
CSV; ``evaluate`` scores a track against a reference and writes the
statistics JSON; ``compare`` runs engines and/or ingests external
tracks over a corpus manifest and writes a comparison table; ``hist``
writes the voiced-pitch histogram of a reference file.

Exit codes: 0 success, 1 runtime or data error, 2 usage error. All
outputs are deterministic for identical inputs and flags.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .metrics import (
    CorpusStats,
    FomScore,
    UtteranceStats,
    aggregate,
    evaluate_pair,
    fom_rank,
    pitch_histogram,
    stats_json_dict,
)
from .pyin import PyinConfig, pyin_track
from .trackio import (
    TrackFormatError,
    WavFormatError,
    check_confidence_threshold,
    read_external_track,
    read_reference_track,
    read_wav,
    write_track,
)
from .yaapt import YaaptConfig, yaapt_track

_COMPARISON_COLUMNS = (
    "pda,total_frames,unvoiced_frames,u2v_pct,voiced_frames,v2u_pct,"
    "gross_errors,fine_frames,mean_fine,stdev_fine,fom"
)


class UsageError(Exception):
    """Bad flag combination or unusable request; maps to exit code 2."""


def _engine_config(algo: str, args) -> PyinConfig | YaaptConfig:
    config = PyinConfig() if algo == "pyin" else YaaptConfig()
    overrides = {}
    if args.fmin is not None:
        overrides["fmin_hz"] = args.fmin
    if args.fmax is not None:
        overrides["fmax_hz"] = args.fmax
    if args.frame_ms is not None:
        overrides["frame_len_ms"] = args.frame_ms
    if args.hop_ms is not None:
        overrides["hop_ms"] = args.hop_ms
    return dataclasses.replace(config, **overrides) if overrides else config


def _run_engine(algo: str, signal, config) -> "PitchTrack":
    if algo == "pyin":
        return pyin_track(signal, config)
    return yaapt_track(signal, config)


def cmd_detect(args) -> int:
    if args.algo == "crepe":
        raise UsageError(
            "crepe is not computed here; ingest its output with "
            "'evaluate --est <csv>' or 'compare --external crepe=<dir>'"
        )
    if args.algo not in ("pyin", "yaapt"):
        raise UsageError(f"unknown algorithm {args.algo!r} (choose pyin or yaapt)")
    track = _run_engine(args.algo, read_wav(args.in_wav), _engine_config(args.algo, args))
    write_track(track, args.out)
    return 0


def _check_confidence_threshold(value: float) -> None:
    try:
        check_confidence_threshold(value)
    except ValueError as exc:
        raise UsageError(f"--confidence-threshold: {exc}") from None


def cmd_evaluate(args) -> int:
    _check_confidence_threshold(args.confidence_threshold)
    est = read_external_track(args.est, confidence_threshold=args.confidence_threshold)
    ref = read_reference_track(args.ref)
    stats = evaluate_pair(est, ref)
    corpus = aggregate([stats])
    payload = stats_json_dict(corpus, fom_rank(corpus))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _read_manifest(path) -> list[tuple[str, Path, Path]]:
    base = Path(path).resolve().parent
    entries = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            return []
        required = ["utterance_id", "wav_path", "reference_path"]
        if header[:3] != required:
            raise TrackFormatError(
                f"{path}: manifest header must start with {','.join(required)}"
            )
        first_line = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 3:
                raise TrackFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            utt = row[0].strip()
            # ids name files in --external directories, so each must be one
            # file name there
            if utt in ("", ".", "..") or Path(utt).name != utt:
                raise TrackFormatError(
                    f"{path}:{lineno}: utterance id {utt!r} is not a single file name"
                )
            if utt in first_line:
                raise TrackFormatError(
                    f"{path}:{lineno}: duplicate utterance id {utt!r}"
                    f" (first on line {first_line[utt]})"
                )
            first_line[utt] = lineno
            entries.append((utt, base / row[1].strip(), base / row[2].strip()))
    return entries


@contextlib.contextmanager
def _naming(utt_id: str, label: str, path):
    try:
        yield
    except (ValueError, OSError) as exc:  # reader errors are ValueErrors too
        # a plain ValueError carrying the context pickles back from a worker
        raise ValueError(f"utterance {utt_id} [{label}] {path}: {exc}") from exc


def _score_utterance(job) -> list[UtteranceStats]:
    """Statistics of one utterance for every engine, then every external
    label, in table order. The reference is read once, and the WAV is
    decoded once, only when an engine is requested."""
    utt_id, wav_path, ref_path, engines, externals, confidence_threshold = job
    with _naming(utt_id, "reference", ref_path):
        ref = read_reference_track(ref_path)
    if engines:
        with _naming(utt_id, "wav", wav_path):
            signal = read_wav(wav_path)
    stats = []
    for algo, config in engines:
        with _naming(utt_id, algo, wav_path):
            stats.append(evaluate_pair(_run_engine(algo, signal, config), ref))
    for label, directory in externals:
        path = directory / f"{utt_id}.csv"
        with _naming(utt_id, label, path):
            est = read_external_track(path, confidence_threshold=confidence_threshold)
            stats.append(evaluate_pair(est, ref))
    return stats


def format_comparison_csv(rows: list[tuple[str, CorpusStats, FomScore]]) -> str:
    """Render labelled corpus statistics as the comparison table."""
    lines = [_COMPARISON_COLUMNS]
    for label, corpus, fom in rows:
        lines.append(
            f"{label},{corpus.total_frames},{corpus.ref_unvoiced_frames},"
            f"{corpus.u2v_pct:.6g},{corpus.ref_voiced_frames},{corpus.v2u_pct:.6g},"
            f"{corpus.gross_errors},{corpus.fine_frames},"
            f"{corpus.mean_fine_samples:.6g},{corpus.stdev_fine_samples:.6g},{fom.total}"
        )
    return "\n".join(lines) + "\n"


def _worker_count(args) -> int:
    """``--jobs``, else ``$PITCHBENCH_JOBS``, else 1; a positive integer."""
    source, value = "--jobs", args.jobs
    if value is None:
        source, value = "PITCHBENCH_JOBS", os.environ.get("PITCHBENCH_JOBS", "1")
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise UsageError(f"{source} must be a positive integer, got {value!r}")
    return jobs


def cmd_compare(args) -> int:
    _check_confidence_threshold(args.confidence_threshold)
    n_workers = _worker_count(args)
    entries = _read_manifest(args.manifest)
    if not entries:
        raise UsageError(f"manifest {args.manifest} lists no utterances")
    entries.sort(key=lambda e: e[0])

    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo == "crepe":
            raise UsageError("crepe tracks are external; pass --external crepe=<dir>")
        if algo not in ("pyin", "yaapt"):
            raise UsageError(f"unknown algorithm {algo!r} (choose pyin or yaapt)")

    externals = []
    for binding in args.external or []:
        label, sep, directory = binding.partition("=")
        if not sep or not label or not directory:
            raise UsageError(f"--external expects label=dir, got {binding!r}")
        externals.append((label, Path(directory)))

    missing = []
    for utt, wav_path, ref_path in entries:
        for p in (wav_path, ref_path):
            if not p.is_file():
                missing.append(str(p))
        for _label, directory in externals:
            ext = directory / f"{utt}.csv"
            if not ext.is_file():
                missing.append(str(ext))
    if missing:
        for p in missing:
            print(f"missing input: {p}", file=sys.stderr)
        return 1

    engines = [(algo, _engine_config(algo, args)) for algo in algos]
    jobs = [
        (utt, wav, ref, engines, externals, args.confidence_threshold)
        for utt, wav, ref in entries
    ]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            scored = list(pool.map(_score_utterance, jobs))
    else:
        scored = [_score_utterance(job) for job in jobs]

    rows = []
    labels = algos + [label for label, _directory in externals]
    for column, label in enumerate(labels):
        corpus = aggregate([stats[column] for stats in scored])
        rows.append((label, corpus, fom_rank(corpus)))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_comparison_csv(rows))
    return 0


def cmd_hist(args) -> int:
    if not 0 < args.bin_hz < float("inf"):
        raise UsageError(f"--bin-hz must be finite and > 0, got {args.bin_hz}")
    ref = read_reference_track(args.ref)
    bins = pitch_histogram(ref, bin_width_hz=args.bin_hz)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_low_hz,count\n")
        for low, count in bins:
            fh.write(f"{low:.6g},{count}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitchbench",
        description="Pitch detection engines and pitch-track evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run an engine on one WAV file")
    detect.add_argument("--algo", required=True, help="pyin or yaapt")
    detect.add_argument("--in", dest="in_wav", required=True, help="input WAV path")
    detect.add_argument("--out", required=True, help="output track CSV path")
    detect.add_argument("--fmin", type=float, default=None)
    detect.add_argument("--fmax", type=float, default=None)
    detect.add_argument("--frame-ms", type=float, default=None)
    detect.add_argument("--hop-ms", type=float, default=None)
    detect.set_defaults(func=cmd_detect)

    evaluate = sub.add_parser("evaluate", help="score one track against a reference")
    evaluate.add_argument("--est", required=True, help="estimated track CSV")
    evaluate.add_argument("--ref", required=True, help="reference trajectory text file")
    evaluate.add_argument("--out", required=True, help="output JSON path")
    evaluate.add_argument("--confidence-threshold", type=float, default=0.5)
    evaluate.set_defaults(func=cmd_evaluate)

    compare = sub.add_parser("compare", help="build the corpus comparison table")
    compare.add_argument("--manifest", required=True, help="corpus manifest CSV")
    compare.add_argument("--algos", default="pyin,yaapt", help="comma-separated engines")
    compare.add_argument(
        "--external", action="append", metavar="LABEL=DIR",
        help="ingest external per-utterance tracks from DIR/<utterance_id>.csv",
    )
    compare.add_argument("--out", required=True, help="output comparison CSV")
    compare.add_argument("--confidence-threshold", type=float, default=0.5)
    compare.add_argument(
        "--jobs", default=None,
        help="utterance-level worker processes (default: $PITCHBENCH_JOBS or 1)",
    )
    compare.add_argument("--fmin", type=float, default=None)
    compare.add_argument("--fmax", type=float, default=None)
    compare.add_argument("--frame-ms", type=float, default=None)
    compare.add_argument("--hop-ms", type=float, default=None)
    compare.set_defaults(func=cmd_compare)

    hist = sub.add_parser("hist", help="histogram of reference pitch values")
    hist.add_argument("--ref", required=True, help="reference trajectory text file")
    hist.add_argument("--bin-hz", type=float, default=10.0)
    hist.add_argument("--out", required=True, help="output histogram CSV")
    hist.set_defaults(func=cmd_hist)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (WavFormatError, TrackFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
