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
import functools
import json
import sys
from pathlib import Path

from .metrics import (
    CorpusStats,
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
    check_confidence_threshold,
    csv_records,
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


def __getattr__(name: str):
    # the pool's import (multiprocessing) waits for the first compare that
    # starts a pool; the name stays this module's, so it can be replaced
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# argparse dest -> config field; compare has no --hop-ms, as references are 10 ms apart
_ENGINE_FLAGS = {
    "fmin": "fmin_hz", "fmax": "fmax_hz", "frame_ms": "frame_len_ms", "hop_ms": "hop_ms",
}

# the errors a command reports as one error line: the readers' are
# ValueErrors, and a MemoryError is a frame or a file too large
_ERRORS = (ValueError, OverflowError, MemoryError, OSError)


# the characters str.splitlines breaks a line at, each with its escape
_LINE_BREAKS = {c: ascii(chr(c))[1:-1]
                for c in (*range(0x0A, 0x0E), 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029)}


def _print_error(line: str) -> None:
    """Write ``line`` to stderr as one line, whatever paths or values it names."""
    print(line.translate(_LINE_BREAKS), file=sys.stderr)


def _engine_config(algo: str, args) -> PyinConfig | YaaptConfig:
    values = {field: getattr(args, dest, None) for dest, field in _ENGINE_FLAGS.items()}
    config_type = PyinConfig if algo == "pyin" else YaaptConfig
    return config_type(**{field: v for field, v in values.items() if v is not None})


def _check_algo(algo: str, crepe_hint: str) -> None:
    if algo == "crepe":
        raise UsageError(crepe_hint)
    if algo not in ("pyin", "yaapt"):
        raise UsageError(f"unknown algorithm {algo!r} (choose pyin or yaapt)")


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _run_engine(algo: str, signal, config) -> "PitchTrack":
    if algo == "pyin":
        return pyin_track(signal, config)
    return yaapt_track(signal, config)


def cmd_detect(args) -> int:
    _check_algo(
        args.algo,
        "crepe is not computed here; ingest its output with "
        "'evaluate --est <csv>' or 'compare --external crepe=<dir>'",
    )
    config = _engine_config(args.algo, args)
    with _naming(args.in_wav):
        track = _run_engine(args.algo, read_wav(args.in_wav), config)
    write_track(track, args.out)
    return 0


def _check_confidence_threshold(value: float) -> None:
    try:
        check_confidence_threshold(value)
    except ValueError as exc:
        raise UsageError(f"--confidence-threshold: {exc}") from None


@contextlib.contextmanager
def _naming(context: str, errors=_ERRORS):
    """Prefix ``context`` to any of ``errors`` raised inside."""
    try:
        yield
    except errors as exc:
        # a plain ValueError carrying the context pickles back from a worker
        raise ValueError(f"{context}: {exc}") from exc


def cmd_evaluate(args) -> int:
    _check_confidence_threshold(args.confidence_threshold)
    # a reader's other errors name the file already
    with _naming(args.est, UnicodeDecodeError):
        est = read_external_track(args.est, confidence_threshold=args.confidence_threshold)
    with _naming(args.ref, UnicodeDecodeError):
        ref = read_reference_track(args.ref)
    with _naming(f"{args.est} against {args.ref}"):
        corpus = aggregate([evaluate_pair(est, ref)])
    _write_text(args.out, json.dumps(stats_json_dict(corpus), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _read_manifest(path) -> list[tuple[str, Path, Path]]:
    base = Path(path).resolve().parent
    entries = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv_records(path, fh)
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


def _inputs(job) -> list[tuple[str, Path]]:
    """The ``(label, path)`` of each file a job reads, in reading order."""
    _utt_id, ref_path, wav_path, externals = job[:4]
    wav = [] if wav_path is None else [("wav", wav_path)]
    return [("reference", ref_path), *wav, *externals]


def _score_utterance(job) -> list[UtteranceStats]:
    """Statistics of one utterance for every engine, then every external
    label, in table order. The reference is read once, and the WAV is
    decoded once, only when the job holds its path."""
    utt_id, ref_path, wav_path, externals, engines, confidence_threshold = job
    with _naming(f"utterance {utt_id} [reference] {ref_path}"):
        ref = read_reference_track(ref_path)
    if wav_path is not None:
        with _naming(f"utterance {utt_id} [wav] {wav_path}"):
            signal = read_wav(wav_path)
    stats = []
    for algo, config in engines:
        with _naming(f"utterance {utt_id} [{algo}] {wav_path}"):
            stats.append(evaluate_pair(_run_engine(algo, signal, config), ref))
    for label, path in externals:
        with _naming(f"utterance {utt_id} [{label}] {path}"):
            est = read_external_track(path, confidence_threshold=confidence_threshold)
            stats.append(evaluate_pair(est, ref))
    return stats


def format_comparison_csv(rows: list[tuple[str, CorpusStats]]) -> str:
    """Render labelled corpus statistics, each with its FOM, as the comparison table."""
    lines = [_COMPARISON_COLUMNS]
    for label, corpus in rows:
        lines.append(
            f"{label},{corpus.total_frames},{corpus.ref_unvoiced_frames},"
            f"{corpus.u2v_pct:.6g},{corpus.ref_voiced_frames},{corpus.v2u_pct:.6g},"
            f"{corpus.gross_errors},{corpus.fine_frames},{corpus.mean_fine_samples:.6g},"
            f"{corpus.stdev_fine_samples:.6g},{fom_rank(corpus).total}"
        )
    return "\n".join(lines) + "\n"


def _worker_count(args) -> int:
    """``--jobs``, a positive integer."""
    try:
        jobs = int(args.jobs)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, got {args.jobs!r}")
    return jobs


def _table_labels(algos: list[str], externals: list[tuple[str, Path]]) -> list[str]:
    """The comparison table's row labels: at least one, each once, and none
    holding a character that would break its CSV row."""
    labels = algos + [label for label, _directory in externals]
    if not labels:
        raise UsageError("nothing to compare: pass --algos, --external or both")
    for label in labels:
        if "," in label or '"' in label or label.splitlines() != [label]:
            raise UsageError(f"label {label!r} holds a comma, a double quote or a line break")
        if labels.count(label) > 1:
            raise UsageError(f"label {label!r} is used more than once")
    return labels


def cmd_compare(args) -> int:
    _check_confidence_threshold(args.confidence_threshold)
    n_workers = _worker_count(args)

    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        _check_algo(algo, "crepe tracks are external; pass --external crepe=<dir>")

    externals = []
    for binding in args.external or []:
        label, sep, directory = binding.partition("=")
        if not sep or not label or not directory:
            raise UsageError(f"--external expects label=dir, got {binding!r}")
        externals.append((label, Path(directory)))
    labels = _table_labels(algos, externals)

    with _naming(args.manifest, UnicodeDecodeError):
        entries = _read_manifest(args.manifest)
    if not entries:
        raise UsageError(f"manifest {args.manifest} lists no utterances")
    entries.sort(key=lambda e: e[0])

    engines = [(algo, _engine_config(algo, args)) for algo in algos]
    # only an engine decodes the WAV
    jobs = [
        (utt, ref, wav if engines else None,
         [(label, directory / f"{utt}.csv") for label, directory in externals],
         engines, args.confidence_threshold)
        for utt, wav, ref in entries
    ]
    missing = [f"error: utterance {job[0]} [{label}] {path}: missing input"
               for job in jobs for label, path in _inputs(job) if not path.is_file()]
    for line in missing:
        _print_error(line)
    if missing:
        return 1

    # a pool forks all its workers at once: no more than there are utterances
    n_workers = min(n_workers, len(jobs))
    if n_workers > 1:
        # looked up on the module, so that its __getattr__ and any
        # replacement of the name apply
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=n_workers) as pool:
            scored = list(pool.map(_score_utterance, jobs))
    else:
        scored = [_score_utterance(job) for job in jobs]

    rows = [(label, aggregate([stats[column] for stats in scored]))
            for column, label in enumerate(labels)]
    _write_text(args.out, format_comparison_csv(rows))
    return 0


def cmd_hist(args) -> int:
    if not 0 < args.bin_hz < float("inf"):
        raise UsageError(f"--bin-hz must be finite and > 0, got {args.bin_hz}")
    with _naming(args.ref, UnicodeDecodeError):
        ref = read_reference_track(args.ref)
    with _naming(args.ref):
        bins = pitch_histogram(ref, bin_width_hz=args.bin_hz)
    _write_text(args.out, "bin_low_hz,count\n" + "".join(f"{low:.6g},{n}\n" for low, n in bins))
    return 0


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: tests, scripts and the
    benchmark call ``main`` many times in one interpreter."""
    parser = argparse.ArgumentParser(
        prog="pitchbench",
        description="Pitch detection engines and pitch-track evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run an engine on one WAV file")
    detect.add_argument("--algo", required=True, help="pyin or yaapt")
    detect.add_argument("--in", dest="in_wav", required=True, help="input WAV path")
    detect.add_argument("--out", required=True, help="output track CSV path")
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
        "--jobs", default="1", help="worker processes, at most one per utterance (default: 1)",
    )
    compare.set_defaults(func=cmd_compare)
    for dest in _ENGINE_FLAGS:
        for command in (detect,) if dest == "hop_ms" else (detect, compare):
            command.add_argument("--" + dest.replace("_", "-"), type=float)

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
        _print_error(f"usage error: {exc}")
        return 2
    except _ERRORS as exc:
        _print_error(f"error: {exc}")
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
