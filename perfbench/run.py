#!/usr/bin/env python3
"""Layered benchmark of pitchbench's command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-48k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

The benchmark writes a seeded corpus under ``.perfbench_work/``, then
drives ``pitchbench.cli.main`` in this process as one closed-loop client
(the next operation starts when the previous one returns):

* per-file ops: ``detect`` of one WAV into a track CSV, then ``evaluate``
  of that track against the utterance's reference, timed as one op (on
  ``external-scoring``: one ``evaluate`` of an external track);
* corpus ops: one ``compare`` over the workload's manifest.

Before the timed loop, one untimed rate probe scores a short utterance at
each rate ``read_wav`` accepts besides the workloads' 16 and 48 kHz. The
share of probes that succeed is a metric of its own, so that a rate the
program rejects shows there and the timed operations stay free of known
failures.

End-to-end times are wall times scaled to a reference host speed measured
next to every operation (see SpeedGauge), because a shared host's speed
drifts between runs; the raw wall times are kept in the results file.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps the package's public functions from outside (see tracing.py) and
reports the per-layer metrics. Every output is checked; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
Results, output digests and the environment go to ``.perfbench_results/``.
Exit code: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no pitchbench sources.
"""
import os

# pinned before numpy is imported; compare's pool workers inherit them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import csv
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
NPROC = len(os.sched_getaffinity(0))

MIN_FILE_OPS = 100  # so that p90 has at least ten samples beyond it
MIN_COMPARES = 3
SETUP_REPEATS = 5
PROBE_RATES = (8000, 11025, 22050, 44100)  # read_wav rates besides 16 and 48 kHz
EXTERNAL_LABELS = ("L1", "L2")
TABLE_COUNTERS = ("total_frames", "ref_unvoiced_frames", "ref_voiced_frames",
                  "u2v_errors", "v2u_errors", "gross_errors", "fine_frames")


@dataclass(frozen=True)
class Workload:
    """One set of inputs; BENCHMARK.json says why each exists.
    ``file_share`` is the part of the measured time given to per-file
    ops; the rest goes to compare ops."""

    name: str
    jobs: int
    file_share: float
    rate: int = 16000
    durations_s: tuple = ()
    voiced_share: float = 0.5
    segment_s: float = 0.3
    sources: str = "H"  # voiced-segment source kinds, see corpus._voiced_source
    n_tracks: int = 0
    n_frames: int = 0

    @property
    def external(self) -> bool:
        return self.n_tracks > 0


WORKLOADS = {w.name: w for w in (
    # expensive calls (3169-tap bandpass, 1920/1680-sample lag frames, 3:1
    # decimation, most frames NLFER-gated into the SHC loop), one process
    Workload("corpus-48k", jobs=1, file_share=0.5, rate=48000,
             durations_s=(1.0,) * 8, voiced_share=0.75, segment_s=0.3,
             sources="HOMO"),
    # cheap frames, so fixed per-frame Python costs weigh more; many short
    # files exercise compare's pools
    Workload("corpus-16k-parallel", jobs=NPROC, file_share=0.4, rate=16000,
             durations_s=tuple(1.0 + i / 11 for i in range(12)), voiced_share=0.5,
             segment_s=0.25, sources="HMHO"),
    # engines idle: only track reading and scoring
    Workload("external-scoring", jobs=1, file_share=0.35, n_tracks=24, n_frames=6000),
)}


if not (SRC / "pitchbench" / "cli.py").is_file():
    print(f"perfbench: no pitchbench sources under {SRC}; run from the root of a checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import corpus  # noqa: E402
import tracing  # noqa: E402
import pitchbench.cli as cli  # noqa: E402


def _modules(*names: str) -> dict:
    found = {}
    for name in names:
        with contextlib.suppress(ImportError):
            found[name] = importlib.import_module(name)
    return found


MODULES = _modules("pitchbench.cli", "pitchbench.pyin", "pitchbench.yaapt")


# ---------------------------------------------------------------------------
# Calling the CLI and checking what it wrote
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in this process; returns (exit code, its stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_table(path: Path) -> dict[str, dict[str, float]]:
    """Comparison CSV -> label -> counters, with u2v/v2u recovered as
    whole frame counts from their percentages."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            unvoiced, voiced = int(row["unvoiced_frames"]), int(row["voiced_frames"])
            u2v = float(row["u2v_pct"]) * unvoiced / 100
            v2u = float(row["v2u_pct"]) * voiced / 100
            rows[row["pda"]] = {
                "total_frames": int(row["total_frames"]),
                "ref_unvoiced_frames": unvoiced,
                "ref_voiced_frames": voiced,
                "u2v_errors": round(u2v),
                "v2u_errors": round(v2u),
                "gross_errors": int(row["gross_errors"]),
                "fine_frames": int(row["fine_frames"]),
                "mean_fine_samples": float(row["mean_fine"]),
                "stdev_fine_samples": float(row["stdev_fine"]),
                "_rounding": max(abs(u2v - round(u2v)), abs(v2u - round(v2u))),
            }
    return rows


def identity_problems(where: str, s: dict) -> list[str]:
    problems = []
    if s["ref_voiced_frames"] + s["ref_unvoiced_frames"] != s["total_frames"]:
        problems.append(f"{where}: voiced + unvoiced != total")
    if s["gross_errors"] + s["fine_frames"] != s["ref_voiced_frames"] - s["v2u_errors"]:
        problems.append(f"{where}: fine + gross != both-voiced")
    if s.get("_rounding", 0.0) > 0.05:
        problems.append(f"{where}: voicing-error percentages are not whole frame counts")
    return problems


def pooled(stats: list[dict]) -> dict:
    """Corpus counters and pooled fine-error mean/stdev of per-file stats."""
    out = {k: sum(s[k] for s in stats) for k in TABLE_COUNTERS}
    n = out["fine_frames"]
    if n:
        mean = sum(s["mean_fine_samples"] * s["fine_frames"] for s in stats) / n
        second = sum((s["stdev_fine_samples"] ** 2 + s["mean_fine_samples"] ** 2) * s["fine_frames"]
                     for s in stats) / n
        out["mean_fine_samples"], out["stdev_fine_samples"] = mean, max(second - mean * mean, 0.0) ** 0.5
    else:
        out["mean_fine_samples"] = out["stdev_fine_samples"] = 0.0
    return out


def agreement_problems(where: str, table: dict, expected: dict, fine_tol: float | None) -> list[str]:
    """Table counters must equal ``expected`` exactly; fine-error moments
    within ``fine_tol`` when given."""
    problems = [f"{where}: {k} is {table[k]}, expected {expected[k]}"
                for k in TABLE_COUNTERS if table[k] != expected[k]]
    if fine_tol is not None:
        for k in ("mean_fine_samples", "stdev_fine_samples"):
            if abs(table[k] - expected[k]) > fine_tol:
                problems.append(f"{where}: {k} is {table[k]:.6g}, expected {expected[k]:.6g}")
    return problems


@dataclass
class Ledger:
    """Everything measured and checked in one run."""

    attempted: int = 0
    failed: int = 0
    op_ms: list[float] = field(default_factory=list)  # wall time
    op_scale: list[float] = field(default_factory=list)  # gauge factor per op
    compare_s: list[float] = field(default_factory=list)
    compare_scale: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    table_digests: dict[str, str] = field(default_factory=dict)  # label -> digest
    tables: dict[str, dict] = field(default_factory=dict)  # label -> parsed table
    track_digests: dict[str, str] = field(default_factory=dict)  # "algo/utt" -> digest
    file_stats: dict[str, dict[str, dict]] = field(default_factory=dict)  # algo -> utt -> stats

    def fail(self, what: str, message: str, count: bool = True) -> None:
        if count:
            self.failed += 1
        key = f"{what}: {message.splitlines()[-1] if message else 'failed'}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FileOp:
    algo: str  # engine, or an external label
    utt: corpus.Utterance
    rate: int
    est: Path | None = None  # external track; None for engine ops


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True)
        if workload.external:
            self.corpus = corpus.external_corpus(work / "corpus", seed, workload.n_tracks,
                                                 workload.n_frames, EXTERNAL_LABELS)
        else:
            self.corpus = corpus.engine_corpus(
                work / "corpus", seed, workload.rate, list(workload.durations_s),
                workload.voiced_share, workload.segment_s, workload.sources)
        utts = self.corpus.utterances
        if workload.external:
            self.cycle = [FileOp(label, u, 0, self.corpus.externals[label] / f"{u.utt_id}.csv")
                          for u in utts for label in EXTERNAL_LABELS]
        else:
            self.cycle = [FileOp(algo, u, workload.rate)
                          for u in utts for algo in ("pyin", "yaapt")]

    def rate_probes(self, ledger: Ledger) -> float:
        """Untimed detect + evaluate of one short utterance per engine at
        each rate of PROBE_RATES; returns the share that succeeded. A
        failure is recorded in the ledger's failures, not counted as a
        failed op; statistics that break the counter identities are
        still a failed check."""
        ok = 0
        ops = []
        for rate in PROBE_RATES:
            probe = corpus.engine_corpus(self.work / f"probe{rate}", self.seed, rate, [0.6],
                                         0.6, 0.3, "H", prefix=f"probe{rate}_")
            ops += [FileOp(algo, probe.utterances[0], rate) for algo in ("pyin", "yaapt")]
        for op in ops:
            track, stats_path = self.out / "probe.csv", self.out / "probe.json"
            code, err = self.cli(["detect", "--algo", op.algo, "--in", str(op.utt.wav),
                                  "--out", str(track)])
            if code == 0:
                code, err = self.cli(["evaluate", "--est", str(track), "--ref", str(op.utt.ref),
                                      "--out", str(stats_path)])
            if code != 0:
                ledger.fail(f"rate probe {op.algo} at {op.rate} Hz", err, count=False)
                continue
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            problems = identity_problems(f"rate probe {op.algo} at {op.rate} Hz", stats)
            for p in problems:
                ledger.problem(p)
            ok += not problems
        return ok / len(ops)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        code, err = run_cli(argv)
        return code, err.replace(f"{self.work}{os.sep}", "")

    def compare_argv(self, jobs: int, out: Path) -> list[str]:
        argv = ["compare", "--manifest", str(self.corpus.manifest), "--out", str(out),
                "--jobs", str(jobs)]
        if self.w.external:
            argv += ["--algos", ""]
            for label, directory in self.corpus.externals.items():
                argv += ["--external", f"{label}={directory}"]
        else:
            argv += ["--algos", "pyin,yaapt"]
        return argv

    # -- per-file op ---------------------------------------------------------

    def file_op(self, op: FileOp, ledger: Ledger | None) -> None:
        """One timed per-file op, checked; ``ledger`` None for warm-up."""
        key = f"{op.algo}/{op.utt.utt_id}"
        track = op.est or self.out / "track.csv"
        stats_path = self.out / "stats.json"
        t0 = time.perf_counter()
        code, err = 0, ""
        if op.est is None:
            code, err = self.cli(["detect", "--algo", op.algo, "--in", str(op.utt.wav),
                                 "--out", str(track)])
        if code == 0:
            code, err = self.cli(["evaluate", "--est", str(track), "--ref", str(op.utt.ref),
                                 "--out", str(stats_path)])
        elapsed = time.perf_counter() - t0
        if ledger is None:
            return
        ledger.attempted += 1
        ledger.op_ms.append(1000 * elapsed)
        if op.est is None and track.is_file():
            self._record_track(ledger, key, track.read_bytes())
        if code != 0:
            where = f" at {op.rate} Hz" if op.rate else ""
            ledger.fail(f"{op.algo}{where}", err)
            return
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        problems = identity_problems(f"evaluate {key}", stats)
        if op.est is not None:
            problems += agreement_problems(f"evaluate {key}", stats,
                                           self.corpus.expected[op.algo][op.utt.utt_id], None)
        for p in problems:
            ledger.problem(p)
        if problems:
            ledger.fail(f"evaluate {op.algo}", "wrong statistics")
        else:
            ledger.file_stats.setdefault(op.algo, {}).setdefault(op.utt.utt_id, stats)

    @staticmethod
    def _record_track(ledger: Ledger, key: str, data: bytes) -> None:
        digest = sha256(data)
        first = ledger.track_digests.setdefault(key, digest)
        if first != digest:
            ledger.problem(f"detect {key}: output differs between repeats")

    # -- compare op ----------------------------------------------------------

    def compare_op(self, ledger: Ledger, jobs: int, label: str, timed: bool = True,
                   tracer: tracing.Tracer | None = None) -> float:
        """One compare, checked; returns its wall time. With a tracer, the
        call is its root span ``cli.compare``."""
        out = self.out / f"table-{label}.csv"
        root = tracer.open("cli.compare") if tracer else None
        t0 = time.perf_counter()
        code, err = self.cli(self.compare_argv(jobs, out))
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
        if timed:
            ledger.attempted += 1
        if code != 0:
            ledger.fail(f"compare {label}", err, count=timed)
            ledger.problem(f"compare {label} exited {code}: {err}")
            return elapsed
        data = out.read_bytes()
        first = ledger.table_digests.setdefault(label, sha256(data))
        if first != sha256(data):
            ledger.problem(f"compare {label}: table differs between repeats")
        if label not in ledger.tables:
            table = read_table(out)
            ledger.tables[label] = table
            for row, counters in table.items():
                for p in identity_problems(f"compare {label} row {row}", counters):
                    ledger.problem(p)
            if self.w.external:
                for row in EXTERNAL_LABELS:
                    expected = {k: sum(c[k] for c in self.corpus.expected[row].values())
                                for k in TABLE_COUNTERS}
                    for p in agreement_problems(f"compare {label} row {row} vs injected",
                                                table[row], expected, None):
                        ledger.problem(p)
        return elapsed

    def check_against_files(self, ledger: Ledger, label: str) -> None:
        """Engine workloads: the compare table equals the aggregate of the
        per-file evaluate statistics."""
        table = ledger.tables.get(label)
        if self.w.external or table is None:
            return
        ids = [u.utt_id for u in self.corpus.utterances]
        for algo in ("pyin", "yaapt"):
            done = ledger.file_stats.get(algo, {})
            missing = [i for i in ids if i not in done]
            if missing:
                ledger.problem(f"{algo}: no successful per-file op for {len(missing)} utterances")
                continue
            # f0 passes through the 6-digit track CSV on the per-file path only
            for p in agreement_problems(f"compare {label} row {algo} vs per-file evaluate",
                                        table[algo], pooled([done[i] for i in ids]), 1e-3):
                ledger.problem(p)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

# Kernel time of SpeedGauge on an idle Intel Xeon (2 vCPUs) host, which
# defines the reference speed the end-to-end times are scaled to.
REFERENCE_KERNEL_S = 0.0007


class SpeedGauge:
    """Speed of the host, sampled between timed operations.

    On a shared host the CPU speed available to one process moves by
    10-40% from second to second and from run to run; repetition inside
    a run does not average out the part that differs between runs. A
    fixed kernel resembling the engines' per-frame work (an FFT of one
    2048-sample frame plus a short Python loop, about 0.7 ms) is timed
    before every operation, and an operation's wall time is scaled by
    REFERENCE_KERNEL_S / (median kernel time within WINDOW_S, or within
    the operation's own duration if longer, of the operation). The
    window is short because the host's speed changes within a second: on
    a 2-vCPU host the scaled per-file op times followed the gauge with a
    correlation of 0.8 at 0.2-0.5 s and of 0.6 at 2 s. A compare spans
    seconds, so its window does too, which gives its scale enough
    samples. The gauge code is the benchmark's own, so the
    program under test cannot change it. Raw wall times are kept in the
    results file."""

    WINDOW_S = 0.3

    def __init__(self):
        self.times: list[float] = []  # end of each sample, increasing
        self.samples: list[float] = []
        self._frame = np.sin(np.arange(2048) * 0.01)

    def tick(self, n: int = 1) -> None:
        """Time the kernel n times."""
        for _ in range(n):
            t0 = time.perf_counter()
            for _ in range(15):
                scipy.fft.rfft(self._frame, 4096)
                acc = 0.0
                for i in range(150):
                    acc += i * 0.5
            t1 = time.perf_counter()
            self.times.append(t1)
            self.samples.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """Factor from wall time to reference time for an operation that
        ran from ``start`` to ``end`` (perf_counter seconds)."""
        window = max(self.WINDOW_S, end - start)
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, end + window)
        return REFERENCE_KERNEL_S / statistics.median(self.samples[lo:hi] or self.samples)


SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
from pitchbench.cli import main
for algo in ("pyin", "yaapt"):
    if main(["detect", "--algo", algo, "--in", sys.argv[1], "--out", sys.argv[2]]) != 0:
        sys.exit(1)
print(time.perf_counter() - t0)
"""


def setup_once(bench: Bench) -> float:
    """Wall seconds a fresh interpreter takes to import pitchbench.cli and
    run the first detect of each engine on a 0.1 s clip at the workload's
    rate."""
    rate = bench.w.rate
    clip = bench.work / "setup.wav"
    if not clip.is_file():
        t = np.arange(int(0.1 * rate)) / rate
        corpus.write_wav(clip, 0.5 * np.sin(2 * np.pi * 150.0 * t), rate)
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(clip), str(bench.out / "setup.csv")],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    # set-up interpreters do less than this process, so they never set it
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def accuracy(table: dict) -> tuple[float, float]:
    """VDE and GPE in %, pooled over every row of a compare table."""
    total = sum(r["total_frames"] for r in table.values())
    voicing = sum(r["u2v_errors"] + r["v2u_errors"] for r in table.values())
    gross = sum(r["gross_errors"] for r in table.values())
    both = sum(r["gross_errors"] + r["fine_frames"] for r in table.values())
    return 100.0 * voicing / total, (100.0 * gross / both if both else 0.0)


def p50_p90(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def run_end_to_end(bench: Bench, seconds: float) -> tuple[Ledger, dict, dict]:
    """Closed loop of per-file ops and compares, interleaved so that the
    compares take the workload's share of the time spread over the run;
    the per-file ops run in whole cycles, so every run samples one mix.
    The set-up interpreters are spread over the run too, outside its
    measured time, so that their median sees the same host as the ops."""
    ledger = Ledger()
    gauge = SpeedGauge()
    jobs = bench.w.jobs
    # warm-up of each engine or label; the median compare absorbs the
    # first pool's one-time imports
    for algo in dict.fromkeys(op.algo for op in bench.cycle):
        bench.file_op(next(op for op in bench.cycle if op.algo == algo), None)
    probe_share = bench.rate_probes(ledger)

    op_spans: list[tuple[float, float]] = []
    compare_spans: list[tuple[float, float]] = []
    setup_wall: list[float] = []
    setup_spans: list[tuple[float, float]] = []
    compare_time = 0.0
    paused = 0.0  # time spent in set-up interpreters
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if len(setup_wall) < SETUP_REPEATS and elapsed >= len(setup_wall) * seconds / SETUP_REPEATS:
            gauge.tick(3)
            t0 = time.perf_counter()
            setup_wall.append(setup_once(bench))
            setup_spans.append((t0, time.perf_counter()))
            gauge.tick(3)
            paused += time.perf_counter() - t0
            continue
        n_ops = len(op_spans)
        ops_done = n_ops >= MIN_FILE_OPS and n_ops % len(bench.cycle) == 0
        if elapsed >= seconds:
            if ops_done and len(ledger.compare_s) >= MIN_COMPARES:
                break
            compare_next = ops_done
        else:
            compare_next = compare_time < (1 - bench.w.file_share) * elapsed
        if compare_next:
            gauge.tick(3)
            t0 = time.perf_counter()
            ledger.compare_s.append(bench.compare_op(ledger, jobs, "main"))
            compare_spans.append((t0, time.perf_counter()))
            compare_time += ledger.compare_s[-1]
        else:
            gauge.tick()
            t0 = time.perf_counter()
            bench.file_op(bench.cycle[n_ops % len(bench.cycle)], ledger)
            op_spans.append((t0, time.perf_counter()))
    gauge.tick(3)
    ledger.op_scale = [gauge.scale(*span) for span in op_spans]
    ledger.compare_scale = [gauge.scale(*span) for span in compare_spans]
    bench.check_against_files(ledger, "main")
    rss = peak_rss_mb()
    setup = statistics.median(w * gauge.scale(*span) for w, span in zip(setup_wall, setup_spans))

    vde, gpe = accuracy(ledger.tables["main"]) if "main" in ledger.tables else (0.0, 0.0)
    p50, p90 = p50_p90([ms * f for ms, f in zip(ledger.op_ms, ledger.op_scale)])
    audio = bench.corpus.seconds
    rtf = statistics.median(s * f for s, f in zip(ledger.compare_s, ledger.compare_scale)) / audio
    metrics = {
        "setup_s": (setup, "s"),
        "compare_rtf": (rtf, "s/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "rate_probe_ok_share": (probe_share, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "vde_pct": (vde, "%"),
        "gpe_pct": (gpe, "%"),
    }
    wall_p50, wall_p90 = p50_p90(ledger.op_ms)
    extra = {
        "per_file_ops": len(op_spans), "compare_ops": len(ledger.compare_s), "audio_s": audio,
        "wall": {"setup_s": statistics.median(setup_wall), "compare_rtf": statistics.median(ledger.compare_s) / audio,
                 "op_p50_ms": wall_p50, "op_p90_ms": wall_p90},
        "gauge_median_s": statistics.median(gauge.samples),
        "series": {"setup_s": setup_wall, "op_ms": ledger.op_ms, "op_scale": ledger.op_scale,
                   "compare_s": ledger.compare_s, "compare_scale": ledger.compare_scale,
                   "gauge_t": [t - start for t in gauge.times], "gauge_s": gauge.samples},
        "rows": {label: dict(zip(("vde_pct", "gpe_pct"), accuracy({label: row})))
                 for label, row in ledger.tables.get("main", {}).items()},
    }
    return ledger, metrics, extra


def run_traced(bench: Bench, seconds: float) -> tuple[Ledger, dict, dict]:
    """Engine layers traced at --jobs 1, alternating with untraced compares
    for the overhead; one traced pass of per-file ops; pool counts at the
    workload's own --jobs."""
    ledger = Ledger()
    gauge = SpeedGauge()
    bench.compare_op(ledger, 1, "jobs1", timed=False)  # warm-up
    compare_tracer = tracing.Tracer()
    plain, traced = [], []  # wall times
    plain_spans, traced_spans = [], []
    budget = time.perf_counter() + 0.7 * seconds
    while time.perf_counter() < budget or len(traced) < 2:
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            gauge.tick(3)
            t0 = time.perf_counter()
            if not with_trace:
                plain.append(bench.compare_op(ledger, 1, "jobs1"))
                plain_spans.append((t0, time.perf_counter()))
                continue
            tracing.install(compare_tracer, MODULES)
            try:
                traced.append(bench.compare_op(ledger, 1, "traced", tracer=compare_tracer))
            finally:
                compare_tracer.uninstall()
            traced_spans.append((t0, time.perf_counter()))
    gauge.tick(3)
    # scaled to the reference speed, for the overhead
    plain_ref = [w * gauge.scale(*span) for w, span in zip(plain, plain_spans)]
    traced_ref = [w * gauge.scale(*span) for w, span in zip(traced, traced_spans)]
    if ledger.table_digests.get("traced") != ledger.table_digests.get("jobs1"):
        ledger.problem("traced and untraced compare tables differ")

    op_tracer = tracing.Tracer()
    tracing.install(op_tracer, MODULES, pool=False)
    try:
        for op in bench.cycle:
            bench.file_op(op, ledger)
    finally:
        op_tracer.uninstall()
    bench.check_against_files(ledger, "jobs1")

    pool_tracer = compare_tracer
    if bench.w.jobs > 1:
        pool_tracer = tracing.Tracer()
        tracing.install(pool_tracer, MODULES, engines=False)
        try:
            bench.compare_op(ledger, bench.w.jobs, "jobsN", tracer=pool_tracer)
        finally:
            pool_tracer.uninstall()
        if ledger.table_digests.get("jobsN") != ledger.table_digests.get("jobs1"):
            ledger.problem(f"--jobs {bench.w.jobs} and --jobs 1 compare tables differ")

    overhead = 100.0 * (statistics.median(traced_ref) / statistics.median(plain_ref) - 1.0)
    metrics, absent = tracing.layer_metrics(
        compare_tracer, op_tracer, pool_tracer, len(bench.corpus.utterances), overhead)
    partition = sum(metrics[m] for m in tracing.SELF_TIME.values())
    wall = statistics.mean(traced)
    closure = abs(partition - wall) / wall
    if closure > 0.03:
        ledger.problem(f"layer self times sum to {partition:.4f} s, traced compare took {wall:.4f} s")
    units = {name: unit for name, (unit, *_rest) in tracing.LAYERS.items()}
    extra = {"absent": absent, "traced_compares": len(traced), "untraced_compares": len(plain),
             "traced_compare_s": wall, "self_time_sum_s": partition, "closure_error": closure,
             "layer_map": {k: {"moves": v[2], "on": v[3]} for k, v in tracing.LAYERS.items()}}
    write_spans(bench, compare_tracer, op_tracer, pool_tracer)
    return ledger, {k: (metrics[k], units[k]) for k in tracing.LAYERS}, extra


def write_spans(bench: Bench, *tracers) -> None:
    path = RESULTS / f"{bench.w.name}-seed{bench.seed}-spans.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tracer,span_id,parent_id,name,start_s,end_s\n")
        seen = set()
        for i, tracer in enumerate(tracers):
            if id(tracer) in seen:
                continue
            seen.add(id(tracer))
            for s in tracer.spans:
                fh.write(f"{i},{s.span_id},{s.parent_id},{s.name},{s.start:.9f},{s.end:.9f}\n")


def environment(seed: int, workload: Workload) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"seed": seed, "workload": workload.name, "jobs": workload.jobs, "nproc": NPROC,
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    try:
        bench = Bench(workload, seed, work)
        ledger, metrics, extra = (run_traced if trace else run_end_to_end)(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    env = environment(seed, workload)
    print(f"# {workload.name} seed {seed} trace {int(trace)}: {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        note = " (absent)" if name in extra.get("absent", ()) else ""
        print(f"{workload.name:<20} {name:<34} {value:>14.6g} {unit}{note}")
    if "per_file_ops" in extra:
        print(f"{workload.name:<20} samples: {extra['per_file_ops']} per-file ops, "
              f"{extra['compare_ops']} compares, {SETUP_REPEATS} set-ups")
    for label, digest in ledger.table_digests.items():
        print(f"digest compare-table {label} sha256:{digest}")
    tracks = sha256("".join(f"{k} {d}\n" for k, d in sorted(ledger.track_digests.items())).encode())
    if ledger.track_digests:
        print(f"digest detect-tracks sha256:{tracks}")
    for what, n in sorted(ledger.failures.items()):
        print(f"failed x{n}: {what}")
    for p in ledger.problems:
        print(f"CHECK FAILED: {p}")
    correct = not ledger.problems
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, environment=env, details=extra, failures=ledger.failures,
                  problems=ledger.problems, digests={
                      "compare_table": ledger.table_digests,
                      "detect_tracks": tracks if ledger.track_digests else None,
                      "detect_track_files": ledger.track_digests})
    (RESULTS / f"{workload.name}-seed{seed}{'-trace' if trace else ''}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh interpreter so that peak RSS and
    set-up stay per workload; one summary line last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            status = 1
            continue
        status = max(status, proc.returncode)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            summary["metrics"][f"{name}/{k}"] = v
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
