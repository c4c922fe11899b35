"""The benchmark's layer hooks still reach the code the CLI runs.

``perfbench/tracing.py`` times each layer by replacing a name in the
module that looks it up (``HOOKS``). A refactor that routes a call past
that name, say through a private alias, leaves the hook bound but never
called, and its layer metric silently reads 0. This test wraps every
hooked name that exists with a call counter, without changing ``HOOKS``,
runs ``detect`` and ``compare`` over both engines and one external
label, and checks which bound names went uncalled.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from pitchbench.cli import main
from conftest import sawtooth, sine
from test_cli import write_reference_for_tone, write_wav

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# pYIN's one-frame pyin_candidates is public but the engine extracts
# candidates a block at a time; ROADMAP item 1 replaces this hook
NEVER_CALLED = {"pitchbench.pyin.pyin_candidates"}


def load_hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def small_corpus(root: Path, rate: int = 16000) -> tuple[Path, Path]:
    """Two tones between silences, their references and one external
    track each; returns the manifest and the external directory."""
    ext = root / "ext"
    ext.mkdir()
    lines = ["utterance_id,wav_path,reference_path"]
    for i, samples in enumerate([sine(150.0, 0.4, rate), sawtooth(220.0, 0.4, rate)]):
        silence = np.zeros(int(0.1 * rate))
        samples = np.concatenate([silence, samples, silence])
        write_wav(root / f"u{i}.wav", rate, samples)
        n_frames = samples.size * 100 // rate + 1
        write_reference_for_tone(root / f"u{i}.txt", n_frames, 200.0, (12, 48))
        rows = ["time_s,f0_hz,confidence"]
        rows += [f"{k * 0.01:.6f},200.0,{0.3 + 0.6 * (k % 2)}" for k in range(n_frames)]
        (ext / f"u{i}.csv").write_text("\n".join(rows) + "\n")
        lines.append(f"u{i},u{i}.wav,u{i}.txt")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest, ext


def test_every_bound_hook_is_called(tmp_path, monkeypatch):
    calls = {}
    for mod, attr, *_rest in load_hooks(monkeypatch):
        module = importlib.import_module(mod)
        target = getattr(module, attr, None)
        if target is None:  # absent hooks are reported as such, not read as 0
            continue
        name = f"{mod}.{attr}"
        calls[name] = 0

        def counted(*args, _target=target, _name=name, **kwargs):
            calls[_name] += 1
            return _target(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    manifest, ext = small_corpus(tmp_path)
    for algo in ("pyin", "yaapt"):
        out = tmp_path / f"{algo}.csv"
        assert main(["detect", "--algo", algo, "--in", str(tmp_path / "u0.wav"),
                     "--out", str(out)]) == 0
    assert main([
        "compare", "--manifest", str(manifest), "--algos", "pyin,yaapt", "--jobs", "1",
        "--external", f"ext={ext}", "--out", str(tmp_path / "table.csv"),
    ]) == 0
    assert {name for name, n in calls.items() if n == 0} == NEVER_CALLED
