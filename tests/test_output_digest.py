"""scripts/output_digest.py: one SHA-256 over every output, the same on every run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def _script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reduced_grid_twice(capsys):
    script = _script()
    # the first run builds the cached tables and designs, the second reads them
    first = script.output_digest((8000, 44100), (0.05, 1.0))
    assert len(first) == 64 and int(first, 16) >= 0
    assert script.main(["--rates", "8000,44100", "--durations", "0.05,1"]) == 0
    assert capsys.readouterr().out == first + "\n"
    assert script.output_digest((8000,), (0.05,)) != first


def test_noise_clip_opens_with_silence():
    clip = _script().noise_clip(8000, 0.5, seed=3)
    assert len(clip.samples) == 4000 and clip.sample_rate == 8000
    assert not clip.samples[:1000].any() and clip.samples[1000:].all()
