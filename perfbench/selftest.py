"""Self-tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hapticwave  # noqa: E402
import engine  # noqa: E402
import run  # noqa: E402
from corpus import WORKLOADS, make_clip  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    return engine.set_up("dataset-cli", 3, tmp_path_factory.mktemp("work"))


def _traced_round(state) -> tuple[engine.Recorder, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        rec = engine.Recorder(hash_rounds=1, tracer=tracer)
        engine.run_round(state, rec, 0)
    finally:
        tracer.uninstall()
    return rec, tracer


def _bindings() -> dict[tuple[str, str], object]:
    found = {(name, attr): value for name, module in sys.modules.items()
             if module is not None and (name == "hapticwave" or name.startswith("hapticwave."))
             for attr, value in vars(module).items() if callable(value)}
    found.update({("numpy.fft", a): getattr(np.fft, a) for a in ("rfft", "irfft")})
    return found


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for build in WORKLOADS.values():
        a, b, c = build(5), build(5), build(6)
        assert [x.source_id for x in a.convert_clips] == [x.source_id for x in b.convert_clips]
        assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a.convert_clips, b.convert_clips))
        assert not np.array_equal(a.convert_clips[0].samples, c.convert_clips[0].samples)
    assert np.array_equal(make_clip(1, 0, 3, 16000, 1.0, "x").samples,
                          make_clip(1, 0, 3, 16000, 1.0, "x").samples)


def test_traced_outputs_are_byte_identical_to_untraced(state):
    plain = engine.Recorder(hash_rounds=1)
    engine.run_round(state, plain, 0)
    traced, _ = _traced_round(state)
    assert plain.failed == 0 and traced.failed == 0
    assert plain.digest.hexdigest() == traced.digest.hexdigest()


def test_every_binding_is_wrapped_then_restored():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        from hapticwave import converters, curation, psychoacoustics
        for module, attr in ((converters, "pitch_shift"), (curation, "pitch_shift"),
                             (psychoacoustics, "hann_window"), (converters, "resample_samples"),
                             (hapticwave.analysis, "stft"), (hapticwave.cli, "run")):
            assert getattr(module, attr) is not before[(module.__name__, attr)], (module, attr)
        assert np.fft.rfft is not before[("numpy.fft", "rfft")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [n for n, _, _ in engine.layer_metric_names()]
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == engine.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    for name in layer + e2e:
        assert NAME.fullmatch(name), name
    assert len(set(layer + e2e)) == len(layer) + len(e2e)


def test_untraced_round_reports_every_end_to_end_metric(state):
    rec = engine.Recorder(hash_rounds=1)
    engine.run_round(state, rec, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = engine.end_to_end(rec, state)
    assert set(produced) | {"setup_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _, _ in produced.values())


def test_layer_counts_repeat_exactly(state):
    counts = []
    for _ in range(2):
        rec, tracer = _traced_round(state)
        stats = tracer.layer_stats()
        counts.append(({k: v["calls"] for k, v in stats.items()}, dict(tracer.counters)))
    assert counts[0] == counts[1]
    assert counts[0][0]["numpy.fft.rfft"] > 0 and counts[0][0]["cli.run.curate"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "dataset-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
