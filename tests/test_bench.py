"""Tests for the benchmark corpus protocol and timing harness."""

from __future__ import annotations

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hapticwave
from hapticwave.audio_io import AudioClip
from hapticwave import bench
from hapticwave.bench import (
    BenchRunError,
    build_bench_corpus,
    format_results,
    results_to_json,
    run_bench,
)
from hapticwave.errors import ProtocolError

BENCH_SR = 32000  # any rate converts; 32 kHz is cheaper than 44.1 kHz


def make_bench_clips(count: int = 50, sr: int = BENCH_SR) -> list[AudioClip]:
    clips = []
    for i in range(count):
        rng = np.random.default_rng(7000 + i)
        t = np.arange(5 * sr) / sr
        x = (0.5 + 0.4 * np.sin(2 * np.pi * (1 + i % 4) * t)) \
            * np.sin(2 * np.pi * (200 + 37 * (i % 7)) * t)
        x += 0.002 * rng.standard_normal(len(t))
        clips.append(AudioClip(0.8 * x / np.max(np.abs(x)), sr, f"bench{i:02d}"))
    return clips


@pytest.fixture(scope="module")
def bench_clips() -> list[AudioClip]:
    return make_bench_clips()


class TestCorpus:
    def test_set_sizes(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        sizes = {d: len(v) for d, v in corpus.items()}
        assert sizes == {1: 250, 2: 100, 5: 50, 10: 50, 20: 50}

    def test_one_second_segments_concatenate_losslessly(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        source = bench_clips[0]
        segments = [c for c in corpus[1] if c.source_id.startswith("bench00#")]
        joined = np.concatenate([c.samples for c in segments])
        assert np.array_equal(joined, source.samples)

    def test_two_second_segments_drop_last_second(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        segs = [c for c in corpus[2] if c.source_id.startswith("bench00#")]
        assert len(segs) == 2
        assert all(len(c.samples) == 2 * BENCH_SR for c in segs)

    def test_repeated_clip_halves_identical(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        ten = corpus[10][0].samples
        half = len(ten) // 2
        assert np.array_equal(ten[:half], ten[half:])

    def test_long_sets_built_on_read(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        for duration, repeats in ((10, 2), (20, 4)):
            clip = corpus[duration][3]
            assert clip.source_id == f"bench03#{duration}s"
            assert clip.sample_rate == BENCH_SR
            assert np.array_equal(clip.samples, np.tile(bench_clips[3].samples, repeats))
            assert [corpus[duration][i].source_id for i in (48, -1)] == \
                [f"bench48#{duration}s", f"bench49#{duration}s"]

    def test_corpus_holds_no_copies(self, bench_clips):
        # 50 tiled copies of 5 s at 32 kHz would take 300 MB
        tracemalloc.start()
        try:
            build_bench_corpus(bench_clips)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_wrong_count_rejected(self, bench_clips):
        with pytest.raises(ProtocolError):
            build_bench_corpus(bench_clips[:49])

    def test_wrong_duration_rejected(self, bench_clips):
        short = AudioClip(np.ones(BENCH_SR), BENCH_SR, "short")
        with pytest.raises(ProtocolError):
            build_bench_corpus(bench_clips[:49] + [short])


class TestRunBench:
    def test_result_grid(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        subset = {1: corpus[1]}
        results = run_bench(subset, algorithms=("hapticgen",))
        assert len(results) == 1
        row = results[0]
        assert row.clip_count == 250
        assert row.mean_latency_s > 0.0
        assert row.sd_latency_s >= 0.0

    def test_percentiles_from_a_fake_clock(self, bench_clips, monkeypatch):
        # clip i takes (i + 1) ms, except the last, which takes 1 s
        latencies = [0.001 * (i + 1) for i in range(249)] + [1.0]
        readings = iter(t for latency in latencies for t in (0.0, latency))
        monkeypatch.setattr(bench.time, "perf_counter", lambda: next(readings))
        (row,) = run_bench({1: build_bench_corpus(bench_clips)[1]}, algorithms=("hapticgen",))
        assert next(readings, None) is None
        # linear interpolation between the 125th and 126th, and the 237th and 238th, values
        assert row.p50_latency_s == pytest.approx(0.1255, rel=1e-12)
        assert row.p95_latency_s == pytest.approx(0.23755, rel=1e-12)
        assert row.max_latency_s == 1.0
        assert row.mean_latency_s == pytest.approx((0.001 * 249 * 250 / 2 + 1.0) / 250, rel=1e-12)
        text = format_results([row]).splitlines()
        assert text[1].split()[-3:] == ["0.1255", "0.2376", "1.0000"]
        assert json.loads(results_to_json([row]))[0]["p95_latency_s"] == row.p95_latency_s

    def test_latency_monotone_in_duration(self, bench_clips):
        # A busy neighbour can slow one set within a run; the element-wise
        # minimum over up to three runs keeps each set's least-disturbed mean.
        corpus = build_bench_corpus(bench_clips)
        subset = {1: corpus[1], 2: corpus[2], 5: corpus[5]}
        latencies = np.full(3, np.inf)
        for _ in range(3):
            results = run_bench(subset, algorithms=("hapticgen",))
            latencies = np.minimum(latencies, [
                r.mean_latency_s for r in sorted(results, key=lambda r: r.duration_s)])
            if np.all(np.diff(latencies) >= 0):
                break
        assert list(latencies) == sorted(latencies)

    def test_failure_reports_clip_id(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        silent = AudioClip(np.zeros(BENCH_SR), BENCH_SR, "dead-clip")
        broken = {1: [silent] + corpus[1][:249]}
        with pytest.raises(BenchRunError) as err:
            run_bench(broken, algorithms=("hapticgen",))
        assert "dead-clip" in str(err.value)

    def test_set_of_the_wrong_size_rejected(self, bench_clips):
        with pytest.raises(ProtocolError, match="^1 s set has 3 clips, expected 250$"):
            run_bench({1: bench_clips[:1] * 3}, algorithms=("hapticgen",))

    def test_unknown_algorithm(self, bench_clips):
        corpus = build_bench_corpus(bench_clips)
        with pytest.raises(ValueError):
            run_bench({1: corpus[1]}, algorithms=("nope",))


# Layers perfbench/tracer.py still lists although the function is gone.
DELETED_TRACED_LAYERS = {
    "psychoacoustics.specific_loudness_bark",
    "psychoacoustics.bark_band_powers",
    "psychoacoustics.frame_roughness",
    "psychoacoustics.spectral_peaks",
    "audio_io.rms_normalize",
}


def test_traced_layers_resolve_or_are_known_deleted():
    # The tracer skips a layer it cannot resolve, so a renamed function would
    # read 0 calls without notice. Read its LAYERS table without importing it.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    table = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    layers = [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]
    assert layers
    missing = {f"{module}.{name}" for module, name in layers
               if getattr(getattr(hapticwave, module), name, None) is None}
    assert missing <= DELETED_TRACED_LAYERS
