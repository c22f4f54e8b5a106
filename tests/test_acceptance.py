"""Acceptance suite: every release criterion with its pinned tolerance.

Each test prints one PASS line on success (visible with pytest -s or in the
captured output); a failing criterion fails its test. Reference aggregate
values are asserted against the bundled ratings fixture.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from hapticwave.analysis import (
    aggregate,
    blend_targets,
    load_ratings,
    reconstruction_metrics,
)
from hapticwave.audio_io import AudioClip, VibrationSignal
from hapticwave.bench import build_bench_corpus
from hapticwave.converters import CONVERTER_TAGS, convert, convert_fshift
from hapticwave.curation import kmeans, load_manifest, stratified_sample
from hapticwave.dsp import FilterSpec, butterworth_filter
from hapticwave.fixtures import manifest_fixture_path, ratings_fixture_path

from conftest import SR, instantaneous_frequency, make_fixture_clips, sine_clip
from test_bench import make_bench_clips

EXPECTED_MEANS = {"pitch": 62.6, "hapticgen": 57.0, "fshift": 56.9, "plm": 31.2}
EXPECTED_SDS = {"pitch": 22.9, "hapticgen": 23.2, "fshift": 24.3, "plm": 22.9}
EXPECTED_WINNER_COUNTS = {"pitch": 403, "fshift": 288, "hapticgen": 261, "plm": 56}
EXPECTED_TIES = 8

# winning algorithm per class id; classes not listed are won by pitch
_FSHIFT_CLASSES = (10, 18, 20, 21, 24, 35, 36, 41, 44, 47)
_HAPTICGEN_CLASSES = (3, 5, 7, 9, 11, 13, 14, 16, 17, 23, 33, 43, 46)
EXPECTED_CLASS_WINNERS = {
    c: ("fshift" if c in _FSHIFT_CLASSES
        else "hapticgen" if c in _HAPTICGEN_CLASSES else "pitch")
    for c in range(50)
}


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE PASS: {criterion}")


@pytest.fixture(scope="module")
def fixture_report():
    table = load_ratings(ratings_fixture_path())
    manifest = load_manifest(manifest_fixture_path())
    return aggregate(table, manifest, "class")


def test_aggregate_reproduction():
    start = time.perf_counter()
    table = load_ratings(ratings_fixture_path())
    manifest = load_manifest(manifest_fixture_path())
    report = aggregate(table, manifest, "class")
    elapsed = time.perf_counter() - start
    for algo, expected in EXPECTED_MEANS.items():
        assert abs(report.overall.mean[algo] - expected) <= 0.1, algo
    for algo, expected in EXPECTED_SDS.items():
        assert abs(report.overall.sd[algo] - expected) <= 0.1, algo
    assert elapsed < 5.0, f"aggregation took {elapsed:.2f} s"
    _report(f"aggregate means/SDs within 0.1 of reference values ({elapsed:.2f} s)")


def test_winner_reproduction(fixture_report):
    assert fixture_report.winner_counts == EXPECTED_WINNER_COUNTS
    assert fixture_report.tie_count == EXPECTED_TIES
    for class_id, winner in EXPECTED_CLASS_WINNERS.items():
        assert fixture_report.groups[class_id].winners == (winner,), class_id
    _report("clip winner counts 403/288/261/56 with 8 ties; 50/50 class winners")


def test_converter_invariant_suite():
    start = time.perf_counter()
    clips = make_fixture_clips(20)
    for clip in clips:
        expected_len = round(len(clip.samples) * 8000 / clip.sample_rate)
        for tag in CONVERTER_TAGS:
            first = convert(clip, tag)
            second = convert(clip, tag)
            assert first.sample_rate == 8000
            assert len(first.samples) == expected_len
            assert np.max(np.abs(first.samples)) <= 1.0
            assert np.array_equal(first.samples, second.samples), (clip.source_id, tag)
            if tag == "hapticgen":
                est = instantaneous_frequency(first.samples, 8000)
                assert est.min() >= 145.0 and est.max() <= 255.0, clip.source_id
            elif tag == "pitch":
                est = instantaneous_frequency(first.samples, 8000)
                assert est.min() >= 45.0 and est.max() <= 405.0, clip.source_id
            elif tag == "plm":
                spec = np.abs(np.fft.rfft(first.samples * np.hanning(len(first.samples)))) ** 2
                freqs = np.fft.rfftfreq(len(first.samples), 1 / 8000)
                mask = ((freqs >= 160) & (freqs <= 190)) | ((freqs >= 195) & (freqs <= 225))
                assert spec[mask].sum() >= 0.90 * spec.sum(), clip.source_id
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f} s"
    _report(f"20-clip converter invariants, two bit-identical runs ({elapsed:.1f} s)")


def test_spectral_checks():
    out = convert_fshift(sine_clip(440.0, duration=2.0))
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out.samples))))
    freqs = np.fft.rfftfreq(len(out.samples), 1.0 / 8000)
    assert abs(freqs[np.argmax(spec)] - 220.0) <= freqs[1]

    rng = np.random.default_rng(19)
    noise = AudioClip(0.5 * np.clip(rng.standard_normal(2 * SR), -1, 1), SR)
    out = convert_fshift(noise)
    power = np.abs(np.fft.rfft(out.samples)) ** 2
    freqs = np.fft.rfftfreq(len(out.samples), 1.0 / 8000)
    assert power[freqs < 1000.0].sum() >= 0.80 * power.sum()

    spec_bp = FilterSpec("bandpass", 250.0, q=1.0, order=4)

    def swept_gain(freq):
        t = np.arange(SR) / SR
        y = butterworth_filter(np.sin(2 * np.pi * freq * t), spec_bp, SR)
        return np.sqrt(np.mean(y[SR // 2:] ** 2))

    attenuation_db = 20 * np.log10(swept_gain(2500.0) / swept_gain(250.0))
    assert attenuation_db <= -30.0
    _report(f"fshift 440->220 Hz, noise band-limited, bandpass {attenuation_db:.1f} dB @ 2.5 kHz")


def test_blending():
    rng = np.random.default_rng(23)
    refs = [VibrationSignal(rng.uniform(-1, 1, 256), "blended") for _ in range(4)]
    for hot in range(4):
        ratings = [0.0] * 4
        ratings[hot] = 87.0
        out = blend_targets(refs, ratings)
        assert np.array_equal(out.samples, refs[hot].samples)

    for case in range(1000):
        case_rng = np.random.default_rng(5000 + case)
        refs = [VibrationSignal(case_rng.uniform(-1, 1, 32), "blended") for _ in range(4)]
        ratings = case_rng.uniform(0.0, 100.0, 4)
        if ratings.sum() == 0:
            ratings[0] = 1.0
        out = blend_targets(refs, ratings)
        stack = np.vstack([r.samples for r in refs])
        assert np.all(out.samples >= stack.min(axis=0) - 1e-9)
        assert np.all(out.samples <= stack.max(axis=0) + 1e-9)
    _report("one-hot blends bit-exact; 1000 random blends inside the convex envelope")


def test_metrics():
    rng = np.random.default_rng(29)
    x = rng.uniform(-1, 1, 8000)
    report = reconstruction_metrics(x, x.copy())
    assert report.mse <= 1e-12
    assert report.stft_loss <= 1e-6
    assert report.mel_l1 <= 1e-6
    assert report.amp_loss <= 1e-6
    assert report.rmse <= 1e-6

    p = rng.uniform(-1, 1, 10)
    t = rng.uniform(-1, 1, 10)
    assert reconstruction_metrics(p, t).mse == sum((a - b) ** 2 for a, b in zip(p, t)) / 10

    p = rng.uniform(-0.5, 0.5, 4096)
    t = rng.uniform(-0.5, 0.5, 4096)
    base = reconstruction_metrics(p, t)
    scaled = reconstruction_metrics(2.5 * p, 2.5 * t)
    assert scaled.rmse == pytest.approx(2.5 * base.rmse, rel=1e-9)
    assert scaled.amp_loss == pytest.approx(2.5 * base.amp_loss, rel=1e-9)
    assert scaled.mse == pytest.approx(2.5**2 * base.mse, rel=1e-9)
    _report("metrics zero on identical inputs, exact vs brute force, homogeneous")


def test_curation():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        points = np.vstack([c + 0.05 * rng.standard_normal((30, 2)) for c in centers])
        truth = np.repeat(np.arange(3), 30)
        result = kmeans(points, k=3, seed=seed)
        for cluster in range(3):
            members = truth[result.labels == cluster]
            assert len(members) == 30 and len(set(members.tolist())) == 1, seed
        history = np.array(result.inertia_history)
        assert np.all(np.diff(history) <= 1e-9), seed

    assignment = {}
    n = 0
    for cluster, size in enumerate((20, 12, 8)):
        for _ in range(size):
            assignment[f"c{n:03d}"] = cluster
            n += 1
    picked = stratified_sample(assignment, 20, seed=0)
    counts = [sum(1 for p in picked if assignment[p] == c) for c in range(3)]
    assert counts == [10, 6, 4]
    _report("k-means recovers 3 blobs 20/20 seeds; stratified allocation (10, 6, 4)")


def test_bench_protocol():
    clips = make_bench_clips()
    corpus = build_bench_corpus(clips)
    sizes = {d: len(v) for d, v in corpus.items()}
    assert sizes == {1: 250, 2: 100, 5: 50, 10: 50, 20: 50}

    source = clips[0]
    segments = [c for c in corpus[1] if c.source_id.startswith(f"{source.source_id}#")]
    assert np.array_equal(np.concatenate([c.samples for c in segments]), source.samples)

    perf_clips = make_fixture_clips(1, duration=5.0)
    latencies = {}
    for tag in CONVERTER_TAGS:
        convert(perf_clips[0], tag)  # warmup
        start = time.perf_counter()
        convert(perf_clips[0], tag)
        latencies[tag] = time.perf_counter() - start
    assert all(v < 1.0 for v in latencies.values()), latencies
    worst = max(latencies, key=latencies.get)
    _report(f"bench corpus 250/100/50/50/50, lossless 1 s segments, "
            f"5 s clip converts in <1 s (worst {worst}: {latencies[worst]:.2f} s)")
