"""Tests for feature extraction, clustering, sampling, augmentation, manifests."""

from __future__ import annotations

import numpy as np
import pytest

from hapticwave.audio_io import AudioClip
from hapticwave.curation import (
    _MFCC_DCT,
    DatasetManifest,
    ManifestEntry,
    augment,
    augment_plan,
    extract_features,
    kmeans,
    load_manifest,
    stratified_sample,
    write_manifest,
)
from hapticwave.errors import SchemaError
from hapticwave.fixtures import manifest_fixture_path

from conftest import SR, sine_clip


class TestExtractFeatures:
    def test_sine_centroid_and_chroma(self):
        vec = extract_features(sine_clip(440.0, duration=1.0))
        assert abs(vec.centroid - 440.0) <= 5.0
        assert vec.chroma.argmax() == 9  # pitch class A

    def test_click_train_tempo(self):
        # 120 clicks per minute = one impulse every 0.5 s
        n = 4 * SR
        x = np.zeros(n)
        for start in range(0, n, SR // 2):
            x[start:start + 20] = 1.0
        vec = extract_features(AudioClip(x, SR))
        assert abs(vec.tempo - 120.0) <= 5.0

    def test_white_noise_zcr(self):
        rng = np.random.default_rng(17)
        vec = extract_features(AudioClip(0.5 * rng.standard_normal(SR), SR))
        assert abs(vec.zcr - 0.5) <= 0.05

    def test_dimension_count(self):
        vec = extract_features(sine_clip(300.0, duration=1.0))
        assert vec.as_array().shape == (31,)

    def test_deterministic(self):
        clip = sine_clip(523.0, duration=1.0)
        a = extract_features(clip).as_array()
        b = extract_features(clip).as_array()
        assert np.array_equal(a, b)

    def test_rms_scales_linearly(self):
        clip = sine_clip(440.0, duration=1.0, amp=0.3)
        doubled = AudioClip(clip.samples * 2, SR)
        assert extract_features(doubled).rms_energy == pytest.approx(
            2 * extract_features(clip).rms_energy, rel=1e-9)

    def test_chroma_gain_invariant(self):
        clip = sine_clip(440.0, duration=1.0, amp=0.2)
        doubled = AudioClip(clip.samples * 2, SR)
        delta = extract_features(doubled).chroma - extract_features(clip).chroma
        assert np.max(np.abs(delta)) <= 1e-6

    def test_short_clip_rejected(self):
        with pytest.raises(ValueError):
            extract_features(sine_clip(440.0, duration=0.5))


def make_blobs(seed: int, sigma: float = 0.05):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    points, labels = [], []
    for i, c in enumerate(centers):
        points.append(c + sigma * rng.standard_normal((30, 2)))
        labels += [i] * 30
    return np.vstack(points), np.array(labels)


class TestKmeans:
    def test_recovers_gaussian_blobs_every_seed(self):
        for seed in range(20):
            points, truth = make_blobs(seed)
            result = kmeans(points, k=3, seed=seed)
            # exact recovery up to label permutation
            for cluster in range(3):
                members = truth[result.labels == cluster]
                assert len(members) == 30
                assert len(set(members.tolist())) == 1

    def test_objective_monotone(self):
        points, _ = make_blobs(0, sigma=0.3)
        result = kmeans(points, k=3, seed=1)
        history = np.array(result.inertia_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((6, 3))
        result = kmeans(points, k=6, seed=0)
        assert len(set(result.labels.tolist())) == 6
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_points(self):
        points = np.tile([1.0, 2.0], (10, 1))
        result = kmeans(points, k=3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        spread = result.centroids.max(axis=0) - result.centroids.min(axis=0)
        assert np.allclose(spread, 0.0)

    def test_seed_reproducible(self):
        points, _ = make_blobs(5, sigma=0.3)
        a = kmeans(points, k=4, seed=9)
        b = kmeans(points, k=4, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 3)), k=5, seed=0)

    def test_id_mapping(self):
        points, _ = make_blobs(1)
        vectors = {f"c{i:03d}": points[i] for i in range(len(points))}
        result = kmeans(vectors, k=3, seed=3)
        assignment = result.assignment()
        assert sorted(assignment) == sorted(vectors)


class TestStratifiedSample:
    def _assignment(self, sizes: list[int]) -> dict[str, int]:
        out = {}
        n = 0
        for cluster, size in enumerate(sizes):
            for _ in range(size):
                out[f"c{n:03d}"] = cluster
                n += 1
        return out

    def test_proportional_allocation(self):
        assignment = self._assignment([20, 12, 8])
        picked = stratified_sample(assignment, 20, seed=0)
        assert len(picked) == 20
        counts = [sum(1 for p in picked if assignment[p] == c) for c in range(3)]
        assert counts == [10, 6, 4]

    def test_single_cluster(self):
        assignment = self._assignment([40])
        picked = stratified_sample(assignment, 20, seed=1)
        assert len(picked) == len(set(picked)) == 20

    def test_full_population(self):
        assignment = self._assignment([7, 3])
        picked = stratified_sample(assignment, 10, seed=2)
        assert sorted(picked) == sorted(assignment)

    def test_target_exceeds_population(self):
        with pytest.raises(ValueError):
            stratified_sample(self._assignment([5]), 6, seed=0)

    def test_seed_reproducible(self):
        assignment = self._assignment([15, 9, 6])
        assert stratified_sample(assignment, 10, seed=7) == \
            stratified_sample(assignment, 10, seed=7)


def _find_seed(shift: bool, noise: bool, limit: int = 500) -> int:
    for seed in range(limit):
        plan = augment_plan(seed)
        if plan.shift_applied == shift and plan.noise_applied == noise:
            return seed
    raise AssertionError("no seed found")


class TestAugment:
    def test_identity_path(self):
        seed = _find_seed(shift=False, noise=False)
        clip = sine_clip(440.0, duration=0.5)
        out = augment(clip, seed)
        assert np.array_equal(out.samples, clip.samples)

    def test_noise_only_level(self):
        seed = _find_seed(shift=False, noise=True)
        plan = augment_plan(seed)
        clip = sine_clip(440.0, duration=1.0, amp=0.5)
        out = augment(clip, seed)
        residual = out.samples - clip.samples
        expected_sigma = plan.noise_level * 0.5
        assert np.std(residual) <= 0.005 * 0.5 * 1.1
        assert np.std(residual) == pytest.approx(expected_sigma, rel=0.1)

    def test_shift_only_changes_pitch(self):
        seed = _find_seed(shift=True, noise=False)
        plan = augment_plan(seed)
        assert -2.0 <= plan.semitones <= 2.0
        clip = sine_clip(440.0, duration=1.0)
        out = augment(clip, seed)
        assert len(out.samples) == len(clip.samples)

    def test_deterministic(self):
        clip = sine_clip(440.0, duration=0.5)
        a = augment(clip, 123)
        b = augment(clip, 123)
        assert np.array_equal(a.samples, b.samples)


def test_mfcc_dct_basis_is_orthonormal_and_read_only():
    # the basis extract_features built per call before it became a constant
    m = np.arange(26)
    basis = np.cos(np.pi * (m[None, :] + 0.5) * np.arange(26)[:, None] / 26.0)
    basis *= np.sqrt(2.0 / 26.0)
    basis[0] /= np.sqrt(2.0)
    assert np.array_equal(_MFCC_DCT, basis)
    assert not _MFCC_DCT.flags.writeable
    np.testing.assert_allclose(_MFCC_DCT @ _MFCC_DCT.T, np.eye(26), atol=1e-12)


class TestManifest:
    def _manifest(self) -> DatasetManifest:
        return DatasetManifest([
            ManifestEntry("a", "audio/a.wav", 0, "dog", 1),
            ManifestEntry("b", "audio/b.wav", 11, "sea waves", 2),
        ])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        manifest = self._manifest()
        write_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_duplicate_clip_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("clip_id,path,class_id,class_name,category_id\n"
                        "a,x.wav,0,dog,1\na,y.wav,1,rooster,1\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_manifest(path)

    def test_class_id_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("clip_id,path,class_id,class_name,category_id\n"
                        "a,x.wav,73,weird,1\n")
        with pytest.raises(SchemaError, match=":2:"):
            load_manifest(path)

    def test_bundled_fixture_loads(self):
        manifest = load_manifest(manifest_fixture_path())
        assert len(manifest) == 1000
        assert manifest.class_ids() == list(range(50))
