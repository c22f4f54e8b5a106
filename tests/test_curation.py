"""Tests for feature extraction, clustering, sampling, augmentation, manifests."""

from __future__ import annotations

import numpy as np
import pytest

from hapticwave.audio_io import AudioClip
from hapticwave.curation import (
    _MFCC_DCT,
    DatasetManifest,
    FeatureVector,
    ManifestEntry,
    _feature_tables,
    _pitch_class_map,
    _tempo_bpm,
    augment,
    augment_plan,
    extract_features,
    kmeans,
    load_manifest,
    stratified_sample,
    write_manifest,
)
from hapticwave.dsp import frame_signal, hann_window, mel_filterbank
from hapticwave.errors import NonFiniteSignalError, SchemaError
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

    def test_clip_shorter_than_one_frame_rejected(self):
        # 1 s at 1500 Hz passes the duration check but holds no 2048-sample frame
        with pytest.raises(ValueError, match="needs at least one 2048-sample frame, got 1500"):
            extract_features(AudioClip(np.zeros(1500), 1500))

    def test_feature_tables_are_cached_and_read_only(self):
        freqs, pitch_classes = _feature_tables(SR)
        assert _feature_tables(SR)[1] is pitch_classes
        assert not freqs.flags.writeable and not pitch_classes.flags.writeable
        assert pitch_classes.shape == (1025, 12)
        # every bin above ~A0 belongs to exactly one pitch class, DC to none
        np.testing.assert_array_equal(pitch_classes.sum(axis=1), freqs > 26.0)


def reference_features(clip: AudioClip) -> FeatureVector:
    """extract_features as one reduction per feature over overlapping frames (the reference)."""
    samples = np.asarray(clip.samples, dtype=np.float64)
    spectra = np.abs(np.fft.rfft(frame_signal(samples, 2048, 512) * hann_window(2048), axis=1))
    freqs = np.fft.rfftfreq(2048, 1.0 / clip.sample_rate)
    mag_sum = np.maximum(spectra.sum(axis=1), 1e-12)

    centroid_t = (spectra @ freqs) / mag_sum
    cumulative = np.cumsum(spectra, axis=1)
    rolloff_idx = np.argmax(cumulative >= 0.85 * mag_sum[:, None], axis=1)
    rolloff_t = freqs[rolloff_idx]
    spread = (freqs[None, :] - centroid_t[:, None]) ** 2
    bandwidth_t = np.sqrt(np.sum(spectra * spread, axis=1) / mag_sum)

    frames = frame_signal(samples, 2048, 512)
    rms_t = np.sqrt(np.mean(frames * frames, axis=1))
    zcr_t = np.mean(np.abs(np.diff(np.signbit(frames), axis=1)), axis=1)

    flux = np.sum(np.maximum(spectra[1:] - spectra[:-1], 0.0), axis=1)
    tempo = _tempo_bpm(flux, clip.sample_rate / 512)

    bank = mel_filterbank(26, 2048, clip.sample_rate)
    mel_energy = np.log(spectra ** 2 @ bank.T + 1e-10)
    mfcc = (mel_energy @ _MFCC_DCT.T)[:, 1:14].mean(axis=0)

    classes = _pitch_class_map(freqs)
    chroma = np.zeros(12)
    for pc in range(12):
        cols = classes == pc
        if np.any(cols):
            chroma[pc] = spectra[:, cols].sum(axis=1).mean()
    norm = np.linalg.norm(chroma)
    if norm > 0:
        chroma = chroma / norm

    return FeatureVector(
        centroid=float(centroid_t.mean()), rolloff=float(rolloff_t.mean()),
        bandwidth=float(bandwidth_t.mean()), rms_energy=float(rms_t.mean()),
        zcr=float(zcr_t.mean()), tempo=tempo, mfcc=mfcc, chroma=chroma)


def _test_signal(kind: str, n: int, sr: int) -> np.ndarray:
    rng = np.random.default_rng(n + sr)
    t = np.arange(n) / sr
    if kind == "noise":
        return 0.3 * rng.standard_normal(n)
    if kind == "tone":
        return 0.5 * np.sin(2.0 * np.pi * 440.0 * t)
    if kind == "chirp":
        return 0.5 * np.sin(2.0 * np.pi * np.cumsum(np.linspace(50.0, 0.45 * sr, n)) / sr)
    if kind == "bursts":
        out = np.zeros(n)
        burst = sr // 10
        for start in range(0, n - burst, sr // 4):
            out[start:start + burst] = np.hanning(burst) * np.sin(2.0 * np.pi * 700.0 * t[:burst])
        return out
    if kind == "silent-start":  # exact digital zeros, then noise
        return np.concatenate([np.zeros(n // 3), 0.2 * rng.standard_normal(n - n // 3)])
    if kind == "zeros":
        return np.zeros(n)
    if kind == "dc":
        return np.full(n, 0.25)
    raise ValueError(kind)


FEATURE_CASES = [
    *[(kind, 44100, 44100) for kind in
      ("noise", "tone", "chirp", "bursts", "silent-start", "zeros", "dc")],
    *[(kind, sr, sr) for sr in (8000, 32000, 44101) for kind in ("noise", "chirp", "silent-start")],
    # lengths that are not a multiple of the 512-sample hop
    *[("noise", 22050, 22050 * 2 + extra) for extra in (1, 300, 511, 513, 1023)],
    ("bursts", 16000, 16000 * 3 + 257),
]


class TestExtractFeaturesMatchesReference:
    @pytest.mark.parametrize("kind, sr, n", FEATURE_CASES)
    def test_matches_per_feature_reference(self, kind, sr, n):
        clip = AudioClip(_test_signal(kind, n, sr), sr)
        got, want = extract_features(clip), reference_features(clip)
        assert got.zcr == want.zcr
        np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=1e-12, atol=0.0)

    def test_silent_frames_roll_off_at_zero_hz(self):
        assert extract_features(AudioClip(np.zeros(SR), SR)).rolloff == 0.0

    def test_zcr_counts_only_changes_inside_each_frame(self):
        # alternating signs: every one of a frame's 2047 sample pairs changes sign
        x = np.where(np.arange(SR) % 2 == 0, 0.5, -0.5)
        assert extract_features(AudioClip(x, SR)).zcr == 1.0


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
        assert result.inertia_history[-1] == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_points(self):
        points = np.tile([1.0, 2.0], (10, 1))
        result = kmeans(points, k=3, seed=0)
        assert result.inertia_history[-1] == pytest.approx(0.0, abs=1e-12)
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

    def test_one_dimensional_input(self):
        with pytest.raises(ValueError, match="^expected a 2-D matrix of feature vectors$"):
            kmeans(np.zeros(10), k=2, seed=0)

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

    def test_allocation_fits_every_cluster(self):
        # Below the whole population every quota T * size / N is under its cluster's size, so
        # its floor plus one remainder seat still fits; at T = N every quota is the size itself.
        rng = np.random.default_rng(18)
        for _ in range(60):
            sizes = rng.integers(1, 41, size=rng.integers(1, 9)).tolist()
            assignment = self._assignment(sizes)
            for target in range(1, len(assignment) + 1):
                picked = stratified_sample(assignment, target, seed=target)
                assert len(picked) == len(set(picked)) == target
                counts = np.bincount([assignment[p] for p in picked], minlength=len(sizes))
                assert (counts <= sizes).all()

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


@pytest.mark.parametrize("entry", ["extract_features", "augment"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected_naming_the_clip(entry, bad):
    clip = sine_clip(440.0, duration=1.5, source_id="door_slam")
    clip.samples[SR // 3] = bad
    with pytest.raises(NonFiniteSignalError, match="door_slam"):
        if entry == "augment":  # the plan that would pass the samples through untouched
            augment(clip, _find_seed(shift=False, noise=False))
        else:
            extract_features(clip)


@pytest.mark.parametrize("source_id, name", [("door_slam", "clip door_slam"),
                                             (None, "unnamed clip")])
@pytest.mark.parametrize("entry, samples, sr, message", [
    ("extract_features", np.zeros(SR // 2), SR, "feature extraction needs at least 1 s of audio"),
    ("extract_features", np.zeros(1500), 1500,
     "feature extraction needs at least one 2048-sample frame, got 1500 samples"),
    ("augment", np.zeros(0), SR, "cannot augment an empty clip"),
])
def test_rejection_names_the_clip(entry, samples, sr, message, source_id, name):
    clip = AudioClip(samples, sr, source_id)
    with pytest.raises(ValueError, match=f"^{name}: {message}$"):
        if entry == "augment":
            augment(clip, 0)
        else:
            extract_features(clip)


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

    @pytest.mark.parametrize("category_id", [0, 6, -1])
    def test_category_id_out_of_range_names_row(self, tmp_path, category_id):
        path = tmp_path / "bad.csv"
        path.write_text("clip_id,path,class_id,class_name,category_id\n"
                        f"a,x.wav,0,dog,1\nb,y.wav,1,rooster,{category_id}\n")
        with pytest.raises(SchemaError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}:3: category_id {category_id} outside 1-5"

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_without_rows_is_empty(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("clip_id,path,class_id,class_name,category_id\n" + body)
        with pytest.raises(SchemaError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: empty manifest"

    def test_bundled_fixture_loads(self):
        manifest = load_manifest(manifest_fixture_path())
        assert len(manifest) == 1000
        assert manifest.class_ids() == list(range(50))
