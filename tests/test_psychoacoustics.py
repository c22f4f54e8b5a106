"""Tests for loudness, roughness, and Bark-band analysis."""

from __future__ import annotations

import json

import numpy as np
import pytest

from hapticwave.converters import load_converter_config
from hapticwave.errors import SchemaError
from hapticwave import dsp
from hapticwave.dsp import frame_signal, hann_window
from hapticwave.psychoacoustics import (
    DEFAULT_PSYCHO_CONFIG,
    N_BARK_BANDS,
    SPECIFIC_LOUDNESS_MIN_FRAME,
    PsychoConfig,
    _band_matrix,
    _bands,
    _pairs,
    _peaks,
    bark_band_index,
    equal_loudness_weight,
    hz_to_bark,
    loudness_roughness_frames,
    specific_loudness_frames,
)

SR = 44100

# Single-frame cases call the batched API with frame_size = hop = len(x).


def tone(freq: float, duration: float, sr: int = SR, amp: float = 0.5) -> np.ndarray:
    t = np.arange(int(duration * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestLoudness:
    def test_silence_is_zero(self):
        loudness, _ = loudness_roughness_frames(np.zeros(2048), 2048, SR)
        assert loudness.tolist() == [0.0]

    def test_contour_orders_tones(self):
        # equal-amplitude tones: 1 kHz must read louder than 50 Hz
        x_1k, x_50 = tone(1000.0, 0.2), tone(50.0, 0.2)
        (loud_1k,), _ = loudness_roughness_frames(x_1k, len(x_1k), SR)
        (loud_50,), _ = loudness_roughness_frames(x_50, len(x_50), SR)
        assert loud_1k > loud_50

    def test_strictly_monotone_in_amplitude(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            frame = rng.standard_normal(2048) * 0.2
            (quiet, loud), _ = loudness_roughness_frames(np.concatenate([frame, 2 * frame]),
                                                         2048, SR)
            assert loud > quiet

    def test_short_frame_zero_padded(self):
        # a 100-sample Hann frame pooled from its 256-point zero-padded spectrum
        x = np.random.default_rng(9).standard_normal(100)
        power = np.abs(np.fft.rfft(np.pad(x * hann_window(100), (0, 156)))) ** 2
        cfg = DEFAULT_PSYCHO_CONFIG
        np.testing.assert_allclose(specific_loudness_frames(x, 100, 100, SR)[0],
                                   cfg.loudness_scale * (power @ _bands(256, SR, cfg))
                                   ** cfg.loudness_exponent, rtol=1e-12)


class TestRoughness:
    # 2 s at 8 kHz per frame
    def test_pure_tone_zero(self):
        _, roughness = loudness_roughness_frames(tone(400.0, 2.0, sr=8000), 16000, 8000)
        assert roughness.tolist() == [0.0]

    def test_coincident_tones_zero(self):
        x = tone(400.0, 2.0, sr=8000) + tone(400.0, 2.0, sr=8000)
        _, roughness = loudness_roughness_frames(x, 16000, 8000)
        assert roughness.tolist() == [0.0]

    def test_interior_maximum_over_separation(self):
        deltas = np.arange(5, 205, 5)
        dyads = [tone(400.0, 2.0, sr=8000, amp=0.5) + tone(400.0 + d, 2.0, sr=8000, amp=0.5)
                 for d in deltas]
        _, values = loudness_roughness_frames(np.concatenate(dyads), 16000, 8000)
        assert len(values) == len(deltas)
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1
        assert values[peak] > values[0]
        assert values[peak] > values[-1]

    def test_dyad_symmetry(self):
        a = tone(300.0, 2.0, sr=8000, amp=0.6) + tone(340.0, 2.0, sr=8000, amp=0.3)
        b = tone(340.0, 2.0, sr=8000, amp=0.3) + tone(300.0, 2.0, sr=8000, amp=0.6)
        _, (rough_a, rough_b) = loudness_roughness_frames(np.concatenate([a, b]), 16000, 8000)
        assert rough_a == pytest.approx(rough_b, rel=1e-9)

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            loudness_roughness_frames(np.zeros(512), 512, 8000)


class TestSpecificLoudness:
    def test_silence(self):
        out = specific_loudness_frames(np.zeros(2048), 2048, 2048, SR)
        assert out.shape == (1, N_BARK_BANDS)
        assert not out.any()

    def test_100hz_tone_band_placement(self):
        assert round(float(hz_to_bark(100.0))) == 1
        # 2 s at 8 kHz keeps the mainlobe inside band 1's edge
        x = tone(100.0, 2.0, sr=8000)
        (out,) = specific_loudness_frames(x, len(x), len(x), 8000)
        assert out.argmax() == 0
        assert out[5:].max() <= 0.02 * out[0]

    def test_white_noise_spreads(self):
        rng = np.random.default_rng(12)
        (out,) = specific_loudness_frames(rng.standard_normal(SR), SR, SR, SR)
        assert np.count_nonzero(out > 1e-6 * out.max()) >= 20

    def test_scale_monotone(self):
        x = tone(300.0, 0.1) + tone(1200.0, 0.1)
        lo, hi = specific_loudness_frames(np.concatenate([x, 3 * x]), len(x), len(x), SR)
        assert np.all(hi >= lo)

    def test_band_partition_on_impulse(self):
        impulse = np.zeros(4096)
        impulse[2048] = 1.0
        power = np.abs(np.fft.rfft(impulse)) ** 2
        freqs = np.fft.rfftfreq(4096, 1 / SR)
        bands = power @ _band_matrix(freqs)
        assert abs(bands.sum() - power.sum()) <= 0.05 * power.sum()


def _scalar_pair_roughness(f1, a1, f2, a2, c=DEFAULT_PSYCHO_CONFIG):
    # the Vassilakis pair term written out on Python floats
    amplitude = (a1 * a2) ** c.amplitude_exponent
    fluctuation = 0.5 * (2.0 * min(a1, a2) / (a1 + a2)) ** c.fluctuation_exponent
    s = c.kernel_scale / (c.kernel_s1 * min(f1, f2) + c.kernel_s2)
    df = abs(f1 - f2)
    return amplitude * fluctuation * (np.exp(c.kernel_b1 * s * df) - np.exp(c.kernel_b2 * s * df))


def _reference_peaks(mags, bin_hz, config):
    """_peaks with a -inf score for every bin that is no peak and take_along_axis gathers."""
    inner = mags[:, 1:-1]
    floor = mags.max(axis=1, keepdims=True) * 10.0 ** (config.peak_floor_db / 20.0)
    is_peak = (inner > mags[:, :-2]) & (inner >= mags[:, 2:]) & (inner >= floor)
    score = np.where(is_peak, inner, -np.inf)
    k = min(config.max_peaks, score.shape[1])
    top = np.sort(np.argpartition(-score, k - 1, axis=1)[:, :k], axis=1)
    valid = np.take_along_axis(score, top, axis=1) > -np.inf
    bins = top + 1
    a, b, c = (np.where(valid, np.log(np.take_along_axis(mags, bins + o, axis=1) + 1e-30), np.nan)
               for o in (-1, 0, 1))
    denom = a - 2.0 * b + c
    flat = np.abs(denom) <= 1e-12
    delta = np.where(flat, 0.0, 0.5 * (a - c) / np.where(flat, 1.0, denom))
    return (bins + delta) * bin_hz, np.exp(b - 0.25 * (a - c) * delta)


def _peak_rows(n_bins: int, seed: int) -> np.ndarray:
    """Seeded magnitude rows: noise, a few tones, quantized levels with tied peaks, flat, zero."""
    rng = np.random.default_rng(seed)
    noise = np.abs(rng.standard_normal((6, n_bins)))
    sparse = np.zeros((4, n_bins))
    for row in sparse:  # 1 to 4 peaks, fewer than max_peaks
        inner = np.arange(1, n_bins - 1)
        row[rng.choice(inner, size=min(len(inner), rng.integers(1, 5)), replace=False)] = 1.0
    tied = np.round(4.0 * rng.random((4, n_bins)))
    floored = noise[:2] * np.where(rng.random((2, n_bins)) < 0.02, 1.0, 1e-6)  # few above the floor
    return np.vstack([noise, sparse, tied, floored, np.full((2, n_bins), 0.7),
                      np.zeros((2, n_bins))])


class TestBatchedCore:
    @pytest.mark.parametrize("n_bins", [3, 5, 12, 257, 2049])
    @pytest.mark.parametrize("max_peaks", [1, 3, 10, 40])
    def test_peaks_equal_reference(self, n_bins, max_peaks):
        config = PsychoConfig(max_peaks=max_peaks)
        for seed in range(3):
            mags = _peak_rows(n_bins, seed)
            for got, want in zip(_peaks(mags, 10.7, config), _reference_peaks(mags, 10.7, config)):
                assert got.shape == want.shape == (len(mags), min(max_peaks, n_bins - 2))
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_pairs_cached_and_read_only(self, n):
        i, j = _pairs(n)
        want_i, want_j = np.triu_indices(n, k=1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        assert not i.flags.writeable and not j.flags.writeable
        assert _pairs(n)[0] is i

    def test_tables_cached_and_read_only(self):
        bands = _bands(441, SR, DEFAULT_PSYCHO_CONFIG)
        assert _bands(441, SR, DEFAULT_PSYCHO_CONFIG) is bands
        assert _bands(441, SR, PsychoConfig()) is bands
        assert bands.shape == (221, N_BARK_BANDS)
        assert not bands.flags.writeable
        with pytest.raises(ValueError):
            bands[0] = 1.0

    def test_specific_loudness_matches_direct_formula(self):
        x = np.random.default_rng(7).standard_normal(1024)
        power = np.abs(np.fft.rfft(x * hann_window(1024))) ** 2
        freqs = np.fft.rfftfreq(1024, 1 / SR)
        pooled = np.zeros(N_BARK_BANDS)
        np.add.at(pooled, bark_band_index(freqs) - 1, power * equal_loudness_weight(freqs))
        cfg = DEFAULT_PSYCHO_CONFIG
        np.testing.assert_allclose(specific_loudness_frames(x, 1024, 1024, SR)[0],
                                   cfg.loudness_scale * pooled ** cfg.loudness_exponent, rtol=1e-12)

    def test_peaks_keep_the_strongest(self):
        x = sum(tone(200.0 * k, 8192 / SR, amp=1.0 - 0.05 * k) for k in range(1, 13))
        mags = np.abs(np.fft.rfft(x * hann_window(len(x))))[None, :]
        (freqs,), _ = _peaks(mags, SR / len(x), DEFAULT_PSYCHO_CONFIG)
        assert len(freqs) == DEFAULT_PSYCHO_CONFIG.max_peaks == 10
        np.testing.assert_allclose(freqs, 200.0 * np.arange(1, 11), atol=1.0)

    def test_pair_sum_matches_double_loop(self):
        rng = np.random.default_rng(3)
        signals = [tone(300.0, 0.1) + tone(330.0, 0.1, amp=0.3) + tone(1100.0, 0.1, amp=0.2),
                   rng.standard_normal(4096), sum(tone(220.0 * k, 0.1, amp=0.5 / k) for k in range(1, 8))]
        for x in signals:
            mags = np.abs(np.fft.rfft(x * hann_window(len(x))))[None, :]
            (freqs,), (amps,) = _peaks(mags, SR / len(x), DEFAULT_PSYCHO_CONFIG)
            peaks = [(f, a) for f, a in zip(freqs.tolist(), amps.tolist()) if not np.isnan(f)]
            assert len(peaks) >= 2
            expected = 0.0
            for i in range(len(peaks)):
                for j in range(i + 1, len(peaks)):
                    expected += _scalar_pair_roughness(*peaks[i], *peaks[j])
            _, (roughness,) = loudness_roughness_frames(x, len(x), SR)
            assert roughness == pytest.approx(expected, rel=1e-12)

    def test_frames_match_single_frame_functions(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(SR // 2) * np.linspace(0.0, 1.0, SR // 2)
        specific = specific_loudness_frames(x, 441, 220, SR)
        frames = frame_signal(x, 441, 220)
        expected = np.array([specific_loudness_frames(f, 441, 441, SR)[0] for f in frames])
        np.testing.assert_allclose(specific, expected, rtol=1e-9, atol=0)
        loudness, roughness = loudness_roughness_frames(x, 2048, SR)
        frames = frame_signal(x, 2048, 2048)
        expected = np.array([loudness_roughness_frames(f, 2048, SR) for f in frames])
        np.testing.assert_allclose(loudness, expected[:, 0, 0], rtol=1e-9)
        np.testing.assert_allclose(roughness, expected[:, 1, 0], rtol=1e-9)

    def test_band_powers_pool_each_row(self):
        rng = np.random.default_rng(5)
        power = rng.random((3, 1025))
        freqs = np.fft.rfftfreq(2048, 1 / SR)
        batched = power @ _band_matrix(freqs)
        assert batched.shape == (3, N_BARK_BANDS)
        for row, pooled in zip(power, batched):
            np.testing.assert_allclose(pooled, row @ _band_matrix(freqs), rtol=1e-12)
            assert pooled.sum() == pytest.approx(row.sum(), rel=1e-12)

    @pytest.mark.parametrize("block_bytes", ["one frame", 1 << 30])
    @pytest.mark.parametrize("frame_size, hop, sr", [(441, 220, 44100), (480, 240, 48000),
                                                     (960, 480, 96000), (1024, 1024, 44100),
                                                     (160, 80, 16000), (220, 110, 22050)])
    def test_blocked_power_matches_squared_magnitudes(self, monkeypatch, block_bytes,
                                                      frame_size, hop, sr):
        """re^2 + im^2 pooled per block equals |rfft|^2 pooled over every frame at once."""
        if block_bytes == "one frame":
            block_bytes = 8 * frame_size
        monkeypatch.setattr(dsp, "_BLOCK_BYTES", block_bytes)
        x = np.random.default_rng(frame_size).standard_normal(3 * sr // 2)
        n_fft = max(frame_size, SPECIFIC_LOUDNESS_MIN_FRAME)
        frames = frame_signal(x, frame_size, hop) * hann_window(frame_size)
        power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
        bands = _bands(n_fft, sr, DEFAULT_PSYCHO_CONFIG)
        cfg = DEFAULT_PSYCHO_CONFIG
        expected = cfg.loudness_scale * (power @ bands) ** cfg.loudness_exponent
        np.testing.assert_allclose(specific_loudness_frames(x, frame_size, hop, sr), expected,
                                   rtol=1e-13, atol=0)

    def test_window_minimums_kept(self):
        with pytest.raises(ValueError, match="need >= 1024"):
            loudness_roughness_frames(np.zeros(SR), 1023, SR)


class TestConfig:
    """The constants are the `psycho` section of the one converter config."""

    def test_load_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"psycho": {"loudness_exponent": 0.3, "max_peaks": 6}}))
        cfg = load_converter_config(path).psycho
        assert cfg.loudness_exponent == 0.3
        assert cfg.max_peaks == 6
        assert cfg.kernel_b1 == PsychoConfig().kernel_b1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"psycho": {"nope": 1}}))
        with pytest.raises(SchemaError):
            load_converter_config(path)
