"""Tests for the spectral and filtering primitives."""

from __future__ import annotations

import numpy as np
import pytest

from hapticwave.audio_io import AudioClip
from hapticwave.dsp import (
    FilterSpec,
    butterworth_filter,
    frame_rms,
    hann_window,
    instantaneous_frequency,
    nco_synthesize,
    pitch_shift,
    stft,
)

from conftest import SR, dominant_frequency, sine_clip


def swept_gain(spec: FilterSpec, freq: float, sr: int) -> float:
    t = np.arange(sr) / sr
    y = butterworth_filter(np.sin(2 * np.pi * freq * t), spec, sr)
    tail = y[len(y) // 2:]
    return float(np.sqrt(np.mean(tail**2)) / np.sqrt(0.5))


class TestStft:
    def test_peak_bin(self):
        t = np.arange(8000) / 8000
        spec = stft(np.sin(2 * np.pi * 1000 * t), 1024, 256)
        assert spec.shape[1] == 513
        peak_bins = spec.argmax(axis=1)
        assert np.all(peak_bins == round(1000 * 1024 / 8000))

    def test_zero_input(self):
        spec = stft(np.zeros(4096), 1024, 256)
        assert not spec.any()

    def test_frame_count(self):
        n, fft, hop = 10000, 1024, 256
        spec = stft(np.ones(n), fft, hop)
        assert spec.shape[0] == (n - fft) // hop + 1

    def test_white_noise_flatness(self):
        rng = np.random.default_rng(11)
        spec = stft(rng.standard_normal(SR), 1024, 256)
        power = np.mean(spec**2, axis=0)
        power = power[1:-1]  # skip DC/Nyquist edge bins
        flatness = np.exp(np.mean(np.log(power))) / np.mean(power)
        assert flatness > 0.8

    def test_parseval_consistency(self):
        t = np.arange(8192) / 8000
        x = np.sin(2 * np.pi * 500 * t)
        fft, hop = 1024, 256
        spec = stft(x, fft, hop)
        spectral = (2 * np.sum(spec[:, 1:-1] ** 2, axis=1)
                    + spec[:, 0] ** 2 + spec[:, -1] ** 2) / fft
        w = hann_window(fft)
        frames = np.lib.stride_tricks.sliding_window_view(x, fft)[::hop]
        time_energy = np.sum((frames * w) ** 2, axis=1)
        assert np.all(np.abs(spectral - time_energy) <= 0.01 * time_energy)

    def test_amplitude_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4096)
        a = stft(x, 512, 128)
        b = stft(2 * x, 512, 128)
        assert np.max(np.abs(b - 2 * a)) <= 1e-9 * np.max(b)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(np.zeros(100), 1024, 256)

    def test_bad_fft_size(self):
        with pytest.raises(ValueError):
            stft(np.zeros(4096), 1000, 256)


class TestButterworth:
    def test_bandpass_center_gain(self):
        spec = FilterSpec("bandpass", 250.0, q=1.0, order=4)
        gains = {f: swept_gain(spec, f, SR) for f in (150, 200, 250, 300, 400)}
        top = max(gains.values())
        assert gains[250] >= top * 10 ** (-1 / 20)

    def test_bandpass_stopband(self):
        spec = FilterSpec("bandpass", 250.0, q=1.0, order=4)
        g250 = swept_gain(spec, 250, SR)
        g2500 = swept_gain(spec, 2500, SR)
        assert 20 * np.log10(g2500 / g250) <= -30.0

    def test_highpass_kills_dc(self):
        spec = FilterSpec("highpass", 10.0, order=2)
        y = butterworth_filter(np.ones(SR), spec, SR)
        assert np.sqrt(np.mean(y[SR // 2:] ** 2)) < 0.01

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(2000), rng.standard_normal(2000)
        spec = FilterSpec("bandpass", 250.0, q=1.0, order=4)
        lhs = butterworth_filter(a + b, spec, 8000)
        rhs = butterworth_filter(a, spec, 8000) + butterworth_filter(b, spec, 8000)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_output_length(self):
        spec = FilterSpec("bandpass", 250.0, q=1.0, order=4)
        assert len(butterworth_filter(np.ones(12345), spec, SR)) == 12345

    def test_cutoff_above_nyquist(self):
        with pytest.raises(ValueError):
            butterworth_filter(np.ones(100), FilterSpec("highpass", 5000.0, order=2), 8000)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            FilterSpec("bandpass", 250.0, q=1.0, order=3)


class TestPitchShift:
    def test_octave_down(self):
        clip = sine_clip(440.0, duration=1.0)
        out = pitch_shift(clip, -12)
        f = dominant_frequency(out.samples, SR)
        assert abs(f - 220.0) <= 0.03 * 220.0
        assert len(out.samples) == len(clip.samples)

    def test_identity(self):
        clip = sine_clip(440.0, duration=0.5)
        out = pitch_shift(clip, 0)
        assert dominant_frequency(out.samples, SR) == dominant_frequency(clip.samples, SR)

    def test_two_octaves_down(self):
        clip = sine_clip(440.0, duration=1.0)
        f = dominant_frequency(pitch_shift(clip, -24).samples, SR)
        assert abs(f - 110.0) <= 0.03 * 110.0

    def test_round_trip(self):
        clip = sine_clip(440.0, duration=1.0)
        back = pitch_shift(pitch_shift(clip, -7), 7)
        f = dominant_frequency(back.samples, SR)
        assert abs(f - 440.0) <= 0.03 * 440.0

    def test_range_limit(self):
        with pytest.raises(ValueError):
            pitch_shift(sine_clip(440.0, duration=0.1), -25)

    def test_empty_clip(self):
        with pytest.raises(ValueError):
            pitch_shift(AudioClip(np.zeros(0), SR), -12)


class TestNco:
    def test_constant_tone_crossings(self):
        out = nco_synthesize(np.full(8000, 200.0), np.ones(8000), 8000)
        crossings = np.count_nonzero(np.diff(np.signbit(out)))
        assert abs(crossings - 400) <= 2

    def test_zero_amplitude(self):
        out = nco_synthesize(np.full(100, 200.0), np.zeros(100), 8000)
        assert not out.any()

    def test_linear_ramp_mean_frequency(self):
        freq = np.linspace(100.0, 300.0, 8000)
        out = nco_synthesize(freq, np.ones(8000), 8000)
        estimates = instantaneous_frequency(out, 8000)
        # time-weighted mean: each estimate covers one period, so weight by it
        mean_freq = len(estimates) / np.sum(1.0 / estimates)
        assert abs(mean_freq - 200.0) <= 2.0

    def test_track_length_mismatch(self):
        with pytest.raises(ValueError):
            nco_synthesize(np.ones(10), np.ones(9), 8000)

    def test_frequency_bounds_enforced(self):
        with pytest.raises(ValueError):
            nco_synthesize(np.full(10, 4000.0), np.ones(10), 8000)


class TestFrameRms:
    def test_constant(self):
        out = frame_rms(np.full(8000, 0.5), 10.0, 10.0, 8000)
        assert np.allclose(out, 0.5)

    def test_sine_rms(self):
        t = np.arange(SR) / SR
        out = frame_rms(np.sin(2 * np.pi * 440 * t), 100.0, 100.0, SR)
        assert np.all(np.abs(out - 1 / np.sqrt(2)) <= 0.01 / np.sqrt(2))

    def test_silence(self):
        out = frame_rms(np.zeros(8000), 10.0, 5.0, 8000)
        assert not out.any()

    def test_window_longer_than_signal(self):
        with pytest.raises(ValueError):
            frame_rms(np.zeros(10), 100.0, 100.0, 8000)


class TestInstantaneousFrequency:
    def test_pure_tone(self):
        t = np.arange(8000) / 8000
        est = instantaneous_frequency(np.sin(2 * np.pi * 200 * t), 8000)
        assert np.all(np.abs(est - 200.0) <= 2.0)

    def test_low_tone(self):
        t = np.arange(SR) / SR
        est = instantaneous_frequency(np.sin(2 * np.pi * 50 * t), SR)
        assert np.all(np.abs(est - 50.0) <= 1.0)

    def test_nco_ramp_bounds(self):
        freq = np.linspace(150.0, 250.0, 16000)
        out = nco_synthesize(freq, np.ones(16000), 8000)
        est = instantaneous_frequency(out, 8000)
        assert est.min() >= 145.0
        assert est.max() <= 255.0

    def test_too_few_crossings(self):
        with pytest.raises(ValueError):
            instantaneous_frequency(np.ones(100), 8000)
