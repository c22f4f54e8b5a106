"""Tests for the four converters, normalization, dispatch, and config handling."""

from __future__ import annotations

import json
import re
import sys
import threading
import warnings
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from hapticwave.audio_io import AudioClip, resample_samples
from hapticwave import converters
from hapticwave.converters import (
    _MAX_TABLES,
    _TABLE_LEN,
    CONVERTER_TAGS,
    DEFAULT_CONFIG,
    ConverterConfig,
    _carrier_table,
    _frame_centers,
    _kept_table,
    _pitch_window,
    _time_grid,
    _typed,
    convert,
    convert_fshift,
    convert_hapticgen,
    convert_pitch,
    convert_plm,
    fshift_raw,
    load_converter_config,
    normalize_vibration,
    pitch_frequency_track,
    plm_feature_tracks,
)
from hapticwave.domains import Interval, OneOf
from hapticwave.dsp import frame_rms, frame_signal, ms_to_samples
from hapticwave.psychoacoustics import (
    DEFAULT_PSYCHO_CONFIG,
    loudness_roughness_frames,
    specific_loudness_frames,
)
from hapticwave.errors import (
    DegenerateSignalError,
    HapticwaveError,
    NonFiniteSignalError,
    SchemaError,
)

from conftest import SR, instantaneous_frequency, make_fixture_clips, sine_clip


def band_energy_fraction(samples: np.ndarray, sr: int, bands: list[tuple[float, float]]) -> float:
    spec = np.abs(np.fft.rfft(samples * np.hanning(len(samples)))) ** 2
    freqs = np.fft.rfftfreq(len(samples), 1.0 / sr)
    mask = np.zeros(len(freqs), dtype=bool)
    for lo, hi in bands:
        mask |= (freqs >= lo) & (freqs <= hi)
    return float(spec[mask].sum() / spec.sum())


@pytest.fixture(scope="module")
def am_clip() -> AudioClip:
    rng = np.random.default_rng(42)
    t = np.arange(2 * SR) / SR
    env = 0.5 + 0.45 * np.sin(2 * np.pi * 3 * t)
    x = env * np.sin(2 * np.pi * 600 * t) + 0.01 * rng.standard_normal(len(t))
    return AudioClip(0.8 * x / np.max(np.abs(x)), SR, "am")


class TestPlm:
    def test_silence_is_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            convert_plm(AudioClip(np.zeros(SR), SR))

    def test_energy_in_carrier_bands(self, am_clip):
        out = convert_plm(am_clip)
        frac = band_energy_fraction(out.samples, out.sample_rate,
                                    [(160.0, 190.0), (195.0, 225.0)])
        assert frac >= 0.90

    def test_intensity_monotone_in_level(self, am_clip):
        cfg = DEFAULT_CONFIG
        quiet = AudioClip(am_clip.samples * 0.4, SR)
        loud = AudioClip(am_clip.samples * 0.8, SR)
        iv_quiet, _ = plm_feature_tracks(quiet, cfg)
        iv_loud, _ = plm_feature_tracks(loud, cfg)
        assert np.all(iv_loud >= iv_quiet)


class TestFshift:
    def test_sine_dominant_peak_octave_down(self):
        clip = sine_clip(440.0, duration=2.0)
        out = convert_fshift(clip)
        spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out.samples))))
        freqs = np.fft.rfftfreq(len(out.samples), 1.0 / out.sample_rate)
        assert abs(freqs[np.argmax(spec)] - 220.0) <= freqs[1]

    def test_dc_rejected_by_filters(self):
        dc = AudioClip(np.full(SR, 0.5), SR)
        raw = fshift_raw(dc)
        baseline = fshift_raw(sine_clip(250.0, duration=1.0, amp=0.5))
        # skip the switch-on transient; steady-state DC must be gone
        tail = slice(len(raw) // 2, None)
        assert np.sqrt(np.mean(raw[tail] ** 2)) < 0.01 * np.sqrt(np.mean(baseline[tail] ** 2))

    def test_noise_band_limited(self):
        rng = np.random.default_rng(9)
        clip = AudioClip(0.5 * np.clip(rng.standard_normal(2 * SR), -1, 1), SR)
        out = convert_fshift(clip)
        assert band_energy_fraction(out.samples, out.sample_rate, [(0.0, 1000.0)]) >= 0.80

    def test_silence_is_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            convert_fshift(AudioClip(np.zeros(SR), SR))

    def test_input_gain_absorbed_by_normalization(self, am_clip):
        a = convert_fshift(am_clip)
        b = convert_fshift(AudioClip(am_clip.samples / np.max(np.abs(am_clip.samples)), SR))
        assert np.sqrt(np.mean((a.samples - b.samples) ** 2)) <= 1e-4

    @pytest.mark.parametrize("center, q, edge", [
        # Q = 2/3 puts the edges at f0 / 2 and 2 f0: exactly Nyquist
        ("2000", "0.6666666666666666", "4000"),
        ("3000", "1", "4854.1"),
        ("3990", "50", "4030.1"),
    ])
    def test_band_edge_at_or_above_nyquist_names_the_clip(self, center, q, edge):
        cfg = load_converter_config(overrides=[f"fshift.bp_center_hz={center}",
                                               f"fshift.bp_q={q}"])
        clip = sine_clip(250.0, duration=0.5, sr=8000, source_id="low")
        with pytest.raises(SchemaError, match=re.escape(
                f"clip low: bandpass edge {edge} Hz from fshift.bp_center_hz and fshift.bp_q "
                "is not below the working rate's Nyquist (4000 Hz)")):
            fshift_raw(clip, cfg)

    def test_highpass_cutoff_at_nyquist_names_the_clip(self):
        cfg = load_converter_config(overrides=["fshift.hp_cutoff_hz=4000"])
        with pytest.raises(SchemaError, match=re.escape(
                "unnamed clip: highpass edge 4000 Hz from fshift.hp_cutoff_hz "
                "is not below the working rate's Nyquist (4000 Hz)")):
            fshift_raw(AudioClip(np.ones(800), 8000), cfg)


class TestPitch:
    def test_frequency_bounds(self, am_clip):
        out = convert_pitch(am_clip)
        est = instantaneous_frequency(out.samples, out.sample_rate)
        assert est.min() >= 45.0
        assert est.max() <= 405.0

    def test_silent_region_stays_quiet(self):
        t = np.arange(SR) / SR
        x = np.sin(2 * np.pi * 500 * t)
        x[SR // 3: 2 * SR // 3] = 0.0
        out = convert_pitch(AudioClip(x, SR))
        n = len(out.samples)
        middle = out.samples[n // 3 + 400: 2 * n // 3 - 400]
        edges = np.concatenate([out.samples[:n // 3 - 400], out.samples[2 * n // 3 + 400:]])
        assert np.sqrt(np.mean(middle**2)) < 0.02 * np.sqrt(np.mean(edges**2))

    def test_stationary_tone_constant_track(self):
        clip = sine_clip(200.0, duration=1.0)  # 10 ms windows hold whole periods
        freqs, _ = pitch_frequency_track(clip, DEFAULT_CONFIG)
        assert np.ptp(freqs) <= 1.0


def _band_limited(kind: str) -> np.ndarray:
    """2 s of one of four signals at 44.1 kHz with nothing above 7 kHz."""
    t = np.arange(2 * SR) / SR
    if kind == "noise":
        x = np.random.default_rng(11).standard_normal(len(t))
    elif kind == "chirp":
        x = np.sin(2 * np.pi * np.cumsum(np.linspace(100.0, 6000.0, len(t))) / SR)
    elif kind == "am":
        x = (0.55 + 0.45 * np.sin(2 * np.pi * 3 * t)) * np.sin(2 * np.pi * 600 * t)
    else:  # two tones
        x = np.sin(2 * np.pi * 300 * t) + np.sin(2 * np.pi * 2500 * t)
    spectrum = np.fft.rfft(x)
    spectrum[np.fft.rfftfreq(len(x), 1 / SR) > 7000.0] = 0.0
    x = np.fft.irfft(spectrum, len(x))
    return 0.5 * x / np.abs(x).max()


def _timed_pitch_track(x: np.ndarray, sr: int) -> tuple[np.ndarray, np.ndarray]:
    """(frame centre times in s, pitch frequency track) of x at sr."""
    cfg = DEFAULT_CONFIG
    freqs, _ = pitch_frequency_track(AudioClip(x, sr, "track"), cfg)
    return _frame_centers(len(freqs), *_pitch_window(cfg.pitch, sr), sr), freqs


class TestPitchAcrossRates:
    @pytest.mark.parametrize("kind", ["noise", "chirp", "am", "tones"])
    @pytest.mark.parametrize("sr", [16000, 22050])
    def test_track_follows_44k(self, kind, sr):
        """Below 25.6 kHz the zero-padded analysis tracks the same content at 44.1 kHz."""
        x = _band_limited(kind)
        times, ref = _timed_pitch_track(x, SR)
        low_times, low = _timed_pitch_track(resample_samples(x, SR, sr), sr)
        error = np.abs(np.interp(times, low_times, low) - ref)
        assert np.percentile(error, 95) <= 15.0


def _test_signal(kind: str, sr: int) -> AudioClip:
    rng = np.random.default_rng(sr)
    n = sr  # 1 s
    t = np.arange(n) / sr
    if kind == "noise":
        x = 0.3 * rng.standard_normal(n)
    elif kind == "tones":
        x = 0.4 * np.sin(2 * np.pi * 440 * t) + 0.3 * np.sin(2 * np.pi * 470 * t) \
            + 0.2 * np.sin(2 * np.pi * 1500 * t)
    else:  # silence with a noise burst in the middle
        x = np.where((t > 0.4) & (t < 0.6), 0.8 * rng.standard_normal(n), 0.0)
    return AudioClip(x, sr, kind)


BATCH_CASES = [(sr, kind) for sr in (32000, 44100, 48000, 96000)
               for kind in ("noise", "tones", "burst")]


class TestBatchedTracks:
    """The frame-batched tracks against per-frame references: one analysis call per frame."""

    @pytest.mark.parametrize("sr,kind", BATCH_CASES)
    def test_pitch_track_matches_per_frame(self, sr, kind):
        clip, cfg = _test_signal(kind, sr), DEFAULT_CONFIG
        pc = cfg.pitch
        window = int(round(pc.window_ms * sr / 1000.0))
        hop = int(round(window * (1.0 - pc.overlap)))
        coeffs = np.asarray(pc.regression_coeffs[:-1])
        ref_f, ref_a = [], []
        for frame in frame_signal(clip.samples, window, hop):
            specific = specific_loudness_frames(frame, window, window, sr)[0]
            total = float(specific.sum())
            features = specific / total if total > 0 else specific
            ref_f.append(np.clip(pc.regression_coeffs[-1] + features @ coeffs,
                                 pc.f_min_hz, pc.f_max_hz))
            ref_a.append(total)
        freqs, amps = pitch_frequency_track(clip, cfg)
        np.testing.assert_allclose(freqs, ref_f, rtol=1e-9, atol=0)
        np.testing.assert_allclose(amps, ref_a, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("sr,kind", BATCH_CASES)
    def test_plm_tracks_match_per_frame(self, sr, kind):
        clip, cfg = _test_signal(kind, sr), DEFAULT_CONFIG
        a0, a1 = cfg.plm.intensity_map
        b0, b1, b2 = cfg.plm.roughness_map
        size = cfg.plm.frame_size
        per_frame = [loudness_roughness_frames(f, size, sr)
                     for f in frame_signal(clip.samples, size, size)]
        ref_i = [max(0.0, a0 + a1 * np.log1p(loud[0])) for loud, _ in per_frame]
        ref_r = [max(0.0, b0 + b1 * rough[0] ** b2) for _, rough in per_frame]
        intensity, roughness = plm_feature_tracks(clip, cfg)
        np.testing.assert_allclose(intensity, ref_i, rtol=1e-9, atol=0)
        np.testing.assert_allclose(roughness, ref_r, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("sr", [8000, 11025, 16000, 22050, 25500])
    def test_pitch_converts_low_rates(self, sr):
        # a 10 ms window under 256 samples is zero-padded to a 256-point spectrum
        out = convert_pitch(_test_signal("noise", sr)).samples
        assert len(out) == 8000
        assert np.isfinite(out).all() and np.abs(out).max() <= 1.0
        est = instantaneous_frequency(out, 8000)
        assert est.min() >= 45.0 and est.max() <= 405.0

    def test_pitch_accepts_25_6k(self):
        assert len(convert_pitch(_test_signal("noise", 25600)).samples) == 8000


class TestHapticgen:
    def test_frequency_bounds(self, am_clip):
        out = convert_hapticgen(am_clip)
        est = instantaneous_frequency(out.samples, out.sample_rate)
        assert est.min() >= 145.0
        assert est.max() <= 255.0

    def test_constant_sine_pins_max_frequency(self):
        clip = sine_clip(200.0, duration=2.0)
        out = convert_hapticgen(clip)
        est = instantaneous_frequency(out.samples, out.sample_rate)
        assert np.all(np.abs(est - 250.0) <= 2.0)

    def test_silence_is_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            convert_hapticgen(AudioClip(np.zeros(SR), SR))


class TestNormalizeVibration:
    def test_constant_scaling(self):
        cfg = DEFAULT_CONFIG
        out = normalize_vibration(np.full(8000, 0.5), cfg, algorithm_tag="hapticgen",
                                  segment_len=80)
        assert np.allclose(out.samples, 0.15)

    def test_idempotent(self):
        cfg = DEFAULT_CONFIG
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(8000) * 0.3
        once = normalize_vibration(raw, cfg, algorithm_tag="pitch", segment_len=80)
        twice = normalize_vibration(once.samples, cfg, algorithm_tag="pitch", segment_len=80)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-6

    def test_two_burst_ratio_preserved(self):
        cfg = DEFAULT_CONFIG
        seg = 80
        levels = np.concatenate([np.full(seg * 4, 0.8), np.full(seg * 4, 0.2)])
        raw = levels * (-1.0) ** np.arange(len(levels))  # alternating, |x| = level
        out = normalize_vibration(raw, cfg, algorithm_tag="plm", segment_len=seg)
        loud = out.samples[: seg * 4]
        quiet = out.samples[seg * 4:]
        assert np.sqrt(np.mean(loud**2)) == pytest.approx(0.15, abs=1e-9)
        assert np.sqrt(np.mean(quiet**2)) == pytest.approx(0.0375, abs=1e-9)

    def test_segment_peak_counts_partial_tail(self):
        rng = np.random.default_rng(6)
        x = 0.1 * rng.standard_normal(250)
        x[-10:] *= 8.0  # loudest samples sit in the trailing partial segment
        out = normalize_vibration(x, DEFAULT_CONFIG, algorithm_tag="pitch", segment_len=80)
        peak = max(np.sqrt(np.mean(np.square(x[s:s + 80]))) for s in range(0, 250, 80))
        np.testing.assert_array_equal(out.samples, np.clip(x * (0.15 / peak), -1.0, 1.0))

    @pytest.mark.parametrize("kind", ["noise", "constant", "unit_sine", "quiet_sine"])
    def test_whole_signal_sets_rms(self, kind):
        x = {"noise": np.random.default_rng(4).standard_normal(8000),
             "constant": np.full(1000, 0.2),
             "unit_sine": sine_clip(50.0, duration=1.0, amp=1.0).samples,
             "quiet_sine": sine_clip(97.0, duration=0.5, amp=0.3).samples}[kind]
        out = normalize_vibration(x, DEFAULT_CONFIG, algorithm_tag="fshift")
        assert np.sqrt(np.mean(out.samples**2)) == pytest.approx(0.15, abs=1e-6)
        assert out.clipped_fraction == 0.0
        assert np.array_equal(np.diff(np.signbit(out.samples)), np.diff(np.signbit(x)))
        twice = normalize_vibration(out.samples, DEFAULT_CONFIG, algorithm_tag="fshift")
        assert np.max(np.abs(twice.samples - out.samples)) < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 79, 8000, 40001])
    @pytest.mark.parametrize("gain", [0.05, 40.0])
    def test_whole_signal_is_one_full_length_segment(self, n, gain):
        # the scale is target / whole-signal RMS, bit for bit, clamped or not
        x = gain * np.random.default_rng(n).standard_normal(n)
        whole = normalize_vibration(x, DEFAULT_CONFIG, algorithm_tag="fshift")
        one = normalize_vibration(x, DEFAULT_CONFIG, algorithm_tag="fshift", segment_len=n)
        scaled = x * (0.15 / float(np.sqrt(np.mean(np.square(x)))))
        np.testing.assert_array_equal(whole.samples, np.clip(scaled, -1.0, 1.0))
        np.testing.assert_array_equal(one.samples, whole.samples)
        assert whole.clipped_fraction == one.clipped_fraction \
            == np.count_nonzero(np.abs(scaled) > 1.0) / n

    @pytest.mark.parametrize("segment_len", [None, 80])
    def test_clamp_warns_and_counts(self, segment_len):
        # 1% of the samples are spikes that the 0.15 target pushes past full scale
        raw = np.full(8000, 0.01)
        raw[::100] = 1.0
        with pytest.warns(RuntimeWarning, match=r"clamped 1\.00% of samples"):
            out = normalize_vibration(raw, DEFAULT_CONFIG, algorithm_tag="plm",
                                      segment_len=segment_len)
        assert out.clipped_fraction == 0.01
        assert np.max(np.abs(out.samples)) == 1.0

    def test_silent_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize_vibration(np.zeros(8000), DEFAULT_CONFIG, algorithm_tag="fshift")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("segment_len", [None, 80])
    @pytest.mark.parametrize("level", [1e154, 1e200, 1e308])
    def test_huge_finite_output_scales(self, segment_len, level):
        # squaring these overflows float64; the output still lands on the target
        raw = level * np.random.default_rng(10).uniform(-1.0, 1.0, 8000)
        out = normalize_vibration(raw, DEFAULT_CONFIG, algorithm_tag="plm",
                                  segment_len=segment_len)
        unit = normalize_vibration(raw / level, DEFAULT_CONFIG, algorithm_tag="plm",
                                   segment_len=segment_len)
        np.testing.assert_allclose(out.samples, unit.samples, rtol=1e-12, atol=0)
        assert out.clipped_fraction == unit.clipped_fraction == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_huge_output_with_non_finite_sample_rejected(self, bad):
        raw = np.full(10, 1e200)
        raw[3] = bad
        with pytest.raises(NonFiniteSignalError, match="^plm: NaN or infinite"):
            normalize_vibration(raw, DEFAULT_CONFIG, algorithm_tag="plm")


# normalize_vibration before its in-range shortcut, kept as the reference it
# is checked against.
def _reference_normalize(raw, segment_len=None, target=0.15):
    n = len(raw)
    power = np.square(raw)
    segment_len = segment_len or n
    n_full = n - n % segment_len
    seg_ms = np.mean(power[:n_full].reshape(-1, segment_len), axis=1)
    if n_full < n:
        seg_ms = np.append(seg_ms, np.mean(power[n_full:]))
    scaled = raw * (target / float(np.sqrt(seg_ms.max())))
    return np.clip(scaled, -1.0, 1.0), int(np.count_nonzero(np.abs(scaled) > 1.0)) / n


class TestNormalizeReference:
    @pytest.mark.parametrize("segment_len", [None, 80])
    @pytest.mark.parametrize("kind", ["in_range", "spikes"])
    def test_matches_reference(self, segment_len, kind):
        raw = np.random.default_rng(8).standard_normal(8001)
        if kind == "spikes":  # eight samples the target pushes past full scale
            raw *= 0.01
            raw[500::1000] = 1.0
        want, clipped = _reference_normalize(raw, segment_len)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = normalize_vibration(raw, DEFAULT_CONFIG, algorithm_tag="plm",
                                      segment_len=segment_len)
        np.testing.assert_array_equal(out.samples, want)
        assert out.clipped_fraction == clipped
        assert clipped == (8 / 8001 if kind == "spikes" else 0.0)

    @pytest.mark.parametrize("segment_len", [None, 80])
    def test_full_scale_is_not_clamped(self, segment_len):
        # a target of 1 leaves a +/-1 square wave as it is: on the bounds, not past them
        raw = (-1.0) ** np.arange(8000)
        cfg = replace(DEFAULT_CONFIG, target_segment_rms=1.0)
        out = normalize_vibration(raw, cfg, algorithm_tag="plm", segment_len=segment_len)
        np.testing.assert_array_equal(out.samples, raw)
        assert out.clipped_fraction == 0.0


class TestNonFiniteOutput:
    # at 4200 the bad sample lies in the partial last segment
    @pytest.mark.parametrize("segment_len", [None, 80, 4200])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_normalize_rejects_naming_the_algorithm(self, segment_len, bad):
        raw = 0.1 * np.random.default_rng(9).standard_normal(8000)
        raw[4321] = bad
        with pytest.raises(NonFiniteSignalError, match="^pitch: NaN or infinite"):
            normalize_vibration(raw, DEFAULT_CONFIG, algorithm_tag="pitch",
                                segment_len=segment_len)

    def test_normalize_rejects_all_nan(self):
        with pytest.raises(NonFiniteSignalError, match="^plm: "):
            normalize_vibration(np.full(100, np.nan), DEFAULT_CONFIG, algorithm_tag="plm")

    # the stage whose result goes into normalization, poisoned with one NaN
    @pytest.mark.parametrize("algo, stage", [("plm", "_carrier_table"), ("fshift", "fshift_raw"),
                                             ("pitch", "nco_synthesize"),
                                             ("hapticgen", "nco_synthesize")])
    def test_converter_names_the_clip(self, monkeypatch, algo, stage):
        from hapticwave import converters

        build = getattr(converters, stage)

        def poisoned(*args):
            out = np.array(build(*args))
            out[len(out) // 2] = np.nan
            return out

        monkeypatch.setattr(converters, stage, poisoned)
        clip = sine_clip(440.0, duration=0.5)
        with pytest.raises(NonFiniteSignalError,
                           match=f"^clip sine440: {algo}: NaN or infinite converter output$"):
            convert(clip, algo)


class TestNonFiniteInput:
    @pytest.mark.parametrize("converter", [convert_plm, convert_fshift, convert_pitch,
                                           convert_hapticgen])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_naming_the_clip(self, converter, bad):
        clip = sine_clip(440.0, source_id="door_slam")
        clip.samples[SR // 3] = bad
        with pytest.raises(NonFiniteSignalError, match="door_slam"):
            converter(clip)


class TestHugeFiniteInput:
    """Finite input whose powers overflow: a typed error naming the clip, or fshift's output."""

    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_peak_1e154(self, algo):
        x = np.random.default_rng(21).standard_normal(SR)
        clip = AudioClip(x * (1e154 / np.abs(x).max()), SR, "jet_engine")
        if algo == "fshift":
            out = convert(clip, algo)
            assert len(out.samples) == 8000
            assert np.all(np.isfinite(out.samples)) and np.abs(out.samples).max() <= 1.0
            return
        with pytest.raises(NonFiniteSignalError, match="^clip jet_engine: input overflowed: "):
            convert(clip, algo)


class TestStageFiniteness:
    """The public stages reject non-finite input themselves; each conversion checks once."""

    @pytest.mark.parametrize("stage", [plm_feature_tracks, pitch_frequency_track, fshift_raw])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stage_rejects(self, stage, bad):
        clip = AudioClip(0.3 * np.random.default_rng(5).standard_normal(SR), SR, "rain")
        clip.samples[SR // 2] = bad
        with pytest.raises(NonFiniteSignalError, match="clip rain: 1 NaN or infinite"):
            stage(clip, DEFAULT_CONFIG)

    def test_unnamed_clip_named_in_words(self):
        clip = sine_clip(440.0)
        clip.source_id = None
        clip.samples[0] = np.nan
        with pytest.raises(NonFiniteSignalError) as info:
            convert_pitch(clip)
        assert "None" not in str(info.value)
        assert str(info.value).startswith("unnamed clip: 1 NaN")

    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_one_check_per_conversion(self, monkeypatch, algo):
        from hapticwave import converters

        calls = []
        check = converters.require_finite

        def counting(clip):
            calls.append(clip.source_id)
            check(clip)

        monkeypatch.setattr(converters, "require_finite", counting)
        convert(sine_clip(440.0, duration=0.5), algo)
        assert calls == ["sine440"]


# The typed-error grid: every rate and length a converter claims to take, on
# signals that reach each rejection path. Seeded per (signal, rate, length).
GRID_RATES = (8000, 11025, 16000, 22050, 44100, 44103, 48000, 96000)
GRID_SECONDS = (0.01, 0.05, 0.2, 1.0)


def _noise(rng, n):
    return 0.3 * rng.standard_normal(n)


def _with_sample(value):
    def signal(rng, n):
        x = _noise(rng, n)
        x[n // 2] = value
        return x
    return signal


def _impulse(rng, n):
    x = np.zeros(n)
    x[n // 2] = 1.0
    return x


def _huge(rng, n):
    x = rng.standard_normal(n)
    return x * (1e154 / np.abs(x).max())


GRID_SIGNALS = {
    "silence": lambda rng, n: np.zeros(n),
    "dc": lambda rng, n: np.full(n, 0.5),
    "impulse": _impulse,
    "noise": _noise,
    "square": lambda rng, n: np.where(np.arange(n) % 40 < 20, 1.0, -1.0),
    "huge": _huge,
    "nan": _with_sample(np.nan),
    "inf": _with_sample(np.inf),
}
_CLAMP_WARNING = re.compile(r"clamped \d+\.\d\d% of samples to \[-1, 1\]")


def _grid_outcome(clip: AudioClip, algo: str) -> str:
    """"output" or "error" for one conversion, failing on any third outcome.

    Output must be finite, of round(n * 8000 / sr) samples, in [-1, 1]; an
    error must be a HapticwaveError whose message starts with the clip's name.
    The only warning allowed is normalize_vibration's clamp report.
    """
    case = f"{algo} on {clip.source_id}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = convert(clip, algo).samples
        except HapticwaveError as exc:
            assert str(exc).startswith(f"clip {clip.source_id}: "), (case, str(exc))
            outcome = "error"
        else:
            assert len(out) == round(len(clip.samples) * 8000 / clip.sample_rate), case
            assert np.isfinite(out).all() and np.abs(out).max() <= 1.0, case
            outcome = "output"
    stray = [w for w in caught
             if not (w.category is RuntimeWarning and _CLAMP_WARNING.fullmatch(str(w.message)))]
    assert not stray, (case, [str(w.message) for w in stray])
    return outcome


class TestShortClips:
    def test_shorter_than_one_frame_is_padded(self):
        x = 0.3 * np.random.default_rng(6).standard_normal(2000)
        clip = AudioClip(x, SR, "click")
        assert len(x) < DEFAULT_CONFIG.plm.frame_size
        out = convert_plm(clip)
        assert len(out.samples) == 363 == len(convert_pitch(clip).samples)
        assert np.isfinite(out.samples).all() and np.abs(out.samples).max() <= 1.0
        intensity, _ = plm_feature_tracks(clip, DEFAULT_CONFIG)
        padded = AudioClip(np.pad(x, (0, 4096 - 2000)), SR, "click")
        assert np.array_equal(intensity, plm_feature_tracks(padded, DEFAULT_CONFIG)[0])

    @pytest.mark.parametrize("sr", [8000, 11025, 16000, 22050, 32000, 44100, 44103, 48000, 96000])
    @pytest.mark.parametrize("n", [0, 1, 300, 440, 441, 4095, 4097])
    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_length_grid(self, algo, n, sr):
        clip = AudioClip(0.3 * np.random.default_rng(n).standard_normal(n), sr, "click")
        want = round(n * 8000 / sr)
        if want == 0:
            # hapticgen finds an empty clip silent before any output exists
            reason = "silent input" if algo == "hapticgen" and n == 0 else "no output samples"
            with pytest.raises(DegenerateSignalError,
                               match=f"^clip click: degenerate signal: {reason}$"):
                convert(clip, algo)
            return
        try:
            out = convert(clip, algo).samples
        except DegenerateSignalError as exc:
            # a lone output sample sits at t = 0, where every synthesized carrier is zero
            assert want == 1 and algo != "fshift"
            assert str(exc) == ("clip click: degenerate signal: one output sample, at t = 0, "
                                "where every carrier is 0")
            return
        assert len(out) == want
        assert np.isfinite(out).all() and np.abs(out).max() <= 1.0

    @pytest.mark.parametrize("signal", GRID_SIGNALS)
    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_typed_error_grid(self, algo, signal):
        for i, seconds in enumerate(GRID_SECONDS):
            for sr in GRID_RATES:
                n = int(round(seconds * sr))
                rng = np.random.default_rng([list(GRID_SIGNALS).index(signal), i, sr])
                clip = AudioClip(GRID_SIGNALS[signal](rng, n), sr, f"{signal}-{sr}-{n}")
                _grid_outcome(clip, algo)

    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_typed_error_grid_long_clip(self, algo):
        rng = np.random.default_rng(20)
        clip = AudioClip(_noise(rng, 20 * 44100), 44100, "noise-44100-882000")
        assert _grid_outcome(clip, algo) == "output"

    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_silent_click_raises_typed(self, algo):
        with pytest.raises(DegenerateSignalError):
            convert(AudioClip(np.zeros(300), SR, "click"), algo)

    @pytest.mark.parametrize("source_id, name", [("click", "clip click"), (None, "unnamed clip")])
    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_silent_input_names_clip(self, algo, source_id, name):
        with pytest.raises(DegenerateSignalError, match=f"^{name}: degenerate signal: silent"):
            convert(AudioClip(np.zeros(300), SR, source_id), algo)


# The 8 kHz output stage of plm, pitch and hapticgen as it was before the
# cached time grid and carrier tables, every array built on each call; kept as
# the reference the converters are checked against.
def _reference_output(clip: AudioClip, algo: str, cfg) -> tuple[np.ndarray, float]:
    rate = clip.sample_rate
    t = np.arange(int(round(len(clip.samples) * 8000 / rate))) / 8000

    def interp(values, window, hop):
        return np.interp(t, (np.arange(len(values)) * hop + window / 2.0) / rate, values)

    if algo == "plm":
        frame = cfg.plm.frame_size
        intensity, rough = plm_feature_tracks(clip, cfg)
        mix = np.clip(rough * cfg.plm.carrier_mix, 0.0, 1.0)
        raw = interp(intensity * (1.0 - mix), frame, frame) \
            * np.sin(2.0 * np.pi * cfg.plm.carrier_low_hz * t) \
            + interp(intensity * mix, frame, frame) \
            * np.sin(2.0 * np.pi * cfg.plm.carrier_high_hz * t)
        return _reference_normalize(raw, int(round(frame * 8000 / rate)))
    if algo == "pitch":
        freqs, amps = pitch_frequency_track(clip, cfg)
        window_ms = cfg.pitch.window_ms
        window = ms_to_samples(window_ms, rate)
        hop = max(1, int(round(window * (1.0 - cfg.pitch.overlap))))
    else:
        hc = cfg.hapticgen
        window_ms = hc.window_ms
        window = hop = ms_to_samples(window_ms, rate)
        rms = frame_rms(clip.samples, window)
        amps = rms / rms.max()
        freqs = hc.f_center_hz - hc.f_dev_hz + 2.0 * hc.f_dev_hz * amps
    f, a = interp(freqs, window, hop), interp(amps, window, hop)
    phase = np.concatenate([[0.0], np.cumsum(f[:-1] * (2.0 * np.pi / 8000))])
    return _reference_normalize(a * np.sin(phase), ms_to_samples(window_ms, 8000))


class TestOutputStage:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 8000, 16000, 40000, 160000, _TABLE_LEN,
                                   _TABLE_LEN + 1])
    def test_tables_equal_formula(self, n):
        t = np.arange(n) / 8000
        grid = _time_grid(n)
        np.testing.assert_array_equal(grid, t)
        for freq in (175.0, 210.0, 97.3, 3999.9):
            table = _carrier_table(freq, n)
            assert table.shape == (n,)
            np.testing.assert_array_equal(table, np.sin(2.0 * np.pi * freq * t))
            assert not table.flags.writeable
            # a prefix of the kept table, or built for this output alone
            assert np.shares_memory(table, _carrier_table(freq, n)) == (n <= _TABLE_LEN)
        assert not grid.flags.writeable
        assert np.shares_memory(grid, _time_grid(n)) == (n <= _TABLE_LEN)

    def test_one_table_per_carrier(self):
        _kept_table.cache_clear()
        for n in range(1000, 1025):
            _time_grid(n)
            _carrier_table(175.0, n)
        # one table per (carrier or grid, power-of-two length)
        assert _kept_table.cache_info() == (48, 2, _MAX_TABLES, 2)
        _carrier_table(175.0, 1025)
        assert _kept_table.cache_info().misses == 3
        freqs = [float(f) for f in np.linspace(100.0, 300.0, 20)]
        for freq in freqs:
            _carrier_table(freq, 8000)
        assert _kept_table.cache_info().currsize == _MAX_TABLES == 12
        # the least recently used go first: the last 12 are kept, in the order they were read
        for freq in freqs[-12:]:
            _carrier_table(freq, 8000)
        assert _kept_table.cache_info().misses == 23
        _carrier_table(freqs[0], 8000)  # evicts freqs[-12]
        for freq in freqs[-11:]:
            _carrier_table(freq, 8000)
        assert _kept_table.cache_info().misses == 24
        _carrier_table(freqs[-12], 8000)
        assert _kept_table.cache_info().misses == 25
        kept = _kept_table.cache_info()
        _carrier_table(300.0, _TABLE_LEN + 1)  # built, not kept
        _time_grid(_TABLE_LEN + 1)
        assert _kept_table.cache_info() == kept

    def test_tables_sized_to_need(self):
        _kept_table.cache_clear()
        first = _carrier_table(175.0, 1000)
        assert np.shares_memory(first, _carrier_table(175.0, 1024))  # read from the kept table
        for n, size in [(1000, 1024), (1025, 2048), (10, 16), (8000, 8192),
                        (_TABLE_LEN, _TABLE_LEN), (1, 1)]:
            table = _carrier_table(175.0, n)
            # a prefix of the table kept at the next power of two
            assert table.base is _kept_table(175.0, size) and len(table.base) == size
            t = np.arange(n) / 8000
            np.testing.assert_array_equal(table, np.sin(2.0 * np.pi * 175.0 * t))
        kept = _kept_table.cache_info()
        table = _carrier_table(175.0, _TABLE_LEN + 1)
        assert table.base is None and _kept_table.cache_info() == kept
        t = np.arange(_TABLE_LEN + 1) / 8000
        np.testing.assert_array_equal(table, np.sin(2.0 * np.pi * 175.0 * t))

    def test_protocol_clips_build_nine_tables(self):
        # the paper's 1, 2 and 5 s clips at 44.1 kHz: plm reads the grid and two
        # carriers, pitch and hapticgen the grid, each at three lengths
        rng = np.random.default_rng(31)
        clips = [AudioClip(0.3 * rng.standard_normal(seconds * 44100), 44100, f"p{seconds}")
                 for seconds in (1, 2, 5)]
        _kept_table.cache_clear()
        for _ in range(3):
            for clip in clips:
                for algo in ("plm", "pitch", "hapticgen"):
                    convert(clip, algo)
        assert _kept_table.cache_info() == (36, 9, _MAX_TABLES, 9)

    def test_tables_shared_by_threads(self):
        # the grid and 11 carriers at up to 16 power-of-two lengths: far more tables than kept
        freqs = [None] + [100.0 + 10.0 * i for i in range(11)]
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for i in range(5000):  # most calls miss and evict a table, mostly on a short output
                    freq = freqs[(seed + i) % len(freqs)]
                    n = int(rng.integers(1, 20000 if i % 100 == 0 else 64))
                    table = _carrier_table(freq, n)
                    t = np.arange(n) / 8000
                    want = t if freq is None else np.sin(2.0 * np.pi * freq * t)
                    if not np.array_equal(table, want):
                        errors.append((freq, n))
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert _kept_table.cache_info().currsize <= _MAX_TABLES

    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_outputs_own_their_samples(self, algo, am_clip):
        out, again = convert(am_clip, algo), convert(am_clip, algo)
        n = len(out.samples)
        assert out.samples.flags.writeable
        assert not np.shares_memory(out.samples, again.samples)
        for table in (_time_grid(n), _carrier_table(175.0, n), _carrier_table(210.0, n)):
            assert not np.shares_memory(out.samples, table)

    @pytest.mark.parametrize("algo, sr", [(algo, sr)
                                          for algo in ("plm", "pitch", "hapticgen")
                                          for sr in (16000, 22050, 32000, 44100, 48000)
                                          if algo != "pitch" or sr >= 32000])
    def test_matches_uncached_synthesis(self, algo, sr):
        cfg = DEFAULT_CONFIG
        for clip in make_fixture_clips(5, sr=sr):
            want, clipped = _reference_output(clip, algo, cfg)
            for _ in range(2):  # the second call reads the cached tables
                out = convert(clip, algo, cfg)
                np.testing.assert_array_equal(out.samples, want)
                assert out.clipped_fraction == clipped


class TestDispatch:
    def test_dispatch_matches_direct_call(self, am_clip):
        via_dispatch = convert(am_clip, "plm")
        direct = convert_plm(am_clip)
        assert np.array_equal(via_dispatch.samples, direct.samples)

    @pytest.mark.parametrize("algo", CONVERTER_TAGS)
    def test_shared_default_config(self, am_clip, algo):
        want = convert(am_clip, algo, DEFAULT_CONFIG)
        for out in (convert(am_clip, algo), converters._CONVERTERS[algo](am_clip)):
            assert out.samples.tobytes() == want.samples.tobytes()
            assert out.clipped_fraction == want.clipped_fraction
        load_converter_config(overrides=["plm.carrier_mix=0.9", "psycho.max_peaks=3",
                                         f"pitch.regression_coeffs={[1.0] * 25}"])
        assert DEFAULT_CONFIG == ConverterConfig()
        again = convert(am_clip, algo)
        assert again.samples.tobytes() == want.samples.tobytes()

    def test_deterministic(self, am_clip):
        a = convert(am_clip, "fshift")
        b = convert(am_clip, "fshift")
        assert np.array_equal(a.samples, b.samples)

    def test_all_tags_duration_contract(self, fixture_clips):
        clip = fixture_clips[0]
        expected = round(len(clip.samples) * 8000 / clip.sample_rate)
        for tag in CONVERTER_TAGS:
            out = convert(clip, tag)
            assert out.sample_rate == 8000
            assert len(out.samples) == expected
            assert np.max(np.abs(out.samples)) <= 1.0

    def test_unknown_tag(self, am_clip):
        with pytest.raises(ValueError):
            convert(am_clip, "mystery")


def _leaves(node=DEFAULT_CONFIG, prefix=""):
    """(dotted key, dataclass field, default) of every leaf of the config tree, depth first."""
    for f in fields(node):
        value = getattr(node, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f, value


def _interval_edges(domain: Interval, like):
    """(value, inside) at each finite end of domain: a closed end, then the value just past it,
    or an open end itself, outside; of the type of like."""
    for end, bracket, outward in ((domain.lo, domain.ends[0], -1), (domain.hi, domain.ends[1], 1)):
        if np.isinf(end):
            continue
        end = type(like)(end)
        if bracket in "()":
            yield end, False
            continue
        yield end, True
        past = end + outward if isinstance(like, int) else np.nextafter(end, outward * np.inf)
        yield type(like)(past), False


def _edges(domain, default):
    """(value, inside) pairs on the edges of a leaf's domain, as JSON-ready values."""
    if isinstance(domain, OneOf):
        yield from ((c, True) for c in domain.choices)
        yield max(domain.choices) + 1, False
    elif isinstance(domain, Interval):
        yield from _interval_edges(domain, default)
    else:  # Entries: vary one entry of the default at a time
        for i in range(len(domain.domains)):
            for value, inside in _interval_edges(domain.domains[i], default[i]):
                yield list(default[:i]) + [value] + list(default[i + 1:]), inside


class TestConfig:
    def test_load_nested_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "target_segment_rms": 0.2,
            "hapticgen": {"f_dev_hz": 30.0},
            "fshift": {"shifts": [-12.0]},
        }))
        cfg = load_converter_config(path)
        assert cfg.target_segment_rms == 0.2
        assert cfg.hapticgen.f_dev_hz == 30.0
        assert cfg.fshift.shifts == (-12.0,)
        assert cfg.plm.frame_size == 4096

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hapticgen": {"f_weird": 1}}))
        with pytest.raises(SchemaError):
            load_converter_config(path)

    def test_file_and_overrides_merge_into_one_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pitch": {"f_min_hz": 500.0},
                                    "plm": {"carrier_mix": 0.9, "frame_size": 2048}}))
        # f_min 500 is only valid with the f_max the override brings
        cfg = load_converter_config(path, ["pitch.f_max_hz=800", "plm.carrier_mix=0.4"])
        assert (cfg.pitch.f_min_hz, cfg.pitch.f_max_hz) == (500.0, 800.0)
        assert cfg.plm.carrier_mix == 0.4
        assert cfg.plm.frame_size == 2048
        assert cfg == load_converter_config(overrides=[
            "pitch.f_min_hz=500", "plm.frame_size=2048", "pitch.f_max_hz=800",
            "plm.carrier_mix=0.4"])

    @pytest.mark.parametrize("overrides, message", [
        (["plm.foo=1"], "unknown config key plm.foo"),
        (["size=1"], "unknown config key size"),
        (["plm.frame_size=true"], "config key plm.frame_size expects int, got True"),
        (["hapticgen=3"], "config key hapticgen expects a section object, got 3"),
        (["plm.carrier_mix=2"], "plm.carrier_mix must be in [0, 1], got 2.0"),
    ])
    def test_errors_spell_keys_as_set_does(self, overrides, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_converter_config(overrides=overrides)

    def test_override_through_a_file_leaf_is_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"plm": 3}))
        with pytest.raises(SchemaError,
                           match="^config key plm.frame_size: plm is not a section$"):
            load_converter_config(path, ["plm.frame_size=2048"])

    @pytest.mark.parametrize("with_input", [False, True])
    def test_result_shares_no_section_with_default(self, tmp_path, with_input):
        # a loaded config may hand back DEFAULT_CONFIG's own sections; every
        # node is frozen and every sequence a tuple, so none can be written
        args = ()
        if with_input:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"plm": {"carrier_mix": 0.9}}))
            args = (path, ["pitch.f_max_hz=800", "psycho.max_peaks=3",
                           f"pitch.regression_coeffs={[1.0] * 25}"])
        loaded = load_converter_config(*args)
        assert DEFAULT_CONFIG == ConverterConfig()
        assert DEFAULT_CONFIG.psycho is DEFAULT_PSYCHO_CONFIG
        for cfg in (DEFAULT_CONFIG, loaded):
            sections = [getattr(cfg, f.name) for f in fields(cfg)]
            for node in [cfg] + [sec for sec in sections if is_dataclass(sec)]:
                for f in fields(node):
                    value = getattr(node, f.name)
                    assert not isinstance(value, (list, dict, np.ndarray)), f.name
                    with pytest.raises(FrozenInstanceError):
                        setattr(node, f.name, value)

    def test_dotted_overrides(self):
        cfg = load_converter_config(overrides=["plm.carrier_mix=0.4"])
        assert cfg.plm.carrier_mix == 0.4

    def test_invalid_ranges_rejected(self):
        with pytest.raises(SchemaError, match="^pitch.f_min_hz must be below pitch.f_max_hz$"):
            load_converter_config(overrides=["pitch.f_min_hz=500"])
        with pytest.raises(SchemaError, match="target_segment_rms"):
            load_converter_config(overrides=["target_segment_rms=0"])

    @pytest.mark.parametrize("overrides, message", [
        (["hapticgen.f_dev_hz=200"], "hapticgen frequency range must stay inside (0, 4000) Hz, got "
         "hapticgen.f_center_hz +/- hapticgen.f_dev_hz = 0 to 400"),
        (["hapticgen.f_center_hz=3980"], "hapticgen frequency range must stay inside"),
        (["hapticgen.f_dev_hz=-1"], "hapticgen.f_dev_hz must be in [0, 4000), got -1.0"),
        (["pitch.regression_coeffs=[1.0, 2.0]"], "pitch regression needs 24 band weights plus "
         "an intercept, got 2 in pitch.regression_coeffs"),
        ([f"pitch.regression_coeffs={json.dumps([0.5] * 26)}"],
         "pitch regression needs 24 band weights"),
        (["pitch.window_ms=0"], "pitch.window_ms must be in [1, 10000], got 0.0"),
        (["hapticgen.window_ms=-2.5"], "hapticgen.window_ms must be in [1, 10000], got -2.5"),
        ([f"psycho.contour_freqs={[-20.0] + list(DEFAULT_PSYCHO_CONFIG.contour_freqs[1:])}"],
         "psycho.contour_freqs must be in (0, inf) for each entry, got (-20.0, 25.0, "),
        ([f"psycho.contour_freqs={[0.0] + list(DEFAULT_PSYCHO_CONFIG.contour_freqs[1:])}"],
         "psycho.contour_freqs must be in (0, inf) for each entry, got (0.0, 25.0, "),
        (["psycho.loudness_scale=-1"], "psycho.loudness_scale must be in [1e-06, 1e+06], got -1.0"),
        (["psycho.loudness_scale=0"], "psycho.loudness_scale must be in [1e-06, 1e+06], got 0.0"),
        (["psycho.contour_freqs=[]", "psycho.contour_gains_db=[]"],
         "psycho.contour_freqs must not be empty"),
        (["fshift.hp_cutoff_hz=-1"], "fshift.hp_cutoff_hz must be in (0, inf), got -1.0"),
        (["fshift.bp_center_hz=0"], "fshift.bp_center_hz must be in [1, inf), got 0.0"),
        (["plm.roughness_map=[0,1,-1]"], "plm.roughness_map must be in [-1e+06, 1e+06] x "
         "[-1e+06, 1e+06] x (0, 1], got (0.0, 1.0, -1.0)"),
        (["plm.roughness_map=[0,1,0]"], "plm.roughness_map must be in [-1e+06, 1e+06] x "
         "[-1e+06, 1e+06] x (0, 1], got (0.0, 1.0, 0.0)"),
        (["pitch.window_ms=10000.5"], "pitch.window_ms must be in [1, 10000], got 10000.5"),
        (["hapticgen.window_ms=1e9"],
         "hapticgen.window_ms must be in [1, 10000], got 1000000000.0"),
        (["plm.frame_size=1048577"], "plm.frame_size must be in [1024, 1048576], got 1048577"),
        (["plm.frame_size=512"], "plm.frame_size must be in [1024, 1048576], got 512"),
        # one domain per entry: the map holds exactly two
        (["plm.intensity_map=[1]"],
         "plm.intensity_map must be in [-1e+06, 1e+06] x [1e-06, 1e+06], got (1.0,)"),
    ])
    def test_out_of_range_value_rejected(self, overrides, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}"):
            load_converter_config(overrides=overrides)

    @pytest.mark.parametrize("section, key, value, message", [
        ("psycho", "max_peaks", 10.5, "config key psycho.max_peaks expects int, got 10.5"),
        ("fshift", "shifts", [-12.0], "config key fshift.shifts expects tuple, got [-12.0]"),
        ("pitch", "window_ms", "10", "config key pitch.window_ms expects float, got '10'"),
        ("plm", "frame_size", True, "config key plm.frame_size expects int, got True"),
        ("plm", "roughness_map", (0.0, 1.0, 0.5, 1.0), "plm.roughness_map must be in "
         "[-1e+06, 1e+06] x [-1e+06, 1e+06] x (0, 1], got (0.0, 1.0, 0.5, 1.0)"),
    ])
    def test_replaced_config_is_checked_at_construction(self, section, key, value, message):
        node = replace(getattr(DEFAULT_CONFIG, section), **{key: value})
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            replace(DEFAULT_CONFIG, **{section: node})

    def test_replaced_section_must_be_a_section(self):
        with pytest.raises(SchemaError, match="^config key plm expects PlmConfig, got 3$"):
            replace(DEFAULT_CONFIG, plm=3)

    def test_number_in_a_float_leaf_is_accepted(self):
        assert replace(DEFAULT_CONFIG, target_segment_rms=1) == \
            load_converter_config(overrides=["target_segment_rms=1"])

    def test_spelling_step_raises_nothing(self):
        # _typed reads JSON's spellings as the default's type and leaves the rest to the config
        assert _typed((0.0,), [1, 2.5]) == (1.0, 2.5)
        assert type(_typed(0.5, 1)) is float
        for current, value in [(4096, True), (4096, 4096.0), (0.5, "x"), (0.5, float("nan")),
                               ((0.0,), [1, "x"]), ((0.0,), 5)]:
            assert _typed(current, value) is value

    def test_window_bounds_are_inclusive(self):
        cfg = load_converter_config(overrides=["pitch.window_ms=10000", "hapticgen.window_ms=10000",
                                               "plm.frame_size=1048576"])
        assert (cfg.pitch.window_ms, cfg.hapticgen.window_ms, cfg.plm.frame_size) == (
            10000.0, 10000.0, 1 << 20)

    def test_every_leaf_round_trips_its_default(self):
        found = list(_leaves())
        assert len(found) == 34
        assert sum(dotted.startswith("psycho.") for dotted, _, _ in found) == 13
        for dotted, _, default in found:
            cfg = load_converter_config(overrides=[f"{dotted}={json.dumps(default)}"])
            assert cfg == DEFAULT_CONFIG, dotted

    @pytest.mark.parametrize("dotted, domain, default", [
        pytest.param(dotted, f.metadata.get("domain"), default, id=dotted)
        for dotted, f, default in _leaves()])
    def test_every_leaf_is_checked_against_its_domain(self, dotted, domain, default):
        assert domain is not None, f"{dotted} declares no domain"
        for value, inside in _edges(domain, default):
            override = f"{dotted}={json.dumps(value)}"
            if inside:
                load_converter_config(overrides=[override])
                continue
            message = f"{dotted} must be in {domain}, got "
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}"):
                load_converter_config(overrides=[override])

    def test_removed_normalize_features_is_an_unknown_key(self):
        for value in ("true", "false"):
            with pytest.raises(SchemaError,
                               match="^unknown config key pitch.normalize_features$"):
                load_converter_config(overrides=[f"pitch.normalize_features={value}"])

    def test_readme_table_gives_every_leaf_its_domain(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `([\w.]+)` \| .+ \| `(.+)` \|$", readme, re.MULTILINE))
        declared = {dotted: str(f.metadata["domain"]) for dotted, f, _ in _leaves()}
        assert rows == declared

    @pytest.mark.parametrize("dotted,value,algos", [
        ("psycho.loudness_exponent", "0.3", ("plm", "pitch")),
        ("psycho.kernel_scale", "0.5", ("plm",)),
    ])
    def test_psycho_override_reaches_converters(self, am_clip, dotted, value, algos):
        cfg = load_converter_config(overrides=[f"{dotted}={value}"])
        for algo in algos:
            assert not np.array_equal(convert(am_clip, algo, cfg).samples,
                                      convert(am_clip, algo).samples), algo
