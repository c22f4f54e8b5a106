"""Tests for WAV I/O and resampling."""

from __future__ import annotations

import struct
import wave

import numpy as np
import pytest

from hapticwave.audio_io import (
    AudioClip,
    VibrationSignal,
    fit_length,
    load_wav,
    resample_samples,
    save_wav,
)
from hapticwave.cli import run
from hapticwave.errors import (
    AudioFormatError,
    HapticwaveError,
    NonFiniteSignalError,
)

from conftest import SR, dominant_frequency, sine_clip, write_pcm16_wav


class TestLoadSave:
    def test_round_trip_error_bound(self, tmp_path):
        clip = sine_clip(200.0, duration=0.5)
        path = tmp_path / "sine.wav"
        save_wav(clip, path)
        loaded = load_wav(path)
        assert loaded.sample_rate == SR
        assert np.max(np.abs(loaded.samples - clip.samples)) <= 1.0 / 32768.0

    def test_duration_sample_count(self, tmp_path):
        clip = sine_clip(100.0, duration=5.0)
        path = tmp_path / "five.wav"
        save_wav(clip, path)
        assert len(load_wav(path).samples) == 220500

    def test_stereo_mean_mixdown(self, tmp_path):
        path = tmp_path / "stereo.wav"
        frames = 100
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(2)
            wav.setsampwidth(2)
            wav.setframerate(8000)
            left = int(0.5 * 32768)
            right = int(-0.5 * 32768)
            wav.writeframes(struct.pack(f"<{2 * frames}h", *([left, right] * frames)))
        loaded = load_wav(path)
        assert len(loaded.samples) == frames
        assert np.allclose(loaded.samples, 0.0, atol=1.0 / 32768.0)

    @pytest.mark.parametrize("width", [1, 3])
    def test_non_16_bit_rejected(self, tmp_path, width):
        path = tmp_path / f"w{width}.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(width)
            wav.setframerate(8000)
            wav.writeframes(bytes(10 * width))
        with pytest.raises(AudioFormatError, match=f"w{width}.wav: expected 16-bit PCM, "
                                                   f"got {8 * width}-bit"):
            load_wav(path)

    def test_full_scale_negative(self, tmp_path):
        path = tmp_path / "neg.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(8000)
            wav.writeframes(struct.pack("<h", -32768))
        assert load_wav(path).samples[0] == -1.0

    def test_positive_full_scale_saturates(self, tmp_path):
        path = tmp_path / "pos.wav"
        save_wav(AudioClip(np.array([1.0]), 8000), path)
        with wave.open(str(path), "rb") as wav:
            raw = wav.readframes(1)
        assert struct.unpack("<h", raw)[0] == 32767

    def test_vibration_rejects_unknown_tag(self):
        with pytest.raises(ValueError, match="^unknown algorithm tag: 'vortex'$"):
            VibrationSignal(samples=np.zeros(8), algorithm_tag="vortex")

    def test_vibration_header_contract(self, tmp_path):
        sig = VibrationSignal(samples=np.zeros(40000) + 0.1, algorithm_tag="hapticgen")
        path = tmp_path / "vib.wav"
        save_wav(sig, path)
        with wave.open(str(path), "rb") as wav:
            assert wav.getframerate() == 8000
            assert wav.getnframes() == 40000
            assert wav.getnchannels() == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_refused(self, tmp_path, bad):
        samples = np.full(8000, 0.1)
        samples[4321] = bad
        path = tmp_path / "bad.wav"
        with pytest.raises(NonFiniteSignalError, match="1 non-finite"):
            save_wav(VibrationSignal(samples=samples, algorithm_tag="fshift"), path)
        assert issubclass(NonFiniteSignalError, HapticwaveError)
        assert not path.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "out.wav"
        old = sine_clip(100.0, duration=0.2)
        if existing:
            save_wav(old, path)
            before = path.read_bytes()

        def half_then_fail(self, data):
            self.writeframesraw(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(wave.Wave_write, "writeframes", half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_wav(sine_clip(300.0, duration=0.5), path)
        assert [p.name for p in tmp_path.iterdir()] == (["out.wav"] if existing else [])
        if existing:
            assert path.read_bytes() == before

    def test_write_replaces_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.wav"
        save_wav(sine_clip(100.0, duration=0.2), path)
        save_wav(AudioClip(np.full(10, 0.25), 8000), path)
        assert [p.name for p in tmp_path.iterdir()] == ["out.wav"]
        np.testing.assert_array_equal(load_wav(path).samples, np.full(10, 0.25))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_non_pcm_rejected(self, tmp_path):
        # hand-rolled RIFF header with format tag 3 (IEEE float)
        path = tmp_path / "float.wav"
        data = struct.pack("<4f", 0.0, 0.1, 0.2, 0.3)
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
            + b"data" + struct.pack("<I", len(data)) + data
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(AudioFormatError):
            load_wav(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        samples = [0, 1000, -1000, 32767]
        assert load_wav(write_pcm16_wav(tmp_path / "ok.wav", samples, 8000)).sample_rate == 8000
        path = write_pcm16_wav(tmp_path / "norate.wav", samples, 0)
        with pytest.raises(AudioFormatError) as err:
            load_wav(path)
        assert str(err.value) == f"{path}: sample rate 0 Hz"

    @pytest.mark.parametrize("rate", [0, -44100, 44100.0, True])
    def test_clip_rate_must_be_a_positive_integer(self, rate):
        # construct only: a clip at a tiny positive rate would convert to n * 8000 / rate samples
        with pytest.raises(AudioFormatError) as err:
            AudioClip(np.zeros(8), rate, "odd")
        assert str(err.value) == \
            f"clip odd: sample rate must be a positive integer, got {rate!r}"
        assert AudioClip(np.zeros(8), np.int64(8000)).sample_rate == 8000

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(8000)
        with pytest.raises(AudioFormatError):
            load_wav(path)

    @pytest.mark.parametrize("channels, cut", [(1, 1), (2, 2)])
    def test_data_chunk_cut_mid_frame_rejected(self, tmp_path, capsys, channels, cut):
        path = tmp_path / "cut.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(channels)
            wav.setsampwidth(2)
            wav.setframerate(16000)
            wav.writeframes(np.full(1000 * channels, 1000, dtype="<i2").tobytes())
        path.write_bytes(path.read_bytes()[:-cut])
        _assert_ends_mid_frame(path, 2000 * channels - cut, channels, capsys)

    @pytest.mark.parametrize("channels, n_bytes", [(1, 3), (2, 6)])
    def test_declared_chunk_ends_mid_frame_rejected(self, tmp_path, capsys, channels, n_bytes):
        """A whole file whose header declares a data chunk ending in a partial frame."""
        path = tmp_path / "odd.wav"
        fmt = struct.pack("<HHIIHH", 1, channels, 16000, 32000 * channels, 2 * channels, 16)
        data = bytes(range(1, n_bytes + 1)) + b"\0" * (n_bytes % 2)  # RIFF pads odd chunks
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
            + b"data" + struct.pack("<I", n_bytes) + data
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        _assert_ends_mid_frame(path, n_bytes, channels, capsys)

    def test_save_is_deterministic(self, tmp_path):
        clip = sine_clip(333.0, duration=0.3)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        save_wav(clip, p1)
        save_wav(clip, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _assert_ends_mid_frame(path, n_bytes, channels, capsys):
    """load_wav and `convert` both refuse path, naming its chunk's size in bytes."""
    message = f"{path}: data chunk ends mid-frame ({n_bytes} bytes, {2 * channels}-byte frames)"
    with pytest.raises(AudioFormatError) as err:
        load_wav(path)
    assert str(err.value) == message
    out = path.with_name("out.wav")
    assert run(["convert", "--algo", "plm", "--in", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestFitLength:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.int16, np.int64])
    def test_keeps_dtype(self, dtype):
        x = np.arange(1, 6).astype(dtype)
        padded = fit_length(x, 8)
        assert padded.dtype == dtype
        np.testing.assert_array_equal(padded, np.pad(x, (0, 3)))
        assert not np.shares_memory(padded, x)
        cut = fit_length(x, 3)
        assert cut.dtype == dtype and np.array_equal(cut, x[:3])
        assert fit_length(x, 5).dtype == dtype


class TestResample:
    @pytest.mark.parametrize("n", [1, 7999, 16001])
    def test_near_equal_rate_copies(self, n):
        # 8000/7999 rounds to 1/1 under limit_denominator(1000): a plain copy, fit to length
        x = np.random.default_rng(n).standard_normal(n)
        want = round(n * 8000 / 7999)
        out = resample_samples(x, 7999, 8000)
        np.testing.assert_array_equal(out, np.pad(x, (0, want - n))[:want])

    def test_length_ratio(self):
        clip = sine_clip(100.0, duration=5.0)
        out = resample_samples(clip.samples, SR, 24000)
        assert len(out) == 120000

    def test_identity_rate(self):
        clip = sine_clip(100.0, duration=0.2)
        out = resample_samples(clip.samples, SR, SR)
        assert np.array_equal(out, clip.samples)

    def test_tone_survives(self):
        clip = sine_clip(1000.0, duration=1.0)
        out = resample_samples(clip.samples, SR, 8000)
        bin_hz = 8000 / len(out)
        assert abs(dominant_frequency(out, 8000) - 1000.0) <= bin_hz

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4410)
        a = 2.7
        y1 = resample_samples(a * x, SR, 8000)
        y2 = a * resample_samples(x, SR, 8000)
        assert np.max(np.abs(y1 - y2)) <= 1e-9 * max(1.0, np.max(np.abs(y2)))

    def test_alias_rejection_60db(self):
        # a 5 kHz tone is above the 4 kHz target Nyquist; whatever leaks
        # through must sit >= 60 dB below a passband tone of equal level
        n = SR
        t = np.arange(n) / SR
        alias = resample_samples(np.sin(2 * np.pi * 5000 * t), SR, 8000)
        passband = resample_samples(np.sin(2 * np.pi * 1000 * t), SR, 8000)
        w = np.hanning(len(alias))
        leak = np.max(np.abs(np.fft.rfft(alias * w)))
        ref = np.max(np.abs(np.fft.rfft(passband * w)))
        assert 20 * np.log10(leak / ref) <= -60.0

    def test_empty_input(self):
        with pytest.raises(ValueError):
            resample_samples(np.array([]), SR, 8000)

    @pytest.mark.parametrize("source_rate, target_rate", [(0, 8000), (-SR, 8000), (SR, 0),
                                                          (SR, -8000)])
    def test_non_positive_rate(self, source_rate, target_rate):
        with pytest.raises(ValueError, match="^sample rates must be positive$"):
            resample_samples(np.ones(100), source_rate, target_rate)
