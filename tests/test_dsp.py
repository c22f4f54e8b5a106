"""Tests for the spectral and filtering primitives."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from scipy.signal import butter, resample_poly, sosfilt

from hapticwave import audio_io, dsp
from hapticwave.audio_io import (
    AudioClip,
    _kaiser_lowpass,
    _ratio,
    halve_rate,
    resample_by_ratio,
    resample_samples,
)
from hapticwave.errors import DegenerateSignalError, NonFiniteSignalError
from hapticwave.converters import DEFAULT_CONFIG, _fshift_work_rate, convert_fshift, fshift_raw
from hapticwave.curation import extract_features
from hapticwave.dsp import (
    _analysis,
    _band_edges,
    _cascade_sos,
    _istft,
    _overlap_norm,
    _stretch_frames,
    butterworth_filter,
    frame_signal,
    frame_rms,
    hann_window,
    mel_filterbank,
    nco_synthesize,
    pitch_shift,
    stft,
)
from hapticwave.psychoacoustics import loudness_roughness_frames, specific_loudness_frames

from conftest import (
    SR,
    _bursts,
    _chirp,
    dominant_frequency,
    instantaneous_frequency,
    sine_clip,
)


# fshift's default filters: a 2nd-order 10 Hz highpass, then a 4th-order bandpass at 250 Hz, Q 1
HP, BP = (10.0, 2), (250.0, 1.0, 4)


def fshift_filters_by_scipy(x: np.ndarray, sr: int) -> np.ndarray:
    """HP then BP, each designed by scipy's butter and run by its own sosfilt."""
    hp = butter(2, 10.0, btype="highpass", fs=sr, output="sos")
    bp = butter(2, _band_edges(250.0, 1.0), btype="bandpass", fs=sr, output="sos")
    return sosfilt(bp, sosfilt(hp, x))


def swept_gain(freq: float, sr: int) -> float:
    t = np.arange(sr) / sr
    y = butterworth_filter(np.sin(2 * np.pi * freq * t), HP, BP, sr)
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

    @pytest.mark.parametrize("n", [0, 1, 100, 1023])
    def test_short_signal_padded_to_one_frame(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        out = stft(x, 1024, 256)
        assert out.shape == (1, 513)
        np.testing.assert_array_equal(out, stft(np.pad(x, (0, 1024 - n)), 1024, 256))

    def test_any_frame_size(self):
        x = np.random.default_rng(5).standard_normal(4096)
        np.testing.assert_array_equal(stft(x, 1000, 256), _unblocked_stft(x, 1000, 256))

    @pytest.mark.parametrize("hop", [0, -1, 1025])
    def test_hop_outside_frame(self, hop):
        with pytest.raises(ValueError, match=r"hop must be in \(0, fft_size\]"):
            stft(np.zeros(4096), 1024, hop)


class TestButterworth:
    def test_bandpass_center_gain(self):
        gains = {f: swept_gain(f, SR) for f in (150, 200, 250, 300, 400)}
        top = max(gains.values())
        assert gains[250] >= top * 10 ** (-1 / 20)

    def test_bandpass_stopband(self):
        g250 = swept_gain(250, SR)
        g2500 = swept_gain(2500, SR)
        assert 20 * np.log10(g2500 / g250) <= -30.0

    def test_highpass_kills_dc(self):
        y = butterworth_filter(np.ones(SR), HP, BP, SR)
        assert np.sqrt(np.mean(y[SR // 2:] ** 2)) < 0.01

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(2000), rng.standard_normal(2000)
        lhs = butterworth_filter(a + b, HP, BP, 8000)
        rhs = butterworth_filter(a, HP, BP, 8000) + butterworth_filter(b, HP, BP, 8000)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_output_length(self):
        assert len(butterworth_filter(np.ones(12345), HP, BP, SR)) == 12345

    # scipy's butter raises the ValueError; its text differs between scipy versions
    def test_cutoff_above_nyquist(self):
        with pytest.raises(ValueError):
            butterworth_filter(np.ones(100), (5000.0, 2), BP, 8000)

    def test_cutoff_at_nyquist(self):
        with pytest.raises(ValueError):
            butterworth_filter(np.ones(100), (4000.0, 2), BP, 8000)

    @pytest.mark.parametrize("center, q", [
        (2000.0, 2.0 / 3.0),  # Q = 2/3 puts the edges at f0 / 2 and 2 f0: exactly Nyquist
        (3000.0, 1.0),
        (3990.0, 50.0),
    ])
    def test_band_edge_at_or_above_nyquist(self, center, q):
        with pytest.raises(ValueError):
            butterworth_filter(np.ones(100), HP, (center, q, 4), 8000)


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
        with pytest.raises(DegenerateSignalError, match="^clip gap: cannot pitch-shift"):
            pitch_shift(AudioClip(np.zeros(0), SR, "gap"), -12)


    def test_tuple_range_limit(self):
        with pytest.raises(ValueError):
            pitch_shift(sine_clip(440.0, duration=0.1), (-12.0, 25.0))

    @pytest.mark.parametrize("semitones", [-2.0, (-12.0, -24.0), (0.0,)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_clip(self, semitones, bad):
        x = np.random.default_rng(4).standard_normal(8000)
        x[4000] = bad
        with pytest.raises(NonFiniteSignalError, match="^clip hum: 1 NaN or infinite samples$"):
            pitch_shift(AudioClip(x, 16000, "hum"), semitones)


# The per-frame phase vocoder and overlap-add that pitch_shift replaced, kept
# as the reference its vectorised form is checked against.
def _loop_istft(spectrum, fft_size, hop, length):
    window = hann_window(fft_size)
    frames = np.fft.irfft(spectrum, n=fft_size, axis=1) * window[None, :]
    n_frames = spectrum.shape[0]
    out = np.zeros(fft_size + hop * (n_frames - 1))
    norm = np.zeros_like(out)
    w2 = window * window
    for i in range(n_frames):
        start = i * hop
        out[start:start + fft_size] += frames[i]
        norm[start:start + fft_size] += w2
    out /= np.maximum(norm, 1e-8)
    if len(out) >= length:
        return out[:length]
    return np.pad(out, (0, length - len(out)))


def _loop_stretch_frames(signal, rate, fft_size, hop):
    x = signal
    if len(x) < fft_size + hop:
        x = np.pad(x, (0, fft_size + hop - len(x)))
    window = hann_window(fft_size)
    spectrum = np.fft.rfft(frame_signal(x, fft_size, hop) * window[None, :], axis=1)
    n_frames, n_bins = spectrum.shape
    mags = np.abs(spectrum)
    phases = np.angle(spectrum)
    expected_advance = 2.0 * np.pi * hop * np.arange(n_bins) / fft_size
    steps = np.arange(0, n_frames - 1, rate)
    out = np.empty((len(steps), n_bins), dtype=complex)
    accumulated = phases[0].copy()
    for j, t in enumerate(steps):
        i = int(t)
        frac = t - i
        mag = (1.0 - frac) * mags[i] + frac * mags[i + 1]
        out[j] = mag * np.exp(1j * accumulated)
        deviation = phases[i + 1] - phases[i] - expected_advance
        deviation -= 2.0 * np.pi * np.round(deviation / (2.0 * np.pi))
        accumulated += expected_advance + deviation
    return out


def _loop_pitch_shift(samples, semitones, fft_size=2048, hop=None):
    hop = hop or fft_size // 4
    ratio = 2.0 ** (semitones / 12.0)
    rate = 1.0 / ratio
    frames = _loop_stretch_frames(samples, rate, fft_size, hop)
    stretched = _loop_istft(frames, fft_size, hop, int(round(len(samples) / rate)))
    shifted = resample_by_ratio(stretched, 1.0 / ratio)
    n = len(samples)
    return shifted[:n] if len(shifted) >= n else np.pad(shifted, (0, n - len(shifted)))


def _gathered_stretch_frames(mags, phasors, rate):
    """_stretch_frames' blocks with every analysis row gathered by fancy index."""
    i = np.arange(0, len(mags) - 1, rate).astype(np.intp)
    n_bins = mags.shape[1]
    carry, blocks = phasors[0], []
    for rows in dsp._block_rows(len(i), 2 * (n_bins - 1)):
        first = max(rows.start - 1, 0)
        run = np.empty((rows.stop - first, n_bins), dtype=complex)
        run[0] = carry
        np.conjugate(phasors[i[first:rows.stop - 1]], out=run[1:])
        run[1:] *= phasors[i[first:rows.stop - 1] + 1]
        np.cumprod(run, axis=0, out=run)
        carry = run[-1].copy()
        out = run[rows.start - first:]
        out *= mags[i[rows]]
        blocks.append((rows, out))
    return blocks


def _vocoder_signal(kind, sr):
    t = np.arange(sr) / sr
    if kind == "noise":
        return 0.3 * np.random.default_rng(sr).standard_normal(sr)
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    if kind == "silence_then_tone":  # all-zero frames: bins with |S| == 0
        tone[: sr // 2] = 0.0
    return tone


VOCODER_CASES = [(kind, sr) for kind in ("noise", "tone", "silence_then_tone")
                 for sr in (16000, 44100, 48000)]
FSHIFT_CASES = [(kind, sr) for kind in ("noise", "tone", "silence_then_tone")
                for sr in (16000, 22050, 32000, 44100, 48000)]

# (fft_size, hop) grids: the default, a hop that does not divide the FFT, the
# grid fshift uses at half the input rate, and one smaller still.
VOCODER_GRIDS = [pytest.param((2048, None), id="None"), pytest.param((2048, 300), id="300"),
                 pytest.param((1024, 256), id="1024/256"),
                 pytest.param((512, 128), id="512/128")]


class TestVocoderEquivalence:
    @pytest.mark.parametrize("hop", [512, 300, 2048, 700])
    @pytest.mark.parametrize("extra", [-900, 0, 1500])
    def test_overlap_add_is_bit_identical(self, hop, extra):
        rng = np.random.default_rng(hop)
        for n_frames in (1, 3, 4, 37):  # fewer, as many and more frames than 2048 / hop
            spectrum = (rng.standard_normal((n_frames, 1025))
                        + 1j * rng.standard_normal((n_frames, 1025)))
            length = max(0, 2048 + hop * (n_frames - 1) + extra)
            want = _loop_istft(spectrum, 2048, hop, length)
            for step in (1, 5, n_frames):  # blocks of frames, the last one short
                blocks = [(slice(i, min(i + step, n_frames)), spectrum[i:i + step])
                          for i in range(0, n_frames, step)]
                assert np.array_equal(_istft(n_frames, blocks, 2048, hop, length), want)

    @pytest.mark.parametrize("grid", VOCODER_GRIDS)
    def test_overlap_norm_equals_inline_sums(self, grid):
        fft_size, hop = grid
        hop = hop or fft_size // 4
        k = -(-fft_size // hop)
        w2 = np.pad(hann_window(fft_size) ** 2, (0, k * hop - fft_size)).reshape(k, hop)
        for m in range(1, k + 1):
            want = np.zeros((m + k - 1, hop))
            for j in range(k - 1, -1, -1):
                want[j:j + m] += w2[j]
            norm = _overlap_norm(fft_size, hop, m)
            assert np.array_equal(norm, np.maximum(want, 1e-8))
            assert not norm.flags.writeable
            assert _overlap_norm(fft_size, hop, m) is norm

    @pytest.mark.parametrize("kind,sr", VOCODER_CASES)
    @pytest.mark.parametrize("grid", VOCODER_GRIDS)
    def test_stretch_frames_match_loop(self, kind, sr, grid):
        fft_size, hop = grid
        hop = hop or fft_size // 4
        x = _vocoder_signal(kind, sr)
        mags, phasors = _analysis(x, fft_size, hop)
        for semitones in (-24, -12, -7, -2, 2):
            rate = 2.0 ** (-semitones / 12.0)
            n_frames, blocks = _stretch_frames(mags, phasors, rate)
            stretched = np.concatenate([frames for _, frames in blocks])
            assert len(stretched) == n_frames
            np.testing.assert_allclose(stretched,
                                       _loop_stretch_frames(x, rate, fft_size, hop),
                                       rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("rate", [2.0, 4.0])
    @pytest.mark.parametrize("fft_size", [1024, 2048])
    @pytest.mark.parametrize("half_blocks", [2, 5, 6])
    def test_whole_rate_strides_equal_gathers(self, rate, fft_size, half_blocks):
        """fshift's octave rates read strided views; the bits equal row gathers of the same rows.

        The first quarter of the clip is digital silence (zero-magnitude bins).
        With a whole number of blocks before it, the last output block holds
        one frame: the two-row cumprod.
        """
        hop = fft_size // 4
        per_block = dsp._BLOCK_BYTES // (8 * fft_size)
        n_out = half_blocks * per_block // 2 + (half_blocks % 2 == 0)
        n_frames = int(rate) * (n_out - 1) + 2
        x = 0.3 * np.random.default_rng(fft_size + n_out).standard_normal(
            (n_frames - 1) * hop + fft_size)
        x[:len(x) // 4] = 0.0
        mags, phasors = _analysis(x, fft_size, hop)
        assert len(mags) == n_frames and np.count_nonzero(mags == 0) > 0
        n, blocks = _stretch_frames(mags, phasors, rate)
        got = list(blocks)
        assert n == n_out
        assert (got[-1][0].stop - got[-1][0].start == 1) == (half_blocks % 2 == 0)
        want = _gathered_stretch_frames(mags, phasors, rate)
        assert [rows for rows, _ in got] == [rows for rows, _ in want]
        for (_, out), (_, ref) in zip(got, want):
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("kind,sr", VOCODER_CASES)
    @pytest.mark.parametrize("grid", VOCODER_GRIDS)
    @pytest.mark.parametrize("semitones", [-24, -12, -7, -2, 2])
    def test_pitch_shift_matches_loop(self, kind, sr, grid, semitones):
        fft_size, hop = grid
        x = _vocoder_signal(kind, sr)
        ref = _loop_pitch_shift(x, semitones, fft_size, hop)
        out = pitch_shift(AudioClip(x, sr), semitones, fft_size, hop).samples
        # In the last fft_size samples of a -2 or +2 shift the overlap-add
        # divides by a window-square sum that falls toward its 1e-8 floor, so
        # values reach ~1e3 on noise and the reference's own phase rounding
        # (a float phase accumulated to ~1e5 rad) is magnified there too.
        np.testing.assert_allclose(out[:-fft_size], ref[:-fft_size], rtol=0, atol=1e-9)
        assert np.linalg.norm(out - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_tuple_is_sum_of_single_shifts(self):
        clip = AudioClip(_vocoder_signal("noise", 44100), 44100)
        shifts = (-12.0, 0.0, -24.0, 2.0)
        total = pitch_shift(clip, shifts).samples
        assert np.array_equal(total, sum(pitch_shift(clip, s).samples for s in shifts))
        assert np.array_equal(pitch_shift(clip, ()).samples, np.zeros(44100))

    def test_tuple_takes_one_analysis_fft(self, monkeypatch):
        """One framing of the clip, and rfft rows (over several blocks) summing to its frames."""
        framed, rows = [], []
        rfft, frame = np.fft.rfft, dsp.frame_signal
        monkeypatch.setattr(np.fft, "rfft", lambda a, **k: rows.append(len(a)) or rfft(a, **k))
        monkeypatch.setattr(dsp, "frame_signal",
                            lambda *a: framed.append(len(frame(*a))) or frame(*a))
        pitch_shift(AudioClip(_vocoder_signal("noise", 44100), 44100), (-12.0, -24.0, 2.0))
        assert framed == [(44100 - 2048) // 512 + 1]
        assert len(rows) > 1 and sum(rows) == framed[0]

    @pytest.mark.parametrize("block_frames", ["one", "block - 1", "block + 1", "1 GiB"])
    @pytest.mark.parametrize("sr, fft_size, hop", [(16000, 2048, 512), (44100, 2048, 512),
                                                   (22050, 1024, 256), (44100, 2048, 300)])
    def test_block_size_does_not_change_output(self, monkeypatch, block_frames, sr, fft_size,
                                                hop):
        """pitch_shift agrees with one block of every frame, whatever the block seams."""
        x = _vocoder_signal("noise", sr)
        x = np.concatenate([x, x[: sr // 2]])  # 1.5 s: more than one default block
        shifts = (-24.0, -12.0, -2.0, 2.0, (-12.0, -24.0))
        monkeypatch.setattr(dsp, "_BLOCK_BYTES", 1 << 30)
        want = [pitch_shift(AudioClip(x, sr), s, fft_size, hop).samples for s in shifts]
        frame_bytes = 8 * fft_size
        block_bytes = {"one": frame_bytes, "block - 1": (1 << 19) - frame_bytes,
                       "block + 1": (1 << 19) + frame_bytes, "1 GiB": 1 << 30}[block_frames]
        monkeypatch.setattr(dsp, "_BLOCK_BYTES", block_bytes)
        for s, ref in zip(shifts, want):
            out = pitch_shift(AudioClip(x, sr), s, fft_size, hop).samples
            np.testing.assert_allclose(out, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("kind,sr", FSHIFT_CASES)
    def test_fshift_raw_matches_loop_pipeline(self, kind, sr):
        # The full-rate fshift pipeline, with the per-frame vocoder loops.
        x = _vocoder_signal(kind, sr)
        mixed = x.astype(np.float64)
        for semitones in (-12.0, -24.0):
            mixed = mixed + _loop_pitch_shift(x, semitones)
        filtered = fshift_filters_by_scipy(mixed, sr)
        ref = resample_poly(filtered, *_rates(sr), window=("kaiser", 7.0))[:8000]
        out = fshift_raw(AudioClip(x, sr), DEFAULT_CONFIG)
        if _fshift_work_rate(sr) == sr:
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)
        else:
            _assert_fshift_bound(out, ref, 1.0)


def _rates(sr):
    g = gcd(sr, 8000)
    return 8000 // g, sr // g


def _full_rate_fshift(x, sr):
    """fshift_raw without decimation: the vocoder, filters and resample at sr."""
    mixed = x + pitch_shift(AudioClip(x, sr), (-12.0, -24.0)).samples
    return resample_samples(fshift_filters_by_scipy(mixed, sr), sr, 8000)


def _assert_fshift_bound(out, ref, duration):
    """The stated bound of decimated fshift against the full-rate pipeline."""
    max_rel, min_corr = (2e-2, 0.9995) if duration >= 0.05 else (5e-2, 0.999)
    assert len(out) == len(ref)
    rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
    corr = out @ ref / (np.linalg.norm(out) * np.linalg.norm(ref))
    assert rel <= max_rel and corr >= min_corr, (duration, rel, corr)


def _bound_signal(kind, sr, duration):
    """The bound's input signals, over the 0.002-sigma floor the benchmark corpus uses."""
    n = int(round(duration * sr))
    rng = np.random.default_rng(n)
    t = np.arange(n) / sr
    if kind == "noise":
        x = 0.3 * rng.standard_normal(n)
    elif kind == "bursts":  # 500 Hz Hann bursts every 0.25 s
        x = 0.5 * _bursts(rng, n, sr, 4.0)
    elif kind == "chirp":
        x = 0.5 * _chirp(rng, n, sr, 100.0, 4000.0)
    else:
        x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        if kind == "silence_then_tone":
            x[: n // 2] = 0.0
    return x + 0.002 * rng.standard_normal(n)


BOUND_KINDS = ("noise", "tone", "silence_then_tone", "bursts", "chirp")


class TestDecimatedFshift:
    @pytest.mark.parametrize("sr,rate", [(8000, 8000), (16000, 16000), (22050, 22050),
                                         (32000, 32000), (44100, 22050), (44101, 44101),
                                         (48000, 24000), (88200, 44100), (96000, 48000)])
    def test_work_rate_halves_once_above_22050(self, sr, rate):
        assert _fshift_work_rate(sr) == rate

    @pytest.mark.parametrize("sr", [44100, 48000, 96000])
    @pytest.mark.parametrize("duration", [0.01, 0.05, 0.2, 1.0])
    def test_bound_against_full_rate(self, sr, duration):
        for kind in BOUND_KINDS:
            x = _bound_signal(kind, sr, duration)
            _assert_fshift_bound(fshift_raw(AudioClip(x, sr)), _full_rate_fshift(x, sr),
                                 duration)

    @pytest.mark.parametrize("sr", [44100, 48000])
    @pytest.mark.parametrize("duration", [0.01, 0.05])
    def test_short_noise_tail(self, sr, duration):
        # On 10-50 ms of white noise the full-rate output depends on the band
        # above the working Nyquist (removing it with an ideal band-limit
        # moves the output as much as decimating does), so about one draw in
        # 100 lands past the bound. Pin how rare that stays and how far.
        limit = 2e-2 if duration >= 0.05 else 5e-2
        n = int(round(duration * sr))
        rel = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = 0.3 * rng.standard_normal(n) + 0.002 * rng.standard_normal(n)
            out, ref = fshift_raw(AudioClip(x, sr)), _full_rate_fshift(x, sr)
            rel.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        assert np.mean(np.array(rel) > limit) <= 0.05
        assert max(rel) <= 1.5 * limit

    @pytest.mark.parametrize("sr", [8000, 16000, 22050, 32000, 44101])
    @pytest.mark.parametrize("duration", [0.01, 1.0])
    def test_full_rate_when_not_decimated_is_bit_identical(self, sr, duration):
        for kind in BOUND_KINDS:
            x = _bound_signal(kind, sr, duration)
            assert np.array_equal(fshift_raw(AudioClip(x, sr)), _full_rate_fshift(x, sr))

    @pytest.mark.parametrize("sr", [16000, 22050, 32000, 44100, 48000, 96000])
    @pytest.mark.parametrize("duration", [0.01, 1.0, 20.0])
    def test_exact_length(self, sr, duration):
        rng = np.random.default_rng(sr)
        for n in {int(round(duration * sr)) + extra for extra in (0, 1, 3)}:
            out = fshift_raw(AudioClip(0.3 * rng.standard_normal(n), sr))
            assert len(out) == int(round(n * 8000 / sr))
            if duration == 20.0:
                break

    @pytest.mark.parametrize("sr", [44100, 96000])
    def test_shorter_than_one_output_sample(self, sr):
        # 1 sample halves to none; the clip is too short for 8 kHz either way.
        assert len(fshift_raw(AudioClip(np.full(1, 0.1), sr))) == 0

    @pytest.mark.parametrize("sr", [48000, 96000])
    def test_exact_silence_bursts_keep_invariants(self, sr):
        # Between bursts the input is exact digital silence, where the
        # full-rate pipeline itself is ill-conditioned (a 1e-12 perturbation
        # moves its output by a relative L2 above 1), so only the converter
        # invariants are asserted here.
        n = 3 * sr
        x = 0.5 * _bursts(None, n, sr, 4.0)
        out = convert_fshift(AudioClip(x, sr, "bursts")).samples
        assert len(out) == n * 8000 // sr
        assert np.all(np.isfinite(out)) and np.max(np.abs(out)) <= 1.0
        power = np.abs(np.fft.rfft(out)) ** 2
        freqs = np.fft.rfftfreq(len(out), 1 / 8000)
        assert power[freqs < 1000].sum() >= 0.8 * power.sum()


class TestCachedDesign:
    def test_filters_are_read_only_and_reused(self):
        sos = _cascade_sos(HP, BP, 44100)
        assert not sos.flags.writeable
        assert _cascade_sos(HP, BP, 44100) is sos
        h = _kaiser_lowpass(80, 441)
        assert not h.flags.writeable
        assert _kaiser_lowpass(80, 441) is h

    def test_stacked_filters_are_read_only_and_reused(self):
        sos = _cascade_sos((30.0, 4), (400.0, 2.0, 2), 22050)
        assert not sos.flags.writeable
        assert _cascade_sos((30.0, 4), (400.0, 2.0, 2), 22050) is sos
        # scipy's N doubles for bandpass: a 2nd-order bandpass is butter's N = 1
        assert np.array_equal(sos, np.vstack([
            butter(4, 30.0, btype="highpass", fs=22050, output="sos"),
            butter(1, _band_edges(400.0, 2.0), btype="bandpass", fs=22050, output="sos")]))

    @pytest.mark.parametrize("target, source", [(8000, 44100), (8000, 44103), (8000, 7999),
                                                (22050, 44100), (1, 1),
                                                (2.0 ** (-12 / 12.0), 1), (2.0 ** (1.3 / 12.0), 1)])
    def test_ratios_equal_limit_denominator(self, target, source):
        frac = (Fraction(target) / source).limit_denominator(1000)
        assert _ratio(target, source) == (frac.numerator, frac.denominator)
        if source != 1:
            assert _ratio(target, source) == (Fraction(target, source).limit_denominator(1000)
                                              .as_integer_ratio())

    def test_mel_filterbank_is_read_only_and_reused(self):
        bank = mel_filterbank(26, 2048, 44100)
        assert not bank.flags.writeable
        assert mel_filterbank(26, 2048, 44100) is bank
        assert bank.shape == (26, 1025)
        assert np.array_equal(bank, mel_filterbank.__wrapped__(26, 2048, 44100))

    @pytest.mark.parametrize("size", [1, 220, 441, 1024, 2048, 4096])
    def test_hann_window_is_read_only_and_reused(self, size):
        window = hann_window(size)
        assert not window.flags.writeable
        assert hann_window(size) is window
        assert np.array_equal(window, 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size))

    @pytest.mark.parametrize("sr", [8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000,
                                    88200, 96000, 176400, 192000])
    def test_resample_samples_is_bit_identical(self, sr):
        x = np.random.default_rng(sr).standard_normal(sr)
        want = resample_poly(x, *_rates(sr), window=("kaiser", 7.0))[:8000]
        assert np.array_equal(resample_samples(x, sr, 8000), want)

    @pytest.mark.parametrize("sr", [44103, 44101, 37801])
    def test_odd_rates_design_short_filters(self, sr, monkeypatch):
        taps = []
        design = audio_io._kaiser_lowpass
        monkeypatch.setattr(audio_io, "_kaiser_lowpass",
                            lambda up, down: taps.append(len(design(up, down))) or design(up, down))
        x = np.random.default_rng(sr).standard_normal(sr // 4)
        out = resample_samples(x, sr, 8000)
        assert len(out) == round(len(x) * 8000 / sr)
        assert np.isfinite(out).all()
        assert taps and max(taps) <= 20001

    def test_fshift_at_odd_rate(self):
        x = 0.3 * np.random.default_rng(7).standard_normal(44103)
        out = convert_fshift(AudioClip(x, 44103))
        assert len(out.samples) == 8000
        assert np.isfinite(out.samples).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 41, 1001, 44100])
    def test_halve_rate_equals_resample_to_rounding(self, n):
        h = _kaiser_lowpass(1, 2)
        assert np.max(np.abs(h[len(h) // 2 + 2::2])) < 1e-16  # half-band
        x = np.random.default_rng(n).standard_normal(n)
        out = halve_rate(x)
        assert len(out) == int(round(n / 2))
        np.testing.assert_allclose(out, resample_samples(x, 48000, 24000), rtol=0, atol=1e-14)

    def test_halve_rate_rejects_empty(self):
        with pytest.raises(ValueError):
            halve_rate(np.zeros(0))

    @pytest.mark.parametrize("ratio", [2.0, 4.0, 2.0 ** (1.3 / 12.0)])
    def test_resample_by_ratio_is_bit_identical(self, ratio):
        # Integer upsampling skips resample_poly's zero taps, so it matches
        # to rounding only; every other ratio runs resample_poly itself.
        x = np.random.default_rng(5).standard_normal(20000)
        frac = Fraction(ratio).limit_denominator(1000)
        want = resample_poly(x, frac.numerator, frac.denominator, window=("kaiser", 7.0))
        want = want[:int(round(20000 * ratio))]
        if frac.denominator == 1:
            np.testing.assert_allclose(resample_by_ratio(x, ratio), want, rtol=0, atol=1e-14)
        else:
            assert np.array_equal(resample_by_ratio(x, ratio), want)

    @pytest.mark.parametrize("up", [2, 3, 4, 5, 8])
    def test_upsampling_filter_is_up_th_band(self, up):
        h = _kaiser_lowpass(up, 1)
        c = len(h) // 2
        assert np.max(np.abs(np.concatenate([h[c + up::up], h[c - up::-up]]))) < 1e-16

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 41, 1001, 44100])
    @pytest.mark.parametrize("up", [2, 3, 4, 5, 8])
    def test_integer_upsampling_equals_resample_poly_to_rounding(self, up, n):
        x = np.random.default_rng(n).standard_normal(n)
        out = resample_by_ratio(x, float(up))
        assert len(out) == n * up
        if n:  # resample_poly rejects an empty signal
            np.testing.assert_allclose(out, resample_poly(x, up, 1, window=("kaiser", 7.0)),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sr", [16000, 44100, 48000])
    def test_stacked_filters_are_bit_identical(self, sr):
        x = np.random.default_rng(sr).standard_normal(sr)
        assert np.array_equal(butterworth_filter(x, HP, BP, sr), fshift_filters_by_scipy(x, sr))


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

    @pytest.mark.parametrize("track", ["freq", "amp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_track_rejected(self, track, bad):
        tracks = {"freq": np.full(4, 200.0), "amp": np.ones(4)}
        tracks[track][2] = bad
        with pytest.raises(ValueError, match={"freq": "frequency", "amp": "amplitude"}[track]):
            nco_synthesize(tracks["freq"], tracks["amp"], 8000)

    def test_all_nan_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            nco_synthesize(np.full(4, np.nan), np.ones(4), 8000)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            nco_synthesize(np.full(4, 200.0), np.array([1.0, -1e-12, 1.0, 1.0]), 8000)

    @pytest.mark.parametrize("n", [1, 2, 8000])
    def test_matches_phase_accumulation_formula(self, n):
        rng = np.random.default_rng(n)
        freq = rng.uniform(50.0, 400.0, n)
        amp = rng.uniform(0.0, 2.0, n)
        phase = np.concatenate([[0.0], np.cumsum(freq[:-1] * (2.0 * np.pi / 8000))])
        out = nco_synthesize(freq, amp, 8000)
        assert np.array_equal(out, amp * np.sin(phase))
        assert out.flags.writeable and not np.shares_memory(out, freq)


class TestFrameRms:
    def test_constant(self):
        out = frame_rms(np.full(8000, 0.5), 80, 80)
        assert np.allclose(out, 0.5)

    def test_sine_rms(self):
        t = np.arange(SR) / SR
        out = frame_rms(np.sin(2 * np.pi * 440 * t), 4410, 4410)
        assert np.all(np.abs(out - 1 / np.sqrt(2)) <= 0.01 / np.sqrt(2))

    def test_silence(self):
        out = frame_rms(np.zeros(8000), 80, 40)
        assert not out.any()

    @pytest.mark.parametrize("frame_size, hop", [(0, 80), (80, 0), (-1, 80), (80, -5),
                                                 (4, 0), (0, 2)])
    def test_size_and_hop_at_least_one(self, frame_size, hop):
        for frame in (frame_rms, frame_signal):
            with pytest.raises(ValueError, match="^frame size and hop must be at least 1 sample$"):
                frame(np.ones(10), frame_size, hop)

    @pytest.mark.parametrize("n", [0, 1, 10, 799])
    def test_window_longer_than_signal(self, n):
        # the signal is padded to one 800-sample window
        x = np.random.default_rng(n).standard_normal(n)
        out = frame_rms(x, 800, 800)
        assert out.shape == (1,)
        np.testing.assert_array_equal(out, frame_rms(np.pad(x, (0, 800 - n)), 800, 800))


class TestFrameSignal:
    @pytest.mark.parametrize("frame_size, hop", [(1024, 256), (441, 220), (64, 64), (16, 40),
                                                 (5, 1)])
    def test_equals_sliding_window_view(self, frame_size, hop):
        rng = np.random.default_rng(frame_size + hop)
        for n in (0, 1, frame_size - 1, frame_size, frame_size + 1, frame_size + hop,
                  3 * frame_size + 2 * hop + 1):
            x = rng.standard_normal(n)
            frames = frame_signal(x, frame_size, hop)
            padded = np.pad(x, (0, max(0, frame_size - n)))
            want = np.lib.stride_tricks.sliding_window_view(padded, frame_size)[::hop]
            assert frames.shape == want.shape and frames.strides == want.strides
            assert np.array_equal(frames, want)
            assert not frames.flags.writeable
            assert n < frame_size or np.shares_memory(frames, x)

    def test_strided_input(self):
        x = np.random.default_rng(1).standard_normal(5000)[::3]
        want = np.lib.stride_tricks.sliding_window_view(x, 100)[::30]
        assert np.array_equal(frame_signal(x, 100, 30), want)

    @pytest.mark.parametrize("n", [0, 1, 300, 1023])
    def test_short_signal_padded_to_one_frame(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        frames = frame_signal(x, 1024, 256)
        assert frames.shape == (1, 1024)
        np.testing.assert_array_equal(frames, np.pad(x, (0, 1024 - n))[None, :])


def _unblocked_stft(signal, frame_size, hop):
    """stft as one rfft over every Hann-windowed frame at once."""
    frames = frame_signal(np.asarray(signal, dtype=np.float64), frame_size, hop)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_size) / frame_size)
    return np.abs(np.fft.rfft(frames * window, axis=1))


def _unblocked_frame_rms(signal, frame_size, hop):
    """frame_rms as one mean over every frame at once."""
    frames = frame_signal(np.asarray(signal, dtype=np.float64), frame_size, hop)
    return np.sqrt(np.mean(np.square(frames), axis=1))


def _unblocked_analysis(signal, fft_size, hop):
    """_analysis as one rfft over every frame, with exp(i * angle) on zero bins."""
    x = np.pad(signal, (0, max(0, fft_size + hop - len(signal))))
    spectrum = np.fft.rfft(frame_signal(x, fft_size, hop) * hann_window(fft_size), axis=1)
    mags = np.abs(spectrum)
    zero = mags == 0
    phasors = spectrum / np.where(zero, 1.0, mags)
    phasors[zero] = np.exp(1j * np.angle(spectrum[zero]))
    return mags, phasors


def _seam_frame_counts(frame_size: int) -> tuple[int, ...]:
    """1 frame, a block less one frame, one block, a block and one frame, 3.5 blocks."""
    per_block = dsp._BLOCK_BYTES // (8 * frame_size)
    return 1, per_block - 1, per_block, per_block + 1, 7 * per_block // 2


SEAM_GRID = [(size, hop) for size in (256, 441, 480, 1024, 2048, 4096)
             for hop in (size, size // 2)]


class TestFrameBlocks:
    """Blocked frame analyses equal the one-shot ones at every block seam."""

    @pytest.mark.parametrize("frame_size, hop", SEAM_GRID)
    def test_stft_seams_bit_identical(self, frame_size, hop):
        rng = np.random.default_rng(frame_size + hop)
        for n_frames in _seam_frame_counts(frame_size):
            x = rng.standard_normal((n_frames - 1) * hop + frame_size)
            out = stft(x, frame_size, hop)
            assert out.shape == (n_frames, frame_size // 2 + 1)
            np.testing.assert_array_equal(out, _unblocked_stft(x, frame_size, hop))

    @pytest.mark.parametrize("frame_size, hop", SEAM_GRID)
    def test_frame_rms_bit_identical(self, frame_size, hop):
        rng = np.random.default_rng(frame_size - hop)
        for n_frames in _seam_frame_counts(frame_size):
            x = rng.standard_normal((n_frames - 1) * hop + frame_size)
            out = frame_rms(x, frame_size, hop)
            assert out.shape == (n_frames,)
            np.testing.assert_array_equal(out, _unblocked_frame_rms(x, frame_size, hop))

    @pytest.mark.parametrize("frame_size, hop", SEAM_GRID)
    def test_analysis_seams_bit_identical(self, frame_size, hop):
        """Vocoder magnitudes and phasors, with zero frames, and a signal under two frames."""
        rng = np.random.default_rng(frame_size * hop)
        lengths = [(n - 1) * hop + frame_size for n in _seam_frame_counts(frame_size)]
        zero_bins = 0
        for n in lengths + [frame_size + hop - 1]:
            x = rng.standard_normal(n)
            x[n // 2:n // 2 + frame_size + hop] = 0.0  # holds a whole zero frame once n is long
            mags, phasors = _analysis(x, frame_size, hop)
            ref_mags, ref_phasors = _unblocked_analysis(x, frame_size, hop)
            np.testing.assert_array_equal(mags, ref_mags)
            np.testing.assert_array_equal(phasors, ref_phasors)
            zero_bins += np.count_nonzero(mags == 0)
        assert zero_bins > 0

    def test_stft_bit_identical(self):
        x = np.random.default_rng(11).standard_normal(5 * SR)
        np.testing.assert_array_equal(stft(x, 2048, 512), _unblocked_stft(x, 2048, 512))

    def test_frames_once_per_analysis(self, monkeypatch):
        """One frame_signal call per analysis, returning every frame, as the tracer counts."""
        counted = []

        def counting(signal, frame_size, hop):
            frames = frame_signal(signal, frame_size, hop)
            counted.append(len(frames))
            return frames

        monkeypatch.setattr(dsp, "frame_signal", counting)
        x = np.random.default_rng(12).standard_normal(20 * SR)
        analyses = [
            (lambda: stft(x, 1024, 512), 1024, 512),
            (lambda: frame_rms(x, 441, 441), 441, 441),
            (lambda: specific_loudness_frames(x, 441, 220, SR), 441, 220),
            (lambda: loudness_roughness_frames(x, 4096, 4096, SR), 4096, 4096),
            (lambda: pitch_shift(AudioClip(x, SR), (-12.0, -24.0)), 2048, 512),
            (lambda: extract_features(AudioClip(x, SR)), 2048, 512),
        ]
        for analysis, frame_size, hop in analyses:
            counted.clear()
            analysis()
            assert counted == [(len(x) - frame_size) // hop + 1]
            assert counted[0] > dsp._BLOCK_BYTES // (8 * frame_size)  # more than one block
