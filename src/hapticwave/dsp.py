"""Spectral and filtering primitives shared by the converters, curation, and metrics.

Everything here is a pure function of its inputs; no module state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfilt

from .audio_io import AudioClip, resample_by_ratio


def hann_window(size: int) -> np.ndarray:
    """Periodic Hann window (the DFT-friendly variant)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size)


def ms_to_samples(ms: float, sample_rate: int) -> int:
    """Length of a millisecond span in samples, rounded, at least 1."""
    return max(1, int(round(ms * sample_rate / 1000.0)))


def frame_signal(signal: np.ndarray, frame_size: int, hop: int) -> np.ndarray:
    """Slice a signal into (n_frames, frame_size) with no padding.

    n_frames = floor((len - frame_size) / hop) + 1, so a trailing partial
    frame is dropped. The result is a read-only strided view of the signal,
    not a copy.
    """
    n = len(signal)
    if n < frame_size:
        raise ValueError(f"signal of {n} samples is shorter than one {frame_size}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(signal, frame_size)[::hop]


def frame_spectra(signal: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """Magnitude rfft of every windowed frame, (n_frames, len(window) // 2 + 1); square for power."""
    frames = frame_signal(np.asarray(signal, dtype=np.float64), len(window), hop)
    return np.abs(np.fft.rfft(frames * window, axis=1))


@dataclass
class FilterSpec:
    """Butterworth filter description; bandpass Q is center over bandwidth."""

    kind: str  # "highpass" | "bandpass"
    center_or_cutoff: float
    q: float = 1.0
    order: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("highpass", "bandpass"):
            raise ValueError(f"unknown filter kind: {self.kind!r}")
        if self.order not in (2, 4):
            raise ValueError("filter order must be 2 or 4")
        if self.q <= 0:
            raise ValueError("q must be positive")


def stft(signal: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """Magnitude STFT, (n_frames, fft_size // 2 + 1), with a Hann window and no padding."""
    if fft_size <= 0 or (fft_size & (fft_size - 1)) != 0:
        raise ValueError("fft_size must be a power of two")
    if not 0 < hop <= fft_size:
        raise ValueError("hop must be in (0, fft_size]")
    return frame_spectra(signal, hann_window(fft_size), hop)


def _butter_sos(spec: FilterSpec, sample_rate: int) -> np.ndarray:
    nyquist = sample_rate / 2.0
    if spec.kind == "highpass":
        if spec.center_or_cutoff >= nyquist:
            raise ValueError("cutoff must be below Nyquist")
        return butter(spec.order, spec.center_or_cutoff, btype="highpass",
                      fs=sample_rate, output="sos")
    # Bandpass edges from center frequency and Q = f0 / bandwidth, with f0 the
    # geometric mean of the edges. scipy's N doubles for bandpass, so N = order/2
    # yields the requested composite order.
    half = np.sqrt(1.0 + 1.0 / (4.0 * spec.q**2))
    low = spec.center_or_cutoff * (half - 1.0 / (2.0 * spec.q))
    high = spec.center_or_cutoff * (half + 1.0 / (2.0 * spec.q))
    if high >= nyquist:
        raise ValueError("upper band edge must be below Nyquist")
    return butter(spec.order // 2, [low, high], btype="bandpass", fs=sample_rate, output="sos")


def butterworth_filter(signal: np.ndarray, spec: FilterSpec, sample_rate: int) -> np.ndarray:
    """Causal Butterworth filtering as a cascade of biquad sections."""
    sos = _butter_sos(spec, sample_rate)
    return sosfilt(sos, np.asarray(signal, dtype=np.float64))


def _istft(spectrum: np.ndarray, fft_size: int, hop: int, length: int) -> np.ndarray:
    """Overlap-add inverse of a complex STFT with Hann analysis + synthesis."""
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


def _time_stretch(signal: np.ndarray, rate: float, fft_size: int, hop: int) -> np.ndarray:
    """Phase-vocoder time scaling; rate > 1 shortens, output ~ len/rate."""
    x = signal
    if len(x) < fft_size + hop:
        x = np.pad(x, (0, fft_size + hop - len(x)))
    window = hann_window(fft_size)
    frames = frame_signal(x, fft_size, hop)
    spectrum = np.fft.rfft(frames * window[None, :], axis=1)
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
    return _istft(out, fft_size, hop, int(round(len(signal) / rate)))


def pitch_shift(clip: AudioClip, semitones: float, fft_size: int = 2048,
                hop: int | None = None) -> AudioClip:
    """Shift pitch by a signed number of semitones, preserving duration.

    Phase-vocoder time scaling followed by band-limited resampling; the
    output has exactly the input's length.
    """
    if abs(semitones) > 24:
        raise ValueError("semitone shift limited to +/-24")
    if len(clip.samples) == 0:
        raise ValueError("cannot pitch-shift an empty clip")
    if semitones == 0:
        return AudioClip(clip.samples.copy(), clip.sample_rate, clip.source_id)
    if hop is None:
        hop = fft_size // 4

    ratio = 2.0 ** (semitones / 12.0)
    stretched = _time_stretch(clip.samples, rate=1.0 / ratio, fft_size=fft_size, hop=hop)
    shifted = resample_by_ratio(stretched, 1.0 / ratio)
    n = len(clip.samples)
    if len(shifted) >= n:
        shifted = shifted[:n]
    else:
        shifted = np.pad(shifted, (0, n - len(shifted)))
    return AudioClip(samples=shifted, sample_rate=clip.sample_rate, source_id=clip.source_id)


def nco_synthesize(freq_track: np.ndarray, amp_track: np.ndarray, sample_rate: int) -> np.ndarray:
    """Sinusoid synthesis by per-sample phase accumulation.

    out[n] = amp[n] * sin(phi[n]) with phi[n+1] = phi[n] + 2*pi*freq[n]/fs and
    phi[0] = 0, so frequency changes never reset the phase.
    """
    freq = np.asarray(freq_track, dtype=np.float64)
    amp = np.asarray(amp_track, dtype=np.float64)
    if freq.shape != amp.shape:
        raise ValueError("frequency and amplitude tracks must have equal length")
    if len(freq) == 0:
        return np.zeros(0)
    if np.any(freq <= 0) or np.any(freq >= sample_rate / 2):
        raise ValueError("frequency track must stay inside (0, Nyquist)")
    if np.any(amp < 0):
        raise ValueError("amplitude track must be non-negative")
    phase = np.empty_like(freq)
    phase[0] = 0.0
    np.cumsum(freq[:-1] * (2.0 * np.pi / sample_rate), out=phase[1:])
    return amp * np.sin(phase)


def frame_rms(signal: np.ndarray, window_ms: float, hop_ms: float, sample_rate: int) -> np.ndarray:
    """Short-term RMS over sliding windows given in milliseconds."""
    if window_ms <= 0 or hop_ms <= 0:
        raise ValueError("window and hop must be positive")
    window = ms_to_samples(window_ms, sample_rate)
    hop = ms_to_samples(hop_ms, sample_rate)
    frames = frame_signal(np.asarray(signal, dtype=np.float64), window, hop)
    return np.sqrt(np.mean(np.square(frames), axis=1))


def instantaneous_frequency(signal: np.ndarray, sample_rate: int) -> np.ndarray:
    """Frequency estimates from intervals between successive rising zero crossings.

    Crossing times are refined by linear interpolation between the bracketing
    samples. Intended as an oracle for narrowband signals.
    """
    x = np.asarray(signal, dtype=np.float64)
    neg = x[:-1] < 0
    pos = x[1:] >= 0
    idx = np.flatnonzero(neg & pos)
    if len(idx) < 2:
        raise ValueError("need at least two rising zero crossings")
    crossings = idx + x[idx] / (x[idx] - x[idx + 1])
    return sample_rate / np.diff(crossings)


def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int,
                   f_min: float = 0.0, f_max: float | None = None) -> np.ndarray:
    """Triangular mel filterbank, (n_mels, fft_size // 2 + 1)."""
    if f_max is None:
        f_max = sample_rate / 2.0

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    mel_points = np.linspace(to_mel(f_min), to_mel(f_max), n_mels + 2)
    hz_points = from_mel(mel_points)
    bins = np.fft.rfftfreq(fft_size, 1.0 / sample_rate)
    bank = np.zeros((n_mels, len(bins)))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bins - left) / max(center - left, 1e-9)
        down = (right - bins) / max(right - center, 1e-9)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank
