"""Frame-level perceptual audio features: loudness, roughness, Bark-band loudness.

The loudness model is a Zwicker-style approximation, not a certified
implementation: an equal-loudness frequency weighting (embedded contour
table) is applied to the power spectrum, power is pooled into 24 critical
bands, and each band is compressed with a Stevens power law before summing.
It is monotone in input level and contour-weighted, which is what the
converters rely on. Roughness follows the Vassilakis pairwise spectral-peak
model.

The *_frames functions analyse a whole signal in cache-sized blocks of
frames from dsp._spectrum_blocks, with band tables cached per (FFT size, rate, config).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf

import numpy as np

from .domains import Entries, Interval, _leaf
from .dsp import _spectrum_blocks, hann_window, stft  # hann_window: for perfbench/selftest.py

N_BARK_BANDS = 24
# Fewest rfft points specific_loudness_frames pools into Bark bands; shorter
# frames are zero-padded to it
SPECIFIC_LOUDNESS_MIN_FRAME = 256

# Relative sensitivity vs. frequency (dB re 1 kHz), a smoothed inverse of a
# mid-level equal-loudness contour. Interpolated in log-frequency.
_CONTOUR_FREQS = (
    20.0, 25.0, 31.5, 40.0, 50.0, 63.0, 80.0, 100.0, 125.0, 160.0, 200.0,
    250.0, 315.0, 400.0, 500.0, 630.0, 800.0, 1000.0, 1250.0, 1600.0, 2000.0,
    2500.0, 3150.0, 4000.0, 5000.0, 6300.0, 8000.0, 10000.0, 12500.0,
    16000.0, 20000.0,
)
_CONTOUR_GAINS_DB = (
    -50.0, -45.0, -41.0, -36.5, -32.5, -28.5, -24.5, -21.0, -18.0, -15.0,
    -12.0, -9.5, -7.5, -5.5, -4.5, -3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 4.0,
    6.0, 6.5, 4.0, 0.0, -4.0, -8.0, -12.0, -17.0, -25.0,
)

_POSITIVE = Interval(0.0, inf, "()")


@dataclass(frozen=True)
class PsychoConfig:
    """Tunable constants with embedded defaults; the converters read ConverterConfig.psycho."""

    # Hz, interpolated in log-frequency
    contour_freqs: tuple = _leaf(_CONTOUR_FREQS, Entries(_POSITIVE))
    # dB re 1 kHz: the span of human hearing, so every weight lies in 1e-12..1e12
    contour_gains_db: tuple = _leaf(_CONTOUR_GAINS_DB, Entries(Interval(-120.0, 120.0)))
    # on band power: compressive; 1000 overflowed the specific loudness of a plain tone
    loudness_exponent: float = _leaf(0.23, Interval(0.0, 1.0, "(]"))
    # plm reads log1p(loudness), so a scale far from 1 flattens or silences its intensity
    loudness_scale: float = _leaf(1.0, Interval(1e-6, 1e6))
    # Vassilakis roughness model: (a1 * a2) ** amplitude_exponent <= max(1, a1 * a2), and the
    # fluctuation term's base is at most 1
    amplitude_exponent: float = _leaf(0.1, Interval(0.0, 1.0))
    fluctuation_exponent: float = _leaf(3.11, Interval(0.0, inf, "[)"))
    # exp(b * s * df) decays with the peaks' distance df only for b < 0
    kernel_b1: float = _leaf(-3.5, Interval(-inf, 0.0, "()"))
    kernel_b2: float = _leaf(-5.75, Interval(-inf, 0.0, "()"))
    # s = kernel_scale / (kernel_s1 * f + kernel_s2) stays positive and finite for every f >= 0
    kernel_s1: float = _leaf(0.0207, Interval(0.0, inf, "[)"))
    kernel_s2: float = _leaf(18.96, _POSITIVE)
    kernel_scale: float = _leaf(0.24, _POSITIVE)
    # spectral peak picking; the peak pairs, and so the roughness arrays, grow as max_peaks ** 2
    max_peaks: int = _leaf(10, Interval(1, 64))
    # dB re the row maximum, so above 0 no bin qualifies; 10 ** (x / 20) stays a normal float
    peak_floor_db: float = _leaf(-40.0, Interval(-200.0, 0.0))


DEFAULT_PSYCHO_CONFIG = PsychoConfig()


def hz_to_bark(freq_hz: np.ndarray | float) -> np.ndarray | float:
    """Analytic critical-band rate (Terhardt-style arctangent form)."""
    f = np.asarray(freq_hz, dtype=np.float64)
    return 13.0 * np.arctan(0.00076 * f) + 3.5 * np.arctan((f / 7500.0) ** 2)


def bark_band_index(freq_hz: np.ndarray) -> np.ndarray:
    """Map frequencies to 1-based Bark band numbers, clipped to [1, 24].

    Assigns every bin from DC to Nyquist to exactly one band, so band powers
    partition total power.
    """
    z = hz_to_bark(freq_hz)
    return np.clip(np.ceil(z).astype(int), 1, N_BARK_BANDS)


def equal_loudness_weight(freqs: np.ndarray, config: PsychoConfig = DEFAULT_PSYCHO_CONFIG) -> np.ndarray:
    """Power-domain sensitivity weights from the contour table."""
    safe = np.maximum(np.asarray(freqs, dtype=np.float64), 1.0)
    gains_db = np.interp(
        np.log10(safe),
        np.log10(np.asarray(config.contour_freqs)),
        np.asarray(config.contour_gains_db),
    )
    return 10.0 ** (gains_db / 10.0)


def _band_matrix(freqs: np.ndarray) -> np.ndarray:
    """(n_bins, 24) 0/1 matrix that sends each bin to its Bark band."""
    return (bark_band_index(freqs)[:, None] == np.arange(1, N_BARK_BANDS + 1)).astype(np.float64)


@lru_cache(maxsize=64)
def _bands(n_fft: int, sample_rate: int, config: PsychoConfig) -> np.ndarray:
    """Read-only (n_fft // 2 + 1, 24) contour-weighted Bark pooling of an n_fft-point rfft."""
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    bands = equal_loudness_weight(freqs, config)[:, None] * _band_matrix(freqs)
    bands.flags.writeable = False
    return bands


def specific_loudness_frames(samples: np.ndarray, frame_size: int, hop: int, sample_rate: int,
                             config: PsychoConfig = DEFAULT_PSYCHO_CONFIG) -> np.ndarray:
    """Specific loudness (n_frames, 24) of every frame_size-sample frame, hop apart.

    A Hann window spans each frame, zero-padded to SPECIFIC_LOUDNESS_MIN_FRAME
    points when shorter (10 ms below 25.6 kHz). Each block of frames is pooled
    into bands straight from its spectrum, whose power is re^2 + im^2 of the
    complex rfft read as float64 pairs.
    """
    n_fft = max(frame_size, SPECIFIC_LOUDNESS_MIN_FRAME)
    bands = _bands(n_fft, sample_rate, config)
    n_frames, blocks = _spectrum_blocks(samples, frame_size, hop, n_fft)
    pooled = np.empty((n_frames, N_BARK_BANDS))
    for rows, spectrum in blocks:
        parts = spectrum.view(np.float64)
        np.square(parts, out=parts)
        np.matmul(parts[:, ::2] + parts[:, 1::2], bands, out=pooled[rows])
    return _loudness(pooled, config)


def _loudness(band_power: np.ndarray, config: PsychoConfig) -> np.ndarray:
    """Stevens power law: specific loudness of contour-weighted band powers."""
    return config.loudness_scale * band_power ** config.loudness_exponent


def loudness_roughness_frames(samples: np.ndarray, frame_size: int, hop: int, sample_rate: int,
                              config: PsychoConfig = DEFAULT_PSYCHO_CONFIG,
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Total loudness and roughness per frame, both read from one spectrum per frame."""
    if frame_size < 1024:
        raise ValueError(f"frame of {frame_size} samples is too short (need >= 1024)")
    mags = stft(samples, frame_size, hop)
    specific = _loudness(mags ** 2 @ _bands(frame_size, sample_rate, config), config)
    return specific.sum(axis=1), _roughness(*_peaks(mags, sample_rate / frame_size, config), config)


def _peaks(mags: np.ndarray, bin_hz: float, config: PsychoConfig) -> tuple[np.ndarray, np.ndarray]:
    """Strongest local maxima of each magnitude row, refined by parabolic interpolation.

    Keeps at most config.max_peaks peaks per row, each at least
    config.peak_floor_db relative to the row maximum. Returns (freqs, amps),
    each (n_rows, config.max_peaks) in ascending bin order; slots past a
    row's last peak hold NaN.
    """
    inner = mags[:, 1:-1]
    floor = mags.max(axis=1, keepdims=True) * 10.0 ** (config.peak_floor_db / 20.0)
    is_peak = (inner > mags[:, :-2]) & (inner >= mags[:, 2:]) & (inner >= floor)
    # Each peak exceeds its left neighbour (>= 0), so it is positive and costs
    # -magnitude < 0; every other bin costs -0.0. The bins compare as they
    # would with +inf for every other bin, so argpartition picks the same ones.
    cost = np.multiply(inner, is_peak)
    np.negative(cost, out=cost)
    k = min(config.max_peaks, cost.shape[1])
    top = np.sort(np.argpartition(cost, k - 1, axis=1)[:, :k], axis=1)
    rows = np.arange(len(mags))[:, None]
    valid = cost[rows, top] < 0.0
    bins = top + 1
    a, b, c = (np.where(valid, np.log(mags[rows, bins + o] + 1e-30), np.nan) for o in (-1, 0, 1))
    denom = a - 2.0 * b + c
    flat = np.abs(denom) <= 1e-12
    delta = np.where(flat, 0.0, 0.5 * (a - c) / np.where(flat, 1.0, denom))
    return (bins + delta) * bin_hz, np.exp(b - 0.25 * (a - c) * delta)


def _pair_roughness(f1: np.ndarray, a1: np.ndarray, f2: np.ndarray, a2: np.ndarray,
                    config: PsychoConfig) -> np.ndarray:
    amplitude = (a1 * a2) ** config.amplitude_exponent
    fluctuation = 0.5 * (2.0 * np.minimum(a1, a2) / (a1 + a2)) ** config.fluctuation_exponent
    s = config.kernel_scale / (config.kernel_s1 * np.minimum(f1, f2) + config.kernel_s2)
    df = np.abs(f1 - f2)
    separation = np.exp(config.kernel_b1 * s * df) - np.exp(config.kernel_b2 * s * df)
    return amplitude * fluctuation * separation


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1): every (i, j) with i < j < n, built once per n and read-only."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _roughness(freqs: np.ndarray, amps: np.ndarray, config: PsychoConfig) -> np.ndarray:
    """Per-row sum of the pair terms over every two peaks; NaN slots add nothing."""
    i, j = _pairs(freqs.shape[-1])
    return np.nansum(_pair_roughness(freqs[..., i], amps[..., i], freqs[..., j], amps[..., j],
                                     config), axis=-1)
