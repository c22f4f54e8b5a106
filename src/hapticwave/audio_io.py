"""Mono PCM16 WAV I/O and band-limited resampling.

Audio is held as float64 numpy arrays in [-1, 1]. Vibration waveforms are a
dedicated type pinned to the 8 kHz output rate.
"""

from __future__ import annotations

import os
import secrets
import wave
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import AudioFormatError, NonFiniteSignalError

VIBRATION_RATE = 8000
# the four converters, in the order ratings, reports and benchmarks list them
CONVERTER_TAGS = ("plm", "fshift", "pitch", "hapticgen")
ALGORITHM_TAGS = CONVERTER_TAGS + ("blended",)

# Kaiser beta for the polyphase anti-aliasing filter; beta 7.0 keeps stopband
# rejection comfortably past the 60 dB bound.
_KAISER_BETA = 7.0


@dataclass
class AudioClip:
    """Mono audio: samples in [-1, 1] at any positive integer sample rate."""

    samples: np.ndarray
    sample_rate: int
    source_id: str | None = None

    def __post_init__(self) -> None:
        rate = self.sample_rate
        if not isinstance(rate, Integral) or isinstance(rate, bool) or rate < 1:
            raise AudioFormatError(
                f"{clip_name(self)}: sample rate must be a positive integer, got {rate!r}")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def clip_name(clip: AudioClip) -> str:
    """How error messages name a clip: "clip <source_id>", or "unnamed clip"."""
    return "unnamed clip" if clip.source_id is None else f"clip {clip.source_id}"


def require_finite(clip: AudioClip) -> None:
    """Raise NonFiniteSignalError, naming the clip, if any sample is NaN or infinite."""
    if not np.isfinite(clip.samples).all():
        bad = np.count_nonzero(~np.isfinite(clip.samples))
        raise NonFiniteSignalError(f"{clip_name(clip)}: {bad} NaN or infinite samples")


@dataclass
class VibrationSignal:
    """Mono vibrotactile waveform at the fixed 8 kHz output rate."""

    samples: np.ndarray
    algorithm_tag: str
    clipped_fraction: float = 0.0
    sample_rate: ClassVar[int] = VIBRATION_RATE

    def __post_init__(self) -> None:
        if self.algorithm_tag not in ALGORITHM_TAGS:
            raise ValueError(f"unknown algorithm tag: {self.algorithm_tag!r}")


def load_wav(path: str | Path) -> AudioClip:
    """Load a PCM16 WAV file as a mono AudioClip scaled to [-1, 1].

    Multi-channel input is mixed down by arithmetic mean over channels.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{path}: file does not exist")
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            n_frames = wav.getnframes()
            # n_frames is the chunk's whole frames; reading one more returns a partial last one
            raw = wav.readframes(n_frames + 1)
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: {exc}") from exc
    if width != 2:
        raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate == 0:  # read unsigned, so no rate is negative
        raise AudioFormatError(f"{path}: sample rate 0 Hz")
    if n_frames == 0 or not raw:
        raise AudioFormatError(f"{path}: empty data chunk")
    if len(raw) % (width * n_channels):
        raise AudioFormatError(f"{path}: data chunk ends mid-frame ({len(raw)} bytes, "
                               f"{width * n_channels}-byte frames)")

    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return AudioClip(samples=data, sample_rate=rate, source_id=path.stem)


def wav_temp_path(path: Path, token: str) -> Path:
    """The temporary file save_wav writes path as: ".<name>.<token>.tmp" beside it.

    With token "*" and a path whose name is passed through glob.escape, its
    name is the glob pattern of every such file.
    """
    return path.with_name(f".{path.name}.{token}.tmp")


def save_wav(signal: AudioClip | VibrationSignal, path: str | Path) -> None:
    """Write a signal as mono 16-bit PCM at its own sample rate.

    Values are quantized with saturation, so a sample at exactly +1.0 is
    stored as 32767 and round-trips within 1/32768. NaN or infinite samples
    raise NonFiniteSignalError before the file is opened. The file is
    written under a temporary name in path's directory and renamed onto
    path once complete, so a write that fails leaves the old file (or none)
    and no partial one.
    """
    bad = np.count_nonzero(~np.isfinite(signal.samples))
    if bad:
        raise NonFiniteSignalError(f"{path}: refusing to write {bad} non-finite samples")
    quantized = np.clip(np.rint(signal.samples * 32768.0), -32768, 32767)
    path = Path(path)
    # opened with "x" rather than by tempfile, whose files are private (0600)
    tmp = wav_temp_path(path, secrets.token_hex(4))
    try:
        with open(tmp, "xb") as file, wave.open(file, "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(signal.sample_rate)
            wav.writeframes(quantized.astype("<i2").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def fit_length(samples: np.ndarray, n: int) -> np.ndarray:
    """samples zero-padded at the end (a new array of the same dtype), or cut, to exactly n."""
    if len(samples) < n:
        out = np.zeros(n, dtype=samples.dtype)
        out[:len(samples)] = samples
        return out
    return samples[:n]


@lru_cache(maxsize=32)
def _kaiser_lowpass(up: int, down: int) -> np.ndarray:
    """The anti-aliasing FIR resample_poly designs for (up, down), built once and read-only."""
    from scipy.signal import firwin  # ~1 s to load, so only on the first filter design

    max_rate = max(up, down)
    h = firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", _KAISER_BETA))
    h.flags.writeable = False
    return h


def _upsample(samples: np.ndarray, up: int) -> np.ndarray:
    """resample_poly(samples, up, 1) with the cached filter, to rounding, on the nonzero taps only.

    The Kaiser FIR resample_poly designs for 1:up is an up-th-band filter:
    besides the centre tap, every tap a multiple of up from the centre is
    zero (to ~1e-17). So output phase 0 is the centre tap times the input,
    and phase p in 1..up-1 is the input convolved with the taps p, p + up, ...
    (Crochiere & Rabiner, Multirate Digital Signal Processing, 1983).
    """
    n = len(samples)
    if n == 0:  # np.convolve rejects an empty array
        return np.zeros(0)
    h = up * _kaiser_lowpass(up, 1)
    out = np.empty((n, up))
    out[:, 0] = samples * h[10 * up]
    for p in range(1, up):
        out[:, p] = np.convolve(samples, h[p::up])[10:10 + n]
    return out.ravel()


def _resample_poly(samples: np.ndarray, up: int, down: int, want: int) -> np.ndarray:
    """resample_poly with the cached filter, cut or zero-padded to want samples."""
    if up == down:  # resample_poly returns a copy without filtering
        out = np.array(samples)
    elif down == 1:
        out = _upsample(samples, up)
    else:
        from scipy.signal import resample_poly

        out = resample_poly(samples, up, down, window=_kaiser_lowpass(up, down))
    return fit_length(out, want)


@lru_cache(maxsize=64)
def _ratio(target: float, source: int = 1) -> tuple[int, int]:
    """(up, down) of target / source with a denominator of at most 1000, computed once."""
    frac = (Fraction(target) / source).limit_denominator(1000)
    return frac.numerator, frac.denominator


def resample_samples(samples: np.ndarray, source_rate: int, target_rate: int) -> np.ndarray:
    """Band-limited polyphase resampling of a raw sample array.

    The rate ratio is approximated with a denominator of at most 1000, as in
    resample_by_ratio. That is exact for every standard rate from 8 to
    192 kHz, while 44103 Hz to 8 kHz becomes 39/215, a 4301-tap filter rather
    than 8000/44103. Output length is round(len * target / source); identical
    rates return the input unchanged.
    """
    if len(samples) == 0:
        raise ValueError("cannot resample an empty signal")
    if target_rate <= 0 or source_rate <= 0:
        raise ValueError("sample rates must be positive")
    if target_rate == source_rate:
        return samples

    return _resample_poly(samples, *_ratio(target_rate, source_rate),
                          int(round(len(samples) * target_rate / source_rate)))


def halve_rate(samples: np.ndarray) -> np.ndarray:
    """resample_samples from a rate 2r to r, equal to rounding at half the multiplies.

    The Kaiser FIR resample_poly designs for 1:2 is half-band: besides the
    centre tap, every tap an even distance from the centre is zero (to
    ~1e-17). So output m is the centre tap times samples[2m] plus the odd
    taps applied to the odd-indexed samples around it.
    """
    if len(samples) < 2:
        return resample_samples(samples, 2, 1)
    want = int(round(len(samples) / 2))
    h = _kaiser_lowpass(1, 2)
    c = len(h) // 2
    out = np.convolve(np.ascontiguousarray(samples[1::2]), h[-2::-2])[c // 2 - 1:c // 2 - 1 + want]
    out += h[c] * samples[:2 * want:2]
    return out


def resample_by_ratio(samples: np.ndarray, ratio: float) -> np.ndarray:
    """Resample by an arbitrary length ratio via a rational approximation (denominator <= 1000)."""
    return _resample_poly(samples, *_ratio(ratio), int(round(len(samples) * ratio)))
