"""Shared fixtures: deterministic synthetic clips, temp WAV helpers, and frequency oracles."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest

from hapticwave.audio_io import AudioClip, save_wav

SR = 44100


def sine_clip(freq: float, duration: float = 1.0, sr: int = SR, amp: float = 0.5,
              source_id: str | None = None) -> AudioClip:
    t = np.arange(int(round(duration * sr))) / sr
    return AudioClip(amp * np.sin(2.0 * np.pi * freq * t), sr,
                     source_id or f"sine{freq:g}")


def _am_tone(rng, n, sr, carrier, mod_hz):
    t = np.arange(n) / sr
    env = 0.55 + 0.45 * np.sin(2.0 * np.pi * mod_hz * t + rng.uniform(0, 6.28))
    return env * np.sin(2.0 * np.pi * carrier * t)


def _chirp(rng, n, sr, f0, f1):
    t = np.arange(n) / sr
    freq = np.linspace(f0, f1, n)
    phase = 2.0 * np.pi * np.cumsum(freq) / sr
    return np.sin(phase)


def _bursts(rng, n, sr, rate_hz):
    out = np.zeros(n)
    period = int(sr / rate_hz)
    burst = int(0.4 * period)
    t = np.arange(burst) / sr
    for start in range(0, n - burst, period):
        out[start:start + burst] = np.hanning(burst) * np.sin(2.0 * np.pi * 500 * t)
    return out


def _harmonics(rng, n, sr, f0):
    t = np.arange(n) / sr
    out = np.zeros(n)
    for k in range(1, 6):
        out += np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 6.28)) / k
    return out


def make_fixture_clips(count: int = 20, duration: float = 1.5, sr: int = SR) -> list[AudioClip]:
    """Deterministic, acoustically varied clips with a small noise floor.

    The floor keeps every analysis window non-silent so zero-crossing
    frequency estimation stays well defined over the whole signal.
    """
    n = int(round(duration * sr))
    clips = []
    for i in range(count):
        rng = np.random.default_rng(1000 + i)
        kind = i % 5
        if kind == 0:
            x = _am_tone(rng, n, sr, carrier=rng.uniform(150, 2000), mod_hz=rng.uniform(1, 8))
        elif kind == 1:
            x = _chirp(rng, n, sr, rng.uniform(100, 400), rng.uniform(800, 4000))
        elif kind == 2:
            x = rng.standard_normal(n) * 0.4
        elif kind == 3:
            x = _bursts(rng, n, sr, rate_hz=rng.uniform(2, 6))
        else:
            x = _harmonics(rng, n, sr, f0=rng.uniform(80, 500))
        x = x + 0.002 * rng.standard_normal(n)
        x = 0.8 * x / np.max(np.abs(x))
        clips.append(AudioClip(x, sr, f"fixture{i:02d}"))
    return clips


@pytest.fixture(scope="session")
def fixture_clips() -> list[AudioClip]:
    return make_fixture_clips()


@pytest.fixture
def wav_factory(tmp_path):
    def _make(samples: np.ndarray, sr: int, name: str = "clip.wav"):
        path = tmp_path / name
        save_wav(AudioClip(np.asarray(samples, dtype=np.float64), sr), path)
        return path

    return _make


def write_pcm16_wav(path: Path, samples: list[int], rate: int) -> Path:
    """A mono 16-bit PCM WAV built byte by byte, so its header can hold any rate, 0 included."""
    data = struct.pack(f"<{len(samples)}h", *samples)
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def dominant_frequency(samples: np.ndarray, sr: int) -> float:
    spec = np.abs(np.fft.rfft(samples * np.hanning(len(samples))))
    return float(np.argmax(spec) * sr / len(samples))


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
