"""Output checks. They use no FFT, so the traced run's numpy.fft counts are the program's alone."""

from __future__ import annotations

import csv
import json
import math
import wave
from pathlib import Path

import numpy as np

OUTPUT_RATE = 8000
# Carrier bands from the converter docs, with the tolerances the acceptance suite uses.
CARRIER_BANDS = {"pitch": (45.0, 405.0), "hapticgen": (145.0, 255.0)}
# Overall mean rating per algorithm that `report` must reproduce from the bundled fixture.
REFERENCE_MEANS = {"pitch": 62.6, "hapticgen": 57.0, "fshift": 56.9, "plm": 31.2}
METRIC_KEYS = ("mse", "stft_loss", "mel_l1", "amp_loss", "rmse")


class GateError(Exception):
    """An output failed its check."""


def pcm16(samples: np.ndarray) -> bytes:
    """The bytes `save_wav` would write for these samples."""
    return np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()


def zero_crossing_hz(x: np.ndarray, rate: int) -> np.ndarray:
    """Frequencies from intervals between successive rising zero crossings.

    The benchmark's own oracle, so the check does not rely on the code it checks.
    """
    idx = np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))
    if len(idx) < 2:
        raise GateError("fewer than two rising zero crossings")
    crossings = idx + x[idx] / (x[idx] - x[idx + 1])
    return rate / np.diff(crossings)


def check_vibration(samples: np.ndarray, rate: int, tag: str, algo: str,
                    n_in: int, in_rate: int) -> None:
    want = int(round(n_in * OUTPUT_RATE / in_rate))
    if rate != OUTPUT_RATE:
        raise GateError(f"rate {rate}, expected {OUTPUT_RATE}")
    if tag != algo:
        raise GateError(f"tag {tag!r}, expected {algo!r}")
    if len(samples) != want:
        raise GateError(f"length {len(samples)}, expected {want}")
    if not np.all(np.isfinite(samples)):
        raise GateError("non-finite samples")
    if np.max(np.abs(samples)) > 1.0:
        raise GateError("samples outside [-1, 1]")
    if algo in CARRIER_BANDS:
        lo, hi = CARRIER_BANDS[algo]
        est = zero_crossing_hz(samples, OUTPUT_RATE)
        if est.min() < lo or est.max() > hi:
            raise GateError(f"carrier {est.min():.1f}-{est.max():.1f} Hz outside {lo}-{hi} Hz")


def read_wav(path: Path) -> tuple[np.ndarray, int, bytes]:
    """(samples in [-1, 1], rate, raw PCM16 bytes) of a mono PCM16 WAV."""
    with wave.open(str(path), "rb") as wav:
        if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
            raise GateError(f"{path.name}: not mono PCM16")
        rate = wav.getframerate()
        raw = wav.readframes(wav.getnframes())
    return np.frombuffer(raw, dtype="<i2") / 32768.0, rate, raw


def check_same_shape(out: Path, n_in: int, in_rate: int) -> bytes:
    samples, rate, raw = read_wav(out)
    if rate != in_rate or len(samples) != n_in:
        raise GateError(f"{out.name}: {len(samples)} samples at {rate} Hz, "
                        f"expected {n_in} at {in_rate} Hz")
    return raw


def check_batch_output(out: Path, algo: str, n_in: int, in_rate: int) -> bytes:
    samples, rate, raw = read_wav(out)
    check_vibration(samples, rate, algo, algo, n_in, in_rate)
    return raw


def check_curated(path: Path, ids: set[str], n_classes: int, per_class: int) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    picked = [r["clip_id"] for r in rows]
    if len(picked) != n_classes * per_class or len(set(picked)) != len(picked):
        raise GateError(f"curated {len(picked)} clips, expected {n_classes * per_class} unique")
    if not set(picked) <= ids:
        raise GateError("curated manifest names clips not in the input")


def check_metrics(path: Path) -> None:
    report = json.loads(path.read_text())
    for key in METRIC_KEYS:
        value = report.get(key)
        if not isinstance(value, float) or not math.isfinite(value) or value < 0:
            raise GateError(f"metric {key}={value!r}")


def check_report(path: Path) -> None:
    overall = json.loads(path.read_text())["overall"]["mean"]
    for algo, want in REFERENCE_MEANS.items():
        if abs(overall[algo] - want) > 0.1:
            raise GateError(f"overall mean {algo}={overall[algo]:.2f}, expected {want}")
