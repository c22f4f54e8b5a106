"""Seeded inputs for the three workloads.

Every clip is a pure function of (seed, workload, clip index). Content cycles
over five kinds, each over a small noise floor so that every analysis window
is non-silent: AM tones, chirps, broadband noise, impulsive bursts and
harmonic stacks. The mix matters because `plm` roughness cost grows with the
number of spectral peaks and k-means iteration counts depend on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hapticwave.audio_io import AudioClip
from hapticwave.bench import build_bench_corpus

KINDS = ("am", "chirp", "noise", "bursts", "harmonics")


def make_clip(seed: int, stream: int, index: int, sample_rate: int, duration_s: float,
              clip_id: str) -> AudioClip:
    """One clip of kind `index % 5`, peak-normalised to 0.8."""
    rng = np.random.default_rng([seed, stream, index])
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    kind = KINDS[index % len(KINDS)]
    if kind == "am":
        carrier = rng.uniform(150.0, 2000.0)
        env = 0.55 + 0.45 * np.sin(2.0 * np.pi * rng.uniform(1.0, 8.0) * t + rng.uniform(0, 6.28))
        x = env * np.sin(2.0 * np.pi * carrier * t)
    elif kind == "chirp":
        freq = np.linspace(rng.uniform(100.0, 400.0), rng.uniform(800.0, 4000.0), n)
        x = np.sin(2.0 * np.pi * np.cumsum(freq) / sample_rate)
    elif kind == "noise":
        x = 0.4 * rng.standard_normal(n)
    elif kind == "bursts":
        period = int(sample_rate / rng.uniform(2.0, 6.0))
        burst = int(0.4 * period)
        pos = np.arange(n) % period
        inside = pos < burst
        env = np.where(inside, 0.5 - 0.5 * np.cos(2.0 * np.pi * pos / max(burst - 1, 1)), 0.0)
        x = env * np.sin(2.0 * np.pi * 500.0 * pos / sample_rate)
    else:
        f0 = rng.uniform(80.0, 500.0)
        x = sum(np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 6.28)) / k for k in range(1, 6))
    x = x + 0.002 * rng.standard_normal(n)
    return AudioClip(0.8 * x / np.max(np.abs(x)), sample_rate, clip_id)


@dataclass
class DatasetSpec:
    """Clips the CLI dataset pass runs over, and its curate parameters."""

    clips: list[AudioClip]
    n_classes: int
    k: int
    per_class: int


@dataclass
class Corpus:
    """A workload's inputs: the converter stream and the dataset pass."""

    convert_clips: list[AudioClip]  # in loop order
    clips_per_round: int
    dataset: DatasetSpec
    counts: dict[str, int]  # clip count per (rate, duration) group


def group_key(clip: AudioClip) -> str:
    return f"{clip.sample_rate}Hz-{clip.duration:g}s"


def _counts(clips: list[AudioClip]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for clip in clips:
        counts[group_key(clip)] = counts.get(group_key(clip), 0) + 1
    return dict(sorted(counts.items()))


def protocol_44k(seed: int) -> Corpus:
    """The paper's protocol: 50 five-second 44.1 kHz clips cut into 1/2/5 s sets."""
    sources = [make_clip(seed, 0, i, 44100, 5.0, f"src{i:02d}") for i in range(50)]
    cut = build_bench_corpus(sources)
    # Interleave per source clip (five 1 s, two 2 s, one 5 s) so that any
    # prefix of the loop holds the three sets in their 250:100:50 proportion.
    order = []
    for i in range(50):
        order += cut[1][5 * i:5 * i + 5] + cut[2][2 * i:2 * i + 2] + [cut[5][i]]
    dataset = [AudioClip(c.samples, c.sample_rate, f"p{i:02d}")
               for i, c in enumerate(cut[2][0:16:2])]
    return Corpus(order, 24, DatasetSpec(dataset, n_classes=2, k=2, per_class=2), _counts(order))


LONG_RATES = (48000, 32000, 22050, 16000)


def long_mixed_rate(seed: int) -> Corpus:
    """20 s clips generated at full length, input rates cycling 48/32/22.05/16 kHz."""
    clips = [make_clip(seed, 1, i, LONG_RATES[i % 4], 20.0, f"long{i:02d}") for i in range(16)]
    # The dataset pass takes 5 s excerpts, one per rate, so that most of each round converts.
    dataset = [AudioClip(c.samples[:5 * c.sample_rate], c.sample_rate, f"l{i:02d}")
               for i, c in enumerate(clips[:4])]
    return Corpus(clips, 4, DatasetSpec(dataset, n_classes=2, k=2, per_class=1), _counts(clips))


DATASET_RATES = (44100, 48000, 32000)


def dataset_cli(seed: int) -> Corpus:
    """24 short clips in four classes, the CLI dataset path's main input."""
    clips = [make_clip(seed, 2, i, DATASET_RATES[i % 3], 1.0 + (i // 3) % 3, f"d{i:02d}")
             for i in range(24)]
    return Corpus(clips, 6, DatasetSpec(clips, n_classes=4, k=3, per_class=3), _counts(clips))


WORKLOADS = {
    "protocol-44k": protocol_44k,
    "long-mixed-rate": long_mixed_rate,
    "dataset-cli": dataset_cli,
}
