"""Generation-latency benchmark harness for the converters.

The corpus is derived from exactly 50 five-second clips: each is cut into
five 1 s segments (250 total) and two 2 s segments dropping the last second
(100 total), and repeated twice and four times for 10 s and 20 s versions
(50 each). The short sets are views of the source clips; a 10 s or 20 s clip
is built each time it is read, not held in the corpus. Every clip is in
memory before its timer starts, so the timed region covers conversion only,
never file I/O. Timed runs are strictly sequential.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from statistics import mean, stdev

import numpy as np

from .audio_io import AudioClip
from .converters import CONVERTER_TAGS, convert
from .errors import HapticwaveError, ProtocolError

BENCH_DURATIONS = (1, 2, 5, 10, 20)
_EXPECTED_SIZES = {1: 250, 2: 100, 5: 50, 10: 50, 20: 50}


class BenchRunError(HapticwaveError):
    """Conversion failed during a benchmark run; carries the clip id."""

    def __init__(self, clip_id: str | None, cause: Exception):
        super().__init__(f"conversion failed on clip {clip_id!r}: {cause}")
        self.clip_id = clip_id


@dataclass
class BenchResult:
    duration_s: int
    clip_count: int
    algorithm: str
    mean_latency_s: float
    sd_latency_s: float


class _RepeatedSet(Sequence):
    """Read-only set whose item i is source clip i repeated, built when read."""

    def __init__(self, clips: list[AudioClip], repeats: int):
        self._clips = tuple(clips)
        self._repeats = repeats

    def __len__(self) -> int:
        return len(self._clips)

    def __getitem__(self, i: int) -> AudioClip:
        clip = self._clips[i]
        return AudioClip(np.tile(clip.samples, self._repeats), clip.sample_rate,
                         f"{clip.source_id or 'clip'}#{5 * self._repeats}s")


def build_bench_corpus(clips: list[AudioClip]) -> dict[int, Sequence[AudioClip]]:
    """Segment 50 five-second clips into the duration-keyed benchmark sets."""
    if len(clips) != 50:
        raise ProtocolError(f"benchmark corpus needs exactly 50 clips, got {len(clips)}")
    corpus: dict[int, list[AudioClip]] = {d: [] for d in (1, 2, 5)}
    for clip in clips:
        sr = clip.sample_rate
        if len(clip.samples) != 5 * sr:
            raise ProtocolError(
                f"clip {clip.source_id!r} is {len(clip.samples) / sr:.3f} s, expected 5 s")
        name = clip.source_id or "clip"
        for i in range(5):
            corpus[1].append(AudioClip(clip.samples[i * sr:(i + 1) * sr], sr,
                                       f"{name}#1s{i}"))
        for i in range(2):
            corpus[2].append(AudioClip(clip.samples[2 * i * sr:2 * (i + 1) * sr], sr,
                                       f"{name}#2s{i}"))
        corpus[5].append(AudioClip(clip.samples, sr, f"{name}#5s"))
    return {**corpus, 10: _RepeatedSet(clips, 2), 20: _RepeatedSet(clips, 4)}


def run_bench(corpus: dict[int, Sequence[AudioClip]],
              algorithms: tuple[str, ...] = CONVERTER_TAGS) -> list[BenchResult]:
    """Time each (duration, algorithm) cell under the default config, after one untimed warm-up."""
    for algo in algorithms:
        if algo not in CONVERTER_TAGS:
            raise ValueError(f"unknown algorithm tag: {algo!r}")

    results: list[BenchResult] = []
    for duration in sorted(corpus):
        clips = corpus[duration]
        if len(clips) != _EXPECTED_SIZES.get(duration, len(clips)):
            raise ProtocolError(
                f"{duration} s set has {len(clips)} clips, expected "
                f"{_EXPECTED_SIZES[duration]}")
        for algo in algorithms:
            clip_id = clips[0].source_id
            try:
                convert(clips[0], algo)
                latencies = []
                for clip in clips:
                    clip_id = clip.source_id
                    start = time.perf_counter()
                    convert(clip, algo)
                    latencies.append(time.perf_counter() - start)
            except Exception as exc:
                raise BenchRunError(clip_id, exc) from exc
            results.append(BenchResult(
                duration_s=duration,
                clip_count=len(clips),
                algorithm=algo,
                mean_latency_s=mean(latencies),
                sd_latency_s=stdev(latencies) if len(latencies) > 1 else 0.0,
            ))
    return results


def results_to_json(results: list[BenchResult]) -> str:
    return json.dumps([asdict(r) for r in results], indent=2)


def format_results(results: list[BenchResult]) -> str:
    lines = [f"{'duration':>9} {'clips':>6} {'algorithm':>10} {'mean (s)':>10} {'sd (s)':>10}"]
    for r in results:
        lines.append(f"{r.duration_s:>8}s {r.clip_count:>6} {r.algorithm:>10} "
                     f"{r.mean_latency_s:>10.4f} {r.sd_latency_s:>10.4f}")
    return "\n".join(lines)
