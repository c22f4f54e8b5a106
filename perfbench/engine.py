"""Set-up, the closed loop of rounds, and the metrics computed from it.

A round is one pass of the CLI dataset script over the workload's dataset
clips, then every converter on the next `clips_per_round` clips of the
converter stream. Every dataset pass does identical work; the converter
stream walks the corpus in order and wraps around.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hapticwave
import hapticwave.cli
from hapticwave.audio_io import AudioClip, save_wav
from hapticwave.converters import CONVERTER_TAGS
from hapticwave.curation import augment_plan
from hapticwave.fixtures import manifest_fixture_path, ratings_fixture_path

import gate
from corpus import WORKLOADS, Corpus, group_key
from speed import Speed
from tracer import CLI_COMMANDS, FFT_LAYERS, LAYERS, Tracer

REPORT_LEVELS = ("category", "class", "clip")
# pitch's 10 ms window is shorter than the 256-sample analysis minimum below this rate.
PITCH_MIN_RATE = 25600


@dataclass
class State:
    """What set-up leaves for the timed loop."""

    corpus: Corpus
    seed: int
    workdir: Path
    manifest: Path
    wavs: list[tuple[str, Path, int, int, int]]  # clip id, path, samples, rate, augment seed
    rating_rows: int


def _is_known_rejection(clip: AudioClip, algo: str, exc: Exception) -> bool:
    return algo == "pitch" and clip.sample_rate < PITCH_MIN_RATE and isinstance(exc, ValueError)


def _augment_seed(start: int, shift: bool) -> int:
    """First seed from `start` whose augmentation plan pitch-shifts iff `shift`.

    The shift is most of augment's cost; fixing which clips get it keeps that
    cost the same for every workload seed.
    """
    seed = start
    while augment_plan(seed).shift_applied != shift:
        seed += 1
    return seed


def set_up(workload: str, seed: int, workdir: Path) -> State:
    """Generate inputs, write the dataset WAVs and manifest, warm up every converter at every rate."""
    corpus = WORKLOADS[workload](seed)
    for sub in ("audio", "ref", "aug", "vib", "met", "rep"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    spec = corpus.dataset
    wavs = []
    manifest = workdir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "path", "class_id", "class_name", "category_id"])
        for i, clip in enumerate(spec.clips):
            path = workdir / "audio" / f"{clip.source_id}.wav"
            save_wav(clip, path)
            save_wav(hapticwave.converters.convert(clip, "plm"), workdir / "ref" / f"{clip.source_id}.wav")
            cls = i % spec.n_classes
            writer.writerow([clip.source_id, str(path), cls, f"class{cls}", 1 + cls % 5])
            wavs.append((clip.source_id, path, len(clip.samples), clip.sample_rate,
                         _augment_seed(seed * 1000 + 100 * i, i % 2 == 0)))
    first_at_rate = {}
    for clip in corpus.convert_clips:
        first_at_rate.setdefault(clip.sample_rate, clip)
    for rate, clip in first_at_rate.items():
        warm = AudioClip(clip.samples[:rate], rate, "warmup")
        for algo in CONVERTER_TAGS:
            try:
                hapticwave.converters.convert(warm, algo)
            except ValueError as exc:
                if not _is_known_rejection(warm, algo, exc):
                    raise
    with open(ratings_fixture_path()) as fh:
        rating_rows = sum(1 for _ in fh) - 1
    return State(corpus, seed, workdir, manifest, wavs, rating_rows)


@dataclass
class Recorder:
    """Outcomes of one run's operations.

    With a tracer, each operation is a root span. With a Speed, each
    operation's time is scaled to reference-machine time.
    """

    hash_rounds: int
    tracer: Tracer | None = None
    speed: Speed | None = None
    attempted: int = 0
    failures: dict[str, dict[str, int]] = field(default_factory=dict)  # op kind -> exception -> n
    rejected: int = 0
    ms_per_audio_s: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    call_ms: dict[str, list[float]] = field(default_factory=dict)
    convert_s: float = 0.0
    convert_raw_s: float = 0.0
    audio_s: float = 0.0
    passes: list[dict[str, float]] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    rounds: int = 0

    @property
    def failed(self) -> int:
        return sum(sum(kinds.values()) for kinds in self.failures.values())

    def fail(self, kind: str, reason: str) -> None:
        kinds = self.failures.setdefault(kind, {})
        kinds[reason] = kinds.get(reason, 0) + 1

    def _call(self, name, op, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.root(name, op, fn, *args)

    def _scaled(self, seconds: float) -> float:
        if self.speed is None:
            return seconds
        self.speed.sample()
        return seconds * self.speed.scale()

    def convert(self, clip: AudioClip, algo: str, r: int) -> None:
        self.attempted += 1
        start = perf_counter()
        try:
            vib = self._call(f"converters.{algo}", f"r{r}:{algo}:{clip.source_id}",
                             hapticwave.converters.convert, clip, algo)
            error = None
        except Exception as exc:  # a failure is counted, never fatal
            error = exc
        raw = perf_counter() - start
        elapsed = self._scaled(raw)
        self.convert_s += elapsed
        self.convert_raw_s += raw
        if error is not None:
            if _is_known_rejection(clip, algo, error):
                self.rejected += 1
            else:
                self.fail(f"converters.{algo}", type(error).__name__)
            return
        try:
            gate.check_vibration(vib.samples, vib.sample_rate, vib.algorithm_tag, algo,
                                 len(clip.samples), clip.sample_rate)
        except Exception as exc:  # a failed check is counted, never fatal
            self.fail(f"converters.{algo}", type(exc).__name__)
            return
        self.audio_s += clip.duration
        self.call_ms.setdefault(algo, []).append(elapsed * 1000.0)
        groups = self.ms_per_audio_s.setdefault(algo, {})
        groups.setdefault(group_key(clip), []).append(elapsed * 1000.0 / clip.duration)
        if r < self.hash_rounds:
            self.digest.update(gate.pcm16(vib.samples))

    def cli(self, argv: list[str], label: str, r: int, outputs: list[Path], check) -> float:
        """Run one CLI command in-process; returns its (scaled) time in seconds."""
        self.attempted += 1
        for path in outputs:
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self._call(None, f"r{r}:{argv[0]}:{label}", hapticwave.cli.run, argv)
        except Exception as exc:  # a failure is counted, never fatal
            self.fail(f"cli.{argv[0]}", type(exc).__name__)
            return self._scaled(perf_counter() - start)
        elapsed = self._scaled(perf_counter() - start)
        if code != 0:
            self.fail(f"cli.{argv[0]}", f"exit{code}")
            return elapsed
        try:
            pcm = check()
        except Exception as exc:  # a failed check is counted, never fatal
            self.fail(f"cli.{argv[0]}", type(exc).__name__)
            return elapsed
        if pcm is not None and r < self.hash_rounds:
            self.digest.update(pcm)
        return elapsed


def dataset_pass(state: State, rec: Recorder, r: int) -> None:
    """augment each clip, curate, batch hapticgen, metrics per clip, report at three levels."""
    w, spec = state.workdir, state.corpus.dataset
    pass_s = 0.0
    for cid, path, n, rate, aug_seed in state.wavs:
        out = w / "aug" / f"{cid}.wav"
        pass_s += rec.cli(["augment", "--in", str(path), "--seed", str(aug_seed), "--out", str(out)],
                          cid, r, [out], lambda out=out, n=n, rate=rate: gate.check_same_shape(out, n, rate))
    curated = w / "curated.csv"
    curate_s = rec.cli(["curate", "--manifest", str(state.manifest), "--per-class", str(spec.per_class),
                        "--k", str(spec.k), "--seed", str(state.seed), "--out", str(curated)],
                       "manifest", r, [curated],
                       lambda: gate.check_curated(curated, {c for c, *_ in state.wavs},
                                                  spec.n_classes, spec.per_class))
    vibs = [w / "vib" / f"{cid}.hapticgen.wav" for cid, *_ in state.wavs]

    def check_batch():
        return b"".join(gate.check_batch_output(v, "hapticgen", n, rate)
                        for v, (_, _, n, rate, _) in zip(vibs, state.wavs))

    pass_s += curate_s
    pass_s += rec.cli(["batch", "--manifest", str(state.manifest), "--algos", "hapticgen",
                       "--out-dir", str(w / "vib"), "--workers", "1"], "manifest", r, vibs, check_batch)
    for cid, vib in zip((c for c, *_ in state.wavs), vibs):
        out = w / "met" / f"{cid}.json"
        pass_s += rec.cli(["metrics", "--pred", str(vib), "--target", str(w / "ref" / f"{cid}.wav"),
                           "--out", str(out)], cid, r, [out], lambda out=out: gate.check_metrics(out))
    report_s = {}
    for level in REPORT_LEVELS:
        out = w / "rep" / f"{level}.json"
        report_s[level] = rec.cli(["report", "--ratings", str(ratings_fixture_path()), "--manifest",
                                   str(manifest_fixture_path()), "--level", level, "--json", str(out)],
                                  level, r, [out], lambda out=out: gate.check_report(out))
    rec.passes.append({"dataset.pass_s": pass_s + sum(report_s.values()), "curate_s": curate_s,
                       **{f"report_s.{level}": s for level, s in report_s.items()}})


def run_round(state: State, rec: Recorder, r: int) -> None:
    dataset_pass(state, rec, r)
    clips = state.corpus.convert_clips
    per_round = state.corpus.clips_per_round
    for j in range(per_round):
        clip = clips[(r * per_round + j) % len(clips)]
        for algo in CONVERTER_TAGS:
            rec.convert(clip, algo, r)
    rec.rounds += 1


def weighted_median(groups: dict[str, list[float]], counts: dict[str, int]) -> float:
    """Median per (rate, duration) group, averaged with the group's share of the corpus.

    A plain median over a corpus whose groups differ in cost per second sits
    on the gap between groups and jumps with the sample mix; this does not.
    """
    present = [g for g in groups if groups[g]]
    total = sum(counts[g] for g in present)
    return sum(statistics.median(groups[g]) * counts[g] for g in present) / total


def end_to_end(rec: Recorder, state: State) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples) from an untraced run."""
    out = {}
    for algo in CONVERTER_TAGS:
        groups = rec.ms_per_audio_s.get(algo, {})
        n = sum(len(v) for v in groups.values())
        out[f"{algo}.ms_per_audio_s"] = (weighted_median(groups, state.corpus.counts) if n else float("nan"),
                                         "ms/s", n)
    out["convert.audio_s_per_s"] = (rec.audio_s / rec.convert_s, "s/s", sum(len(v) for v in rec.call_ms.values()))

    def median(key):
        return statistics.median(p[key] for p in rec.passes)

    n = len(rec.passes)
    out["curate.clips_per_s"] = (len(state.wavs) / median("curate_s"), "clips/s", n)
    report_s = sum(median(f"report_s.{level}") for level in REPORT_LEVELS)
    out["report.rows_per_s"] = (len(REPORT_LEVELS) * state.rating_rows / report_s, "rows/s", n)
    out["dataset.pass_s"] = (median("dataset.pass_s"), "s", n)
    return out


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for mod, fn, _ in LAYERS:
        names += [(f"{mod}.{fn}.calls", "count", "lower"), (f"{mod}.{fn}.self_ms", "ms", "lower")]
    names += [
        ("dsp.frame_signal.frames", "count", "lower"),
        ("converters.normalize_vibration.clipped_fraction", "ratio", "lower"),
        ("curation.kmeans.iterations", "count", "lower"),
        ("analysis.load_ratings.rows", "count", "higher"),
        ("audio_io.load_wav.bytes", "B", "lower"),
        ("audio_io.save_wav.bytes", "B", "lower"),
    ]
    for cmd in CLI_COMMANDS:
        names += [(f"cli.run.{cmd}.calls", "count", "lower"), (f"cli.run.{cmd}.self_ms", "ms", "lower"),
                  (f"cli.{cmd}.failed", "count", "lower")]
    for fn, _ in FFT_LAYERS:
        names += [(f"numpy.fft.{fn}.calls", "count", "lower"), (f"numpy.fft.{fn}.self_ms", "ms", "lower"),
                  (f"numpy.fft.{fn}.points", "count", "lower"),
                  (f"numpy.fft.{fn}.bytes_in_computed", "B", "lower")]
    per_converter = {"calls": "count", "self_ms": "ms", "tail_ms": "ms", "tail_n_beyond": "count",
                     "failed": "count"}
    for algo in CONVERTER_TAGS:
        names += [(f"converters.{algo}.{m}", unit, "lower") for m, unit in per_converter.items()]
    names += [("converters.pitch.rejected", "count", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return names


def per_layer(tracer: Tracer, plain: Recorder, traced: Recorder, plain_s: float,
              traced_s: float) -> dict[str, float]:
    """Per-layer values: counts and self times from the traced run, tails from the untraced one."""
    values: dict[str, float] = {}
    for name, stat in tracer.layer_stats().items():
        values[f"{name}.calls"] = stat["calls"]
        values[f"{name}.self_ms"] = stat["self_ms"]
    for key, total in tracer.counters.items():
        values[key] = total
    calls = values.get("converters.normalize_vibration.calls", 0)
    clipped = values.pop("converters.normalize_vibration.clipped_fraction_sum", 0.0)
    values["converters.normalize_vibration.clipped_fraction"] = clipped / calls if calls else 0.0
    for algo in CONVERTER_TAGS:
        ms = sorted(plain.call_ms.get(algo, []))
        p90 = float(np.percentile(ms, 90)) if ms else 0.0
        values[f"converters.{algo}.tail_ms"] = p90
        values[f"converters.{algo}.tail_n_beyond"] = sum(1 for v in ms if v > p90)
    for kind, reasons in traced.failures.items():
        values[f"{kind}.failed"] = sum(reasons.values())
    values["converters.pitch.rejected"] = traced.rejected
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return {name: values.get(name, 0) for name, _, _ in layer_metric_names()}
