"""Outside-in tracing: wrap the public functions of each hapticwave module.

A function imported by name has one binding per importing module
(`converters.pitch_shift` and `curation.pitch_shift` are both `dsp.pitch_shift`),
so every module attribute that is the same object gets the wrapper, and
every one is put back afterwards. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _frames(t, args, kwargs, result):
    t.add("dsp.frame_signal.frames", result.shape[0])


def _clipped(t, args, kwargs, result):
    t.add("converters.normalize_vibration.clipped_fraction_sum", result.clipped_fraction)


def _iterations(t, args, kwargs, result):
    t.add("curation.kmeans.iterations", len(result.inertia_history))


def _rows(t, args, kwargs, result):
    t.add("analysis.load_ratings.rows", len(result))


def _read_bytes(t, args, kwargs, result):
    t.add("audio_io.load_wav.bytes", Path(args[0] if args else kwargs["path"]).stat().st_size)


def _written_bytes(t, args, kwargs, result):
    t.add("audio_io.save_wav.bytes", Path(args[1] if len(args) > 1 else kwargs["path"]).stat().st_size)


def _fft_counts(name, inverse):
    """Transform points (length x transforms) and input bytes, computed from shapes."""
    def extra(t, args, kwargs, result):
        x = np.asarray(args[0] if args else kwargs["a"])
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        shape = np.shape(result) if inverse else x.shape
        length = shape[axis] if inverse or n is None else n
        t.add(f"{name}.points", length * (int(np.prod(shape)) // shape[axis]))
        t.add(f"{name}.bytes_in_computed", x.nbytes)
    return extra


# (module, function, extra counter) for every layer the benchmark reports.
LAYERS = (
    ("psychoacoustics", "specific_loudness_bark", None),
    ("psychoacoustics", "equal_loudness_weight", None),
    ("psychoacoustics", "bark_band_powers", None),
    ("psychoacoustics", "frame_roughness", None),
    ("psychoacoustics", "spectral_peaks", None),
    ("dsp", "hann_window", None),
    ("dsp", "frame_signal", _frames),
    ("dsp", "pitch_shift", None),
    ("dsp", "butterworth_filter", None),
    ("dsp", "nco_synthesize", None),
    ("dsp", "frame_rms", None),
    ("dsp", "mel_filterbank", None),
    ("dsp", "stft", None),
    ("audio_io", "resample_by_ratio", None),
    ("audio_io", "resample_samples", None),
    ("audio_io", "rms_normalize", None),
    ("audio_io", "load_wav", _read_bytes),
    ("audio_io", "save_wav", _written_bytes),
    ("converters", "plm_feature_tracks", None),
    ("converters", "pitch_frequency_track", None),
    ("converters", "fshift_raw", None),
    ("converters", "normalize_vibration", _clipped),
    ("curation", "extract_features", None),
    ("curation", "kmeans", _iterations),
    ("curation", "stratified_sample", None),
    ("curation", "augment", None),
    ("analysis", "reconstruction_metrics", None),
    ("analysis", "load_ratings", _rows),
    ("analysis", "aggregate", None),
)
FFT_LAYERS = (("rfft", False), ("irfft", True))
CLI_COMMANDS = ("augment", "curate", "batch", "metrics", "report")


class Tracer:
    """Span recorder. Single-threaded: the benchmark is a closed loop of one client."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op: str | None = None
        self.counters: dict[str, float] = {}
        self.patched: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def root(self, name: str | None, op: str, fn, *args):
        """Run one benchmark operation tagged with its clip or command; name=None opens no span."""
        self.op = op
        span = self._open(name) if name else None
        try:
            return fn(*args)
        finally:
            if span:
                self._close(span)
            self.op = None

    def _wrap(self, name, fn, extra=None, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if extra is not None:
                extra(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hapticwave" or mod_name.startswith("hapticwave.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every binding of every layer function."""
        import hapticwave
        import hapticwave.cli

        for mod_name, fn_name, extra in LAYERS:
            module = getattr(hapticwave, mod_name)
            original = getattr(module, fn_name, None)
            if original is not None:
                self._patch_everywhere(original, self._wrap(f"{mod_name}.{fn_name}", original, extra))
        cli = hapticwave.cli
        self.patched.append((cli, "run", cli.run))
        cli.run = self._wrap("cli.run", cli.run, name_of=lambda args: f"cli.run.{args[0][0]}")
        for fn_name, inverse in FFT_LAYERS:
            name = f"numpy.fft.{fn_name}"
            original = getattr(np.fft, fn_name)
            self.patched.append((np.fft, fn_name, original))
            setattr(np.fft, fn_name, self._wrap(name, original, _fft_counts(name, inverse)))

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls and self time (ms) per span name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_s):
            entry = stats.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - children) * 1000.0
        return stats

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_us": round((start - t0) * 1e6, 1),
                                     "end_us": round((end - t0) * 1e6, 1), "parent": parent,
                                     "op": op}) + "\n")
