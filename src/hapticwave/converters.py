"""The four audio-to-vibration algorithms and shared output normalization.

Each converter maps an AudioClip to an 8 kHz VibrationSignal:

* plm       -- perceptual mapping: per-frame loudness/roughness drive the
               amplitudes of two fixed carriers at 175 and 210 Hz.
* fshift    -- the input summed with one- and two-octave down-shifted copies,
               high-passed at 10 Hz and band-passed around 250 Hz.
* pitch     -- per-window Bark-band loudness regressed onto a 50-400 Hz
               carrier frequency, amplitude-modulated by frame loudness.
* hapticgen -- per-window RMS mapped onto a 200 +/- 50 Hz carrier with
               matching amplitude modulation.

plm, pitch, and hapticgen are normalized so the loudest native analysis
segment hits the target RMS; fshift is normalized on whole-signal RMS.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import psychoacoustics as psycho
from .audio_io import (
    CONVERTER_TAGS,
    VIBRATION_RATE,
    AudioClip,
    VibrationSignal,
    clip_name,
    fit_length,
    halve_rate,
    require_finite,
    resample_samples,
)
from .dsp import (
    FilterSpec,
    butterworth_filter,
    frame_rms,
    ms_to_samples,
    nco_synthesize,
    pitch_shift,
)
from .errors import DegenerateSignalError, NonFiniteSignalError, SchemaError
from .psychoacoustics import PsychoConfig

# Signals whose pre-normalization RMS falls below this are treated as silent.
_SILENCE_RMS = 1e-9

# Scaling to the target RMS may push samples past full scale; they are clamped
# and the affected fraction is reported. Warn when it stops being rare.
CLIP_WARN_FRACTION = 1e-3

# fshift analyses at half the input rate when that is an integer of at least
# this. Its output is band-passed at 250 Hz and written at 8 kHz, yet the
# vocoder's -24 semitone copy carries some of the band it loses into the
# pass band: dropping 11-22 kHz moves 1 s of white noise at 44.1 kHz by ~1%
# (relative L2), while quartering 96 kHz moved 11% of 10-50 ms noise clips by
# more than 2%, so the rate is halved at most once.
_FSHIFT_MIN_WORK_RATE = 22050

# The 8 kHz output stage keeps its time grid and plm's carrier sines per
# output length, since fixed-length clips ask for the same ones on every call.
# Only outputs of at most this many samples (2 MiB of float64, 32.8 s) are
# kept; see _output_table for the bound on the memory held.
_OUTPUT_CACHE_MAX_LEN = 1 << 18


def _default_pitch_coeffs() -> tuple[float, ...]:
    # Placeholder regression: weights rise linearly across the 24 bands so the
    # loudness-weighted band centroid maps onto [f_min, f_max]; the published
    # perceptual coefficients can be dropped in via config.
    weights = [350.0 * b / 23.0 for b in range(24)]
    return tuple(weights) + (50.0,)


@dataclass
class PlmConfig:
    frame_size: int = 4096
    carrier_low_hz: float = 175.0
    carrier_high_hz: float = 210.0
    # intensity = a0 + a1 * log1p(loudness)
    intensity_map: tuple[float, float] = (0.0, 1.0)
    # roughness = b0 + b1 * raw_roughness ** b2
    roughness_map: tuple[float, float, float] = (0.0, 1.0, 0.5)
    # fraction of intensity routed to the high carrier per unit roughness
    carrier_mix: float = 0.5


@dataclass
class FshiftConfig:
    shifts: tuple[float, ...] = (-12.0, -24.0)
    hp_cutoff_hz: float = 10.0
    hp_order: int = 2
    bp_center_hz: float = 250.0
    bp_q: float = 1.0
    bp_order: int = 4


@dataclass
class PitchConfig:
    window_ms: float = 10.0
    overlap: float = 0.5
    f_min_hz: float = 50.0
    f_max_hz: float = 400.0
    # 24 band weights + intercept; applied to the specific-loudness profile
    regression_coeffs: tuple[float, ...] = field(default_factory=_default_pitch_coeffs)
    # regress on the unit-sum profile rather than raw band values
    normalize_features: bool = True


@dataclass
class HapticgenConfig:
    window_ms: float = 10.0
    f_center_hz: float = 200.0
    f_dev_hz: float = 50.0


@dataclass
class ConverterConfig:
    plm: PlmConfig = field(default_factory=PlmConfig)
    fshift: FshiftConfig = field(default_factory=FshiftConfig)
    pitch: PitchConfig = field(default_factory=PitchConfig)
    hapticgen: HapticgenConfig = field(default_factory=HapticgenConfig)
    psycho: PsychoConfig = field(default_factory=PsychoConfig)
    target_segment_rms: float = 0.15

    def __post_init__(self) -> None:
        nyquist = VIBRATION_RATE / 2.0
        if not 0 < self.pitch.f_min_hz < self.pitch.f_max_hz < nyquist:
            raise ValueError("pitch frequency range must satisfy 0 < f_min < f_max < Nyquist")
        lo = self.hapticgen.f_center_hz - self.hapticgen.f_dev_hz
        hi = self.hapticgen.f_center_hz + self.hapticgen.f_dev_hz
        if not 0 < lo <= hi < nyquist:
            raise ValueError("hapticgen frequency range must stay inside (0, Nyquist)")
        if len(self.pitch.regression_coeffs) != psycho.N_BARK_BANDS + 1:
            raise ValueError("pitch regression needs 24 band weights plus an intercept")
        for key, arity in (("intensity_map", 2), ("roughness_map", 3)):
            if len(getattr(self.plm, key)) != arity:
                raise ValueError(f"plm.{key} needs {arity} values")
        if len(self.psycho.contour_gains_db) != len(self.psycho.contour_freqs):
            raise ValueError("psycho.contour_gains_db and psycho.contour_freqs differ in length")
        if np.any(np.diff(self.psycho.contour_freqs) <= 0):
            raise ValueError("psycho.contour_freqs must be strictly ascending")
        if self.psycho.max_peaks < 1:
            raise ValueError("psycho.max_peaks must be at least 1")
        if self.psycho.loudness_exponent <= 0:
            raise ValueError("psycho.loudness_exponent must be positive")
        if self.target_segment_rms <= 0:
            raise ValueError("target_segment_rms must be positive")
        if not 0 <= self.pitch.overlap < 1:
            raise ValueError("pitch.overlap must be in [0, 1)")
        if any(abs(s) > 24 for s in self.fshift.shifts):
            raise ValueError("fshift.shifts entries are limited to +/-24 semitones")
        if self.pitch.window_ms <= 0 or self.hapticgen.window_ms <= 0:
            raise ValueError("pitch.window_ms and hapticgen.window_ms must be positive")
        for key in ("carrier_low_hz", "carrier_high_hz"):
            if not 0 < getattr(self.plm, key) < nyquist:
                raise ValueError(f"plm.{key} must lie in (0, {nyquist:g}) Hz")
        if self.plm.frame_size < 1024:
            raise ValueError("plm.frame_size must be at least 1024 samples")
        for key in ("hp_order", "bp_order"):
            if getattr(self.fshift, key) not in (2, 4):
                raise ValueError(f"fshift.{key} must be 2 or 4")
        if self.fshift.bp_q <= 0:
            raise ValueError("fshift.bp_q must be positive")


def default_config() -> ConverterConfig:
    return ConverterConfig()


def _is_number(value) -> bool:
    # json.loads reads NaN and Infinity as floats
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and bool(np.isfinite(value)))


def _typed(current, value, dotted: str):
    """value as the type of the default it replaces; SchemaError naming dotted on a mismatch."""
    if isinstance(current, bool):
        ok = isinstance(value, bool)
    elif isinstance(current, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(current, float):
        ok = _is_number(value)
    else:  # tuple, the only other leaf type in the tree
        ok = isinstance(value, list) and all(map(_is_number, value))
    if not ok:
        raise SchemaError(f"config key {dotted} expects {type(current).__name__}, got {value!r}")
    return tuple(map(float, value)) if isinstance(current, tuple) else type(current)(value)


def _merge_section(section, overrides, context: str):
    if not isinstance(overrides, dict):
        raise SchemaError(f"config key {context} expects a section object, got {overrides!r}")
    kwargs = {}
    known = {f.name for f in fields(section)}
    for key, value in overrides.items():
        dotted = f"{context}.{key}"
        if key not in known:
            raise SchemaError(f"unknown config key {dotted}")
        current = getattr(section, key)
        if is_dataclass(current):
            kwargs[key] = _merge_section(current, value, dotted)
        else:
            kwargs[key] = _typed(current, value, dotted)
    return replace(section, **kwargs)


def load_converter_config(path: str | Path) -> ConverterConfig:
    """Apply a JSON config file (nested by section) on top of the defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read converter config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return _merge_section(default_config(), raw, "config")


def apply_config_overrides(cfg: ConverterConfig, overrides: dict[str, str]) -> ConverterConfig:
    """Apply dotted-path overrides like {"plm.carrier_mix": "0.4"}."""
    nested: dict = {}
    for dotted, text in overrides.items():
        parts = dotted.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise SchemaError(f"config key config.{dotted}: {part} is not a section")
        try:
            node[parts[-1]] = json.loads(text)
        except json.JSONDecodeError:
            node[parts[-1]] = text
    return _merge_section(cfg, nested, "config")


def normalize_vibration(raw: np.ndarray, cfg: ConverterConfig, *, algorithm_tag: str,
                        segment_len: int | None = None) -> VibrationSignal:
    """Scale output-rate samples so the loudest segment lands on the target RMS, and clamp.

    Segments are non-overlapping runs of segment_len samples (the converter's
    native frame at the output rate), the last one possibly partial; None
    means one segment spanning the whole signal. The share of samples that
    hit the clamp is the clipped_fraction, and a RuntimeWarning is emitted
    when it exceeds CLIP_WARN_FRACTION. A NaN or infinite sample raises
    NonFiniteSignalError naming algorithm_tag.
    """
    samples = np.asarray(raw, dtype=np.float64)
    n = len(samples)
    # squares of finite samples above ~1e154 overflow; see the non-finite peak below
    with np.errstate(over="ignore"):
        power = np.square(samples)
        if not n or np.sqrt(np.mean(power)) < _SILENCE_RMS:
            raise DegenerateSignalError("degenerate signal: silent converter output")
        segment_len = segment_len or n
        n_full = n - n % segment_len
        seg_ms = np.mean(power[:n_full].reshape(-1, segment_len), axis=1)
        if n_full < n:
            seg_ms = np.append(seg_ms, np.mean(power[n_full:]))
    # a NaN or infinite sample makes its segment's power, and so the peak, non-finite
    peak = float(seg_ms.max())
    if not np.isfinite(peak):
        if not np.isfinite(samples).all():
            raise NonFiniteSignalError(f"{algorithm_tag}: NaN or infinite converter output")
        # finite samples whose power overflowed: scale them to a unit peak first
        return normalize_vibration(samples / np.abs(samples).max(), cfg,
                                   algorithm_tag=algorithm_tag, segment_len=segment_len)
    # no lower than the whole-signal RMS, so above the silence floor
    scaled = samples * (cfg.target_segment_rms / np.sqrt(peak))
    # the usual case: nothing to clamp
    if scaled.min() >= -1.0 and scaled.max() <= 1.0:
        return VibrationSignal(samples=scaled, algorithm_tag=algorithm_tag)
    clipped = int(np.count_nonzero(np.abs(scaled) > 1.0)) / n
    if clipped > CLIP_WARN_FRACTION:
        warnings.warn(f"clamped {clipped:.2%} of samples to [-1, 1]", RuntimeWarning,
                      stacklevel=2)
    return VibrationSignal(samples=np.clip(scaled, -1.0, 1.0), algorithm_tag=algorithm_tag,
                           clipped_fraction=clipped)


def _output_length(n_in: int, in_rate: int) -> int:
    return int(round(n_in * VIBRATION_RATE / in_rate))


def _frame_centers(n_frames: int, frame_size: int, hop: int, rate: int) -> np.ndarray:
    return (np.arange(n_frames) * hop + frame_size / 2.0) / rate


def _output_table(maxsize: int):
    """Decorator keeping build(*key, n_out)'s read-only result for n_out <= _OUTPUT_CACHE_MAX_LEN.

    At most maxsize results are kept (least recently used goes first), so a
    table holds at most maxsize * 2 MiB; a longer output is built on every
    call and not kept.
    """
    def decorate(build):
        def read_only(*key):
            table = build(*key)
            table.flags.writeable = False
            return table

        cached = lru_cache(maxsize=maxsize)(read_only)

        def table(*key):
            return cached(*key) if key[-1] <= _OUTPUT_CACHE_MAX_LEN else read_only(*key)

        table.cache_info = cached.cache_info
        return table
    return decorate


# 1/2/5 s clips need three grids at a time, and plm two carriers per grid;
# together the two caches hold at most (4 + 8) * 2 MiB = 24 MiB.
@_output_table(maxsize=4)
def _time_grid(n_out: int) -> np.ndarray:
    """Output sample times in seconds, read-only."""
    return np.arange(n_out) / VIBRATION_RATE


@_output_table(maxsize=8)
def _carrier_table(freq_hz: float, n_out: int) -> np.ndarray:
    """A zero-phase sine at freq_hz on the output time grid, read-only."""
    return np.sin(2.0 * np.pi * freq_hz * _time_grid(n_out))


def _nco(freqs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    return nco_synthesize(freqs, amps, VIBRATION_RATE)


def _output_vibration(tracks: tuple[np.ndarray, ...], synthesize, clip: AudioClip, window: int,
                      hop: int, segment_len: int, cfg: ConverterConfig,
                      algorithm_tag: str) -> VibrationSignal:
    """The 8 kHz output stage shared by plm, pitch and hapticgen.

    Each per-frame track is interpolated linearly from the frame centres onto
    the output time grid; synthesize(*envelopes) turns the envelopes into
    raw samples, which are normalized per segment_len output samples.
    """
    centers = _frame_centers(len(tracks[0]), window, hop, clip.sample_rate)
    t = _time_grid(_output_length(len(clip.samples), clip.sample_rate))
    raw = synthesize(*(np.interp(t, centers, values) for values in tracks))
    return _normalize_clip(raw, cfg, clip, algorithm_tag, segment_len)


def _normalize_clip(raw: np.ndarray, cfg: ConverterConfig, clip: AudioClip, algorithm_tag: str,
                    segment_len: int | None = None) -> VibrationSignal:
    """normalize_vibration, with its silent or non-finite output errors naming the clip."""
    try:
        return normalize_vibration(raw, cfg, algorithm_tag=algorithm_tag, segment_len=segment_len)
    except (DegenerateSignalError, NonFiniteSignalError) as exc:
        raise type(exc)(f"{clip_name(clip)}: {exc}") from exc


def plm_feature_tracks(clip: AudioClip, cfg: ConverterConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (intensity, roughness) tracks for the perceptual mapping."""
    require_finite(clip)
    frame_size = cfg.plm.frame_size
    loudness, raw_rough = psycho.loudness_roughness_frames(
        clip.samples, frame_size, frame_size, clip.sample_rate, cfg.psycho)
    a0, a1 = cfg.plm.intensity_map
    b0, b1, b2 = cfg.plm.roughness_map
    # fmax, not maximum: a NaN feature maps to 0 rather than propagating
    intensity = np.fmax(0.0, a0 + a1 * np.log1p(loudness))
    vib_rough = np.fmax(0.0, b0 + b1 * raw_rough ** b2)
    return intensity, vib_rough


def convert_plm(clip: AudioClip, cfg: ConverterConfig | None = None) -> VibrationSignal:
    """Loudness/roughness mapping onto two fixed sinusoidal carriers."""
    cfg = cfg or default_config()
    pc = cfg.plm
    intensity, vib_rough = plm_feature_tracks(clip, cfg)

    # carrier split: the high carrier takes a roughness-controlled share
    mix = np.clip(vib_rough * pc.carrier_mix, 0.0, 1.0)

    def two_carriers(env_low: np.ndarray, env_high: np.ndarray) -> np.ndarray:
        env_low *= _carrier_table(pc.carrier_low_hz, len(env_low))
        env_high *= _carrier_table(pc.carrier_high_hz, len(env_high))
        env_low += env_high
        return env_low

    return _output_vibration((intensity * (1.0 - mix), intensity * mix), two_carriers, clip,
                             pc.frame_size, pc.frame_size,
                             _output_length(pc.frame_size, clip.sample_rate), cfg, "plm")


def _fshift_work_rate(sample_rate: int) -> int:
    """sample_rate halved if that is an integer of at least _FSHIFT_MIN_WORK_RATE, else itself."""
    half, odd = divmod(sample_rate, 2)
    return half if not odd and half >= _FSHIFT_MIN_WORK_RATE else sample_rate


def fshift_raw(clip: AudioClip, cfg: ConverterConfig | None = None) -> np.ndarray:
    """Frequency-shift pipeline before normalization, at the output rate.

    The vocoder runs at the working rate (see _fshift_work_rate) on a grid
    scaled with it, 1024/256 samples at half rate for 2048/512, so frames
    span the same time as at the input rate; filtering and the resample to
    8 kHz follow at that rate.
    """
    require_finite(clip)
    cfg = cfg or default_config()
    want = _output_length(len(clip.samples), clip.sample_rate)
    if want == 0:  # no output sample; the decimated clip could be empty
        return np.zeros(0)
    rate = _fshift_work_rate(clip.sample_rate)
    step = clip.sample_rate // rate
    work = AudioClip(halve_rate(clip.samples) if step == 2 else clip.samples, rate)
    mixed = work.samples + pitch_shift(work, cfg.fshift.shifts, fft_size=2048 // step,
                                       hop=512 // step).samples
    hp = FilterSpec("highpass", cfg.fshift.hp_cutoff_hz, order=cfg.fshift.hp_order)
    bp = FilterSpec("bandpass", cfg.fshift.bp_center_hz, q=cfg.fshift.bp_q,
                    order=cfg.fshift.bp_order)
    out = resample_samples(butterworth_filter(mixed, (hp, bp), rate), rate, VIBRATION_RATE)
    return fit_length(out, want)


def convert_fshift(clip: AudioClip, cfg: ConverterConfig | None = None) -> VibrationSignal:
    """Octave down-shift summation with band-pass shaping."""
    cfg = cfg or default_config()
    return _normalize_clip(fshift_raw(clip, cfg), cfg, clip, "fshift")


def _pitch_window(pc: PitchConfig, sample_rate: int) -> tuple[int, int]:
    """(window, hop) in samples of the pitch converter's analysis frames."""
    window = ms_to_samples(pc.window_ms, sample_rate)
    return window, max(1, int(round(window * (1.0 - pc.overlap))))


def pitch_frequency_track(clip: AudioClip, cfg: ConverterConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-window (frequency, amplitude) tracks for the pitch converter."""
    require_finite(clip)
    pc = cfg.pitch
    window, hop = _pitch_window(pc, clip.sample_rate)
    specific = psycho.specific_loudness_frames(clip.samples, window, hop, clip.sample_rate,
                                               cfg.psycho)
    totals = specific.sum(axis=1, keepdims=True)
    features = np.divide(specific, totals, out=specific.copy(),
                         where=(totals > 0) & pc.normalize_features)
    freqs = np.clip(pc.regression_coeffs[-1] + features @ np.asarray(pc.regression_coeffs[:-1]),
                    pc.f_min_hz, pc.f_max_hz)
    return freqs, totals[:, 0]


def convert_pitch(clip: AudioClip, cfg: ConverterConfig | None = None) -> VibrationSignal:
    """Bark-profile regression to a single time-varying carrier frequency."""
    cfg = cfg or default_config()
    freqs, amps = pitch_frequency_track(clip, cfg)
    window, hop = _pitch_window(cfg.pitch, clip.sample_rate)
    return _output_vibration((freqs, amps), _nco, clip, window, hop,
                             ms_to_samples(cfg.pitch.window_ms, VIBRATION_RATE), cfg, "pitch")


def convert_hapticgen(clip: AudioClip, cfg: ConverterConfig | None = None) -> VibrationSignal:
    """RMS-envelope mapping onto a 200 Hz carrier with +/-50 Hz modulation."""
    require_finite(clip)
    cfg = cfg or default_config()
    hc = cfg.hapticgen
    window = ms_to_samples(hc.window_ms, clip.sample_rate)
    rms = frame_rms(clip.samples, window, window)
    peak = float(rms.max())
    if peak <= 0.0:
        raise DegenerateSignalError(f"{clip_name(clip)}: degenerate signal: silent input")
    r_norm = rms / peak

    freqs = hc.f_center_hz - hc.f_dev_hz + 2.0 * hc.f_dev_hz * r_norm
    return _output_vibration((freqs, r_norm), _nco, clip, window, window,
                             ms_to_samples(hc.window_ms, VIBRATION_RATE), cfg, "hapticgen")


_CONVERTERS = {
    "plm": convert_plm,
    "fshift": convert_fshift,
    "pitch": convert_pitch,
    "hapticgen": convert_hapticgen,
}


def convert(clip: AudioClip, algorithm: str, cfg: ConverterConfig | None = None) -> VibrationSignal:
    """Dispatch to one of the four converters by tag."""
    try:
        converter = _CONVERTERS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm tag: {algorithm!r}") from None
    return converter(clip, cfg or default_config())
