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
from collections.abc import Iterable
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache, partial
from math import inf
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
    _band_edges,
    butterworth_filter,
    frame_rms,
    ms_to_samples,
    nco_synthesize,
    pitch_shift,
)
from .domains import Entries, Interval, OneOf, _check_leaves, _is_number, _leaf
from .errors import DegenerateSignalError, NonFiniteSignalError, SchemaError, _not_utf8_error
from .psychoacoustics import DEFAULT_PSYCHO_CONFIG, PsychoConfig

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

# The 8 kHz output stage reads its time grid and plm's carrier sines as
# prefixes of kept tables, one per (carrier or grid, power of two at or above
# the output length), up to this many samples (2 MiB of float64, 32.8 s); a
# longer output builds its own and does not keep it.
_TABLE_LEN = 1 << 18
# Tables kept, least recently used evicted first: at most 24 MiB. The grid and
# plm's two carriers, each at the three lengths of 1, 2 and 5 s clips, fit.
_MAX_TABLES = 12

# Frequencies the 8 kHz output can carry
_OUTPUT_BAND = Interval(0.0, VIBRATION_RATE / 2.0, "()")
# A Hann window needs 2 samples, which 1 ms holds from 1.5 kHz up; 10 s bounds the allocation
_WINDOW_MS = Interval(1.0, 10_000.0)
# Regression weights and intercepts: past these a track is only pinned at its clip limits
_WEIGHT = Interval(-1e6, 1e6)


@dataclass(frozen=True)
class PlmConfig:
    # from the 1024 points loudness_roughness_frames needs to 2**20 (8 MiB of float64),
    # far below an allocation numpy refuses
    frame_size: int = _leaf(4096, Interval(1024, 1 << 20))
    carrier_low_hz: float = _leaf(175.0, _OUTPUT_BAND)
    carrier_high_hz: float = _leaf(210.0, _OUTPUT_BAND)
    # intensity = a0 + a1 * log1p(loudness); it must rise with loudness ([0, -1] silenced a tone)
    intensity_map: tuple[float, float] = _leaf((0.0, 1.0), Entries(_WEIGHT, Interval(1e-6, 1e6)))
    # roughness = b0 + b1 * raw_roughness ** b2; b2 in (0, 1] keeps the power at most max(1, raw)
    roughness_map: tuple[float, float, float] = _leaf(
        (0.0, 1.0, 0.5), Entries(_WEIGHT, _WEIGHT, Interval(0.0, 1.0, "(]")))
    # fraction of intensity routed to the high carrier per unit roughness
    carrier_mix: float = _leaf(0.5, Interval(0.0, 1.0))


@dataclass(frozen=True)
class FshiftConfig:
    shifts: tuple[float, ...] = _leaf((-12.0, -24.0), Entries(Interval(-24.0, 24.0)))
    # below the working rate's Nyquist as well, which fshift_raw checks per clip
    hp_cutoff_hz: float = _leaf(10.0, Interval(0.0, inf, "()"))
    hp_order: int = _leaf(2, OneOf(2, 4))
    # the band filter needs about 1 / bp_center_hz s to respond: 0.001 Hz silenced a 1 s tone
    bp_center_hz: float = _leaf(250.0, Interval(1.0, inf, "[)"))
    # Q 1e6 silenced a 1 s tone; at Q 1000 the band around 250 Hz is 0.25 Hz wide
    bp_q: float = _leaf(1.0, Interval(0.0, 1000.0, "(]"))
    bp_order: int = _leaf(4, OneOf(2, 4))


@dataclass(frozen=True)
class PitchConfig:
    window_ms: float = _leaf(10.0, _WINDOW_MS)
    overlap: float = _leaf(0.5, Interval(0.0, 1.0, "[)"))
    f_min_hz: float = _leaf(50.0, _OUTPUT_BAND)
    f_max_hz: float = _leaf(400.0, _OUTPUT_BAND)
    # 24 band weights + intercept; applied to the unit-sum specific-loudness
    # profile. A placeholder: weights rise linearly across the bands so the
    # loudness-weighted band centroid maps onto [f_min, f_max]; the published
    # coefficients can be dropped in via config.
    regression_coeffs: tuple[float, ...] = _leaf(
        tuple(350.0 * b / 23.0 for b in range(24)) + (50.0,), Entries(_WEIGHT))


@dataclass(frozen=True)
class HapticgenConfig:
    window_ms: float = _leaf(10.0, _WINDOW_MS)
    f_center_hz: float = _leaf(200.0, _OUTPUT_BAND)
    f_dev_hz: float = _leaf(50.0, Interval(0.0, _OUTPUT_BAND.hi, "[)"))


@dataclass(frozen=True)
class ConverterConfig:
    plm: PlmConfig = PlmConfig()
    fshift: FshiftConfig = FshiftConfig()
    pitch: PitchConfig = PitchConfig()
    hapticgen: HapticgenConfig = HapticgenConfig()
    psycho: PsychoConfig = DEFAULT_PSYCHO_CONFIG
    # a segment inside [-1, 1] has an RMS of at most 1
    target_segment_rms: float = _leaf(0.15, Interval(0.0, 1.0, "(]"))

    def __post_init__(self) -> None:
        """Check every leaf's type and declared domain, then the rules that join leaves."""
        _check_leaves(self)
        if self.pitch.f_min_hz >= self.pitch.f_max_hz:
            raise SchemaError("pitch.f_min_hz must be below pitch.f_max_hz")
        lo = self.hapticgen.f_center_hz - self.hapticgen.f_dev_hz
        hi = self.hapticgen.f_center_hz + self.hapticgen.f_dev_hz
        if not 0 < lo <= hi < _OUTPUT_BAND.hi:
            raise SchemaError("hapticgen frequency range must stay inside (0, 4000) Hz, got "
                              f"hapticgen.f_center_hz +/- hapticgen.f_dev_hz = {lo:g} to {hi:g}")
        if len(self.pitch.regression_coeffs) != psycho.N_BARK_BANDS + 1:
            raise SchemaError("pitch regression needs 24 band weights plus an intercept, got "
                              f"{len(self.pitch.regression_coeffs)} in pitch.regression_coeffs")
        if not self.psycho.contour_freqs:
            raise SchemaError("psycho.contour_freqs must not be empty")
        if len(self.psycho.contour_gains_db) != len(self.psycho.contour_freqs):
            raise SchemaError("psycho.contour_gains_db and psycho.contour_freqs differ in length")
        if np.any(np.diff(self.psycho.contour_freqs) <= 0):
            raise SchemaError("psycho.contour_freqs must be strictly ascending")


# The config convert and every convert_* use when given none; frozen, so safe to share.
DEFAULT_CONFIG = ConverterConfig()


def _typed(current, value):
    """value in current's type where JSON spells it otherwise; the config checks what is left."""
    if isinstance(current, tuple) and isinstance(value, list) and all(map(_is_number, value)):
        return tuple(map(float, value))
    return float(value) if isinstance(current, float) and _is_number(value) else value


def _merge_section(section, overrides: dict, prefix: str = ""):
    """section with overrides merged in; SchemaError naming a key as --set spells it."""
    kwargs = {}
    known = {f.name for f in fields(section)}
    for key, value in overrides.items():
        dotted = f"{prefix}{key}"
        if key not in known:
            raise SchemaError(f"unknown config key {dotted}")
        current = getattr(section, key)
        if is_dataclass(current):
            if not isinstance(value, dict):
                raise SchemaError(f"config key {dotted} expects a section object, got {value!r}")
            kwargs[key] = _merge_section(current, value, f"{dotted}.")
        else:
            kwargs[key] = _typed(current, value)
    return replace(section, **kwargs)


def load_converter_config(path: str | Path | None = None,
                          overrides: Iterable[str] = ()) -> ConverterConfig:
    """The defaults, then a JSON config file (nested by section), then dotted KEY=VALUE
    overrides such as "plm.carrier_mix=0.4" in order, merged into one object and validated once.

    The file is read as UTF-8, after a byte-order mark if there is one, as the CSV readers are.
    """
    raw = {}
    if path:  # "" (an empty --config) reads no file, as None does
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise _not_utf8_error(path, exc) from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read converter config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}: expected a JSON object")
    for item in overrides:
        dotted, sep, text = item.partition("=")
        if not sep:
            raise SchemaError(f"--set expects KEY=VALUE, got {item!r}")
        *sections, key = dotted.split(".")
        node = raw
        for part in sections:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise SchemaError(f"config key {dotted}: {part} is not a section")
        try:
            node[key] = json.loads(text)
        except json.JSONDecodeError:
            node[key] = text
    return _merge_section(DEFAULT_CONFIG, raw)


def normalize_vibration(raw: np.ndarray, cfg: ConverterConfig, *, algorithm_tag: str,
                        segment_len: int | None = None) -> VibrationSignal:
    """Scale output-rate samples so the loudest segment lands on the target RMS, and clamp.

    Segments are non-overlapping runs of segment_len samples (the converter's
    native frame at the output rate), the last one possibly partial; None
    means one segment spanning the whole signal. The share of samples that
    hit the clamp is the clipped_fraction, and a RuntimeWarning is emitted
    when it exceeds CLIP_WARN_FRACTION. No samples, or an RMS below the
    silence floor, raise DegenerateSignalError; a NaN or infinite sample
    raises NonFiniteSignalError naming algorithm_tag.
    """
    samples = np.asarray(raw, dtype=np.float64)
    n = len(samples)
    if not n:
        raise DegenerateSignalError("degenerate signal: no output samples")
    # squares of finite samples above ~1e154 overflow; see the non-finite peak below
    with np.errstate(over="ignore"):
        power = np.square(samples)
        # every mean is a sum divided by its count, as np.mean computes it
        if np.sqrt(power.sum() / n) < _SILENCE_RMS:
            raise DegenerateSignalError("degenerate signal: silent converter output")
        segment_len = segment_len or n
        n_full = n - n % segment_len
        # dividing by one count keeps the order, so the largest mean is the largest sum's
        peak = power[:n_full].reshape(-1, segment_len).sum(axis=1).max(initial=0.0) / segment_len
        if n_full < n:
            peak = np.maximum(peak, power[n_full:].sum() / (n - n_full))
    # a NaN or infinite sample makes its segment's power, and so the peak, non-finite
    peak = float(peak)
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


def _build_table(freq_hz: float | None, n_out: int) -> np.ndarray:
    """Output sample times in seconds, or with freq_hz a zero-phase sine on them; read-only."""
    table = np.arange(n_out) / VIBRATION_RATE
    if freq_hz is not None:  # in place, so no second table-sized array
        table *= 2.0 * np.pi * freq_hz
        np.sin(table, out=table)
    table.flags.writeable = False
    return table


# Safe across threads: two that miss one key may both build it, into equal tables.
_kept_table = lru_cache(maxsize=_MAX_TABLES)(_build_table)


def _carrier_table(freq_hz: float | None, n_out: int) -> np.ndarray:
    """A zero-phase sine at freq_hz on the output time grid, or the grid for None; read-only.

    Every table is elementwise in the sample index, so a prefix of a longer
    table equals the table built at n_out, bit for bit.
    """
    if n_out > _TABLE_LEN:
        return _build_table(freq_hz, n_out)
    return _kept_table(freq_hz, 1 << (n_out - 1).bit_length())[:n_out]


# Output sample times in seconds, read-only.
_time_grid = partial(_carrier_table, None)


def _output_vibration(tracks: tuple[np.ndarray, ...], synthesize, clip: AudioClip, window: int,
                      hop: int, segment_len: int, cfg: ConverterConfig,
                      algorithm_tag: str) -> VibrationSignal:
    """The 8 kHz output stage shared by plm, pitch and hapticgen.

    Each per-frame track is interpolated linearly from the frame centres onto
    the output time grid; synthesize(*envelopes) turns the envelopes into
    raw samples, which are normalized per segment_len output samples. A lone
    output sample sits at t = 0, where every carrier is 0, and is refused.
    """
    n_out = _output_length(len(clip.samples), clip.sample_rate)
    if n_out == 1:
        raise DegenerateSignalError(f"{clip_name(clip)}: degenerate signal: one output sample, "
                                    "at t = 0, where every carrier is 0")
    centers = _frame_centers(len(tracks[0]), window, hop, clip.sample_rate)
    t = _time_grid(n_out)
    raw = synthesize(*(np.interp(t, centers, values) for values in tracks))
    return _normalize_clip(raw, cfg, clip, algorithm_tag, segment_len)


def _normalize_clip(raw: np.ndarray, cfg: ConverterConfig, clip: AudioClip, algorithm_tag: str,
                    segment_len: int | None = None) -> VibrationSignal:
    """normalize_vibration, with its silent or non-finite output errors naming the clip."""
    try:
        return normalize_vibration(raw, cfg, algorithm_tag=algorithm_tag, segment_len=segment_len)
    except (DegenerateSignalError, NonFiniteSignalError) as exc:
        raise type(exc)(f"{clip_name(clip)}: {exc}") from exc


def _require_finite_features(clip: AudioClip, feature: str, *tracks: np.ndarray) -> None:
    """Raise NonFiniteSignalError naming the clip if a per-frame feature track is not finite.

    Finite input of huge amplitude (a peak near 1e152 and above) overflows
    squared spectra and frame powers. The features are computed with
    overflow warnings off and checked here, on frame-rate arrays.
    """
    if not all(np.isfinite(track).all() for track in tracks):
        raise NonFiniteSignalError(f"{clip_name(clip)}: input overflowed: non-finite {feature}")


def plm_feature_tracks(clip: AudioClip, cfg: ConverterConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (intensity, roughness) tracks for the perceptual mapping."""
    require_finite(clip)
    with np.errstate(over="ignore", invalid="ignore"):
        loudness, raw_rough = psycho.loudness_roughness_frames(
            clip.samples, cfg.plm.frame_size, clip.sample_rate, cfg.psycho)
    _require_finite_features(clip, "loudness or roughness", loudness, raw_rough)
    a0, a1 = cfg.plm.intensity_map
    b0, b1, b2 = cfg.plm.roughness_map
    # fmax, not maximum: a NaN feature maps to 0 rather than propagating
    intensity = np.fmax(0.0, a0 + a1 * np.log1p(loudness))
    vib_rough = np.fmax(0.0, b0 + b1 * raw_rough ** b2)
    return intensity, vib_rough


def convert_plm(clip: AudioClip, cfg: ConverterConfig = DEFAULT_CONFIG) -> VibrationSignal:
    """Loudness/roughness mapping onto two fixed sinusoidal carriers."""
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


def fshift_raw(clip: AudioClip, cfg: ConverterConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Frequency-shift pipeline before normalization, at the output rate.

    The vocoder runs at the working rate (see _fshift_work_rate) on a grid
    scaled with it, 1024/256 samples at half rate for 2048/512, so frames
    span the same time as at the input rate; filtering and the resample to
    8 kHz follow at that rate.
    """
    require_finite(clip)
    want = _output_length(len(clip.samples), clip.sample_rate)
    if want == 0:  # no output sample; the decimated clip could be empty
        return np.zeros(0)
    rate = _fshift_work_rate(clip.sample_rate)
    fc = cfg.fshift
    for kind, edge, keys in (("highpass", fc.hp_cutoff_hz, "fshift.hp_cutoff_hz"),
                             ("bandpass", _band_edges(fc.bp_center_hz, fc.bp_q)[1],
                              "fshift.bp_center_hz and fshift.bp_q")):
        if edge >= rate / 2.0:  # a valid config, but too high for this clip's working rate
            raise SchemaError(f"{clip_name(clip)}: {kind} edge {edge:g} Hz from {keys} is "
                              f"not below the working rate's Nyquist ({rate / 2.0:g} Hz)")
    step = clip.sample_rate // rate
    work = AudioClip(halve_rate(clip.samples) if step == 2 else clip.samples, rate)
    mixed = work.samples + pitch_shift(work, fc.shifts, fft_size=2048 // step).samples
    hp, bp = (fc.hp_cutoff_hz, fc.hp_order), (fc.bp_center_hz, fc.bp_q, fc.bp_order)
    out = resample_samples(butterworth_filter(mixed, hp, bp, rate), rate, VIBRATION_RATE)
    return fit_length(out, want)


def convert_fshift(clip: AudioClip, cfg: ConverterConfig = DEFAULT_CONFIG) -> VibrationSignal:
    """Octave down-shift summation with band-pass shaping."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        specific = psycho.specific_loudness_frames(clip.samples, window, hop, clip.sample_rate,
                                                   cfg.psycho)
    # a NaN or infinite band makes its frame's total so
    totals = specific.sum(axis=1, keepdims=True)
    _require_finite_features(clip, "specific loudness", totals)
    features = np.divide(specific, totals, out=specific.copy(), where=totals > 0)
    freqs = np.clip(pc.regression_coeffs[-1] + features @ np.asarray(pc.regression_coeffs[:-1]),
                    pc.f_min_hz, pc.f_max_hz)
    return freqs, totals[:, 0]


def convert_pitch(clip: AudioClip, cfg: ConverterConfig = DEFAULT_CONFIG) -> VibrationSignal:
    """Bark-profile regression to a single time-varying carrier frequency."""
    freqs, amps = pitch_frequency_track(clip, cfg)
    window, hop = _pitch_window(cfg.pitch, clip.sample_rate)
    return _output_vibration((freqs, amps), nco_synthesize, clip, window, hop,
                             ms_to_samples(cfg.pitch.window_ms, VIBRATION_RATE), cfg, "pitch")


def convert_hapticgen(clip: AudioClip, cfg: ConverterConfig = DEFAULT_CONFIG) -> VibrationSignal:
    """RMS-envelope mapping onto a 200 Hz carrier with +/-50 Hz modulation."""
    require_finite(clip)
    hc = cfg.hapticgen
    window = ms_to_samples(hc.window_ms, clip.sample_rate)
    with np.errstate(over="ignore", invalid="ignore"):
        rms = frame_rms(clip.samples, window)
    _require_finite_features(clip, "frame RMS", rms)
    peak = float(rms.max())
    if peak <= 0.0:
        raise DegenerateSignalError(f"{clip_name(clip)}: degenerate signal: silent input")
    r_norm = rms / peak

    freqs = hc.f_center_hz - hc.f_dev_hz + 2.0 * hc.f_dev_hz * r_norm
    return _output_vibration((freqs, r_norm), nco_synthesize, clip, window, window,
                             ms_to_samples(hc.window_ms, VIBRATION_RATE), cfg, "hapticgen")


_CONVERTERS = {
    "plm": convert_plm,
    "fshift": convert_fshift,
    "pitch": convert_pitch,
    "hapticgen": convert_hapticgen,
}


def convert(clip: AudioClip, algorithm: str,
            cfg: ConverterConfig = DEFAULT_CONFIG) -> VibrationSignal:
    """Dispatch to one of the four converters by tag."""
    try:
        converter = _CONVERTERS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm tag: {algorithm!r}") from None
    return converter(clip, cfg)
