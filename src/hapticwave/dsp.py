"""Spectral and filtering primitives shared by the converters, curation, and metrics.

Everything here is a pure function of its inputs; the only module state is
caches of read-only designs. The one filter is fshift's: a Butterworth
highpass then bandpass, run as one stacked cascade of biquad sections.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

import numpy as np

from .audio_io import AudioClip, clip_name, fit_length, require_finite, resample_by_ratio
from .errors import DegenerateSignalError

# Frame analyses run over consecutive blocks of at most this many bytes of
# float64 frames, so that a block's windowed frames, spectrum and magnitudes
# stay in a core's 2 MiB L2 cache. One block holds about 1.5 s of 44.1 kHz
# audio in non-overlapping 10 ms or 4096-sample frames.
_BLOCK_BYTES = 1 << 19


@lru_cache(maxsize=32)
def hann_window(size: int) -> np.ndarray:
    """Periodic Hann window (the DFT-friendly variant), built once per size and read-only."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size)
    window.flags.writeable = False
    return window


def ms_to_samples(ms: float, sample_rate: int) -> int:
    """Length of a millisecond span in samples, rounded, at least 1."""
    return max(1, int(round(ms * sample_rate / 1000.0)))


def frame_signal(signal: np.ndarray, frame_size: int, hop: int) -> np.ndarray:
    """Slice a signal into (n_frames, frame_size) frames hop apart.

    n_frames = floor((len - frame_size) / hop) + 1, so a trailing partial
    frame is dropped, and the result is a read-only strided view of the
    signal. A signal shorter than one frame, empty included, is zero-padded
    at the end to exactly one frame. frame_size or hop below 1 raises ValueError.
    """
    if frame_size < 1 or hop < 1:
        raise ValueError("frame size and hop must be at least 1 sample")
    if len(signal) < frame_size:
        signal = fit_length(signal, frame_size)
    # the shape and strides of sliding_window_view(signal, frame_size)[::hop]
    step = signal.strides[0]
    return np.lib.stride_tricks.as_strided(
        signal, ((len(signal) - frame_size) // hop + 1, frame_size), (hop * step, step),
        writeable=False)


def _spectrum_blocks(signal: np.ndarray, frame_size: int, hop: int,
                     n_fft: int | None = None) -> tuple[int, Iterator[tuple[slice, np.ndarray]]]:
    """n_frames and an iterator of (rows, rfft of the Hann-windowed frames[rows]) over blocks.

    frame_signal runs once; each block holds at most _BLOCK_BYTES of float64
    frames, and at least one frame. n_fft > frame_size zero-pads every frame.
    """
    window = hann_window(frame_size)
    frames = frame_signal(np.asarray(signal, dtype=np.float64), frame_size, hop)
    return len(frames), ((r, np.fft.rfft(frames[r] * window, n=n_fft, axis=1))
                         for r in _block_rows(len(frames), frame_size))


def _block_rows(n: int, frame_size: int) -> Iterator[slice]:
    """Consecutive slices over n frames, each of at least one and at most _BLOCK_BYTES of frames."""
    step = max(1, _BLOCK_BYTES // (8 * frame_size))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def stft(signal: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """Magnitude STFT with a Hann window, (n_frames, fft_size // 2 + 1); square for power.

    Frames are cut as by frame_signal: a signal shorter than fft_size is
    zero-padded to one frame, and a trailing partial frame is dropped. Any
    fft_size works, as rfft takes any length.
    """
    if not 0 < hop <= fft_size:
        raise ValueError("hop must be in (0, fft_size]")
    n_frames, blocks = _spectrum_blocks(signal, fft_size, hop)
    mags = np.empty((n_frames, fft_size // 2 + 1))
    for rows, spectrum in blocks:
        np.abs(spectrum, out=mags[rows])
    return mags


def _band_edges(center_hz: float, q: float) -> tuple[float, float]:
    """(low, high) in Hz of a bandpass, Q = center / bandwidth, the center their geometric mean."""
    half = np.sqrt(1.0 + 1.0 / (4.0 * q**2))
    return center_hz * (half - 1.0 / (2.0 * q)), center_hz * (half + 1.0 / (2.0 * q))


@lru_cache(maxsize=32)
def _cascade_sos(highpass: tuple[float, int], bandpass: tuple[float, float, int],
                 sample_rate: int) -> np.ndarray:
    """The highpass's sections, then the bandpass's, at one rate: designed once, read-only."""
    from scipy.signal import butter  # ~1 s to load, so only on the first filter design

    (cutoff, hp_order), (center, q, bp_order) = highpass, bandpass
    # scipy's N doubles for bandpass, so N = order/2 yields the requested composite order.
    sos = np.vstack([butter(hp_order, cutoff, btype="highpass", fs=sample_rate, output="sos"),
                     butter(bp_order // 2, _band_edges(center, q), btype="bandpass",
                            fs=sample_rate, output="sos")])
    sos.flags.writeable = False
    return sos


def butterworth_filter(signal: np.ndarray, highpass: tuple[float, int],
                       bandpass: tuple[float, float, int], sample_rate: int) -> np.ndarray:
    """Causal Butterworth highpass then bandpass, run as one cascade of biquad sections.

    highpass is (cutoff_hz, order) and bandpass (center_hz, q, order), Q
    being the center over the bandwidth. The cascade equals filtering by each
    in turn. A cutoff or band edge at or above Nyquist raises ValueError.
    """
    from scipy.signal import sosfilt

    # sosfilt needs a writable array
    return sosfilt(_cascade_sos(highpass, bandpass, sample_rate).copy(),
                   np.asarray(signal, dtype=np.float64))


@lru_cache(maxsize=32)
def _overlap_norm(fft_size: int, hop: int, m: int) -> np.ndarray:
    """_istft's window-square sums over m = min(n_frames, k) frames, (m + k - 1, hop); read-only.

    Output blocks k - 1 to n_frames - 1 each sum all k window blocks, so the
    sums are added up over at most k frames; each is floored at 1e-8.
    """
    k = -(-fft_size // hop)
    window = hann_window(fft_size)
    w2 = np.pad(window * window, (0, k * hop - fft_size)).reshape(k, hop)
    norm = np.zeros((m + k - 1, hop))
    for j in range(k - 1, -1, -1):
        norm[j:j + m] += w2[j]
    np.maximum(norm, 1e-8, out=norm)
    norm.flags.writeable = False
    return norm


def _istft(n_frames: int, blocks: Iterable[tuple[slice, np.ndarray]], fft_size: int, hop: int,
           length: int) -> np.ndarray:
    """Overlap-add inverse of a complex STFT with Hann analysis + synthesis.

    The STFT arrives as (rows, spectrum[rows]) over consecutive blocks of its
    n_frames frames. Frames are zero-padded to k = ceil(fft_size / hop)
    blocks of hop samples; block j of frame i lands on output block i + j.
    Adding the blocks from j = k - 1 down to 0, block of frames by block,
    adds each output sample's frames in ascending order.
    """
    window = hann_window(fft_size)
    k = -(-fft_size // hop)
    pad = k * hop - fft_size
    out = np.zeros((n_frames + k - 1, hop))
    for rows, spectrum in blocks:
        frames = np.fft.irfft(spectrum, n=fft_size, axis=1)
        frames *= window
        if pad:
            frames = np.pad(frames, ((0, 0), (0, pad)))
        frames = frames.reshape(len(frames), k, hop)
        for j in range(k - 1, -1, -1):
            out[rows.start + j:rows.stop + j] += frames[:, j]
    m = min(n_frames, k)
    norm = _overlap_norm(fft_size, hop, m)
    head = min(k - 1, n_frames)
    out[:head] /= norm[:head]
    out[head:n_frames] /= norm[k - 1]
    out[n_frames:] /= norm[m:]
    # past fft_size + hop * (n_frames - 1) the sums are 0, the same as fit_length's zero padding
    return fit_length(out.ravel(), length)


def _analysis(signal: np.ndarray, fft_size: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """(magnitude, unit phasor) of the Hann-windowed STFT frames, (n_frames, n_bins) each.

    The phasor is S / |S|, or exp(i * angle(S)) where |S| == 0, so it is
    exp(i * angle(S)) everywhere. Both are filled one block of frames at a
    time. A signal shorter than fft_size + hop is zero-padded to that
    length, two frames.
    """
    n_frames, blocks = _spectrum_blocks(fit_length(signal, max(len(signal), fft_size + hop)),
                                        fft_size, hop)
    mags = np.empty((n_frames, fft_size // 2 + 1))
    phasors = np.empty_like(mags, dtype=complex)
    for rows, spectrum in blocks:
        mag = np.abs(spectrum, out=mags[rows])
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 is set right below
            phasor = np.divide(spectrum, mag, out=phasors[rows])
        if not mag.all():
            zero = mag == 0
            phasor[zero] = np.exp(1j * np.angle(spectrum[zero]))
    return mags, phasors


def _stretch_frames(mags: np.ndarray, phasors: np.ndarray,
                    rate: float) -> tuple[int, Iterator[tuple[slice, np.ndarray]]]:
    """Phase-vocoder frames read every `rate` analysis frames (Laroche & Dolson 1999).

    Output frame j takes the magnitude interpolated at t_j = j * rate and the
    phase of frame 0 advanced by the phase difference of frames
    (int(t_m), int(t_m) + 1) for every m < j. Wrapping a phase difference by
    2 pi leaves its phasor unchanged, so the accumulated phase is a running
    product of u[i + 1] * conj(u[i]). A whole-number rate reads the analysis
    rows as strided views; any other rate gathers and interpolates them.

    Returns the number of output frames and an iterator of (rows,
    frames[rows]) over the consecutive _block_rows slices of them. A
    block's running product starts from the last phasor of the block before
    it, taken before the magnitude is applied. np.cumprod over a run of
    three or more rows multiplies one row after another, as one product over
    all frames would; over a run of two rows (a block of one frame after the
    first block) it is one vectorised multiply, whose last bit can differ
    from that. So the block size is part of the output bits.
    """
    steps = np.arange(0, len(mags) - 1, rate)
    n_bins = mags.shape[1]
    if float(rate).is_integer():
        step = int(rate)
        frac = None

        def at(rows: slice, offset: int = 0) -> slice:
            """The analysis rows that output frames `rows` read, offset by `offset`."""
            return slice(rows.start * step + offset, rows.stop * step + offset, step)
    else:
        i = steps.astype(np.intp)
        frac = (steps - i)[:, None]

        def at(rows: slice, offset: int = 0) -> np.ndarray:
            return i[rows] + offset

    def blocks() -> Iterator[tuple[slice, np.ndarray]]:
        carry = phasors[0]
        for rows in _block_rows(len(steps), 2 * (n_bins - 1)):  # blocks of fft_size frames
            first = max(rows.start - 1, 0)  # the carried row, or frame 0 itself
            pairs = slice(first, rows.stop - 1)
            run = np.empty((rows.stop - first, n_bins), dtype=complex)
            run[0] = carry
            np.conjugate(phasors[at(pairs)], out=run[1:])
            run[1:] *= phasors[at(pairs, 1)]
            np.cumprod(run, axis=0, out=run)
            carry = run[-1].copy()
            out = run[rows.start - first:]
            mag = mags[at(rows)]
            if frac is not None:  # a gathered copy, so it can be written
                mag *= 1.0 - frac[rows]
                mag += frac[rows] * mags[at(rows, 1)]
            out *= mag
            yield rows, out

    return len(steps), blocks()


def pitch_shift(clip: AudioClip, semitones: float | tuple[float, ...], fft_size: int = 2048,
                hop: int | None = None) -> AudioClip:
    """Shift pitch by a signed number of semitones, preserving duration.

    Phase-vocoder time scaling followed by band-limited resampling; the
    output has exactly the input's length. A tuple of shifts returns the sum
    of the shifted copies, all read from one analysis STFT. An empty clip
    raises DegenerateSignalError, and NaN or infinite samples raise
    NonFiniteSignalError.
    """
    require_finite(clip)
    shifts = semitones if isinstance(semitones, tuple) else (semitones,)
    if any(abs(s) > 24 for s in shifts):
        raise ValueError("semitone shift limited to +/-24")
    n = len(clip.samples)
    if n == 0:
        raise DegenerateSignalError(f"{clip_name(clip)}: cannot pitch-shift an empty clip")
    if hop is None:
        hop = fft_size // 4

    total = np.zeros(n)
    analysis = None
    for s in shifts:
        if s == 0:
            total += clip.samples
            continue
        if analysis is None:
            analysis = _analysis(clip.samples, fft_size, hop)
        ratio = 2.0 ** (s / 12.0)
        rate = 1.0 / ratio
        stretched = _istft(*_stretch_frames(*analysis, rate), fft_size, hop, int(round(n / rate)))
        total += fit_length(resample_by_ratio(stretched, 1.0 / ratio), n)
    return AudioClip(samples=total, sample_rate=clip.sample_rate, source_id=clip.source_id)


def nco_synthesize(freq_track: np.ndarray, amp_track: np.ndarray, sample_rate: int) -> np.ndarray:
    """Sinusoid synthesis by per-sample phase accumulation.

    out[n] = amp[n] * sin(phi[n]) with phi[n+1] = phi[n] + 2*pi*freq[n]/fs and
    phi[0] = 0, so frequency changes never reset the phase. A frequency
    outside (0, Nyquist), a negative or infinite amplitude, and NaN in either
    track raise ValueError.
    """
    freq = np.asarray(freq_track, dtype=np.float64)
    amp = np.asarray(amp_track, dtype=np.float64)
    if freq.shape != amp.shape:
        raise ValueError("frequency and amplitude tracks must have equal length")
    if len(freq) == 0:
        return np.zeros(0)
    # written so that NaN, which fails every comparison, is rejected too
    if not (0 < freq.min() and freq.max() < sample_rate / 2):
        raise ValueError("frequency track must stay inside (0, Nyquist)")
    if not (amp.min() >= 0 and amp.max() < np.inf):
        raise ValueError("amplitude track must be finite and non-negative")
    phase = np.empty_like(freq)
    phase[0] = 0.0
    np.cumsum(freq[:-1] * (2.0 * np.pi / sample_rate), out=phase[1:])
    np.sin(phase, out=phase)
    phase *= amp
    return phase


def frame_rms(signal: np.ndarray, frame_size: int, hop: int) -> np.ndarray:
    """Short-term RMS of every frame_size-sample frame, hop apart, cut as by frame_signal."""
    frames = frame_signal(np.asarray(signal, dtype=np.float64), frame_size, hop)
    rms = np.empty(len(frames))
    for rows in _block_rows(len(frames), frame_size):
        np.square(frames[rows]).sum(axis=1, out=rms[rows])
    rms /= frame_size  # the division np.mean makes
    return np.sqrt(rms, out=rms)


@lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank, (n_mels, fft_size // 2 + 1), built once and read-only.

    The bands span 0 Hz to Nyquist.
    """

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    mel_points = np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), n_mels + 2)
    hz_points = from_mel(mel_points)
    bins = np.fft.rfftfreq(fft_size, 1.0 / sample_rate)
    bank = np.zeros((n_mels, len(bins)))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bins - left) / max(center - left, 1e-9)
        down = (right - bins) / max(right - center, 1e-9)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    bank.flags.writeable = False
    return bank
