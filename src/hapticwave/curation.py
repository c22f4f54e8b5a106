"""Acoustic feature vectors, seeded k-means sampling, augmentation, manifests.

Supports picking an acoustically diverse subset of a labeled clip collection:
31-dimensional per-clip descriptors, per-class k-means clustering, and
proportional stratified sampling from the clusters.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .audio_io import AudioClip, clip_name, require_finite
from .dsp import mel_filterbank, pitch_shift, stft
from .errors import SchemaError, _not_utf8_error

TEMPO_MIN_BPM = 30.0
TEMPO_MAX_BPM = 300.0

# extract_features' analysis frames
_FFT_SIZE = 2048
_HOP = 512
_BLOCKS_PER_FRAME = _FFT_SIZE // _HOP
# extract_features' log-mel energies per frame; its MFCCs are coefficients 1..13 of
# their orthonormal DCT-II, _MFCC_DCT
_N_MELS = 26
_MFCC_DCT = np.cos(np.pi * (np.arange(_N_MELS) + 0.5) * np.arange(_N_MELS)[:, None] / _N_MELS)
_MFCC_DCT *= np.sqrt(2.0 / _N_MELS)
_MFCC_DCT[0] /= np.sqrt(2.0)
_MFCC_DCT.flags.writeable = False

_KMEANS_MAX_ITER = 300


@dataclass
class FeatureVector:
    """Temporally averaged acoustic descriptor of one clip (31 dimensions)."""

    centroid: float
    rolloff: float
    bandwidth: float
    rms_energy: float
    zcr: float
    tempo: float
    mfcc: np.ndarray    # 13 coefficients
    chroma: np.ndarray  # 12 pitch classes, L2-normalized

    def as_array(self) -> np.ndarray:
        return np.concatenate([
            [self.centroid, self.rolloff, self.bandwidth,
             self.rms_energy, self.zcr, self.tempo],
            self.mfcc, self.chroma,
        ])

    def to_dict(self) -> dict:
        return {
            "centroid": self.centroid, "rolloff": self.rolloff,
            "bandwidth": self.bandwidth, "rms_energy": self.rms_energy,
            "zcr": self.zcr, "tempo": self.tempo,
            "mfcc": [float(v) for v in self.mfcc],
            "chroma": [float(v) for v in self.chroma],
        }


def _tempo_bpm(onset_env: np.ndarray, frame_rate: float) -> float:
    """Tempo from the autocorrelation of the onset envelope, clamped to range."""
    if len(onset_env) < 4:
        return 120.0
    env = onset_env - onset_env.mean()
    if not np.any(env):
        return 120.0
    ac = np.correlate(env, env, mode="full")[len(env) - 1:]
    lag_min = max(1, int(np.ceil(frame_rate * 60.0 / TEMPO_MAX_BPM)))
    lag_max = min(len(ac) - 1, int(np.floor(frame_rate * 60.0 / TEMPO_MIN_BPM)))
    if lag_max <= lag_min:
        return 120.0
    window = ac[lag_min:lag_max + 1]
    if window.max() <= 0:
        return 120.0
    lag = lag_min + int(np.argmax(window))
    return float(np.clip(frame_rate * 60.0 / lag, TEMPO_MIN_BPM, TEMPO_MAX_BPM))


def _pitch_class_map(freqs: np.ndarray) -> np.ndarray:
    """Map bin frequencies to pitch classes 0..11 (C = 0); DC and near-DC -> -1."""
    classes = np.full(len(freqs), -1, dtype=int)
    valid = freqs > 26.0  # below ~A0 the class assignment is meaningless
    semis = 12.0 * np.log2(freqs[valid] / 440.0)
    classes[valid] = (np.round(semis).astype(int) + 9) % 12
    return classes


@lru_cache(maxsize=16)
def _feature_tables(sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (bin frequencies, (n_bins, 12) 0/1 pitch-class matrix) at one rate."""
    freqs = np.fft.rfftfreq(_FFT_SIZE, 1.0 / sample_rate)
    pitch_classes = (_pitch_class_map(freqs)[:, None] == np.arange(12)).astype(np.float64)
    for array in (freqs, pitch_classes):
        array.flags.writeable = False
    return freqs, pitch_classes


def _frame_totals(blocks: np.ndarray, n_frames: int) -> np.ndarray:
    """Per-frame sums of per-hop-block values: frame f spans blocks f .. f + 3."""
    totals = blocks[:n_frames].copy()
    for k in range(1, _BLOCKS_PER_FRAME):
        totals += blocks[k:k + n_frames]
    return totals


def extract_features(clip: AudioClip) -> FeatureVector:
    """Compute the 31-dimensional descriptor of one clip, averaged over 2048/512 Hann frames.

    RMS energy and sign changes are summed once per 512-sample hop block, and
    each frame adds up its four blocks, so every sample is read once.
    """
    require_finite(clip)
    if clip.duration < 1.0:
        raise ValueError(f"{clip_name(clip)}: feature extraction needs at least 1 s of audio")
    samples = np.asarray(clip.samples, dtype=np.float64)
    n = len(samples)
    if n < _FFT_SIZE:
        raise ValueError(f"{clip_name(clip)}: feature extraction needs at least one "
                         f"{_FFT_SIZE}-sample frame, got {n} samples")
    spectra = stft(samples, _FFT_SIZE, _HOP)
    n_frames = len(spectra)
    freqs, pitch_classes = _feature_tables(clip.sample_rate)
    mag_sum = np.maximum(spectra.sum(axis=1), 1e-12)
    scratch = np.empty_like(spectra)  # shared by bandwidth, flux and the mel power

    centroid_t = (spectra @ freqs) / mag_sum
    cumulative = np.cumsum(spectra, axis=1)
    rolloff_idx = np.argmax(cumulative >= 0.85 * mag_sum[:, None], axis=1)
    rolloff_t = freqs[rolloff_idx]
    spread = np.subtract(freqs, centroid_t[:, None], out=scratch)
    np.square(spread, out=spread)
    spread *= spectra
    bandwidth_t = np.sqrt(spread.sum(axis=1) / mag_sum)

    # the hop blocks cover samples [0, (n_frames + 3) * 512), exactly what the frames span
    blocks = samples[:(n_frames + _BLOCKS_PER_FRAME - 1) * _HOP].reshape(-1, _HOP)
    rms_t = np.sqrt(_frame_totals(np.einsum("ij,ij->i", blocks, blocks), n_frames) / _FFT_SIZE)
    # changes[i] = 1 where samples i and i + 1 differ in sign. A frame's 2047 sample pairs are
    # the 2048 entries of its four blocks less the last, which pairs its last sample with the next
    sign = np.signbit(blocks.ravel())
    changes = np.zeros(len(sign), dtype=np.int8)
    np.not_equal(sign[1:], sign[:-1], out=changes[:-1])
    counts = _frame_totals(changes.reshape(blocks.shape).sum(axis=1), n_frames)
    counts -= changes[_FFT_SIZE - 1::_HOP]
    zcr_t = counts / (_FFT_SIZE - 1)

    rise = np.subtract(spectra[1:], spectra[:-1], out=scratch[:n_frames - 1])
    flux = np.maximum(rise, 0.0, out=rise).sum(axis=1)
    tempo = _tempo_bpm(flux, clip.sample_rate / _HOP)

    bank = mel_filterbank(_N_MELS, _FFT_SIZE, clip.sample_rate)
    mel_energy = np.log(np.square(spectra, out=scratch) @ bank.T + 1e-10)
    mfcc_t = mel_energy @ _MFCC_DCT.T
    mfcc = mfcc_t[:, 1:14].mean(axis=0)

    chroma = (spectra @ pitch_classes).mean(axis=0)
    norm = np.linalg.norm(chroma)
    if norm > 0:
        chroma = chroma / norm

    return FeatureVector(
        centroid=float(centroid_t.mean()),
        rolloff=float(rolloff_t.mean()),
        bandwidth=float(bandwidth_t.mean()),
        rms_energy=float(rms_t.mean()),
        zcr=float(zcr_t.mean()),
        tempo=tempo,
        mfcc=mfcc,
        chroma=chroma,
    )


# ---------------------------------------------------------------------------
# k-means clustering and stratified sampling
# ---------------------------------------------------------------------------

@dataclass
class KMeansResult:
    labels: np.ndarray
    inertia_history: list[float]


def _standardize(points: np.ndarray) -> np.ndarray:
    std = points.std(axis=0)
    std[std == 0] = 1.0
    return (points - points.mean(axis=0)) / std


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    dist2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
            continue
        probs = dist2 / total
        centers[i] = points[rng.choice(n, p=probs)]
        dist2 = np.minimum(dist2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def kmeans(vectors: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Seeded Lloyd's algorithm with k-means++ initialization over a matrix of rows.

    vectors is an (n, d) matrix, or a list of n rows, one feature vector per
    point; labels[i] is row i's cluster. Features are z-score standardized per
    dimension before clustering. The recorded inertia history, in the
    standardized space, is non-increasing.
    """
    points = np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("expected a 2-D matrix of feature vectors")
    n = len(points)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")

    std_points = _standardize(points)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(std_points, k, rng)

    labels = np.zeros(n, dtype=int)
    history: list[float] = []
    for _ in range(_KMEANS_MAX_ITER):
        d2 = np.sum((std_points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        for c in range(k):
            members = std_points[new_labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        if np.array_equal(new_labels, labels) and len(history) > 1:
            labels = new_labels
            break
        labels = new_labels

    return KMeansResult(labels=labels, inertia_history=history)


def stratified_sample(assignment: Mapping[str, int], per_class_target: int,
                      seed: int) -> list[str]:
    """Pick clips proportionally to cluster sizes (largest-remainder rounding).

    No cluster is allocated more clips than it holds. Returns exactly
    per_class_target unique clip ids, sorted.
    """
    ids = sorted(assignment)
    n = len(ids)
    if per_class_target < 1:
        raise ValueError(f"per-class target must be at least 1, got {per_class_target}")
    if per_class_target > n:
        raise ValueError(f"target {per_class_target} exceeds population {n}")
    clusters: dict[int, list[str]] = {}
    for cid in ids:
        clusters.setdefault(assignment[cid], []).append(cid)

    cluster_keys = sorted(clusters)
    sizes = np.array([len(clusters[c]) for c in cluster_keys], dtype=float)
    quotas = per_class_target * sizes / sizes.sum()
    alloc = np.floor(quotas).astype(int)
    shortfall = per_class_target - alloc.sum()
    # distribute the remainder by largest fractional part, ties to lower index
    order = np.lexsort((np.arange(len(quotas)), -(quotas - np.floor(quotas))))
    for i in order[:shortfall]:
        alloc[i] += 1

    rng = np.random.default_rng(seed)
    selected: list[str] = []
    for key, count in zip(cluster_keys, alloc):
        members = clusters[key]
        picked = rng.choice(len(members), size=count, replace=False)
        selected.extend(members[i] for i in sorted(picked))
    return sorted(selected)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

@dataclass
class AugmentPlan:
    """The randomized choices behind one augmentation, fixed by the seed."""

    shift_applied: bool
    semitones: float
    noise_applied: bool
    noise_level: float  # noise sigma as a fraction of the clip peak


def _draw_plan(rng: np.random.Generator) -> AugmentPlan:
    # all four values are always drawn so the stream position is fixed
    shift_applied = rng.random() < 0.5
    semitones = float(rng.uniform(-2.0, 2.0))
    noise_applied = rng.random() < 0.5
    noise_level = float((1.0 - rng.random()) * 0.005)  # uniform in (0, 0.005]
    return AugmentPlan(shift_applied, semitones, noise_applied, noise_level)


def augment_plan(seed: int) -> AugmentPlan:
    """Draw the augmentation plan for a seed (same stream as augment)."""
    return _draw_plan(np.random.default_rng(seed))


def augment(clip: AudioClip, seed: int) -> AudioClip:
    """Randomly pitch-shift within +/-2 semitones and/or add Gaussian noise.

    Each transform fires independently with probability 0.5; noise sigma is
    uniform in (0, 0.5%] of the clip peak. Deterministic for a given seed.
    """
    require_finite(clip)
    if len(clip.samples) == 0:
        raise ValueError(f"{clip_name(clip)}: cannot augment an empty clip")
    rng = np.random.default_rng(seed)
    plan = _draw_plan(rng)

    out = clip
    if plan.shift_applied:
        out = pitch_shift(out, plan.semitones)
    if plan.noise_applied:
        peak = float(np.max(np.abs(clip.samples)))
        noise = rng.normal(0.0, plan.noise_level * peak, size=len(out.samples))
        out = AudioClip(np.clip(out.samples + noise, -1.0, 1.0),
                        out.sample_rate, out.source_id)
    if out is clip:
        out = AudioClip(clip.samples.copy(), clip.sample_rate, clip.source_id)
    return out


# ---------------------------------------------------------------------------
# dataset manifest
# ---------------------------------------------------------------------------

MANIFEST_HEADER = ["clip_id", "path", "class_id", "class_name", "category_id"]


@dataclass
class ManifestEntry:
    clip_id: str
    path: str
    class_id: int
    class_name: str
    category_id: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def by_id(self) -> dict[str, ManifestEntry]:
        return {e.clip_id: e for e in self.entries}

    def class_ids(self) -> list[int]:
        return sorted({e.class_id for e in self.entries})


def read_csv(path: Path, check_header: Callable[[list[str] | None], None]
             ) -> tuple[list[str], list[list[str]]]:
    """path's header and its data rows as columns, read as UTF-8 after a byte-order mark.

    check_header(header) runs on the first row (None for an empty file)
    before any data row is read, and the columns are as many as the header's
    fields. Blank lines are skipped; data row i (from 0) is reported as row
    i + 2, as csv.DictReader numbered it, and a ragged row raises SchemaError.
    A plain file (see _plain_lines) is split at "\n" and ","; any other goes
    through csv.reader, which reads a plain file to the same rows.
    """
    lines = _plain_lines(path)
    if lines is None:
        return _read_csv_stream(path, check_header)
    header = None if lines == [""] else lines[0].split(",") if lines[0] else []
    check_header(header)
    width = len(header)
    rows = list(filter(None, islice(lines, 1, None)))
    if set(map(str.count, rows, repeat(","))) - {width - 1}:
        _raise_ragged(path, (row.count(",") + 1 for row in rows), width, 2)
    fields = ",".join(rows).split(",") if rows else []
    return header, [fields[i::width] for i in range(width)]


def _plain_lines(path: Path) -> list[str] | None:
    """path's lines if csv.reader would split each one at every ",", else None.

    That holds when the file decodes as UTF-8 and, with each "\r\n" read as
    "\n", holds no quote, CR or NUL and no line longer than
    csv.field_size_limit(). A file that does not decode is left to
    csv.reader, so that a fault in the lines before the bad byte is
    reported first, as it is when the file is streamed.
    """
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")  # not splitlines(), which breaks at \x0b, \x85 and more
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    return lines


def _read_csv_stream(path: Path, check_header: Callable[[list[str] | None], None]
                     ) -> tuple[list[str], list[list[str]]]:
    """read_csv through csv.reader, streaming the file.

    A csv.Error (a field over csv.field_size_limit() characters, among other
    malformed input) or a byte that is not UTF-8 is a SchemaError naming the
    file. Rows move to the columns in chunks, so few row lists are alive at
    once: keeping one list per row until the end promotes them all to the
    oldest GC generation, and full collections of a large heap then dominate
    the parse.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            check_header(header)
            width = len(header)
            fields: list[str] = []
            rows = filter(None, reader)
            row_no = 2
            while chunk := list(islice(rows, 512)):
                if set(map(len, chunk)) != {width}:
                    _raise_ragged(path, map(len, chunk), width, row_no)
                fields.extend(chain.from_iterable(chunk))
                row_no += len(chunk)
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8_error(path, exc) from exc
    return header, [fields[i::width] for i in range(width)]


def _raise_ragged(path: Path, widths: Iterable[int], width: int, first_row: int) -> NoReturn:
    """Raise SchemaError at the first of widths (rows numbered from first_row) that is not width."""
    row_no, got = next((i, n) for i, n in enumerate(widths, first_row) if n != width)
    raise SchemaError(f"{path}:{row_no}: expected {width} fields, got {got}")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read and validate a manifest CSV."""
    path = Path(path)

    def check_header(header: list[str] | None) -> None:
        if header != MANIFEST_HEADER:
            raise SchemaError(
                f"{path}: expected header {','.join(MANIFEST_HEADER)}, got {header}")

    _, columns = read_csv(path, check_header)
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for row_no, (clip_id, clip_path, class_text, class_name, category_text) in enumerate(
            zip(*columns), start=2):
        if clip_id in seen:
            raise SchemaError(f"{path}:{row_no}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        try:
            class_id = int(class_text)
            category_id = int(category_text)
        except ValueError as exc:
            raise SchemaError(f"{path}:{row_no}: {exc}") from exc
        if not 0 <= class_id <= 49:
            raise SchemaError(f"{path}:{row_no}: class_id {class_id} outside 0-49")
        if not 1 <= category_id <= 5:
            raise SchemaError(f"{path}:{row_no}: category_id {category_id} outside 1-5")
        entries.append(ManifestEntry(clip_id, clip_path, class_id, class_name, category_id))
    if not entries:
        raise SchemaError(f"{path}: empty manifest")
    return DatasetManifest(entries)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest CSV (round-trips losslessly through load_manifest)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.clip_id, e.path, e.class_id, e.class_name, e.category_id])
