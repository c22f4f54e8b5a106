"""Human-rating ingestion and aggregation, target blending, reconstruction metrics.

Ratings arrive as one row per (clip, algorithm, rater); a clip's rating for an
algorithm is the mean over its raters. Aggregation reports per-algorithm means
and SDs at the category, class, or clip level, plus winners and clip-level
winner tallies (ties are reported, never broken).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio_io import CONVERTER_TAGS, VIBRATION_RATE, VibrationSignal
from .curation import DatasetManifest, open_csv, read_columns
from .dsp import mel_filterbank, stft
from .errors import SchemaError

RATING_ALGORITHMS = CONVERTER_TAGS
RATINGS_HEADER = ["clip_id", "algorithm", "rater_id", "rating"]

_LOG_EPS = 1e-7
STFT_LOSS_FFT_SIZES = (1024, 512, 256)
_METRIC_N_MELS = 64
_METRIC_MEL_FFT_SIZE = 1024  # one of STFT_LOSS_FFT_SIZES, so its magnitudes are shared


_ALGORITHM_CODE = {a: i for i, a in enumerate(RATING_ALGORITHMS)}


@dataclass(eq=False)
class RatingsTable:
    """Ratings as columns, one entry per (clip, algorithm, rater) row."""

    clip_id: Sequence[str]
    algorithm: np.ndarray  # index into RATING_ALGORITHMS
    rater_id: Sequence[str]
    rating: np.ndarray

    def __len__(self) -> int:
        return len(self.rating)

    def clip_ids(self) -> list[str]:
        return sorted(set(self.clip_id))

    def mean_matrix(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Sorted clip ids, the (clip, algorithm) mean rating over raters, and rater counts.

        A cell without ratings is NaN with count 0. Sums run in row order, as
        np.mean's do for fewer than 8 values; cells with 8 or more are summed
        by np.sum, which is pairwise there, so every mean equals np.mean's.
        """
        clip_ids = self.clip_ids()
        row_of = {cid: i for i, cid in enumerate(clip_ids)}
        n_algos = len(RATING_ALGORITHMS)
        cell = np.fromiter(map(row_of.__getitem__, self.clip_id), np.intp, len(self))
        cell = cell * n_algos + self.algorithm
        size = len(clip_ids) * n_algos
        counts = np.bincount(cell, minlength=size)
        sums = np.bincount(cell, weights=self.rating, minlength=size)
        big = np.flatnonzero(counts >= 8)
        if big.size:
            by_cell = self.rating[np.argsort(cell, kind="stable")]
            stops = np.cumsum(counts)
            for c in big:
                sums[c] = by_cell[stops[c] - counts[c]:stops[c]].sum()
        means = np.divide(sums, counts, out=np.full(size, np.nan), where=counts > 0)
        return clip_ids, means.reshape(-1, n_algos), counts.reshape(-1, n_algos)


def load_ratings(path: str | Path, column_map: Mapping[str, str] | None = None) -> RatingsTable:
    """Read a ratings CSV; column_map maps canonical names to actual headers.

    The canonical schema is clip_id,algorithm,rater_id,rating. An external
    export with different column names can be ingested by supplying e.g.
    {"clip_id": "sound", "rating": "score"}. Ragged rows, repeated
    (clip_id, algorithm, rater_id) rows, and a column_map that is not a
    mapping of canonical names to strings are rejected.
    """
    path = Path(path)
    resolve = dict(zip(RATINGS_HEADER, RATINGS_HEADER))
    if column_map is not None:
        if not isinstance(column_map, Mapping):
            raise SchemaError(f"column map must be an object, got {column_map!r}")
        for key, actual in column_map.items():
            if key not in resolve or not isinstance(actual, str):
                raise SchemaError(f"column map entry {key!r}: {actual!r} must map one of "
                                  f"{', '.join(RATINGS_HEADER)} to a column name")
        resolve.update(column_map)
    with open_csv(path) as reader:
        header = next(reader, None) or []
        position = {name: i for i, name in enumerate(header)}
        missing = [resolve[c] for c in RATINGS_HEADER if resolve[c] not in position]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        columns = read_columns(path, reader, len(header))
    clip_id, algorithm, rater_id, text = (columns[position[resolve[c]]] for c in RATINGS_HEADER)
    n = len(text)
    if not n:
        raise SchemaError(f"{path}: no rating rows")

    codes = np.fromiter(map(_ALGORITHM_CODE.get, algorithm, repeat(-1, n)), np.intp, n)
    try:
        rating = np.fromiter(map(float, text), np.float64, n)
    except ValueError:
        rating = None
    if rating is None or (codes < 0).any() or not ((rating >= 0.0) & (rating <= 100.0)).all():
        _raise_first_bad_row(path, algorithm, text)
    # Fewer distinct hashes of (clip, algorithm, rater) than rows means a repeat
    # or a hash collision; the row walk tells them apart. Unlike a set of the
    # tuples, this keeps no per-row object alive for the collector to promote.
    if len(set(map(hash, zip(clip_id, algorithm, rater_id)))) < n:
        _raise_first_duplicate(path, zip(clip_id, algorithm, rater_id))
    return RatingsTable(clip_id, codes, rater_id, rating)


def _raise_first_bad_row(path: Path, algorithms: Sequence[str], texts: Sequence[str]) -> None:
    for row_no, (algorithm, text) in enumerate(zip(algorithms, texts), start=2):
        if algorithm not in _ALGORITHM_CODE:
            raise SchemaError(f"{path}:{row_no}: unknown algorithm {algorithm!r}")
        try:
            rating = float(text)
        except ValueError as exc:
            raise SchemaError(f"{path}:{row_no}: {exc}") from exc
        if not 0.0 <= rating <= 100.0:
            raise SchemaError(f"{path}:{row_no}: rating {rating} outside [0, 100]")


def _raise_first_duplicate(path: Path, keys) -> None:
    first_row: dict[tuple[str, str, str], int] = {}
    for row_no, key in enumerate(keys, start=2):
        if key in first_row:
            clip_id, algorithm, rater_id = key
            raise SchemaError(
                f"{path}:{row_no}: duplicate rating of clip {clip_id!r} for {algorithm!r} "
                f"by rater {rater_id!r} (first at row {first_row[key]})")
        first_row[key] = row_no


@dataclass
class GroupStats:
    mean: dict[str, float]   # algorithm -> mean rating
    sd: dict[str, float]     # algorithm -> SD over clips (0 when n < 2)
    winners: tuple[str, ...]  # all algorithms sharing the top mean
    n_clips: int


@dataclass
class AggregateReport:
    level: str  # "category" | "class" | "clip"
    groups: dict[str | int, GroupStats]
    overall: GroupStats
    winner_counts: dict[str, int]  # clip-level winner tallies (ties count both)
    tie_count: int

    def to_json(self) -> str:
        """The report as json.dumps(payload, indent=2, sort_keys=True) writes it, byte for byte.

        json's C encoder does not run with indent set, so this fixed shape is
        written directly: keys sorted as strings and escaped by json's own
        escaper, numbers spelled as json spells them.
        """
        groups = {str(k): g for k, g in self.groups.items()}
        members = _GroupWriter(_JSON_PAD * 2)
        body = _json_block([f"{_json_template_str(k)}: {members.template(groups[k])}"
                            for k in sorted(groups)], _JSON_PAD)
        overall = _GroupWriter(_JSON_PAD)
        overall_text = overall.fill(overall.template(self.overall))
        counts = self.winner_counts
        keys = sorted(counts)
        winner_counts = [f"{_json_str(a)}: {text}"
                         for a, text in zip(keys, _json_numbers([counts[a] for a in keys]))]
        return _json_block([
            f'"groups": {members.fill(body)}',
            f'"level": {_json_str(self.level)}',
            f'"overall": {overall_text}',
            f'"tie_count": {int.__repr__(self.tie_count)}',
            f'"winner_counts": {_json_block(winner_counts, _JSON_PAD)}',
        ], "")

    def format_table(self) -> str:
        header = f"{'group':>12} " + " ".join(f"{a:>12}" for a in RATING_ALGORITHMS) + "   winner"
        groups = self.groups
        lines = [header]
        lines += [_table_row(str(key), groups[key]) for key in sorted(groups, key=str)]
        lines.append(_table_row("overall", self.overall))
        counts = ", ".join(f"{a}={self.winner_counts[a]}" for a in RATING_ALGORITHMS)
        lines.append(f"clip-level winners: {counts}, ties={self.tie_count}")
        return "\n".join(lines)


# A table row is the group, mean(SD) per algorithm and the winners, written by one
# %-format; its arguments interleave the means and SDs in RATING_ALGORITHMS order.
_TABLE_ROW = "%12s " + " ".join(["%7.2f(%4.1f)"] * len(RATING_ALGORITHMS)) + "   %s"
_by_algorithm = itemgetter(*RATING_ALGORITHMS)
_mean_sd_pairs = itemgetter(*[i + k * len(RATING_ALGORITHMS)
                              for i in range(len(RATING_ALGORITHMS)) for k in (0, 1)])


def _table_row(key: str, g: GroupStats) -> str:
    means_then_sds = _by_algorithm(g.mean) + _by_algorithm(g.sd)
    return _TABLE_ROW % (key, *_mean_sd_pairs(means_then_sds), "/".join(g.winners))


_JSON_PAD = "  "
_json_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values: list) -> list[str]:
    """Numbers as json writes them: float.__repr__ or int.__repr__, non-finite as NaN/Infinity."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # an int among them
        texts = [int.__repr__(v) if isinstance(v, int) else float.__repr__(v) for v in values]
    return list(map(_NON_FINITE.get, texts, texts))


def _json_block(members: list[str], pad: str, brackets: str = "{}") -> str:
    """An indent-2 JSON object or list of already written members, nested at pad."""
    if not members:
        return brackets
    inner = "\n" + pad + _JSON_PAD
    return brackets[0] + inner + ("," + inner).join(members) + "\n" + pad + brackets[1]


def _json_template_str(text: str) -> str:
    """A JSON string literal, escaped for use in a %-template."""
    return _json_str(text).replace("%", "%%")


class _GroupWriter:
    """Writes GroupStats as json.dumps(indent=2, sort_keys=True) nests them at pad.

    template() returns a group's text with a %s for each mean/sd value and
    queues the values; fill() spells all queued numbers in one pass and puts
    them in with one %. The text around the numbers depends only on the
    mean/sd keys and the winners, which repeat from group to group, so it is
    made once per report for each such shape.
    """

    def __init__(self, pad: str) -> None:
        self.pad = pad
        self._values: list = []
        self._forms: dict = {}

    def template(self, g: GroupStats) -> str:
        mean, sd = g.mean, g.sd
        shape = (tuple(mean), tuple(sd), tuple(g.winners))
        form = self._forms.get(shape)
        if form is None:
            form = self._forms[shape] = self._form(sorted(mean), sorted(sd), shape[2])
        mean_keys, sd_keys, head, tail = form
        self._values += map(mean.__getitem__, mean_keys)
        self._values += map(sd.__getitem__, sd_keys)
        return head + int.__repr__(g.n_clips) + tail

    def fill(self, template: str) -> str:
        return template % tuple(_json_numbers(self._values))

    def _form(self, mean_keys: list[str], sd_keys: list[str], winners: tuple[str, ...]):
        pad = self.pad
        inner = "\n" + pad + _JSON_PAD

        def numbers(keys):
            return _json_block([f"{_json_template_str(k)}: %s" for k in keys], pad + _JSON_PAD)

        head = "{" + inner + f'"mean": {numbers(mean_keys)},' + inner + '"n_clips": '
        winners_list = _json_block(list(map(_json_template_str, winners)), pad + _JSON_PAD, "[]")
        tail = ("," + inner + f'"sd": {numbers(sd_keys)},' + inner
                + f'"winners": {winners_list}' + "\n" + pad + "}")
        return mean_keys, sd_keys, head, tail


def _stats_for(clip_matrix: np.ndarray) -> GroupStats:
    """clip_matrix: (n_clips, n_algorithms) of clip-level ratings."""
    means = clip_matrix.mean(axis=0)
    if clip_matrix.shape[0] > 1:
        sds = clip_matrix.std(axis=0, ddof=1)
    else:
        sds = np.zeros(clip_matrix.shape[1])
    top = means.max()
    winners = tuple(a for a, m in zip(RATING_ALGORITHMS, means) if m == top)
    return GroupStats(
        mean=dict(zip(RATING_ALGORITHMS, means.tolist())),
        sd=dict(zip(RATING_ALGORITHMS, sds.tolist())),
        winners=winners,
        n_clips=clip_matrix.shape[0],
    )


def aggregate(table: RatingsTable, manifest: DatasetManifest, level: str) -> AggregateReport:
    """Aggregate clip ratings at the category, class, or clip level."""
    if level not in ("category", "class", "clip"):
        raise ValueError(f"unknown aggregation level: {level!r}")
    by_id = manifest.by_id()
    clip_ids, matrix, counts = table.mean_matrix()
    for cid in clip_ids:
        if cid not in by_id:
            raise SchemaError(f"clip_id {cid!r} from ratings is not in the manifest")
    unrated = np.argwhere(counts == 0)
    if len(unrated):
        i, j = unrated[0]
        raise SchemaError(f"clip {clip_ids[i]!r} has no rating for {RATING_ALGORITHMS[j]!r}")

    is_winner = matrix == matrix.max(axis=1, keepdims=True)
    winner_counts = dict(zip(RATING_ALGORITHMS, is_winner.sum(axis=0).tolist()))
    tie_count = int(np.count_nonzero(is_winner.sum(axis=1) > 1))

    if level == "clip":
        # one clip per group: its mean is its row and its SD is 0
        groups = {
            cid: GroupStats(mean=dict(zip(RATING_ALGORITHMS, row)),
                            sd=dict.fromkeys(RATING_ALGORITHMS, 0.0),
                            winners=tuple(compress(RATING_ALGORITHMS, wins)), n_clips=1)
            for cid, row, wins in zip(clip_ids, matrix.tolist(), is_winner.tolist())
        }
    else:
        field = "category_id" if level == "category" else "class_id"
        group_rows: dict[int, list[int]] = {}
        for i, cid in enumerate(clip_ids):
            group_rows.setdefault(getattr(by_id[cid], field), []).append(i)
        groups = {key: _stats_for(matrix[group_rows[key]])
                  for key in sorted(group_rows, key=str)}

    return AggregateReport(
        level=level,
        groups=groups,
        overall=_stats_for(matrix),
        winner_counts=winner_counts,
        tie_count=tie_count,
    )


# ---------------------------------------------------------------------------
# preference-weighted blending
# ---------------------------------------------------------------------------

def blend_targets(refs: Sequence[VibrationSignal], ratings: Sequence[float]) -> VibrationSignal:
    """Rating-weighted average of reference vibrations.

    Weights are the ratings normalized to sum to one, so the output is a
    sample-wise convex combination of the references.
    """
    if len(refs) != 4 or len(ratings) != 4:
        raise ValueError("expected exactly four references and four ratings")
    lengths = {len(r.samples) for r in refs}
    if len(lengths) != 1:
        raise ValueError("reference vibrations must have equal length")
    weights = np.asarray(ratings, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("ratings must be non-negative")
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not np.isfinite(total):  # a NaN or infinite rating, or finite ones that overflow
        raise ValueError(f"ratings {weights.tolist()} must have a finite sum")
    if total <= 0:
        raise ValueError("ratings must not all be zero")
    weights = weights / total
    out = np.zeros(lengths.pop())
    for w, ref in zip(weights, refs):
        out += w * ref.samples
    return VibrationSignal(samples=out, algorithm_tag="blended")


# ---------------------------------------------------------------------------
# reconstruction metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    mse: float
    stft_loss: float
    mel_l1: float
    amp_loss: float
    rmse: float


def _as_samples(signal) -> np.ndarray:
    if isinstance(signal, VibrationSignal):
        return signal.samples
    return np.asarray(signal, dtype=np.float64)


def _stft_resolution_loss(mag_p: np.ndarray, mag_t: np.ndarray) -> float:
    norm_t = np.linalg.norm(mag_t)
    convergence = np.linalg.norm(mag_t - mag_p) / max(norm_t, _LOG_EPS)
    log_l1 = float(np.mean(np.abs(np.log(mag_t + _LOG_EPS) - np.log(mag_p + _LOG_EPS))))
    return float(convergence) + log_l1


def reconstruction_metrics(pred, target, sample_rate: int = VIBRATION_RATE) -> MetricReport:
    """Distance components between a predicted and a target waveform.

    mse/rmse are plain time-domain errors; stft_loss averages spectral
    convergence plus log-magnitude L1 over FFT sizes 1024/512/256; mel_l1 is
    the mean absolute log-mel difference (64 bands to Nyquist) on the
    1024-point magnitudes; amp_loss is the absolute RMS difference.
    sample_rate is the rate of both signals; a VibrationSignal's is
    VIBRATION_RATE, the default.
    """
    p = _as_samples(pred)
    t = _as_samples(target)
    if len(p) != len(t):
        raise ValueError(f"length mismatch: {len(p)} vs {len(t)}")
    if len(p) == 0:
        raise ValueError("empty signals")

    diff = p - t
    mse = float(np.mean(diff * diff))
    rmse = float(np.sqrt(mse))
    amp_loss = float(abs(np.sqrt(np.mean(p * p)) - np.sqrt(np.mean(t * t))))

    mags = {n: (stft(p, n, n // 4), stft(t, n, n // 4)) for n in STFT_LOSS_FFT_SIZES}
    stft_loss = float(np.mean([_stft_resolution_loss(*mags[n]) for n in STFT_LOSS_FFT_SIZES]))

    mag_p, mag_t = mags[_METRIC_MEL_FFT_SIZE]
    bank = mel_filterbank(_METRIC_N_MELS, _METRIC_MEL_FFT_SIZE, sample_rate)
    mel_p = np.log(mag_p ** 2 @ bank.T + _LOG_EPS)
    mel_t = np.log(mag_t ** 2 @ bank.T + _LOG_EPS)
    mel_l1 = float(np.mean(np.abs(mel_p - mel_t)))

    return MetricReport(mse=mse, stft_loss=stft_loss, mel_l1=mel_l1,
                        amp_loss=amp_loss, rmse=rmse)
