"""Human-rating ingestion and aggregation, target blending, reconstruction metrics.

Ratings arrive as one row per (clip, algorithm, rater); a clip's rating for an
algorithm is the mean over its raters. Aggregation reports per-algorithm means
and SDs at the category, class, or clip level, plus winners and clip-level
winner tallies (ties are reported, never broken). The report's JSON is
json.dumps(payload, indent=2, sort_keys=True) byte for byte: json lays out
each group shape once, and json's C encoder spells all numbers at once.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .audio_io import CONVERTER_TAGS, VIBRATION_RATE, VibrationSignal
from .curation import DatasetManifest, read_csv
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
    (clip_id, algorithm, rater_id) rows, a column_map that is not a
    mapping of canonical names to strings or that maps two of them to one
    column, and a header that names a column read here more than once are
    rejected.
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
    names = [resolve[c] for c in RATINGS_HEADER]
    for name in names:
        if names.count(name) > 1:
            shared = [c for c in RATINGS_HEADER if resolve[c] == name]
            raise SchemaError(f"column map reads column {name!r} of {path} as each of {shared}")

    def check_header(header: list[str] | None) -> None:
        header = header or []
        missing = [name for name in names if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        for name in names:
            if header.count(name) > 1:
                raise SchemaError(f"{path}: column {name!r} appears "
                                  f"{header.count(name)} times in the header")

    header, columns = read_csv(path, check_header)
    clip_id, algorithm, rater_id, text = (columns[header.index(name)] for name in names)
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


class _GroupArrays(Mapping):
    """aggregate's groups, read-only: key -> GroupStats, over one array row per group.

    Keys iterate in str order. The first read of a group builds every group's
    GroupStats, which are kept; the report's writers read the arrays, not
    them, so a report's output is fixed when aggregate returns.
    """

    def __init__(self, keys: list, means: np.ndarray, sds: np.ndarray,
                 is_winner: np.ndarray, n_clips: np.ndarray) -> None:
        self._keys = keys
        self._arrays = (means, sds, is_winner, n_clips)
        self._stats: dict | None = None

    def _built(self) -> dict:
        if self._stats is None:
            self._stats = dict(zip(self._keys, _stats_rows(*self._arrays)))
        return self._stats

    def __getitem__(self, key) -> GroupStats:
        return self._built()[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return repr(self._built())

    def _json_body(self) -> str:
        """The "groups" object, as _stats_json_body writes these groups' GroupStats."""
        means, sds, is_winner, n_clips = self._arrays
        codes, winners = _winner_sets(is_winner)
        forms = {c: _group_form(RATING_ALGORITHMS, RATING_ALGORITHMS, w)[2]
                 for c, w in winners.items()}
        lines = [f"{_json_str(str(key)).replace('%', '%%')}: {forms[c]}"
                 for key, c in zip(self._keys, codes)]
        n_algos = len(RATING_ALGORITHMS)
        numbers = np.empty((len(codes), 2 * n_algos + 1), object)
        numbers[:, :n_algos] = means[:, _SORTED_COLUMNS]
        numbers[:, n_algos] = n_clips  # an int, so json spells it without ".0"
        numbers[:, n_algos + 1:] = sds[:, _SORTED_COLUMNS]
        return _fill(lines, numbers.ravel().tolist())

    def _table_rows(self) -> list[str]:
        means, sds, is_winner, _ = self._arrays
        codes, winners = _winner_sets(is_winner)
        names = {c: "/".join(w) for c, w in winners.items()}
        pairs = np.stack([means, sds], axis=2).reshape(-1, 2 * len(RATING_ALGORITHMS)).tolist()
        return [_TABLE_ROW % (str(key), *row, names[c])
                for key, row, c in zip(self._keys, pairs, codes)]


@dataclass
class AggregateReport:
    level: str  # "category" | "class" | "clip"
    groups: Mapping[str | int, GroupStats]  # aggregate's _GroupArrays, or any GroupStats
    overall: GroupStats
    winner_counts: dict[str, int]  # clip-level winner tallies (ties count both)
    tie_count: int

    def to_json(self) -> str:
        """The report as json.dumps(payload, indent=2, sort_keys=True) writes it, byte for byte.

        json's indent encoder is pure Python, so it lays out each group shape
        once (_group_form), and the numbers of every group, spelled by json's C
        encoder, go into those layouts with one %. A report from aggregate
        writes its groups from aggregate's arrays; groups given as GroupStats
        are written from those.
        """
        groups = self.groups
        body = groups._json_body() if isinstance(groups, _GroupArrays) else _stats_json_body(groups)
        rest = {"level": self.level, "overall": asdict(self.overall),
                "tie_count": self.tie_count, "winner_counts": self.winner_counts}
        return '{\n  "groups": ' + body + "," + json.dumps(rest, indent=2, sort_keys=True)[1:]

    def format_table(self) -> str:
        header = f"{'group':>12} " + " ".join(f"{a:>12}" for a in RATING_ALGORITHMS) + "   winner"
        groups = self.groups
        lines = [header]
        if isinstance(groups, _GroupArrays):
            lines += groups._table_rows()
        else:
            lines += [_table_row(str(key), groups[key]) for key in sorted(groups, key=str)]
        lines.append(_table_row("overall", self.overall))
        counts = ", ".join(f"{a}={self.winner_counts[a]}" for a in RATING_ALGORITHMS)
        lines.append(f"clip-level winners: {counts}, ties={self.tie_count}")
        return "\n".join(lines)


def _stats_json_body(groups: Mapping) -> str:
    """The "groups" object of a report whose groups are any GroupStats, under any keys."""
    groups = {str(k): g for k, g in groups.items()}
    lines, numbers = [], []
    for key in sorted(groups):
        g = groups[key]
        mean_keys, sd_keys, form = _group_form(tuple(g.mean), tuple(g.sd), tuple(g.winners))
        lines.append(f"{_json_str(key).replace('%', '%%')}: {form}")
        numbers += map(g.mean.__getitem__, mean_keys)
        numbers.append(g.n_clips)
        numbers += map(g.sd.__getitem__, sd_keys)
    return _fill(lines, numbers)


def _fill(lines: list[str], numbers: list) -> str:
    """The "groups" object from its groups' lines, each number of which is a %s."""
    if not lines:
        return "{}"
    return ("{\n    " + ",\n    ".join(lines) + "\n  }") % tuple(
        json.dumps(numbers)[1:-1].split(", "))


# A table row is the group, mean(SD) per algorithm and the winners, written by one
# %-format; its arguments interleave the means and SDs in RATING_ALGORITHMS order.
_TABLE_ROW = "%12s " + " ".join(["%7.2f(%4.1f)"] * len(RATING_ALGORITHMS)) + "   %s"
_by_algorithm = itemgetter(*RATING_ALGORITHMS)
_mean_sd_pairs = itemgetter(*[i + k * len(RATING_ALGORITHMS)
                              for i in range(len(RATING_ALGORITHMS)) for k in (0, 1)])
# the group arrays' columns in the sorted-key order json writes a group's means and SDs in
_SORTED_COLUMNS = [RATING_ALGORITHMS.index(a) for a in sorted(RATING_ALGORITHMS)]
# a winner mask row as one int: bit i is set when RATING_ALGORITHMS[i] wins
_WINNER_BITS = 1 << np.arange(len(RATING_ALGORITHMS))


def _table_row(key: str, g: GroupStats) -> str:
    means_then_sds = _by_algorithm(g.mean) + _by_algorithm(g.sd)
    return _TABLE_ROW % (key, *_mean_sd_pairs(means_then_sds), "/".join(g.winners))


def _winner_sets(is_winner: np.ndarray) -> tuple[list[int], dict[int, tuple[str, ...]]]:
    """A winner mask's rows as int codes, and the winner tuple of each code among them."""
    codes = (is_winner @ _WINNER_BITS).tolist()
    return codes, {c: tuple(compress(RATING_ALGORITHMS, c & _WINNER_BITS)) for c in set(codes)}


_json_str = json.encoder.encode_basestring_ascii
_SLOT = "\x00"  # stands in for a number while json lays out a group
_SLOT_VALUE = ": " + _json_str(_SLOT)


@lru_cache(maxsize=64)
def _group_form(mean_keys: tuple, sd_keys: tuple, winners: tuple) -> tuple:
    """A group shape's sorted mean and sd keys, and its text as nested in "groups".

    The text has a %s for each number: the sorted means, n_clips, then the
    sorted sds. Only a stand-in in value position becomes a %s, so a key or a
    winner that spells the stand-in stays text.
    """
    skeleton = {"mean": dict.fromkeys(mean_keys, _SLOT), "n_clips": _SLOT,
                "sd": dict.fromkeys(sd_keys, _SLOT), "winners": winners}
    text = json.dumps(skeleton, indent=2, sort_keys=True).replace("\n", "\n    ")
    return sorted(mean_keys), sorted(sd_keys), text.replace("%", "%%").replace(_SLOT_VALUE, ": %s")


def _group_arrays(matrix: np.ndarray, group: np.ndarray, n_groups: int) -> tuple:
    """Means, SDs, winner mask and clip count of each group of (clip, algorithm) matrix rows.

    Row i of matrix is in group[i]; each result has one row per group.
    bincount adds a group's rows in row order, as mean and std(ddof=1) over
    axis 0 do, so both come out bit for bit; a group of one clip has SD 0.
    """
    n_algos = matrix.shape[1]
    cell = (group[:, None] * n_algos + np.arange(n_algos)).ravel()
    size = n_groups * n_algos
    n = np.bincount(group, minlength=n_groups)
    means = np.bincount(cell, matrix.ravel(), size).reshape(n_groups, n_algos) / n[:, None]
    dev = (matrix - means[group]).ravel()
    sq = np.bincount(cell, dev * dev, size).reshape(n_groups, n_algos)
    sds = np.sqrt(sq / np.maximum(n - 1, 1)[:, None])
    is_winner = means == means.max(axis=1, keepdims=True)
    return means, sds, is_winner, n


def _stats_rows(means: np.ndarray, sds: np.ndarray, is_winner: np.ndarray,
                n_clips: np.ndarray) -> list[GroupStats]:
    """One GroupStats per row of _group_arrays' results."""
    rows = zip(means.tolist(), sds.tolist(), is_winner.tolist(), n_clips.tolist())
    return [GroupStats(mean=dict(zip(RATING_ALGORITHMS, m)), sd=dict(zip(RATING_ALGORITHMS, d)),
                       winners=tuple(compress(RATING_ALGORITHMS, w)), n_clips=k)
            for m, d, w, k in rows]


def aggregate(table: RatingsTable, manifest: DatasetManifest, level: str) -> AggregateReport:
    """Aggregate clip ratings at the category, class, or clip level."""
    field = {"category": "category_id", "class": "class_id", "clip": "clip_id"}.get(level)
    if field is None:
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

    keys = [getattr(by_id[cid], field) for cid in clip_ids]
    order = sorted(set(keys), key=str)
    index = {key: i for i, key in enumerate(order)}
    group = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
    (overall,) = _stats_rows(*_group_arrays(matrix, np.zeros_like(group), 1))
    return AggregateReport(
        level=level,
        groups=_GroupArrays(order, *_group_arrays(matrix, group, len(order))),
        overall=overall,
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


def _stft_resolution_loss(mag_p: np.ndarray, mag_t: np.ndarray) -> float:
    norm_t = np.linalg.norm(mag_t)
    convergence = np.linalg.norm(mag_t - mag_p) / max(norm_t, _LOG_EPS)
    log_l1 = float(np.mean(np.abs(np.log(mag_t + _LOG_EPS) - np.log(mag_p + _LOG_EPS))))
    return float(convergence) + log_l1


def reconstruction_metrics(pred: np.ndarray, target: np.ndarray,
                           sample_rate: int = VIBRATION_RATE) -> MetricReport:
    """Distance components between a predicted and a target waveform, as sample arrays.

    mse/rmse are plain time-domain errors; stft_loss averages spectral
    convergence plus log-magnitude L1 over FFT sizes 1024/512/256; mel_l1 is
    the mean absolute log-mel difference (64 bands to Nyquist) on the
    1024-point magnitudes; amp_loss is the absolute RMS difference.
    sample_rate is the rate of both signals.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
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
