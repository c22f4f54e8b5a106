"""Tests for rating ingestion/aggregation, blending, and reconstruction metrics."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest

from hapticwave import analysis
from hapticwave.analysis import (
    RATING_ALGORITHMS,
    RATINGS_HEADER,
    AggregateReport,
    GroupStats,
    RatingsTable,
    aggregate,
    blend_targets,
    load_ratings,
    reconstruction_metrics,
)
from hapticwave.audio_io import VibrationSignal
from hapticwave.dsp import mel_filterbank
from hapticwave.cli import run
from hapticwave.curation import DatasetManifest, load_manifest
from hapticwave.errors import SchemaError
from hapticwave.fixtures import manifest_fixture_path, ratings_fixture_path

from conftest import manifest_of


def write_ratings(path, rows):
    lines = ["clip_id,algorithm,rater_id,rating"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def small_manifest(clip_ids, class_ids=None):
    class_ids = class_ids or [i % 50 for i in range(len(clip_ids))]
    return manifest_of((cid, f"audio/{cid}.wav", class_id, f"class{class_id}", class_id // 10 + 1)
                       for cid, class_id in zip(clip_ids, class_ids))


def full_rating_rows(clip_id, values, raters=("r1", "r2")):
    rows = []
    for algo, value in zip(RATING_ALGORITHMS, values):
        for rater in raters:
            rows.append((clip_id, algo, rater, value))
    return rows


class TestLoadRatings:
    def test_rater_mean(self, tmp_path):
        path = write_ratings(tmp_path / "r.csv", [
            ("c1", "pitch", "r1", 60), ("c1", "pitch", "r2", 80),
        ])
        table = load_ratings(path)
        assert _clip_means(table)[("c1", "pitch")] == 70.0

    def test_rating_out_of_range(self, tmp_path):
        path = write_ratings(tmp_path / "r.csv", [("c1", "pitch", "r1", 101)])
        with pytest.raises(SchemaError):
            load_ratings(path)

    def test_unknown_algorithm(self, tmp_path):
        path = write_ratings(tmp_path / "r.csv", [("c1", "vortex", "r1", 50)])
        with pytest.raises(SchemaError):
            load_ratings(path)

    def test_empty_table(self, tmp_path):
        path = write_ratings(tmp_path / "r.csv", [])
        with pytest.raises(SchemaError):
            load_ratings(path)

    def test_column_map_adapter(self, tmp_path):
        path = tmp_path / "export.csv"
        path.write_text("sound,method,participant,score\nc1,pitch,p7,55\n")
        table = load_ratings(path, column_map={
            "clip_id": "sound", "algorithm": "method",
            "rater_id": "participant", "rating": "score",
        })
        assert _clip_means(table)[("c1", "pitch")] == 55.0


class TestAggregate:
    def _table_and_manifest(self, tmp_path):
        rows = []
        rows += full_rating_rows("c0", [10, 20, 90, 40])   # pitch wins
        rows += full_rating_rows("c1", [10, 80, 30, 40])   # fshift wins
        rows += full_rating_rows("c2", [10, 50, 50, 40])   # tie pitch/fshift
        path = write_ratings(tmp_path / "r.csv", rows)
        return load_ratings(path), small_manifest(["c0", "c1", "c2"], [0, 0, 1])

    def test_winners_and_ties(self, tmp_path):
        table, manifest = self._table_and_manifest(tmp_path)
        report = aggregate(table, manifest, "clip")
        assert report.winner_counts == {"plm": 0, "fshift": 2, "pitch": 2, "hapticgen": 0}
        assert report.tie_count == 1
        assert report.groups["c0"].winners == ("pitch",)

    def test_class_level_means(self, tmp_path):
        table, manifest = self._table_and_manifest(tmp_path)
        report = aggregate(table, manifest, "class")
        g = report.groups[0]
        assert g.n_clips == 2
        assert g.mean["fshift"] == pytest.approx(50.0)
        assert g.mean["pitch"] == pytest.approx(60.0)
        assert g.winners == ("pitch",)

    def test_orphan_clip_rejected(self, tmp_path):
        table, _ = self._table_and_manifest(tmp_path)
        manifest = small_manifest(["c0", "c1"])
        with pytest.raises(SchemaError):
            aggregate(table, manifest, "clip")

    def test_record_order_invariant(self, tmp_path):
        table, manifest = self._table_and_manifest(tmp_path)
        shuffled = RatingsTable(table.clip_id[::-1], table.algorithm[::-1],
                                table.rater_id[::-1], table.rating[::-1])
        a = aggregate(table, manifest, "category")
        b = aggregate(shuffled, manifest, "category")
        assert a == b

    def test_unknown_level(self, tmp_path):
        table, manifest = self._table_and_manifest(tmp_path)
        with pytest.raises(ValueError):
            aggregate(table, manifest, "galaxy")


# ---------------------------------------------------------------------------
# record-by-record reference: the row-object ratings core the columnar one replaced
# ---------------------------------------------------------------------------

@dataclass
class _Record:
    clip_id: str
    algorithm: str
    rater_id: str
    rating: float


def _reference_load_ratings(path, column_map=None) -> list[_Record]:
    resolve = dict(zip(RATINGS_HEADER, RATINGS_HEADER))
    if column_map:
        resolve.update(column_map)
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [resolve[c] for c in RATINGS_HEADER
                   if resolve[c] not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        for row_no, row in enumerate(reader, start=2):
            algorithm = row[resolve["algorithm"]]
            if algorithm not in RATING_ALGORITHMS:
                raise SchemaError(f"{path}:{row_no}: unknown algorithm {algorithm!r}")
            try:
                rating = float(row[resolve["rating"]])
            except ValueError as exc:
                raise SchemaError(f"{path}:{row_no}: {exc}") from exc
            if not 0.0 <= rating <= 100.0:
                raise SchemaError(f"{path}:{row_no}: rating {rating} outside [0, 100]")
            records.append(_Record(row[resolve["clip_id"]], algorithm,
                                   row[resolve["rater_id"]], rating))
    if not records:
        raise SchemaError(f"{path}: no rating rows")
    return records


def _clip_means(table: RatingsTable) -> dict[tuple[str, str], float]:
    """The table's mean_matrix as {(clip_id, algorithm): mean} over its rated cells."""
    clip_ids, means, counts = table.mean_matrix()
    return {(clip_ids[i], RATING_ALGORITHMS[j]): float(means[i, j])
            for i, j in zip(*np.nonzero(counts))}


def _reference_clip_means(records) -> dict[tuple[str, str], float]:
    sums: dict[tuple[str, str], list[float]] = {}
    for r in records:
        sums.setdefault((r.clip_id, r.algorithm), []).append(r.rating)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


def _reference_stats(clip_matrix: np.ndarray) -> GroupStats:
    means = clip_matrix.mean(axis=0)
    if clip_matrix.shape[0] > 1:
        sds = clip_matrix.std(axis=0, ddof=1)
    else:
        sds = np.zeros(clip_matrix.shape[1])
    top = means.max()
    return GroupStats(
        mean=dict(zip(RATING_ALGORITHMS, means.tolist())),
        sd=dict(zip(RATING_ALGORITHMS, sds.tolist())),
        winners=tuple(a for a, m in zip(RATING_ALGORITHMS, means) if m == top),
        n_clips=clip_matrix.shape[0],
    )


def _reference_aggregate(records, manifest: DatasetManifest, level: str) -> AggregateReport:
    row_of = {cid: i for i, cid in enumerate(manifest.clip_id)}
    clip_means = _reference_clip_means(records)
    clip_ids = sorted({r.clip_id for r in records})
    matrix = np.empty((len(clip_ids), len(RATING_ALGORITHMS)))
    for i, cid in enumerate(clip_ids):
        for j, algo in enumerate(RATING_ALGORITHMS):
            matrix[i, j] = clip_means[(cid, algo)]
    winner_counts = {a: 0 for a in RATING_ALGORITHMS}
    tie_count = 0
    for i in range(len(clip_ids)):
        top = matrix[i].max()
        winners = [a for a, v in zip(RATING_ALGORITHMS, matrix[i]) if v == top]
        tie_count += len(winners) > 1
        for a in winners:
            winner_counts[a] += 1
    key_of = {"category": lambda cid: manifest.category_id[row_of[cid]],
              "class": lambda cid: manifest.class_id[row_of[cid]],
              "clip": lambda cid: cid}[level]
    group_rows: dict = {}
    for i, cid in enumerate(clip_ids):
        group_rows.setdefault(key_of(cid), []).append(i)
    groups = {key: _reference_stats(matrix[rows]) for key, rows in sorted(
        group_rows.items(), key=lambda kv: str(kv[0]))}
    return AggregateReport(level=level, groups=groups, overall=_reference_stats(matrix),
                           winner_counts=winner_counts, tie_count=tie_count)


def _random_ratings(path: Path, seed: int, n_clips: int, raters: tuple[int, int],
                    header=RATINGS_HEADER) -> DatasetManifest:
    """A shuffled ratings CSV over n_clips clips with exact ties, and its manifest."""
    rng = np.random.default_rng(seed)
    clip_ids = [f"s{rng.integers(10**6):06d}-{i}" for i in range(n_clips)]
    people = [f"P{k:02d}" for k in range(raters[1])]
    rows = []
    for i, cid in enumerate(clip_ids):
        n_raters = int(rng.integers(raters[0], raters[1] + 1))
        picked = rng.choice(people, size=n_raters, replace=False)
        tied = i % 4 == 0  # two algorithms get identical ratings
        if i % 3 == 0:  # integer ratings, as a survey slider exports them
            values = rng.integers(0, 101, size=(len(RATING_ALGORITHMS), n_raters)).astype(float)
        else:
            values = rng.uniform(0.0, 100.0, size=(len(RATING_ALGORITHMS), n_raters))
        if tied:
            values[2] = values[int(rng.integers(0, 2))]
        for j, algo in enumerate(RATING_ALGORITHMS):
            for rater, value in zip(picked, values[j]):
                text = str(int(value)) if value.is_integer() and i % 2 else repr(float(value))
                rows.append([cid, algo, rater, text])
    order = rng.permutation(len(rows))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in order:
            writer.writerow(rows[k])
            if rng.random() < 0.02:
                writer.writerow([])  # a blank line, which no row number counts
    class_ids = rng.integers(0, 50, size=n_clips)
    return manifest_of((cid, f"audio/{cid}.wav", int(c), f"class{c}", int(c) // 10 + 1)
                       for cid, c in zip(clip_ids, class_ids))


class TestAgainstRecordReference:
    @pytest.mark.parametrize("seed,n_clips,raters", [
        (0, 1, (1, 1)), (1, 7, (1, 5)), (2, 60, (1, 5)), (3, 200, (2, 2)),
        (4, 40, (8, 12)),  # 8 or more raters: np.mean sums pairwise
    ])
    @pytest.mark.parametrize("level", ["category", "class", "clip"])
    def test_reports_equal(self, tmp_path, seed, n_clips, raters, level):
        path = tmp_path / "r.csv"
        manifest = _random_ratings(path, seed, n_clips, raters)
        expected = _reference_aggregate(_reference_load_ratings(path), manifest, level)
        report = aggregate(load_ratings(path), manifest, level)
        assert report == expected
        assert report.to_json() == _reference_to_json(expected)
        assert report.format_table() == _reference_format_table(expected)

    def test_ties_are_exercised(self, tmp_path):
        path = tmp_path / "r.csv"
        manifest = _random_ratings(path, 2, 60, (1, 5))
        assert aggregate(load_ratings(path), manifest, "clip").tie_count > 0

    def test_column_map(self, tmp_path):
        path = tmp_path / "export.csv"
        header = ["score", "participant", "sound", "method", "notes"]
        manifest = _random_ratings(tmp_path / "canon.csv", 5, 30, (1, 5))
        with open(tmp_path / "canon.csv", newline="") as fh, \
                open(path, "w", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(header)
            for row in list(csv.reader(fh))[1:]:  # clip_id, algorithm, rater_id, rating
                writer.writerow([row[3], row[2], row[0], row[1], "-"] if row else [])
        column_map = {"clip_id": "sound", "algorithm": "method",
                      "rater_id": "participant", "rating": "score"}
        for level in ("category", "class", "clip"):
            expected = _reference_aggregate(
                _reference_load_ratings(path, column_map), manifest, level)
            report = aggregate(load_ratings(path, column_map), manifest, level)
            assert report == expected
            assert report.to_json() == _reference_to_json(expected)

    def test_clip_means_and_ids(self, tmp_path):
        path = tmp_path / "r.csv"
        _random_ratings(path, 6, 25, (1, 12))
        records = _reference_load_ratings(path)
        table = load_ratings(path)
        assert len(table) == len(records)
        assert _clip_means(table) == _reference_clip_means(records)
        assert table.clip_ids() == sorted({r.clip_id for r in records})

    def test_unrated_cell_names_clip_and_algorithm(self, tmp_path):
        path = write_ratings(tmp_path / "r.csv", full_rating_rows("c0", [1, 2, 3, 4])
                             + [("c1", "plm", "r1", 5), ("c1", "fshift", "r1", 5)])
        with pytest.raises(SchemaError, match="clip 'c1' has no rating for 'pitch'"):
            aggregate(load_ratings(path), small_manifest(["c0", "c1"]), "clip")


# SHA-256 of `report --json` on the bundled fixture, fixed before the columnar
# core replaced the record-by-record one.
FIXTURE_REPORT_SHA256 = {
    "category": ("195579987cb3d565b537a4dc368f6a4695a5cc315784ea668208afdc2ce672e0",
                 "8e46a2f3c55806b7b2b423c19b925bda726952d3caf081d3a01a682e7699beb0"),
    "class": ("6ad84411dd1fc4bc53abc02197a21c39b8ccfc13bd713d5fa7a2b77077ff3bfc",
              "7fe0c11a76843b1e7635d145e770a62870df2c6f9540aa6afeb077c7830152ec"),
    "clip": ("b986ae9d08efbeaa355e3c39f8c5f31b14e48a2b27bf533cddc4aaeb9188a6d4",
             "3e0c053080fe6baf817be048b54611c93e38f2d6af0bfc63c3ee2af4a77cc665"),
}


@pytest.mark.parametrize("level", sorted(FIXTURE_REPORT_SHA256))
def test_fixture_report_golden(tmp_path, capsys, level):
    json_out = tmp_path / "report.json"
    assert run(["report", "--ratings", str(ratings_fixture_path()),
                "--manifest", str(manifest_fixture_path()),
                "--level", level, "--json", str(json_out)]) == 0
    json_sha, stdout_sha = FIXTURE_REPORT_SHA256[level]
    assert hashlib.sha256(json_out.read_bytes()).hexdigest() == json_sha
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


@pytest.mark.parametrize("level", ["category", "class", "clip"])
def test_report_from_a_hand_built_manifest_is_byte_equal(level):
    with open(manifest_fixture_path(), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    by_hand = manifest_of((cid, path, int(class_id), name, int(category_id))
                          for cid, path, class_id, name, category_id in reversed(rows))
    table = load_ratings(ratings_fixture_path())
    loaded = aggregate(table, load_manifest(manifest_fixture_path()), level)
    built = aggregate(table, by_hand, level)
    assert built.to_json() == loaded.to_json()
    assert built.format_table() == loaded.format_table()


# ---------------------------------------------------------------------------
# report writers against the json.dumps payload and the f-string table they replaced
# ---------------------------------------------------------------------------

def _reference_to_json(report: AggregateReport) -> str:
    def group(g):
        return {"mean": g.mean, "sd": g.sd, "winners": list(g.winners), "n_clips": g.n_clips}
    payload = {
        "level": report.level,
        "overall": group(report.overall),
        "groups": {str(k): group(g) for k, g in report.groups.items()},
        "winner_counts": report.winner_counts,
        "tie_count": report.tie_count,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _reference_format_table(report: AggregateReport) -> str:
    lines = []
    header = f"{'group':>12} " + " ".join(f"{a:>12}" for a in RATING_ALGORITHMS) + "   winner"
    lines.append(header)
    for key in sorted(report.groups, key=str):
        g = report.groups[key]
        cells = " ".join(f"{g.mean[a]:>7.2f}({g.sd[a]:4.1f})" for a in RATING_ALGORITHMS)
        lines.append(f"{str(key):>12} {cells}   {'/'.join(g.winners)}")
    o = report.overall
    cells = " ".join(f"{o.mean[a]:>7.2f}({o.sd[a]:4.1f})" for a in RATING_ALGORITHMS)
    lines.append(f"{'overall':>12} {cells}   {'/'.join(o.winners)}")
    counts = ", ".join(f"{a}={report.winner_counts[a]}" for a in RATING_ALGORITHMS)
    lines.append(f"clip-level winners: {counts}, ties={report.tie_count}")
    return "\n".join(lines)


def _stats(means, sds=None, winners=None, n_clips=3) -> GroupStats:
    """GroupStats over RATING_ALGORITHMS; winners default to the top means."""
    sds = [0.0] * len(means) if sds is None else sds
    if winners is None:
        top = max(means)
        winners = tuple(a for a, m in zip(RATING_ALGORITHMS, means) if m == top)
    return GroupStats(mean=dict(zip(RATING_ALGORITHMS, means)),
                      sd=dict(zip(RATING_ALGORITHMS, sds)), winners=winners, n_clips=n_clips)


def _group_arrays(groups: dict) -> analysis._GroupArrays:
    """aggregate's group arrays for these GroupStats: keys in str order, then one row each."""
    keys = sorted(groups, key=str)
    rows = [groups[key] for key in keys]
    shape = (len(rows), len(RATING_ALGORITHMS))
    means, sds = (np.array([[getattr(g, field)[a] for a in RATING_ALGORITHMS] for g in rows],
                           np.float64).reshape(shape) for field in ("mean", "sd"))
    is_winner = np.array([[a in g.winners for a in RATING_ALGORITHMS] for g in rows],
                         bool).reshape(shape)
    n_clips = np.array([g.n_clips for g in rows], np.intp)
    return analysis._GroupArrays(keys, means, sds, is_winner, n_clips)


def _report(groups, overall=None, level="clip", winner_counts=None, tie_count=0):
    overall = overall or _stats([50.0, 40.0, 30.0, 20.0], n_clips=len(groups))
    winner_counts = dict.fromkeys(RATING_ALGORITHMS, 0) if winner_counts is None else winner_counts
    return AggregateReport(level=level, groups=_group_arrays(groups), overall=overall,
                           winner_counts=winner_counts, tie_count=tie_count)


# Text that spells the JSON writer's number slot ("%s", written '"%s"' in value
# position while json lays out a group), another %-format directive, or NUL and
# its JSON escape.
_STAND_INS = ("%s", '"%s"', ': "%s"', '": "%s"', "%%s", "%(x)s", "\x00", "\\u0000")


class TestReportWriters:
    @staticmethod
    def assert_matches(report):
        """The report writes the reference's bytes, from its group arrays alone."""
        json_text, table = report.to_json(), report.format_table()
        assert report.groups._stats is None  # the writers read the arrays, not GroupStats
        # compared as lines: a failing report shows the first line that differs, quickly
        assert json_text.splitlines(True) == _reference_to_json(report).splitlines(True)
        assert table.splitlines(True) == _reference_format_table(report).splitlines(True)
        assert (report.to_json(), report.format_table()) == (json_text, table)

    @pytest.mark.parametrize("level", ["category", "class", "clip"])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_seeded_aggregates(self, tmp_path, seed, level):
        path = tmp_path / "r.csv"
        manifest = _random_ratings(path, seed, 120, (1, 9))
        self.assert_matches(aggregate(load_ratings(path), manifest, level))

    @pytest.mark.parametrize("level", ["category", "class", "clip"])
    def test_array_writer_on_the_fixture(self, level):
        path = ratings_fixture_path()
        manifest = load_manifest(manifest_fixture_path())
        report = aggregate(load_ratings(path), manifest, level)
        self.assert_matches(report)
        expected = _reference_aggregate(_reference_load_ratings(path), manifest, level)
        assert dict(report.groups) == expected.groups

    @pytest.mark.parametrize("seed,n_clips,raters", [
        (0, 1, (1, 1)), (1, 7, (1, 5)), (2, 60, (1, 5)), (3, 200, (2, 2)), (4, 40, (8, 12)),
    ])
    @pytest.mark.parametrize("level", ["category", "class", "clip"])
    def test_array_writer_on_seeded_ratings(self, tmp_path, seed, n_clips, raters, level):
        path = tmp_path / "r.csv"
        manifest = _random_ratings(path, seed, n_clips, raters)
        report = aggregate(load_ratings(path), manifest, level)
        self.assert_matches(report)
        expected = _reference_aggregate(_reference_load_ratings(path), manifest, level)
        assert dict(report.groups) == expected.groups

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_array_writer_on_an_empty_table(self):
        # reachable only through a hand-built table: load_ratings rejects a file without rows
        table = RatingsTable([], np.array([], np.intp), [], np.array([]))
        report = aggregate(table, manifest_of([]), "clip")
        assert len(report.groups) == 0
        self.assert_matches(report)
        assert '"groups": {}' in report.to_json()

    def test_aggregate_groups_read_as_a_dict(self):
        manifest = load_manifest(manifest_fixture_path())
        report = aggregate(load_ratings(ratings_fixture_path()), manifest, "class")
        expected = _reference_aggregate(
            _reference_load_ratings(ratings_fixture_path()), manifest, "class").groups
        groups = report.groups
        assert list(groups) == sorted(expected, key=str) == list(expected)
        assert len(groups) == len(expected) == 50
        assert list(groups.items()) == list(expected.items())
        assert groups == expected and expected == groups
        assert groups[10] is groups[10]  # built once, then kept
        assert 10 in groups and "10" not in groups
        with pytest.raises(TypeError):
            groups[10] = expected[10]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_synthetic_reports(self, seed):
        rng = np.random.default_rng(seed)
        groups = {}
        for k in rng.permutation(40):
            means = rng.uniform(0, 100, len(RATING_ALGORITHMS)) * rng.choice([1e-9, 1.0, 1e9])
            groups[int(k)] = _stats(means.tolist(), rng.uniform(0, 30, len(means)).tolist(),
                                    n_clips=int(rng.integers(1, 10**6)))
        winner_counts = dict(zip(RATING_ALGORITHMS, rng.integers(0, 1000, 4).tolist()))
        self.assert_matches(_report(groups, level="class", winner_counts=winner_counts,
                                    tie_count=int(rng.integers(0, 100))))

    def test_integer_keys_sort_as_strings(self):
        groups = {k: _stats([float(k), 1.0, 2.0, 3.0]) for k in (2, 10, 1, 100, 21, 3)}
        report = _report(groups, level="category")
        self.assert_matches(report)
        assert list(json.loads(report.to_json())["groups"]) == ["1", "10", "100", "2", "21", "3"]

    def test_escaped_clip_ids(self):
        ids = ['say "hi"', "back\\slash", "tab\there", "nl\nline", "bell\x07\x1f",
               "café", "日本語", "emoji \U0001F600", "100%", "%s %d %%", "%(x)s", "", " "]
        groups = {cid: _stats([10.0 * i, 5.0, 5.0, 1.0]) for i, cid in enumerate(ids)}
        self.assert_matches(_report(groups))
        groups = {cid: _stats([10.0 * i, 5.0, 5.0, 1.0]) for i, cid in enumerate(_STAND_INS)}
        for level in _STAND_INS:
            self.assert_matches(_report(groups, level=level))

    @pytest.mark.parametrize("n_tied", [2, 3, 4])
    def test_ties(self, n_tied):
        means = [70.0] * n_tied + [10.0] * (len(RATING_ALGORITHMS) - n_tied)
        group = _stats(means)
        assert len(group.winners) == n_tied
        self.assert_matches(_report({"a": group, "b": _stats([1.0, 2.0, 3.0, 4.0])},
                                    overall=group, tie_count=1))

    def test_empty_groups_and_winners(self):
        self.assert_matches(_report({}))
        no_winner = _stats([1.0, 2.0, 3.0, 4.0], winners=())
        self.assert_matches(_report({"a": no_winner}, overall=no_winner))
        assert '"winners": []' in _report({"a": no_winner}).to_json()
        assert '"groups": {}' in _report({}).to_json()

    def test_non_finite_means(self):
        nan, inf = float("nan"), float("inf")
        groups = {"nan": _stats([nan, 1.0, 2.0, 3.0], [nan, 0.0, 0.0, 0.0], winners=("pitch",)),
                  "inf": _stats([inf, -inf, 2.0, 3.0]),
                  "-inf": _stats([-inf, -inf, -inf, -inf], [inf, inf, 0.0, 0.0])}
        report = _report(groups, overall=_stats([nan, inf, -inf, 0.0], winners=()))
        self.assert_matches(report)
        assert "NaN" in report.to_json() and "-Infinity" in report.to_json()

    def test_float_spellings(self):
        values = [0.1 + 0.2, 1e-07, 100.0, 5e-324, -0.0, 1e16, 1.7976931348623157e308, 1 / 3]
        groups = {f"g{i}": _stats(values[i:i + 4], values[-4 - i:len(values) - i])
                  for i in range(len(values) - 3)}
        self.assert_matches(_report(groups))


def test_fixture_triples_unique():
    table = load_ratings(ratings_fixture_path())
    assert len(table) == 8000
    assert len(set(zip(table.clip_id, table.algorithm.tolist(), table.rater_id))) == 8000


class TestRatingsErrors:
    HEADER = "clip_id,algorithm,rater_id,rating\n"

    def _load(self, tmp_path, body):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + body)
        return path

    @pytest.mark.parametrize("bad_row,message", [
        ("c1,pitch,r3,nan", "rating nan outside [0, 100]"),
        ("c1,pitch,r3,NaN", "rating nan outside [0, 100]"),
        ("c1,pitch,r3,inf", "rating inf outside [0, 100]"),
        ("c1,pitch,r3,-inf", "rating -inf outside [0, 100]"),
        ("c1,pitch,r3,100.5", "rating 100.5 outside [0, 100]"),
        ("c1,pitch,r3,-1", "rating -1.0 outside [0, 100]"),
        ("c1,pitch,r3,high", "could not convert string to float: 'high'"),
        ("c1,pitch,r3,", "could not convert string to float: ''"),
        ("c1,vortex,r3,50", "unknown algorithm 'vortex'"),
        ("c1,vortex,r3,500", "unknown algorithm 'vortex'"),  # algorithm is checked first
    ])
    def test_bad_value_names_row(self, tmp_path, bad_row, message):
        path = self._load(tmp_path, f"c1,pitch,r1,50\nc1,pitch,r2,0\n{bad_row}\nc1,plm,r1,7\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        assert str(err.value) == f"{path}:4: {message}"
        with pytest.raises(SchemaError) as ref:
            _reference_load_ratings(path)
        assert str(err.value) == str(ref.value)

    def test_first_bad_row_wins(self, tmp_path):
        path = self._load(tmp_path, "c1,pitch,r1,50\nc1,pitch,r2,x\n"
                                    "c1,vortex,r3,50\nc1,pitch,r4,101\n")
        with pytest.raises(SchemaError, match=r":3: could not convert"):
            load_ratings(path)

    def test_blank_lines_do_not_count_as_rows(self, tmp_path):
        path = self._load(tmp_path, "c1,pitch,r1,50\n\nc1,pitch,r2,101\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        with pytest.raises(SchemaError) as ref:
            _reference_load_ratings(path)
        assert str(err.value) == str(ref.value) == f"{path}:3: rating 101.0 outside [0, 100]"

    @pytest.mark.parametrize("bad_row,got", [
        ("c1,pitch,r2", 3), ("c1,pitch", 2), ("c1,pitch,r2,40,extra", 5)])
    def test_ragged_row_names_row(self, tmp_path, bad_row, got):
        path = self._load(tmp_path, f"c1,pitch,r1,50\n{bad_row}\nc1,plm,r1,7\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        assert str(err.value) == f"{path}:3: expected 4 fields, got {got}"

    def test_duplicate_names_second_occurrence(self, tmp_path):
        path = self._load(tmp_path, "c1,pitch,r1,50\nc1,plm,r1,40\nc1,pitch,r2,60\n"
                                    "c2,pitch,r1,50\nc1,plm,r1,45\nc1,pitch,r1,50\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        assert str(err.value) == (f"{path}:6: duplicate rating of clip 'c1' for 'plm' "
                                  f"by rater 'r1' (first at row 3)")

    def test_hash_collision_is_not_duplicate(self, tmp_path, monkeypatch):
        path = self._load(tmp_path, "c1,pitch,r1,50\nc1,plm,r1,40\nc2,pitch,r1,60\n")
        monkeypatch.setattr(analysis, "hash", lambda key: 0, raising=False)
        assert len(load_ratings(path)) == 3

    def test_errors_beyond_the_first_chunk_name_their_row(self, tmp_path):
        good = "".join(f"c{i},pitch,r1,50\n" for i in range(1500))
        path = self._load(tmp_path, good + "\n" + "c1,pitch,r2\n")
        with pytest.raises(SchemaError, match=f":{1500 + 2}: expected 4 fields, got 3"):
            load_ratings(path)
        path = self._load(tmp_path, good + "\n" + "c7,pitch,r1,50\n")
        with pytest.raises(SchemaError, match=f":{1500 + 2}: duplicate .* \\(first at row 9\\)"):
            load_ratings(path)

    def test_same_rater_other_algorithm_is_not_duplicate(self, tmp_path):
        path = self._load(tmp_path, "c1,pitch,r1,50\nc1,plm,r1,40\nc2,pitch,r1,60\n")
        assert len(load_ratings(path)) == 3

    def test_missing_mapped_column(self, tmp_path):
        path = self._load(tmp_path, "c1,pitch,r1,50\n")
        with pytest.raises(SchemaError, match=r"missing columns \['score'\]"):
            load_ratings(path, column_map={"rating": "score"})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="missing columns"):
            load_ratings(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (self.HEADER + "c1,pitch,r1,50\n").encode())
        table = load_ratings(path)
        assert list(table.clip_id) == ["c1"] and table.rating.tolist() == [50.0]

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes((self.HEADER + "caf\xe9,pitch,r1,50\n").encode("latin-1"))
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        assert str(err.value) == f"{path}: not UTF-8 text: byte 0xe9 (invalid continuation byte)"

    def test_repeated_column_is_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("clip_id,algorithm,rater_id,rating,rating\nc1,pitch,r1,50,60\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path)
        assert str(err.value) == f"{path}: column 'rating' appears 2 times in the header"

    def test_column_map_to_one_column_is_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("who,algorithm,rating\nc1,pitch,50\n")
        with pytest.raises(SchemaError) as err:
            load_ratings(path, column_map={"clip_id": "who", "rater_id": "who"})
        assert str(err.value) == \
            f"column map reads column 'who' of {path} as each of ['clip_id', 'rater_id']"

    @pytest.mark.parametrize("ratings_body,manifest_body,row", [
        ("c1,pitch,r1\n", None, 2),                        # ragged
        ("c1,pitch,r1,50\nc1,pitch,r1,50\n", None, 3),    # duplicate
        ("c1,pitch,r1,nan\n", None, 2),
        ("c1,pitch,r1,50\n", "a,x.wav,0,dog\n", 2),       # ragged manifest row
    ])
    def test_cli_exits_1_naming_row(self, tmp_path, capsys, ratings_body, manifest_body, row):
        ratings = tmp_path / "r.csv"
        ratings.write_text(self.HEADER + ratings_body)
        manifest = manifest_fixture_path()
        if manifest_body is not None:
            manifest = tmp_path / "m.csv"
            manifest.write_text("clip_id,path,class_id,class_name,category_id\n"
                                + manifest_body)
        bad = ratings if manifest_body is None else manifest
        assert run(["report", "--ratings", str(ratings), "--manifest", str(manifest),
                    "--level", "clip"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{row}: ")


class TestManifestRows:
    HEADER = "clip_id,path,class_id,class_name,category_id\n"

    @pytest.mark.parametrize("bad_row,got", [("b,y.wav,1,cat", 4), ("b,y.wav,1,cat,1,x", 6)])
    def test_ragged_row_names_row(self, tmp_path, bad_row, got):
        path = tmp_path / "m.csv"
        path.write_text(self.HEADER + f"a,x.wav,0,dog,1\n{bad_row}\n")
        with pytest.raises(SchemaError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}:3: expected 5 fields, got {got}"

    def test_header_checked_before_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("clip_id,path\na,x.wav,0,dog,1\n")
        with pytest.raises(SchemaError, match="expected header"):
            load_manifest(path)

    def test_bad_integer_names_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(self.HEADER + "a,x.wav,0,dog,1\nb,y.wav,one,cat,1\n")
        with pytest.raises(SchemaError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}:3: class_id 'one' is not an integer"

    def test_bad_category_integer_names_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(self.HEADER + "a,x.wav,0,dog,1\nb,y.wav,1,cat,1.0\n")
        with pytest.raises(SchemaError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}:3: category_id '1.0' is not an integer"


def vib(samples) -> VibrationSignal:
    return VibrationSignal(samples=np.asarray(samples, dtype=np.float64),
                           algorithm_tag="blended")


class TestBlend:
    def test_one_hot_returns_reference(self):
        rng = np.random.default_rng(0)
        refs = [vib(rng.uniform(-1, 1, 100)) for _ in range(4)]
        out = blend_targets(refs, [100.0, 0.0, 0.0, 0.0])
        assert np.array_equal(out.samples, refs[0].samples)

    def test_equal_ratings_mean(self):
        refs = [vib(np.full(10, v)) for v in (0.1, 0.2, 0.3, 0.4)]
        out = blend_targets(refs, [50.0] * 4)
        assert np.allclose(out.samples, 0.25)

    def test_identical_refs_fixed_point(self):
        base = np.linspace(-0.5, 0.5, 64)
        refs = [vib(base.copy()) for _ in range(4)]
        out = blend_targets(refs, [13.0, 2.0, 55.0, 30.0])
        assert np.allclose(out.samples, base, atol=1e-12)

    def test_convex_envelope(self):
        rng = np.random.default_rng(1)
        refs = [vib(rng.uniform(-1, 1, 50)) for _ in range(4)]
        stack = np.vstack([r.samples for r in refs])
        out = blend_targets(refs, rng.uniform(0.1, 100, 4))
        assert np.all(out.samples >= stack.min(axis=0) - 1e-9)
        assert np.all(out.samples <= stack.max(axis=0) + 1e-9)

    def test_length_mismatch(self):
        refs = [vib(np.zeros(10))] * 3 + [vib(np.zeros(9))]
        with pytest.raises(ValueError):
            blend_targets(refs, [1, 1, 1, 1])

    @pytest.mark.parametrize("n_refs, ratings, message", [
        (3, [1, 1, 1], "expected exactly four references and four ratings"),
        (3, [1, 1, 1, 1], "expected exactly four references and four ratings"),
        (4, [1, 1, 1], "expected exactly four references and four ratings"),
        (4, [1.0, -0.5, 1.0, 1.0], "ratings must be non-negative"),
    ])
    def test_rejected_inputs(self, n_refs, ratings, message):
        refs = [vib(np.full(10, 0.1))] * n_refs
        with pytest.raises(ValueError, match=f"^{message}$"):
            blend_targets(refs, ratings)

    def test_all_zero_ratings(self):
        refs = [vib(np.zeros(10) + 0.1)] * 4
        with pytest.raises(ValueError):
            blend_targets(refs, [0, 0, 0, 0])

    @pytest.mark.parametrize("ratings, shown", [
        ([np.nan, 1, 1, 1], r"\[nan, 1\.0, 1\.0, 1\.0\]"),
        ([np.inf, 1, 1, 1], r"\[inf, 1\.0, 1\.0, 1\.0\]"),
        ([1e308, 1e308, 1, 1], r"\[1e\+308, 1e\+308, 1\.0, 1\.0\]"),
    ])
    def test_ratings_without_finite_sum_are_named(self, ratings, shown):
        refs = [vib(np.full(10, 0.1))] * 4
        with pytest.raises(ValueError, match=f"^ratings {shown} must have a finite sum$"):
            blend_targets(refs, ratings)

    def test_large_finite_ratings(self):
        refs = [vib(np.full(10, v)) for v in (0.1, 0.2, 0.3, 0.4)]
        out = blend_targets(refs, [8e307] * 2 + [0.0] * 2)
        np.testing.assert_allclose(out.samples, 0.15)


class TestMetrics:
    def test_identical_signals_zero(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 8000)
        report = reconstruction_metrics(x, x.copy())
        assert report.mse <= 1e-12
        assert report.stft_loss <= 1e-6
        assert report.mel_l1 <= 1e-6
        assert report.amp_loss <= 1e-6
        assert report.rmse <= 1e-6

    def test_empty_signals_rejected(self):
        with pytest.raises(ValueError, match="^empty signals$"):
            reconstruction_metrics(np.zeros(0), np.zeros(0))

    def test_constant_offset(self):
        x = np.zeros(4000)
        report = reconstruction_metrics(x + 0.1, x)
        assert report.mse == pytest.approx(0.01, abs=1e-12)
        assert report.rmse == pytest.approx(0.1, abs=1e-12)

    def test_mse_matches_brute_force(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(-1, 1, 10)
        t = rng.uniform(-1, 1, 10)
        report = reconstruction_metrics(p, t)
        brute = sum((a - b) ** 2 for a, b in zip(p, t)) / 10
        assert report.mse == brute

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(-0.5, 0.5, 4096)
        t = rng.uniform(-0.5, 0.5, 4096)
        base = reconstruction_metrics(p, t)
        scaled = reconstruction_metrics(1.7 * p, 1.7 * t)
        assert scaled.rmse == pytest.approx(1.7 * base.rmse, rel=1e-9)
        assert scaled.amp_loss == pytest.approx(1.7 * base.amp_loss, rel=1e-9)
        assert scaled.mse == pytest.approx(1.7**2 * base.mse, rel=1e-9)

    def test_silence_vs_silence_is_zero_not_nan(self):
        report = reconstruction_metrics(np.zeros(4000), np.zeros(4000))
        for value in asdict(report).values():
            assert value == 0.0

    def test_finite_for_finite_inputs(self):
        rng = np.random.default_rng(8)
        report = reconstruction_metrics(rng.uniform(-1, 1, 3000), np.zeros(3000))
        assert all(np.isfinite(v) for v in asdict(report).values())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_metrics(np.zeros(10), np.zeros(11))


def _padded_stft_mag(x, fft_size):
    """Hann-windowed magnitude STFT, hop fft_size // 4, of x zero-padded to at least one frame."""
    x = np.pad(x, (0, max(0, fft_size - len(x))))
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(fft_size) / fft_size)
    frames = np.lib.stride_tricks.sliding_window_view(x, fft_size)[::fft_size // 4]
    return np.abs(np.fft.rfft(frames * window, axis=1))


def _reference_reconstruction_metrics(p, t, sample_rate=8000):
    """reconstruction_metrics as it was with one STFT pair per use: 8 STFTs a call."""
    def resolution_loss(fft_size):
        mag_p = _padded_stft_mag(p, fft_size)
        mag_t = _padded_stft_mag(t, fft_size)
        norm_t = np.linalg.norm(mag_t)
        convergence = np.linalg.norm(mag_t - mag_p) / max(norm_t, 1e-7)
        log_l1 = float(np.mean(np.abs(np.log(mag_t + 1e-7) - np.log(mag_p + 1e-7))))
        return float(convergence) + log_l1

    diff = p - t
    mse = float(np.mean(diff * diff))
    stft_loss = float(np.mean([resolution_loss(n) for n in (1024, 512, 256)]))
    bank = mel_filterbank(64, 1024, sample_rate)
    mel_p = np.log(_padded_stft_mag(p, 1024) ** 2 @ bank.T + 1e-7)
    mel_t = np.log(_padded_stft_mag(t, 1024) ** 2 @ bank.T + 1e-7)
    return analysis.MetricReport(
        mse=mse, stft_loss=stft_loss, mel_l1=float(np.mean(np.abs(mel_p - mel_t))),
        amp_loss=float(abs(np.sqrt(np.mean(p * p)) - np.sqrt(np.mean(t * t)))),
        rmse=float(np.sqrt(mse)))


class TestMetricsStfts:
    @pytest.mark.parametrize("n", [8000, 16000, 24000, 300])
    def test_equal_to_one_stft_pair_per_use(self, n):
        rng = np.random.default_rng(n)
        t = rng.uniform(-1, 1, n) * np.hanning(n)
        p = t + 0.1 * rng.standard_normal(n)
        assert reconstruction_metrics(p, t) == _reference_reconstruction_metrics(p, t)
        assert reconstruction_metrics(p, t, 16000) == _reference_reconstruction_metrics(p, t, 16000)

    def test_one_stft_per_signal_and_fft_size(self, monkeypatch):
        sizes = []
        real_stft = analysis.stft

        def counting_stft(signal, fft_size, hop):
            sizes.append(fft_size)
            return real_stft(signal, fft_size, hop)

        monkeypatch.setattr(analysis, "stft", counting_stft)
        x = np.random.default_rng(0).uniform(-1, 1, 8000)
        reconstruction_metrics(x, 0.5 * x)
        assert sorted(sizes) == [256, 256, 512, 512, 1024, 1024]
