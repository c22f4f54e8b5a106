#!/usr/bin/env python3
"""Regenerate the bundled ratings and manifest fixture CSVs.

Synthesizes a 1000-clip, 4-algorithm, 2-raters-per-clip ratings table whose
aggregate statistics land on the published reference values the acceptance
suite asserts: per-algorithm overall means and SDs, exact clip-level winner
counts (403/288/261/56 with 8 ties), and the fixed class-winner table. The
construction is seeded and fully deterministic; rerunning reproduces the
committed CSVs byte for byte.

Usage: python scripts/generate_ratings_fixture.py [--out-dir src/hapticwave/data]
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hapticwave.analysis import RATING_ALGORITHMS as ALGOS, aggregate, load_ratings  # noqa: E402
from hapticwave.curation import load_manifest  # noqa: E402

A_IDX = {a: i for i, a in enumerate(ALGOS)}

TARGET_MEAN = {"pitch": 62.6, "hapticgen": 57.0, "fshift": 56.9, "plm": 31.2}
TARGET_SD = {"pitch": 22.9, "hapticgen": 23.2, "fshift": 24.3, "plm": 22.9}
WINNER_COUNTS = {"pitch": 403, "fshift": 288, "hapticgen": 261, "plm": 56}
N_TIES = 8
# two-way ties; each tied algorithm's winner count includes the tie
TIE_PAIRS = [("pitch", "fshift")] * 3 + [("pitch", "hapticgen")] * 2 \
    + [("fshift", "hapticgen")] * 3

CLASS_NAMES = {
    0: "dog", 1: "rooster", 2: "pig", 3: "cow", 4: "frog", 5: "cat", 6: "hen",
    7: "insects flying", 8: "sheep", 9: "crow",
    10: "rain", 11: "sea waves", 12: "crackling fire", 13: "crickets",
    14: "chirping birds", 15: "water drops", 16: "wind", 17: "pouring water",
    18: "toilet flush", 19: "thunderstorm",
    20: "crying baby", 21: "sneezing", 22: "clapping", 23: "breathing",
    24: "coughing", 25: "footsteps", 26: "laughing", 27: "brushing teeth",
    28: "snoring", 29: "drinking sipping",
    30: "door knock", 31: "mouse click", 32: "keyboard typing",
    33: "door wood creaks", 34: "can opening", 35: "washing machine",
    36: "vacuum cleaner", 37: "clock alarm", 38: "clock tick",
    39: "glass breaking",
    40: "helicopter", 41: "chainsaw", 42: "siren", 43: "car horn",
    44: "engine", 45: "train", 46: "church bells", 47: "airplane",
    48: "fireworks", 49: "hand saw",
}
_FSHIFT_CLASSES = {10, 18, 20, 21, 24, 35, 36, 41, 44, 47}
_HAPTICGEN_CLASSES = {3, 5, 7, 9, 11, 13, 14, 16, 17, 23, 33, 43, 46}
CLASS_WINNER = {
    c: ("fshift" if c in _FSHIFT_CLASSES
        else "hapticgen" if c in _HAPTICGEN_CLASSES else "pitch")
    for c in range(50)
}
# categories where one algorithm must carry the highest category mean
# (1 = animals and 5 = exterior are left open: reference reports near-ties)
CATEGORY_WINNER = {2: "pitch", 3: "pitch", 4: "pitch"}

SEED = 20250711
OWN_WINS = 12  # strict clip wins the class winner keeps inside its own class
MARGIN = 1.5
CLIPS = [(c, k) for c in range(50) for k in range(20)]
IDX_OF = {cl: i for i, cl in enumerate(CLIPS)}


def clip_id(c: int, k: int) -> str:
    return f"{c:02d}-{k:02d}"


def allocate_winners(rng: np.random.Generator) -> dict[tuple[int, int], object]:
    strict = dict(WINNER_COUNTS)
    for a, b in TIE_PAIRS:
        strict[a] -= 1
        strict[b] -= 1
    assert sum(strict.values()) + N_TIES == 1000

    slots: dict[int, list] = {}
    remaining = dict(strict)
    for c in range(50):
        w = CLASS_WINNER[c]
        slots[c] = [w] * OWN_WINS
        remaining[w] -= OWN_WINS
    assert all(v >= 0 for v in remaining.values())

    pool: list = []
    for a, count in remaining.items():
        pool += [a] * count
    pool += TIE_PAIRS
    rng.shuffle(pool)
    open_slots = [(c, i) for c in range(50) for i in range(OWN_WINS, 20)]
    assert len(pool) == len(open_slots)
    for (c, _), label in zip(open_slots, pool):
        slots[c].append(label)
    return {(c, k): slots[c][k] for c in range(50) for k in range(20)}


def beta_draw(rng: np.random.Generator, mean: float, sd: float, size: int) -> np.ndarray:
    m, s = mean / 100.0, sd / 100.0
    nu = m * (1.0 - m) / (s * s) - 1.0
    return 100.0 * rng.beta(m * nu, (1.0 - m) * nu, size)


def enforce_winners(values: np.ndarray, winner_of: dict) -> np.ndarray:
    for i, cl in enumerate(CLIPS):
        label = winner_of[cl]
        row = values[i].copy()
        order = np.argsort(row)[::-1]
        if isinstance(label, tuple):
            wi = [A_IDX[label[0]], A_IDX[label[1]]]
            top = row[order[0]]
            rest = [j for j in order if j not in wi]
            lower = np.sort(row)[::-1][2:]
            values[i, wi[0]] = values[i, wi[1]] = top
            for j, v in zip(rest, lower):
                values[i, j] = min(v, top - MARGIN)
        else:
            wi = A_IDX[label]
            top = row[order[0]]
            if order[0] != wi:
                values[i, order[0]] = row[wi]
                values[i, wi] = top
            for j in range(4):
                if j != wi and values[i, j] > top - MARGIN:
                    values[i, j] = top - MARGIN
    np.clip(values, 0.0, 100.0, out=values)
    return values


def moment_correct(values: np.ndarray) -> np.ndarray:
    for a in ALGOS:
        col = values[:, A_IDX[a]]
        col = (col - col.mean()) / max(col.std(ddof=1), 1e-9) * TARGET_SD[a] + TARGET_MEAN[a]
        values[:, A_IDX[a]] = np.clip(col, 0.5, 99.5)
    return values


def fix_class_winners(values: np.ndarray, winner_of: dict) -> tuple[np.ndarray, int]:
    repaired = 0
    for c in range(50):
        rows = np.array([IDX_OF[(c, k)] for k in range(20)])
        w = A_IDX[CLASS_WINNER[c]]
        means = values[rows].mean(axis=0)
        if means.argmax() == w and means[w] > np.max(np.delete(means, w)) + 0.05:
            continue
        repaired += 1
        deficit = np.max(np.delete(means, w)) + 0.3 - means[w]
        own = [i for i in rows
               if winner_of[CLIPS[i]] == CLASS_WINNER[c]
               or (isinstance(winner_of[CLIPS[i]], tuple)
                   and CLASS_WINNER[c] in winner_of[CLIPS[i]])]
        for i in own:
            if values[i, w] <= 98.0:
                values[i, w] = min(99.5, values[i, w] + deficit * 20.0 / max(1, len(own)))
        means = values[rows].mean(axis=0)
        for comp in range(4):
            if comp == w or means[comp] < means[w] - 0.05:
                continue
            for i in rows:
                label = winner_of[CLIPS[i]]
                if label != ALGOS[comp] and not (isinstance(label, tuple)
                                                 and ALGOS[comp] in label):
                    values[i, comp] = max(0.5, values[i, comp] - 1.0)
    return values, repaired


def _clip_wins(label, algo: str) -> bool:
    return label == algo or (isinstance(label, tuple) and algo in label)


def fix_category_winners(values: np.ndarray, winner_of: dict) -> tuple[np.ndarray, int]:
    repaired = 0
    for cat, want in CATEGORY_WINNER.items():
        classes = [c for c in range(50) if c // 10 + 1 == cat]
        rows = np.array([IDX_OF[(c, k)] for c in classes for k in range(20)])
        w = A_IDX[want]
        means = values[rows].mean(axis=0)
        if means.argmax() == w and means[w] > np.max(np.delete(means, w)) + 0.15:
            continue
        repaired += 1
        deficit = (np.max(np.delete(means, w)) + 0.4 - means[w]) * len(rows)
        # raise the category winner inside classes and clips it already wins,
        # which cannot disturb the class- or clip-level winner structure
        boost = [IDX_OF[(c, k)] for c in classes if CLASS_WINNER[c] == want
                 for k in range(20) if _clip_wins(winner_of[(c, k)], want)]
        if boost:
            per = min(6.0, 0.6 * deficit / len(boost))
            for i in boost:
                values[i, w] = min(99.5, values[i, w] + per)
        means = values[rows].mean(axis=0)
        comp = int(np.argmax(np.where(np.arange(4) == w, -np.inf, means)))
        remaining = (np.max(np.delete(means, w)) + 0.4 - means[w]) * len(rows)
        drop = [i for i in rows
                if CLASS_WINNER[CLIPS[i][0]] != ALGOS[comp]
                and not _clip_wins(winner_of[CLIPS[i]], ALGOS[comp])]
        if remaining > 0 and drop:
            per = min(4.0, remaining / len(drop))
            for i in drop:
                values[i, comp] = max(0.5, values[i, comp] - per)
    return values, repaired


def repair_quantized(values: np.ndarray, winner_of: dict) -> np.ndarray:
    for i, cl in enumerate(CLIPS):
        label = winner_of[cl]
        if isinstance(label, tuple):
            wi = [A_IDX[label[0]], A_IDX[label[1]]]
            top = max(values[i, wi[0]], values[i, wi[1]])
            values[i, wi[0]] = values[i, wi[1]] = top
            for j in range(4):
                if j not in wi and values[i, j] >= top:
                    values[i, j] = top - 0.5
        else:
            wi = A_IDX[label]
            top = values[i, wi]
            for j in range(4):
                if j != wi and values[i, j] >= top:
                    values[i, j] = top - 0.5
    np.clip(values, 0.0, 100.0, out=values)
    return values


def synthesize() -> np.ndarray:
    rng = np.random.default_rng(SEED)
    winner_of = allocate_winners(rng)
    values = np.column_stack([
        beta_draw(rng, TARGET_MEAN[a], TARGET_SD[a], len(CLIPS)) for a in ALGOS
    ])
    for _ in range(120):
        values = moment_correct(values)
        values = enforce_winners(values, winner_of)
        values, class_repairs = fix_class_winners(values, winner_of)
        values = enforce_winners(values, winner_of)
        values, cat_repairs = fix_category_winners(values, winner_of)
        values = enforce_winners(values, winner_of)
        means_ok = all(abs(values[:, A_IDX[a]].mean() - TARGET_MEAN[a]) < 0.05 for a in ALGOS)
        sds_ok = all(abs(values[:, A_IDX[a]].std(ddof=1) - TARGET_SD[a]) < 0.05 for a in ALGOS)
        if means_ok and sds_ok and class_repairs == 0 and cat_repairs == 0:
            break
    else:
        raise RuntimeError("fixture synthesis did not converge")
    values = np.round(values * 2.0) / 2.0
    return repair_quantized(values, winner_of)


def split_raters(rng: np.random.Generator, value: float) -> tuple[int, int]:
    """Two integer ratings in [0, 100] whose mean is the clip value."""
    if value == int(value):
        base_lo = base_hi = int(value)
    else:
        base_lo, base_hi = int(np.floor(value)), int(np.ceil(value))
    max_spread = min(base_lo, 100 - base_hi, 10)
    spread = int(rng.integers(0, max_spread + 1)) if max_spread > 0 else 0
    return base_lo - spread, base_hi + spread


def write_fixture(values: np.ndarray, out_dir: Path) -> tuple[Path, Path]:
    rng = np.random.default_rng(SEED + 1)
    ratings_path = out_dir / "ratings_fixture.csv"
    manifest_path = out_dir / "clips_manifest.csv"

    with open(manifest_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "path", "class_id", "class_name", "category_id"])
        for c, k in CLIPS:
            cid = clip_id(c, k)
            writer.writerow([cid, f"audio/{cid}.wav", c, CLASS_NAMES[c], c // 10 + 1])

    with open(ratings_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "algorithm", "rater_id", "rating"])
        for i, (c, k) in enumerate(CLIPS):
            cid = clip_id(c, k)
            rater_a = f"P{1 + (2 * i) % 34:02d}"
            rater_b = f"P{1 + (2 * i + 1) % 34:02d}"
            for a in ALGOS:
                lo, hi = split_raters(rng, float(values[i, A_IDX[a]]))
                writer.writerow([cid, a, rater_a, lo])
                writer.writerow([cid, a, rater_b, hi])
    return ratings_path, manifest_path


def verify(ratings_path: Path, manifest_path: Path) -> None:
    table = load_ratings(ratings_path)
    manifest = load_manifest(manifest_path)
    report = aggregate(table, manifest, "class")
    for a in ALGOS:
        mean_err = abs(report.overall.mean[a] - TARGET_MEAN[a])
        sd_err = abs(report.overall.sd[a] - TARGET_SD[a])
        assert mean_err < 0.1, (a, report.overall.mean[a])
        assert sd_err < 0.1, (a, report.overall.sd[a])
    assert report.winner_counts == WINNER_COUNTS, report.winner_counts
    assert report.tie_count == N_TIES, report.tie_count
    for c in range(50):
        assert report.groups[c].winners == (CLASS_WINNER[c],), (c, report.groups[c].winners)
    by_category = aggregate(table, manifest, "category")
    for cat, want in CATEGORY_WINNER.items():
        assert by_category.groups[cat].winners == (want,), (cat, by_category.groups[cat])
    print("fixture verified:")
    print("  means:", {a: round(report.overall.mean[a], 3) for a in ALGOS})
    print("  sds:  ", {a: round(report.overall.sd[a], 3) for a in ALGOS})
    print("  winner counts:", report.winner_counts, "ties:", report.tie_count)
    print("  category winners:", {c: by_category.groups[c].winners[0] for c in range(1, 6)})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir",
                        default=str(Path(__file__).resolve().parents[1]
                                    / "src" / "hapticwave" / "data"))
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values = synthesize()
    ratings_path, manifest_path = write_fixture(values, out_dir)
    verify(ratings_path, manifest_path)
    print("wrote", ratings_path, "and", manifest_path)


if __name__ == "__main__":
    main()
