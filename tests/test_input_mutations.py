"""Seeded byte mutations of each input file type: every mutant loads or raises a typed error.

A mutant is a valid file with a few bytes overwritten, cut short, grown by an
insertion or shortened by a deletion, half of the edits landing in the first
64 bytes, where the headers are. Every loader must either read it or raise a
HapticwaveError (or an OSError); nothing else may escape.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from hapticwave.analysis import load_ratings
from hapticwave.audio_io import load_wav, save_wav
from hapticwave.converters import load_converter_config
from hapticwave.curation import load_manifest
from hapticwave.errors import HapticwaveError
from hapticwave.fixtures import manifest_fixture_path, ratings_fixture_path

from conftest import sine_clip

N_MUTANTS = 1500


def _mutants(data: bytes, seed: int):
    """N_MUTANTS seeded mutations of data."""
    rng = np.random.default_rng(seed)
    for _ in range(N_MUTANTS):
        out = bytearray(data)
        end = 64 if rng.random() < 0.5 else len(out)
        at = int(rng.integers(0, min(end, len(out))))
        kind = rng.integers(4)
        if kind == 0:  # overwrite 1-4 bytes
            for i in rng.integers(at, min(at + 16, len(out)), int(rng.integers(1, 5))):
                out[i] = int(rng.integers(256))
        elif kind == 1:  # cut the file short
            del out[at:]
        elif kind == 2:  # insert 1-16 bytes
            out[at:at] = rng.integers(0, 256, int(rng.integers(1, 17)), dtype=np.uint8).tobytes()
        else:  # delete 1-16 bytes
            del out[at:at + int(rng.integers(1, 17))]
        yield bytes(out)


def _wav_bytes(tmp_path):
    path = tmp_path / "valid.wav"
    save_wav(sine_clip(440.0, duration=2000 / 44100), path)
    return path.read_bytes()


def _head(path, n_lines: int) -> bytes:
    return b"".join(path.read_bytes().splitlines(keepends=True)[:n_lines])


def _config_bytes(tmp_path):
    return json.dumps({"plm": {"carrier_mix": 0.4, "frame_size": 2048},
                       "pitch": {"f_min_hz": 80.0, "f_max_hz": 400.0},
                       "fshift": {"shifts": [-12.0, -24.0]}}, indent=1).encode()


@pytest.mark.parametrize("valid, loader, seed", [
    (_wav_bytes, load_wav, 1),
    (lambda tmp_path: _head(ratings_fixture_path(), 33), load_ratings, 2),
    (lambda tmp_path: _head(manifest_fixture_path(), 9), load_manifest, 3),
    (_config_bytes, load_converter_config, 4),
], ids=["wav", "ratings", "manifest", "config"])
def test_every_mutant_loads_or_raises_a_typed_error(tmp_path, valid, loader, seed):
    data = valid(tmp_path)
    path = tmp_path / "mutant"
    path.write_bytes(data)
    loader(path)  # the unmutated file loads
    escaped = []
    for i, mutant in enumerate(_mutants(data, seed)):
        path.write_bytes(mutant)
        try:
            loader(path)
        except (HapticwaveError, OSError):
            pass
        except Exception as exc:  # noqa: BLE001 - the test collects what escapes
            escaped.append(f"mutant {i}: {type(exc).__name__}: {exc}")
    assert escaped == [], f"{loader.__name__} let untyped errors escape"
