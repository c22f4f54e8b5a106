"""load_manifest's whole-column checks against the row-by-row loop they replaced.

load_manifest checks the columns at once and walks the rows only to name the
first bad one. Each case here is loaded by it and by _reference_load_manifest
and must give the same columns, or the same error type and message.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from hapticwave.curation import MANIFEST_HEADER, load_manifest, read_csv
from hapticwave.errors import SchemaError
from hapticwave.fixtures import manifest_fixture_path

from conftest import manifest_of
from test_input_mutations import _head, _mutants


def _reference_load_manifest(path):
    """load_manifest as one loop over the rows, each row checked in full before the next."""
    path = Path(path)

    def check_header(header):
        if header != MANIFEST_HEADER:
            raise SchemaError(
                f"{path}: expected header {','.join(MANIFEST_HEADER)}, got {header}")

    _, columns = read_csv(path, check_header)
    rows = []
    seen = set()
    for row_no, (clip_id, clip_path, class_text, class_name, category_text) in enumerate(
            zip(*columns), start=2):
        if clip_id in seen:
            raise SchemaError(f"{path}:{row_no}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        ids = []
        for name, text in (("class_id", class_text), ("category_id", category_text)):
            try:
                ids.append(int(text))
            except ValueError as exc:
                raise SchemaError(f"{path}:{row_no}: {name} {text!r} is not an integer") from exc
        class_id, category_id = ids
        if not 0 <= class_id <= 49:
            raise SchemaError(f"{path}:{row_no}: class_id {class_id} outside 0-49")
        if not 1 <= category_id <= 5:
            raise SchemaError(f"{path}:{row_no}: category_id {category_id} outside 1-5")
        rows.append((clip_id, clip_path, class_id, class_name, category_id))
    if not rows:
        raise SchemaError(f"{path}: empty manifest")
    return manifest_of(rows)


def outcome(loader, path):
    """What loader(path) gives: its columns, or its error's type and message."""
    try:
        return vars(loader(path))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc), str(exc)


def test_the_bundled_fixture_loads_as_the_reference_loads_it():
    expected = outcome(_reference_load_manifest, manifest_fixture_path())
    assert outcome(load_manifest, manifest_fixture_path()) == expected
    assert len(expected["clip_id"]) == 1000


def test_every_mutant_loads_as_the_reference_loads_it(tmp_path):
    path = tmp_path / "mutant.csv"
    differ = []
    kinds = {"loads": 0, "row": 0}
    for i, mutant in enumerate(_mutants(_head(manifest_fixture_path(), 9), 7)):
        path.write_bytes(mutant)
        expected = outcome(_reference_load_manifest, path)
        got = outcome(load_manifest, path)
        if got != expected:
            differ.append(f"mutant {i}: {got!r} != {expected!r}")
        if isinstance(expected, dict):
            kinds["loads"] += 1
        elif any(s in expected[1] for s in ("duplicate", "not an integer", "outside")):
            kinds["row"] += 1
    assert differ == []
    # both clean files and the row walk's messages are exercised (136 and 19 of them)
    assert kinds["loads"] > 100 and kinds["row"] > 10, kinds


HEADER = ",".join(MANIFEST_HEADER)
ROWS = ["a,a.wav,0,dog,1", "b,b.wav,1,cat,1", "c,c.wav,2,cow,2", "d,d.wav,3,hen,3",
        "e,e.wav,4,pig,4"]


def _with(row_no, text, rows=ROWS):
    """ROWS with the row numbered row_no (the header is row 1) replaced by text."""
    return rows[:row_no - 2] + [text] + rows[row_no - 1:]


@pytest.mark.parametrize("rows, message", [
    (ROWS, None),
    (_with(5, "a,d.wav,3,hen,3", _with(3, "b,b.wav,one,cat,1")),
     ":3: class_id 'one' is not an integer"),
    (_with(5, "d,d.wav,3,hen,x", _with(4, "a,c.wav,2,cow,2")), ":4: duplicate clip_id 'a'"),
    (_with(3, "b,b.wav,50,cat,0"), ":3: class_id 50 outside 0-49"),
    (_with(3, "b,b.wav,1,cat,0"), ":3: category_id 0 outside 1-5"),
    (_with(4, "a,c.wav,73,cow,9"), ":4: duplicate clip_id 'a'"),
    (_with(4, "a,c.wav,two,cow,2"), ":4: duplicate clip_id 'a'"),
    (_with(4, "c,c.wav,-1,cow,two"), ":4: category_id 'two' is not an integer"),
    (_with(4, "c,c.wav, 2 ,cow,+2"), None),
    (["", "", ""], ": empty manifest"),
], ids=["clean", "bad-class-before-duplicate", "duplicate-before-bad-category",
        "class-50-and-category-0", "category-0", "duplicate-out-of-range",
        "duplicate-not-an-integer", "both-parsed-before-ranges", "int-spellings",
        "blank-lines-only"])
def test_crafted_files_load_as_the_reference_loads_them(tmp_path, rows, message):
    path = tmp_path / "m.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    expected = outcome(_reference_load_manifest, path)
    assert outcome(load_manifest, path) == expected
    if message is None:
        assert isinstance(expected, dict)
    else:
        assert expected == (SchemaError, f"{path}{message}")
