"""The CSV reader behind load_ratings and load_manifest: the split and csv.reader paths agree.

read_csv splits a plain file at "\\n" and ","; any other file goes through
curation._read_csv_stream, the csv.reader path. Each case here is read by
each loader both ways and must give the same columns, or the same error type
and message.
"""

from __future__ import annotations

import csv

import pytest

from hapticwave import curation
from hapticwave.analysis import load_ratings
from hapticwave.curation import load_manifest
from hapticwave.fixtures import manifest_fixture_path, ratings_fixture_path

from test_input_mutations import N_MUTANTS, _head, _mutants

RATINGS = ["clip_id,algorithm,rater_id,rating", "c1,plm,r1,10", "c1,pitch,r1,20", "c2,plm,r1,30"]
MANIFEST = ["clip_id,path,class_id,class_name,category_id", "c1,a/c1.wav,0,dog,1",
            "c2,a/c2.wav,1,cat,2", "c3,a/c3.wav,2,cow,3"]
LOADERS = pytest.mark.parametrize("loader, lines", [(load_ratings, RATINGS),
                                                    (load_manifest, MANIFEST)],
                                  ids=["ratings", "manifest"])


def outcome(loader, path):
    """What loader(path) gives: its columns, or its error's type and message."""
    try:
        result = loader(path)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc), str(exc)
    if loader is load_manifest:
        return [vars(e) for e in result.entries]
    return (list(result.clip_id), result.algorithm.tolist(), list(result.rater_id),
            result.rating.tolist())


def read_both_ways(loader, path, monkeypatch):
    """loader(path)'s outcome, and its outcome when the file goes through csv.reader."""
    split = outcome(loader, path)
    with monkeypatch.context() as patch:
        patch.setattr(curation, "_plain_lines", lambda path: None)
        streamed = outcome(loader, path)
    return split, streamed


def _with(lines, row, text):
    """lines with line `row` replaced by text."""
    return lines[:row] + [text] + lines[row + 1:]


def _quote_second(row, text):
    """row with text appended to its second field, and that field quoted."""
    first, second, rest = row.split(",", 2)
    return f'{first},"{second}{text}",{rest}'


def _cases(lines):
    """(id, file bytes, whether the reader splits it) for a valid table given as lines."""
    lf = "\n".join(lines) + "\n"
    # 9 KB of rows, more than the streamed file's first read of 8 KiB
    filler = "".join(f"{i}{lines[1][2:]}\n" for i in range(9000 // len(lines[1])))
    return [
        ("lf", lf.encode(), True),
        ("crlf", ("\r\n".join(lines) + "\r\n").encode(), True),
        ("lone-cr", ("\r".join(lines) + "\r").encode(), False),
        ("cr-before-crlf", lf.replace("\n", "\r\r\n", 1).encode(), False),
        ("no-final-newline", "\n".join(lines).encode(), True),
        ("quoted-comma", "\n".join(_with(lines, 2, _quote_second(lines[2], "a,b"))).encode(),
         False),
        ("quoted-quote", "\n".join(_with(lines, 2, _quote_second(lines[2], 'a""b'))).encode(),
         False),
        ("quoted-newline", "\n".join(_with(lines, 2, _quote_second(lines[2], "a\nb"))).encode(),
         False),
        ("quoted-rows", "\n".join(
            [lines[0]] + ['"' + line.replace(",", '","') + '"' for line in lines[1:]]).encode(),
         False),
        ("stray-quote", lf.replace("c1", 'c"1', 1).encode(), False),
        ("nul", lf.replace("c1", "c\x001", 1).encode(), False),
        ("empty", b"", True),
        ("bom-only", b"\xef\xbb\xbf", True),
        ("bom", b"\xef\xbb\xbf" + lf.encode(), True),
        ("blank-first-line", ("\n" + lf).encode(), True),
        ("crlf-blank-first-line", ("\r\n" + lf).encode(), True),
        ("blank-lines-inside", ("\n\n".join(lines) + "\n\n\n").encode(), True),
        ("crlf-blank-lines-inside", "\r\n\r\n".join(lines).encode(), True),
        ("whitespace-line", "\n".join(_with(lines, 2, "   ")).encode(), True),
        ("whitespace-first-line", (" \n" + lf).encode(), True),
        ("tab-last-line", (lf + "\t\n").encode(), True),
        ("vt-ff-in-fields", lf.replace("c1", "c\x0b1\x0c", 1).encode(), True),
        ("nel-ls-ps-in-fields", lf.replace("c2", "c\x85\u20282\u2029", 1).encode(), True),
        ("fs-gs-rs-in-fields", lf.replace("r1", "r\x1c\x1d\x1e1", 1).encode(), True),
        ("trailing-comma", "\n".join(_with(lines, 2, lines[2] + ",")).encode(), True),
        ("leading-spaces", "\n".join(_with(lines, 2, " " + lines[2].replace(",", ", ")))
         .encode(), True),
        ("ragged-short", "\n".join(_with(lines, 2, lines[2].rsplit(",", 1)[0])).encode(), True),
        ("ragged-long", "\n".join(_with(lines, 3, lines[3] + ",x,y")).encode(), True),
        ("ragged-after-blank", "\n\n".join(_with(lines, 3, "x")).encode(), True),
        ("long-header", "\n".join(_with(lines, 0, lines[0] + ",extra")).encode(), True),
        ("short-header", "\n".join(_with(lines, 0, lines[0].rsplit(",", 1)[0])).encode(), True),
        ("early-non-utf8", lf.replace("c1", "c\xe9", 1).encode("latin-1"), False),
        ("late-non-utf8-after-ragged",
         ("\n".join(_with(lines, 2, "x")) + "\n" + filler).encode() + b"\xe9\n", False),
        ("late-non-utf8", (lf + filler).encode() + b"c\xe9,x\n", False),
        ("encoded-surrogate", lf.encode() + b"\xed\xa0\x80\n", False),
        ("long-file", (lf + filler).encode(), True),
    ]


@LOADERS
@pytest.mark.parametrize("case", range(len(_cases(RATINGS))))
def test_crafted_files_read_as_the_csv_path_reads_them(tmp_path, monkeypatch, loader, lines,
                                                       case):
    name, data, plain = _cases(lines)[case]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    assert (curation._plain_lines(path) is not None) == plain, name
    split, streamed = read_both_ways(loader, path, monkeypatch)
    assert split == streamed, name


def test_a_ragged_row_is_reported_before_a_late_non_utf8_byte(tmp_path):
    # csv.reader meets the ragged row in the rows of the first 8 KiB, before the bad byte
    name, data, _ = next(case for case in _cases(RATINGS)
                         if case[0] == "late-non-utf8-after-ragged")
    assert data.index(b"\xe9") > 8192
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    assert outcome(load_ratings, path) == (curation.SchemaError,
                                           f"{path}:3: expected 4 fields, got 1")


@LOADERS
@pytest.mark.parametrize("lowered", ["to-the-longest-line", "below-the-longest-line",
                                     "below-the-longest-field"])
def test_a_line_over_the_field_size_limit_goes_through_csv(tmp_path, monkeypatch, loader, lines,
                                                           lowered):
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    longest_line = max(map(len, lines))
    longest_field = max(len(field) for line in lines for field in line.split(","))
    limit = {"to-the-longest-line": longest_line, "below-the-longest-line": longest_line - 1,
             "below-the-longest-field": longest_field - 1}[lowered]
    old_limit = csv.field_size_limit(limit)
    try:
        plain = curation._plain_lines(path) is not None
        split, streamed = read_both_ways(loader, path, monkeypatch)
    finally:
        csv.field_size_limit(old_limit)
    assert plain == (lowered == "to-the-longest-line")
    assert split == streamed
    if lowered == "below-the-longest-field":
        assert split[1].endswith(f"field larger than field limit ({limit})")
    else:
        assert split == outcome(loader, path)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("data, header", [(b"", None), (b"\xef\xbb\xbf", None), (b"\n", []),
                                          (b"\r\n", []), (b"\n\na,b\n", []), (b" \n", [" "]),
                                          (b",\n1,2\n", ["", ""])])
def test_header_of_an_empty_file_or_a_blank_first_line(tmp_path, data, header):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    seen = []

    def check_header(header):
        seen.append(header)
        raise _Stop

    for read in (curation.read_csv, curation._read_csv_stream):
        with pytest.raises(_Stop):
            read(path, check_header)
    assert seen == [header, header]


@pytest.mark.parametrize("text", ["a,b\n1,2\n\n3,4\n", "a,b\r\n1,2\r\n3,4", "a,b\n", "a,b"])
def test_both_paths_give_the_header_and_columns(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    seen = []
    split = curation.read_csv(path, seen.append)
    assert split == curation._read_csv_stream(path, seen.append)
    assert split[0] == ["a", "b"] and len(split[1]) == 2
    assert seen == [["a", "b"]] * 2


@pytest.mark.parametrize("loader, fixture, n_lines, seed", [
    (load_ratings, ratings_fixture_path, 33, 5), (load_manifest, manifest_fixture_path, 9, 6),
], ids=["ratings", "manifest"])
def test_every_mutant_reads_as_the_csv_path_reads_it(tmp_path, monkeypatch, loader, fixture,
                                                     n_lines, seed):
    path = tmp_path / "mutant.csv"
    differ = []
    split_path = 0
    for i, mutant in enumerate(_mutants(_head(fixture(), n_lines), seed)):
        path.write_bytes(mutant)
        split_path += curation._plain_lines(path) is not None
        split, streamed = read_both_ways(loader, path, monkeypatch)
        if split != streamed:
            differ.append(f"mutant {i}: {split!r} != {streamed!r}")
    assert differ == []
    assert split_path > N_MUTANTS // 3  # the split path is exercised, not only the fallback


def _raising_reader(*args, **kwargs):
    raise AssertionError("csv.reader called")


@pytest.mark.parametrize("loader, fixture", [(load_ratings, ratings_fixture_path),
                                             (load_manifest, manifest_fixture_path)],
                         ids=["ratings", "manifest"])
def test_bundled_fixtures_are_split_and_quoted_copies_go_through_csv(tmp_path, monkeypatch,
                                                                     loader, fixture):
    expected = outcome(loader, fixture())
    quoted = tmp_path / "quoted.csv"
    with open(fixture(), newline="", encoding="utf-8") as fh, \
            open(quoted, "w", newline="", encoding="utf-8") as out:
        csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(csv.reader(fh))
    assert outcome(loader, quoted) == expected
    monkeypatch.setattr(csv, "reader", _raising_reader)
    assert outcome(loader, fixture()) == expected
    with pytest.raises(AssertionError, match="csv.reader called"):
        loader(quoted)
