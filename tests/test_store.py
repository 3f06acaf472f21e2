import pytest

from commodgen import store
from commodgen.store import DataError


def test_csv_roundtrip_and_bytes(tmp_path):
    path = tmp_path / "t.csv"
    store.write_csv(path, ["a", "b", "c"], [["1", "2.5", ""], ["x", "1e-03", "0"]])
    assert path.read_bytes() == b"a,b,c\n1,2.5,\nx,1e-03,0\n"
    assert store.read_csv(path) == (["a", "b", "c"], [["1", "2.5", ""], ["x", "1e-03", "0"]])


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\na,b\r\n\n1,2\r\n , \n3,4")
    assert store.read_csv(path) == (["a", "b"], [["1", "2"], ["3", "4"]])


def test_read_csv_rejects_ragged_empty_and_non_utf8(tmp_path):
    path = tmp_path / "t.csv"
    for content, fragment in [
        (b"a,b,c\n1,2,3\n\n1,2\n", "t.csv:4: 2 fields, expected 3"),
        (b"a,b\n1,2,3\n", "t.csv:2: 3 fields, expected 2"),
        (b"", "t.csv:1: file is empty"),
        (b"\n \n", "t.csv:1: file is empty"),
        (b"a,b\n1,2\n\xff\xfe,3\n", "t.csv:3: not UTF-8"),
        (b"\xef\xbb\xbfa,b\n1,2\n\xff\xfe,3\n", r"t.csv:3: not UTF-8 .* at byte 11\)"),
        (b"a,b\n\"" + b"x" * 200_000, "t.csv:2: field larger than field limit"),
    ]:
        path.write_bytes(content)
        with pytest.raises(DataError, match=fragment):
            store.read_csv(path)


def test_write_csv_leaves_no_tmp_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("stale\n")
    store.write_csv(path, ["a"], [["1"]])
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert path.read_text() == "a\n1\n"
