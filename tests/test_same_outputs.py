import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _path)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


RUN = {"stdout": b"a -> out/a.csv\n", "stderr": b"", "exit_code": b"0\n", "files/out/a.csv": b"time_s,f0_hz\n"}


def test_same_trees_have_no_differences(tmp_path):
    assert same_outputs.differences(tree(tmp_path / "p", RUN), tree(tmp_path / "c", RUN)) == []
    assert same_outputs.differences(tmp_path / "p", tmp_path / "absent") == [
        f"only in parent: {name}" for name in sorted(map(Path, RUN))]


def test_each_kind_of_difference_is_named(tmp_path):
    change = {**RUN, "stderr": b"error: one\nerror: two\n", "exit_code": b"2\n", "files/new.svg": b"<svg/>"}
    del change["files/out/a.csv"]
    found = same_outputs.differences(tree(tmp_path / "p", RUN), tree(tmp_path / "c", change))
    assert found == [
        "differs: exit_code\n  @@ -1 +1 @@\n  -0\n  +2",
        "only in change: files/new.svg",
        "only in parent: files/out/a.csv",
        "differs: stderr\n  @@ -0,0 +1,2 @@\n  +error: one\n  +error: two",
    ]


def test_binary_or_long_files_give_the_first_differing_byte(tmp_path):
    big = bytes(same_outputs.TEXT_MAX_BYTES)
    parent = tree(tmp_path / "p", {"a.wav": b"RIFF\xff\x00", "big.txt": big + b"x"})
    change = tree(tmp_path / "c", {"a.wav": b"RIFF\xfe\x00\x01", "big.txt": big + b"y"})
    assert same_outputs.differences(parent, change) == [
        "differs: a.wav: first at byte 4 (6 and 7 bytes)",
        f"differs: big.txt: first at byte {len(big)} ({len(big) + 1} and {len(big) + 1} bytes)",
    ]


def test_long_diffs_are_cut(tmp_path):
    n = same_outputs.DIFF_LINES + 5
    parent = tree(tmp_path / "p", {"stdout": b""})
    change = tree(tmp_path / "c", {"stdout": b"".join(b"line %d\n" % i for i in range(n))})
    (found,) = same_outputs.differences(parent, change)
    lines = found.split("\n  ")
    assert lines[0] == "differs: stdout" and lines[1] == f"@@ -0,0 +1,{n} @@"
    assert lines[2:-1] == [f"+line {i}" for i in range(same_outputs.DIFF_LINES - 1)]
    assert lines[-1] == "... 6 more lines"
