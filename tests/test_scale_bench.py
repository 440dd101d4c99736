import hashlib
import importlib.util
from pathlib import Path

from dihedralcodes.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("scale_bench", ROOT / "scripts" / "scale_bench.py")
scale_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_bench)


def md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def test_row_runner_measures_each_command_and_digests_its_output(tmp_path, monkeypatch, capsys):
    # a construct --out and the analyze --in that reads its file, in one
    # fresh directory, then a command argparse refuses: each one's status,
    # time, peak RSS and digests, against the same commands run in process
    commands = [["construct", "--field", "p=13", "--n", "3", "--family", "2n-3-plus", "--out", "code.json"],
                ["analyze", "--in", "code.json"], ["sweep", "--n", "3"]]
    row = scale_bench.run_row("tiny", commands)
    assert row["row"] == "tiny" and [c["argv"] for c in row["commands"]] == commands
    assert [c["status"] for c in row["commands"]] == [0, 0, 2]
    assert all(c["wall_s"] > 0 and c["maxrss_mb"] > 1 for c in row["commands"])
    monkeypatch.chdir(tmp_path)
    want = []
    for argv in commands[:2]:
        assert main(argv) == 0
        want.append(md5(capsys.readouterr().out.encode()))
    construct, analyze, refused = row["commands"]
    assert [construct["stdout_md5"], analyze["stdout_md5"]] == want
    assert construct["files"] == {"code.json": md5((tmp_path / "code.json").read_bytes())}
    assert analyze["files"] == refused["files"] == {}
    assert refused["stdout_md5"] == md5(b"")


def test_every_row_is_a_cli_command():
    for name, commands in scale_bench.ROWS:
        assert name and commands
        for argv in commands:
            build_parser().parse_args(argv)
