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


def test_a_row_is_repeated_in_fresh_directories():
    # each of REPEATS runs writes code.json anew, so each ran in its own
    # directory; the runs agree, and the kept wall is their median
    commands = [["construct", "--field", "p=13", "--n", "3", "--family", "2n-3-plus", "--out", "code.json"]]
    (construct,) = scale_bench.repeat_row("tiny", commands)["commands"]
    assert len(construct["walls_s"]) == scale_bench.REPEATS == 3
    assert construct["wall_s"] == sorted(construct["walls_s"])[1]
    assert construct["runs_agree"] and list(construct["files"]) == ["code.json"]


def test_a_repeated_row_flags_runs_that_differ(monkeypatch):
    # the median wall, every wall and the largest peak RSS are kept; a
    # status or a digest that moves between runs clears runs_agree
    def runs(outputs):
        it = iter(outputs)

        def run_row(name, commands, src):
            wall, rss, status, md5, files = next(it)
            return {"row": name, "commands": [{"argv": commands[0], "status": status, "wall_s": wall,
                                               "maxrss_mb": rss, "stdout_md5": md5, "files": files}]}
        monkeypatch.setattr(scale_bench, "run_row", run_row)
        return scale_bench.repeat_row("fake", [["sweep"]])["commands"][0]

    same = runs([(3.0, 10.0, 0, "a", {"f": "b"}), (1.0, 30.0, 0, "a", {"f": "b"}), (2.0, 20.0, 0, "a", {"f": "b"})])
    assert (same["wall_s"], same["walls_s"], same["maxrss_mb"]) == (2.0, [3.0, 1.0, 2.0], 30.0)
    assert same["runs_agree"]
    for moved in [(2.0, 20.0, 1, "a", {"f": "b"}), (2.0, 20.0, 0, "c", {"f": "b"}), (2.0, 20.0, 0, "a", {"f": "c"})]:
        assert not runs([(1.0, 10.0, 0, "a", {"f": "b"}), (1.0, 10.0, 0, "a", {"f": "b"}), moved])["runs_agree"]
