import hashlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("checks", ROOT / "scripts" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

CONSTRUCT = ["construct", "--field", "p=13", "--n", "3", "--family", "2n-3-plus", "--out", "code.json"]
WROTE = "wrote [6,3] code to code.json\n"
WRONG = "0" * 64


@pytest.mark.parametrize("cmd, check", [
    (checks.cli(*CONSTRUCT, stdout=WRONG), "stdout sha256"),
    (checks.cli(*CONSTRUCT, files={"code.json": WRONG}), "file sha256"),
    (checks.cli(*CONSTRUCT, files={"other.json": WRONG}), "file sha256"),
    (checks.cli("sweep", "--n", "3"), "exit status"),
    (checks.cli("construct", "--field", "p=607", "--n", "101", "--family", "2n-2", "--s", "7", "--beta", "7",
                status=2, stderr={r"^error\[BetaIsNthRoot\]": 1}), "stderr grep -c"),
    (checks.cli(*CONSTRUCT, lines=2), "stdout lines"),
    (checks.cli(*CONSTRUCT, grep={"^wrote": 2}), "stdout grep -c"),
    (checks.py("x = b'x' * (64 << 20)", rss_mb=40), "peak RSS"),
    (checks.py("import time; time.sleep(30)", timeout=1), "timeout"),
], ids=["stdout", "file", "missing-file", "status", "stderr", "lines", "grep", "rss", "timeout"])
def test_a_broken_pin_fails_its_row_by_name(cmd, check):
    # a passing command first, so the row and the command are both named
    with pytest.raises(checks.Mismatch, match=rf"^row 'planted', command 2 \(.*\): {check}: expected"):
        checks.run_row("planted", [checks.cli("example"), cmd])


def test_the_same_pins_hold_when_right():
    # the planted commands above, with their pins set to what they give
    row = checks.run_row("tiny", [
        checks.cli(*CONSTRUCT, stdout=hashlib.sha256(WROTE.encode()).hexdigest(), lines=1,
                   grep={"^wrote": 1, "^nothing$": 0}, rss_mb=200),
        checks.cli("analyze", "--in", "code.json", grep={'^  "d": 4,$': 1}),
        checks.cli("construct", "--field", "p=607", "--n", "101", "--family", "2n-2", "--s", "7", "--beta", "7",
                   status=2, stderr={r"^error\[BadOrder\]": 1, "Traceback": 0}),
        checks.py("print('x')", timeout=30, stdout=hashlib.sha256(b"x\n").hexdigest()),
    ])
    assert [c["status"] for c in row["commands"]] == [0, 0, 2, 0]


def test_an_unknown_pin_is_refused():
    with pytest.raises(TypeError, match="stdot"):
        checks.cli("example", stdot=WRONG)


def running(pid) -> bool:
    """Whether pid is a live process after up to 10 s for it to die; a
    zombie awaiting its reaper is dead."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        if state in ("Z", "X"):
            return False
        time.sleep(0.05)
    return True


def test_a_timed_out_command_leaves_no_process_running(tmp_path):
    # the command and the child it started are both killed, by their group
    pids = tmp_path / "pids"
    code = f"""import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open({str(pids)!r}, "w") as out:
    out.write(f"{{os.getpid()}} {{child.pid}}")
time.sleep(60)
"""
    with pytest.raises(checks.Mismatch, match="timeout: expected exit within 3 s"):
        checks.run_row("sleeper", [checks.py(code, timeout=3)])
    assert [running(pid) for pid in map(int, pids.read_text().split())] == [False, False]


def test_main_runs_ci_rows_or_writes_bench_rows(tmp_path, monkeypatch, capsys):
    # CI runs its rows and stops at the first mismatch with exit 1; --pr runs
    # only the bench rows, each REPEATS times, and writes BENCH_<pr>.json
    digest = hashlib.sha256(WROTE.encode()).hexdigest()
    monkeypatch.setattr(checks, "ROOT", tmp_path)
    monkeypatch.setattr(checks, "ROWS", [
        ("ci passes", checks.CI, [checks.cli("example")]),
        ("ci fails", checks.CI, [checks.cli(*CONSTRUCT, lines=5)]),
        ("never reached", checks.CI, [checks.cli("sweep", "--n", "3")]),
        ("bench", checks.BENCH, [checks.cli(*CONSTRUCT, stdout=digest)]),
    ])
    assert checks.main([]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("ok ci passes: ") and "never reached" not in out + err
    assert err.startswith("FAIL row 'ci fails', command 1 (-m dihedralcodes.cli construct --field p=13")
    assert "stdout lines: expected 5, got 1" in err
    assert checks.main(["--pr", "7"]) == 0
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert [row["row"] for row in doc["rows"]] == ["bench"]
    (construct,) = doc["rows"][0]["commands"]
    assert construct["stdout_sha256"] == digest and len(construct["walls_s"]) == 3 and construct["runs_agree"]
