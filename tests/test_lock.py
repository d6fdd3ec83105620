"""One writer at a time: every command holds flock on the ledger directory.

Two appends run at once on one ledger must both commit, one after the
other, at epochs 1 and 2. In the test the first append sleeps inside each
ledger.write_file call, after its load: without the lock the second loads
epoch 0 meanwhile and both commit epoch 1, one replacing the other. Two
uploads into one new directory must commit one: the other exits 3, as
into any directory that holds a ledger. An upload makes the directory to
lock it; without that the second finds no directory while the first
sleeps in its first write, and both exit 0, one upload lost. Run as a
script, each seeded try races two appends on a fresh ledger and two
uploads into a new directory, two processes at once, and checks that
verify, history and recover exit 0 with what should have committed:

    PYTHONPATH=src python -X dev -W error tests/test_lock.py [tries] [seed]
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cloudledger
from cloudledger import cli

FLAGS = ("--servers", "3", "--block-size", "16", "--seed", "5")
ENV = {**os.environ, "PYTHONPATH": str(Path(cloudledger.__file__).parents[1])}
# The CLI in a child process. Once imported, it waits for the file argv[3]
# to exist, if that is not "-"; its ledger.write_file first touches the
# marker file argv[1], then sleeps argv[2] seconds. The CLI's argv follows.
DELAYED_CLI = """
import sys, time
from pathlib import Path
from cloudledger import cli, ledger
real_write_file = ledger.write_file
def write_file(*args, **kwargs):
    Path(sys.argv[1]).touch()
    time.sleep(float(sys.argv[2]))
    real_write_file(*args, **kwargs)
ledger.write_file = write_file
while sys.argv[3] != "-" and not Path(sys.argv[3]).exists():
    time.sleep(0.001)
sys.exit(cli.run(sys.argv[4:]))
"""


def run_cli(directory, *argv, flags=FLAGS):
    """cli.run in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([*flags, "--ledger-dir", str(directory), *argv])
    return code, out.getvalue()


def start_cli(directory, argv, marker, delay, go):
    return subprocess.Popen(
        [sys.executable, "-c", DELAYED_CLI, str(marker), str(delay), str(go), "--ledger-dir", str(directory), *argv],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def start_append(directory, server, size, marker, delay=0.0, go="-"):
    return start_cli(directory, [*FLAGS, "append", "--server", str(server), "--gen-bytes", str(size)],
                     marker, delay, go)


def start_upload(directory, servers, size, marker, delay=0.0, go="-"):
    return start_cli(directory, ["--servers", str(servers), "--block-size", "16", "upload", "--gen-bytes", str(size)],
                     marker, delay, go)


def finish(directory, appends):
    """Wait for the appends on ``directory``; return what went wrong with them or with the ledger after them."""
    results = [(append.communicate(timeout=120), append.returncode) for append in appends]
    if [code for _, code in results] != [0, 0]:
        return f"append exit codes {[code for _, code in results]}: {[err for (_, err), _ in results]}"
    printed = sorted(out.split(" ")[0] for (out, _), _ in results)
    if printed != ["1", "2"]:
        return f"the appends committed epochs {printed}"
    code, history = run_cli(directory, "history")
    epochs = [line.split(" ")[:2] for line in history.splitlines()]
    if code != 0 or epochs != [["1", "APPEND"], ["2", "APPEND"]]:
        return f"history exit {code}: {history!r}"
    for command in ("verify", "recover"):
        code, out = run_cli(directory, command)
        if code != 0:
            return f"{command} exit {code}: {out!r}"
    return None


def finish_uploads(directory, uploads, servers):
    """Wait for the uploads into ``directory``, of ``servers`` servers each;
    return what went wrong unless one committed, the other exited 3 having
    printed nothing, and the ledger is the committed one's."""
    results = [(upload.communicate(timeout=120), upload.returncode) for upload in uploads]
    codes = [code for _, code in results]
    if sorted(codes) != [0, 3]:
        return f"upload exit codes {codes}: {[err for (_, err), _ in results]}"
    (out, _), _ = results[codes.index(0)]
    (lost, err), _ = results[codes.index(3)]
    if lost or "is not empty" not in err:
        return f"the refused upload printed {lost!r} and {err!r}"
    winner = servers[codes.index(0)]
    if not out.startswith("UPLOAD bytes=") or f" servers={winner} " not in out.splitlines()[0]:
        return f"the upload that committed printed {out!r}"
    code, report = run_cli(directory, "report", flags=())
    if code != 0 or not report.startswith(f"REPORT epoch=0 servers={winner} "):
        return f"report exit {code}: {report!r}"
    for command in ("verify", "history", "recover"):
        code, out = run_cli(directory, command, flags=())
        if code != 0:
            return f"{command} exit {code}: {out!r}"
    return None


def test_two_uploads_into_one_new_directory_commit_one(tmp_path):
    """The second upload starts while the first sleeps in its first write:
    the directory the first made is locked, so the second waits for it,
    finds a ledger and exits 3."""
    directory = tmp_path / "ledger"
    marker = tmp_path / "writing"
    first = start_upload(directory, 3, 100, marker, delay=1.5)
    deadline = time.monotonic() + 60
    while not marker.exists():
        assert first.poll() is None and time.monotonic() < deadline, first.communicate()
        time.sleep(0.01)
    second = start_upload(directory, 4, 120, tmp_path / "unused")
    assert finish_uploads(directory, [first, second], [3, 4]) is None
    assert first.returncode == 0


def test_two_appends_at_once_commit_one_after_the_other(tmp_path):
    """The second append starts while the first sleeps in its first write,
    past its load, so without the lock both would load epoch 0."""
    directory = tmp_path / "ledger"
    assert run_cli(directory, "upload", "--gen-bytes", "100")[0] == 0
    marker = tmp_path / "writing"
    first = start_append(directory, 0, 20, marker, delay=1.5)
    deadline = time.monotonic() + 60
    while not marker.exists():
        assert first.poll() is None and time.monotonic() < deadline, first.communicate()
        time.sleep(0.01)
    second = start_append(directory, 1, 20, tmp_path / "unused")
    assert finish(directory, [first, second]) is None


def main(tries=20, seed=12):
    """Each try starts two appends on a fresh ledger, lets them import, then
    lets them run at the same moment, and then two uploads into a new
    directory the same way; the payload sizes, servers and server counts
    are seeded."""
    rng = random.Random(seed)
    failures = 0
    with tempfile.TemporaryDirectory() as root:
        for attempt in range(tries):
            directory, go = Path(root) / f"try{attempt}", Path(root) / f"go{attempt}"
            assert run_cli(directory, "upload", "--gen-bytes", str(rng.randrange(40, 200)))[0] == 0
            appends = [start_append(directory, rng.randrange(3), rng.randrange(1, 40), Path(root) / "unused",
                                    go=go) for _ in range(2)]
            time.sleep(0.5)
            go.touch()
            appended = finish(directory, appends)
            directory, go = Path(root) / f"upload{attempt}", Path(root) / f"go-upload{attempt}"
            servers = rng.sample(range(1, 6), 2)
            uploads = [start_upload(directory, count, rng.randrange(40, 200), Path(root) / "unused", go=go)
                       for count in servers]
            time.sleep(0.5)
            go.touch()
            broken = [problem for problem in (appended, finish_uploads(directory, uploads, servers)) if problem]
            if broken:
                failures += 1
                print(f"try {attempt}: {'; '.join(broken)}")
    print(f"{tries} tries of two concurrent appends and two concurrent uploads, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
