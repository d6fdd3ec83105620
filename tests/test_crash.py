"""Crash injection: a ledger directory survives its writer failing at any write.

Every write into a ledger directory goes through ledger.write_file, which
replaces a whole file. These tests patch each binding of it so that its
k-th call raises OSError, either before writing anything or after writing
half of its data to the ``.tmp`` file (a torn write), for every k a command
reaches. The next commands must then find the old epoch or the new one,
never a directory they cannot read, and an upload that never committed
must run again. A commit is the rename of its epoch file, which holds the
operation's line and the blocks it was first to store; a torn write
leaves a ``.tmp`` that no command reads.
"""

import os
import re
import shutil

import pytest

from cloudledger import cli, load_ledger
from cloudledger import ledger as ledger_module
from helpers import rechain

FLAGS = ("--servers", "3", "--block-size", "16", "--seed", "5")
COMMANDS = {
    "upload": ("upload", "--gen-bytes", "100"),
    "append": ("append", "--server", "1", "--gen-bytes", "20"),
    "update": ("update", "--server", "0", "--block", "1", "--gen-bytes", "16"),
    "delete": ("delete", "--server", "2", "--block", "0"),
    "tamper": ("tamper", "--kind", "flip-byte", "--server", "1", "--block", "0"),
    "crash": ("crash", "--server", "1"),
    "recover": ("recover",),
}
# The files each command writes, in order: the snapshot's rename is the commit.
WRITES = {
    "upload": ["cluster.state", "0.snapshot"],
    "append": ["2.snapshot", "cluster.state"],
    "update": ["2.snapshot", "cluster.state"],
    "delete": ["2.snapshot", "cluster.state"],
    "tamper": ["cluster.state"],
    "crash": ["cluster.state"],
    "recover": ["cluster.state"],
}
real_write_file = ledger_module.write_file


def run_cli(directory, *argv):
    return cli.run([*FLAGS, "--ledger-dir", str(directory), *argv])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The directory each command starts from: nothing for upload, a
    2-epoch ledger for the others, and a crashed server for recover."""
    root = tmp_path_factory.mktemp("base")
    ledger = root / "ledger"
    assert run_cli(ledger, *COMMANDS["upload"]) == 0
    assert run_cli(ledger, "append", "--server", "0", "--gen-bytes", "24") == 0
    crashed = root / "crashed"
    shutil.copytree(ledger, crashed)
    assert run_cli(crashed, "crash", "--server", "2") == 0
    return {"upload": root / "absent", "recover": crashed, None: ledger}


@pytest.fixture(scope="module")
def clean_upload(tmp_path_factory):
    """The directory an upload that no write failed leaves."""
    directory = tmp_path_factory.mktemp("clean") / "ledger"
    assert run_cli(directory, *COMMANDS["upload"]) == 0
    return directory


def files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def start_from(base, command, directory):
    source = base.get(command, base[None])
    if source.exists():
        shutil.copytree(source, directory)
    return len(load_ledger(directory).points) - 1 if source.exists() else None


def content(path):
    return path.read_bytes() if path.exists() else None


def inject(monkeypatch, k, torn):
    """Make the k-th call of write_file fail, torn or not; return the names written to."""
    names = []

    def write_file(directory, name, data):
        names.append(name)
        if len(names) == k:
            if torn:
                directory.mkdir(parents=True, exist_ok=True)
                (directory / f"{name}.tmp").write_bytes(data[: len(data) // 2])
            raise OSError(f"injected failure at write {k} ({name})")
        real_write_file(directory, name, data)

    for module in (ledger_module, cli):
        monkeypatch.setattr(module, "write_file", write_file)
    return names


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_writes_its_files_in_commit_order(base, tmp_path, monkeypatch, command):
    start_from(base, command, tmp_path / "ledger")
    names = inject(monkeypatch, 0, torn=False)
    assert run_cli(tmp_path / "ledger", *COMMANDS[command]) == 0
    assert names == WRITES[command]
    assert not list((tmp_path / "ledger").glob("*.tmp"))


@pytest.mark.parametrize("torn", [False, True], ids=["failed", "torn"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_crash_at_any_write_leaves_the_old_epoch_or_the_new(base, clean_upload, tmp_path, monkeypatch, capsys,
                                                               command, torn):
    writes = WRITES[command]
    for k, name in enumerate(writes, start=1):
        directory = tmp_path / f"k{k}"
        old_epoch = start_from(base, command, directory)
        before = content(directory / name)
        inject(monkeypatch, k, torn)
        assert run_cli(directory, *COMMANDS[command]) == 2, (k, name)
        monkeypatch.undo()
        if torn:
            # A torn replace leaves the old file and a partial .tmp beside it.
            assert (directory / f"{name}.tmp").exists()
            assert content(directory / name) == before
        capsys.readouterr()

        recovered = run_cli(directory, "recover")
        out, err = capsys.readouterr()
        if old_epoch is None:
            # An upload that never renamed its snapshot committed nothing,
            # and the same upload then starts the directory over.
            assert recovered == 6 and not (directory / "0.snapshot").exists(), (k, name)
            # Every other command that needs a committed point exits 6 too, and writes nothing.
            left = files(directory) if directory.exists() else None
            others = [argv for other, argv in COMMANDS.items() if other not in ("upload", "recover")]
            for argv in (("verify",), ("report",), ("audit", "--epochs", "0"), *others):
                assert run_cli(directory, *argv) == 6, (k, name, argv)
                assert (files(directory) if directory.exists() else None) == left, (k, name, argv)
            assert run_cli(directory, *COMMANDS["upload"]) == 0, (k, name)
            assert run_cli(directory, "verify") == 0, (k, name)
            assert files(directory) == files(clean_upload), (k, name)
            continue
        committed = f"{old_epoch + 1}.snapshot" in writes[: k - 1]
        assert recovered == 0, (k, name, err)
        assert re.fullmatch(r"(RESTORED|INTACT) epoch=(\d+)\n", out).group(2) == str(old_epoch + committed)
        assert run_cli(directory, "verify") == 0, (k, name)
        first = load_ledger(directory)
        assert load_ledger(directory).points == first.points
        assert run_cli(directory, *COMMANDS["append"]) == 0, (k, name)
        assert load_ledger(directory).points[:-1] == first.points
        assert len(first.points) == old_epoch + committed + 1


def test_a_failed_replace_leaves_the_old_file(tmp_path, monkeypatch):
    ledger_module.write_file(tmp_path, "cluster.state", b"old\n")

    def failing_replace(source, target):
        raise OSError("injected failure at rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        ledger_module.write_file(tmp_path, "cluster.state", b"new\n")
    assert (tmp_path / "cluster.state").read_bytes() == b"old\n"
    assert (tmp_path / "cluster.state.tmp").read_bytes() == b"new\n"


def test_an_operation_failing_after_its_snapshot_leaves_the_new_epoch_readable(base, tmp_path, monkeypatch, capsys):
    """On a clean ledger cluster.state is empty, which reads as the last
    point, so once the snapshot is in place every command sees the new
    epoch. The epoch file holds the operation's line, so history lists the
    new epoch as the operation would have printed it: a crash at the write
    after the snapshot's rename drops no history line."""
    directory = tmp_path / "ledger"
    old_epoch = start_from(base, "append", directory)
    reference = tmp_path / "reference"
    shutil.copytree(directory, reference)
    assert run_cli(reference, *COMMANDS["append"]) == 0
    printed = capsys.readouterr().out
    inject(monkeypatch, WRITES["append"].index(f"{old_epoch + 1}.snapshot") + 2, torn=False)
    assert run_cli(directory, *COMMANDS["append"]) == 2
    monkeypatch.undo()
    capsys.readouterr()
    assert run_cli(directory, "history") == 0
    assert capsys.readouterr().out.splitlines()[-1] == printed.strip()
    assert printed.startswith(f"{old_epoch + 1} APPEND ")
    assert run_cli(directory, "verify") == 0
    assert capsys.readouterr().out == f"VERDICT z=true mode=checksum epoch={old_epoch + 1} divergences=0\n"
    assert run_cli(directory, "report") == 0
    assert capsys.readouterr().out.startswith(f"REPORT epoch={old_epoch + 1} ")
    assert run_cli(directory, *COMMANDS["append"]) == 0


def test_a_live_state_behind_the_ledger_names_recover(base, tmp_path, capsys):
    directory = tmp_path / "ledger"
    old_epoch = start_from(base, "append", directory)
    assert run_cli(directory, *COMMANDS["append"]) == 0
    # A fault at the old epoch: parsed, but not replayed, so no epoch's lack of block 9 fails the load.
    (directory / "cluster.state").write_text(f"HEAD {old_epoch}\nflip-byte server=1 block=9 seed=5\n")
    capsys.readouterr()
    for command in ("verify", "report"):
        assert run_cli(directory, command) == 5, command
        err = capsys.readouterr().err
        assert "recover" in err and f"epoch {old_epoch}" in err and f"epoch {old_epoch + 1}" in err, err
    assert run_cli(directory, "recover") == 0
    assert capsys.readouterr().out == f"RESTORED epoch={old_epoch + 1}\n"
    assert (directory / "cluster.state").read_bytes() == b""
    assert run_cli(directory, "verify") == 0


@pytest.mark.parametrize("recover_first", [False, True], ids=["upload", "recover-then-upload"])
def test_an_upload_torn_at_its_snapshot_commits_nothing(clean_upload, tmp_path, capsys, recover_first):
    """An upload whose 0.snapshot.tmp a crash tore never renamed it: the
    directory committed nothing, recover exits 6 writing nothing, and the
    upload starts it over."""
    directory = tmp_path / "ledger"
    shutil.copytree(clean_upload, directory)
    snapshot = directory / "0.snapshot"
    (directory / "0.snapshot.tmp").write_bytes(snapshot.read_bytes()[:-2])
    snapshot.unlink()
    if recover_first:
        left = files(directory)
        assert run_cli(directory, "recover") == 6
        assert files(directory) == left
    assert run_cli(directory, *COMMANDS["upload"]) == 0
    assert files(directory) == files(clean_upload)
    assert run_cli(directory, *COMMANDS["upload"]) == 3
    assert "it holds 0.snapshot" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["2.snapshot"])
def test_the_journal_follows_a_torn_commit(base, tmp_path, monkeypatch, capsys, name):
    """An operation whose commit a crash tore leaves no epoch file, so
    history lists no line for it, and the operation that commits that epoch
    again is listed once."""
    directory = tmp_path / "ledger"
    old_epoch = start_from(base, "append", directory)
    inject(monkeypatch, WRITES["append"].index(name) + 1, torn=True)
    assert run_cli(directory, *COMMANDS["append"]) == 2
    monkeypatch.undo()
    capsys.readouterr()
    assert run_cli(directory, "recover") == 0
    out, err = capsys.readouterr()
    assert out == f"INTACT epoch={old_epoch}\n" and err == "", err
    assert run_cli(directory, "history") == 0
    assert [line.split(" ")[:2] for line in capsys.readouterr().out.splitlines()] == [["1", "APPEND"]]
    assert run_cli(directory, *COMMANDS["append"]) == 0
    capsys.readouterr()
    assert run_cli(directory, "history") == 0
    assert [line.split(" ")[:2] for line in capsys.readouterr().out.splitlines()] == [["1", "APPEND"], ["2", "APPEND"]]


# What verify, history and recover say of each bad entry edit_first_entry
# makes in 0.snapshot, its chain recomputed. An edit that leaves well-formed
# entries of other bytes is another upload, which only its chain line
# refuses, so it is not rechained (None).
ENTRY_ERRORS = {
    "bad-header": r"at byte \d+ holds 'Z[0-9]*', where a block line or the chain line belongs",
    "no-lf-after-payload": r"entry at byte \d+ is cut short",
    "weight-past-the-next-entry": None,
    "stored-twice": r"stores block [0-9a-f]{64}, which the ledger already stores",
    "not-its-digest": None,
}


def first_entry_at(data):
    """Where an epoch file's first entry starts: after its operation line."""
    return data.index(b"\n") + 1


def whole_entry(data, start):
    """The entry in ``data`` at ``start``, with its weight line, payload and LF."""
    payload = data.index(b"\n", start) + 1
    return data[start : payload + int(data[start : payload - 1]) + 1]


def edit_first_entry(data, kind, other):
    """``data`` with its first entry, which another follows, made bad as
    ``kind`` names; ``other`` is an entry that 0.snapshot holds first."""
    start = first_entry_at(data)
    weight_end = data.index(b"\n", start)
    lf = weight_end + 1 + int(data[start:weight_end])  # where the payload's LF is
    if kind == "bad-header":
        return data[:start] + b"Z" + data[start + 1 :]
    if kind == "no-lf-after-payload":
        return data[:lf] + b"x" + data[lf + 1 :]
    if kind == "weight-past-the-next-entry":  # the payload ends at the next entry's LF
        weight = int(data[start:weight_end]) + len(whole_entry(data, lf + 1))
        return data[:start] + b"%d" % weight + data[weight_end:]
    if kind == "stored-twice":
        return data[:start] + other + data[start:]
    assert kind == "not-its-digest"  # a payload byte flipped: the entry names no digest to fail
    return data[: lf - 1] + bytes([data[lf - 1] ^ 1]) + data[lf:]


@pytest.mark.parametrize("kind", ENTRY_ERRORS)
def test_recover_keeps_a_malformed_pack_entry_that_is_not_a_torn_tail(base, tmp_path, capsys, kind):
    """Every write replaces a whole file, so no ledger file has a torn tail
    to cut, and a bad entry in an epoch file is kept as it is: a malformed
    header, no LF after the payload, a weight raised past the next entry, a
    block the ledger already stores, or a flipped payload byte, the chain
    recomputed unless only the chain refuses the edit. verify, history and
    recover exit 2; recover writes nothing."""
    directory = tmp_path / "ledger"
    start_from(base, "append", directory)
    data = (directory / "0.snapshot").read_bytes()
    (directory / "0.snapshot").write_bytes(edit_first_entry(data, kind, whole_entry(data, first_entry_at(data))))
    error = ENTRY_ERRORS[kind]
    if error is None:
        error = "0.snapshot fails its chain line"
    else:
        rechain(directory)
    before = files(directory)
    capsys.readouterr()
    for command in ("verify", "history", "recover"):
        assert run_cli(directory, command) == 2, command
        err = capsys.readouterr().err
        assert re.search(error, err), (command, err)
        assert files(directory) == before, command


def test_recover_cuts_nothing_when_a_corrupt_entry_only_looks_like_a_torn_tail(base, tmp_path, capsys):
    """A weight raised past the end of its epoch file, its chain recomputed,
    makes the entry look like the torn tail an append could leave; no write
    appends, so every command that loads the ledger exits 2 and recover
    writes nothing."""
    directory = tmp_path / "ledger"
    start_from(base, "append", directory)
    snapshot = directory / "1.snapshot"
    data = snapshot.read_bytes()
    start = first_entry_at(data)
    weight_end = data.index(b"\n", start)
    snapshot.write_bytes(data[:weight_end] + b"0000" + data[weight_end:])
    rechain(directory, 1)
    before = files(directory)
    capsys.readouterr()
    for command in ("verify", "history", "recover"):
        assert run_cli(directory, command) == 2, command
        assert f"1.snapshot entry at byte {start} is cut short" in capsys.readouterr().err, command
    assert files(directory) == before
