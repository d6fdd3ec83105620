"""Crash injection: a ledger directory survives its writer failing at any write.

Every write into a ledger directory goes through ledger.write_file. These
tests patch each binding of it so that its k-th call raises OSError, either
before writing anything or after writing half of its data (a torn write),
for every k a command reaches. The next commands must then find the old
epoch or the new one, never a directory they cannot read, and an upload
that never committed must run again. A commit is a pack append followed
by the rename of its epoch file, which holds the operation's line. A torn
pack entry committed nothing, and recover cuts it; a torn epoch file
leaves a ``.tmp`` that no command reads.
"""

import os
import re
import shutil

import pytest

from cloudledger import cli, load_ledger
from cloudledger import ledger as ledger_module
from helpers import make_committed_state

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
    "upload": ["config", "cluster.state", "blocks.pack", "0.snapshot"],
    "append": ["blocks.pack", "2.snapshot", "cluster.state"],
    "update": ["blocks.pack", "2.snapshot", "cluster.state"],
    "delete": ["2.snapshot", "cluster.state"],
    "tamper": ["blocks.pack", "cluster.state"],
    "crash": ["cluster.state"],
    "recover": ["cluster.state"],
}
# What recover says on stderr when it cuts a torn tail off the pack.
PACK_CUT = "blocks.pack ends in a partial entry"
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

    def write_file(directory, name, data, append=False):
        names.append(name)
        if len(names) == k:
            half = data[: len(data) // 2]
            if torn and append:
                real_write_file(directory, name, half, append=True)
            elif torn:
                directory.mkdir(parents=True, exist_ok=True)
                (directory / f"{name}.tmp").write_bytes(half)
            raise OSError(f"injected failure at write {k} ({name})")
        real_write_file(directory, name, data, append)

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
        if torn and name != "blocks.pack":
            # A torn replace leaves the old file and a partial .tmp beside it.
            assert (directory / f"{name}.tmp").exists()
            assert content(directory / name) == before
        capsys.readouterr()

        recovered = run_cli(directory, "recover")
        out, err = capsys.readouterr()
        assert (PACK_CUT in err) == (torn and name == "blocks.pack" and old_epoch is not None), err
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
    ledger_module.write_file(tmp_path, "config", b"old\n")

    def failing_replace(source, target):
        raise OSError("injected failure at rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        ledger_module.write_file(tmp_path, "config", b"new\n")
    assert (tmp_path / "config").read_bytes() == b"old\n"
    assert (tmp_path / "config.tmp").read_bytes() == b"new\n"


def test_an_empty_pack_left_by_a_failed_append_still_gets_its_header(tmp_path):
    directory = tmp_path / "ledger"
    ledger_module.write_file(directory, "blocks.pack", b"", append=True)
    _, ledger = make_committed_state(b"abcdefgh", 2, 2, directory=directory)
    assert load_ledger(directory).points == ledger.points


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
    # The snapshot of the old epoch, after its operation line.
    (directory / "cluster.state").write_bytes((directory / f"{old_epoch}.snapshot").read_bytes().split(b"\n", 1)[1])
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


def test_recover_cuts_a_torn_pack_tail_and_read_commands_exit_2_before(base, tmp_path, capsys):
    directory = tmp_path / "ledger"
    old_epoch = start_from(base, "append", directory)
    pack = directory / "blocks.pack"
    whole = pack.read_bytes()
    entry = b"%s 5\nabcde\n" % (b"0" * 64)
    for torn in (entry[:10], entry[:64], entry[:67], entry[:-3], entry[:-1]):
        pack.write_bytes(whole + torn)
        assert run_cli(directory, "verify") == 2
        assert f"blocks.pack ends in a partial entry at byte {len(whole)}" in capsys.readouterr().err
        assert run_cli(directory, "recover") == 0
        out, err = capsys.readouterr()
        assert out == f"INTACT epoch={old_epoch}\n" and "which committed nothing; cut it" in err, err
        assert pack.read_bytes() == whole
    assert run_cli(directory, *COMMANDS["append"]) == 0
    assert run_cli(directory, "verify") == 0


@pytest.mark.parametrize("broken", [b"zz" + b"0" * 62 + b" 1\nx\n", b"0" * 64 + b" 1\nxy"],
                         ids=["bad-header", "no-lf-after-payload"])
def test_recover_keeps_a_malformed_pack_entry_that_is_not_a_torn_tail(base, tmp_path, capsys, broken):
    directory = tmp_path / "ledger"
    start_from(base, "append", directory)
    pack = directory / "blocks.pack"
    damaged = pack.read_bytes() + broken
    pack.write_bytes(damaged)
    assert run_cli(directory, "recover") == 2
    assert re.search(r"bad blocks.pack entry header|entry at byte \d+ is cut short", capsys.readouterr().err)
    assert pack.read_bytes() == damaged


def test_recover_cuts_nothing_when_a_corrupt_entry_only_looks_like_a_torn_tail(base, tmp_path, capsys):
    """A weight raised past the end of the pack makes a committed entry
    look torn; cutting there would drop committed blocks, so recover
    exits 2 and leaves every file as it was."""
    directory = tmp_path / "ledger"
    start_from(base, "append", directory)
    pack = directory / "blocks.pack"
    data = pack.read_bytes()
    entry = re.compile(rb"[0-9a-f]{64} ([0-9]+)\n").search(data, len(ledger_module.PACK_HEADER))
    pack.write_bytes(data[: entry.end(1)] + b"0000" + data[entry.end(1) :])
    before = files(directory)
    assert run_cli(directory, "recover") == 2
    err = capsys.readouterr().err
    assert f"blocks.pack ends in a partial entry at byte {entry.start()}" in err, err
    assert "but recover cuts nothing" in err and "which the store lacks" in err, err
    assert files(directory) == before


@pytest.mark.parametrize("name", ["blocks.pack", "2.snapshot"])
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
    assert out == f"INTACT epoch={old_epoch}\n" and (PACK_CUT in err) == (name == "blocks.pack"), err
    assert run_cli(directory, "history") == 0
    assert [line.split(" ")[:2] for line in capsys.readouterr().out.splitlines()] == [["1", "APPEND"]]
    assert run_cli(directory, *COMMANDS["append"]) == 0
    capsys.readouterr()
    assert run_cli(directory, "history") == 0
    assert [line.split(" ")[:2] for line in capsys.readouterr().out.splitlines()] == [["1", "APPEND"], ["2", "APPEND"]]


def test_recover_cuts_no_pack_tail_the_live_cluster_needs(base, tmp_path, capsys):
    """A flip-byte appends its block to the pack, and only cluster.state
    names it; a pack cut inside that entry leaves the ledger loadable but
    not the live cluster, so recover exits 2 and writes nothing."""
    directory = tmp_path / "ledger"
    start_from(base, "append", directory)
    pack = directory / "blocks.pack"
    whole = pack.read_bytes()
    assert run_cli(directory, *COMMANDS["tamper"]) == 0
    tampered = pack.read_bytes()
    pack.write_bytes(tampered[: len(tampered) - 4])
    before = files(directory)
    assert run_cli(directory, "recover") == 2
    err = capsys.readouterr().err
    assert f"blocks.pack ends in a partial entry at byte {len(whole)}" in err, err
    assert "but recover cuts nothing" in err and "which the store lacks" in err, err
    assert files(directory) == before


@pytest.fixture(scope="module")
def three_epochs(base, tmp_path_factory):
    directory = tmp_path_factory.mktemp("three") / "ledger"
    shutil.copytree(base[None], directory)
    assert run_cli(directory, *COMMANDS["update"]) == 0
    return directory


@pytest.mark.parametrize("torn", [("blocks.pack",)], ids="+".join)
def test_torn_tails_in_combination(three_epochs, tmp_path, capsys, torn):
    """Every appended file torn at once, as a crash leaves it: the pack is
    the one file a command appends to. Read commands and history refuse
    its torn tail; recover cuts it, naming it, and keeps every epoch."""
    directory = tmp_path / "ledger"
    shutil.copytree(three_epochs, directory)
    clean = files(directory)
    for name in torn:
        (directory / name).write_bytes(clean[name] + b"%s 5\nab" % (b"0" * 64))
    capsys.readouterr()
    for command in ("verify", "history"):
        assert run_cli(directory, command) == 2, command
        assert PACK_CUT in capsys.readouterr().err, command
    assert run_cli(directory, "recover") == 0
    out, err = capsys.readouterr()
    assert out == "INTACT epoch=2\n"
    assert err.count("which committed nothing; cut it") == 1 and PACK_CUT in err, err
    assert run_cli(directory, "verify") == 0 and run_cli(directory, "history") == 0
    assert load_ledger(directory).points == load_ledger(three_epochs).points
    assert (directory / "blocks.pack").read_bytes() == clean["blocks.pack"]
