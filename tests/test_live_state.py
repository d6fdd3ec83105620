"""cluster.state is empty while the live cluster is the last restore point.

save_cluster writes the live cluster's snapshot only when it differs from
the last committed one, and load_cluster reads an empty cluster.state as
the last point's snapshot. So a clean operation or a recover that
restores the last point writes no second copy of it; a pending fault,
a crashed server included, writes the cluster out in full. A full
cluster.state equal to the last snapshot, as earlier versions wrote it,
reads the same.
"""

import shutil

import pytest

from cloudledger import cli, load_ledger

FLAGS = ("--servers", "3", "--block-size", "16", "--seed", "5")


def run_cli(directory, *argv):
    return cli.run([*FLAGS, "--ledger-dir", str(directory), *argv])


def live(directory):
    return (directory / "cluster.state").read_bytes()


def last_snapshot(directory):
    """The last point's snapshot text, as its epoch file holds it after the operation line and the entries."""
    return load_ledger(directory).last().payload_snapshot.encode()


@pytest.fixture
def ledger_dir(tmp_path):
    directory = tmp_path / "ledger"
    assert run_cli(directory, "upload", "--gen-bytes", "100") == 0
    return directory


OPERATIONS = [("append", "--server", "1", "--gen-bytes", "20"),
              ("update", "--server", "0", "--block", "1", "--gen-bytes", "16"),
              ("delete", "--server", "2", "--block", "0")]


@pytest.mark.parametrize("fault", [("tamper", "--kind", "flip-byte", "--server", "1", "--block", "0"),
                                   ("tamper", "--kind", "drop-block", "--server", "2", "--block", "1"),
                                   ("crash", "--server", "0")], ids=["flip-byte", "drop-block", "crash"])
def test_cluster_state_is_empty_after_operations_and_recover_and_full_while_a_fault_is_pending(ledger_dir, capsys,
                                                                                                 fault):
    assert live(ledger_dir) == b""  # the upload writes it empty before its commit
    for operation in OPERATIONS:
        assert run_cli(ledger_dir, *operation) == 0, operation
        assert live(ledger_dir) == b"", operation
    assert run_cli(ledger_dir, *fault) == 0
    assert live(ledger_dir) not in (b"", last_snapshot(ledger_dir))
    capsys.readouterr()
    assert run_cli(ledger_dir, "recover") == 0
    assert capsys.readouterr().out == "RESTORED epoch=3\n"
    assert live(ledger_dir) == b""
    assert run_cli(ledger_dir, "recover") == 0
    assert capsys.readouterr().out == "INTACT epoch=3\n"
    assert live(ledger_dir) == b""


def outputs(directory, capsys):
    capsys.readouterr()
    results = []
    for command in ("verify --report", "report", "audit --epochs 0..2", "history", "recover",
                    "append --server 2 --gen-bytes 9", "verify"):
        results.append((command, run_cli(directory, *command.split()), capsys.readouterr()))
    return results


def test_a_full_cluster_state_equal_to_the_last_snapshot_reads_the_same(ledger_dir, tmp_path, capsys):
    for operation in OPERATIONS[:2]:
        assert run_cli(ledger_dir, *operation) == 0, operation
    written_full = tmp_path / "full"
    shutil.copytree(ledger_dir, written_full)
    (written_full / "cluster.state").write_bytes(last_snapshot(written_full))
    assert outputs(written_full, capsys) == outputs(ledger_dir, capsys)
    assert {p.name: p.read_bytes() for p in written_full.iterdir()} == \
        {p.name: p.read_bytes() for p in ledger_dir.iterdir()}


def test_tamper_and_recover_leave_no_trace(ledger_dir):
    """A pending tamper's blocks are stored only in cluster.state, which
    recover writes empty again: after an append, a tamper and a recover,
    every file in the ledger directory is byte-identical to before the
    tamper."""
    assert run_cli(ledger_dir, *OPERATIONS[0]) == 0
    before = {path.name: path.read_bytes() for path in ledger_dir.iterdir()}
    assert run_cli(ledger_dir, "tamper", "--kind", "flip-byte", "--server", "1", "--block", "0") == 0
    assert live(ledger_dir) != b""
    assert run_cli(ledger_dir, "recover") == 0
    assert {path.name: path.read_bytes() for path in ledger_dir.iterdir()} == before
