"""cluster.state lists the faults since the last restore point, and is empty without one.

save_cluster writes a HEAD line naming the last point's epoch and a line
per fault the live cluster lists, and nothing while it lists none;
load_cluster replays the faults onto the last point. So a clean
operation or a recover that restores the last point writes nothing, and
a pending fault, a crashed server included, writes its HEAD line and one
line per fault, never a copy of the point. A HEAD line with no fault
line reads as the empty file. Every line that is not one the grammar
allows, or a fault the point refuses, fails the load: verify and recover
exit 2 and write nothing.
"""

import re
import shutil

import pytest

from cloudledger import SnapshotCorrupt, cli, load_ledger
from cloudledger.ledger import load_cluster

FLAGS = ("--servers", "3", "--block-size", "16", "--seed", "5")


def run_cli(directory, *argv):
    return cli.run([*FLAGS, "--ledger-dir", str(directory), *argv])


def live(directory):
    return (directory / "cluster.state").read_bytes()


@pytest.fixture
def ledger_dir(tmp_path):
    directory = tmp_path / "ledger"
    assert run_cli(directory, "upload", "--gen-bytes", "100") == 0
    return directory


OPERATIONS = [("append", "--server", "1", "--gen-bytes", "20"),
              ("update", "--server", "0", "--block", "1", "--gen-bytes", "16"),
              ("delete", "--server", "2", "--block", "0")]


@pytest.mark.parametrize("fault, line", [
    (("tamper", "--kind", "flip-byte", "--server", "1", "--block", "0"), b"flip-byte server=1 block=0 seed=5\n"),
    (("tamper", "--kind", "drop-block", "--server", "2", "--block", "1"), b"drop-block server=2 block=1 seed=5\n"),
    (("crash", "--server", "0"), b"crash server=0 block=- seed=5\n"),
], ids=["flip-byte", "drop-block", "crash"])
def test_cluster_state_is_empty_after_operations_and_recover_and_full_while_a_fault_is_pending(ledger_dir, capsys,
                                                                                                 fault, line):
    assert live(ledger_dir) == b""  # the upload writes it empty before its commit
    for operation in OPERATIONS:
        assert run_cli(ledger_dir, *operation) == 0, operation
        assert live(ledger_dir) == b"", operation
    assert run_cli(ledger_dir, *fault) == 0
    assert live(ledger_dir) == b"HEAD 3\n" + line
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
    """A HEAD line naming the last point, with no fault after it, is the
    last point written out: every command reads it as the empty file."""
    for operation in OPERATIONS[:2]:
        assert run_cli(ledger_dir, *operation) == 0, operation
    written_full = tmp_path / "full"
    shutil.copytree(ledger_dir, written_full)
    (written_full / "cluster.state").write_bytes(b"HEAD 2\n")
    assert outputs(written_full, capsys) == outputs(ledger_dir, capsys)
    assert {p.name: p.read_bytes() for p in written_full.iterdir()} == \
        {p.name: p.read_bytes() for p in ledger_dir.iterdir()}


def test_tamper_and_recover_leave_no_trace(ledger_dir):
    """A pending tamper is listed only in cluster.state, which recover
    writes empty again: after an append, a tamper and a recover, every file
    in the ledger directory is byte-identical to before the tamper."""
    assert run_cli(ledger_dir, *OPERATIONS[0]) == 0
    before = {path.name: path.read_bytes() for path in ledger_dir.iterdir()}
    assert run_cli(ledger_dir, "tamper", "--kind", "flip-byte", "--server", "1", "--block", "0") == 0
    assert live(ledger_dir) != b""
    assert run_cli(ledger_dir, "recover") == 0
    assert {path.name: path.read_bytes() for path in ledger_dir.iterdir()} == before


def test_two_flips_of_one_byte_cancel(ledger_dir, capsys):
    """The same flip-byte twice flips the same byte back: cluster.state
    lists both, verify passes on the replayed cluster, and recover finds it
    intact and writes the file empty."""
    assert run_cli(ledger_dir, *OPERATIONS[0]) == 0
    flip = ("tamper", "--kind", "flip-byte", "--server", "1", "--block", "0")
    assert run_cli(ledger_dir, *flip) == 0 and run_cli(ledger_dir, *flip) == 0
    assert live(ledger_dir) == b"HEAD 1\n" + b"flip-byte server=1 block=0 seed=5\n" * 2
    capsys.readouterr()
    assert run_cli(ledger_dir, "verify") == 0 and run_cli(ledger_dir, "recover") == 0
    assert capsys.readouterr().out == "VERDICT z=true mode=checksum epoch=1 divergences=0\nINTACT epoch=1\n"
    assert live(ledger_dir) == b""


PENDING = b"HEAD 1\nflip-byte server=1 block=0 seed=5\n"
# Edits of PENDING, the cluster.state a flip-byte at epoch 1 writes: (pattern, replacement, error).
CLUSTER_STATE_EDITS = {
    "unknown-kind": ("flip-byte", "flip-bit", "holds 'flip-bit server=1 block=0 seed=5', which is no fault line"),
    "no-such-server": ("server=1", "server=3", "holds a flip-byte fault that epoch 1 refuses: no server 3"),
    "no-such-block": ("block=0", "block=9", "holds a flip-byte fault that epoch 1 refuses: no block 9 on server 1"),
    # The crash erases server 1's blocks, so the flip names a block the cluster lacks.
    "block-of-a-crashed-server": ("\nflip", "\ncrash server=1 block=- seed=5\nflip", "refuses: no block 0 on server 1"),
    "flip-without-block": ("block=0", "block=-", "holds 'flip-byte server=1 block=- seed=5', which is no fault line"),
    "crash-with-block": (r"\Z", "crash server=0 block=0 seed=5\n",
                         "holds 'crash server=0 block=0 seed=5', which is no fault line"),
    "server-01": ("server=1", "server=01", "holds 'flip-byte server=01 block=0 seed=5', which is no fault line"),
    "server-non-ascii": ("server=1", "server=\u0661", "block=0 seed=5', which is no fault line"),
    "seed-05": ("seed=5", "seed=05", "holds 'flip-byte server=1 block=0 seed=05', which is no fault line"),
    "seed-2**64": ("seed=5", f"seed={2**64}", f"holds 'flip-byte server=1 block=0 seed={2**64}', which is no fault"),
    "seed-negative": ("seed=5", "seed=-5", "holds 'flip-byte server=1 block=0 seed=-5', which is no fault line"),
    "trailing-space": ("seed=5", "seed=5 ", "holds 'flip-byte server=1 block=0 seed=5 ', which is no fault line"),
    "blank-line": (r"\Z", "\n", "holds '', which is no fault line"),
    "head-twice": ("^", "HEAD 1\n", "holds 'HEAD 1', which is no fault line"),
    "head-01": ("HEAD 1", "HEAD 01", "cluster.state starts with 'HEAD 01', which is no HEAD line"),
    # At most 20 digits, as many as a seed below 2**64 needs, so int() never meets its digit limit.
    "head-21-digits": ("HEAD 1", "HEAD " + "1" * 21, f"starts with 'HEAD {'1' * 21}', which is no HEAD line"),
    "seed-21-digits": ("seed=5", "seed=" + "1" * 21, f"holds 'flip-byte server=1 block=0 seed={'1' * 21}', which is"),
    "head-missing": ("HEAD 1\n", "", "starts with 'flip-byte server=1 block=0 seed=5', which is no HEAD line"),
    "crlf": ("\n", "\r\n", "cluster.state starts with 'HEAD 1\\r', which is no HEAD line"),
    "no-final-lf": ("\n$", "", "ends in 'flip-byte server=1 block=0 seed=5', a line with no LF"),
    # A HEAD behind the ledger is not replayed, but its lines are still parsed.
    "behind-and-unknown-kind": ("HEAD 1\nflip-byte", "HEAD 0\nflip-bit", "holds 'flip-bit server=1 block=0 seed=5'"),
}


@pytest.mark.parametrize("pattern, replacement, error", CLUSTER_STATE_EDITS.values(), ids=CLUSTER_STATE_EDITS)
def test_an_edited_cluster_state_exits_2_and_writes_nothing(ledger_dir, capsys, pattern, replacement, error):
    assert run_cli(ledger_dir, *OPERATIONS[0]) == 0
    assert run_cli(ledger_dir, "tamper", "--kind", "flip-byte", "--server", "1", "--block", "0") == 0
    assert live(ledger_dir) == PENDING
    edited = re.sub(pattern, replacement, PENDING.decode(), count=1).encode()
    assert edited != PENDING
    (ledger_dir / "cluster.state").write_bytes(edited)
    with pytest.raises(SnapshotCorrupt, match=re.escape(error)):
        load_cluster(load_ledger(ledger_dir), 5)
    before = {path.name: path.read_bytes() for path in ledger_dir.iterdir()}
    capsys.readouterr()
    for command in ("verify", "recover"):
        assert run_cli(ledger_dir, command) == 2, command
        assert error in capsys.readouterr().err, command
    assert {path.name: path.read_bytes() for path in ledger_dir.iterdir()} == before
