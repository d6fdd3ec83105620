"""The cost target as exact counts: an operation costs O(delta + block count).

One row per call, counted exactly, so no count can flake. The commit row,
on 4096 records over 8 servers: a commit renders one record line per put
made since the last commit (ServerState.put renders its record's line,
and no snapshot renders a whole server again), and it looks up in the
block store only the block its operation wrote: every server's kept
digest lines are compared with its slice of the last point's snapshot,
so every other block must be the last point's. The load row, on a small
grid of records n and epochs E of a bound ledger: load_ledger and then
load_cluster on an empty cluster.state parse no snapshot and no manifest,
make n puts for the upload and one put or drop per later epoch, render no
record line but those puts' and one snapshot, the last point's, hash
each stored entry once, and hash, for the chain, each epoch file's bytes
before its chain line and the 64-hex chain of the file before it; every
epoch file, 0.snapshot included, is its line, an entry per block it was
first to store, a reference per other block it wrote, and its chain
line. No point, committed or loaded, holds text: its fields are its
manifest and its record's bytes. The read row, on the same 4096 records:
the reads between two writes share one record tuple, the one the commit
froze, so an operation compares record tuples once, in its post-check, a
verify or a recover right after it compares none, and a fault rewrites
the tuple of its own server only. The save row: a save walks no block,
and writes nothing for a cluster that is the last point. The fault row,
through the CLI on the same 4096 records: a tamper writes cluster.state
as a HEAD line and one line per pending fault, a verify, report or tamper
after it replays the faults onto the cluster the ledger's replay ended
in, so it loads no snapshot and parses no manifest, and a recover after
it loads and parses one of each, the last point's, to restore it.
"""

import hashlib
import sys

import pytest

from cloudledger import (
    FaultKind,
    FaultSpec,
    Mode,
    RecoveryAction,
    ServerState,
    append,
    delete,
    generate_payload,
    inject_fault,
    load_ledger,
    make_block,
    read_manifest,
    recover,
    update,
    verify_equality,
)
from cloudledger import cli
from cloudledger import ledger as ledger_module
from cloudledger.ledger import load_cluster
from helpers import make_committed_state


class CountingFormat(str):
    """A record line format that counts the lines rendered with it."""

    rendered = 0

    def __mod__(self, values):
        CountingFormat.rendered += 1
        return str.__mod__(self, values)


class CountingStore(dict):
    """A block store that lists the digests looked up in it."""

    def __init__(self, blocks):
        super().__init__(blocks)
        self.looked_up = []

    def __contains__(self, digest):
        self.looked_up.append(digest)
        return super().__contains__(digest)

    def __getitem__(self, digest):
        self.looked_up.append(digest)
        return super().__getitem__(digest)

    def get(self, digest, default=None):
        self.looked_up.append(digest)
        return super().get(digest, default)


@pytest.fixture
def counted(monkeypatch):
    """A committed 4096-record, 8-server state whose record renders, puts and store lookups are counted."""
    cluster, ledger = make_committed_state(generate_payload(5, 4096 * 16), 8, 16)
    assert len(ledger.last().manifest.records) == 4096
    ledger.blocks = CountingStore(ledger.blocks)
    cluster_module, manifest_module = sys.modules["cloudledger.cluster"], sys.modules["cloudledger.manifest"]
    monkeypatch.setattr(cluster_module, "_RECORD_FORMAT", CountingFormat(cluster_module._RECORD_FORMAT))
    CountingFormat.rendered = 0
    whole, render = [], manifest_module._render_records

    def render_whole(records):
        whole.append(len(records))
        return render(records)

    monkeypatch.setattr(manifest_module, "_render_records", render_whole)
    puts, put = [], ServerState.put

    def counting_put(server, block_id, block):
        puts.append((server.server_index, block_id))
        put(server, block_id, block)

    monkeypatch.setattr(ServerState, "put", counting_put)
    return cluster, ledger, puts, whole


def test_a_commit_renders_one_line_per_put_and_looks_up_only_the_written_block(counted):
    cluster, ledger, puts, whole = counted

    def commit_row(operation):
        """Run one step; return (puts, record lines rendered, digests looked up in the store)."""
        puts.clear()
        CountingFormat.rendered = 0
        ledger.blocks.looked_up.clear()
        operation()
        assert whole == []  # nothing renders a whole server's or manifest's records
        return len(puts), CountingFormat.rendered, sorted(ledger.blocks.looked_up)

    changed, appended = make_block(b"changed").digest, make_block(b"appended").digest
    assert commit_row(lambda: update(cluster, ledger, 3, 100, b"changed")) == (1, 1, [changed])
    assert commit_row(lambda: append(cluster, ledger, 5, b"appended")) == (1, 1, [appended])
    assert commit_row(lambda: delete(cluster, ledger, 2, 7)) == (0, 0, [])
    assert commit_row(lambda: update(cluster, ledger, 3, 100, b"changed")) == (1, 1, [changed])

    def fault_recover_update():
        inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 6, 9, seed=1))
        assert recover(ledger, cluster).action is RecoveryAction.RESTORED
        ledger.blocks.looked_up.clear()  # the restore takes its blocks from the store; count the commit's
        update(cluster, ledger, 1, 4, b"again")

    # The fault and the restore each put a block on server 6, which the commit compares, not looks up.
    assert commit_row(fault_recover_update) == (3, 3, [make_block(b"again").digest])


class CountingTuple(tuple):
    """A tuple that counts the times it is compared for equality."""

    compared = 0
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        CountingTuple.compared += 1
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        CountingTuple.compared += 1
        return tuple.__ne__(self, other)


def test_reads_between_writes_share_one_record_tuple(counted, monkeypatch):
    """The cluster module builds its record tuples as CountingTuples, which
    count each comparison of two record tuples, whichever side they are on."""
    cluster, ledger, _, _ = counted
    monkeypatch.setattr(sys.modules["cloudledger.cluster"], "tuple", CountingTuple, raising=False)

    def compared(operation):
        """Run one step; return (record tuple comparisons, its result)."""
        CountingTuple.compared = 0
        result = operation()
        return CountingTuple.compared, result

    verify = lambda: verify_equality(ledger.last().manifest, read_manifest(cluster), Mode.CHECKSUM).z
    for operation in (lambda: update(cluster, ledger, 3, 100, b"changed"), lambda: delete(cluster, ledger, 2, 7),
                      lambda: append(cluster, ledger, 5, b"appended")):
        assert compared(operation)[0] == 1  # the post-check: the prediction against the records just written
        assert read_manifest(cluster).records is ledger.last().manifest.records
        assert compared(verify) == (0, True)
        assert compared(lambda: recover(ledger, cluster).action) == (0, RecoveryAction.INTACT)

    parts = [server.record_tuple() for server in cluster.servers]
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 6, 9, seed=1))
    assert [server.record_tuple() is part for server, part in zip(cluster.servers, parts)] == [
        index != 6 for index in range(8)]
    assert recover(ledger, cluster).action is RecoveryAction.RESTORED


class WalkedDict(dict):
    """A server's blocks, listing each walk over them."""

    walks = []

    def __iter__(self):
        WalkedDict.walks.append("iter")
        return super().__iter__()

    def values(self):
        WalkedDict.walks.append("values")
        return super().values()

    def items(self):
        WalkedDict.walks.append("items")
        return super().items()


def test_a_clean_save_walks_no_block(tmp_path):
    """save_cluster writes what the cluster lists, never a block: nothing
    while it is the last point, and a HEAD line and the fault's line after
    a fault, whatever the record count."""
    cluster, ledger = make_committed_state(generate_payload(3, 256 * 16), 8, 16, seed=11, directory=tmp_path)
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 6, 9, seed=1))
    for server in cluster.servers:
        server.blocks = WalkedDict(server.blocks)
    WalkedDict.walks = []
    ledger_module.save_cluster(ledger, cluster)
    assert (tmp_path / "cluster.state").read_bytes() == b"HEAD 0\nflip-byte server=6 block=9 seed=10\n"
    cluster.faults = []
    ledger_module.save_cluster(ledger, cluster)
    assert WalkedDict.walks == [] and (tmp_path / "cluster.state").read_bytes() == b""


def test_a_pending_fault_is_a_line_and_replays_without_a_snapshot(tmp_path, monkeypatch, capsys):
    directory = tmp_path / "ledger"
    flags = ["--servers", "8", "--block-size", "16", "--seed", "3", "--ledger-dir", str(directory)]
    assert cli.run([*flags, "upload", "--gen-bytes", str(4096 * 16)]) == 0
    assert len(load_ledger(directory).last().manifest.records) == 4096
    counts = {}
    for module, name in ((ledger_module, "load_snapshot"), (sys.modules["cloudledger.cluster"], "parse_manifest")):
        function = getattr(module, name)

        def counting(*args, function=function, name=name, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def calls(*argv):
        """Run one command; return (exit code, load_snapshot calls, parse_manifest calls)."""
        counts.update(load_snapshot=0, parse_manifest=0)
        return cli.run([*flags, *argv]), counts["load_snapshot"], counts["parse_manifest"]

    lines = [b"HEAD 0"]
    for server in range(3):
        assert calls("tamper", "--kind", "flip-byte", "--server", str(server), "--block", "9") == (0, 0, 0)
        lines.append(b"flip-byte server=%d block=9 seed=3" % server)
        assert (directory / "cluster.state").read_bytes() == b"\n".join([*lines, b""])
    assert calls("verify") == (1, 0, 0)
    assert calls("report") == (0, 0, 0)
    capsys.readouterr()
    assert calls("recover") == (0, 1, 1)
    assert capsys.readouterr().out == "RESTORED epoch=0\n" and (directory / "cluster.state").read_bytes() == b""


def epoch_file_bytes(ledger, stored, written):
    """The size of the ledger's last epoch file: its line, an entry per
    block its commit was first to store (the blocks the store gained past
    its first ``stored``), a 65-byte reference per other block of the
    ``written`` its operation wrote, and its 78-byte chain line."""
    added = list(ledger.blocks.values())[stored:]
    entries = sum(len(f"{len(block.payload)}\n") + len(block.payload) + 1 for block in added)
    return len(ledger.last().op) + 1 + entries + 65 * (written - len(added)) + len("CHAIN sha256=") + 65


def assert_no_text(points):
    assert not any(isinstance(field, str) for point in points for field in (*point, *point.manifest))
    assert all(type(point.record) is bytes for point in points)


@pytest.mark.parametrize("records, epochs", [(16, 1), (16, 7), (64, 7), (64, 19)])
def test_a_load_parses_one_snapshot_and_replays_one_write_per_later_epoch(tmp_path, monkeypatch, records, epochs):
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(generate_payload(records, records * 8), 4, 8, directory=directory)
    assert len(ledger.blocks) == records  # distinct blocks: 0.snapshot holds an entry for each, and no reference
    assert (directory / "0.snapshot").stat().st_size == epoch_file_bytes(ledger, 0, records)
    for epoch in range(1, epochs):
        stored = len(ledger.blocks)
        server = epoch % 4
        if epoch % 3 == 1:
            append(cluster, ledger, server, generate_payload(epoch, epoch))
        elif epoch % 3 == 2:  # to bytes the store holds, so the file has no entry
            copied = next(iter(cluster.servers[(server + 1) % 4].blocks.values())).payload
            update(cluster, ledger, server, max(cluster.servers[server].blocks), copied)
        else:
            delete(cluster, ledger, server, min(cluster.servers[server].blocks))
        written = 0 if ledger.last().op.startswith("DELETE") else 1
        assert (directory / f"{epoch}.snapshot").stat().st_size == epoch_file_bytes(ledger, stored, written), epoch
    (directory / "cluster.state").write_bytes(b"")  # the live cluster is the last point
    assert_no_text(ledger.points)

    counts = {"load_snapshot": 0, "parse_manifest": 0, "snapshot_cluster": 0, "writes": 0, "hashed": 0}
    chained = []

    class CountingHashlib:
        """hashlib as the ledger module sees it, listing what it passes to sha256."""

        @staticmethod
        def sha256(data):
            chained.append(len(data))
            return hashlib.sha256(data)

    cluster_module = sys.modules["cloudledger.cluster"]
    monkeypatch.setattr(cluster_module, "_RECORD_FORMAT", CountingFormat(cluster_module._RECORD_FORMAT))
    CountingFormat.rendered = 0

    def counted(module, name, key):
        function = getattr(module, name)

        def counting(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    counted(ledger_module, "load_snapshot", "load_snapshot")
    counted(ledger_module, "make_block", "hashed")
    counted(ledger_module, "snapshot_cluster", "snapshot_cluster")
    monkeypatch.setattr(ledger_module, "hashlib", CountingHashlib)
    counted(cluster_module, "parse_manifest", "parse_manifest")
    counted(ServerState, "put", "writes")
    counted(ServerState, "drop", "writes")
    loaded = load_ledger(directory)
    live = load_cluster(loaded, 0)
    assert counts == {"load_snapshot": 0, "parse_manifest": 0, "snapshot_cluster": 1,
                      "writes": records + epochs - 1, "hashed": len(loaded.blocks)}
    sizes = [(directory / f"{epoch}.snapshot").stat().st_size for epoch in range(epochs)]
    assert chained == [size - 78 + 64 * (epoch > 0) for epoch, size in enumerate(sizes)]
    assert CountingFormat.rendered == records + sum(not point.op.startswith("DELETE") for point in ledger.points[1:])
    assert loaded.points == ledger.points
    assert_no_text(loaded.points)
    assert [server.records for server in live.servers] == [server.records for server in cluster.servers]
